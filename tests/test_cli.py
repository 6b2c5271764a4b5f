import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from xsrl.cli import build_parser, main
from xsrl.corpus import UNIVERSAL_TAGS, parse_srl_corpus
from xsrl.eval import parse_report
from xsrl.projection import ProjectionStats

from conftest import DATA

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture
def toy(tmp_path):
    for name in ("en_srl.conllu", "de_trans.conllu", "de_tagged.conllu",
                 "de_dev.conllu", "bitext.txt"):
        shutil.copy(DATA / name, tmp_path / name)
    return tmp_path


def run(*argv):
    return main([str(a) for a in argv])


def test_align_train_writes_table(toy, capsys):
    out = toy / "table.tsv"
    assert run("align-train", "--parallel", toy / "bitext.txt",
               "--iterations", "3", "--out", out) == 0
    assert out.read_text().startswith("floor\t")


def test_align_train_missing_input_exits_2(toy, capsys):
    assert run("align-train", "--parallel", toy / "nope.txt",
               "--out", toy / "t.tsv") == 2
    assert "error" in capsys.readouterr().err


def _prepare(toy):
    run("align-train", "--parallel", toy / "bitext.txt", "--iterations", "8",
        "--out", toy / "table.tsv")
    run("fit-pos", "--tagged", toy / "de_tagged.conllu", "--out", toy / "pos.tsv")


def test_project_round_trips_and_stats_keys(toy, capsys):
    _prepare(toy)
    assert run("project", "--src", toy / "en_srl.conllu",
               "--translations", toy / "de_trans.conllu",
               "--table", toy / "table.tsv", "--posdist", toy / "pos.tsv",
               "--out", toy / "proj.conllu", "--stats", toy / "proj.stats") == 0
    projected = parse_srl_corpus((toy / "proj.conllu").read_text())
    assert len(projected.sentences) == 50
    keys = [line.split("\t")[0]
            for line in (toy / "proj.stats").read_text().splitlines()]
    assert keys == list(ProjectionStats.FIELDS)


def test_a_cased_source_keeps_what_the_shipped_toy_keeps(toy, capsys):
    """The table keeps the bitext's spelling and the projection looks each
    source word up as the corpus spells it, so title-casing the English
    side of the bitext and of the source corpus alike keeps the shipped
    toy's 62 of 63 frames and 133 of 150 arguments at alpha 0.4."""
    bitext = [line.split(" ||| ") for line in (DATA / "bitext.txt").read_text().splitlines()]
    (toy / "bitext.txt").write_text("".join(f"{src.title()} ||| {tgt}\n" for src, tgt in bitext))
    rows = [line.split("\t") for line in (DATA / "en_srl.conllu").read_text().split("\n")]
    (toy / "en_srl.conllu").write_text("\n".join(
        "\t".join([row[0], row[1].title(), *row[2:]]) if len(row) > 1 else row[0]
        for row in rows))
    assert (toy / "bitext.txt").read_text().startswith("A Cat Helps The Man . ||| eine katze")
    assert run("align-train", "--parallel", toy / "bitext.txt", "--iterations", "10",
               "--out", toy / "table.tsv") == 0
    assert run("fit-pos", "--tagged", toy / "de_tagged.conllu", "--out", toy / "pos.tsv") == 0
    assert run(*_project_inputs(toy, "project"), "--alpha", "0.4") == 0
    stats = dict(line.split("\t") for line in (toy / "out.stats").read_text().splitlines())
    assert (stats["frames_in"], stats["frames_kept"]) == ("63", "62")
    assert (stats["args_in"], stats["args_kept"]) == ("150", "133")


def test_align_train_has_no_lowercase_flag(toy, capsys):
    with pytest.raises(SystemExit) as exc:
        run("align-train", "--parallel", toy / "bitext.txt", "--lowercase",
            "--out", toy / "t.tsv")
    assert exc.value.code == 2
    assert "error: unrecognized arguments: --lowercase\n" in capsys.readouterr().err
    assert not (toy / "t.tsv").exists()


def test_align_train_that_cannot_fit_exits_2_before_training(toy, capsys, monkeypatch):
    import numpy as np

    from xsrl import malloc

    def never(*args, **kwargs):
        raise AssertionError("the entries were numbered")

    monkeypatch.setattr(malloc, "physical_memory", lambda: 2**16)
    monkeypatch.setattr(np, "argsort", never)
    assert run("align-train", "--parallel", toy / "bitext.txt", "--out", toy / "t.tsv") == 2
    err = capsys.readouterr().err
    assert err.startswith(f"xsrl: error: {toy / 'bitext.txt'}: aligning its 200 pairs "
                          f"(13,078 links) needs about ")
    assert "GiB" in err
    assert not (toy / "t.tsv").exists()


def test_align_train_counts_the_table_entries(tmp_path, capsys, monkeypatch):
    from xsrl import malloc

    # 20 distinct words a side in each of 100 pairs: every link its own entry
    lines = [" ".join(f"s{p}.{i}" for i in range(20)) + " ||| "
             + " ".join(f"t{p}.{i}" for i in range(20)) for p in range(100)]
    (tmp_path / "bitext.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    monkeypatch.setattr(malloc, "physical_memory", lambda: 2**22)  # 4 MB
    assert run("align-train", "--parallel", tmp_path / "bitext.txt",
               "--out", tmp_path / "t.tsv") == 2
    assert capsys.readouterr().err.startswith(
        f"xsrl: error: {tmp_path / 'bitext.txt'}: aligning its 100 pairs (42,000 links, "
        "42,000 table entries) needs about ")
    assert not (tmp_path / "t.tsv").exists()


def test_data_prep_never_imports_numpy_ma(toy):
    # numpy.ma, which np.unique imports, adds about a megabyte to a process
    script = f"""
import sys
from xsrl.cli import main
toy = {str(toy)!r}
argvs = [
    ["align-train", "--parallel", toy + "/bitext.txt", "--out", toy + "/table.tsv"],
    ["fit-pos", "--tagged", toy + "/de_tagged.conllu", "--out", toy + "/pos.tsv"],
    ["project", "--src", toy + "/en_srl.conllu", "--translations", toy + "/de_trans.conllu",
     "--table", toy + "/table.tsv", "--posdist", toy + "/pos.tsv", "--out", toy + "/p.conllu"],
    ["stats", "--input", toy + "/p.conllu"],
]
for argv in argvs:
    assert main(argv) == 0, argv
print("numpy.ma" in sys.modules)
"""
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"


def _project_inputs(toy, command, src="en_srl.conllu", translations="de_trans.conllu"):
    """The argv of ``project`` or ``sweep-alpha`` over the toy recipe's
    files, with ``src`` and ``translations`` from ``toy``."""
    alphas = ("--alphas", "0.5") if command == "sweep-alpha" else ()
    return (command, "--src", toy / src, "--translations", toy / translations,
            "--table", toy / "table.tsv", "--posdist", toy / "pos.tsv", *alphas,
            "--out", toy / "out")


def _comments_only(block: str) -> str:
    return "\n".join(line for line in block.split("\n") if line.startswith("#"))


# (command, the blocks of de_trans.conllu that a cut translations file
# keeps, the error after its path, with {src} for the --src path); a
# translation of comment lines only is an empty sentence that keeps its
# place, so it is blamed as such, not as a shifted count
CUT_TRANSLATIONS = [
    ("project", lambda blocks: blocks[:5],
     "translation count 5 != sentence count 50 in --src {src}"),
    ("sweep-alpha", lambda blocks: blocks[:5],
     "translation count 5 != sentence count 50 in --src {src}"),
    ("project", lambda blocks: [*blocks[:2], _comments_only(blocks[2]), *blocks[3:]],
     "sentence 3: empty target sentence"),
]


@pytest.mark.parametrize("command, cut, message", CUT_TRANSLATIONS,
                         ids=["project", "sweep-alpha", "project-comments-only"])
def test_project_sentence_count_mismatch_exits_2(toy, capsys, command, cut, message):
    """Translations that do not pair up with the source sentences are
    blamed on --translations, with both counts and the --src file, counted
    to the end of both files.  An empty translation is blamed on
    --translations with its sentence number."""
    _prepare(toy)
    blocks = (toy / "de_trans.conllu").read_text().split("\n\n")
    (toy / "cut.conllu").write_text("\n\n".join(cut(blocks)))
    capsys.readouterr()
    assert run(*_project_inputs(toy, command, translations="cut.conllu")) == 2
    assert capsys.readouterr().err == (
        f"xsrl: error: {toy / 'cut.conllu'}: "
        f"{message.format(src=toy / 'en_srl.conllu')}\n")


@pytest.mark.parametrize("command", ["project", "sweep-alpha"])
def test_project_untagged_source_token_exits_2_naming_src(toy, capsys, command):
    """A source argument whose UPOS is ``_`` cannot be scored against the
    POS distribution; the source corpus is the file to fix."""
    _prepare(toy)
    text = (toy / "en_srl.conllu").read_text()
    (toy / "untagged.conllu").write_text(
        text.replace("2\tcat\tcat\tNOUN\t", "2\tcat\tcat\t_\t", 1))
    capsys.readouterr()
    assert run(*_project_inputs(toy, command, src="untagged.conllu")) == 2
    assert capsys.readouterr().err == (
        f"xsrl: error: {toy / 'untagged.conllu'}: sentence 1: token 2 ('cat') "
        f"has no POS tag\n")


def test_project_alpha_monotone(toy, capsys):
    _prepare(toy)

    def frames_kept(alpha):
        run("project", "--src", toy / "en_srl.conllu",
            "--translations", toy / "de_trans.conllu",
            "--table", toy / "table.tsv", "--posdist", toy / "pos.tsv",
            "--alpha", alpha, "--out", toy / "p.conllu", "--stats", toy / "p.stats")
        stats = dict(line.split("\t")
                     for line in (toy / "p.stats").read_text().splitlines())
        return int(stats["frames_kept"])

    assert frames_kept("0") >= frames_kept("0.8")


def test_project_then_stats_agree(toy, capsys):
    _prepare(toy)
    run("project", "--src", toy / "en_srl.conllu",
        "--translations", toy / "de_trans.conllu",
        "--table", toy / "table.tsv", "--posdist", toy / "pos.tsv",
        "--out", toy / "proj.conllu", "--stats", toy / "proj.stats")
    stats = dict(line.split("\t")
                 for line in (toy / "proj.stats").read_text().splitlines())
    capsys.readouterr()
    run("stats", "--input", toy / "proj.conllu")
    reported = dict(line.split("\t")
                    for line in capsys.readouterr().out.splitlines())
    assert reported["predicates"] == stats["frames_kept"]
    assert reported["arguments"] == stats["args_kept"]


TRAIN_FLAGS = ("--variant", "pgn", "--word-dim", "12", "--pos-dim", "6",
               "--pred-dim", "6", "--lang-dim", "4", "--hidden", "16",
               "--layers", "1", "--epochs", "4", "--batch-size", "20",
               "--learning-rate", "0.01")


def test_train_two_languages_and_determinism(toy, capsys):
    model_a, model_b = toy / "a.bin", toy / "b.bin"
    for out in (model_a, model_b):
        assert run("train", "--train-file", toy / "en_srl.conllu",
                   "--train-file", toy / "de_dev.conllu",
                   "--seed", "7", "--out", out, *TRAIN_FLAGS) == 0
    assert model_a.read_bytes() == model_b.read_bytes()
    from xsrl.model import load_model
    model = load_model(str(model_a))
    assert model.vocab.languages == ("DE", "EN")


def test_a_second_command_leaves_no_cyclic_garbage(toy, capsys):
    """Once a first command has set up the process, a second one leaves
    nothing for the cyclic collector to free."""
    import gc

    argv = ["stats", "--input", toy / "en_srl.conllu"]
    assert run(*argv) == 0
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        assert run(*argv) == 0
        found = gc.collect()
        garbage = [type(obj).__name__ for obj in gc.garbage]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    assert found == 0, garbage


def test_train_missing_language_exits_2(toy, capsys):
    bare = "1\ta\ta\tNOUN\t_\t_\t0\tdep\t_\t_\ta.01\n\n"
    (toy / "nolang.conllu").write_text(bare)
    assert run("train", "--train-file", toy / "nolang.conllu",
               "--out", toy / "m.bin", *TRAIN_FLAGS) == 2


def test_predict_eval_identity(toy, capsys):
    assert run("train", "--train-file", toy / "de_dev.conllu", "--seed", "3",
               "--out", toy / "m.bin", *TRAIN_FLAGS) == 0
    assert run("predict", "--model", toy / "m.bin", "--input", toy / "de_dev.conllu",
               "--out", toy / "pred.conllu") == 0
    parse_srl_corpus((toy / "pred.conllu").read_text())
    capsys.readouterr()
    assert run("eval", "--gold", toy / "de_dev.conllu", "--pred", toy / "de_dev.conllu",
               "--out", toy / "self.report") == 0
    report = parse_report((toy / "self.report").read_text())
    assert report.f1 == 1.0


def test_aggregate_reports(toy, capsys):
    run("eval", "--gold", toy / "de_dev.conllu", "--pred", toy / "de_dev.conllu",
        "--out", toy / "r1.report")
    run("eval", "--gold", toy / "de_dev.conllu", "--pred", toy / "de_dev.conllu",
        "--out", toy / "r2.report")
    capsys.readouterr()
    assert run("aggregate", toy / "r1.report", toy / "r2.report",
               "--out", toy / "avg.report") == 0
    assert parse_report((toy / "avg.report").read_text()).f1 == 1.0


def test_similarity_csv(toy, capsys):
    run("train", "--train-file", toy / "en_srl.conllu",
        "--train-file", toy / "de_dev.conllu", "--seed", "5",
        "--out", toy / "m.bin", *TRAIN_FLAGS)
    capsys.readouterr()
    assert run("similarity", "--model", toy / "m.bin") == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "lang,DE,EN"


def test_sweep_alpha_dedup_and_counts(toy, capsys):
    _prepare(toy)
    capsys.readouterr()
    assert run("sweep-alpha", "--src", toy / "en_srl.conllu",
               "--translations", toy / "de_trans.conllu",
               "--table", toy / "table.tsv", "--posdist", toy / "pos.tsv",
               "--alphas", "0,1,1", "--out", toy / "sweep.csv") == 0
    assert capsys.readouterr().err == "xsrl: warning: duplicate alpha 1.0 ignored\n"
    rows = (toy / "sweep.csv").read_text().splitlines()
    assert len(rows) == 3  # header + two unique alphas
    header = rows[0].split(",")
    first = dict(zip(header, rows[1].split(",")))
    last = dict(zip(header, rows[2].split(",")))
    assert int(first["frames_kept"]) >= int(last["frames_kept"])


def test_sweep_alpha_places_each_word_once(toy, capsys, monkeypatch):
    """A sweep places every source word as one ``project`` does, whatever
    the number of thresholds: α only cuts the placed winners."""
    import xsrl.projection

    _prepare(toy)
    placed = []
    best_target = xsrl.projection.best_target
    monkeypatch.setattr(xsrl.projection, "best_target",
                        lambda *args: placed.append(args[1]) or best_target(*args))
    inputs = ("--src", toy / "en_srl.conllu", "--translations", toy / "de_trans.conllu",
              "--table", toy / "table.tsv", "--posdist", toy / "pos.tsv")
    assert run("project", *inputs, "--out", toy / "p.conllu") == 0
    projected = len(placed)
    assert run("sweep-alpha", *inputs, "--alphas", "0,0.5,1", "--out", toy / "sweep.csv") == 0
    swept = len(placed) - projected
    assert projected > 0 and swept == projected


def test_sweep_alpha_with_train(toy, capsys):
    _prepare(toy)
    assert run("sweep-alpha", "--src", toy / "en_srl.conllu",
               "--translations", toy / "de_trans.conllu",
               "--table", toy / "table.tsv", "--posdist", toy / "pos.tsv",
               "--alphas", "0.2,0.4,0.6", "--train", "--dev", toy / "de_dev.conllu",
               "--seed", "3", "--out", toy / "sweep.csv", *TRAIN_FLAGS) == 0
    rows = (toy / "sweep.csv").read_text().splitlines()
    header = rows[0].split(",")
    assert header[-1] == "f1"
    assert len(rows) == 4
    for row in rows[1:]:
        f1 = float(row.split(",")[-1])
        assert 0.0 <= f1 <= 1.0


# SHA-256 of the toy sweep over 11 thresholds with --train (TRAIN_FLAGS at
# learning rate 0.05, seed 3), recorded from the sweep that trained one
# model per threshold
SWEEP_TRAIN_DIGEST = "eac081c89cdc8e8cc38f32c8bfb9bba07481cc7d2d9ad289ec95de6a587ed952"


def test_sweep_alpha_trains_once_per_distinct_cut(toy, capsys, monkeypatch):
    """The cuts are nested, so thresholds that keep as many frames and
    arguments keep the same ones: the sweep trains once per distinct
    non-empty cut (α 0 to 0.4 keep every winner, 0.5 and 0.6 keep fewer,
    0.7 and up none) and writes what one training per threshold wrote."""
    import hashlib

    import xsrl.cli

    _prepare(toy)
    trained = []
    train = xsrl.cli.train
    monkeypatch.setattr(xsrl.cli, "train", lambda *args, **kwargs:
                        trained.append(args[0]) or train(*args, **kwargs))
    assert run("sweep-alpha", "--src", toy / "en_srl.conllu",
               "--translations", toy / "de_trans.conllu",
               "--table", toy / "table.tsv", "--posdist", toy / "pos.tsv",
               "--alphas", ",".join(f"{i / 10:g}" for i in range(11)),
               "--train", "--dev", toy / "de_dev.conllu", "--seed", "3",
               "--out", toy / "sweep.csv", *TRAIN_FLAGS, "--learning-rate", "0.05") == 0
    assert len(trained) == 3
    assert hashlib.sha256((toy / "sweep.csv").read_bytes()).hexdigest() == SWEEP_TRAIN_DIGEST


def test_sweep_alpha_train_without_dev_exits_2(toy, capsys):
    assert run(*_project_inputs(toy, "sweep-alpha"), "--train") == 2
    assert capsys.readouterr().err == (
        "xsrl: error: --train needs a --dev corpus to score against\n")
    assert not (toy / "out").exists()


def test_config_file_presets(toy, capsys):
    (toy / "xsrl.cfg").write_text("iterations = 2\nfloor = 0.001\n")
    assert run("align-train", "--parallel", toy / "bitext.txt",
               "--config", toy / "xsrl.cfg", "--out", toy / "t.tsv") == 0
    assert (toy / "t.tsv").read_text().startswith("floor\t0.001")
    err = capsys.readouterr().err
    assert err.count("iteration") == 2


def test_train_with_pretrained_embeddings(toy, capsys):
    words = sorted({t.split("\t")[1]
                    for t in (toy / "de_dev.conllu").read_text().splitlines()
                    if t and not t.startswith("#")})
    lines = [f"{len(words)} 4"]
    lines += [f"{w} {i}.0 0.5 -1.0 2.0" for i, w in enumerate(words)]
    (toy / "vectors.txt").write_text("\n".join(lines) + "\n")
    assert run("train", "--train-file", toy / "de_dev.conllu", "--seed", "2",
               "--embeddings", toy / "vectors.txt",
               "--out", toy / "emb.bin", *TRAIN_FLAGS) == 0
    from xsrl.model import load_model
    model = load_model(str(toy / "emb.bin"))
    assert model.config.word_dim == 4
    assert model.config.train_word_table is False
    assert model.vocab.words == ("<unk>", *words)
    corpus = parse_srl_corpus((toy / "de_dev.conllu").read_text())
    assert model.vocab.pos_tags == (*sorted(UNIVERSAL_TAGS), "_")
    assert model.vocab.labels == tuple(sorted({*corpus.role_inventory, "O"}))
    assert model.vocab.languages == ("DE",)
    assert model.params["word_table"][1:, 0].tolist() == list(
        float(i) for i in range(len(words)))


def test_seed_env_fallback(toy, monkeypatch):
    monkeypatch.setenv("XSRL_SEED", "7")
    assert run("train", "--train-file", toy / "de_dev.conllu",
               "--out", toy / "env.bin", *TRAIN_FLAGS) == 0
    assert run("train", "--train-file", toy / "de_dev.conllu", "--seed", "7",
               "--out", toy / "flag.bin", *TRAIN_FLAGS) == 0
    assert (toy / "env.bin").read_bytes() == (toy / "flag.bin").read_bytes()


@pytest.mark.parametrize("value, message", [("abc", "invalid int value: 'abc'"),
                                            ("-1", "must be >= 0, got -1")])
def test_bad_seed_variable_exits_2_naming_it(toy, capsys, monkeypatch, value, message):
    monkeypatch.setenv("XSRL_SEED", value)
    assert run("train", "--train-file", toy / "de_dev.conllu",
               "--out", toy / "m.bin", *TRAIN_FLAGS) == 2
    assert capsys.readouterr().err == f"xsrl: error: XSRL_SEED: {message}\n"
    assert not (toy / "m.bin").exists()


def test_internal_error_exits_3(toy, monkeypatch, capsys):
    import xsrl.cli as cli

    def boom(args):
        raise RuntimeError("simulated bug")

    # main() looks the command up when it runs, so the stub is picked up
    monkeypatch.setattr(cli, "cmd_stats", boom)
    assert cli.main(["stats", "--input", str(toy / "en_srl.conllu")]) == 3
    assert "internal error" in capsys.readouterr().err


def test_reproducible_outputs(toy, capsys):
    _prepare(toy)
    for suffix in ("1", "2"):
        run("project", "--src", toy / "en_srl.conllu",
            "--translations", toy / "de_trans.conllu",
            "--table", toy / "table.tsv", "--posdist", toy / "pos.tsv",
            "--out", toy / f"p{suffix}.conllu", "--stats", toy / f"s{suffix}.tsv")
    assert (toy / "p1.conllu").read_bytes() == (toy / "p2.conllu").read_bytes()
    assert (toy / "s1.tsv").read_bytes() == (toy / "s2.tsv").read_bytes()


def test_explicit_flag_at_default_beats_config_file(toy, capsys):
    (toy / "xsrl.cfg").write_text("iterations = 2\n")
    assert run("align-train", "--parallel", toy / "bitext.txt", "--iterations", "10",
               "--config", toy / "xsrl.cfg", "--out", toy / "t.tsv") == 0
    assert capsys.readouterr().err.count("iteration") == 10


def test_threads_flag_is_gone(toy, capsys):
    with pytest.raises(SystemExit) as exc:
        run("--threads", "2", "stats", "--input", toy / "en_srl.conllu")
    assert exc.value.code == 2


@pytest.mark.parametrize("variant", ["basic", "pgn"])
def test_non_finite_training_exits_3(toy, variant):
    """A diverging run prints its one error line and nothing else: no
    numpy warning from this process or from the right-to-left partner.
    It runs as a fresh process, whose warnings pytest does not catch."""
    # the first Adam step moves every parameter by about the learning rate,
    # so the second batch's CRF scores overflow
    flags = list(TRAIN_FLAGS)
    flags[flags.index("--learning-rate") + 1] = "1e308"
    flags[flags.index("--variant") + 1] = variant
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-m", "xsrl.cli", "train", "--train-file", str(toy / "de_dev.conllu"),
         "--seed", "2", "--out", str(toy / "nan.bin"), *flags],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 3
    assert proc.stderr == "xsrl: error: non-finite loss or gradient in epoch 1, batch 2\n"
    assert proc.stdout == ""
    assert not (toy / "nan.bin").exists()


def test_flagless_default_model_exits_2_before_allocating(toy, capsys, monkeypatch):
    from xsrl import malloc

    monkeypatch.setattr(malloc, "physical_memory", lambda: 8 * 2**30)
    assert run("train", "--train-file", toy / "de_dev.conllu", "--out", toy / "m.bin") == 2
    err = capsys.readouterr().err
    assert "GiB" in err and "--hidden" in err and "--lang-dim" in err


# SHA-256 of the README toy recipe's data-prep outputs, recorded from the
# dict-and-loop implementation these stages replaced; a faster stage must
# write the same bytes.
PREP_DIGESTS = {
    "table.tsv": "47831ca0881e921f4ce7fb40b1b70f96a31f2c91b5672423e59580131cfed6fc",
    "align-train.stderr": "e1a9343ea752cd2b4f0f88c0f74605bc2845aa052a6224746c175396800bd033",
    "pos.tsv": "3f6c85267c115feddb3b28656a758acd79f171e018850145d5375388a323ac4a",
    "de_pseudo.conllu": "b4d846d1a35f877b7eb06cd0c2a874d8236bf0cb7949460ba49398356c958a35",
    "de_pseudo.stats": "94fee1112be68cbc646ced3670fa525badbbb63a1d346595100ec0e33f33c9c2",
    "counts.txt": "8eceb7bbb083bcbff00f8e881cd15056cdf4d96218ba6392dac858c80b4e5bb2",
    # recorded from the per-candidate projection that one pass per sentence replaced
    "sweep.csv": "aa00fb3e3f19fc49af407cd09076f620c54db74cd49e3ce0a10d8099b48565c7",
}


def test_prep_outputs_match_recorded_digests(toy, capsys):
    import hashlib

    assert run("align-train", "--parallel", toy / "bitext.txt", "--iterations", "10",
               "--out", toy / "table.tsv") == 0
    (toy / "align-train.stderr").write_text(capsys.readouterr().err, encoding="utf-8")
    assert run("fit-pos", "--tagged", toy / "de_tagged.conllu", "--out", toy / "pos.tsv") == 0
    assert run("project", "--src", toy / "en_srl.conllu",
               "--translations", toy / "de_trans.conllu",
               "--table", toy / "table.tsv", "--posdist", toy / "pos.tsv", "--alpha", "0.4",
               "--out", toy / "de_pseudo.conllu", "--stats", toy / "de_pseudo.stats") == 0
    assert run("stats", "--input", toy / "de_pseudo.conllu", "--out", toy / "counts.txt") == 0
    assert run("sweep-alpha", "--src", toy / "en_srl.conllu",
               "--translations", toy / "de_trans.conllu",
               "--table", toy / "table.tsv", "--posdist", toy / "pos.tsv",
               "--alphas", "0,0.2,0.4,0.6,0.8,1", "--out", toy / "sweep.csv") == 0
    digests = {name: hashlib.sha256((toy / name).read_bytes()).hexdigest()
               for name in PREP_DIGESTS}
    assert digests == PREP_DIGESTS


# SHA-256 of the checkpoint and the predicted corpus of short PGN and BASIC
# runs on data/toy (EN and DE, so PGN batches mix two language groups),
# recorded from the per-group recurrence that training ran before the
# groups shared one, with numpy 2.4 and OpenBLAS 0.3.31 on x86-64; a
# faster training path must write the same bytes.  The loss logs, the eval
# report of each prediction against de_dev, their aggregate and the PGN
# model's similarity CSV were recorded from the three-loop `srl_f1` and the
# per-command writers that one tally and one writer replaced.
TRAIN_DIGESTS = {
    "pgn.bin": "bbd69a2ff5b26e54133196bb9079a57f41f4c9f9c14a9a1c56b90eb77344614e",
    "pgn.conllu": "d7934d20885c2f1ab2ad9c45a409626d81a1a7f3c60d05cac3fcdc96c6a9c8c0",
    "basic.bin": "cce2406d1266ff44ab5eef06e1602b02ea7267db34775dc08fcf524e16841320",
    "basic.conllu": "9e97bd4c474feaae97cf6131ace874c4ecc182d4380b4054c1be29be01fd94d9",
    "pgn.bin.log": "d6a0bfd78937ab8c2356c4363da46b297d872968da7307d919432154c4bd196a",
    "pgn.report": "af3fd1b030af8a30c80dc571e07d05e95173bf3618f3f01d940d35e34b9d40d7",
    "basic.bin.log": "d8b3854341c55f67aaf1b37e7b8481de8c40d1e226dab79eb52b802924b1afd4",
    "basic.report": "b86c11479d52499f86f1ceeec3e80a8acb36f7a23f7c7c0743e001dabd0a8627",
    "aggregate.report": "f55dff35da73577ac52f915cfe8f81a987fcf98ae8a1de48e7ffdf061a4b1447",
    "similarity.csv": "0bf108440e9cc0047f5b16442ca04fb7988b89eb30fabbb3f91a9d12f990a11c",
}


@pytest.fixture(scope="module")
def trained_toy(tmp_path_factory):
    """A directory with the short PGN and BASIC runs of TRAIN_DIGESTS: each
    variant's checkpoint, loss log, prediction of de_dev and eval report."""
    toy = tmp_path_factory.mktemp("trained")
    for name in ("en_srl.conllu", "de_dev.conllu"):
        shutil.copy(DATA / name, toy / name)
    for variant in ("pgn", "basic"):
        flags = list(TRAIN_FLAGS)
        for flag, value in (("--variant", variant), ("--epochs", "3"),
                            ("--learning-rate", "0.05")):
            flags[flags.index(flag) + 1] = value
        assert run("train", "--train-file", toy / "en_srl.conllu",
                   "--train-file", toy / "de_dev.conllu", "--seed", "5",
                   "--out", toy / f"{variant}.bin", *flags) == 0
        assert run("predict", "--model", toy / f"{variant}.bin",
                   "--input", toy / "de_dev.conllu", "--out", toy / f"{variant}.conllu") == 0
        assert run("eval", "--gold", toy / "de_dev.conllu", "--pred", toy / f"{variant}.conllu",
                   "--out", toy / f"{variant}.report") == 0
    return toy


def _sha256(path: Path) -> str:
    import hashlib

    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("variant", ["pgn", "basic"])
def test_train_outputs_match_recorded_digests(trained_toy, variant):
    for name in (f"{variant}.bin", f"{variant}.conllu", f"{variant}.bin.log",
                 f"{variant}.report"):
        assert _sha256(trained_toy / name) == TRAIN_DIGESTS[name], name


def test_aggregate_and_similarity_match_recorded_digests(trained_toy, capsys):
    assert run("aggregate", trained_toy / "pgn.report", trained_toy / "basic.report",
               "--out", trained_toy / "aggregate.report") == 0
    assert run("similarity", "--model", trained_toy / "pgn.bin",
               "--out", trained_toy / "similarity.csv") == 0
    for name in ("aggregate.report", "similarity.csv"):
        assert _sha256(trained_toy / name) == TRAIN_DIGESTS[name], name


# (command, config text, message after "PATH:"); the command line leaves
# the flag to the config file
BAD_CONFIG_VALUES = [
    ("train", "batch_size = 2.5", "1: --batch-size: invalid int value: '2.5'"),
    ("train", "# preset\n\nlearning-rate = fast", "3: --learning-rate: invalid float value: 'fast'"),
    ("train", "variant = big", "1: --variant: invalid choice: 'big' (choose from basic, pgn)"),
    ("align-train", "iterations = abc", "1: --iterations: invalid int value: 'abc'"),
    ("sweep-alpha", "epochs = 1\ntrain = yes", "2: --train: expected true or false, got 'yes'"),
    ("eval", "buckets = 1-x", "1: --buckets: malformed bucket '1-x'"),
    ("align-train", "floor = 2", "1: --floor: must be in [0, 1], got 2.0"),
    ("train", "batch_size = 0", "1: --batch-size: must be >= 1, got 0"),
    ("train", "epochs = 1\npos_dim = -1", "2: --pos-dim: must be >= 1, got -1"),
    ("train", "learning-rate = nan", "1: --learning-rate: must be a finite number > 0, got nan"),
    ("train", "lang = D E", "1: --lang: must be one token with no spaces, got 'D E'"),
    ("eval", "epochs = 1\nlang =", "2: --lang: must be one token with no spaces, got ''"),
]


@pytest.mark.parametrize("command, text, message", BAD_CONFIG_VALUES,
                         ids=[f"{case[0]}-{i}" for i, case in enumerate(BAD_CONFIG_VALUES)])
def test_config_value_takes_the_flags_type(toy, capsys, command, text, message):
    (toy / "bad.cfg").write_text(text + "\n")
    flag = message.split(": ")[1]
    train_flags = [item for name, value in zip(TRAIN_FLAGS[::2], TRAIN_FLAGS[1::2])
                   if name != flag for item in (name, value)]
    inputs = {"train": ["--train-file", toy / "de_dev.conllu", *train_flags],
              "align-train": ["--parallel", toy / "bitext.txt"],
              "sweep-alpha": _project_inputs(toy, "sweep-alpha")[1:-2],
              "eval": ["--gold", toy / "de_dev.conllu", "--pred", toy / "de_dev.conllu"]}[command]
    assert run(command, *inputs, "--config", toy / "bad.cfg", "--out", toy / "out") == 2
    assert f"error: {toy / 'bad.cfg'}:{message}\n" in capsys.readouterr().err
    assert not (toy / "out").exists()


def test_config_switch_reads_true_and_false(toy, capsys):
    """``train = True`` turns ``sweep-alpha --train`` on, which needs a
    ``--dev``; ``train = false`` leaves it off.  No model is trained."""
    _prepare(toy)
    capsys.readouterr()
    (toy / "on.cfg").write_text("train = True\n")
    (toy / "off.cfg").write_text("train = false\n")
    argv = _project_inputs(toy, "sweep-alpha")
    assert run(*argv, "--config", toy / "on.cfg") == 2
    assert capsys.readouterr().err == (
        "xsrl: error: --train needs a --dev corpus to score against\n")
    assert run(*argv, "--config", toy / "off.cfg") == 0
    header = (toy / "out").read_text().split("\n", 1)[0]
    assert header == ",".join(["alpha", *ProjectionStats.FIELDS])


# (command, the flag and its bad value, message after "argument FLAG: ")
BAD_FLAG_VALUES = [
    ("sweep-alpha", "--alphas", "0.2,x", "invalid float value: 'x'"),
    ("sweep-alpha", "--alphas", "", "invalid float value: ''"),
    ("eval", "--buckets", "1-x", "malformed bucket '1-x'"),
    ("eval", "--buckets", "1-2,4+", "buckets leave distance 3 uncovered"),
    ("align-train", "--floor", "2", "must be in [0, 1], got 2.0"),
    ("align-train", "--floor", "-0.5", "must be in [0, 1], got -0.5"),
    ("align-train", "--iterations", "0", "must be >= 1, got 0"),
    ("align-train", "--iterations", "2.5", "invalid int value: '2.5'"),
    ("fit-pos", "--k", "-1", "must be a finite number >= 0, got -1.0"),
    ("fit-pos", "--k", "inf", "must be a finite number >= 0, got inf"),
    ("project", "--alpha", "2", "must be in [0, 1], got 2.0"),
    ("project", "--alpha", "nan", "must be in [0, 1], got nan"),
    ("sweep-alpha", "--alphas", "0.2,2", "must be in [0, 1], got 2.0"),
    ("train", "--seed", "-1", "must be >= 0, got -1"),
    ("train", "--seed", "1.5", "invalid int value: '1.5'"),
    ("sweep-alpha", "--seed", "-1", "must be >= 0, got -1"),
    ("train", "--word-dim", "0", "must be >= 1, got 0"),
    ("train", "--pos-dim", "-1", "must be >= 1, got -1"),
    ("train", "--pred-dim", "0", "must be >= 1, got 0"),
    ("train", "--lang-dim", "0", "must be >= 1, got 0"),
    ("train", "--hidden", "0", "must be >= 1, got 0"),
    ("train", "--layers", "0", "must be >= 1, got 0"),
    ("train", "--batch-size", "0", "must be >= 1, got 0"),
    ("train", "--epochs", "0", "must be >= 1, got 0"),
    ("train", "--learning-rate", "0", "must be a finite number > 0, got 0.0"),
    ("train", "--learning-rate", "-1", "must be a finite number > 0, got -1.0"),
    ("train", "--learning-rate", "nan", "must be a finite number > 0, got nan"),
    ("train", "--learning-rate", "inf", "must be a finite number > 0, got inf"),
    ("train", "--lang", "", "must be one token with no spaces, got ''"),
    ("fit-pos", "--lang", "D E", "must be one token with no spaces, got 'D E'"),
    ("predict", "--lang", " DE", "must be one token with no spaces, got ' DE'"),
    ("eval", "--lang", "", "must be one token with no spaces, got ''"),
    ("stats", "--lang", "DE\t", "must be one token with no spaces, got 'DE\\t'"),
    ("project", "--src-lang", "", "must be one token with no spaces, got ''"),
    ("sweep-alpha", "--tgt-lang", "a b", "must be one token with no spaces, got 'a b'"),
    ("eval", "--buckets", "3-1", "bad bucket range 3-1"),
]


@pytest.mark.parametrize("command, flag, value, message", BAD_FLAG_VALUES,
                         ids=[f"{case[0]}-{i}" for i, case in enumerate(BAD_FLAG_VALUES)])
def test_flag_value_error_names_its_flag(toy, capsys, command, flag, value, message):
    projection = ["--src", toy / "en_srl.conllu", "--translations", toy / "de_trans.conllu",
                  "--table", toy / "table.tsv", "--posdist", toy / "pos.tsv"]
    inputs = {"align-train": ["--parallel", toy / "bitext.txt"],
              "fit-pos": ["--tagged", toy / "de_tagged.conllu"],
              "train": ["--train-file", toy / "de_dev.conllu"],
              "project": projection,
              "sweep-alpha": projection,
              "predict": ["--model", toy / "m.bin", "--input", toy / "de_dev.conllu"],
              "stats": ["--input", toy / "de_dev.conllu"],
              "eval": ["--gold", toy / "de_dev.conllu", "--pred", toy / "de_dev.conllu"]}
    with pytest.raises(SystemExit) as exc:
        run(command, *inputs[command], flag, value, "--out", toy / "out")
    assert exc.value.code == 2
    subcommands = next(action for action in build_parser()._actions
                       if isinstance(action, argparse._SubParsersAction))
    assert capsys.readouterr().err == (subcommands.choices[command].format_usage()
                                       + f"xsrl {command}: error: argument {flag}: {message}\n")
    assert not (toy / "out").exists()


TOKEN = "1\thund\thund\tNOUN\t_\t_\t0\troot\t_\t_\t_\n"
REPORT = (b"precision\t1.0\nrecall\t1.0\nf1\t1.0\ngold_args\t3\npred_args\t3\n\n"
          b"[per_role]\nrole,precision,recall,f1,support\nA0,1.0,1.0,1.0,3\n\n"
          b"[per_distance]\nbucket,precision,recall,f1,support\n1-2,1.0,1.0,1.0,3\n")

DEV = (DATA / "de_dev.conllu").read_bytes()

# (command, argv with "BAD" for the malformed file, its bytes, message after
# "PATH: "); "table.tsv" and "pos.tsv" are the toy recipe's.
BAD_INPUTS = [
    ("align-train", ["--parallel", "BAD", "--out", "t.tsv"],
     b"a ||| x\n\xff ||| y\n", "line 2: not valid UTF-8"),
    ("align-train", ["--parallel", "BAD", "--out", "t.tsv"],
     b"a ||| x\nno separator\n", "line 2: expected 'src ||| tgt'"),
    ("fit-pos", ["--tagged", "BAD", "--out", "p.tsv"],
     ("# lang = DE\n" + TOKEN.replace("1", "X", 1) + "\n").encode(),
     "line 2: token ID 'X' is not an integer"),
    ("project", ["--src", "en_srl.conllu", "--translations", "de_trans.conllu",
                 "--table", "BAD", "--posdist", "pos.tsv", "--out", "o.conllu"],
     b"floor\t0.0\na\tx\t0.5\nb\ty\tnan\n", "line 3: probability out of range: nan"),
    ("project", ["--src", "en_srl.conllu", "--translations", "de_trans.conllu",
                 "--table", "table.tsv", "--posdist", "BAD", "--out", "o.conllu"],
     b"tagset\tNOUN,VERB\nhund\tNOUN\n", "line 2: expected 'word\\ttag\\tprob'"),
    ("project", ["--src", "en_srl.conllu", "--translations", "de_trans.conllu",
                 "--table", "table.tsv", "--posdist", "BAD", "--out", "o.conllu"],
     b"tagset\tNOUN,ADJ\n", "unknown POS tag 'VERB'"),
    ("project", ["--src", "en_srl.conllu", "--translations", "BAD",
                 "--table", "table.tsv", "--posdist", "pos.tsv", "--out", "o.conllu"],
     ("# lang = DE\n" + TOKEN + "\n# lang = DE\n").encode()
     + TOKEN.encode().replace(b"hund", b"h\xe4nd"),
     "line 5: not valid UTF-8"),
    ("stats", ["--input", "BAD"], TOKEN.encode() + b"\n",
     "line 1: sentence has no '# lang = XX' comment and no default language was given"),
    ("stats", ["--input", "BAD"], ("# lang = DE\n" + TOKEN + TOKEN + "\n").encode(),
     "sent-indices: sentence 1: token indices not contiguous 1..2"),
    ("train", ["--train-file", "de_dev.conllu", "--train-file", "BAD", "--out", "m.bin",
               *TRAIN_FLAGS],
     b"# lang = DE\n\xc3(\n", "line 2: not valid UTF-8"),
    ("train", ["--train-file", "de_dev.conllu", "--embeddings", "BAD", "--out", "m.bin",
               *TRAIN_FLAGS],
     b"2\n", "line 1: expected 'count dim' header"),
    ("predict", ["--model", "BAD", "--input", "de_dev.conllu", "--out", "p.conllu"],
     b"not a model file", "not an xsrl model checkpoint (bad magic)"),
    ("eval", ["--gold", "de_dev.conllu", "--pred", "BAD"],
     ("# lang = DE\n" + TOKEN.replace("\t0\t", "\troot\t") + "\n").encode(),
     "line 2: HEAD 'root' is not an integer"),
    ("train", ["--train-file", "de_dev.conllu", "--embeddings", "BAD", "--out", "m.bin",
               *TRAIN_FLAGS],
     b"-1 4\n", "line 1: expected a count >= 0 and a dim >= 1, got -1 4"),
    ("train", ["--train-file", "de_dev.conllu", "--embeddings", "BAD", "--out", "m.bin",
               *TRAIN_FLAGS],
     b"1 0\n", "line 1: expected a count >= 0 and a dim >= 1, got 1 0"),
    ("train", ["--train-file", "de_dev.conllu", "--embeddings", "BAD", "--out", "m.bin",
               *TRAIN_FLAGS],
     b"100000000000 300\n", "expected 100000000000 vectors, file has 0"),
    ("aggregate", ["BAD"], REPORT.replace(b"f1\t1.0\n", b""), "no 'f1' line"),
    ("aggregate", ["BAD"], REPORT + b"\n[bogus]\n", "line 15: unknown section [bogus]"),
    ("aggregate", ["BAD"], REPORT.replace(b"gold_args\t3", b"gold_args\t1e309"),
     "line 4: expected a count, got '1e309'"),
    ("aggregate", ["BAD"], REPORT.replace(b"precision\t1.0", b"precision 1.0"),
     "line 1: expected a name, a tab and a value"),
    ("aggregate", ["BAD"], REPORT.replace(b"precision\t1.0", b"precision\tx"),
     "line 1: expected a score in [0, 1], got 'x'"),
    ("aggregate", ["BAD"], REPORT.replace(b"recall\t1.0", b"recall\tnan"),
     "line 2: expected a score in [0, 1], got 'nan'"),
    ("aggregate", ["BAD"], REPORT.replace(b"A0,1.0,1.0,1.0,3", b"A0,1.0,1.0"),
     "line 9: expected 'name,precision,recall,f1,support', got 3 fields"),
    # files that parse to nothing to fit, align or train on
    ("fit-pos", ["--tagged", "BAD", "--out", "p.tsv"], b"", "empty corpus"),
    ("fit-pos", ["--tagged", "BAD", "--out", "p.tsv"], b"# lang = DE\n# sent_id = 1\n\n",
     "empty corpus"),
    ("align-train", ["--parallel", "BAD", "--out", "t.tsv"], b"", "empty pair list"),
    ("align-train", ["--parallel", "BAD", "--out", "t.tsv"], b"\n  \n", "empty pair list"),
    ("train", ["--train-file", "BAD", "--out", "m.bin", *TRAIN_FLAGS], b"",
     "corpus has no predicate frames to train on"),
    ("train", ["--train-file", "BAD", "--out", "m.bin", *TRAIN_FLAGS],
     ("# lang = DE\n" + TOKEN + "\n").encode(), "corpus has no predicate frames to train on"),
    # malformed headers of the table and the POS distribution
    ("project", ["--src", "en_srl.conllu", "--translations", "de_trans.conllu",
                 "--table", "BAD", "--posdist", "pos.tsv", "--out", "o.conllu"],
     b"floor\t0.0\t1\t2\na\tx\t0.5\n", "line 1: malformed floor header"),
    ("project", ["--src", "en_srl.conllu", "--translations", "de_trans.conllu",
                 "--table", "table.tsv", "--posdist", "BAD", "--out", "o.conllu"],
     b"tags\tNOUN,VERB\nhund\tNOUN\t1.0\n",
     "line 1: expected 'tagset\\t<comma-joined tags>' header"),
    # a blank line before the header is not an empty (uniform) distribution
    ("project", ["--src", "en_srl.conllu", "--translations", "de_trans.conllu",
                 "--table", "table.tsv", "--posdist", "BAD", "--out", "o.conllu"],
     b"\ntagset\tNOUN,VERB\nhund\tNOUN\t1.0\n",
     "line 1: expected 'tagset\\t<comma-joined tags>' header"),
    # a bad row names its line, unlike a source tag outside the tagset
    ("project", ["--src", "en_srl.conllu", "--translations", "de_trans.conllu",
                 "--table", "table.tsv", "--posdist", "BAD", "--out", "o.conllu"],
     b"tagset\tNOUN,VERB\nhund\tNOUN\t0.5\nhund\tADJ\t0.5\n",
     "line 3: unknown POS tag 'ADJ'"),
    ("project", ["--src", "en_srl.conllu", "--translations", "de_trans.conllu",
                 "--table", "BAD", "--posdist", "pos.tsv", "--out", "o.conllu"],
     b"floor\t0.0\na\tx\t0.5\nfloor\t0.001\n", "line 3: 'floor' header must be line 1"),
]


@pytest.mark.parametrize("command, argv, data, message", BAD_INPUTS,
                         ids=[f"{case[0]}-{i}" for i, case in enumerate(BAD_INPUTS)])
def test_input_error_names_its_file(toy, capsys, command, argv, data, message):
    _prepare(toy)
    bad = toy / "bad.input"
    bad.write_bytes(data)
    capsys.readouterr()
    argv = [bad if a == "BAD" else toy / a if a.endswith((".tsv", ".conllu", ".bin")) else a
            for a in argv]
    assert run(command, *argv) == 2
    assert capsys.readouterr().err == f"xsrl: error: {bad}: {message}\n"


def test_train_without_frames_names_every_train_file(toy, capsys):
    frameless = toy / "frameless.conllu"
    frameless.write_text("# lang = DE\n" + TOKEN + "\n", encoding="utf-8")
    empty = toy / "empty.conllu"
    empty.write_bytes(b"")
    assert run("train", "--train-file", frameless, "--train-file", empty,
               "--out", toy / "m.bin", *TRAIN_FLAGS) == 2
    assert capsys.readouterr().err == (f"xsrl: error: {frameless}, {empty}: corpus has no "
                                       "predicate frames to train on\n")


def test_eval_of_unlike_corpora_exits_2_naming_both(toy, capsys):
    """Either file may be the one that is cut short: the error names both."""
    short = toy / "short.conllu"
    short.write_bytes(b"\n\n".join(DEV.split(b"\n\n")[:3]) + b"\n\n")
    gold = toy / "de_dev.conllu"
    assert run("eval", "--gold", gold, "--pred", short) == 2
    assert capsys.readouterr().err == (f"xsrl: error: --pred {short} does not match --gold "
                                       f"{gold}: gold has 20 sentences, prediction 3\n")


def test_predict_in_an_unknown_language_exits_2_naming_the_input(toy, capsys):
    """A PGN model trained on DE cannot label FR sentences; the error
    names the corpus."""
    assert run("train", "--train-file", toy / "de_dev.conllu", "--out", toy / "m.bin",
               *TRAIN_FLAGS) == 0
    (toy / "fr.conllu").write_bytes(DEV.replace(b"# lang = DE", b"# lang = FR", 1))
    capsys.readouterr()
    assert run("predict", "--model", toy / "m.bin", "--input", toy / "fr.conllu",
               "--out", toy / "p.conllu") == 2
    assert capsys.readouterr().err == (
        f"xsrl: error: {toy / 'fr.conllu'}: unknown language ID 'FR'\n")


def test_sweep_dev_in_an_unknown_language_exits_2_naming_it(toy, capsys):
    """``sweep-alpha --train`` scores the dev corpus with a PGN model
    trained on the projected DE corpus, which cannot label FR sentences."""
    _prepare(toy)
    (toy / "fr.conllu").write_bytes(DEV.replace(b"# lang = DE", b"# lang = FR", 1))
    capsys.readouterr()
    assert run("sweep-alpha", "--src", toy / "en_srl.conllu",
               "--translations", toy / "de_trans.conllu",
               "--table", toy / "table.tsv", "--posdist", toy / "pos.tsv",
               "--alphas", "0.4", "--train", "--dev", toy / "fr.conllu",
               "--seed", "3", "--out", toy / "sweep.csv", *TRAIN_FLAGS) == 2
    assert capsys.readouterr().err == (
        f"xsrl: error: {toy / 'fr.conllu'}: unknown language ID 'FR'\n")
