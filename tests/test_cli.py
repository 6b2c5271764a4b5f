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
# keeps, the sentences it then holds); a translation of comment lines only
# is no sentence, so the later ones would pair with the wrong sources
CUT_TRANSLATIONS = [
    ("project", lambda blocks: blocks[:5], 5),
    ("sweep-alpha", lambda blocks: blocks[:5], 5),
    ("project", lambda blocks: [*blocks[:2], _comments_only(blocks[2]), *blocks[3:]], 49),
]


@pytest.mark.parametrize("command, cut, count", CUT_TRANSLATIONS,
                         ids=["project", "sweep-alpha", "project-comments-only"])
def test_project_sentence_count_mismatch_exits_2(toy, capsys, command, cut, count):
    """Translations that do not pair up with the source sentences are
    blamed on --translations, with both counts and the --src file; the
    count check is the library's own."""
    _prepare(toy)
    blocks = (toy / "de_trans.conllu").read_text().split("\n\n")
    (toy / "cut.conllu").write_text("\n\n".join(cut(blocks)))
    capsys.readouterr()
    assert run(*_project_inputs(toy, command, translations="cut.conllu")) == 2
    assert capsys.readouterr().err == (
        f"xsrl: error: {toy / 'cut.conllu'}: translation count {count} != sentence count 50 "
        f"in --src {toy / 'en_srl.conllu'}\n")


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
    assert run("sweep-alpha", "--src", toy / "en_srl.conllu",
               "--translations", toy / "de_trans.conllu",
               "--table", toy / "table.tsv", "--posdist", toy / "pos.tsv",
               "--alphas", "0,1,1", "--out", toy / "sweep.csv") == 0
    err = capsys.readouterr().err
    assert "duplicate alpha" in err
    rows = (toy / "sweep.csv").read_text().splitlines()
    assert len(rows) == 3  # header + two unique alphas
    header = rows[0].split(",")
    first = dict(zip(header, rows[1].split(",")))
    last = dict(zip(header, rows[2].split(",")))
    assert int(first["frames_kept"]) >= int(last["frames_kept"])


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
    from xsrl.model import training

    monkeypatch.setattr(training, "_physical_memory", lambda: 8 * 2**30)
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
# faster training path must write the same bytes.
TRAIN_DIGESTS = {
    "pgn.bin": "bbd69a2ff5b26e54133196bb9079a57f41f4c9f9c14a9a1c56b90eb77344614e",
    "pgn.conllu": "d7934d20885c2f1ab2ad9c45a409626d81a1a7f3c60d05cac3fcdc96c6a9c8c0",
    "basic.bin": "cce2406d1266ff44ab5eef06e1602b02ea7267db34775dc08fcf524e16841320",
    "basic.conllu": "9e97bd4c474feaae97cf6131ace874c4ecc182d4380b4054c1be29be01fd94d9",
}


@pytest.mark.parametrize("variant", ["pgn", "basic"])
def test_train_outputs_match_recorded_digests(toy, capsys, variant):
    import hashlib

    flags = list(TRAIN_FLAGS)
    for flag, value in (("--variant", variant), ("--epochs", "3"), ("--learning-rate", "0.05")):
        flags[flags.index(flag) + 1] = value
    assert run("train", "--train-file", toy / "en_srl.conllu",
               "--train-file", toy / "de_dev.conllu", "--seed", "5",
               "--out", toy / f"{variant}.bin", *flags) == 0
    assert run("predict", "--model", toy / f"{variant}.bin", "--input", toy / "de_dev.conllu",
               "--out", toy / f"{variant}.conllu") == 0
    for name in (f"{variant}.bin", f"{variant}.conllu"):
        assert hashlib.sha256((toy / name).read_bytes()).hexdigest() == TRAIN_DIGESTS[name]


# (command, config text, message after "PATH:"); the command line leaves
# the flag to the config file
BAD_CONFIG_VALUES = [
    ("train", "batch_size = 2.5", "1: --batch-size: invalid int value: '2.5'"),
    ("train", "# preset\n\nlearning-rate = fast", "3: --learning-rate: invalid float value: 'fast'"),
    ("train", "variant = big", "1: --variant: invalid choice: 'big' (choose from basic, pgn)"),
    ("align-train", "iterations = abc", "1: --iterations: invalid int value: 'abc'"),
    ("align-train", "floor = 0.0\nlowercase = yes",
     "2: --lowercase: expected true or false, got 'yes'"),
    ("eval", "buckets = 1-x", "1: --buckets: malformed bucket '1-x'"),
    ("align-train", "floor = 2", "1: --floor: must be in [0, 1], got 2.0"),
    ("train", "batch_size = 0", "1: --batch-size: must be >= 1, got 0"),
    ("train", "epochs = 1\npos_dim = -1", "2: --pos-dim: must be >= 1, got -1"),
    ("train", "learning-rate = nan", "1: --learning-rate: must be a finite number > 0, got nan"),
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
              "eval": ["--gold", toy / "de_dev.conllu", "--pred", toy / "de_dev.conllu"]}[command]
    assert run(command, *inputs, "--config", toy / "bad.cfg", "--out", toy / "out") == 2
    assert f"error: {toy / 'bad.cfg'}:{message}\n" in capsys.readouterr().err
    assert not (toy / "out").exists()


def test_config_switch_reads_true_and_false(toy, capsys):
    (toy / "cased.txt").write_text("The Dog ||| Der Hund\n")
    for name, value in (("yes", "True"), ("no", "false")):
        (toy / f"{name}.cfg").write_text(f"lowercase = {value}\n")
        assert run("align-train", "--parallel", toy / "cased.txt", "--iterations", "2",
                   "--config", toy / f"{name}.cfg", "--out", toy / f"{name}.tsv") == 0
    assert "\ndog\thund\t" in (toy / "yes.tsv").read_text()
    assert "\nDog\tHund\t" in (toy / "no.tsv").read_text()


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
