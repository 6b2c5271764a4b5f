import shutil

import pytest

from xsrl.cli import main
from xsrl.corpus import parse_srl_corpus
from xsrl.eval import parse_report
from xsrl.projection import ProjectionStats

from conftest import DATA


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


def test_align_train_zero_iterations_exits_2(toy, capsys):
    assert run("align-train", "--parallel", toy / "bitext.txt",
               "--iterations", "0", "--out", toy / "t.tsv") == 2


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


def test_project_sentence_count_mismatch_exits_2(toy, capsys):
    _prepare(toy)
    short = "\n".join((toy / "de_trans.conllu").read_text().split("\n\n")[:3]) + "\n\n"
    (toy / "short.conllu").write_text(short)
    assert run("project", "--src", toy / "en_srl.conllu",
               "--translations", toy / "short.conllu",
               "--table", toy / "table.tsv", "--posdist", toy / "pos.tsv",
               "--out", toy / "p.conllu") == 2


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
    assert model.config.language_count == 2
    assert model.vocab.languages == ("DE", "EN")


@pytest.mark.parametrize("flag, value", [
    ("--batch-size", "0"), ("--epochs", "0"), ("--learning-rate", "-1"),
    ("--learning-rate", "0"), ("--learning-rate", "nan"), ("--learning-rate", "inf")])
def test_out_of_range_train_flag_exits_2(toy, capsys, flag, value):
    flags = list(TRAIN_FLAGS)
    flags[flags.index(flag) + 1] = value
    assert run("train", "--train-file", toy / "de_dev.conllu",
               "--out", toy / "m.bin", *flags) == 2
    assert f"error: {flag} must be" in capsys.readouterr().err
    assert not (toy / "m.bin").exists()


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
    assert model.vocab.words[0] == "<unk>"
    assert model.params["word_table"][1:, 0].tolist() == list(
        float(i) for i in range(len(words)))


def test_seed_env_fallback(toy, monkeypatch):
    monkeypatch.setenv("XSRL_SEED", "7")
    assert run("train", "--train-file", toy / "de_dev.conllu",
               "--out", toy / "env.bin", *TRAIN_FLAGS) == 0
    assert run("train", "--train-file", toy / "de_dev.conllu", "--seed", "7",
               "--out", toy / "flag.bin", *TRAIN_FLAGS) == 0
    assert (toy / "env.bin").read_bytes() == (toy / "flag.bin").read_bytes()


def test_internal_error_exits_3(toy, monkeypatch, capsys):
    import xsrl.cli as cli

    def boom(args):
        raise RuntimeError("simulated bug")

    # main() builds the parser after the patch, so the stub is picked up
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


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_training_exits_3(toy, capsys):
    # the first Adam step moves every parameter by about the learning rate,
    # so the second batch's CRF scores overflow
    flags = list(TRAIN_FLAGS)
    flags[flags.index("--learning-rate") + 1] = "1e308"
    assert run("train", "--train-file", toy / "de_dev.conllu", "--seed", "2",
               "--out", toy / "nan.bin", *flags) == 3
    assert "non-finite loss or gradient in epoch 1, batch 2" in capsys.readouterr().err
    assert not (toy / "nan.bin").exists()


def test_flagless_default_model_exits_2_before_allocating(toy, capsys, monkeypatch):
    from xsrl.model import training

    monkeypatch.setattr(training, "_physical_memory", lambda: 8 * 2**30)
    assert run("train", "--train-file", toy / "de_dev.conllu", "--out", toy / "m.bin") == 2
    err = capsys.readouterr().err
    assert "GiB" in err and "--hidden" in err and "--lang-dim" in err
