"""The corpora stream through ``project``, ``sweep-alpha``, ``stats`` and
``fit-pos``: they are read, checked and used one batch of sentences at a
time, and an error found in a later batch reads as it would in the first.

``corpus._BATCH_BLOCKS`` (blocks parsed at once) and ``cli._PROJECT_BATCH``
(sentence pairs projected at once) are set small here, so the toy corpus
of 50 sentences spans many batches of each.
"""

import gc
import importlib.util
import tracemalloc
from pathlib import Path

import pytest

from xsrl import cli, corpus
from xsrl.corpus import iter_srl_corpus, parse_srl_corpus

from conftest import DATA, read

SYNTH = Path(__file__).resolve().parent.parent / "bench" / "synth.py"
BATCHES = [1, 2, 7]
# the sentence that holds each fault: in a later batch at every size above
AT = 40


@pytest.fixture(params=BATCHES, ids=[f"batch{n}" for n in BATCHES])
def batch(request, monkeypatch):
    monkeypatch.setattr(corpus, "_BATCH_BLOCKS", request.param)
    monkeypatch.setattr(cli, "_PROJECT_BATCH", request.param)
    return request.param


def synth_corpus() -> dict[str, str]:
    spec = importlib.util.spec_from_file_location("bench_synth", SYNTH)
    synth = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(synth)
    return synth.prep_corpus(3, lexicon_size=200, pairs=60, sentences=60, tagged=60,
                             clause_range=(0, 2))


def test_reader_equals_parser_at_every_batch_size(tmp_path, monkeypatch):
    files = {name: read(DATA / name) for name in
             ("en_srl.conllu", "de_trans.conllu", "de_tagged.conllu", "de_dev.conllu")}
    files.update({f"synth_{name}": text for name, text in synth_corpus().items()
                  if name.endswith(".conllu")})
    wanted = {}
    for name, text in files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
        wanted[name] = parse_srl_corpus(text, require_pred="srl" in name).sentences
    for size in BATCHES:
        monkeypatch.setattr(corpus, "_BATCH_BLOCKS", size)
        for name, sentences in wanted.items():
            with open(tmp_path / name, encoding="utf-8") as fh:
                got = tuple(iter_srl_corpus(fh, require_pred="srl" in name))
            assert got == sentences, (size, name)


@pytest.fixture
def prepared(tmp_path):
    for name in ("en_srl.conllu", "de_trans.conllu"):
        (tmp_path / name).write_bytes((DATA / name).read_bytes())
    assert cli.main(["align-train", "--parallel", str(DATA / "bitext.txt"),
                     "--iterations", "5", "--out", str(tmp_path / "table.tsv")]) == 0
    assert cli.main(["fit-pos", "--tagged", str(DATA / "de_tagged.conllu"),
                     "--out", str(tmp_path / "pos.tsv")]) == 0
    return tmp_path


def _project(work: Path, command="project", src="en_srl.conllu",
             translations="de_trans.conllu", alphas="0.2,0.6") -> list[str]:
    alphas = ["--alpha", "0.4"] if command == "project" else ["--alphas", alphas]
    return [command, "--src", str(work / src), "--translations", str(work / translations),
            "--table", str(work / "table.tsv"), "--posdist", str(work / "pos.tsv"),
            *alphas, "--out", str(work / "out")]


def _first_token_line(lines: list[str], lang: str) -> int:
    """The index in ``lines`` of sentence AT's first token line."""
    return lines.index(f"# sent_id = toy-{lang}-{AT:03d}") + 2


def _set_field(line: str, column: int, value: str) -> str:
    fields = line.split("\t")
    fields[column] = value
    return "\t".join(fields)


# (file, what a fault does to sentence AT's first token line, the error
# after the file's path, with {line} for that line's number)
FAULTS = {
    "parse": (lambda line: _set_field(line, 6, "x"), "line {line}: HEAD 'x' is not an integer"),
    "validate": (lambda line: _set_field(line, 3, "BOGUS"),
                 f"token-upos: sentence {AT}: unknown UPOS 'BOGUS'"),
    "utf8": (lambda line: _set_field(line, 1, "\udcff"), "line {line}: not valid UTF-8"),
}


@pytest.mark.parametrize("fault", FAULTS)
@pytest.mark.parametrize("name, lang", [("en_srl.conllu", "en"), ("de_trans.conllu", "de")],
                         ids=["src", "translations"])
@pytest.mark.parametrize("command", ["project", "sweep-alpha"])
def test_fault_in_a_later_batch_names_its_file_and_line(prepared, capsys, batch, command,
                                                        name, lang, fault):
    edit, message = FAULTS[fault]
    lines = read(prepared / name).split("\n")
    at = _first_token_line(lines, lang)
    lines[at] = edit(lines[at])
    bad = prepared / f"bad_{name}"
    bad.write_bytes("\n".join(lines).encode("utf-8", "surrogateescape"))
    argv = (_project(prepared, command, src=bad.name) if lang == "en"
            else _project(prepared, command, translations=bad.name))
    (prepared / "out").write_bytes(b"before")
    capsys.readouterr()
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == (
        f"xsrl: error: {bad}: {message.format(line=at + 1)}\n")
    assert (prepared / "out").read_bytes() == b"before"


@pytest.mark.parametrize("command, flag, name, lang",
                         [("stats", "--input", "en_srl.conllu", "en"),
                          ("fit-pos", "--tagged", "de_trans.conllu", "de")])
def test_stats_and_fit_pos_name_a_fault_in_a_later_batch(prepared, capsys, batch, command,
                                                         flag, name, lang):
    lines = read(prepared / name).split("\n")
    at = _first_token_line(lines, lang)
    lines[at] = _set_field(lines[at], 6, "x")
    bad = prepared / "bad.conllu"
    bad.write_text("\n".join(lines), encoding="utf-8")
    capsys.readouterr()
    assert cli.main([command, flag, str(bad), "--out", str(prepared / "out")]) == 2
    assert capsys.readouterr().err == (
        f"xsrl: error: {bad}: line {at + 1}: HEAD 'x' is not an integer\n")


def test_projection_errors_keep_their_sentence_number(prepared, capsys, batch):
    """An untagged source word names --src and an empty translation names
    --translations, each with its sentence's number in the whole corpus."""
    lines = read(prepared / "en_srl.conllu").split("\n")
    at = _first_token_line(lines, "en")
    while lines[at].split("\t")[10] == "_":  # the sentence's first predicate
        at += 1
    index, form = lines[at].split("\t")[:2]
    lines[at] = _set_field(lines[at], 3, "_")
    (prepared / "untagged.conllu").write_text("\n".join(lines), encoding="utf-8")
    capsys.readouterr()
    assert cli.main(_project(prepared, src="untagged.conllu")) == 2
    assert capsys.readouterr().err == (
        f"xsrl: error: {prepared / 'untagged.conllu'}: sentence {AT}: token {index} "
        f"({form!r}) has no POS tag\n")

    blocks = read(prepared / "de_trans.conllu").split("\n\n")
    blocks[AT - 1] = "\n".join(blocks[AT - 1].split("\n")[:2])  # its comments only
    (prepared / "empty.conllu").write_text("\n\n".join(blocks), encoding="utf-8")
    assert cli.main(_project(prepared, translations="empty.conllu")) == 2
    assert capsys.readouterr().err == (
        f"xsrl: error: {prepared / 'empty.conllu'}: sentence {AT}: empty target sentence\n")


# (source sentences, translations): one short and one long, each side
# ending at a batch boundary for some batch size and mid-batch for others
COUNTS = [(50, 49), (50, 51), (49, 50), (49, 48), (48, 49)]


@pytest.mark.parametrize("command", ["project", "sweep-alpha"])
@pytest.mark.parametrize("n_src, n_tgt", COUNTS, ids=[f"{a}-{b}" for a, b in COUNTS])
def test_count_mismatch_gives_both_full_counts(prepared, capsys, batch, command,
                                               n_src, n_tgt):
    for name, n in (("en_srl.conllu", n_src), ("de_trans.conllu", n_tgt)):
        blocks = read(prepared / name).rstrip("\n").split("\n\n")
        blocks = (blocks * 2)[:n]
        (prepared / f"cut_{name}").write_text("\n\n".join(blocks) + "\n", encoding="utf-8")
    (prepared / "out").write_bytes(b"before")
    capsys.readouterr()
    assert cli.main(_project(prepared, command, src="cut_en_srl.conllu",
                             translations="cut_de_trans.conllu")) == 2
    assert capsys.readouterr().err == (
        f"xsrl: error: {prepared / 'cut_de_trans.conllu'}: translation count {n_tgt} != "
        f"sentence count {n_src} in --src {prepared / 'cut_en_srl.conllu'}\n")
    assert (prepared / "out").read_bytes() == b"before"


def test_a_fault_after_the_shorter_file_ends_is_still_found(prepared, capsys, batch):
    """The rest of the longer file is parsed and checked while it is counted."""
    blocks = read(prepared / "de_trans.conllu").split("\n\n")
    (prepared / "short.conllu").write_text("\n\n".join(blocks[:10]), encoding="utf-8")
    lines = read(prepared / "en_srl.conllu").split("\n")
    at = _first_token_line(lines, "en")
    lines[at] = _set_field(lines[at], 6, "x")
    (prepared / "bad.conllu").write_text("\n".join(lines), encoding="utf-8")
    capsys.readouterr()
    assert cli.main(_project(prepared, src="bad.conllu", translations="short.conllu")) == 2
    assert capsys.readouterr().err == (
        f"xsrl: error: {prepared / 'bad.conllu'}: line {at + 1}: HEAD 'x' is not an integer\n")


@pytest.mark.parametrize("fault", ["translations-line-3", "translations-not-a-corpus",
                                   "src-line-3"])
@pytest.mark.parametrize("command", ["project", "sweep-alpha"])
def test_a_failed_projection_closes_its_inputs(prepared, capsys, monkeypatch, command, fault):
    """Every input file that a failed projection opened is closed by the
    time ``main`` returns, with the cyclic collector off."""
    opened = []

    def recording_open(*args, **kwargs):
        fh = open(*args, **kwargs)
        opened.append(fh)
        return fh

    name = "en_srl.conllu" if fault.startswith("src") else "de_trans.conllu"
    lines = read(prepared / name).split("\n")
    lines[2] = _set_field(lines[2], 6, "x")  # line 3, the first token line
    (prepared / "bad.conllu").write_text("\n".join(lines), encoding="utf-8")
    bad = {"translations-line-3": dict(translations="bad.conllu"),
           "translations-not-a-corpus": dict(translations=str(DATA / "bitext.txt")),
           "src-line-3": dict(src="bad.conllu")}[fault]
    monkeypatch.setattr(cli, "open", recording_open, raising=False)
    capsys.readouterr()
    gc.disable()
    try:
        assert cli.main(_project(prepared, command, **bad)) == 2
        assert str(prepared / bad.get("src", "en_srl.conllu")) in [fh.name for fh in opened]
        assert all(fh.closed for fh in opened)
    finally:
        gc.enable()


# (command, the flags of a run on the files "src" and "translations")
STREAMED = {
    "project": lambda work: _project(work, src="src", translations="translations"),
    "sweep-alpha": lambda work: _project(work, "sweep-alpha", src="src",
                                         translations="translations",
                                         alphas=",".join(str(i / 40) for i in range(41))),
    "stats": lambda work: ["stats", "--input", str(work / "src"), "--out", str(work / "out")],
    "fit-pos": lambda work: ["fit-pos", "--tagged", str(work / "translations"),
                             "--out", str(work / "out")],
}


@pytest.mark.parametrize("command", STREAMED)
def test_memory_does_not_grow_with_the_corpus(prepared, capsys, command):
    """The traced peak of a command on the toy corpora repeated 16 times is
    at most 1 KB a sentence pair above its peak on them repeated 4 times:
    the corpora are never held whole.  ``project`` holds its output, about
    a third of that; ``sweep-alpha``, at 41 thresholds and without
    ``--train``, holds no cut sentences."""
    texts = {name: read(DATA / f"{name}.conllu") for name in ("en_srl", "de_trans")}
    pairs = len(parse_srl_corpus(texts["en_srl"]).sentences)

    def peak(times: int) -> int:
        (prepared / "src").write_text(texts["en_srl"] * times, encoding="utf-8")
        (prepared / "translations").write_text(texts["de_trans"] * times, encoding="utf-8")
        tracemalloc.start()
        try:
            assert cli.main(STREAMED[command](prepared)) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(4)  # the first run sets up the process
    growth = peak(16) - peak(4)
    assert growth <= 1024 * 12 * pairs, growth
