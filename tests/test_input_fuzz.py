"""A seeded, bounded fuzz of the command line's input contract.

The toy recipe's inputs (the SRL corpora, the translations, the bitext,
the alignment table, the POS distribution, an evaluation report, a word
vector file and two config files) each take every mutation below ROUNDS
times, at seeded positions, and go to a command that reads them:
``stats``, ``predict``, both sides of ``eval`` and ``project --src`` for
the corpora, ``project`` for the translations, the table and the
distribution, ``align-train`` for the bitext, ``aggregate`` for the
report, ``train`` for the vectors, ``align-train`` and ``train`` for the
configs.  The contract: exit 0 or 2, and on 2 a message that names the mutated file
first or names a flag; never exit 3 and never a traceback.  A config that
loses its size lines leaves the paper-sized defaults, which the memory
preflight refuses naming the flags that shrink the model.
"""

import random
import re

import pytest

from xsrl import cli

from conftest import DATA

# Sizes of the tiny PGN model, as a config file; the training corpus is
# two sentences, so even a size that a mutation resets to its default
# trains in well under a second.
TINY_CONFIG = (b"variant = pgn\nword_dim = 1\npos_dim = 1\npred_dim = 1\nlang_dim = 1\n"
               b"hidden = 1\nlayers = 1\nepochs = 1\nbatch_size = 2\nseed = 1\n")
ALIGN_CONFIG = b"iterations = 2\nfloor = 0.0\nlowercase = false\n"
# Two-dimensional vectors for three words of the training corpus.
EMBEDDINGS = b"3 2\nwagen 0.25 -0.5\nsieht 1.0 0.0\nfrau -0.75 0.125\n"
NUMBER = re.compile(rb"\d+(?:\.\d+)?")
ROUNDS = 3


def _lines(data: bytes) -> list[bytes]:
    return data.split(b"\n")


def truncate(rng, data):
    return data[:rng.randrange(len(data))]


def truncate_at_line(rng, data):
    """A partial write that ends on a whole line."""
    return b"\n".join(_lines(data)[:rng.randrange(len(_lines(data)))]) + b"\n"


def flip_bit(rng, data):
    at = rng.randrange(len(data))
    return data[:at] + bytes([data[at] ^ (1 << rng.randrange(7))]) + data[at + 1:]


def delete_line(rng, data):
    lines = _lines(data)
    del lines[rng.randrange(len(lines))]
    return b"\n".join(lines)


def duplicate_line(rng, data):
    lines = _lines(data)
    at = rng.randrange(len(lines))
    return b"\n".join(lines[:at + 1] + lines[at:])


# column separators, the first that a line holds splitting it: TSV, CSV,
# the config files' "key = value", the bitext's "src ||| tgt" and the
# spaces of the word vectors
SEPARATORS = (b"\t", b",", b" = ", b" ||| ", b" ")


def drop_column(rng, data):
    lines = _lines(data)
    at = rng.choice([i for i, line in enumerate(lines) if any(s in line for s in SEPARATORS)])
    sep = next(s for s in SEPARATORS if s in lines[at])
    fields = lines[at].split(sep)
    del fields[rng.randrange(len(fields))]
    lines[at] = sep.join(fields)
    return b"\n".join(lines)


def number_to(text: bytes):
    def mutate(rng, data):
        matches = list(NUMBER.finditer(data))
        if not matches:  # the bitext holds no number
            return data
        match = rng.choice(matches)
        return data[:match.start()] + text + data[match.end():]

    mutate.__name__ = f"number_to_{text.decode()}"
    return mutate


def non_utf8(rng, data):
    at = rng.randrange(len(data) + 1)
    return data[:at] + b"\xff" + data[at:]


def crlf(rng, data):
    return data.replace(b"\n", b"\r\n")


MUTATIONS = [truncate, truncate_at_line, flip_bit, delete_line, duplicate_line, drop_column,
             number_to(b"nan"), number_to(b"inf"), number_to(b"1e309"), number_to(b"-1"),
             non_utf8, crlf]


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """The valid inputs, by name: the toy files, a table, a POS
    distribution, a report, a small training corpus, word vectors, the
    two configs and a tiny PGN model trained on DE."""
    work = tmp_path_factory.mktemp("contract")
    files = {name: (DATA / name).read_bytes()
             for name in ("en_srl.conllu", "de_dev.conllu", "de_trans.conllu", "bitext.txt")}
    blocks = files["de_dev.conllu"].split(b"\n\n")
    files["small.conllu"] = b"\n\n".join(blocks[:2]) + b"\n\n"
    files["tiny.cfg"], files["align.cfg"] = TINY_CONFIG, ALIGN_CONFIG
    files["vectors.txt"] = EMBEDDINGS
    for name, data in files.items():
        (work / name).write_bytes(data)
    for argv in (["align-train", "--parallel", work / "bitext.txt", "--iterations", "2",
                  "--out", work / "table.tsv"],
                 ["fit-pos", "--tagged", DATA / "de_tagged.conllu", "--out", work / "pos.tsv"],
                 ["train", "--train-file", work / "de_dev.conllu", "--config", work / "tiny.cfg",
                  "--out", work / "model.bin"],
                 ["eval", "--gold", work / "de_dev.conllu", "--pred", work / "de_dev.conllu",
                  "--out", work / "report.txt"]):
        assert cli.main([str(a) for a in argv]) == 0, argv
    return work


# (input file, command line with BAD for the mutated copy)
TARGETS = [
    ("en_srl.conllu", ["stats", "--input", "BAD"]),
    ("de_dev.conllu", ["predict", "--model", "model.bin", "--input", "BAD"]),
    ("de_dev.conllu", ["eval", "--gold", "de_dev.conllu", "--pred", "BAD"]),
    ("de_dev.conllu", ["eval", "--gold", "BAD", "--pred", "de_dev.conllu"]),
    ("table.tsv", ["project", "--src", "en_srl.conllu", "--translations", "de_trans.conllu",
                   "--table", "BAD", "--posdist", "pos.tsv"]),
    ("pos.tsv", ["project", "--src", "en_srl.conllu", "--translations", "de_trans.conllu",
                 "--table", "table.tsv", "--posdist", "BAD"]),
    ("de_trans.conllu", ["project", "--src", "en_srl.conllu", "--translations", "BAD",
                         "--table", "table.tsv", "--posdist", "pos.tsv"]),
    ("en_srl.conllu", ["project", "--src", "BAD", "--translations", "de_trans.conllu",
                       "--table", "table.tsv", "--posdist", "pos.tsv"]),
    ("bitext.txt", ["align-train", "--parallel", "BAD", "--iterations", "2"]),
    ("report.txt", ["aggregate", "BAD", "report.txt"]),
    ("align.cfg", ["align-train", "--parallel", "bitext.txt", "--config", "BAD"]),
    ("tiny.cfg", ["train", "--train-file", "small.conllu", "--config", "BAD"]),
    ("vectors.txt", ["train", "--train-file", "small.conllu", "--config", "tiny.cfg",
                     "--embeddings", "BAD"]),
]


@pytest.mark.parametrize("name, argv", TARGETS,
                         ids=[f"{argv[0]}-{name}-{i}" for i, (name, argv) in enumerate(TARGETS)])
def test_mutated_input_exits_0_or_2_naming_it(inputs, tmp_path, capsys, name, argv):
    rng = random.Random(f"{name} {' '.join(argv)}")
    data = (inputs / name).read_bytes()
    bad = tmp_path / f"bad-{name}"
    argv = [str(bad) if a == "BAD" else str(inputs / a) if "." in a else a for a in argv]
    argv += ["--out", str(tmp_path / "out")]
    failures = []
    for mutate in MUTATIONS * ROUNDS:
        mutated = mutate(rng, data)
        bad.write_bytes(mutated)
        capsys.readouterr()
        code = cli.main(argv)
        err = capsys.readouterr().err
        named = err.startswith(f"xsrl: error: {bad}:") or re.search(r" --[a-z]", err)
        if not (code == 0 or code == 2 and named) or "Traceback" in err:
            failures.append((mutate.__name__, code, err, mutated))
    assert not failures, failures
