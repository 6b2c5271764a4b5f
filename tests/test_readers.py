"""Every text reader keeps the meaning of a file through edits that change
no content: a blank line before the first line, and CRLF line ends.

Each reader reads a small valid sample the way the command line reads
that file.  An edited sample must give the same result, or fail with the
reader's own error naming a line; it must never read as something else,
as a POS distribution with a blank first line once read as the uniform
distribution.
"""

import re

import pytest

from xsrl import cli
from xsrl.alignment import AlignmentError, load_table, read_parallel_corpus
from xsrl.corpus import CorpusError, parse_srl_corpus
from xsrl.eval import EvalError, parse_report
from xsrl.model import ModelError, load_embeddings
from xsrl.postag import PosError, load_pos_distribution

TOKENS = ("# lang = DE\n"
          "1\thund\thund\tNOUN\t_\t_\t2\tnsubj\t_\t_\t_\tA0\n"
          "2\tbellt\tbellen\tVERB\t_\t_\t0\troot\t_\t_\tbellen.01\t_\n\n")


def _text(path):
    return path.read_text(encoding="utf-8")


def _pos(path):
    dist = load_pos_distribution(str(path))
    return dist.tagset, {word: vec.tolist() for word, vec in dist.dist.items()}


def _embeddings(path):
    words, vectors = load_embeddings(str(path))
    return words, vectors.tolist()


def _config(path):
    # the values, not the line numbers they were found on
    return {key: value for key, (_, value) in cli._read_config_file(str(path)).items()}


# the reader, its error and a valid sample
READERS = [
    pytest.param(lambda path: parse_srl_corpus(_text(path)), CorpusError, TOKENS * 2,
                 id="parse_srl_corpus"),
    pytest.param(lambda path: read_parallel_corpus(_text(path)), AlignmentError,
                 "der hund ||| the dog\nbellt ||| barks\n", id="read_parallel_corpus"),
    pytest.param(lambda path: load_table(str(path)), AlignmentError,
                 "floor\t0.001\nhund\tdog\t0.75\nhund\t<NULL>\t0.25\n", id="load_table"),
    pytest.param(_pos, PosError,
                 "tagset\tNOUN,VERB\nhund\tNOUN\t0.75\nhund\tVERB\t0.25\nbellt\tVERB\t1.0\n",
                 id="load_pos_distribution"),
    pytest.param(_embeddings, ModelError, "2 2\nhund 0.25 -0.5\nbellt 1.0 0.0\n",
                 id="load_embeddings"),
    pytest.param(lambda path: parse_report(_text(path)), EvalError,
                 "precision\t0.5\nrecall\t0.5\nf1\t0.5\ngold_args\t2\npred_args\t2\n\n"
                 "[per_role]\nrole,precision,recall,f1,support\nA0,0.5,0.5,0.5,2\n\n"
                 "[per_distance]\nbucket,precision,recall,f1,support\n1-2,0.5,0.5,0.5,2\n",
                 id="parse_report"),
    pytest.param(_config, ValueError, "# sizes\nhidden = 4\nvariant = basic\n",
                 id="read_config_file"),
]
EDITS = {
    "leading-blank-line": lambda text: "\n" + text,
    "crlf": lambda text: text.replace("\n", "\r\n"),
}


@pytest.mark.parametrize("edit", EDITS.values(), ids=EDITS)
@pytest.mark.parametrize("read, error, sample", READERS)
def test_an_edit_that_keeps_the_content_keeps_the_result(tmp_path, read, error, sample, edit):
    path = tmp_path / "input"
    path.write_bytes(sample.encode("utf-8"))
    want = read(path)
    path.write_bytes(edit(sample).encode("utf-8"))
    try:
        got = read(path)
    except error as exc:
        assert re.search(r"\bline [1-9]\d*\b|:[1-9]\d*: ", str(exc)), str(exc)
    else:
        assert got == want
