"""Every function the benchmark tracer wraps exists under its name, takes
the arguments its hooks read by position where they read them, and
returns what its hooks read.

``bench/tracer.py`` patches functions by module and attribute name and
skips a name it cannot find, so a renamed function would read in the
benchmark as a layer that takes no time.  Its hooks count work from
positional arguments, so a moved parameter would count the wrong thing,
and from the results, so a changed result would fail only in a traced run.
"""

import importlib.util
import inspect
from pathlib import Path

from xsrl.alignment import ibm1_train, read_parallel_corpus, save_table
from xsrl.corpus import parse_srl_corpus, write_srl_corpus
from xsrl.postag import fit_pos_emission
from xsrl.projection import project_corpus

from conftest import DATA, read

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_tracer_patch_target_exists():
    tracer = load_tracer()
    with tracer.instrument(tracer.Tracer(), tracer.PATCHES) as missing:
        assert missing == []


def test_hooks_read_the_parameters_they_count():
    """The source corpus is ``project_corpus``'s first argument (sentences
    projected), the pairs and the iterations are ``ibm1_train``'s first two
    (links visited), and the corpus is ``write_srl_corpus``'s first (tokens
    written); ``bilstm_forward``'s third is checked with the model tests."""
    def parameters(function):
        return list(inspect.signature(function).parameters)

    assert parameters(project_corpus)[0] == "src_corpus"
    assert parameters(ibm1_train)[:2] == ["pairs", "iterations"]
    assert parameters(write_srl_corpus)[0] == "corpus"


def test_ibm1_hook_counts_the_rows_save_table_writes(tmp_path):
    hooks = load_tracer()
    tracer = hooks.Tracer()
    pairs = read_parallel_corpus(read(DATA / "bitext.txt"))
    table = ibm1_train(pairs, iterations=10)
    hooks._ibm1(tracer, (pairs,), {"iterations": 10}, table)
    save_table(table, str(tmp_path / "table.tsv"))
    rows = len(read(tmp_path / "table.tsv").splitlines()) - 1  # without the header
    assert tracer.counts[0]["alignment.table_entries"] == rows == 659


def test_project_hook_counts_the_returned_stats():
    hooks = load_tracer()
    tracer = hooks.Tracer()
    src = parse_srl_corpus(read(DATA / "en_srl.conllu"))
    translations = list(parse_srl_corpus(read(DATA / "de_trans.conllu"),
                                         require_pred=False).sentences)
    table = ibm1_train(read_parallel_corpus(read(DATA / "bitext.txt")), iterations=10)
    dist = fit_pos_emission(parse_srl_corpus(read(DATA / "de_tagged.conllu"),
                                             require_pred=False).sentences)
    args = (src, translations, table, dist, 0.4)
    result = project_corpus(*args)
    hooks._project(tracer, args, {}, result)
    stats = result[1]
    assert stats.frames_kept > 0
    for name in ("frames_in", "frames_kept"):
        assert tracer.counts[0][f"projection.{name}"] == getattr(stats, name), name
