"""Every function the benchmark tracer wraps exists under its name, and
takes the arguments its hooks read by position where they read them.

``bench/tracer.py`` patches functions by module and attribute name and
skips a name it cannot find, so a renamed function would read in the
benchmark as a layer that takes no time.  Its hooks count work from
positional arguments, so a moved parameter would count the wrong thing.
"""

import importlib.util
import inspect
from pathlib import Path

from xsrl.alignment import ibm1_train
from xsrl.corpus import write_srl_corpus
from xsrl.projection import project_corpus

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def test_every_tracer_patch_target_exists():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
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
