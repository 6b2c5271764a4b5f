"""The C library's malloc controls: train's shared workspace is mapped after
the heap's free pages are given back, and both controls go through one
lookup that may find neither function."""

import mmap
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from xsrl import cli, malloc
from xsrl.model import lstm

from conftest import DATA

SRC = Path(__file__).resolve().parent.parent / "src"

# Touches 32 blocks of 1 MB, below the 32 MB mmap threshold the command line
# sets, so they come from the heap, frees them, then maps and fills 8 MB of
# shared memory; prints the resident bytes while the blocks were live and
# at the end.
TRIM_PROBE = """
import os
import numpy as np
from xsrl import cli
from xsrl.model import lstm

def resident():
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")

cli._keep_freed_pages()
blocks = [np.ones(2**20 // 8) for _ in range(32)]
live = resident()
del blocks
shared = lstm.shared_array(8 * 2**20 // 8, np.float64)
shared.fill(1.0)
print(live, resident())
"""


def _has_both_functions() -> bool:
    lib = malloc._library()
    return all(hasattr(lib, name) for name in ("mallopt", "malloc_trim"))


@pytest.mark.skipif(not os.path.exists("/proc/self/statm") or not _has_both_functions(),
                    reason="needs /proc/self/statm and glibc's mallopt and malloc_trim")
def test_shared_array_maps_after_the_freed_heap_is_given_back():
    """Without the trim the 32 MB freed under the kept-pages setting stay
    resident and the 8 MB mapping lands on top of them."""
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", TRIM_PROBE], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    live, end = map(int, proc.stdout.split())
    assert end < live, (live / 2**20, end / 2**20)


class _NoFunctions:
    """A C library that has neither function; records what is looked up."""

    def __init__(self):
        self.looked_up = []

    def __getattr__(self, name):
        self.looked_up.append(name)
        raise AttributeError(name)


@pytest.fixture
def no_functions(monkeypatch):
    lib = _NoFunctions()
    monkeypatch.setattr(malloc, "_library", lambda: lib)
    cli._keep_freed_pages.cache_clear()
    yield lib
    cli._keep_freed_pages.cache_clear()


def test_a_library_without_the_functions_leaves_everything_working(no_functions, tmp_path):
    malloc.keep_freed_pages()
    malloc.release_free_pages()
    assert no_functions.looked_up == ["mallopt", "malloc_trim"]
    array = lstm.shared_array(1000, np.float64)
    assert isinstance(array.base.obj, mmap.mmap)
    assert array.shape == (1000,) and not array.any()
    assert cli.main(["stats", "--input", str(DATA / "en_srl.conllu"),
                     "--out", str(tmp_path / "counts.txt")]) == 0
    assert no_functions.looked_up == ["mallopt", "malloc_trim", "malloc_trim", "mallopt"]
    assert (tmp_path / "counts.txt").read_text(encoding="utf-8")
