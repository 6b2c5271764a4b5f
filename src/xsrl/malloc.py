"""The C library's malloc controls: how much freed memory the heap keeps.

A training batch frees its temporaries and the next one allocates them
again.  Under glibc's dynamic defaults their pages are unmapped and
faulted in anew every batch, so the command line keeps freed memory
(:func:`keep_freed_pages`).  What the heap then keeps after earlier work
is given back right before ``train`` maps its shared workspace
(:func:`release_free_pages`), so the mapping does not sit on top of it.
Both calls go through one lookup of the C library and do nothing where it
lacks them.
"""

from __future__ import annotations

import functools

__all__ = ["keep_freed_pages", "release_free_pages"]

# glibc mallopt parameters: keep up to 256 MB of freed memory instead of
# giving it back, and serve blocks below 32 MB (glibc's upper limit for this
# threshold) from that memory instead of fresh mappings.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
TRIM_THRESHOLD = 256 * 2**20
MMAP_THRESHOLD = 32 * 2**20


@functools.cache
def _library():
    """This process's C library with ``mallopt`` and ``malloc_trim`` typed,
    or None where it cannot be loaded; a function it lacks stays missing."""
    import ctypes

    try:
        lib = ctypes.CDLL(None)
    except (OSError, TypeError):
        return None
    for name, argtypes in (("mallopt", (ctypes.c_int, ctypes.c_int)),
                           ("malloc_trim", (ctypes.c_size_t,))):
        try:
            function = getattr(lib, name)
        except AttributeError:
            continue
        function.argtypes, function.restype = argtypes, ctypes.c_int
    return lib


def keep_freed_pages() -> None:
    """Apply the malloc settings above; does nothing without ``mallopt``."""
    mallopt = getattr(_library(), "mallopt", None)
    if mallopt is not None:
        mallopt(_M_TRIM_THRESHOLD, TRIM_THRESHOLD)
        mallopt(_M_MMAP_THRESHOLD, MMAP_THRESHOLD)


def release_free_pages() -> None:
    """Give the heap's free pages back to the system (``malloc_trim(0)``);
    does nothing without ``malloc_trim``.  Memory in use is not touched."""
    trim = getattr(_library(), "malloc_trim", None)
    if trim is not None:
        trim(0)
