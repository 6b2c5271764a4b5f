"""Loader for pretrained word vectors in the plain text format.

First line "count dim", then one "word v1 ... v_dim" line per word with
space-separated finite decimal floats.  :func:`~xsrl.model.training.train`
takes the returned ``(words, vectors)`` table whole: it freezes it and
prepends an all-zero row for unknown words.
"""

from __future__ import annotations

import math
from array import array

import numpy as np

from .network import ModelError

__all__ = ["load_embeddings"]


def load_embeddings(path: str) -> tuple[list[str], np.ndarray]:
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().split()
        if len(header) != 2:
            raise ModelError("line 1: expected 'count dim' header")
        try:
            count, dim = int(header[0]), int(header[1])
        except ValueError:
            raise ModelError("line 1: expected integer count and dim") from None
        if count < 0 or dim < 1:
            raise ModelError(
                f"line 1: expected a count >= 0 and a dim >= 1, got {count} {dim}")
        words: list[str] = []
        # grows with the vectors read, not with the declared count
        values = array("d")
        for lineno, line in enumerate(fh, start=2):
            fields = line.rstrip("\n").split(" ")
            if len(fields) != dim + 1:
                raise ModelError(
                    f"line {lineno}: expected a word and {dim} values, "
                    f"got {len(fields)} fields")
            if len(words) >= count:
                raise ModelError(f"line {lineno}: more vectors than the declared {count}")
            words.append(fields[0])
            try:
                row = [float(v) for v in fields[1:]]
            except ValueError:
                raise ModelError(f"line {lineno}: malformed float value") from None
            if not all(map(math.isfinite, row)):
                raise ModelError(f"line {lineno}: non-finite value")
            values.extend(row)
    if len(words) != count:
        raise ModelError(f"expected {count} vectors, file has {len(words)}")
    return words, np.frombuffer(values, dtype=np.float64).reshape(count, dim)
