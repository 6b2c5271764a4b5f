"""Loader for pretrained word vectors in the plain text format.

First line "count dim", then one "word v1 ... v_dim" line per word with
space-separated finite decimal floats.  The returned table is meant to be
frozen during training; an all-zero row for unknown words is prepended by
:func:`vocabulary_with_table`.
"""

from __future__ import annotations

import numpy as np

from .network import UNK, ModelError, Vocabulary

__all__ = ["load_embeddings", "vocabulary_with_table"]


def load_embeddings(path: str) -> tuple[list[str], np.ndarray]:
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().split()
        if len(header) != 2:
            raise ModelError("line 1: expected 'count dim' header")
        try:
            count, dim = int(header[0]), int(header[1])
        except ValueError:
            raise ModelError("line 1: expected integer count and dim") from None
        words: list[str] = []
        vectors = np.empty((count, dim), dtype=np.float64)
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
                vectors[len(words) - 1] = [float(v) for v in fields[1:]]
            except ValueError:
                raise ModelError(f"line {lineno}: malformed float value") from None
            if not np.isfinite(vectors[len(words) - 1]).all():
                raise ModelError(f"line {lineno}: non-finite value")
    if len(words) != count:
        raise ModelError(f"expected {count} vectors, file has {len(words)}")
    return words, vectors


def vocabulary_with_table(words: list[str], vectors: np.ndarray,
                          labels, languages) -> tuple[Vocabulary, np.ndarray]:
    """Build a vocabulary around a pretrained table, adding the unknown row."""
    from ..corpus import UNIVERSAL_TAGS

    vocab = Vocabulary(
        words=(UNK, *words),
        pos_tags=(*sorted(UNIVERSAL_TAGS), "_"),
        labels=tuple(labels),
        languages=tuple(languages),
    )
    table = np.vstack([np.zeros((1, vectors.shape[1])), vectors])
    return vocab, table
