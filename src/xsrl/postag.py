"""Per-word POS tag distributions p(t|f) for projection confidence scoring.

A count-based add-k emission model fit on any POS-tagged corpus, plus a
loader so externally computed distributions (e.g. from a stronger tagger)
can be dropped in.  Words never seen at fit time fall back to a uniform
distribution over the tagset.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain
from operator import itemgetter
from typing import Iterable

import numpy as np

from .corpus import UNIVERSAL_TAGS, Sentence

__all__ = [
    "PosError",
    "PosDistribution",
    "fit_pos_emission",
    "pos_prob",
    "save_pos_distribution",
    "load_pos_distribution",
]


class PosError(ValueError):
    """Raised for invalid tags or malformed distribution files."""


@dataclass
class PosDistribution:
    """Maps each known word to a probability vector over ``tagset``."""

    tagset: tuple[str, ...] = UNIVERSAL_TAGS
    dist: dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        if not self.tagset or len(set(self.tagset)) != len(self.tagset):
            raise PosError("tagset must be non-empty and duplicate-free")
        self._tag_index = {t: i for i, t in enumerate(self.tagset)}

    def tag_id(self, tag: str) -> int:
        try:
            return self._tag_index[tag]
        except KeyError:
            raise PosError(f"unknown POS tag {tag!r}") from None


def fit_pos_emission(tagged: Iterable[Sentence], k: float = 0.1) -> PosDistribution:
    """Fit p(t|f) = (count(f,t) + k) / (count(f) + k * |tagset|) over the
    tokens of ``tagged``, any iterable of sentences, read once.

    The tagset is the union of observed tags and the 17 universal tags;
    "_" marks an untagged token and is skipped.
    """
    if not 0 <= k < math.inf:
        raise PosError(f"smoothing constant must be a finite number >= 0, got {k}")
    # one count per distinct (word, tag) pair, in order of first occurrence
    pair_counts = Counter(map(itemgetter(1, 3),
                              chain.from_iterable(sent.tokens for sent in tagged)))
    if not pair_counts:
        raise PosError("empty corpus")
    for pair in [pair for pair in pair_counts if pair[1] == "_"]:
        del pair_counts[pair]
    tagset = tuple(sorted({tag for _, tag in pair_counts} | set(UNIVERSAL_TAGS)))
    row_of = {word: i for i, word in enumerate(dict.fromkeys(w for w, _ in pair_counts))}
    col_of = {tag: j for j, tag in enumerate(tagset)}
    counts = np.zeros((len(row_of), len(tagset)))
    counts[[row_of[word] for word, _ in pair_counts],
           [col_of[tag] for _, tag in pair_counts]] = list(pair_counts.values())
    # the counts are whole numbers, so each row sums exactly, in any order
    probs = (counts + k) / (counts.sum(axis=1, keepdims=True) + k * len(tagset))
    return PosDistribution(tagset=tagset, dist=dict(zip(row_of, probs)))


def pos_prob(dist: PosDistribution, word: str, tag: str) -> float:
    """p(tag|word); uniform 1/|tagset| for words not in the distribution."""
    idx = dist.tag_id(tag)
    vec = dist.dist.get(word)
    if vec is None:
        return 1.0 / len(dist.tagset)
    return float(vec[idx])


def save_pos_distribution(dist: PosDistribution, path: str) -> None:
    """Write "tagset\\t<comma-joined tags>" then sorted "word\\ttag\\tprob" rows.

    Zero-probability rows are omitted.
    """
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("tagset\t" + ",".join(dist.tagset) + "\n")
        for word in sorted(dist.dist):
            fh.writelines([f"{word}\t{tag}\t{p!r}\n"
                           for tag, p in zip(dist.tagset, dist.dist[word].tolist()) if p])


def load_pos_distribution(path: str) -> PosDistribution:
    """Read a distribution written by :func:`save_pos_distribution`, one
    line at a time.

    A file with no non-empty line is the empty (uniform) distribution;
    any other file starts with the tagset header.  Empty lines are
    skipped, a later line for the same word and tag wins, and words keep
    the order of their first line.  The first bad line raises its error;
    each word's row sum is checked after the last line.
    """
    with open(path, encoding="utf-8") as fh:
        header = next(fh, "").rstrip("\n").split("\t")
        if header == [""] and all(line == "\n" for line in fh):
            return PosDistribution()
        if len(header) != 2 or header[0] != "tagset":
            raise PosError("line 1: expected 'tagset\\t<comma-joined tags>' header")
        dist = PosDistribution(tagset=tuple(header[1].split(",")))
        for lineno, line in enumerate(fh, start=2):
            fields = line.rstrip("\n").split("\t")
            if fields == [""]:
                continue
            if len(fields) != 3:
                raise PosError(f"line {lineno}: expected 'word\\ttag\\tprob'")
            word, tag, text = fields
            try:
                p = float(text)
            except ValueError:
                raise PosError(f"line {lineno}: malformed probability {text!r}") from None
            if not 0.0 <= p <= 1.0:
                raise PosError(f"line {lineno}: probability out of range: {text}")
            try:
                col = dist.tag_id(tag)
            except PosError as exc:
                raise PosError(f"line {lineno}: {exc}") from None
            row = dist.dist.get(word)
            if row is None:
                row = dist.dist[word] = np.zeros(len(dist.tagset))
            row[col] = p
    for word, vec in dist.dist.items():
        total = vec.sum()
        if not 1.0 - 1e-6 <= total <= 1.0 + 1e-6:
            side = "above" if total > 1.0 else "below"
            raise PosError(f"probabilities for word {word!r} sum to {total}, {side} 1")
    return dist
