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
from itertools import chain, compress, repeat
from operator import itemgetter

import numpy as np

from .corpus import UNIVERSAL_TAGS, Corpus

__all__ = [
    "PosError",
    "PosDistribution",
    "fit_pos_emission",
    "pos_prob",
    "save_pos_distribution",
    "load_pos_distribution",
]


# Lines of a distribution file read, and words written, together: a chunk
# bounds the memory a file's rows take at once.
_CHUNK_LINES = 4096
_CHUNK_WORDS = 256


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


def fit_pos_emission(tagged: Corpus, k: float = 0.1) -> PosDistribution:
    """Fit p(t|f) = (count(f,t) + k) / (count(f) + k * |tagset|).

    The tagset is the union of observed tags and the 17 universal tags;
    "_" marks an untagged token and is skipped.
    """
    if not 0 <= k < math.inf:
        raise PosError(f"smoothing constant must be a finite number >= 0, got {k}")
    tokens = list(chain.from_iterable(sent.tokens for sent in tagged.sentences))
    if not tokens:
        raise PosError("empty corpus")
    tags = list(map(itemgetter(3), tokens))
    # one count per distinct (word, tag) pair, in order of first occurrence
    pair_counts = Counter(compress(zip(map(itemgetter(1), tokens), tags),
                                   map("_".__ne__, tags)))
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
    words = sorted(dist.dist)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("tagset\t" + ",".join(dist.tagset) + "\n")
        for start in range(0, len(words), _CHUNK_WORDS):
            chunk = words[start:start + _CHUNK_WORDS]
            probs = np.array([dist.dist[word] for word in chunk])
            rows, cols = np.nonzero(probs)
            fh.writelines([f"{chunk[row]}\t{dist.tagset[col]}\t{p!r}\n" for row, col, p
                           in zip(rows.tolist(), cols.tolist(), probs[rows, cols].tolist())])


def load_pos_distribution(path: str) -> PosDistribution:
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    if not lines or not lines[0]:
        return PosDistribution()
    header = lines[0].split("\t")
    if len(header) != 2 or header[0] != "tagset":
        raise PosError("line 1: expected 'tagset\\t<comma-joined tags>' header")
    dist = PosDistribution(tagset=tuple(header[1].split(",")))
    # The rows are read a chunk of lines at a time, each chunk split and
    # converted a column at a time; the line-by-line scan that names the
    # first bad line runs only when a check over the columns fails.
    row_of: dict[str, int] = {}  # word -> row, in order of first appearance
    word_ids, tag_ids, probs = [], [], []
    for start in range(1, len(lines), _CHUNK_LINES):
        chunk = list(filter(None, lines[start:start + _CHUNK_LINES]))
        if not chunk:
            continue
        if list(map(str.count, chunk, repeat("\t"))).count(2) != len(chunk):
            raise _first_line_error(lines, dist)
        cells = "\t".join(chunk).split("\t")
        words, tags, texts = cells[0::3], cells[1::3], cells[2::3]
        try:
            probs.append(np.fromiter(map(float, texts), np.float64, len(texts)))
            tag_ids.append(np.fromiter(map(dist._tag_index.__getitem__, tags), np.intp,
                                       len(tags)))
        except (ValueError, KeyError):
            raise _first_line_error(lines, dist) from None
        for word in dict.fromkeys(words):
            row_of.setdefault(word, len(row_of))
        word_ids.append(np.fromiter(map(row_of.__getitem__, words), np.intp, len(words)))
    probs = np.concatenate(probs) if probs else np.empty(0)
    if not ((probs >= 0.0) & (probs <= 1.0)).all():
        raise _first_line_error(lines, dist)

    # a later line for the same (word, tag) overrides an earlier one: the
    # first occurrence of a cell in the reversed lines is its last line
    flat = (np.concatenate(word_ids) * len(dist.tagset) + np.concatenate(tag_ids)
            if word_ids else np.empty(0, np.intp))
    flat, last = np.unique(flat[::-1], return_index=True)
    matrix = np.zeros((len(row_of), len(dist.tagset)))
    matrix.flat[flat] = probs[::-1][last]
    totals = matrix.sum(axis=1)
    off = np.flatnonzero((totals > 1.0 + 1e-6) | (totals < 1.0 - 1e-6))
    if off.size:
        word, total = list(row_of)[off[0]], totals[off[0]]
        side = "above" if total > 1.0 else "below"
        raise PosError(f"probabilities for word {word!r} sum to {total}, {side} 1")
    dist.dist = dict(zip(row_of, matrix))
    return dist


def _first_line_error(lines: list[str], dist: PosDistribution) -> PosError:
    """The error of the first malformed row of a distribution file.

    Checks one line at a time, in order; called only after a check over
    all rows failed, so some line fails.
    """
    for lineno, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        fields = line.split("\t")
        if len(fields) != 3:
            return PosError(f"line {lineno}: expected 'word\\ttag\\tprob'")
        _, tag, text = fields
        try:
            p = float(text)
        except ValueError:
            return PosError(f"line {lineno}: malformed probability {text!r}")
        if not 0.0 <= p <= 1.0:
            return PosError(f"line {lineno}: probability out of range: {text}")
        try:
            dist.tag_id(tag)
        except PosError as exc:
            return exc
    raise AssertionError("a bulk check failed on well-formed rows")
