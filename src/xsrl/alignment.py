"""Lexical word-alignment probabilities a(f|e) via IBM Model 1 EM.

Each source word is explained by one target word of the parallel sentence
or by a reserved NULL token prepended to the target side.  The trained
table stores, per source word, a distribution over target words (NULL
included) summing to one.  ``best_target`` never proposes NULL: a source
word projects onto a concrete target token or not at all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "NULL_TOKEN",
    "AlignmentError",
    "ParallelPair",
    "AlignmentTable",
    "read_parallel_corpus",
    "ibm1_train",
    "align_prob",
    "best_target",
    "save_table",
    "load_table",
]

#: Reserved target-side token absorbing unaligned source words.
NULL_TOKEN = "<NULL>"


class AlignmentError(ValueError):
    """Raised for malformed parallel corpora or alignment-table files."""


@dataclass(frozen=True)
class ParallelPair:
    src_tokens: tuple[str, ...]
    tgt_tokens: tuple[str, ...]


@dataclass
class AlignmentTable:
    """Conditional translation probabilities keyed by (source, target).

    ``floor`` is returned for pairs not in the table.
    """

    probs: dict[tuple[str, str], float] = field(default_factory=dict)
    floor: float = 0.0

    def null_mass(self, e: str) -> float:
        """Probability mass the source word assigns to the NULL token."""
        return self.probs.get((e, NULL_TOKEN), 0.0)


def read_parallel_corpus(data: bytes | str) -> list[ParallelPair]:
    """Read a fast_align-style bitext: one "src tokens ||| tgt tokens" per line."""
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    pairs: list[ParallelPair] = []
    for lineno, line in enumerate(data.split("\n"), start=1):
        if not line.strip():
            continue
        if "|||" not in line:
            raise AlignmentError(f"line {lineno}: expected 'src ||| tgt'")
        src_text, tgt_text = line.split("|||", 1)
        src = tuple(src_text.split())
        tgt = tuple(tgt_text.split())
        if not src or not tgt:
            raise AlignmentError(f"line {lineno}: empty side in parallel pair")
        pairs.append(ParallelPair(src, tgt))
    return pairs


def ibm1_train(pairs: list[ParallelPair], iterations: int, floor: float = 0.0,
               lowercase: bool = False,
               log: list[float] | None = None) -> AlignmentTable:
    """Train IBM Model 1 by EM and return the alignment table.

    A NULL token is prepended to every target sentence.  Per iteration the
    corpus log-likelihood sum_pairs sum_i log((1/(m+1)) sum_j a(f_j|e_i))
    is appended to ``log`` (it is non-decreasing).  Training is sequential
    and deterministic: identical inputs give bit-identical tables.

    The EM runs on integer-coded arrays.  A *row* is one source token of
    one pair; a *link* is one (row, target token) combination, NULL first.
    Links are laid out pair by pair, row by row, target by target: the order
    of the textbook nested loops.  Each link carries the id of its row, of
    its source word and of its (e, f) table entry, entries being numbered in
    order of first use (a literal ``<NULL>`` target token is the NULL
    entry).  One iteration gathers the entry probabilities onto the links,
    sums them per row into the denominators, divides, and sums the
    posteriors per entry and per source word.  ``np.bincount`` adds its
    weights one after another in input order, which is link order, so every
    sum is formed in the same order as in the nested loops and the table and
    the log-likelihoods are the same to the last bit.  Pairwise reductions
    (``ndarray.sum``, ``np.add.reduceat``) would reorder the additions and
    are not used; the log-likelihood stays a sequential ``math.log`` sum.
    """
    if iterations < 1:
        raise AlignmentError(f"iterations must be >= 1, got {iterations}")
    if not pairs:
        raise AlignmentError("empty pair list")
    for idx, pair in enumerate(pairs):
        if not pair.src_tokens or not pair.tgt_tokens:
            raise AlignmentError(f"pair {idx}: empty side")

    def norm(tok: str) -> str:
        return tok.lower() if lowercase else tok

    src_ids: dict[str, int] = {}
    tgt_vocab: set[str] = set()
    entry_ids: dict[tuple[str, str], int] = {}  # (e, f) -> entry id, in order of first use
    row_src: list[int] = []     # source word id of each row
    row_len: list[int] = []     # links in each row: target length plus NULL
    link_entry: list[int] = []  # entry id of each link
    for p in pairs:
        tgt = [NULL_TOKEN] + [norm(f) for f in p.tgt_tokens]
        tgt_vocab.update(tgt)
        for e in map(norm, p.src_tokens):
            row_src.append(src_ids.setdefault(e, len(src_ids)))
            row_len.append(len(tgt))
            link_entry.extend([entry_ids.setdefault((e, f), len(entry_ids)) for f in tgt])
    n_rows, n_src, n_entries = len(row_src), len(src_ids), len(entry_ids)

    entry_id = np.asarray(link_entry, dtype=np.intp)
    del link_entry
    row_id = np.repeat(np.arange(n_rows, dtype=np.intp), row_len)
    link_e = np.repeat(np.asarray(row_src, dtype=np.intp), row_len)
    entry_e = np.fromiter((src_ids[e] for e, _ in entry_ids), dtype=np.intp, count=n_entries)
    row_inv_len = 1.0 / np.asarray(row_len, dtype=np.float64)

    # The loop allocates no per-link array: the two buffers are reused, the
    # indices are intp (numpy would copy any other index dtype on every call)
    # and take runs with mode="clip" (the default mode buffers its output).
    linked = np.empty(len(entry_id))
    gamma = np.empty(len(entry_id))
    probs = np.full(n_entries, 1.0 / len(tgt_vocab))
    for _ in range(iterations):
        np.take(probs, entry_id, out=linked, mode="clip")
        denom = np.bincount(row_id, weights=linked, minlength=n_rows)
        np.take(denom, row_id, out=gamma, mode="clip")
        np.divide(linked, gamma, out=gamma)
        counts = np.bincount(entry_id, weights=gamma, minlength=n_entries)
        totals = np.bincount(link_e, weights=gamma, minlength=n_src)
        probs = counts / totals[entry_e]
        if log is not None:
            loglik = 0.0
            for v in (denom * row_inv_len).tolist():
                loglik += math.log(v)
            log.append(loglik)

    del linked, gamma, entry_id, row_id, link_e  # free them before the table is built
    return AlignmentTable(probs=dict(zip(entry_ids, probs.tolist())), floor=floor)


def align_prob(table: AlignmentTable, e: str, f: str) -> float:
    """Stored probability a(f|e), or the table floor for unseen pairs."""
    return table.probs.get((e, f), table.floor)


def best_target(table: AlignmentTable, e: str, tgt_tokens) -> tuple[int, float]:
    """1-based index of the target token maximizing a(f|e), with its probability.

    Ties go to the smallest index.  The NULL token is never a candidate
    unless it literally appears in ``tgt_tokens``.
    """
    if not tgt_tokens:
        raise AlignmentError("empty target sentence")
    best_j, best_p = 1, align_prob(table, e, tgt_tokens[0])
    for j, f in enumerate(tgt_tokens[1:], start=2):
        p = align_prob(table, e, f)
        if p > best_p:
            best_j, best_p = j, p
    return best_j, best_p


def save_table(table: AlignmentTable, path: str) -> None:
    """Write the table as "floor\\t<value>" then "src\\ttgt\\tprob" rows sorted by key."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"floor\t{table.floor!r}\n")
        probs = table.probs
        # sorting the keys alone builds no (key, value) tuple per entry
        for e, f in sorted(probs):
            fh.write(f"{e}\t{f}\t{probs[e, f]!r}\n")


def load_table(path: str) -> AlignmentTable:
    """Read a table written by :func:`save_table`.

    Each distinct word is kept as one ``str`` object shared by all the keys
    it appears in, which roughly halves the memory a large table holds.
    """
    probs: dict[tuple[str, str], float] = {}
    words: dict[str, str] = {}
    floor = 0.0
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            fields = line.split("\t")
            if lineno == 1 and fields[0] == "floor":
                if len(fields) != 2:
                    raise AlignmentError(f"line {lineno}: malformed floor header")
                floor = _parse_prob(fields[1], lineno)
                continue
            if len(fields) != 3:
                raise AlignmentError(f"line {lineno}: expected 'src\\ttgt\\tprob'")
            e, f = words.setdefault(fields[0], fields[0]), words.setdefault(fields[1], fields[1])
            probs[(e, f)] = _parse_prob(fields[2], lineno)
    return AlignmentTable(probs=probs, floor=floor)


def _parse_prob(text: str, lineno: int) -> float:
    try:
        value = float(text)
    except ValueError:
        raise AlignmentError(f"line {lineno}: malformed probability {text!r}") from None
    if not 0.0 <= value <= 1.0:
        raise AlignmentError(f"line {lineno}: probability out of range: {text}")
    return value
