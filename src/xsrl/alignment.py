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
from itertools import chain, islice
from operator import attrgetter

import numpy as np

__all__ = [
    "NULL_TOKEN",
    "AlignmentError",
    "ParallelPair",
    "AlignmentTable",
    "read_parallel_corpus",
    "ibm1_train",
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
    """Conditional translation probabilities, one row per source word.

    ``rows`` maps each source word to ``{target word: a(f|e)}``.  ``floor``
    is returned for pairs not in the table.
    """

    rows: dict[str, dict[str, float]] = field(default_factory=dict)
    floor: float = 0.0

    @property
    def probs(self) -> dict[tuple[str, str], float]:
        """The entries as one flat ``{(e, f): p}`` dict, built on each access.

        The package itself reads ``rows``."""
        return {(e, f): p for e, row in self.rows.items() for f, p in row.items()}

    def null_mass(self, e: str) -> float:
        """Probability mass the source word assigns to the NULL token."""
        return self.rows.get(e, {}).get(NULL_TOKEN, 0.0)


def read_parallel_corpus(data: str) -> list[ParallelPair]:
    """Read a fast_align-style bitext: one "src tokens ||| tgt tokens" per line."""
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
               log: list[float] | None = None) -> AlignmentTable:
    """Train IBM Model 1 by EM and return the alignment table.

    Words are keyed exactly as the pairs spell them.  Per iteration the
    corpus log-likelihood sum_pairs sum_i log((1/(m+1)) sum_j a(f_j|e_i))
    is appended to ``log`` (it is non-decreasing).  Training is sequential
    and deterministic: identical inputs give bit-identical tables.

    The EM runs on integer-coded arrays.  A *row* is one source token of
    one pair; a *link* is one (row, target token) combination, NULL first.
    Links are laid out pair by pair, row by row, target by target: the order
    of the textbook nested loops.  Each link carries the id of its row, of
    its source word and of its (e, f) table entry, entries being numbered in
    order of first use (a literal ``<NULL>`` target token is the NULL
    entry).  The numbering is built on arrays too: each link's entry is the
    integer key ``e * |targets| + f``, a stable sort groups equal keys with
    their first link first, and the groups are ranked by that first link.
    One iteration gathers the entry probabilities onto the links,
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
    if not 0.0 <= floor <= 1.0:
        raise AlignmentError(f"floor must be in [0,1], got {floor}")
    if not pairs:
        raise AlignmentError("empty pair list")
    for idx, pair in enumerate(pairs):
        if not pair.src_tokens or not pair.tgt_tokens:
            raise AlignmentError(f"pair {idx}: empty side")

    def side(name: str) -> list[str]:
        return list(chain.from_iterable(map(attrgetter(name), pairs)))

    def lengths(name: str) -> np.ndarray:
        return np.fromiter(map(len, map(attrgetter(name), pairs)), np.intp, len(pairs))

    src, tgt = side("src_tokens"), side("tgt_tokens")
    src_len, tgt_len = lengths("src_tokens"), lengths("tgt_tokens") + 1  # with NULL
    src_words = list(dict.fromkeys(src))
    tgt_words = list(dict.fromkeys(chain((NULL_TOKEN,), tgt)))  # NULL is target 0
    n_rows, n_src, n_tgt = len(src), len(src_words), len(tgt_words)
    src_id = {word: i for i, word in enumerate(src_words)}
    tgt_id = {word: i for i, word in enumerate(tgt_words)}
    row_src = np.fromiter(map(src_id.__getitem__, src), np.intp, n_rows)
    pair_start = np.cumsum(tgt_len) - tgt_len  # each pair's NULL in tgt_ids
    tgt_ids = np.fromiter(map(tgt_id.__getitem__, tgt), np.intp, len(tgt))
    tgt_ids = np.insert(tgt_ids, pair_start - np.arange(len(pairs)), 0)
    row_len = np.repeat(tgt_len, src_len)  # links in each row
    row_id = np.repeat(np.arange(n_rows, dtype=np.intp), row_len)
    link_e = row_src[row_id]
    # a row's links take its pair's targets in order: link i of the row
    # takes target i of the pair
    link_f = np.arange(len(row_id), dtype=np.intp)
    link_f += np.repeat(pair_start, src_len)[row_id]
    link_f -= (np.cumsum(row_len) - row_len)[row_id]
    link_f = tgt_ids[link_f]

    # Number the (e, f) entries in order of first use: sort the links' keys
    # e * |targets| + f stably, so each entry's first link leads its group,
    # and rank the groups by that link.  ``work`` holds the links' targets,
    # then the sorted keys, then each sorted link's group, then the entry
    # ids: five link-sized arrays are live at most, as in the EM loop.
    keys = link_e * n_tgt
    keys += link_f
    work = link_f
    perm = np.argsort(keys, kind="stable")
    np.take(keys, perm, out=work, mode="clip")
    new = np.empty(len(work), dtype=bool)  # the first link of each entry
    new[:1] = True
    np.not_equal(work[1:], work[:-1], out=new[1:])
    entry_key = work[new]
    order = np.argsort(perm[new], kind="stable")  # the entries by first use
    rank = np.empty(len(order), dtype=np.intp)
    rank[order] = np.arange(len(order), dtype=np.intp)
    np.cumsum(new, out=work)
    work -= 1
    del new
    np.take(rank, work, out=keys, mode="clip")  # the entry id of each sorted link
    entry_id = work
    entry_id[perm] = keys
    del keys, perm, rank, link_f, work
    entry_key = entry_key[order]
    entry_e = entry_key // n_tgt
    n_entries = len(entry_key)
    row_inv_len = 1.0 / row_len

    # The loop allocates no per-link array: the two buffers are reused, the
    # indices are intp (numpy would copy any other index dtype on every call)
    # and take runs with mode="clip" (the default mode buffers its output).
    linked = np.empty(len(entry_id))
    gamma = np.empty(len(entry_id))
    probs = np.full(n_entries, 1.0 / n_tgt)
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
    # Source ids are numbered by first use, and a source word's first entry
    # comes before any later word's, so a stable sort by source id lists the
    # rows and each row's targets in order of first use.
    by_src = np.argsort(entry_e, kind="stable")
    targets = map(tgt_words.__getitem__, (entry_key % n_tgt)[by_src].tolist())
    values = iter(probs[by_src].tolist())
    sizes = np.bincount(entry_e, minlength=n_src).tolist()
    # zip asks islice first, so each row stops at its size without taking a value
    rows = {e: dict(zip(islice(targets, size), values)) for e, size in zip(src_words, sizes)}
    return AlignmentTable(rows=rows, floor=floor)


def best_target(table: AlignmentTable, e: str, tgt_tokens) -> tuple[int, float]:
    """1-based index of the target token maximizing a(f|e), with its probability.

    Pairs not in the table score the table's floor.  Ties go to the smallest
    index.  The NULL token is never a candidate unless it literally appears
    in ``tgt_tokens``.
    """
    if not tgt_tokens:
        raise AlignmentError("empty target sentence")
    row, floor = table.rows.get(e), table.floor
    if row is None:
        return 1, floor
    probs = [row.get(f, floor) for f in tgt_tokens]
    best = max(probs)  # max keeps the first of equal maxima, and index finds it
    return probs.index(best) + 1, best


def save_table(table: AlignmentTable, path: str) -> None:
    """Write the table as "floor\\t<value>" then "src\\ttgt\\tprob" rows sorted by
    source word, then target word."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"floor\t{table.floor!r}\n")
        rows = table.rows
        for e in sorted(rows):
            row = rows[e]
            fh.write("".join([f"{e}\t{f}\t{row[f]!r}\n" for f in sorted(row)]))


def load_table(path: str) -> AlignmentTable:
    """Read a table written by :func:`save_table`.

    Line 1 is the header if it is a ``floor`` line of two fields; a table
    without one has floor 0.0.  Each distinct target word is kept as one
    ``str`` object shared by all the rows it appears in.
    """
    rows: dict[str, dict[str, float]] = {}
    words: dict[str, str] = {}
    floor = 0.0
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if line == "\n":
                continue
            fields = line.rstrip("\n").split("\t")
            if lineno == 1 and fields[0] == "floor" and len(fields) != 3:
                if len(fields) != 2:
                    raise AlignmentError(f"line {lineno}: malformed floor header")
                floor = _parse_prob(fields[1], lineno)
                continue
            if len(fields) != 3:
                if fields[0] == "floor" and len(fields) == 2:
                    raise AlignmentError(f"line {lineno}: 'floor' header must be line 1")
                raise AlignmentError(f"line {lineno}: expected 'src\\ttgt\\tprob'")
            e, f = fields[0], words.setdefault(fields[1], fields[1])
            row = rows.get(e)
            if row is None:
                row = rows[e] = {}
            row[f] = _parse_prob(fields[2], lineno)
    return AlignmentTable(rows=rows, floor=floor)


def _parse_prob(text: str, lineno: int) -> float:
    try:
        value = float(text)
    except ValueError:
        raise AlignmentError(f"line {lineno}: malformed probability {text!r}") from None
    if not 0.0 <= value <= 1.0:
        raise AlignmentError(f"line {lineno}: probability out of range: {text}")
    return value
