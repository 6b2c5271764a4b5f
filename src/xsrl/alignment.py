"""Lexical word-alignment probabilities a(f|e) via IBM Model 1 EM.

Each source word is explained by one target word of the parallel sentence
or by a reserved NULL token prepended to the target side.  The trained
table stores, per source word, a distribution over target words (NULL
included) summing to one.  ``best_target`` never proposes NULL: a source
word projects onto a concrete target token or not at all.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate, chain
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

#: Links per block of :func:`ibm1_train`'s EM; a block holds whole pairs.
BLOCK_LINKS = 1 << 16
# ibm1_train's memory estimate, in bytes per token (word ids, row lengths and
# offsets, token lists), per link of the largest block and, as measured from
# the tracemalloc peak of the table's build, per table entry and source word.
_TOKEN_BYTES = 40
_BLOCK_BYTES = 64
_ENTRY_BYTES = 88
_SOURCE_BYTES = 216


class AlignmentError(ValueError):
    """Raised for malformed parallel corpora or alignment-table files."""


@dataclass(frozen=True, slots=True)
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
    of the textbook nested loops.  The only array kept per link is the int32
    id of its (e, f) table entry, entries being numbered in order of first
    use (a literal ``<NULL>`` target token is the NULL entry).  Everything
    else a link needs is rebuilt from the pair lengths, one block of whole
    pairs (about ``BLOCK_LINKS`` links) at a time, so training holds 4 bytes
    per link plus a few arrays per token, per entry and per block.  That
    memory is estimated before anything per link is built, and with the
    entries before the EM; above :func:`xsrl.malloc.physical_memory` it
    raises AlignmentError.

    The numbering goes block by block: a stable sort of the links' integer
    keys ``e * |targets| + f`` groups equal keys with their first link
    first, a stable sort of the sorted keys of earlier blocks followed by
    the block's merges the two and pairs each key seen before with its id,
    and the new keys take the next ids, ranked by their first link.  One
    iteration, block by block, gathers the entry probabilities onto the
    links, sums them per row into the denominators (a row never leaves its
    pair, hence its block), divides, and adds the posteriors into the
    running per-entry and per-source-word sums with ``np.add.at``.
    ``np.bincount`` and ``np.add.at`` add one value after another in input
    order, which is link order, so every sum is formed in the same order as
    in the nested loops and the table and the log-likelihoods are the same
    to the last bit.  Summing per-block
    ``bincount`` results, or pairwise reductions (``ndarray.sum``,
    ``np.add.reduceat``), would reorder the additions and are not used; the
    log-likelihood stays a sequential ``math.log`` sum.  ``np.unique`` is
    not used either: it imports ``numpy.ma``, about a megabyte of modules
    that no other stage loads.  Nor is any numpy routine that the rest of
    the pipeline does not already run (``np.searchsorted``, unstable or
    16-bit sorts, casts from int32): each faults in another 64 KB or more
    of numpy's code, which stays resident for the rest of a process.
    """
    if iterations < 1:
        raise AlignmentError(f"iterations must be >= 1, got {iterations}")
    if not 0.0 <= floor <= 1.0:
        raise AlignmentError(f"floor must be in [0,1], got {floor}")
    if not pairs:
        raise AlignmentError("empty pair list")

    def side(name: str) -> list[str]:
        return list(chain.from_iterable(map(attrgetter(name), pairs)))

    def lengths(name: str) -> np.ndarray:
        return np.fromiter(map(len, map(attrgetter(name), pairs)), np.intp, len(pairs))

    src_len, tgt_len = lengths("src_tokens"), lengths("tgt_tokens")
    empty = np.flatnonzero((src_len == 0) | (tgt_len == 0))
    if len(empty):
        raise AlignmentError(f"pair {empty[0]}: empty side")
    tokens = sum(src_len.tolist()) + sum(tgt_len.tolist())
    tgt_len += 1  # with NULL
    links = (src_len * tgt_len).tolist()  # of each pair
    n_links = sum(links)
    block = min(n_links, max(max(links), BLOCK_LINKS))
    links_bytes = 4 * n_links + tokens * _TOKEN_BYTES + block * _BLOCK_BYTES
    _check_memory(links_bytes, f"{len(pairs):,} pairs ({n_links:,} links)")
    src = side("src_tokens")
    src_words = list(dict.fromkeys(src))
    src_id = {word: i for i, word in enumerate(src_words)}
    row_src = np.fromiter(map(src_id.__getitem__, src), np.intp, len(src))
    del src, src_id
    tgt = side("tgt_tokens")
    tgt_words = list(dict.fromkeys(chain((NULL_TOKEN,), tgt)))  # NULL is target 0
    tgt_id = {word: i for i, word in enumerate(tgt_words)}
    tgt_ids = np.fromiter(map(tgt_id.__getitem__, tgt), np.intp, len(tgt))
    del tgt, tgt_id
    n_src, n_tgt = len(src_words), len(tgt_words)
    pair_start = np.cumsum(tgt_len) - tgt_len  # each pair's NULL in tgt_ids
    tgt_ids = np.insert(tgt_ids, pair_start - np.arange(len(pairs)), 0)
    row_len = np.repeat(tgt_len, src_len)  # links in each row
    row_inv_len = 1.0 / row_len
    row_tgt = np.repeat(pair_start, src_len)  # its pair's NULL in tgt_ids

    # The blocks, as (first row, end row, first link, end link): whole
    # pairs, at most BLOCK_LINKS links unless a single pair has more.
    pair_rows = np.cumsum(src_len).tolist()
    pair_links = list(accumulate(links))
    blocks: list[tuple[int, int, int, int]] = []
    p0 = r0 = l0 = 0
    while p0 < len(pairs):
        p1 = max(bisect_right(pair_links, l0 + BLOCK_LINKS), p0 + 1)
        r1, l1 = pair_rows[p1 - 1], pair_links[p1 - 1]
        blocks.append((r0, r1, l0, l1))
        p0, r0, l0 = p1, r1, l1
    del pair_start, pair_rows, pair_links, links

    # Number the (e, f) entries in order of first use, block by block.
    entry_id = np.empty(n_links, dtype=np.int32)
    seen_keys = np.empty(0, dtype=np.intp)  # the keys numbered so far, sorted
    seen_ids = np.empty(0, dtype=np.intp)  # the id of each
    for r0, r1, l0, l1 in blocks:
        lens = row_len[r0:r1]
        # a row's links take its pair's targets in order: link i of the row
        # takes target i of the pair
        link_f = np.arange(l1 - l0)
        link_f += np.repeat(row_tgt[r0:r1] - (np.cumsum(lens) - lens), lens)
        keys = np.repeat(row_src[r0:r1], lens)
        keys *= n_tgt
        keys += tgt_ids[link_f]
        perm = np.argsort(keys, kind="stable")
        keys = np.take(keys, perm, out=link_f, mode="clip")
        new = np.empty(len(keys), dtype=bool)  # the first link of each group
        new[:1] = True
        np.not_equal(keys[1:], keys[:-1], out=new[1:])
        group_key, first = keys[new], perm[new]  # the groups' keys and first links
        del keys, link_f
        # Merge the groups' keys into the keys seen before: a stable sort of
        # the two sorted runs puts a key seen before right ahead of its twin.
        n_seen = len(seen_keys)
        merged = np.concatenate((seen_keys, group_key))
        del seen_keys, group_key
        order = np.argsort(merged, kind="stable")
        merged = merged[order]
        twin = np.empty(len(merged), dtype=bool)  # a group's key seen before
        twin[:1] = False
        np.equal(merged[1:], merged[:-1], out=twin[1:])
        seen_keys = merged[~twin]
        del merged
        is_group = order >= n_seen  # in key order, as the groups are
        merged_id = np.empty(len(order), dtype=np.intp)
        merged_id[~is_group] = seen_ids[order[~is_group]]
        del seen_ids
        twins = np.flatnonzero(twin)
        merged_id[twins] = merged_id[twins - 1]
        fresh = is_group & ~twin
        # the new keys take the next ids in the order of their first links
        fresh_first = first[order[fresh] - n_seen]
        is_fresh_first = np.zeros(len(perm), dtype=bool)
        is_fresh_first[fresh_first] = True
        fresh_rank = np.cumsum(is_fresh_first)[fresh_first]  # from 1
        merged_id[fresh] = fresh_rank + (n_seen - 1)
        group_id = merged_id[is_group]
        seen_ids = merged_id[~twin]
        del order, merged_id, twin, twins, is_group, fresh
        if len(seen_ids) > 2**31:
            raise AlignmentError("more than 2**31 table entries")
        group = np.cumsum(new)  # each sorted link's group, from 1
        group -= 1
        entry_id[l0:l1][perm] = group_id[group]
    del tgt_ids, row_tgt, perm, new, group
    n_entries = len(seen_ids)
    _check_memory(links_bytes + n_entries * _ENTRY_BYTES + n_src * _SOURCE_BYTES,
                  f"{len(pairs):,} pairs ({n_links:,} links, {n_entries:,} table entries)")
    entry_key = np.empty(n_entries, dtype=np.intp)
    entry_key[seen_ids] = seen_keys
    del seen_keys, seen_ids
    entry_e = entry_key // n_tgt

    # The loop reuses two block-sized buffers, indexes with intp (numpy
    # would copy any other index dtype on every call) and takes with
    # mode="clip" (the default mode buffers its output).  Besides them a
    # block holds one link-sized array at a time.  The int32 ids are copied
    # into the low halves of the zeroed intp buffer: a plain copy, where a
    # cast to intp would fault in more of numpy's code.
    width = max(l1 - l0 for _, _, l0, l1 in blocks)
    row_ids = np.arange(max(r1 - r0 for r0, r1, _, _ in blocks))
    id_buffer, gamma_buffer = np.zeros(width, dtype=np.intp), np.empty(width)
    low_halves = id_buffer.view(np.int32)[0 if sys.byteorder == "little" else 1::2]
    probs = np.full(n_entries, 1.0 / n_tgt)
    for _ in range(iterations):
        counts = np.zeros(n_entries)
        totals = np.zeros(n_src)
        loglik = 0.0
        for r0, r1, l0, l1 in blocks:
            ids, gamma, lens = id_buffer[:l1 - l0], gamma_buffer[:l1 - l0], row_len[r0:r1]
            low_halves[:l1 - l0] = entry_id[l0:l1]
            np.take(probs, ids, out=gamma, mode="clip")
            row = np.repeat(row_ids[:r1 - r0], lens)  # counted from r0
            denom = np.bincount(row, weights=gamma, minlength=r1 - r0)
            del row
            gamma /= np.repeat(denom, lens)
            np.add.at(counts, ids, gamma)
            np.add.at(totals, np.repeat(row_src[r0:r1], lens), gamma)
            if log is not None:
                for v in (denom * row_inv_len[r0:r1]).tolist():
                    loglik += math.log(v)
        probs = counts / totals[entry_e]
        if log is not None:
            log.append(loglik)

    # free the link, block and token arrays before the table is built
    del entry_id, id_buffer, gamma_buffer, low_halves, ids, gamma, lens, row_ids
    del row_src, row_len, row_inv_len, counts, totals
    # Source ids are numbered by first use, and a source word's first entry
    # comes before any later word's, so a stable sort by source id lists the
    # rows and each row's targets in order of first use.
    by_src = np.argsort(entry_e, kind="stable")
    targets = (entry_key % n_tgt)[by_src]
    values = probs[by_src]
    del by_src, entry_key, probs
    ends = np.cumsum(np.bincount(entry_e, minlength=n_src)).tolist()
    rows, start = {}, 0
    for e, end in zip(src_words, ends):
        row_targets = map(tgt_words.__getitem__, targets[start:end].tolist())
        rows[e] = dict(zip(row_targets, values[start:end].tolist()))
        start = end
    return AlignmentTable(rows=rows, floor=floor)


def _check_memory(needed: int, counts: str) -> None:
    """Refuse to align when ``needed`` bytes exceed physical memory;
    ``counts`` says what the estimate counted."""
    from . import malloc

    available = malloc.physical_memory()
    if needed > available:
        raise AlignmentError(
            f"aligning its {counts} needs about {needed / 2**30:.1f} GiB, more than "
            f"the {available / 2**30:.1f} GiB of physical memory")


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
