"""Reading, validating and writing dependency-based SRL corpora.

The on-disk format is CoNLL-U extended with predicate/argument columns:
each token line carries the ten CoNLL-U fields, then PRED (the predicate
sense, or "_" for non-predicates), then one ARG column per predicate of
the sentence, predicates ordered left to right.  Sentences are separated
by a single blank line; comment lines start with "#".  A "# lang = XX"
comment supplies the per-sentence language ID.

:func:`iter_srl_corpus` reads a corpus from any iterable of lines, such
as an open file, one batch of sentences at a time: it parses and
validates a batch, yields its sentences and holds nothing of it after.
:func:`parse_srl_corpus` keeps every sentence it yields.
"""

from __future__ import annotations

import operator
import re
from collections import Counter
from dataclasses import dataclass, field
from itertools import compress, count, repeat
from typing import Iterable, Iterator, NamedTuple

__all__ = [
    "UNIVERSAL_TAGS",
    "Token",
    "PredicateFrame",
    "Sentence",
    "Corpus",
    "CorpusStats",
    "CorpusError",
    "Violation",
    "validate_corpus",
    "iter_srl_corpus",
    "parse_srl_corpus",
    "write_srl_corpus",
    "corpus_stats",
]

#: The 17-tag universal POS inventory.
UNIVERSAL_TAGS = (
    "ADJ", "ADP", "ADV", "AUX", "CCONJ", "DET", "INTJ", "NOUN", "NUM",
    "PART", "PRON", "PROPN", "PUNCT", "SCONJ", "SYM", "VERB", "X",
)

_VALID_UPOS = frozenset(UNIVERSAL_TAGS) | {"_"}

# PRED column value for a predicate whose sense is unannotated ("_" in the
# PRED column always means "not a predicate", so it cannot carry that role).
_SENSELESS_PRED = "-"

# A token's ten CoNLL-U columns, formatted from the Token tuple; XPOS, FEATS
# and DEPS are not kept and are written as "_".
_TOKEN_COLUMNS = "%s\t%s\t%s\t%s\t_\t_\t%s\t%s\t_\t%s"

_LANG_RE = re.compile(r"^#\s*lang\s*=\s*(\S+)\s*$")
_SENT_ID_RE = re.compile(r"^#\s*sent_id\s*=\s*(\S+)\s*$")


class CorpusError(ValueError):
    """Raised for malformed corpus files or invalid corpus values."""


@dataclass(frozen=True)
class Violation:
    """One invariant violation found by :func:`validate_corpus`."""

    code: str
    message: str


class Token(NamedTuple):
    """One token of a sentence. ``head`` is 0 for the root."""

    index: int
    form: str
    lemma: str = "_"
    upos: str = "_"
    head: int = 0
    deprel: str = "_"
    misc: str = "_"


@dataclass(frozen=True)
class PredicateFrame:
    """A predicate token index, its sense label, and its role-labeled args.

    ``args`` is a tuple of ``(token_index, role)`` pairs. ``sense`` may be
    "_" for a predicate without a sense annotation.
    """

    pred_index: int
    sense: str = "_"
    args: tuple[tuple[int, str], ...] = ()


@dataclass(frozen=True)
class Sentence:
    tokens: tuple[Token, ...]
    lang: str = ""
    sent_id: str = ""
    frames: tuple[PredicateFrame, ...] = ()
    comments: tuple[str, ...] = ()


@dataclass(frozen=True)
class Corpus:
    """Sentences in file order; everything else about a corpus, such as its
    :attr:`role_inventory`, is worked out from them."""

    sentences: tuple[Sentence, ...] = ()

    @classmethod
    def from_sentences(cls, sentences) -> "Corpus":
        """A corpus of any iterable of sentences, held as a tuple."""
        return cls(sentences=tuple(sentences))

    @property
    def role_inventory(self) -> tuple[str, ...]:
        """The role labels of the sentences' arguments, sorted, each once."""
        return tuple(sorted({r for s in self.sentences for f in s.frames for _, r in f.args}))


@dataclass(frozen=True)
class CorpusStats:
    sentences: int
    predicates: int
    arguments: int
    roles: dict[str, int] = field(default_factory=dict)


def validate_corpus(corpus: Corpus) -> list[Violation]:
    """Check every type invariant; one distinct code per invariant.

    Codes: token-index, token-form, token-upos, token-head, sent-indices,
    frame-bounds, frame-dup-pred, frame-dup-arg, frame-reflexive,
    frame-empty-role, frame-bad-sense.
    """
    return list(_violations(corpus.sentences))


def _violations(sentences, first: int = 1) -> Iterator[Violation]:
    """The violations of ``sentences`` in order, the first sentence being
    "sentence ``first``"."""
    for number, sent in enumerate(sentences, start=first):
        out: list[Violation] = []
        where = f"sentence {number}"
        n = len(sent.tokens)
        for tok in sent.tokens:
            if tok.index < 1:
                out.append(Violation("token-index", f"{where}: token index {tok.index} < 1"))
            if not tok.form:
                out.append(Violation("token-form", f"{where}: empty token form"))
            if tok.upos not in _VALID_UPOS:
                out.append(Violation("token-upos", f"{where}: unknown UPOS {tok.upos!r}"))
            if not 0 <= tok.head <= n:
                out.append(Violation("token-head", f"{where}: head {tok.head} outside 0..{n}"))
        if [t.index for t in sent.tokens] != list(range(1, n + 1)):
            out.append(Violation("sent-indices", f"{where}: token indices not contiguous 1..{n}"))
        seen_preds: set[int] = set()
        for frame in sent.frames:
            if frame.pred_index in seen_preds:
                out.append(Violation(
                    "frame-dup-pred", f"{where}: two frames share predicate {frame.pred_index}"))
            seen_preds.add(frame.pred_index)
            indices = [frame.pred_index] + [a for a, _ in frame.args]
            if any(not 1 <= i <= n for i in indices):
                out.append(Violation("frame-bounds", f"{where}: frame index outside 1..{n}"))
            arg_positions = [a for a, _ in frame.args]
            if len(set(arg_positions)) != len(arg_positions):
                out.append(Violation("frame-dup-arg", f"{where}: repeated argument index"))
            if frame.pred_index in arg_positions:
                out.append(Violation(
                    "frame-reflexive",
                    f"{where}: argument at predicate position {frame.pred_index}"))
            if any(not r or r == "_" for _, r in frame.args):
                out.append(Violation("frame-empty-role", f"{where}: empty role string"))
            if not frame.sense or frame.sense == _SENSELESS_PRED:
                out.append(Violation(
                    "frame-bad-sense", f"{where}: sense must be non-empty and not the "
                    f"reserved marker {_SENSELESS_PRED!r}"))
        yield from out


def _check(sentences, first: int) -> None:
    """Raise the first violation of ``sentences``, numbered from ``first``."""
    violation = next(_violations(sentences, first), None)
    if violation is not None:
        raise CorpusError(f"{violation.code}: {violation.message}")


# Sentences are parsed in batches of this many blocks: the token lines of a
# batch are split and converted a column at a time, and a reader holds the
# lines and sentences of one batch.  A batch bounds the cells held at once;
# with 256 blocks the cells of small corpora, freed among the kept strings,
# left the heap 0.6 MB larger through training.
_BATCH_BLOCKS = 32


def _is_int(text: str) -> bool:
    try:
        int(text)
    except ValueError:
        return False
    return True


def _first_row_error(lines, blocks, require_pred, first) -> tuple[int, CorpusError]:
    """The first malformed token line of ``blocks``: its block's position in
    ``blocks`` and its error, naming the line by its number in the file,
    ``lines[0]`` being line ``first + 1``.

    Checks one line at a time, in order, and one line's checks in the order
    columns, width, ID, HEAD.  Called only after a bulk check of
    :func:`_parse_blocks` failed, so some line fails.
    """
    for k, (start, end) in enumerate(blocks):
        ncols = None
        for lineno, line in enumerate(lines[start:end], start=first + start + 1):
            if line.startswith("#"):
                continue
            fields = line.split("\t")
            if len(fields) < 11 and require_pred:
                error = f"expected ≥11 columns, got {len(fields)}"
            elif len(fields) < 10:
                error = f"expected ≥10 columns, got {len(fields)}"
            elif ncols is not None and len(fields) != ncols:
                error = (f"expected {ncols} columns like the rest of the sentence, "
                         f"got {len(fields)}")
            elif "-" in fields[0] or "." in fields[0]:
                error = f"multiword-token or empty-node ID {fields[0]!r} is not supported"
            elif not _is_int(fields[0]):
                error = f"token ID {fields[0]!r} is not an integer"
            elif not _is_int(fields[6]):
                error = f"HEAD {fields[6]!r} is not an integer"
            else:
                ncols = len(fields)
                continue
            return k, CorpusError(f"line {lineno}: {error}")
    raise AssertionError("a bulk check failed on well-formed token lines")


def _token_columns(rows, starts, require_pred):
    """The columns of token rows, IDs and heads as ints, or None when a row
    is malformed: too few columns, a width unlike the rest of its sentence
    (``starts`` holds each sentence's first row), an ID with "-" or ".",
    or an ID or head that is not an integer."""
    widths = list(map(len, rows))
    changes = compress(count(1), map(operator.ne, widths, widths[1:]))
    if min(widths) < (11 if require_pred else 10) or not set(changes) <= set(starts):
        return None
    columns = list(zip(*rows))
    id_text = "".join(columns[0])
    if "-" in id_text or "." in id_text:
        return None
    try:
        columns[0] = list(map(int, columns[0]))
        columns[6] = list(map(int, columns[6]))
    except ValueError:
        return None
    return columns


def _parse_blocks(lines, blocks, words, default_lang, require_pred, first) -> list[Sentence]:
    """The sentences of ``blocks``, ``(start, end)`` ranges of ``lines``
    without blank lines, ``lines[0]`` being line ``first + 1`` of the file.
    A block of comments only is a sentence without tokens when
    ``require_pred`` is false, so an empty translation keeps its place, and
    no sentence otherwise.

    The token lines are split once and converted a column at a time.  When
    a bulk check fails, the first bad line is found line by line and the
    blocks before it are parsed first, so the error raised is the one a
    line-by-line parse meets first, with the same line and the same text.
    Every kept string is the one ``words`` holds for its value.
    """
    toklines: list[str] = []
    spans = []  # per sentence: first line, comments, its rows toklines[a:b]
    for start, end in blocks:
        block = lines[start:end]
        comments = [line for line in block if line[0] == "#"]
        a = len(toklines)
        toklines.extend([line for line in block if line[0] != "#"] if comments else block)
        if len(toklines) > a or not require_pred:
            spans.append((start, comments, a, len(toklines)))
    if not spans:
        return []
    rows = list(map(str.split, toklines, repeat("\t")))
    starts = [a for _, _, a, _ in spans]
    # a batch of comment blocks only has no token lines to check
    columns = _token_columns(rows, starts, require_pred) if rows else [[]] * 10
    if columns is None:
        k, error = _first_row_error(lines, blocks, require_pred, first)
        _parse_blocks(lines, blocks[:k], words, default_lang, require_pred, first)
        raise error

    share = words.setdefault
    index, head = columns[0], columns[6]
    form, lemma, upos, deprel, misc = (
        map(share, columns[c], columns[c]) for c in (1, 2, 3, 7, 9))
    # tuple.__new__ builds each Token without running its Python-level __new__
    tokens = tuple(map(tuple.__new__, repeat(Token),
                       zip(index, form, lemma, upos, head, deprel, misc)))
    # a 10-column row has no PRED cell: it is no predicate
    pred_cells = (columns[10] if len(columns) > 10
                  else [row[10] if len(row) > 10 else "_" for row in rows])

    sentences = []
    for start, comments, a, b in spans:
        preds = pred_cells[a:b]
        n_preds = b - a - preds.count("_")
        n_args = max(len(rows[a]) - 11, 0) if b > a else 0
        if n_preds != n_args:
            raise CorpusError(
                f"line {first + start + 1}: sentence has {n_preds} predicates but "
                f"{n_args} ARG columns")
        frames = []
        if n_preds:
            # a sentence is a few rows: comprehensions beat chains of C calls here
            sentence_rows = rows[a:b]
            positions = [i for i, cell in enumerate(preds) if cell != "_"]
            for col, pos in enumerate(positions, start=11):
                sense = preds[pos]
                if sense == _SENSELESS_PRED:
                    sense = "_"
                args = tuple([(index[a + i], share(row[col], row[col]))
                              for i, row in enumerate(sentence_rows) if row[col] != "_"])
                frames.append(PredicateFrame(pred_index=index[a + pos],
                                             sense=share(sense, sense), args=args))

        lang = ""
        sent_id = ""
        extra: list[str] = []
        for comment in comments:
            m = _LANG_RE.match(comment)
            if m:
                lang = m.group(1)
                continue
            m = _SENT_ID_RE.match(comment)
            if m:
                sent_id = m.group(1)
                continue
            extra.append(comment)
        if not lang:
            if default_lang is None:
                raise CorpusError(
                    f"line {first + start + 1}: sentence has no '# lang = XX' comment and no "
                    f"default language was given")
            lang = default_lang
        sentences.append(Sentence(tokens=tokens[a:b], lang=lang, sent_id=sent_id,
                                  frames=tuple(frames), comments=tuple(extra)))
    return sentences


def _line_batches(lines: Iterable[str]):
    """The blocks of ``lines`` (runs of lines between blank, that is
    whitespace-only, lines) in batches of :data:`_BATCH_BLOCKS`: each batch
    as ``(first, held, blocks)``, ``held`` being its lines without their
    "\\n", from line ``first + 1`` of the file on, and ``blocks`` the
    ``(start, end)`` ranges of ``held`` its blocks span."""
    held: list[str] = []
    blocks: list[tuple[int, int]] = []
    first = 0
    start = -1  # where in held the open block starts, if one is open
    for line in lines:
        if line.strip():
            if start < 0:
                start = len(held)
            held.append(line.rstrip("\n"))
            continue
        if start >= 0:
            blocks.append((start, len(held)))
            start = -1
            if len(blocks) == _BATCH_BLOCKS:
                yield first, held, blocks
                first += len(held)
                held, blocks = [], []
        held.append("")
    if start >= 0:
        blocks.append((start, len(held)))
    if blocks:
        yield first, held, blocks


def iter_srl_corpus(lines: Iterable[str], default_lang: str | None = None,
                    require_pred: bool = True) -> Iterator[Sentence]:
    """The sentences of an SRL corpus, read from ``lines`` one batch of
    :data:`_BATCH_BLOCKS` blocks at a time: each batch is parsed and
    validated before its first sentence is yielded, and is not held after
    its last.

    ``lines`` is any iterable of lines, with or without their "\\n", such
    as a file opened in text mode.  Errors name the line by its number in
    ``lines`` and the sentence by its number in the corpus, as a parse of
    the whole text would; a fault in a later batch is found only when that
    batch is read.  ``default_lang`` and ``require_pred`` are those of
    :func:`parse_srl_corpus`.
    """
    words: dict[str, str] = {}  # one shared str per distinct kept value
    number = 1  # of the batch's first sentence
    for first, held, blocks in _line_batches(lines):
        sentences = _parse_blocks(held, blocks, words, default_lang, require_pred, first)
        _check(sentences, number)
        number += len(sentences)
        yield from sentences


def parse_srl_corpus(data: bytes | str, default_lang: str | None = None,
                     require_pred: bool = True) -> Corpus:
    """Parse an SRL corpus file into a validated :class:`Corpus`: the
    sentences :func:`iter_srl_corpus` reads from its lines.

    ``default_lang`` fills in the language for sentences without a
    "# lang" comment.  With ``require_pred=False``, bare 10-column
    CoNLL-U token lines are accepted (used for translation files that
    carry no annotation).
    """
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    lines = data.split("\n")
    if "\r" in data:
        lines = [line.rstrip("\r") for line in lines]
    return Corpus.from_sentences(iter_srl_corpus(lines, default_lang, require_pred))


def write_srl_corpus(corpus: Corpus) -> bytes:
    """Serialize a corpus to its canonical byte form.

    Canonical form: "# sent_id" then "# lang" comments, other comments
    verbatim, token lines with unparsed CoNLL-U columns as "_", frames
    ordered by predicate index, one blank line after every sentence.
    parse(write(c)) structurally equals c for every valid corpus.
    """
    blocks: list[str] = []
    for sent in corpus.sentences:
        lines: list[str] = []
        if sent.sent_id:
            lines.append(f"# sent_id = {sent.sent_id}")
        if sent.lang:
            lines.append(f"# lang = {sent.lang}")
        lines.extend(sent.comments)
        frames = sorted(sent.frames, key=lambda f: f.pred_index)
        index = [tok.index for tok in sent.tokens]
        pred_of = {f.pred_index: f.sense if f.sense != "_" else _SENSELESS_PRED
                   for f in frames}
        # one column per frame, each looked up in one dict per frame
        columns = [map(_TOKEN_COLUMNS.__mod__, sent.tokens),
                   map(pred_of.get, index, repeat("_"))]
        columns += [map(dict(f.args).get, index, repeat("_")) for f in frames]
        lines += map("\t".join, zip(*columns))
        blocks.append("\n".join(lines) + "\n\n")
    return "".join(blocks).encode("utf-8")


def corpus_stats(sentences: Iterable[Sentence]) -> CorpusStats:
    """Count sentences, predicates and arguments over any iterable of
    sentences, read once."""
    roles: Counter[str] = Counter()
    n_sentences = predicates = 0
    for sent in sentences:
        n_sentences += 1
        predicates += len(sent.frames)
        for frame in sent.frames:
            roles.update(role for _, role in frame.args)
    return CorpusStats(
        sentences=n_sentences,
        predicates=predicates,
        arguments=sum(roles.values()),
        roles=dict(sorted(roles.items())),
    )
