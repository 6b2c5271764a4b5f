"""Reading, validating and writing dependency-based SRL corpora.

The on-disk format is CoNLL-U extended with predicate/argument columns:
each token line carries the ten CoNLL-U fields, then PRED (the predicate
sense, or "_" for non-predicates), then one ARG column per predicate of
the sentence, predicates ordered left to right.  Sentences are separated
by a single blank line; comment lines start with "#".  A "# lang = XX"
comment supplies the per-sentence language ID.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, field

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

_LANG_RE = re.compile(r"^#\s*lang\s*=\s*(\S+)\s*$")
_SENT_ID_RE = re.compile(r"^#\s*sent_id\s*=\s*(\S+)\s*$")


class CorpusError(ValueError):
    """Raised for malformed corpus files or invalid corpus values."""


@dataclass(frozen=True)
class Violation:
    """One invariant violation found by :func:`validate_corpus`."""

    code: str
    message: str


@dataclass(frozen=True)
class Token:
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

    def __len__(self) -> int:
        return len(self.tokens)


@dataclass(frozen=True)
class Corpus:
    sentences: tuple[Sentence, ...] = ()
    role_inventory: tuple[str, ...] = ()

    @classmethod
    def from_sentences(cls, sentences) -> "Corpus":
        sentences = tuple(sentences)
        roles = sorted({r for s in sentences for f in s.frames for _, r in f.args})
        return cls(sentences=sentences, role_inventory=tuple(roles))


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
    frame-empty-role, frame-bad-sense, corpus-roles.
    """
    out: list[Violation] = []
    for si, sent in enumerate(corpus.sentences):
        where = f"sentence {si}"
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
    expected = tuple(sorted({r for s in corpus.sentences for f in s.frames for _, r in f.args}))
    if tuple(corpus.role_inventory) != expected:
        out.append(Violation("corpus-roles", "role_inventory does not match observed roles"))
    return out


def _check(corpus: Corpus) -> Corpus:
    violations = validate_corpus(corpus)
    if violations:
        first = violations[0]
        raise CorpusError(f"{first.code}: {first.message}")
    return corpus


def _parse_index(text: str, lineno: int) -> int:
    if "-" in text or "." in text:
        raise CorpusError(
            f"line {lineno}: multiword-token or empty-node ID {text!r} is not supported")
    try:
        return int(text)
    except ValueError:
        raise CorpusError(f"line {lineno}: token ID {text!r} is not an integer") from None


def _build_sentence(rows, comments, first_lineno, default_lang, require_pred):
    tokens: list[Token] = []
    pred_cells: list[str] = []
    arg_rows: list[list[str]] = []
    ncols = None
    for lineno, fields in rows:
        if len(fields) < 11 and require_pred:
            raise CorpusError(f"line {lineno}: expected ≥11 columns, got {len(fields)}")
        if len(fields) < 10:
            raise CorpusError(f"line {lineno}: expected ≥10 columns, got {len(fields)}")
        if ncols is None:
            ncols = len(fields)
        elif len(fields) != ncols:
            raise CorpusError(
                f"line {lineno}: expected {ncols} columns like the rest of the sentence, "
                f"got {len(fields)}")
        index = _parse_index(fields[0], lineno)
        try:
            head = int(fields[6])
        except ValueError:
            raise CorpusError(f"line {lineno}: HEAD {fields[6]!r} is not an integer") from None
        tokens.append(Token(
            index=index, form=fields[1], lemma=fields[2], upos=fields[3],
            head=head, deprel=fields[7], misc=fields[9]))
        pred_cells.append(fields[10] if len(fields) > 10 else "_")
        arg_rows.append(list(fields[11:]))

    pred_positions = [i for i, cell in enumerate(pred_cells) if cell != "_"]
    n_args = len(arg_rows[0]) if arg_rows else 0
    if n_args != len(pred_positions):
        raise CorpusError(
            f"line {first_lineno}: sentence has {len(pred_positions)} predicates but "
            f"{n_args} ARG columns")

    frames = []
    for col, pos in enumerate(pred_positions):
        sense = pred_cells[pos]
        if sense == _SENSELESS_PRED:
            sense = "_"
        args = tuple(
            (tokens[row].index, arg_rows[row][col])
            for row in range(len(tokens))
            if arg_rows[row][col] != "_")
        frames.append(PredicateFrame(pred_index=tokens[pos].index, sense=sense, args=args))

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
                f"line {first_lineno}: sentence has no '# lang = XX' comment and no "
                f"default language was given")
        lang = default_lang

    return Sentence(tokens=tuple(tokens), lang=lang, sent_id=sent_id,
                    frames=tuple(frames), comments=tuple(extra))


def parse_srl_corpus(data: bytes | str, default_lang: str | None = None,
                     require_pred: bool = True) -> Corpus:
    """Parse an SRL corpus file into a validated :class:`Corpus`.

    ``default_lang`` fills in the language for sentences without a
    "# lang" comment.  With ``require_pred=False``, bare 10-column
    CoNLL-U token lines are accepted (used for translation files that
    carry no annotation).
    """
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    sentences: list[Sentence] = []
    rows: list[tuple[int, list[str]]] = []
    comments: list[str] = []
    words: dict[str, str] = {}  # one shared str per distinct column value
    first_lineno = 1
    for lineno, line in enumerate(data.split("\n"), start=1):
        line = line.rstrip("\r")
        if not line.strip():
            if rows:
                sentences.append(
                    _build_sentence(rows, comments, first_lineno, default_lang, require_pred))
            rows, comments = [], []
            continue
        if not rows and not comments:
            first_lineno = lineno
        if line.startswith("#"):
            comments.append(line)
            continue
        rows.append((lineno, [words.setdefault(f, f) for f in line.split("\t")]))
    if rows:
        sentences.append(
            _build_sentence(rows, comments, first_lineno, default_lang, require_pred))
    return _check(Corpus.from_sentences(sentences))


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
        pred_of = {f.pred_index: f for f in frames}
        for tok in sent.tokens:
            frame = pred_of.get(tok.index)
            if frame is None:
                pred = "_"
            else:
                pred = frame.sense if frame.sense != "_" else _SENSELESS_PRED
            args = []
            for f in frames:
                role = dict(f.args).get(tok.index, "_")
                args.append(role)
            lines.append("\t".join(
                [str(tok.index), tok.form, tok.lemma, tok.upos, "_", "_",
                 str(tok.head), tok.deprel, "_", tok.misc, pred] + args))
        blocks.append("\n".join(lines) + "\n\n")
    return "".join(blocks).encode("utf-8")


def corpus_stats(corpus: Corpus) -> CorpusStats:
    """Count sentences, predicates and arguments by full traversal."""
    roles: Counter[str] = Counter()
    predicates = 0
    for sent in corpus.sentences:
        predicates += len(sent.frames)
        for frame in sent.frames:
            roles.update(role for _, role in frame.args)
    return CorpusStats(
        sentences=len(corpus.sentences),
        predicates=predicates,
        arguments=sum(roles.values()),
        roles=dict(sorted(roles.items())),
    )
