"""Project source predicate frames onto translated target sentences.

For every SRL-related source word (the predicate and each argument) the
highest-probability target token is chosen from the alignment table, and
the projection confidence is the product of the alignment probability and
the target word's compatibility with the source word's POS tag.  Colliding
projections on one target token are then resolved.

Collision resolution runs in three stages over each sentence, across all
frames:

1. Predicate vs. predicate: the higher-scoring predicate keeps the token;
   a losing predicate removes its whole frame, and the removed frame's
   arguments no longer compete.
2. Predicate vs. argument: arguments landing on a kept predicate's token
   are dropped.
3. Argument vs. argument: the highest-scoring argument per token survives.

Ties everywhere go to the smaller source index, then to the earlier frame
(one source word may serve several frames).  None of this reads the
confidence threshold α, so one pass serves every α: α then cuts the
winners, dropping every projection scoring below it (a score equal to α is
kept); a dropped predicate takes its whole frame with it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .alignment import AlignmentTable, best_target
from .corpus import Corpus, PredicateFrame, Sentence
from .postag import PosDistribution, pos_prob

__all__ = [
    "ProjectionError",
    "SourceError",
    "TranslationError",
    "TranslationCountError",
    "ProjectionStats",
    "project_corpus",
    "sweep_corpus",
]


class ProjectionError(ValueError):
    """Raised for invalid projection inputs."""


class SourceError(ProjectionError):
    """Raised when the source corpus cannot be projected."""


class TranslationError(ProjectionError):
    """Raised when the translations do not fit the source corpus."""


class TranslationCountError(TranslationError):
    """Raised when the translations and the source sentences differ in number."""


@dataclass
class ProjectionStats:
    frames_in: int = 0
    frames_kept: int = 0
    frames_dropped_threshold: int = 0
    frames_dropped_collision: int = 0
    args_in: int = 0
    args_kept: int = 0
    args_dropped_threshold: int = 0
    args_dropped_collision: int = 0

    FIELDS = (
        "frames_in", "frames_kept", "frames_dropped_threshold",
        "frames_dropped_collision", "args_in", "args_kept",
        "args_dropped_threshold", "args_dropped_collision",
    )

    def __add__(self, other: "ProjectionStats") -> "ProjectionStats":
        """The counts of two parts of a corpus, summed field by field."""
        return ProjectionStats(*(getattr(self, f) + getattr(other, f) for f in self.FIELDS))

    def as_lines(self) -> str:
        return "".join(f"{name}\t{getattr(self, name)}\n" for name in self.FIELDS)


def _winners(src: Sentence, tgt: Sentence, table: AlignmentTable, dist: PosDistribution):
    """Place the frames of one source sentence on its translation and resolve
    their collisions.  Returns the winning frames as (score, target index,
    sense, args) and each one's winning arguments as (score, target index,
    role), both in target order, then the numbers of frames, of arguments
    and of winning arguments."""
    frames = src.frames
    tgt_forms = [t.form for t in tgt.tokens]
    if frames and not tgt_forms:
        raise TranslationError("empty target sentence")
    placed: dict[int, tuple[int, float]] = {}  # source index -> (target index, score)
    for frame in frames:
        for i in (frame.pred_index, *(i for i, _ in frame.args)):
            if i not in placed:
                src_tok = src.tokens[i - 1]
                if src_tok.upos == "_":  # no tag to score the target words against
                    raise SourceError(f"token {i} ({src_tok.form!r}) has no POS tag")
                j, a = best_target(table, src_tok.form, tgt_forms)
                p = pos_prob(dist, tgt_forms[j - 1], src_tok.upos)
                if not 0.0 <= a <= 1.0:
                    raise ProjectionError(f"alignment probability out of range: {a}")
                if not 0.0 <= p <= 1.0:
                    raise ProjectionError(f"POS probability out of range: {p}")
                placed[i] = (j, a * p)

    # the best (-score, source index, frame) of each target token wins it
    preds: dict[int, tuple[float, int, int]] = {}  # target index -> winning key
    for fid, frame in enumerate(frames):
        j, score = placed[frame.pred_index]
        key = (-score, frame.pred_index, fid)
        if j not in preds or key < preds[j]:
            preds[j] = key
    won_args: dict[int, list] = {fid: [] for _, _, fid in preds.values()}  # frame -> args
    # the keys of two frames always differ, so only the order within a frame
    # can matter: the first of two equal keys (a source word twice) wins
    args: dict[int, tuple[tuple[float, int, int], str]] = {}  # target -> (key, role)
    for fid in won_args:
        for i, role in frames[fid].args:
            j, score = placed[i]
            key = (-score, i, fid)
            if j not in preds and (j not in args or key < args[j][0]):
                args[j] = (key, role)

    for j, ((neg, _, fid), role) in sorted(args.items()):
        won_args[fid].append((-neg, j, role))
    won = [(-neg, j, frames[fid].sense, won_args[fid])
           for j, (neg, _, fid) in sorted(preds.items())]
    return won, len(frames), sum(len(f.args) for f in frames), len(args)


def _cut(tgt: Sentence, winners: tuple, alpha: float) -> tuple[Sentence, tuple[int, ...]]:
    """``tgt`` with each winning frame whose predicate scores at least
    ``alpha``, holding its winning arguments that score at least ``alpha``,
    and the eight counts of :class:`ProjectionStats`, in field order."""
    won, n_frames, n_args, n_won_args = winners
    out = tuple([PredicateFrame(j, sense, tuple([(k, role) for s, k, role in args if s >= alpha]))
                 for score, j, sense, args in won if score >= alpha])
    n_kept_args = sum(len(frame.args) for frame in out)
    return replace(tgt, frames=out), (
        n_frames, len(out), len(won) - len(out), n_frames - len(won),
        n_args, n_kept_args, n_won_args - n_kept_args, n_args - n_won_args)


def sweep_corpus(src_corpus: Corpus, translations: list[Sentence], table: AlignmentTable,
                 dist: PosDistribution, alphas: list[float], first: int = 1,
                 ) -> list[tuple[Corpus, ProjectionStats]]:
    """Project a whole corpus onto its index-aligned translations at each
    threshold of ``alphas``: every sentence pair is placed once and cut at
    every α.  Returns one (corpus, stats) per α, in order; an input error of
    one sentence pair names the pair by its number, the first pair being
    number ``first`` (a batch of a longer corpus starts later than 1)."""
    for alpha in alphas:
        if not 0.0 <= alpha <= 1.0:
            raise ProjectionError(f"alpha must be in [0,1], got {alpha}")
    if len(translations) != len(src_corpus.sentences):
        raise TranslationCountError(
            f"translation count {len(translations)} != sentence count "
            f"{len(src_corpus.sentences)}")
    sentences: list[list[Sentence]] = [[] for _ in alphas]
    totals = [[0] * len(ProjectionStats.FIELDS) for _ in alphas]
    for number, (src, tgt) in enumerate(zip(src_corpus.sentences, translations), start=first):
        try:
            winners = _winners(src, tgt, table, dist)
        except ProjectionError as exc:
            raise type(exc)(f"sentence {number}: {exc}") from None
        for alpha, out, total in zip(alphas, sentences, totals):
            sent, counts = _cut(tgt, winners, alpha)
            out.append(sent)
            total[:] = map(int.__add__, total, counts)
    return [(Corpus.from_sentences(out), ProjectionStats(*total))
            for out, total in zip(sentences, totals)]


def project_corpus(src_corpus: Corpus, translations: list[Sentence], table: AlignmentTable,
                   dist: PosDistribution, alpha: float = 0.4, first: int = 1,
                   ) -> tuple[Corpus, ProjectionStats]:
    """:func:`sweep_corpus` at the one threshold ``alpha``."""
    return sweep_corpus(src_corpus, translations, table, dist, [alpha], first)[0]
