"""Project source predicate frames onto translated target sentences.

For every SRL-related source word (the predicate and each argument) the
highest-probability target token is chosen from the alignment table, and
the projection confidence is the product of the alignment probability and
the target word's compatibility with the source word's POS tag.  Colliding
projections on one target token are then resolved, and projections below
the confidence threshold are discarded.

Collision resolution runs in three stages over each sentence, across all
frames:

1. Predicate vs. predicate: the higher-scoring predicate keeps the token;
   a losing predicate removes its whole frame, and the removed frame's
   arguments no longer compete.
2. Predicate vs. argument: arguments landing on a kept predicate's token
   are dropped.
3. Argument vs. argument: the highest-scoring argument per token survives.

Ties everywhere go to the smaller source index, then to the earlier frame
(one source word may serve several frames).  The threshold α then drops
every projection scoring below it (a score equal to α is kept); a dropped
predicate takes its whole frame with it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .alignment import AlignmentTable, best_target
from .corpus import Corpus, PredicateFrame, Sentence
from .postag import PosDistribution, pos_prob

__all__ = [
    "ProjectionError",
    "ProjectionConfig",
    "ProjectionStats",
    "project_sentence",
    "project_corpus",
]


class ProjectionError(ValueError):
    """Raised for invalid projection inputs."""


@dataclass(frozen=True)
class ProjectionConfig:
    alpha: float = 0.4

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise ProjectionError(f"alpha must be in [0,1], got {self.alpha}")


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

    def as_lines(self) -> str:
        return "".join(f"{name}\t{getattr(self, name)}\n" for name in self.FIELDS)


def project_sentence(src: Sentence, tgt: Sentence, table: AlignmentTable,
                     dist: PosDistribution, config: ProjectionConfig,
                     ) -> tuple[Sentence, ProjectionStats]:
    """Project all frames of one source sentence; returns the annotated target.

    Each rule is a filter over the survivors of the one before it, and each
    dropped count is the difference between two consecutive set sizes.
    """
    frames, alpha = src.frames, config.alpha
    tgt_forms = [t.form for t in tgt.tokens]
    if frames and not tgt_forms:
        raise ProjectionError("empty target sentence")
    placed: dict[int, tuple[int, float]] = {}  # source index -> (target index, score)
    for frame in frames:
        for i in (frame.pred_index, *(i for i, _ in frame.args)):
            if i not in placed:
                src_tok = src.tokens[i - 1]
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
    # the keys of two frames always differ, so only the order within a frame
    # can matter: the first of two equal keys (a source word twice) wins
    args: dict[int, tuple[tuple[float, int, int], str]] = {}  # target -> (key, role)
    for fid in {fid for _, _, fid in preds.values()}:
        for i, role in frames[fid].args:
            j, score = placed[i]
            key = (-score, i, fid)
            if j not in preds and (j not in args or key < args[j][0]):
                args[j] = (key, role)

    kept = {fid: (j, frames[fid].sense) for j, (neg, _, fid) in preds.items()
            if -neg >= alpha}
    kept_args: dict[int, list[tuple[int, str]]] = {fid: [] for fid in kept}
    for j, ((neg, _, fid), role) in args.items():
        if fid in kept and -neg >= alpha:
            kept_args[fid].append((j, role))
    out = tuple(sorted((PredicateFrame(j, sense, tuple(sorted(kept_args[fid])))
                        for fid, (j, sense) in kept.items()),
                       key=lambda f: f.pred_index))

    n_frames, n_args = len(frames), sum(len(f.args) for f in frames)
    n_kept_args = sum(map(len, kept_args.values()))
    return replace(tgt, frames=out), ProjectionStats(
        frames_in=n_frames, frames_kept=len(kept),
        frames_dropped_threshold=len(preds) - len(kept),
        frames_dropped_collision=n_frames - len(preds),
        args_in=n_args, args_kept=n_kept_args,
        args_dropped_threshold=len(args) - n_kept_args,
        args_dropped_collision=n_args - len(args))


def project_corpus(src_corpus: Corpus, translations: list[Sentence],
                   table: AlignmentTable, dist: PosDistribution,
                   config: ProjectionConfig | None = None,
                   ) -> tuple[Corpus, ProjectionStats]:
    """Project a whole corpus onto its index-aligned translations."""
    if config is None:
        config = ProjectionConfig()
    if len(translations) != len(src_corpus.sentences):
        raise ProjectionError(
            f"translation count {len(translations)} != sentence count "
            f"{len(src_corpus.sentences)}")
    sentences: list[Sentence] = []
    totals = dict.fromkeys(ProjectionStats.FIELDS, 0)
    for src, tgt in zip(src_corpus.sentences, translations):
        sent, stats = project_sentence(src, tgt, table, dist, config)
        sentences.append(sent)
        for name in totals:
            totals[name] += getattr(stats, name)
    return Corpus.from_sentences(sentences), ProjectionStats(**totals)
