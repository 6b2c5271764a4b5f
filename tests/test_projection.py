from dataclasses import dataclass, replace

import numpy as np
import pytest

from xsrl.alignment import AlignmentTable, best_target
from xsrl.corpus import Corpus, PredicateFrame, Sentence, Token, UNIVERSAL_TAGS
from xsrl.postag import PosDistribution, pos_prob
from xsrl.projection import (
    ProjectionConfig,
    ProjectionError,
    ProjectionStats,
    SourceError,
    TranslationCountError,
    TranslationError,
    project_corpus,
    project_sentence,
)

TAGS = ("NOUN", "VERB", "ADV")
# candidate kinds of the oracle and of the reference pipeline below
PREDICATE = "predicate"
ARGUMENT = "argument"


def test_config_alpha_bounds():
    ProjectionConfig(alpha=0.0)
    ProjectionConfig(alpha=1.0)
    with pytest.raises(ProjectionError):
        ProjectionConfig(alpha=1.0 + 1e-9)


def sentence(forms, upos, frames=(), lang="EN"):
    tokens = tuple(
        Token(index=i + 1, form=f, lemma=f, upos=u)
        for i, (f, u) in enumerate(zip(forms, upos)))
    return Sentence(tokens=tokens, lang=lang, frames=tuple(frames))


def uniform_pos(words_tags):
    """Distribution putting all mass on one tag per word."""
    tagset = tuple(sorted(UNIVERSAL_TAGS))
    dist = {}
    for word, tag in words_tags.items():
        vec = np.zeros(len(tagset))
        vec[tagset.index(tag)] = 1.0
        dist[word] = vec
    return PosDistribution(tagset=tagset, dist=dist)


def counts(stats):
    """The non-zero fields of a ProjectionStats."""
    return {name: getattr(stats, name) for name in ProjectionStats.FIELDS
            if getattr(stats, name)}


def project(src_words, frames, tgt_words, probs, alpha=0.4):
    """Project ``frames`` over (form, upos) source words onto (form, tag)
    target words, each target word's POS mass on its one tag, so a source
    word of that tag scores its alignment probability."""
    src = sentence([f for f, _ in src_words], [u for _, u in src_words], frames)
    tgt = sentence([f for f, _ in tgt_words], [t for _, t in tgt_words], lang="DE")
    out, stats = project_sentence(src, tgt, AlignmentTable(probs=probs),
                                  uniform_pos(dict(tgt_words)), ProjectionConfig(alpha=alpha))
    return out.frames, counts(stats)


def test_score_is_a_times_p_and_equal_to_alpha_keeps():
    tagset = tuple(sorted(UNIVERSAL_TAGS))
    vec = np.zeros(len(tagset))
    vec[tagset.index("VERB")] = 0.5
    src = sentence(["runs"], ["VERB"], [PredicateFrame(1, "run.01")])
    tgt = sentence(["laeuft"], ["VERB"], lang="DE")
    table = AlignmentTable(probs={("runs", "laeuft"): 0.8})
    dist = PosDistribution(tagset=tagset, dist={"laeuft": vec})
    out, stats = project_sentence(src, tgt, table, dist, ProjectionConfig(alpha=0.8 * 0.5))
    assert out.frames == (PredicateFrame(1, "run.01"),)
    assert counts(stats) == {"frames_in": 1, "frames_kept": 1}
    out, stats = project_sentence(src, tgt, table, dist,
                                  ProjectionConfig(alpha=np.nextafter(0.4, 1.0)))
    assert out.frames == ()
    assert counts(stats) == {"frames_in": 1, "frames_dropped_threshold": 1}


def test_range_errors():
    frame = PredicateFrame(2, "run.01", ((1, "A0"),))
    with pytest.raises(ProjectionError, match=r"^alignment probability out of range: 1.5$"):
        project([("dog", "NOUN"), ("runs", "VERB")], [frame],
                [("hund", "NOUN"), ("laeuft", "VERB")], {("runs", "laeuft"): 1.5})
    tagset = tuple(sorted(UNIVERSAL_TAGS))
    src = sentence(["dog", "runs"], ["NOUN", "VERB"], [frame])
    tgt = sentence(["hund"], ["NOUN"], lang="DE")
    dist = PosDistribution(tagset=tagset, dist={"hund": np.full(len(tagset), -0.1)})
    with pytest.raises(ProjectionError, match=r"^POS probability out of range: -0.1$"):
        project_sentence(src, tgt, AlignmentTable(probs={("runs", "hund"): 0.5}), dist,
                         ProjectionConfig())


def test_one_to_one_projection():
    frames, stats = project(
        [("dog", "NOUN"), ("runs", "VERB")], [PredicateFrame(2, "run.01", ((1, "A0"),))],
        [("hund", "NOUN"), ("laeuft", "VERB")], {("dog", "hund"): 1.0, ("runs", "laeuft"): 1.0})
    assert frames == (PredicateFrame(2, "run.01", ((1, "A0"),)),)
    assert stats == {"frames_in": 1, "frames_kept": 1, "args_in": 1, "args_kept": 1}


def test_unseen_word_floor_zero_filtered():
    # "dog" is not in the table: it scores the table's floor, 0
    frames, stats = project(
        [("dog", "NOUN"), ("runs", "VERB")], [PredicateFrame(2, "run.01", ((1, "A0"),))],
        [("hund", "NOUN"), ("laeuft", "VERB")], {("runs", "laeuft"): 1.0})
    assert frames == (PredicateFrame(2, "run.01"),)
    assert stats == {"frames_in": 1, "frames_kept": 1, "args_in": 1,
                     "args_dropped_threshold": 1}


def test_scores_equal_independent_recomputation():
    rng = np.random.default_rng(0)
    forms = ["w1", "w2", "w3"]
    tgt_forms = ["u1", "u2", "u3", "u4"]
    table = AlignmentTable(
        probs={(e, f): float(rng.random()) for e in forms for f in tgt_forms},
        floor=0.01)
    tagset = tuple(sorted(UNIVERSAL_TAGS))
    dist = PosDistribution(
        tagset=tagset,
        dist={f: rng.dirichlet(np.ones(len(tagset))) for f in tgt_forms})
    upos = ["NOUN", "VERB", "ADV"]
    tgt = sentence(tgt_forms, ["NOUN"] * 4, lang="DE")
    for i, (form, tag) in enumerate(zip(forms, upos), start=1):
        # each word as the predicate of its own frame: the frame survives
        # at α equal to a·p and falls at the next float above it
        src = sentence(forms, upos, [PredicateFrame(i, "p.01")])
        probs = [table.probs[(form, f)] for f in tgt_forms]
        j = probs.index(max(probs)) + 1
        score = max(probs) * pos_prob(dist, tgt_forms[j - 1], tag)
        out, _ = project_sentence(src, tgt, table, dist, ProjectionConfig(alpha=score))
        assert out.frames == (PredicateFrame(j, "p.01"),)
        out, stats = project_sentence(src, tgt, table, dist,
                                      ProjectionConfig(alpha=np.nextafter(score, 1.0)))
        assert out.frames == () and stats.frames_dropped_threshold == 1


def test_predicate_beats_argument():
    # the argument scores higher, but the predicate keeps the token
    frames, stats = project(
        [("a", "VERB"), ("v", "VERB")], [PredicateFrame(2, "x.01", ((1, "A1"),))],
        [("w", "VERB"), ("z", "NOUN")], {("a", "w"): 0.9, ("v", "w"): 0.5}, alpha=0.0)
    assert frames == (PredicateFrame(1, "x.01"),)
    assert stats == {"frames_in": 1, "frames_kept": 1, "args_in": 1,
                     "args_dropped_collision": 1}


def test_argument_collision_higher_confidence_wins():
    frames, stats = project(
        [("a", "NOUN"), ("v", "VERB"), ("b", "NOUN")],
        [PredicateFrame(2, "v.01", ((1, "A0"), (3, "A1")))],
        [("x", "NOUN"), ("y", "VERB")],
        {("a", "x"): 0.4, ("b", "x"): 0.7, ("v", "y"): 1.0})
    assert frames == (PredicateFrame(2, "v.01", ((1, "A1"),)),)
    assert stats == {"frames_in": 1, "frames_kept": 1, "args_in": 2, "args_kept": 1,
                     "args_dropped_collision": 1}


def test_predicate_collision_drops_whole_frame():
    # both predicates land on "p"; the losing frame's argument goes with it
    frames, stats = project(
        [("v1", "VERB"), ("a1", "NOUN"), ("v2", "VERB"), ("a2", "NOUN")],
        [PredicateFrame(1, "one.01", ((2, "A0"),)), PredicateFrame(3, "two.01", ((4, "A1"),))],
        [("p", "VERB"), ("n1", "NOUN"), ("n2", "NOUN")],
        {("v1", "p"): 0.9, ("v2", "p"): 0.8, ("a1", "n1"): 0.8, ("a2", "n2"): 0.99})
    assert frames == (PredicateFrame(1, "one.01", ((2, "A0"),)),)
    assert stats == {"frames_in": 2, "frames_kept": 1, "frames_dropped_collision": 1,
                     "args_in": 2, "args_kept": 1, "args_dropped_collision": 1}


def test_collision_ties_prefer_smaller_source_index():
    words = [("v", "VERB"), ("x", "NOUN"), ("y", "NOUN")]
    frames, stats = project(
        words, [PredicateFrame(1, "v.01", ((3, "A3"), (2, "A2")))],
        [("p", "VERB"), ("n", "NOUN")],
        {("v", "p"): 1.0, ("x", "n"): 0.5, ("y", "n"): 0.5})
    assert frames == (PredicateFrame(1, "v.01", ((2, "A2"),)),)
    assert stats["args_dropped_collision"] == 1
    # one source word arguing in two frames: the earlier frame keeps it
    frames, stats = project(
        [("v", "VERB"), ("x", "NOUN"), ("w", "VERB")],
        [PredicateFrame(1, "v.01", ((2, "A0"),)), PredicateFrame(3, "w.01", ((2, "A1"),))],
        [("p", "VERB"), ("n", "NOUN"), ("q", "VERB")],
        {("v", "p"): 1.0, ("x", "n"): 0.5, ("w", "q"): 1.0})
    assert frames == (PredicateFrame(1, "v.01", ((2, "A0"),)), PredicateFrame(3, "w.01"))
    assert stats == {"frames_in": 2, "frames_kept": 2, "args_in": 2, "args_kept": 1,
                     "args_dropped_collision": 1}


def test_threshold_removes_frame_with_predicate():
    frames, stats = project(
        [("v", "VERB"), ("a", "NOUN")], [PredicateFrame(1, "v.01", ((2, "A0"),))],
        [("p", "VERB"), ("n", "NOUN")], {("v", "p"): 0.39, ("a", "n"): 0.9})
    assert frames == ()
    assert stats == {"frames_in": 1, "frames_dropped_threshold": 1, "args_in": 1,
                     "args_dropped_threshold": 1}


def test_threshold_keeps_frame_drops_weak_arg():
    frames, stats = project(
        [("v", "VERB"), ("a", "NOUN"), ("b", "NOUN")],
        [PredicateFrame(1, "v.01", ((2, "A0"), (3, "A1")))],
        [("p", "VERB"), ("n", "NOUN"), ("m", "NOUN")],
        {("v", "p"): 0.9, ("a", "n"): 0.5, ("b", "m"): 0.2})
    assert frames == (PredicateFrame(1, "v.01", ((2, "A0"),)),)
    assert stats == {"frames_in": 1, "frames_kept": 1, "args_in": 2, "args_kept": 1,
                     "args_dropped_threshold": 1}


def test_alpha_zero_keeps_everything():
    # each target word has no POS mass on its source word's tag: both score 0
    frames, stats = project(
        [("v", "VERB"), ("a", "NOUN")], [PredicateFrame(1, "v.01", ((2, "A0"),))],
        [("p", "NOUN"), ("n", "VERB")], {("v", "p"): 1.0, ("a", "n"): 1.0}, alpha=0.0)
    assert frames == (PredicateFrame(1, "v.01", ((2, "A0"),)),)
    assert stats == {"frames_in": 1, "frames_kept": 1, "args_in": 1, "args_kept": 1}


def test_project_corpus_length_mismatch():
    with pytest.raises(TranslationCountError, match=r"^translation count 1 != sentence count 0$"):
        project_corpus(Corpus(), [sentence(["x"], ["NOUN"], lang="DE")],
                       AlignmentTable(), uniform_pos({}))


def test_project_corpus_names_the_sentence_at_fault():
    """An empty translation is the translations' fault, an untagged source
    predicate or argument the source's; either names its sentence."""
    frame = PredicateFrame(2, "run.01", ((1, "A0"),))
    src = sentence(["dog", "runs"], ["NOUN", "VERB"], [frame])
    tgt = sentence(["hund", "laeuft"], ["NOUN", "VERB"], lang="DE")
    table, dist = AlignmentTable(), uniform_pos({})
    empty = Sentence(tokens=(), lang="DE")
    with pytest.raises(TranslationError, match=r"^sentence 2: empty target sentence$"):
        project_corpus(Corpus((src, src)), [tgt, empty], table, dist)
    untagged = sentence(["dog", "runs"], ["_", "VERB"], [frame])
    with pytest.raises(SourceError, match=r"^sentence 3: token 1 \('dog'\) has no POS tag$"):
        project_corpus(Corpus((src, src, untagged)), [tgt] * 3, table, dist)
    # a source sentence without frames needs neither tags nor a translation
    bare = sentence(["dog"], ["_"])
    out, _ = project_corpus(Corpus((bare,)), [empty], table, dist)
    assert out.sentences == (empty,)


def test_project_empty_corpus():
    out, stats = project_corpus(Corpus(), [], AlignmentTable(), uniform_pos({}))
    assert out.sentences == ()
    assert all(getattr(stats, f) == 0 for f in ProjectionStats.FIELDS)


# --- independent oracle ----------------------------------------------------

def oracle_project(src, tgt, table, dist, alpha):
    """Exhaustive restatement of scoring, collision and threshold rules."""
    tgt_forms = [t.form for t in tgt.tokens]
    rows = []  # (frame_id, kind, src_idx, label, tgt_idx, score)
    for fid, frame in enumerate(src.frames):
        words = [(frame.pred_index, PREDICATE, frame.sense)]
        words += [(a, ARGUMENT, role) for a, role in frame.args]
        for src_idx, kind, label in words:
            tok = src.tokens[src_idx - 1]
            probs = [table.probs.get((tok.form, f), table.floor) for f in tgt_forms]
            best = max(probs)
            tgt_idx = probs.index(best) + 1
            score = best * pos_prob(dist, tgt_forms[tgt_idx - 1], tok.upos)
            rows.append([fid, kind, src_idx, label, tgt_idx, score])

    # stage 1: predicate-vs-predicate per target token
    dead = set()
    preds = [r for r in rows if r[1] == PREDICATE]
    for r in preds:
        rivals = [q for q in preds if q[4] == r[4]]
        winner = sorted(rivals, key=lambda q: (-q[5], q[2], q[0]))[0]
        if r is not winner:
            dead.add(r[0])
    live_preds = [r for r in preds if r[0] not in dead]
    # stage 2: arguments of dead frames vanish; predicate tokens absorb args
    pred_tokens = {r[4] for r in live_preds}
    args = [r for r in rows if r[1] == ARGUMENT and r[0] not in dead
            and r[4] not in pred_tokens]
    # stage 3: argument-vs-argument
    kept_args = []
    for r in args:
        rivals = [q for q in args if q[4] == r[4]]
        winner = sorted(rivals, key=lambda q: (-q[5], q[2], q[0]))[0]
        if r is winner:
            kept_args.append(r)
    # threshold
    final_frames = {}
    for r in live_preds:
        if r[5] >= alpha:
            final_frames[r[0]] = (r[4], r[3], [])
    for r in kept_args:
        if r[0] in final_frames and r[5] >= alpha:
            final_frames[r[0]][2].append((r[4], r[3]))
    frames = [
        PredicateFrame(pred_index=tgt_idx, sense=sense, args=tuple(sorted(args)))
        for tgt_idx, sense, args in final_frames.values()
    ]
    return tuple(sorted(frames, key=lambda f: f.pred_index))


def random_case(rng):
    n_src = int(rng.integers(2, 7))
    n_tgt = int(rng.integers(1, 7))
    src_forms = [f"s{i}" for i in range(n_src)]
    tgt_forms = [f"t{rng.integers(0, 4)}" for _ in range(n_tgt)]
    upos = [TAGS[rng.integers(3)] for _ in range(n_src)]
    frames = []
    n_frames = int(rng.integers(1, 3))
    pred_positions = rng.choice(n_src, size=min(n_frames, n_src), replace=False) + 1
    for pred in sorted(int(p) for p in pred_positions):
        others = [i for i in range(1, n_src + 1) if i != pred]
        rng.shuffle(others)
        count = int(rng.integers(0, min(3, len(others)) + 1))
        args = tuple(sorted((int(a), "A" + str(rng.integers(3))) for a in others[:count]))
        frames.append(PredicateFrame(pred, f"p.{rng.integers(1, 4)}", args))
    src = sentence(src_forms, upos, frames)
    tgt = sentence(tgt_forms, ["NOUN"] * n_tgt, lang="DE")
    table = AlignmentTable(
        probs={(e, f"t{k}"): float(rng.random())
               for e in src_forms for k in range(4) if rng.random() < 0.8},
        floor=float(rng.random()) * 0.05)
    tagset = tuple(sorted(UNIVERSAL_TAGS))
    dist = PosDistribution(
        tagset=tagset,
        dist={f"t{k}": rng.dirichlet(np.ones(len(tagset))) for k in range(4)})
    alpha = float(rng.choice([0.0, 0.1, 0.3, 0.5]))
    return src, tgt, table, dist, alpha


def test_pipeline_matches_oracle_randomized():
    rng = np.random.default_rng(42)
    for _ in range(300):
        src, tgt, table, dist, alpha = random_case(rng)
        out, _ = project_sentence(src, tgt, table, dist, ProjectionConfig(alpha=alpha))
        assert out.frames == oracle_project(src, tgt, table, dist, alpha)


def test_collision_exclusivity_and_frame_atomicity():
    rng = np.random.default_rng(9)
    for _ in range(200):
        src, tgt, table, dist, alpha = random_case(rng)
        out, _ = project_sentence(src, tgt, table, dist, ProjectionConfig(alpha=alpha))
        used = [f.pred_index for f in out.frames]
        used += [a for f in out.frames for a, _ in f.args]
        assert len(used) == len(set(used))  # one surviving candidate per token


def test_stats_partition_in_counts():
    rng = np.random.default_rng(17)
    for _ in range(100):
        src, tgt, table, dist, alpha = random_case(rng)
        _, stats = project_sentence(src, tgt, table, dist, ProjectionConfig(alpha=alpha))
        assert stats.frames_in == (stats.frames_kept + stats.frames_dropped_threshold
                                   + stats.frames_dropped_collision)
        assert stats.args_in == (stats.args_kept + stats.args_dropped_threshold
                                 + stats.args_dropped_collision)


# --- reference: the candidate pipeline that project_sentence replaced ------
# A verbatim copy of the per-candidate implementation (frozen candidate
# objects through scoring, collision and threshold stages); only its entry
# point is renamed.  The one-pass implementation must give the same frames,
# stats and errors.

@dataclass(frozen=True)
class ProjectionCandidate:
    src_index: int
    tgt_index: int
    kind: str  # PREDICATE or ARGUMENT
    label: str  # sense for predicates, role for arguments
    score: float
    frame_id: int


def score_projection(a: float, p: float) -> float:
    """Projection confidence: alignment probability times POS compatibility."""
    if not 0.0 <= a <= 1.0:
        raise ProjectionError(f"alignment probability out of range: {a}")
    if not 0.0 <= p <= 1.0:
        raise ProjectionError(f"POS probability out of range: {p}")
    return a * p


def project_frame(frame: PredicateFrame, src: Sentence, tgt: Sentence,
                  table: AlignmentTable, dist: PosDistribution,
                  frame_id: int = 0) -> list[ProjectionCandidate]:
    """Project one frame's predicate and arguments onto the target sentence.

    Every SRL-related source word yields exactly one candidate: its best
    aligned target token and the confidence score.  Source words must
    carry universal POS tags.
    """
    if not tgt.tokens:
        raise TranslationError("empty target sentence")
    tgt_forms = [t.form for t in tgt.tokens]
    out: list[ProjectionCandidate] = []

    def make(src_index: int, kind: str, label: str) -> ProjectionCandidate:
        src_tok = src.tokens[src_index - 1]
        j, a = best_target(table, src_tok.form, tgt_forms)
        p = pos_prob(dist, tgt_forms[j - 1], src_tok.upos)
        return ProjectionCandidate(
            src_index=src_index, tgt_index=j, kind=kind, label=label,
            score=score_projection(a, p), frame_id=frame_id)

    out.append(make(frame.pred_index, PREDICATE, frame.sense))
    for arg_index, role in frame.args:
        out.append(make(arg_index, ARGUMENT, role))
    return out


def _best(candidates: list[ProjectionCandidate]) -> ProjectionCandidate:
    # score first, then smaller source index; frame order settles exact
    # duplicates (one source word serving several frames)
    return min(candidates, key=lambda c: (-c.score, c.src_index, c.frame_id))


def resolve_collisions(candidates: list[ProjectionCandidate],
                       ) -> tuple[list[ProjectionCandidate],
                                  list[tuple[ProjectionCandidate, str]]]:
    """Resolve same-target collisions across all frames of one sentence.

    Returns (kept, dropped) where each dropped entry carries a reason:
    "lost-predicate-collision", "frame-removed", "predicate-precedence"
    or "lost-argument-collision".
    """
    dropped: list[tuple[ProjectionCandidate, str]] = []

    preds = [c for c in candidates if c.kind == PREDICATE]
    by_tgt: dict[int, list[ProjectionCandidate]] = {}
    for c in preds:
        by_tgt.setdefault(c.tgt_index, []).append(c)
    dead_frames: set[int] = set()
    kept_preds: list[ProjectionCandidate] = []
    for group in by_tgt.values():
        winner = _best(group)
        kept_preds.append(winner)
        for c in group:
            if c is not winner:
                dropped.append((c, "lost-predicate-collision"))
                dead_frames.add(c.frame_id)

    args = [c for c in candidates if c.kind == ARGUMENT]
    live_args: list[ProjectionCandidate] = []
    for c in args:
        if c.frame_id in dead_frames:
            dropped.append((c, "frame-removed"))
        else:
            live_args.append(c)

    pred_targets = {c.tgt_index for c in kept_preds}
    survivors: list[ProjectionCandidate] = []
    for c in live_args:
        if c.tgt_index in pred_targets:
            dropped.append((c, "predicate-precedence"))
        else:
            survivors.append(c)

    arg_by_tgt: dict[int, list[ProjectionCandidate]] = {}
    for c in survivors:
        arg_by_tgt.setdefault(c.tgt_index, []).append(c)
    kept_args: list[ProjectionCandidate] = []
    for group in arg_by_tgt.values():
        winner = _best(group)
        kept_args.append(winner)
        for c in group:
            if c is not winner:
                dropped.append((c, "lost-argument-collision"))

    kept = sorted(kept_preds + kept_args, key=lambda c: (c.frame_id, c.kind != PREDICATE,
                                                         c.src_index))
    return kept, dropped


def apply_threshold(kept: list[ProjectionCandidate], config: ProjectionConfig,
                    ) -> tuple[list[ProjectionCandidate],
                               list[tuple[ProjectionCandidate, str]]]:
    """Remove low-confidence projections (score < alpha; equality keeps).

    A removed predicate takes its whole frame with it; a removed argument
    leaves the rest of its frame untouched.
    """
    dropped: list[tuple[ProjectionCandidate, str]] = []
    dead_frames = {c.frame_id for c in kept
                   if c.kind == PREDICATE and c.score < config.alpha}
    final: list[ProjectionCandidate] = []
    for c in kept:
        if c.frame_id in dead_frames:
            reason = "below-threshold" if c.kind == PREDICATE else "frame-below-threshold"
            dropped.append((c, reason))
        elif c.score < config.alpha:
            dropped.append((c, "below-threshold"))
        else:
            final.append(c)
    return final, dropped


def _frames_from_candidates(candidates: list[ProjectionCandidate],
                            ) -> tuple[PredicateFrame, ...]:
    by_frame: dict[int, dict[str, list[ProjectionCandidate]]] = {}
    for c in candidates:
        slot = by_frame.setdefault(c.frame_id, {PREDICATE: [], ARGUMENT: []})
        slot[c.kind].append(c)
    frames = []
    for _, slot in sorted(by_frame.items()):
        if not slot[PREDICATE]:
            continue  # no orphan arguments: requires a surviving predicate
        pred = slot[PREDICATE][0]
        args = tuple(sorted((c.tgt_index, c.label) for c in slot[ARGUMENT]))
        frames.append(PredicateFrame(pred_index=pred.tgt_index, sense=pred.label, args=args))
    return tuple(sorted(frames, key=lambda f: f.pred_index))


def reference_project_sentence(src: Sentence, tgt: Sentence, table: AlignmentTable,
                               dist: PosDistribution, config: ProjectionConfig,
                               ) -> tuple[Sentence, ProjectionStats]:
    """Project all frames of one source sentence; returns the annotated target."""
    stats = ProjectionStats(
        frames_in=len(src.frames),
        args_in=sum(len(f.args) for f in src.frames))
    candidates: list[ProjectionCandidate] = []
    for frame_id, frame in enumerate(src.frames):
        candidates.extend(project_frame(frame, src, tgt, table, dist, frame_id))
    kept, coll_dropped = resolve_collisions(candidates)
    final, thresh_dropped = apply_threshold(kept, config)

    for c, _ in coll_dropped:
        if c.kind == PREDICATE:
            stats.frames_dropped_collision += 1
        else:
            stats.args_dropped_collision += 1
    for c, _ in thresh_dropped:
        if c.kind == PREDICATE:
            stats.frames_dropped_threshold += 1
        else:
            stats.args_dropped_threshold += 1
    stats.frames_kept = sum(1 for c in final if c.kind == PREDICATE)
    stats.args_kept = sum(1 for c in final if c.kind == ARGUMENT)

    out = replace(tgt, frames=_frames_from_candidates(final))
    return out, stats


def tied_case(rng):
    """A random sentence whose scores often tie: probabilities are drawn
    from a few values, a source word may serve several frames (as
    predicate or argument, twice in one frame too), α often equals a
    score, and some draws fall out of range."""
    n_src = int(rng.integers(1, 7))
    n_tgt = int(rng.integers(0, 5))
    src_forms = [f"s{rng.integers(0, 4)}" for _ in range(n_src)]
    tgt_forms = [f"t{rng.integers(0, 4)}" for _ in range(n_tgt)]
    upos = [TAGS[rng.integers(3)] for _ in range(n_src)]
    values = [0.0, 0.25, 0.5, 1.0]
    if rng.random() < 0.05:
        values.append(float(rng.choice([1.5, -0.25])))
    frames = []
    for _ in range(int(rng.integers(0, 4))):
        count = int(rng.integers(0, 4))
        args = tuple(sorted((int(a), "A" + str(rng.integers(3)))
                            for a in rng.integers(1, n_src + 1, size=count)))
        frames.append(PredicateFrame(int(rng.integers(1, n_src + 1)),
                                     f"p.{rng.integers(1, 4)}", args))
    src = sentence(src_forms, upos, frames)
    tgt = sentence(tgt_forms, ["NOUN"] * n_tgt, lang="DE")
    table = AlignmentTable(
        probs={(f"s{e}", f"t{f}"): float(rng.choice(values))
               for e in range(4) for f in range(4) if rng.random() < 0.7},
        floor=float(rng.choice([0.0, 0.25])))
    tagset = tuple(sorted(UNIVERSAL_TAGS))
    dist = PosDistribution(
        tagset=tagset,
        dist={f"t{k}": rng.choice(values, size=len(tagset)) for k in range(3)})
    alpha = float(rng.choice([0.0, 0.0625, 0.125, 0.25, 0.5, 1.0]))
    return src, tgt, table, dist, alpha


def outcome(project, src, tgt, table, dist, alpha):
    """The projected frames and stats, or the error raised."""
    try:
        out, stats = project(src, tgt, table, dist, ProjectionConfig(alpha=alpha))
    except ProjectionError as exc:
        return type(exc), str(exc)
    return out.frames, stats


@pytest.mark.parametrize("make_case, seed", [(tied_case, 3), (random_case, 5)])
def test_matches_candidate_pipeline_randomized(make_case, seed):
    rng = np.random.default_rng(seed)
    raised = 0
    for _ in range(3000):
        case = make_case(rng)
        expected = outcome(reference_project_sentence, *case)
        assert outcome(project_sentence, *case) == expected
        raised += isinstance(expected[1], str)
    assert make_case is random_case or 0 < raised < 600


@pytest.mark.parametrize("alpha", [0.0, 0.4, 0.8])
def test_matches_candidate_pipeline_on_toy(toy_dir, alpha):
    from xsrl.alignment import ibm1_train, read_parallel_corpus
    from xsrl.corpus import parse_srl_corpus
    from xsrl.postag import fit_pos_emission

    table = ibm1_train(
        read_parallel_corpus((toy_dir / "bitext.txt").read_text()), iterations=10)
    dist = fit_pos_emission(parse_srl_corpus(
        (toy_dir / "de_tagged.conllu").read_text(), require_pred=False))
    src = parse_srl_corpus((toy_dir / "en_srl.conllu").read_text())
    translations = list(parse_srl_corpus(
        (toy_dir / "de_trans.conllu").read_text(), require_pred=False).sentences)
    config = ProjectionConfig(alpha=alpha)
    out, stats = project_corpus(src, translations, table, dist, config)

    totals = dict.fromkeys(ProjectionStats.FIELDS, 0)
    for source, target, projected in zip(src.sentences, translations, out.sentences):
        expected, sentence_stats = reference_project_sentence(source, target, table, dist,
                                                              config)
        assert projected == expected
        assert project_sentence(source, target, table, dist, config) == (
            expected, sentence_stats)
        for name in totals:
            totals[name] += getattr(sentence_stats, name)
    assert {name: getattr(stats, name) for name in ProjectionStats.FIELDS} == totals
    assert stats.frames_dropped_collision > 0


def test_threshold_monotone_over_alpha_toy(toy_dir):
    from xsrl.alignment import ibm1_train, read_parallel_corpus
    from xsrl.corpus import parse_srl_corpus
    from xsrl.postag import fit_pos_emission

    pairs = read_parallel_corpus((toy_dir / "bitext.txt").read_text())
    table = ibm1_train(pairs, iterations=10)
    dist = fit_pos_emission(
        parse_srl_corpus((toy_dir / "de_tagged.conllu").read_text(), require_pred=False))
    src = parse_srl_corpus((toy_dir / "en_srl.conllu").read_text())
    translations = list(parse_srl_corpus(
        (toy_dir / "de_trans.conllu").read_text(), require_pred=False).sentences)
    previous_frames = previous_args = None
    for alpha in (0.0, 0.2, 0.4, 0.6, 0.8, 1.0):
        _, stats = project_corpus(src, translations, table, dist,
                                  ProjectionConfig(alpha=alpha))
        if previous_frames is not None:
            assert stats.frames_kept <= previous_frames
            assert stats.args_kept <= previous_args
        if alpha == 0.0:
            assert stats.frames_kept == stats.frames_in - stats.frames_dropped_collision
        previous_frames, previous_args = stats.frames_kept, stats.args_kept
