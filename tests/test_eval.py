import numpy as np
import pytest

from xsrl.corpus import Corpus, PredicateFrame, Sentence, Token
from xsrl.eval import (
    EvalError,
    aggregate_reports,
    format_report,
    parse_buckets,
    parse_report,
    srl_f1,
)

from conftest import ROLES


def corpus_with(frame_args, n=12, pred=3):
    """Single-sentence corpus with the given (arg, role) pairs."""
    tokens = tuple(Token(i + 1, f"w{i}", "_", "NOUN") for i in range(n))
    frames = (PredicateFrame(pred, "p.01", tuple(frame_args)),)
    return Corpus.from_sentences(
        [Sentence(tokens=tokens, lang="EN", frames=frames)])


def test_perfect_prediction():
    gold = corpus_with([(1, "A0"), (5, "A1")])
    report = srl_f1(gold, gold)
    assert (report.precision, report.recall, report.f1) == (1.0, 1.0, 1.0)


def test_empty_prediction_zero_by_convention():
    gold = corpus_with([(1, "A0")])
    pred = corpus_with([])
    report = srl_f1(gold, pred)
    assert (report.precision, report.recall, report.f1) == (0.0, 0.0, 0.0)


def test_half_right_hand_count():
    gold = corpus_with([(1, "A0"), (5, "A1")])
    pred = corpus_with([(1, "A0"), (7, "A2")])
    report = srl_f1(gold, pred)
    assert (report.precision, report.recall, report.f1) == (0.5, 0.5, 0.5)


def test_role_mismatch_is_both_fp_and_fn():
    gold = corpus_with([(1, "A0")])
    pred = corpus_with([(1, "A1")])
    report = srl_f1(gold, pred)
    assert report.f1 == 0.0
    assert report.per_role["A0"].support == 1
    assert report.per_role["A1"].support == 0


def test_predicate_mismatch_errors():
    gold = corpus_with([(1, "A0")], pred=3)
    pred = corpus_with([(1, "A0")], pred=4)
    with pytest.raises(EvalError, match="predicate sets differ"):
        srl_f1(gold, pred)


def test_predicate_mismatch_numbers_sentences_from_1():
    """As every other message does, whichever sentence differs."""
    same = corpus_with([(1, "A0")]).sentences[0]
    moved = corpus_with([(1, "A0")], pred=4).sentences[0]
    for number, pair in ((1, (moved, same)), (2, (same, moved))):
        pred = Corpus.from_sentences(list(pair))
        with pytest.raises(EvalError, match=rf"^sentence {number}: predicate sets differ "
                                            r"\(\[3\] vs \[4\]\)$"):
            srl_f1(Corpus.from_sentences([same, same]), pred)


def test_metric_symmetry_swaps_precision_recall():
    rng = np.random.default_rng(4)
    for _ in range(40):
        gold, pred = _random_pair(rng)
        a = srl_f1(gold, pred)
        b = srl_f1(pred, gold)
        assert a.precision == b.recall and a.recall == b.precision
        assert a.f1 == pytest.approx(b.f1, abs=1e-15)


def _random_pair(rng, n=10):
    tokens = tuple(Token(i + 1, f"w{i}", "_", "NOUN") for i in range(n))
    preds = sorted(int(p) + 1 for p in rng.choice(n, size=2, replace=False))

    def frames():
        out = []
        for p in preds:
            slots = [i for i in range(1, n + 1) if i != p]
            rng.shuffle(slots)
            count = int(rng.integers(0, 4))
            out.append(PredicateFrame(
                p, "p.01",
                tuple(sorted((int(a), ROLES[rng.integers(len(ROLES))])
                             for a in slots[:count]))))
        return tuple(out)

    gold = Corpus.from_sentences([Sentence(tokens=tokens, lang="EN", frames=frames())])
    pred = Corpus.from_sentences([Sentence(tokens=tokens, lang="EN", frames=frames())])
    return gold, pred


def naive_confusion(gold, pred):
    tp = fp = fn = 0
    for gs, ps in zip(gold.sentences, pred.sentences):
        for gf in gs.frames:
            pf = next(f for f in ps.frames if f.pred_index == gf.pred_index)
            for item in set(gf.args) | set(pf.args):
                in_gold, in_pred = item in gf.args, item in pf.args
                if in_gold and in_pred:
                    tp += 1
                elif in_pred:
                    fp += 1
                else:
                    fn += 1
    p = tp / (tp + fp) if tp + fp else 0.0
    r = tp / (tp + fn) if tp + fn else 0.0
    return p, r, 2 * p * r / (p + r) if p + r else 0.0


def test_micro_f1_equals_pooled_confusion_counts():
    rng = np.random.default_rng(21)
    for _ in range(100):
        gold, pred = _random_pair(rng)
        report = srl_f1(gold, pred)
        assert (report.precision, report.recall, report.f1) == naive_confusion(gold, pred)


def test_supports_partition_gold():
    rng = np.random.default_rng(33)
    for _ in range(60):
        gold, pred = _random_pair(rng)
        report = srl_f1(gold, pred)
        assert sum(s.support for s in report.per_role.values()) == report.gold_args
        assert sum(s.support for s in report.per_distance.values()) == report.gold_args


def test_per_role_default_selection():
    gold = corpus_with([(1, "A0"), (2, "A1")])
    report = srl_f1(gold, gold)
    assert set(report.per_role) == {"A0", "A1"}
    assert report.per_role["A0"].f1 == 1.0
    assert "A2" not in report.per_role


def test_single_role_equals_overall():
    gold = corpus_with([(1, "A0"), (5, "A0")])
    pred = corpus_with([(1, "A0"), (6, "A0")])
    report = srl_f1(gold, pred)
    assert report.per_role["A0"].f1 == report.f1


def test_distance_buckets():
    gold = corpus_with([(2, "A0"), (4, "A1")], pred=3)
    table = srl_f1(gold, gold).per_distance
    assert table["1-2"].support == 2
    assert table["3-6"].support == 0
    boundary = corpus_with([(10, "A0")], pred=3)  # distance exactly 7
    assert srl_f1(boundary, boundary).per_distance["7+"].support == 1
    buckets = ((1, 6), (7, None))
    assert srl_f1(boundary, boundary, buckets=buckets).per_distance["7+"].support == 1
    assert srl_f1(boundary, boundary, buckets=buckets).per_distance["1-6"].support == 0


def test_bucket_validation():
    gold = corpus_with([(1, "A0")])
    with pytest.raises(EvalError, match="overlapping"):
        srl_f1(gold, gold, buckets=((1, 3), (3, None)))
    with pytest.raises(EvalError, match="uncovered"):
        srl_f1(gold, gold, buckets=((1, 2), (4, None)))
    with pytest.raises(EvalError, match="cover every distance"):
        srl_f1(gold, gold, buckets=((2, None),))
    assert parse_buckets("1-2,3-6,7+") == ((1, 2), (3, 6), (7, None))


def test_report_round_trip_and_aggregation():
    gold = corpus_with([(1, "A0"), (5, "A1")])
    pred = corpus_with([(1, "A0"), (7, "A2")])
    report = srl_f1(gold, pred)
    parsed = parse_report(format_report(report))
    assert parsed == report
    merged = aggregate_reports([report, srl_f1(gold, gold)])
    assert merged.f1 == pytest.approx((report.f1 + 1.0) / 2)
