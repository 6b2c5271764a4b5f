"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the criterion
checklist.  Tolerances are fixed here, not configurable.
"""

import itertools
import time

import numpy as np

from xsrl.alignment import ibm1_train, read_parallel_corpus
from xsrl.cli import main as cli_main
from xsrl.corpus import Corpus, PredicateFrame, Sentence, Token, parse_srl_corpus
from xsrl.eval import parse_report, srl_f1
from xsrl.model import (
    BASIC,
    OUTSIDE,
    PGN,
    ModelConfig,
    Vocabulary,
    crf,
    gradient_check,
    init_model,
    pgn_params,
    predict,
    train,
)
from xsrl.model import lstm
from xsrl.postag import fit_pos_emission
from xsrl.projection import project_corpus

from conftest import (DATA, alignment_table, assert_frozen_pgn_equals_basic, freeze_onto,
                      token_f1)
from test_projection import oracle_project, project_one, random_case


def ok(line):
    print(f"PASS  {line}")


# 1 ---------------------------------------------------------------------


def test_criterion_1_crf_oracle_equivalence():
    """Each instance runs as training and prediction run the CRF: a padded
    batch of one, with random emissions and labels past its length."""
    rng = np.random.default_rng(101)
    # the padding and the gold path draw from their own stream, so the
    # instances (n, k, o, trans) depend on seed 101 alone
    pad_rng = np.random.default_rng(102)
    steps = 6
    started = time.time()
    for _ in range(500):
        n = int(rng.integers(1, 6))
        k = int(rng.integers(1, 5))
        o = rng.normal(size=(n, k))
        trans = rng.normal(size=(k + 2, k + 2))
        paths = np.array(list(itertools.product(range(k), repeat=n)))
        scores = o[np.arange(n), paths].sum(axis=1)
        scores += trans[k, paths[:, 0]]
        for t in range(1, n):
            scores += trans[paths[:, t - 1], paths[:, t]]
        scores += trans[paths[:, -1], k + 1]
        m = scores.max()
        brute_logz = m + np.log(np.exp(scores - m).sum())
        gold = int(pad_rng.integers(len(paths)))
        padded = pad_rng.normal(size=(steps, 1, k))
        padded[:n, 0] = o
        labels = pad_rng.integers(k, size=(steps, 1))
        labels[:n, 0] = paths[gold]
        lengths = np.array([n])
        loss, _, _ = crf.nll_gradients(padded, trans, labels, lengths)
        assert abs(loss - (brute_logz - scores[gold])) < 1e-8
        assert crf.viterbi(padded, trans, lengths) == [list(paths[int(np.argmax(scores))])]
    elapsed = time.time() - started
    assert elapsed < 10.0
    ok(f"criterion 1: CRF loss within 1e-8 of brute-force log Z minus the gold "
       f"score, and Viterbi exact, on 500 random padded instances in {elapsed:.1f}s")


# 2 ---------------------------------------------------------------------


def _grad_corpus():
    tokens = tuple(Token(i + 1, f, f, "NOUN") for i, f in enumerate("abc"))
    sentences = [
        Sentence(tokens=tokens, lang="EN",
                 frames=(PredicateFrame(2, "x.01", ((1, "A0"), (3, "A1"))),)),
        Sentence(tokens=tokens, lang="DE",
                 frames=(PredicateFrame(1, "y.01", ((2, "A1"),)),)),
    ]
    return Corpus.from_sentences(sentences)


def test_criterion_2_gradient_check(monkeypatch):
    """Where a right-to-left partner can run, it computes that direction's
    gradients during the check, as it does in training."""
    posted = []
    post = lstm.Partner._post

    def recording_post(partner, op, *args):
        posted.append(op)
        return post(partner, op, *args)

    monkeypatch.setattr(lstm.Partner, "_post", recording_post)
    started = time.time()
    corpus = _grad_corpus()
    vocab = Vocabulary.from_corpus(corpus)
    first = Corpus(corpus.sentences[:1])
    worst = 0.0
    for variant in (BASIC, PGN):
        for layers in (1, 3):
            config = ModelConfig(word_dim=8, pos_dim=4, pred_dim=4, lang_dim=4,
                                 hidden=8, layers=layers, variant=variant)
            model = init_model(config, vocab, seed=17)
            posted.clear()
            error = gradient_check(model, first, samples=220)
            assert error < 1e-4, (variant, layers, error)
            assert (lstm._BACKWARD in posted) == lstm._partner_available()
            worst = max(worst, error)
    elapsed = time.time() - started
    assert elapsed < 60.0
    where = "a partner process" if lstm._partner_available() else "this process"
    ok(f"criterion 2: analytic vs central-difference gradients, max relative "
       f"error {worst:.2e} < 1e-4 over BASIC/PGN x layers 1/3, right-to-left "
       f"direction in {where}, in {elapsed:.1f}s")


# 3 ---------------------------------------------------------------------


def test_criterion_3_pgn_algebra():
    rng = np.random.default_rng(33)
    for _ in range(100):
        rows = int(rng.integers(1, 60))
        dim = int(rng.integers(1, 8))
        w = rng.normal(size=(rows, dim))
        e1, e2 = rng.normal(size=dim), rng.normal(size=dim)
        a, b = float(rng.normal()), float(rng.normal())
        lhs = pgn_params(w, a * e1 + b * e2)
        rhs = a * pgn_params(w, e1) + b * pgn_params(w, e2)
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    corpus = _grad_corpus()
    vocab = Vocabulary.from_corpus(corpus)
    basic = init_model(
        ModelConfig(word_dim=8, pos_dim=4, pred_dim=4, hidden=8, layers=3,
                    variant=BASIC), vocab, seed=2)
    frozen = freeze_onto(basic, init_model(
        ModelConfig(word_dim=8, pos_dim=4, pred_dim=4, lang_dim=1, hidden=8,
                    layers=3, variant=PGN), vocab, seed=3))

    rng = np.random.default_rng(4)
    label_rng = np.random.default_rng(5)
    probes = []
    for _ in range(20):
        n = int(rng.integers(1, 7))
        tokens = tuple(Token(i + 1, f"w{rng.integers(6)}", "_", "NOUN")
                       for i in range(n))
        labels = tuple(vocab.labels[i] for i in label_rng.integers(len(vocab.labels), size=n))
        # gold labels at every token, the predicate's own included
        args = tuple((i, label) for i, label in enumerate(labels, start=1) if label != OUTSIDE)
        frame = PredicateFrame(int(rng.integers(1, n + 1)), "p.01", args)
        probes.append(Sentence(tokens=tokens, lang="EN", frames=(frame,)))
    assert_frozen_pgn_equals_basic(basic, frozen, Corpus(tuple(probes)))
    for probe in probes:
        assert_frozen_pgn_equals_basic(basic, frozen, Corpus((probe,)))
    ok("criterion 3: generation linearity to 1e-12 on 100 draws; frozen "
       "single-language generator matches BASIC bit-for-bit (loss, gradients, "
       "predicted frames) on 20 probes, as one batch and one by one")


# 4 ---------------------------------------------------------------------


def test_criterion_4_projection_oracle():
    from xsrl.postag import PosDistribution
    from xsrl.corpus import UNIVERSAL_TAGS

    # fixed scenarios first: one-to-one; predicate beats argument; higher
    # confidence argument wins
    tagset = tuple(sorted(UNIVERSAL_TAGS))

    def one_tag(words_tags):
        dist = {}
        for word, tag in words_tags.items():
            vec = np.zeros(len(tagset))
            vec[tagset.index(tag)] = 1.0
            dist[word] = vec
        return PosDistribution(tagset=tagset, dist=dist)

    def sent(forms, upos, frames=(), lang="EN"):
        tokens = tuple(Token(i + 1, f, f, u)
                       for i, (f, u) in enumerate(zip(forms, upos)))
        return Sentence(tokens=tokens, lang=lang, frames=tuple(frames))

    src = sent(["dog", "runs"], ["NOUN", "VERB"],
               [PredicateFrame(2, "run.01", ((1, "A0"),))])
    tgt = sent(["hund", "laeuft"], ["NOUN", "VERB"], lang="DE")
    table = alignment_table({("dog", "hund"): 1.0, ("runs", "laeuft"): 1.0})
    out, _ = project_one(src, tgt, table, one_tag(
        {"hund": "NOUN", "laeuft": "VERB"}), 0.4)
    assert out.frames == (PredicateFrame(2, "run.01", ((1, "A0"),)),)

    src = sent(["dog", "runs"], ["NOUN", "VERB"],
               [PredicateFrame(2, "run.01", ((1, "A0"),))])
    tgt = sent(["wort"], ["VERB"], lang="DE")
    table = alignment_table({("dog", "wort"): 0.9, ("runs", "wort"): 0.5})
    out, _ = project_one(src, tgt, table, one_tag({"wort": "VERB"}), 0.0)
    assert out.frames == (PredicateFrame(1, "run.01", ()),)  # predicate kept

    src = sent(["a", "b", "v"], ["NOUN", "NOUN", "VERB"],
               [PredicateFrame(3, "v.01", ((1, "A0"), (2, "A1")))])
    tgt = sent(["x", "y"], ["NOUN", "VERB"], lang="DE")
    table = alignment_table({("a", "x"): 0.7, ("b", "x"): 0.4, ("v", "y"): 1.0})
    out, _ = project_one(src, tgt, table,
                         one_tag({"x": "NOUN", "y": "VERB"}), 0.0)
    assert out.frames == (PredicateFrame(2, "v.01", ((1, "A0"),)),)

    rng = np.random.default_rng(404)
    for _ in range(1000):
        src, tgt, table, dist, alpha = random_case(rng)
        out, _ = project_one(src, tgt, table, dist, alpha)
        assert out.frames == oracle_project(src, tgt, table, dist, alpha)
    ok("criterion 4: pipeline equals exhaustive rule oracle on 1000 randomized "
       "sentences plus the three fixed collision scenarios")


# 5 ---------------------------------------------------------------------


def test_criterion_5_threshold_monotonicity():
    pairs = read_parallel_corpus((DATA / "bitext.txt").read_text())
    table = ibm1_train(pairs, iterations=10)
    dist = fit_pos_emission(parse_srl_corpus(
        (DATA / "de_tagged.conllu").read_text(), require_pred=False).sentences)
    src = parse_srl_corpus((DATA / "en_srl.conllu").read_text())
    translations = list(parse_srl_corpus(
        (DATA / "de_trans.conllu").read_text(), require_pred=False).sentences)
    kept = []
    for alpha in (0.0, 0.2, 0.4, 0.6, 0.8, 1.0):
        _, stats = project_corpus(src, translations, table, dist, alpha)
        kept.append((stats.frames_kept, stats.args_kept))
        if alpha == 0.0:
            assert stats.frames_kept == stats.frames_in - stats.frames_dropped_collision
            assert stats.frames_dropped_threshold == 0
    assert all(a[0] >= b[0] and a[1] >= b[1] for a, b in zip(kept, kept[1:]))
    ok(f"criterion 5: frames/args kept non-increasing over alpha grid "
       f"{[k[0] for k in kept]}; alpha=0 keeps all collision survivors")


# 6 ---------------------------------------------------------------------


def test_criterion_6_ibm1_properties():
    pairs = read_parallel_corpus((DATA / "bitext.txt").read_text())
    log = []
    table = ibm1_train(pairs, iterations=10, log=log)
    assert all(later >= earlier - 1e-9 for earlier, later in zip(log, log[1:]))
    sums = {}
    for (e, _), p in table.probs.items():
        sums[e] = sums.get(e, 0.0) + p
    for e, total in sums.items():
        assert abs(total - 1.0) < 1e-9, e

    from xsrl.alignment import ParallelPair
    degenerate = ibm1_train([ParallelPair(("a",), ("x",))] * 10, iterations=5)
    renormalized = (degenerate.probs[("a", "x")]
                    / (1.0 - degenerate.null_mass("a")))
    assert abs(renormalized - 1.0) < 1e-12
    ok("criterion 6: EM log-likelihood non-decreasing over 10 iterations, "
       "per-source normalization within 1e-9, degenerate pair converges to 1")


# 7 ---------------------------------------------------------------------


def test_criterion_7_overfit_sanity():
    corpus = parse_srl_corpus((DATA / "en_srl.conllu").read_text())
    config = ModelConfig(word_dim=32, pos_dim=16, pred_dim=16, hidden=64,
                         layers=1, variant=BASIC, learning_rate=0.004,
                         batch_size=10, epochs=120)
    started = time.time()
    model, losses = train(corpus, config, seed=42)
    elapsed = time.time() - started
    assert config.epochs <= 200 and elapsed < 300.0
    f1 = token_f1(model, corpus)
    assert f1 >= 0.99

    model2, losses2 = train(corpus, config, seed=42)
    assert losses == losses2
    assert all(np.array_equal(model.params[k], model2.params[k])
               for k in model.params)
    ok(f"criterion 7: BASIC overfit to token F1 {f1:.3f} >= 0.99 in "
       f"{elapsed:.0f}s/{config.epochs} epochs; rerun bit-identical")


# 8 ---------------------------------------------------------------------


def _divergent_corpus(rng, lang, count, flipped):
    nouns = [f"n{i}" for i in range(6)]
    verbs = [f"v{i}" for i in range(3)]
    sentences = []
    for k in range(count):
        a, b = rng.choice(6, size=2, replace=False)
        v = int(rng.integers(3))
        tokens = (Token(1, nouns[a], upos="NOUN"),
                  Token(2, verbs[v], upos="VERB"),
                  Token(3, nouns[b], upos="NOUN"))
        args = ((1, "A1"), (3, "A0")) if flipped else ((1, "A0"), (3, "A1"))
        sentences.append(Sentence(
            tokens=tokens, lang=lang, sent_id=f"{lang}-{k}",
            frames=(PredicateFrame(2, f"{verbs[v]}.01", args),)))
    return sentences


def test_criterion_8_pgn_directional():
    rng = np.random.default_rng(88)
    train_corpus = Corpus.from_sentences(
        _divergent_corpus(rng, "AA", 40, False)
        + _divergent_corpus(rng, "BB", 40, True))
    dev_corpus = Corpus.from_sentences(
        _divergent_corpus(rng, "AA", 15, False)
        + _divergent_corpus(rng, "BB", 15, True))

    def dev_f1(variant, seed):
        config = ModelConfig(word_dim=16, pos_dim=8, pred_dim=8, lang_dim=8,
                             hidden=16, layers=1, variant=variant,
                             learning_rate=0.01, batch_size=10, epochs=40)
        model, _ = train(train_corpus, config, seed=seed)
        return srl_f1(dev_corpus, predict(model, dev_corpus)).f1

    basic_scores = [dev_f1(BASIC, seed) for seed in range(5)]
    pgn_scores = [dev_f1(PGN, seed) for seed in range(5)]
    basic_mean = sum(basic_scores) / 5
    pgn_mean = sum(pgn_scores) / 5
    assert pgn_mean >= basic_mean
    ok(f"criterion 8: mean dev F1 over 5 seeds, language-conditioned "
       f"{pgn_mean:.3f} >= shared-encoder {basic_mean:.3f} on the divergent "
       f"two-language corpus")


# 9 ---------------------------------------------------------------------


def test_criterion_9_metric_correctness():
    from test_eval import _random_pair, naive_confusion

    rng = np.random.default_rng(99)
    for _ in range(200):
        gold, pred = _random_pair(rng)
        report = srl_f1(gold, pred)
        assert (report.precision, report.recall, report.f1) == naive_confusion(
            gold, pred)
        assert sum(s.support for s in report.per_role.values()) == report.gold_args
        assert sum(s.support
                   for s in report.per_distance.values()) == report.gold_args
    ok("criterion 9: micro scores equal the pooled-confusion oracle on 200 "
       "random pairs; role and distance supports partition gold counts")


# 10 --------------------------------------------------------------------


def test_criterion_10_end_to_end_pipeline(tmp_path):
    started = time.time()

    def pipeline(workdir):
        workdir.mkdir(exist_ok=True)
        flags = ["--variant", "pgn", "--word-dim", "12", "--pos-dim", "6",
                 "--pred-dim", "6", "--lang-dim", "4", "--hidden", "16",
                 "--layers", "1", "--epochs", "25", "--batch-size", "20",
                 "--learning-rate", "0.01"]
        steps = [
            ["align-train", "--parallel", DATA / "bitext.txt",
             "--iterations", "10", "--out", workdir / "table.tsv"],
            ["fit-pos", "--tagged", DATA / "de_tagged.conllu",
             "--out", workdir / "pos.tsv"],
            ["project", "--src", DATA / "en_srl.conllu",
             "--translations", DATA / "de_trans.conllu",
             "--table", workdir / "table.tsv", "--posdist", workdir / "pos.tsv",
             "--out", workdir / "projected.conllu",
             "--stats", workdir / "projected.stats"],
            ["train", "--train-file", workdir / "projected.conllu",
             "--seed", "42", "--out", workdir / "model.bin",
             "--log", workdir / "train.log", *flags],
            ["predict", "--model", workdir / "model.bin",
             "--input", DATA / "de_dev.conllu", "--out", workdir / "pred.conllu"],
            ["eval", "--gold", DATA / "de_dev.conllu",
             "--pred", workdir / "pred.conllu", "--out", workdir / "report.txt"],
        ]
        for step in steps:
            assert cli_main([str(s) for s in step]) == 0, step

    pipeline(tmp_path / "run1")
    pipeline(tmp_path / "run2")
    elapsed = time.time() - started
    assert elapsed < 600.0

    projected = parse_srl_corpus((tmp_path / "run1" / "projected.conllu").read_text())
    assert sum(len(s.frames) for s in projected.sentences) > 0
    stats = dict(line.split("\t") for line in
                 (tmp_path / "run1" / "projected.stats").read_text().splitlines())
    assert int(stats["frames_kept"]) > 0
    report = parse_report((tmp_path / "run1" / "report.txt").read_text())
    assert 0.0 <= report.f1 <= 1.0

    for name in ("table.tsv", "pos.tsv", "projected.conllu", "projected.stats",
                 "model.bin", "pred.conllu", "report.txt"):
        first = (tmp_path / "run1" / name).read_bytes()
        second = (tmp_path / "run2" / name).read_bytes()
        assert first == second, name
    ok(f"criterion 10: align->project(alpha=0.4)->train->predict->eval on the "
       f"toy set in {elapsed:.0f}s (dev F1 {report.f1:.3f}); reruns "
       f"byte-identical")
