import itertools

import numpy as np
import pytest

from xsrl.model import crf


def brute_force_paths(o, trans):
    """Score every label sequence directly from the definition."""
    n, k = o.shape
    paths = np.array(list(itertools.product(range(k), repeat=n)))
    scores = o[np.arange(n), paths].sum(axis=1)
    scores += trans[k, paths[:, 0]]
    for t in range(1, n):
        scores += trans[paths[:, t - 1], paths[:, t]]
    scores += trans[paths[:, -1], k + 1]
    return paths, scores


def logsumexp(x):
    m = np.max(x)
    return m + np.log(np.exp(x - m).sum())


def test_single_position_two_labels():
    o = np.array([[1.0, -0.5]])
    trans = np.zeros((4, 4))
    trans[2] = [0.3, 0.1, 0.0, 0.0]  # BOS row
    trans[:, 3] = [0.2, 0.7, 0.0, 0.0]  # into EOS
    path_scores = np.array([1.0 + 0.3 + 0.2, -0.5 + 0.1 + 0.7])
    gold, _, _ = crf.nll_gradients(o, trans, [0])
    expected = logsumexp(path_scores) - path_scores[0]
    assert gold == pytest.approx(expected, abs=1e-12)
    assert crf.viterbi(o, trans) == [0]


def test_two_positions_three_labels_enumeration():
    rng = np.random.default_rng(1)
    o = rng.normal(size=(2, 3))
    trans = rng.normal(size=(5, 5))
    _, scores = brute_force_paths(o, trans)
    assert crf.log_partition(o, trans) == pytest.approx(logsumexp(scores), abs=1e-10)


def test_uniform_scores_symmetric_loss():
    n, k = 4, 3
    o = np.zeros((n, k))
    trans = np.zeros((k + 2, k + 2))
    # all k^n paths score identically, so any gold path has probability k^-n
    loss, _, _ = crf.nll_gradients(o, trans, [0, 1, 2, 0])
    assert loss == pytest.approx(n * np.log(k), abs=1e-12)


def test_forward_and_viterbi_match_brute_force():
    rng = np.random.default_rng(6)
    for _ in range(120):
        n = int(rng.integers(1, 6))
        k = int(rng.integers(1, 5))
        o = rng.normal(size=(n, k))
        trans = rng.normal(size=(k + 2, k + 2))
        paths, scores = brute_force_paths(o, trans)
        assert crf.log_partition(o, trans) == pytest.approx(
            logsumexp(scores), abs=1e-8)
        assert crf.viterbi(o, trans) == list(paths[int(np.argmax(scores))])


def test_path_probabilities_sum_to_one():
    rng = np.random.default_rng(8)
    for _ in range(20):
        n, k = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        o = rng.normal(size=(n, k))
        trans = rng.normal(size=(k + 2, k + 2))
        _, scores = brute_force_paths(o, trans)
        logz = crf.log_partition(o, trans)
        assert np.exp(scores - logz).sum() == pytest.approx(1.0, abs=1e-8)


def test_emission_shift_invariance():
    rng = np.random.default_rng(12)
    o = rng.normal(size=(5, 4))
    trans = rng.normal(size=(6, 6))
    assert crf.viterbi(o, trans) == crf.viterbi(o + 3.7, trans)


def test_viterbi_tie_breaks_to_lower_label():
    o = np.zeros((3, 3))
    trans = np.zeros((5, 5))
    assert crf.viterbi(o, trans) == [0, 0, 0]


def test_strong_emissions_dominate_neutral_transitions():
    o = np.array([[9.0, 0.0, 0.0], [0.0, 9.0, 0.0], [0.0, 0.0, 9.0]])
    trans = np.zeros((5, 5))
    assert crf.viterbi(o, trans) == [0, 1, 2]


def test_nll_gradients_match_finite_differences():
    rng = np.random.default_rng(3)
    for _ in range(10):
        n, k = int(rng.integers(1, 5)), int(rng.integers(2, 4))
        o = rng.normal(size=(n, k))
        trans = rng.normal(size=(k + 2, k + 2))
        labels = [int(rng.integers(k)) for _ in range(n)]
        _, d_o, d_trans = crf.nll_gradients(o, trans, labels)
        eps = 1e-6
        for arr, grad in ((o, d_o), (trans, d_trans)):
            flat, gflat = arr.reshape(-1), grad.reshape(-1)
            for c in rng.choice(flat.size, size=min(10, flat.size), replace=False):
                original = flat[c]
                flat[c] = original + eps
                upper, _, _ = crf.nll_gradients(o, trans, labels)
                flat[c] = original - eps
                lower, _, _ = crf.nll_gradients(o, trans, labels)
                flat[c] = original
                numeric = (upper - lower) / (2 * eps)
                assert gflat[c] == pytest.approx(numeric, abs=1e-6)


def test_padded_batch_matches_single_sequences():
    rng = np.random.default_rng(21)
    k = 3
    lengths = np.array([4, 1, 2, 4, 3])
    o = rng.normal(size=(4, len(lengths), k))
    trans = rng.normal(size=(k + 2, k + 2))
    labels = rng.integers(k, size=(4, len(lengths)))
    loss, d_o, d_trans = crf.nll_gradients(o, trans, labels, lengths)
    paths = crf.viterbi(o, trans, lengths)
    logz = crf.log_partition(o, trans, lengths)
    total, summed_trans = 0.0, np.zeros_like(trans)
    for b, n in enumerate(lengths):
        single_loss, single_d_o, single_d_trans = crf.nll_gradients(
            o[:n, b], trans, labels[:n, b])
        total += single_loss
        summed_trans += single_d_trans
        np.testing.assert_allclose(d_o[:n, b], single_d_o, rtol=0, atol=1e-12)
        assert np.all(d_o[n:, b] == 0.0)
        assert paths[b] == crf.viterbi(o[:n, b], trans)
        assert logz[b] == pytest.approx(crf.log_partition(o[:n, b], trans), abs=1e-12)
    assert loss == pytest.approx(total, abs=1e-12)
    np.testing.assert_allclose(d_trans, summed_trans, rtol=0, atol=1e-12)


def reference_forward(o, trans, posteriors=False):
    """The forward recursion before its scores were built in place."""
    steps, batch, k = o.shape
    alphas = np.empty_like(o)
    alphas[0] = o[0] + trans[k, :k]
    post = np.empty((steps, batch, k, k), dtype=o.dtype) if posteriors else None
    for t in range(1, steps):
        scores = alphas[t - 1][:, :, None] + trans[:k, :k]
        m = scores.max(axis=1)
        scores -= m[:, None, :]
        np.exp(scores, out=scores)
        total = scores.sum(axis=1)
        alphas[t] = o[t] + m + np.log(total)
        if posteriors:
            np.divide(scores, total[:, None, :], out=post[t])
    return alphas, post


def reference_nll_gradients(o, trans, labels, lengths):
    """``crf.nll_gradients`` over ``reference_forward`` (batch input only)."""
    lengths = np.asarray(lengths, dtype=np.intp)
    labels = np.asarray(labels, dtype=np.intp)
    steps, batch, k = o.shape
    bos, eos = k, k + 1
    cols = np.arange(batch)
    alphas, post = reference_forward(o, trans, posteriors=True)
    final = crf._final_scores(alphas, trans, lengths)
    logz = crf._lse(final, axis=1)
    path = crf._gold_path(labels, lengths, k)
    loss = float(np.sum(logz - crf._path_scores(o, trans, path)))
    d_o = np.zeros_like(o)
    d_trans = np.zeros_like(trans)
    end = np.exp(final - logz[:, None])
    d_trans[:k, eos] += end.sum(axis=0)
    starts = np.zeros_like(o)
    starts[lengths - 1, cols] = end
    d_alpha = starts[steps - 1]
    for step in range(steps - 1, 0, -1):
        d_o[step] = d_alpha
        post[step] *= d_alpha[:, None, :]
        d_alpha = post[step].sum(axis=2) + starts[step - 1]
    d_o[0] = d_alpha
    d_trans[:k, :k] += post[1:].sum(axis=(0, 1))
    d_trans[bos, :k] += d_alpha.sum(axis=0)
    (t, b, y), (_, src, dst) = path
    d_o[t, b, y] -= 1.0
    d_trans -= np.bincount(src * (k + 2) + dst,
                           minlength=(k + 2) ** 2).reshape(k + 2, k + 2)
    return loss, d_o, d_trans


@pytest.mark.parametrize("seed", range(6))
def test_nll_gradients_match_the_reference_bit_for_bit(seed):
    rng = np.random.default_rng(100 + seed)
    steps, batch, k = int(rng.integers(1, 12)), int(rng.integers(1, 25)), int(rng.integers(1, 7))
    lengths = rng.integers(1, steps + 1, size=batch)
    lengths[0] = steps
    o = rng.normal(size=(steps, batch, k)) * 3
    trans = rng.normal(size=(k + 2, k + 2))
    labels = rng.integers(0, k, size=(steps, batch))
    loss, d_o, d_trans = crf.nll_gradients(o, trans, labels, lengths)
    ref_loss, ref_d_o, ref_d_trans = reference_nll_gradients(o, trans, labels, lengths)
    assert loss == ref_loss
    assert np.array_equal(d_o, ref_d_o) and np.array_equal(d_trans, ref_d_trans)
    alphas, _ = crf._forward(o, trans)
    assert np.array_equal(alphas, reference_forward(o, trans)[0])
