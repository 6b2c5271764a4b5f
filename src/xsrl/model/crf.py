"""Linear-chain CRF: loss and gradients, and decoding.

The model trains through :func:`nll_gradients` and decodes through
:func:`viterbi`.  Both take emissions ``o`` as a time-major padded batch
(T, B, K) of K real labels and (B,) integer lengths: sequence b occupies
positions 0..lengths[b]-1, and the padding that follows it is ignored.  A
single sequence is a batch of one.  The transition matrix is (K+2, K+2):
index K is the begin state entered before position 1, index K+1 the end
state left after position n.  Rows into BOS and out of EOS are never
used.  A sequence scores sum_i o[i, y_i] plus the chained transitions
including the boundary ones; probabilities normalize by the partition sum
over all K^n label sequences.
"""

from __future__ import annotations

import numpy as np

__all__ = ["nll_gradients", "viterbi"]


def _lse(x: np.ndarray, axis: int) -> np.ndarray:
    m = np.max(x, axis=axis)
    return m + np.log(np.sum(np.exp(x - np.expand_dims(m, axis)), axis=axis))


def _forward(o: np.ndarray, trans: np.ndarray):
    """Forward-algorithm log scores over a batch, with the transition
    posteriors.

    alphas[t, b, j] sums the paths of sequence b ending in j at t, and
    post[t, b, i, j] is the probability that label i precedes label j at t
    given the paths ending in j there.
    """
    steps, batch, k = o.shape
    inner = trans[:k, :k]
    alphas = np.empty_like(o)
    np.add(o[0], trans[k, :k], out=alphas[0])
    # each step's exponentiated scores are built in place in post[t], then
    # normalized by the step totals after the loop
    post = np.empty((steps, batch, k, k), dtype=o.dtype)
    totals = np.empty_like(o)
    for t in range(1, steps):
        scores = post[t]
        np.add(alphas[t - 1][:, :, None], inner, out=scores)
        m = np.maximum.reduce(scores, axis=1)
        scores -= m[:, None, :]
        np.exp(scores, out=scores)
        np.add(o[t], m, out=alphas[t])
        alphas[t] += np.log(np.add.reduce(scores, axis=1, out=totals[t]))
    post[1:] /= totals[1:, :, None, :]
    return alphas, post


def _final_scores(alphas, trans, lengths) -> np.ndarray:
    """(B, K) log scores of each sequence's paths ending in each label, EOS included."""
    k = alphas.shape[2]
    return alphas[lengths - 1, np.arange(len(lengths))] + trans[:k, k + 1]


def _gold_path(labels: np.ndarray, lengths: np.ndarray, k: int):
    """Index arrays of every sequence's gold path.

    Returns (t, b, y) of the gold emissions and (b, src, dst) of the gold
    transitions, the BOS and EOS ones included.
    """
    steps, batch = labels.shape
    cols = np.arange(batch)
    t, b = np.nonzero(np.arange(steps)[:, None] < lengths)
    y = labels[t, b]
    inner = t > 0
    seq = np.concatenate([cols, b[inner], cols])
    src = np.concatenate([np.full(batch, k), labels[t[inner] - 1, b[inner]],
                          labels[lengths - 1, cols]])
    dst = np.concatenate([labels[0], y[inner], np.full(batch, k + 1)])
    return (t, b, y), (seq, src, dst)


def _path_scores(o: np.ndarray, trans: np.ndarray, path) -> np.ndarray:
    (t, b, y), (seq, src, dst) = path
    batch = o.shape[1]
    return (np.bincount(b, weights=o[t, b, y], minlength=batch)
            + np.bincount(seq, weights=trans[src, dst], minlength=batch))


def nll_gradients(o: np.ndarray, trans: np.ndarray, labels: np.ndarray,
                  lengths: np.ndarray):
    """Summed loss of the gold ``labels`` (T, B) and its gradients w.r.t.
    emissions and transitions.

    The partition gradient is obtained by backpropagating through the
    forward recursion, which reproduces the marginal path statistics; the
    gold paths then subtract their indicator counts.  Each sequence's
    backward recursion starts at its own last position, so the emission
    gradient is exactly zero on padding.
    """
    steps, batch, k = o.shape
    bos, eos = k, k + 1
    cols = np.arange(batch)
    alphas, post = _forward(o, trans)
    final = _final_scores(alphas, trans, lengths)
    logz = _lse(final, axis=1)
    path = _gold_path(labels, lengths, k)
    loss = float(np.sum(logz - _path_scores(o, trans, path)))

    # d_o[t] gathers the gradient of log Z w.r.t. alphas[t]: the end
    # probabilities at each last position, then what flows back from t + 1
    d_o = np.zeros_like(o)
    d_trans = np.zeros_like(trans)
    end = np.exp(final - logz[:, None])
    d_trans[:k, eos] += end.sum(axis=0)
    d_o[lengths - 1, cols] = end
    for step in range(steps - 1, 0, -1):
        # post[step] becomes the expected transition counts into step
        post[step] *= d_o[step][:, None, :]
        d_o[step - 1] += post[step].sum(axis=2)
    d_trans[:k, :k] += post[1:].sum(axis=(0, 1))
    d_trans[bos, :k] += d_o[0].sum(axis=0)

    (t, b, y), (_, src, dst) = path
    d_o[t, b, y] -= 1.0
    d_trans -= np.bincount(src * (k + 2) + dst,
                           minlength=(k + 2) ** 2).reshape(k + 2, k + 2)
    return loss, d_o, d_trans


def viterbi(o: np.ndarray, trans: np.ndarray, lengths=None) -> list[list[int]]:
    """Highest-scoring label sequence of every sequence, as one list of
    labels per sequence; ties pick the lower label index."""
    if lengths is None:  # one unpadded (T, K) sequence, as bench/test_bench.py calls it
        o, lengths = o[:, None], np.array([len(o)])
    steps, batch, k = o.shape
    delta = o[0] + trans[k, :k]
    back = np.zeros((steps, batch, k), dtype=np.intp)
    for t in range(1, steps):
        scores = delta[:, :, None] + trans[:k, :k]
        back[t] = np.argmax(scores, axis=1)
        stepped = o[t] + np.max(scores, axis=1)
        delta = np.where((t < lengths)[:, None], stepped, delta)
    last = np.argmax(delta + trans[:k, k + 1], axis=1)
    paths = np.empty((steps, batch), dtype=np.intp)
    cols = np.arange(batch)
    for t in range(steps - 1, -1, -1):
        paths[t] = last
        if t:
            last = np.where(t < lengths, back[t, cols, last], last)
    return [paths[:n, j].tolist() for j, n in enumerate(lengths)]
