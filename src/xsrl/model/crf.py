"""Linear-chain CRF: loss and gradients, decoding, and the partition function.

The model trains through :func:`nll_gradients` and decodes through
:func:`viterbi`; :func:`log_partition` is the forward algorithm alone,
kept as the quantity the brute-force oracle tests check.

Emissions ``o`` are (n, K) for one sequence of K real labels, or a
time-major padded batch (T, B, K) whose sequence b occupies positions
0..lengths[b]-1; padding follows each sequence and is ignored.  A single
sequence is a batch of one.  The transition matrix is (K+2, K+2): index
K is the begin state entered before position 1, index K+1 the end state
left after position n.  Rows into BOS and out of EOS are never used.  A
sequence scores sum_i o[i, y_i] plus the chained transitions including
the boundary ones; probabilities normalize by the partition sum over all
K^n label sequences.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "log_partition",
    "nll_gradients",
    "viterbi",
]


def _lse(x: np.ndarray, axis: int) -> np.ndarray:
    m = np.max(x, axis=axis)
    return m + np.log(np.sum(np.exp(x - np.expand_dims(m, axis)), axis=axis))


def _batch(o: np.ndarray, lengths, labels=None):
    """(o, lengths, labels, single): a lone (n, K) sequence as a batch of one."""
    single = o.ndim == 2
    if single:
        o = o[:, None]
        if labels is not None:
            labels = np.asarray(labels)[:, None]
    if lengths is None:
        lengths = np.full(o.shape[1], o.shape[0])
    labels = None if labels is None else np.asarray(labels, dtype=np.intp)
    return o, np.asarray(lengths, dtype=np.intp), labels, single


def _forward(o: np.ndarray, trans: np.ndarray, posteriors: bool = False):
    """Forward-algorithm log scores over a batch.

    alphas[t, b, j] sums the paths of sequence b ending in j at t.  With
    ``posteriors``, also returns post[t, b, i, j], the probability that
    label i precedes label j at t given the paths ending in j there.
    """
    steps, batch, k = o.shape
    inner = trans[:k, :k]
    alphas = np.empty_like(o)
    np.add(o[0], trans[k, :k], out=alphas[0])
    # each step's exponentiated scores are built in place, in post[t] or in
    # one buffer; post is normalized by the step totals after the loop
    post = np.empty((steps, batch, k, k), dtype=o.dtype) if posteriors else None
    totals = np.empty_like(o)
    scores = None if posteriors else np.empty((batch, k, k), dtype=o.dtype)
    for t in range(1, steps):
        if posteriors:
            scores = post[t]
        np.add(alphas[t - 1][:, :, None], inner, out=scores)
        m = np.maximum.reduce(scores, axis=1)
        scores -= m[:, None, :]
        np.exp(scores, out=scores)
        np.add(o[t], m, out=alphas[t])
        alphas[t] += np.log(np.add.reduce(scores, axis=1, out=totals[t]))
    if posteriors:
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


def log_partition(o: np.ndarray, trans: np.ndarray, lengths=None):
    """log Z: a float for one sequence, (B,) for a batch."""
    o, lengths, _, single = _batch(o, lengths)
    alphas, _ = _forward(o, trans)
    logz = _lse(_final_scores(alphas, trans, lengths), axis=1)
    return float(logz[0]) if single else logz


def nll_gradients(o: np.ndarray, trans: np.ndarray, labels, lengths=None):
    """Summed loss and its gradients w.r.t. emissions and transitions.

    The partition gradient is obtained by backpropagating through the
    forward recursion, which reproduces the marginal path statistics; the
    gold paths then subtract their indicator counts.  Each sequence's
    backward recursion starts at its own last position, so the emission
    gradient is exactly zero on padding.
    """
    o, lengths, labels, single = _batch(o, lengths, labels)
    steps, batch, k = o.shape
    bos, eos = k, k + 1
    cols = np.arange(batch)
    alphas, post = _forward(o, trans, posteriors=True)
    final = _final_scores(alphas, trans, lengths)
    logz = _lse(final, axis=1)
    path = _gold_path(labels, lengths, k)
    loss = float(np.sum(logz - _path_scores(o, trans, path)))

    d_o = np.zeros_like(o)
    d_trans = np.zeros_like(trans)
    end = np.exp(final - logz[:, None])
    d_trans[:k, eos] += end.sum(axis=0)
    starts = np.zeros_like(o)
    starts[lengths - 1, cols] = end
    d_alpha = starts[steps - 1]
    for step in range(steps - 1, 0, -1):
        d_o[step] = d_alpha
        # post[step] becomes the expected transition counts into step
        post[step] *= d_alpha[:, None, :]
        d_alpha = post[step].sum(axis=2) + starts[step - 1]
    d_o[0] = d_alpha
    d_trans[:k, :k] += post[1:].sum(axis=(0, 1))
    d_trans[bos, :k] += d_alpha.sum(axis=0)

    (t, b, y), (_, src, dst) = path
    d_o[t, b, y] -= 1.0
    d_trans -= np.bincount(src * (k + 2) + dst,
                           minlength=(k + 2) ** 2).reshape(k + 2, k + 2)
    return loss, (d_o[:, 0] if single else d_o), d_trans


def viterbi(o: np.ndarray, trans: np.ndarray, lengths=None):
    """Highest-scoring label sequence; ties pick the lower label index.

    Returns a list of labels for one sequence, one such list per sequence
    for a batch.
    """
    o, lengths, _, single = _batch(o, lengths)
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
    if single:
        return paths[:, 0].tolist()
    return [paths[:n, j].tolist() for j, n in enumerate(lengths)]
