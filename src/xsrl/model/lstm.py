"""Multi-layer bidirectional LSTM on a single flattened parameter vector.

All recurrent weights live in one 1-D array so they can either be trained
directly or generated from a language embedding.  Layout, documented for
checkpoint portability: blocks are layer-major with the forward direction
before the backward one; each block is [W_x (4H x D), W_h (4H x H), b (4H)]
flattened row-major; the 4H axis stacks the input, forget, cell and output
gates in that order.  Layer 0 consumes the feature vectors (dimension D);
deeper layers consume the previous layer's concatenated states (2H).

Inputs are time-major padded batches (T, B, D): sequence b occupies
positions 0..lengths[b]-1 and padding follows it.  The forward direction
is causal, so padding never reaches a real position; the backward
direction reverses each sequence within its own length, so its padding
stays at the end too.  A single sequence is a batch of one.

A batch may hold several weight groups (one per language for a PGN
model): each group owns a contiguous slice of the batch axis and its own
parameter vector.  Every GEMM (the input projection, the per-step
recurrent product and the weight gradients) runs per group on its own
columns, trimmed to the group's longest sequence, so each group computes
exactly what it would alone; the step loop and its elementwise gate and
cell work run once over the whole batch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["LstmSpec", "bilstm_forward", "bilstm_backward"]


@dataclass(frozen=True)
class LstmSpec:
    input_dim: int
    hidden: int
    layers: int

    def layer_input_dim(self, layer: int) -> int:
        return self.input_dim if layer == 0 else 2 * self.hidden

    def block_size(self, layer: int) -> int:
        h = self.hidden
        return 4 * h * self.layer_input_dim(layer) + 4 * h * h + 4 * h

    @property
    def total_params(self) -> int:
        return sum(2 * self.block_size(layer) for layer in range(self.layers))

    def views(self, flat: np.ndarray):
        """Slice one flat vector into per-(layer, direction) weight views.

        Returns ``[[ (W_x, W_h, b) forward, (W_x, W_h, b) backward ], ...]``.
        Views share memory with ``flat``, so writes through them land in it.
        """
        if flat.shape != (self.total_params,):
            raise ValueError(
                f"parameter vector has length {flat.shape}, expected "
                f"({self.total_params},)")
        h = self.hidden
        out = []
        offset = 0
        for layer in range(self.layers):
            d = self.layer_input_dim(layer)
            directions = []
            for _ in range(2):
                w_x = flat[offset:offset + 4 * h * d].reshape(4 * h, d)
                offset += 4 * h * d
                w_h = flat[offset:offset + 4 * h * h].reshape(4 * h, h)
                offset += 4 * h * h
                b = flat[offset:offset + 4 * h]
                offset += 4 * h
                directions.append((w_x, w_h, b))
            out.append(directions)
        return out

    def forget_bias_offsets(self) -> list[tuple[int, int]]:
        """(start, end) ranges of every forget-gate bias segment in the flat vector."""
        h = self.hidden
        pairs = []
        offset = 0
        for layer in range(self.layers):
            d = self.layer_input_dim(layer)
            for _ in range(2):
                offset += 4 * h * d + 4 * h * h
                pairs.append((offset + h, offset + 2 * h))
                offset += 4 * h
        return pairs




def _sigmoid(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Logistic function as 0.5 + 0.5*tanh(x/2): stable for any x."""
    np.multiply(x, 0.5, out=out)
    np.tanh(out, out=out)
    out *= 0.5
    out += 0.5
    return out


def _into(target: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Write the product ``a @ b`` into the (steps, rows, m) view ``target``:
    directly when it is contiguous, else through a temporary."""
    if target.flags.c_contiguous:
        np.matmul(a, b, out=target.reshape(a.shape[0], -1))
    else:
        target[...] = (a @ b).reshape(target.shape)
    return target


def _cell_forward(weights, spans, inputs, keep_cache=True):
    """Run one direction over a batch ``inputs`` (T, B, D) whose groups
    ``spans`` ((columns, steps) pairs) own the per-group weights
    ``weights`` ((W_x, W_h, b) triples); returns states and the cache
    :func:`_cell_backward` needs (None without ``keep_cache``).

    Each group's GEMMs run on its own columns and its own first ``steps``
    steps.  Past them its gate rows start at zero and keep the group's last
    recurrent product, so its padded states stay finite.  The step loop and
    the gate activations run once over the whole batch.
    """
    steps, batch, d = inputs.shape
    h = weights[0][1].shape[1]
    # gate pre-activations, replaced step by step by the activations
    gates = np.zeros((steps, batch, 4 * h), dtype=inputs.dtype)
    for (w_x, _, b), (cols, n) in zip(weights, spans):
        group = _into(gates[:n, cols], inputs[:n, cols].reshape(-1, d), w_x.T)
        group += b
    # the recurrent product reads W_h^T row by row, not with a stride
    w_h_ts = [np.ascontiguousarray(w_h.T) for _, w_h, _ in weights]
    recurrent = np.zeros((batch, 4 * h), dtype=inputs.dtype)
    cells = np.empty((steps, batch, h), dtype=inputs.dtype)
    tanh_cells = np.empty_like(cells)
    states = np.empty_like(cells)
    for t in range(steps):
        z = gates[t]
        if t:
            for w_h_t, (cols, n) in zip(w_h_ts, spans):
                if t < n:
                    np.matmul(states[t - 1, cols], w_h_t, out=recurrent[cols])
            z += recurrent
        g = np.tanh(z[:, 2 * h:3 * h])
        _sigmoid(z, z)
        z[:, 2 * h:3 * h] = g
        c = z[:, :h] * g
        if t:
            c += z[:, h:2 * h] * cells[t - 1]
        cells[t] = c
        np.tanh(c, out=tanh_cells[t])
        np.multiply(z[:, 3 * h:], tanh_cells[t], out=states[t])
    if not keep_cache:
        return states, None
    return states, (inputs, gates, cells, tanh_cells, states)


def _cell_backward(weights, spans, cache, d_states, d_weights):
    """Backprop one direction; returns d_inputs, zero past each group's steps.

    The recurrence only carries (B, H) state gradients; the per-step gate
    gradients are stacked into dZ (T, B, 4H).  Each group's weight
    gradients are one GEMM over its own rows of dZ, written into its
    (d_W_x, d_W_h, d_b) views in ``d_weights``.  ``d_states`` is zero past
    each group's steps, so the group's padded steps add exact zeros.
    """
    inputs, gates, cells, tanh_cells, states = cache
    steps, batch, h = cells.shape
    d = inputs.shape[2]
    i, f = gates[..., :h], gates[..., h:2 * h]
    g, o = gates[..., 2 * h:3 * h], gates[..., 3 * h:]
    # d_gates first holds each gate's local derivative; step t multiplies its
    # slice by [dc, dc, dc, dh], which leaves dz there
    d_gates = np.empty_like(gates)
    d_gates[..., :h] = g * i * (1.0 - i)
    d_gates[0, :, h:2 * h] = 0.0
    d_gates[1:, :, h:2 * h] = cells[:-1] * f[1:] * (1.0 - f[1:])
    d_gates[..., 2 * h:3 * h] = i * (1.0 - g * g)
    d_gates[..., 3 * h:] = tanh_cells * o * (1.0 - o)
    dc_from_dh = o * (1.0 - tanh_cells * tanh_cells)
    d_gates4 = d_gates.reshape(steps, batch, 4, h)
    # W_h-products of the step after t; a group's rows stay zero until
    # its own last step has run
    recurrent = np.zeros((batch, h), dtype=d_gates.dtype)
    last = steps - 1
    for t in range(last, -1, -1):
        dh = d_states[t] if t == last else d_states[t] + recurrent
        dc = dh * dc_from_dh[t]
        if t < last:
            dc += dc_next
        d_gates4[t, :, :3] *= dc[:, None, :]
        d_gates4[t, :, 3] *= dh
        if t:
            for (_, w_h, _), (cols, n) in zip(weights, spans):
                if t < n:
                    np.matmul(d_gates[t, cols], w_h, out=recurrent[cols])
            dc_next = dc * f[t]
    d_inputs = np.zeros_like(inputs)
    for (w_x, _, _), (d_wx, d_wh, d_b), (cols, n) in zip(weights, d_weights, spans):
        d_z = d_gates[:n, cols].reshape(-1, 4 * h)
        np.matmul(d_z.T, inputs[:n, cols].reshape(-1, d), out=d_wx)
        # h_prev is zero at t = 0, so only t >= 1 (the rows after the
        # group's first step) count
        width = len(d_z) // n
        np.matmul(d_z[width:].T, states[:n - 1, cols].reshape(-1, h), out=d_wh)
        np.sum(d_z, axis=0, out=d_b)
        _into(d_inputs[:n, cols], d_z, w_x)
    return d_inputs


def _reversal(steps: int, lengths):
    """Index pair that reverses every sequence within its length, or None
    when all sequences fill the batch and a plain reversal does."""
    if lengths is None or np.all(np.asarray(lengths) == steps):
        return None
    t = np.arange(steps)[:, None]
    return np.where(t < lengths, lengths - 1 - t, t), np.arange(len(lengths))


def _reverse(x: np.ndarray, rev) -> np.ndarray:
    return x[::-1] if rev is None else x[rev]


def _spans(groups, lengths, steps: int) -> list[tuple[slice, int]]:
    """(columns, steps) of every group: its longest sequence bounds its steps."""
    return [(cols, steps if lengths is None else int(np.max(lengths[cols])))
            for _, cols in groups]


def _direction(views, layer: int, direction: int) -> list:
    return [v[layer][direction] for v in views]


def bilstm_forward(spec: LstmSpec, groups, inputs: np.ndarray, lengths=None,
                   keep_cache=True):
    """Encode a padded batch ``inputs`` (T, B, input_dim) into (T, B, 2*hidden).

    ``groups`` holds one ``(flat, cols)`` pair per weight group: columns
    ``cols`` (a slice of the batch axis) run with the parameter vector
    ``flat``; one group over the whole batch is ``[(flat, slice(None))]``.
    ``lengths`` (B,) holds each sequence's length; None means every
    sequence fills all T steps.  Returns (states, caches); pass ``caches``
    to :func:`bilstm_backward`.  Without ``keep_cache`` (inference) caches
    is None and each layer's gate block is freed before the next layer
    runs.  States at padded positions are finite but meaningless.
    """
    steps = inputs.shape[0]
    lengths = None if lengths is None else np.asarray(lengths)
    spans = _spans(groups, lengths, steps)
    rev = _reversal(steps, lengths)
    views = [spec.views(flat) for flat, _ in groups]
    caches = []
    layer_in = inputs
    for layer in range(spec.layers):
        fwd, cache_f = _cell_forward(_direction(views, layer, 0), spans, layer_in, keep_cache)
        bwd_rev, cache_b = _cell_forward(_direction(views, layer, 1), spans,
                                         _reverse(layer_in, rev), keep_cache)
        caches.append((cache_f, cache_b))
        layer_in = np.concatenate([fwd, _reverse(bwd_rev, rev)], axis=2)
    return layer_in, ((spans, rev, caches) if keep_cache else None)


def bilstm_backward(spec: LstmSpec, groups, caches, d_out: np.ndarray,
                    d_flats: np.ndarray):
    """Backprop through the stack; returns (d_inputs, d_flats).

    ``groups`` and ``caches`` are those of the :func:`bilstm_forward`
    call.  ``d_out`` must be zero at padded positions; padding then adds
    exactly zero to every gradient.  Row g of ``d_flats`` (one row per
    group, each shaped like its ``flat``) is overwritten with group g's
    gradient.
    """
    h = spec.hidden
    spans, rev, layer_caches = caches
    d_views = [spec.views(d_flat) for d_flat in d_flats]
    views = [spec.views(flat) for flat, _ in groups]
    d_layer = d_out
    for layer in range(spec.layers - 1, -1, -1):
        cache_f, cache_b = layer_caches[layer]
        d_in_f = _cell_backward(_direction(views, layer, 0), spans, cache_f,
                                d_layer[..., :h], _direction(d_views, layer, 0))
        d_in_b = _cell_backward(_direction(views, layer, 1), spans, cache_b,
                                _reverse(d_layer[..., h:], rev), _direction(d_views, layer, 1))
        d_layer = d_in_f + _reverse(d_in_b, rev)
    return d_layer, d_flats
