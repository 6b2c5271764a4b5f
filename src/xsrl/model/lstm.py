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


def _cell_forward(w_x, w_h, b, inputs):
    """Run one direction over a batch ``inputs`` (T, B, D); returns states and cache."""
    steps, batch, d = inputs.shape
    h = w_h.shape[1]
    # gate pre-activations, replaced step by step by the activations
    gates = inputs.reshape(-1, d) @ w_x.T
    gates += b
    gates = gates.reshape(steps, batch, 4 * h)
    cells = np.empty((steps, batch, h), dtype=inputs.dtype)
    tanh_cells = np.empty_like(cells)
    states = np.empty_like(cells)
    for t in range(steps):
        z = gates[t]
        if t:
            z += states[t - 1] @ w_h.T
        g = np.tanh(z[:, 2 * h:3 * h])
        _sigmoid(z, z)
        z[:, 2 * h:3 * h] = g
        c = z[:, :h] * g
        if t:
            c += z[:, h:2 * h] * cells[t - 1]
        cells[t] = c
        np.tanh(c, out=tanh_cells[t])
        np.multiply(z[:, 3 * h:], tanh_cells[t], out=states[t])
    return states, (inputs, gates, cells, tanh_cells, states)


def _cell_backward(w_x, w_h, cache, d_states, d_weights):
    """Backprop one direction; returns d_inputs.

    The recurrence only carries (B, H) state gradients; the per-step gate
    gradients are stacked into dZ (T*B, 4H) and every weight gradient is
    one GEMM over it, written into the (d_W_x, d_W_h, d_b) views
    ``d_weights``.
    """
    inputs, gates, cells, tanh_cells, states = cache
    steps, batch, h = cells.shape
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
    dh = dc_next = None
    for t in range(steps - 1, -1, -1):
        dh = d_states[t] if dh is None else d_states[t] + dh
        dc = dh * dc_from_dh[t]
        if dc_next is not None:
            dc += dc_next
        d_gates4[t, :, :3] *= dc[:, None, :]
        d_gates4[t, :, 3] *= dh
        dh = d_gates[t] @ w_h
        dc_next = dc * f[t]
    d_wx, d_wh, d_b = d_weights
    d_z = d_gates.reshape(-1, 4 * h)
    np.matmul(d_z.T, inputs.reshape(-1, inputs.shape[2]), out=d_wx)
    # h_prev is zero at t = 0, so only t >= 1 (rows from ``batch`` on) count
    np.matmul(d_z[batch:].T, states[:-1].reshape(-1, h), out=d_wh)
    np.sum(d_z, axis=0, out=d_b)
    return (d_z @ w_x).reshape(inputs.shape)


def _reversal(steps: int, lengths):
    """Index pair that reverses every sequence within its length, or None
    when all sequences fill the batch and a plain reversal does."""
    if lengths is None or np.all(np.asarray(lengths) == steps):
        return None
    t = np.arange(steps)[:, None]
    return np.where(t < lengths, lengths - 1 - t, t), np.arange(len(lengths))


def _reverse(x: np.ndarray, rev) -> np.ndarray:
    return x[::-1] if rev is None else x[rev]


def bilstm_forward(spec: LstmSpec, flat: np.ndarray, inputs: np.ndarray, lengths=None):
    """Encode a padded batch ``inputs`` (T, B, input_dim) into (T, B, 2*hidden).

    ``lengths`` (B,) holds each sequence's length; None means every
    sequence fills all T steps.  Returns (states, caches); pass ``caches``
    to :func:`bilstm_backward`.  States at padded positions are finite but
    meaningless.
    """
    rev = _reversal(inputs.shape[0], lengths)
    caches = []
    layer_in = inputs
    for layer_views in spec.views(flat):
        (wx_f, wh_f, b_f), (wx_b, wh_b, b_b) = layer_views
        fwd, cache_f = _cell_forward(wx_f, wh_f, b_f, layer_in)
        bwd_rev, cache_b = _cell_forward(wx_b, wh_b, b_b, _reverse(layer_in, rev))
        caches.append((cache_f, cache_b))
        layer_in = np.concatenate([fwd, _reverse(bwd_rev, rev)], axis=2)
    return layer_in, (rev, caches)


def bilstm_backward(spec: LstmSpec, flat: np.ndarray, caches, d_out: np.ndarray):
    """Backprop through the stack; returns (d_inputs, d_flat).

    ``d_out`` must be zero at padded positions; padding then adds exactly
    zero to every gradient.
    """
    h = spec.hidden
    rev, layer_caches = caches
    d_flat = np.empty_like(flat)
    d_views = spec.views(d_flat)
    views = spec.views(flat)
    d_layer = d_out
    for layer in range(spec.layers - 1, -1, -1):
        (wx_f, wh_f, _), (wx_b, wh_b, _) = views[layer]
        cache_f, cache_b = layer_caches[layer]
        d_fwd, d_bwd = d_views[layer]
        d_in_f = _cell_backward(wx_f, wh_f, cache_f, d_layer[..., :h], d_fwd)
        d_in_b = _cell_backward(wx_b, wh_b, cache_b, _reverse(d_layer[..., h:], rev), d_bwd)
        d_layer = d_in_f + _reverse(d_in_b, rev)
    return d_layer, d_flat
