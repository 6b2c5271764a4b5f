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

The two directions of a layer do not depend on each other until the
layer joins them, so the right-to-left one goes through a runner while
this process runs the left-to-right one.  The runner owns the weight
vectors and their gradient vectors, and a group names its vector by its
index into them.  :func:`right_to_left_runner` gives a forked
:class:`Partner` process when this one may use a second CPU, and
:class:`Inline` otherwise; the partner's child serves each call through
:class:`Inline`'s code on the same inputs, so the outputs are
bit-identical either way.  A runner can also be given a tail step, which
training uses to step the second half of Adam's vector in the partner
while this process steps the first.
"""

from __future__ import annotations

import math
import mmap
import os
import platform
import signal
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .. import blas

__all__ = ["LstmSpec", "Inline", "bilstm_forward", "bilstm_backward",
           "right_to_left_runner", "shared_array"]


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


def _cell_forward(weights, spans, inputs, keep_cache):
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


def _reversal(steps: int, lengths: np.ndarray):
    """The key that reverses every sequence of a (T, B, ...) array within
    its length: a plain reversal, which indexes a view, when all sequences
    fill the batch, else an index pair."""
    if np.all(lengths == steps):
        return slice(None, None, -1)
    t = np.arange(steps)[:, None]
    return np.where(t < lengths, lengths - 1 - t, t), np.arange(len(lengths))


def _spans(groups, lengths: np.ndarray) -> list[tuple[slice, int]]:
    """(columns, steps) of every group: its longest sequence bounds its steps."""
    return [(cols, int(np.max(lengths[cols]))) for _, cols in groups]


class Inline:
    """Owns the BiLSTM's weight vectors ``flats`` and gradient vectors
    ``d_flats`` (a group names both by its index into them), and runs the
    right-to-left direction, and the tail step ``tail``, in this process.

    ``views`` and ``d_views`` hold every vector's :meth:`LstmSpec.views`,
    built once.  :meth:`forward`, :meth:`backward` and :meth:`step` do the
    work when called and return a function that gives the result, as
    :class:`Partner`'s do; the right-to-left caches stay here from a
    layer's forward to its backward.  A runner without gradient vectors
    never runs backward, so its forward keeps no caches.
    """

    def __init__(self, spec: LstmSpec, flats, d_flats=(), tail=None):
        self.spec = spec
        self.flats, self.d_flats = flats, d_flats
        self.views = [spec.views(flat) for flat in flats]
        self.d_views = [spec.views(d_flat) for d_flat in d_flats]
        self.tail = tail
        self._caches = {}

    def forward(self, layer, keys, spans, inputs):
        weights = [self.views[key][layer][1] for key in keys]
        states, self._caches[layer] = _cell_forward(weights, spans, inputs, bool(self.d_views))
        return lambda: states

    def backward(self, layer, keys, spans, d_states):
        weights = [self.views[key][layer][1] for key in keys]
        d_weights = [self.d_views[key][layer][1] for key in keys]
        d_inputs = _cell_backward(weights, spans, self._caches.pop(layer), d_states, d_weights)
        return lambda: d_inputs

    def step(self):
        self.tail()
        return lambda: None


class PartnerError(RuntimeError):
    """Raised when the partner process fails or ends."""


# Words of the control block at the start of the exchange mapping, then
# four per group: key, first column, end column, steps.
_REQUEST, _DONE, _FAILED, _OP, _LAYER, _COUNT, _SHAPE = range(7)
_GROUPS = _SHAPE + 3
_STOP, _FORWARD, _BACKWARD, _STEP = range(4)
_ERROR_BYTES = 1024
# A wait yields the CPU between its first _SPINS polls (about 2 ms), then
# sleeps _NAP seconds between polls, so a process that idles for long, as
# the partner does while this process runs the embeddings, the CRF and the
# gradient norm, leaves the CPU to others; every _CHECK_EVERY polls it
# checks the other process is still there.
_SPINS = 2000
_NAP = 2e-5
_CHECK_EVERY = 256


def _aligned(offset: int) -> int:
    return -(-offset // 64) * 64


def _await(ctl: np.ndarray, slot: int, value: int, alive) -> bool:
    """Poll ``ctl[slot]`` until it reads ``value``; False, without
    waiting longer, once ``alive()`` says the other process is gone."""
    polls = 0
    while ctl[slot] != value:
        if polls < _SPINS:
            os.sched_yield()
        else:
            time.sleep(_NAP)
        polls += 1
        if polls % _CHECK_EVERY == 0 and not alive():
            return False
    return True


def _current_cpu() -> int | None:
    """The CPU this process runs on (field 39 of /proc/self/stat), or None."""
    try:
        with open("/proc/self/stat", "rb") as fh:
            return int(fh.read().rsplit(b")", 1)[1].split()[36])
    except (OSError, ValueError, IndexError):
        return None


class Partner(Inline):
    """Runs the right-to-left direction, and the tail step ``tail``, in a
    forked child process.

    The constructor forks the child and :meth:`close` reaps it.  The
    child serves each call through :meth:`Inline.forward` and
    :meth:`Inline.backward`: it reads the weight vectors ``flats`` and
    writes the weight gradients into ``d_flats`` in place, so a flat must
    be shared memory (:func:`shared_array`) or stay unchanged after the
    fork, and a d_flat must be shared memory.  Each call's input, the
    child's states and its input gradients pass through a shared exchange
    mapping sized for batches of up to ``steps`` x ``rows``.  :meth:`step`
    runs the callable ``tail`` in the child, with the state it had at the
    fork: training passes the step of the second half of Adam's vector,
    whose moments the child owns from the fork on and whose parameters
    and gradient are shared memory.

    A hand-off is a sequence number written into that mapping, which the
    waiting side polls (:func:`_await`): pipes and semaphores were slower,
    as they wake the waiter on the waker's CPU.
    The child runs on the CPUs of the affinity mask other than the one
    this process runs on at the fork, leaves through ``os._exit``, never
    writes to stdout or stderr, and exits when this process does.  A
    failure in the child is raised here as :class:`PartnerError`.
    """

    def __init__(self, spec: LstmSpec, flats, d_flats, steps: int, rows: int, tail=None):
        super().__init__(spec, flats, d_flats, tail)
        self._steps, self._rows = steps, rows
        dtype = flats[0].dtype
        words = _GROUPS + 4 * len(flats)
        self._error_at = 8 * words
        width = steps * rows * max(spec.input_dim, 2 * spec.hidden)
        x_at = _aligned(self._error_at + _ERROR_BYTES)
        h_at = _aligned(x_at + width * dtype.itemsize)
        height = steps * rows * spec.hidden
        self._map = mmap.mmap(-1, h_at + height * dtype.itemsize)
        self._ctl = np.frombuffer(self._map, np.int64, words)
        self._x = np.frombuffer(self._map, dtype, width, x_at)
        self._h = np.frombuffer(self._map, dtype, height, h_at)
        self._seq = 0
        self._busy = False
        self._status = None
        parent, cpu = os.getpid(), _current_cpu()
        self._pid = os.fork()
        if self._pid == 0:
            code = 1
            try:
                self._serve(parent, cpu)
                code = 0
            except BaseException as exc:  # noqa: BLE001 - reported, then os._exit
                self._fail(exc)
            finally:
                os._exit(code)

    # -- this process -----------------------------------------------------

    def forward(self, layer, keys, spans, inputs):
        steps, batch, _ = inputs.shape
        self._x[:inputs.size].reshape(inputs.shape)[...] = inputs
        self._post(_FORWARD, layer, keys, spans, inputs.shape)

        def result():
            self._wait()
            return self._h[:steps * batch * self.spec.hidden].reshape(steps, batch, -1)

        return result

    def backward(self, layer, keys, spans, d_states):
        steps, batch, _ = d_states.shape
        shape = (steps, batch, self.spec.layer_input_dim(layer))
        self._h[:d_states.size].reshape(d_states.shape)[...] = d_states
        self._post(_BACKWARD, layer, keys, spans, shape)

        def result():
            self._wait()
            return self._x[:math.prod(shape)].reshape(shape)

        return result

    def step(self):
        """Start the tail step in the child; returns the function that
        waits for it."""
        self._publish(_STEP)
        return self._wait

    def close(self) -> None:
        """Stop and reap the child; kill it if it is still running a call."""
        if self._pid is None:
            return
        if self._busy:
            os.kill(self._pid, signal.SIGKILL)
        else:
            self._publish(_STOP)
        os.waitpid(self._pid, 0)
        self._pid = None

    def _post(self, op, layer, keys, spans, shape) -> None:
        steps, batch, _ = shape
        if steps > self._steps or batch > self._rows:
            raise ValueError(f"a batch of {steps} steps x {batch} rows exceeds the "
                             f"partner's {self._steps} x {self._rows}")
        ctl = self._ctl
        ctl[_LAYER], ctl[_COUNT] = layer, len(spans)
        ctl[_SHAPE:_GROUPS] = shape
        for g, (key, (cols, n)) in enumerate(zip(keys, spans)):
            start, end, stride = cols.indices(batch)
            if stride != 1:
                raise ValueError("a group's columns must be a contiguous slice")
            ctl[_GROUPS + 4 * g:_GROUPS + 4 * g + 4] = (key, start, end, n)
        self._publish(op)

    def _publish(self, op) -> None:
        """Hand the child the call ``op``, whose operands are in place."""
        self._ctl[_OP] = op
        self._seq += 1
        self._busy = True
        self._ctl[_REQUEST] = self._seq

    def _wait(self) -> None:
        ended = not _await(self._ctl, _DONE, self._seq, self._running)
        self._busy = False
        if self._ctl[_FAILED]:
            error = self._map[self._error_at:self._error_at + _ERROR_BYTES]
            raise PartnerError(error.rstrip(b"\0").decode("utf-8", "replace"))
        if ended:
            raise PartnerError(f"the right-to-left partner process ended "
                               f"(wait status {self._status})")

    def _running(self) -> bool:
        """Whether the child still runs; reaps it if it ended."""
        pid, status = os.waitpid(self._pid, os.WNOHANG)
        if pid:
            self._pid, self._status = None, status
        return not pid

    # -- the child --------------------------------------------------------

    def _serve(self, parent: int, cpu: int | None) -> None:
        others = os.sched_getaffinity(0) - {cpu}
        if cpu is not None and others:
            os.sched_setaffinity(0, others)
        ctl, h = self._ctl, self.spec.hidden
        while True:
            self._seq += 1
            if not _await(ctl, _REQUEST, self._seq, lambda: os.getppid() == parent):
                return
            op, layer, count = ctl[_OP:_SHAPE].tolist()
            if op == _STOP:
                return
            if op == _STEP:
                self.tail()
                ctl[_DONE] = self._seq
                continue
            steps, batch, width = ctl[_SHAPE:_GROUPS].tolist()
            groups = ctl[_GROUPS:_GROUPS + 4 * count].reshape(count, 4).tolist()
            keys = [key for key, *_ in groups]
            spans = [(slice(start, end), n) for _, start, end, n in groups]
            if op == _FORWARD:
                inputs = self._x[:steps * batch * width].reshape(steps, batch, width).copy()
                states = Inline.forward(self, layer, keys, spans, inputs)()
                self._h[:states.size] = states.reshape(-1)
            else:
                d_states = self._h[:steps * batch * h].reshape(steps, batch, h)
                d_inputs = Inline.backward(self, layer, keys, spans, d_states)()
                self._x[:d_inputs.size] = d_inputs.reshape(-1)
            ctl[_DONE] = self._seq

    def _fail(self, exc: BaseException) -> None:
        text = f"right-to-left partner: {type(exc).__name__}: {exc}".encode()[:_ERROR_BYTES]
        self._map[self._error_at:self._error_at + len(text)] = text
        self._ctl[_FAILED] = 1
        self._ctl[_DONE] = self._seq


def _partner_available() -> bool:
    """Whether a :class:`Partner` can run: fork, a second CPU in the
    affinity mask, BLAS on one thread (:mod:`xsrl.blas`), and x86, whose
    stores reach the other CPU in program order, so a sequence number
    published last needs no fence."""
    return (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
            and platform.machine().lower() in ("x86_64", "amd64")
            and len(os.sched_getaffinity(0)) >= 2 and blas.threads() == 1)


@contextmanager
def right_to_left_runner(spec: LstmSpec, flats, d_flats, steps: int, rows: int, tail=None):
    """The runner of the right-to-left direction for one train or predict
    call: a :class:`Partner` over ``flats`` and ``d_flats`` for batches
    of up to ``steps`` x ``rows`` when one can run, else :class:`Inline`.
    Its :meth:`step` runs the callable ``tail`` where the runner runs.
    A partner is reaped on exit, whether or not the body raised."""
    if not _partner_available():
        yield Inline(spec, flats, d_flats, tail)
        return
    partner = Partner(spec, flats, d_flats, steps, rows, tail)
    try:
        yield partner
    finally:
        partner.close()


def shared_array(size: int, dtype) -> np.ndarray:
    """A zeroed 1-D array in an anonymous shared mapping, which a forked
    :class:`Partner` reads and writes as this process does."""
    dtype = np.dtype(dtype)
    return np.frombuffer(mmap.mmap(-1, max(size, 1) * dtype.itemsize), dtype, size)


def bilstm_forward(runner: Inline, groups, inputs: np.ndarray, lengths: np.ndarray):
    """Encode a padded batch ``inputs`` (T, B, input_dim) into (T, B, 2*hidden).

    ``runner`` (:class:`Inline`, or a :class:`Partner` from
    :func:`right_to_left_runner`) owns the weight vectors and runs each
    layer's right-to-left direction while this process runs the other.
    ``groups`` holds one ``(key, cols)`` pair per weight group: columns
    ``cols`` (a slice of the batch axis) run with the runner's vector
    number ``key``; one group over the whole batch is
    ``[(key, slice(None))]``.  ``lengths`` (B,), an integer array, holds
    each sequence's length.
    Returns (states, caches); pass ``caches`` to :func:`bilstm_backward`.
    A runner without gradient vectors (inference) cannot run backward:
    then caches is None and each layer's gate block is freed before the
    next layer runs.  States at padded positions are finite but
    meaningless.
    """
    spans = _spans(groups, lengths)
    rev = _reversal(inputs.shape[0], lengths)
    keys = [key for key, _ in groups]
    keep_cache = bool(runner.d_views)
    caches = []
    layer_in = inputs
    for layer in range(runner.spec.layers):
        pending = runner.forward(layer, keys, spans, layer_in[rev])
        weights = [runner.views[key][layer][0] for key in keys]
        fwd, cache = _cell_forward(weights, spans, layer_in, keep_cache)
        caches.append(cache)
        layer_in = np.concatenate([fwd, pending()[rev]], axis=2)
    return layer_in, ((runner, keys, spans, rev, caches) if keep_cache else None)


def bilstm_backward(caches, d_out: np.ndarray) -> np.ndarray:
    """Backprop through the stack; returns d_inputs.

    ``caches`` are those of the :func:`bilstm_forward` call, whose runner
    runs the right-to-left direction again.  ``d_out`` must be zero at
    padded positions; padding then adds exactly zero to every gradient.
    Each group's weight gradient overwrites the runner's gradient vector
    of the group's key.
    """
    runner, keys, spans, rev, layer_caches = caches
    h = runner.spec.hidden
    d_layer = d_out
    for layer in range(runner.spec.layers - 1, -1, -1):
        pending = runner.backward(layer, keys, spans, d_layer[..., h:][rev])
        weights = [runner.views[key][layer][0] for key in keys]
        d_weights = [runner.d_views[key][layer][0] for key in keys]
        d_in_f = _cell_backward(weights, spans, layer_caches[layer], d_layer[..., :h], d_weights)
        d_layer = d_in_f + pending()[rev]
    return d_layer
