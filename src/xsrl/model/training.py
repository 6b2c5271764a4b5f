"""Deterministic seeded training and finite-difference gradient validation."""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from ..corpus import Corpus
from .lstm import right_to_left_runner, shared_array
from .network import (
    ModelConfig,
    ModelError,
    SrlModel,
    Vocabulary,
    encode_examples,
    init_model,
    loss_and_gradients,
    training_shapes,
)

__all__ = ["TrainingError", "train", "gradient_check"]

# Global gradient norm above which a batch gradient is scaled down to it.
CLIP_NORM = 5.0
# Adam's decay rates of its two moments and its denominator's offset.
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8
# Flat buffers of the trained parameters' size that training keeps: the
# parameters, Adam's two moments and the batch gradient.
LIVE_COPIES = 4
# Elements per Adam block: 32k float64 values of each of the four arrays a
# step touches (gradient, two moments, parameters) make 1 MB, which stays in
# a core's L2 cache across the step's twelve passes.
ADAM_BLOCK = 32768
# The gradient check's central-difference step and its sampling seed.
GRADIENT_CHECK_EPSILON, GRADIENT_CHECK_SEED = 1e-5, 0


class TrainingError(RuntimeError):
    """Raised when training meets a non-finite loss or gradient."""


class _Adam:
    """Adam over one flat parameter vector, with its moments as two more."""

    def __init__(self, params: np.ndarray, learning_rate: float):
        self.lr = learning_rate
        self.step = 0
        # np.zeros, unlike zeros_like, leaves large moments' pages unwritten
        # until a step touches them: the main process never steps the
        # partner's half, so it never holds those pages
        self.m = np.zeros(params.shape, params.dtype)
        self.v = np.zeros(params.shape, params.dtype)

    def update(self, params: np.ndarray, grad: np.ndarray) -> None:
        """One step of the flat ``params`` along the flat ``grad``.

        Works in place without temporaries and consumes ``grad``.  The
        vectors are stepped ADAM_BLOCK elements at a time; the arithmetic
        is elementwise, so the result does not depend on it.
        """
        self.step += 1
        # lr * (m/bias1) / (sqrt(v/bias2) + eps) as rate * m / (sqrt(v) + eps_hat)
        bias2_root = math.sqrt(1.0 - ADAM_BETA2 ** self.step)
        rate = self.lr * bias2_root / (1.0 - ADAM_BETA1 ** self.step)
        eps_hat = ADAM_EPS * bias2_root
        for start in range(0, params.size, ADAM_BLOCK):
            g, m, v, p = (t[start:start + ADAM_BLOCK] for t in (grad, self.m, self.v, params))
            # m = beta1*m + (1-beta1)*g as g + beta1*(m - g); v likewise with g*g
            m -= g
            m *= ADAM_BETA1
            m += g
            g *= g
            v -= g
            v *= ADAM_BETA2
            v += g
            np.sqrt(v, out=g)
            g += eps_hat
            np.divide(m, g, out=g)
            g *= rate
            p -= g


def _global_norm(grads: dict[str, np.ndarray]) -> float:
    return math.sqrt(sum(float(np.vdot(g, g)) for g in grads.values()))


def _views(flat: np.ndarray, shapes: dict[str, tuple[int, ...]]) -> dict[str, np.ndarray]:
    """Consecutive views of ``flat``, one per entry of ``shapes``, in order."""
    views, offset = {}, 0
    for name, shape in shapes.items():
        size = math.prod(shape)
        views[name] = flat[offset:offset + size].reshape(shape)
        offset += size
    return views


def _check_memory(config: ModelConfig, vocab: Vocabulary) -> int:
    """Refuse a model whose training state cannot fit in physical memory.

    The estimate counts what :func:`train` allocates besides its
    activations (:func:`training_shapes`): LIVE_COPIES of the trained
    tensors, one frozen word table and PGN's two per-language blocks.  It
    is made from the shapes alone, before anything is allocated, and
    returned in bytes.
    """
    from .. import malloc

    trained, frozen, block = training_shapes(config, vocab)
    count = sum(math.prod(shape) for shape in trained.values())
    other = (math.prod(frozen) if frozen else 0) + (2 * math.prod(block) if block else 0)
    needed = (count * LIVE_COPIES + other) * np.dtype(np.float64).itemsize
    available = malloc.physical_memory()
    if needed > available:
        raise ModelError(
            f"training this model needs about {needed / 2**30:.1f} GiB "
            f"({count:,} parameters x {LIVE_COPIES} copies: parameters, Adam "
            f"moments, batch gradient), more than the {available / 2**30:.1f} GiB "
            f"of physical memory; shrink it with --hidden, --layers, --lang-dim, "
            f"--word-dim, or use --variant basic")
    return needed


def _workspace(model: SrlModel):
    """Move the trained tensors of ``model`` into one flat parameter buffer
    and allocate the flat batch gradient, with a view of it per trained
    tensor, and the recurrent vectors with their gradients: BASIC's
    ``bilstm`` vector and its gradient, one row each, or PGN's two
    (languages, P) blocks.

    Returns (parameters, gradient, gradient views, recurrent vectors,
    their gradients): the buffers :func:`loss_and_gradients` writes and
    the BiLSTM runner (:func:`~xsrl.model.lstm.right_to_left_runner`)
    owns.  They share one anonymous shared mapping, so a forked
    right-to-left partner reads the parameters as Adam steps them, writes
    its gradients in place and steps the second half of the parameters
    itself.  :func:`~xsrl.model.lstm.shared_array` maps it fresh on every
    call, after giving the heap's free pages back to the system, so in a
    process that trains after earlier work the mapping replaces the freed
    memory the heap kept instead of adding to it.  The trained entries of
    ``model.params`` become views of the parameter buffer with the same
    values; a frozen word table stays where it is.
    """
    trained, _, block = training_shapes(model.config, model.vocab)
    size = sum(math.prod(shape) for shape in trained.values())
    per_block = math.prod(block) if block else 0
    arena = shared_array(2 * size + 2 * per_block, np.float64)
    params, grad = arena[:size], arena[size:2 * size]
    for name, view in _views(params, trained).items():
        view[...] = model.params[name]
        model.params[name] = view
    tensors = _views(grad, trained)
    if block is None:
        return params, grad, tensors, model.params["bilstm"][None], tensors["bilstm"][None]
    d_flats, flats = arena[2 * size:].reshape(2, *block)
    return params, grad, tensors, flats, d_flats


def train(corpus: Corpus, config: ModelConfig, seed: int = 42,
          embeddings: tuple[list[str], np.ndarray] | None = None,
          ) -> tuple[SrlModel, list[float]]:
    """Train a model on a (possibly mixed-language) corpus.

    ``embeddings``, a pretrained ``(words, vectors)`` table as
    :func:`~xsrl.model.embeddings.load_embeddings` returns it, gives the
    vocabulary (its words, after a zero-vector unknown word), the word
    dimension and a frozen word table, on the model's copy of ``config``.

    One row per (sentence, predicate frame); the corpus is encoded once
    (:func:`~xsrl.model.network.encode_examples`), before the first epoch.
    Epoch order is shuffled by a generator seeded with ``seed``; each batch
    runs as one padded minibatch, its gradient is averaged over the batch,
    and the returned log holds the mean loss of every epoch.  The
    parameters, their gradient and Adam's moments are allocated once, as
    flat buffers, before the first batch; a forked partner runs the
    BiLSTM's right-to-left direction
    (:func:`~xsrl.model.lstm.right_to_left_runner`) and steps the second
    half of the parameter vector while this process steps the first, and
    it is reaped before this returns or raises.  Adam is elementwise, so
    the halves give the bits of one step.  A batch gradient whose global
    norm exceeds CLIP_NORM is scaled down to it.  Identical corpus, config
    and seed give bit-identical models.  A non-finite loss or gradient
    raises :class:`TrainingError` naming the epoch and batch; numpy's
    floating-point warnings are silenced in both processes, as that error
    reports the divergence.
    """
    if not any(sentence.frames for sentence in corpus.sentences):
        raise ModelError("corpus has no predicate frames to train on")
    words, vectors = embeddings or (None, None)
    vocab = Vocabulary.from_corpus(corpus, words=words)
    if embeddings:
        config = replace(config, word_dim=vectors.shape[1], train_word_table=False)
    _check_memory(config, vocab)
    if embeddings:
        vectors = np.vstack([np.zeros((1, config.word_dim)), vectors])
    model = init_model(config, vocab, seed=seed, word_table=vectors)
    config = model.config
    data = encode_examples(model, corpus)
    params, grad, tensors, flats, d_flats = _workspace(model)
    # both optimizers exist before a partner is forked; from the fork on
    # the partner owns the tail's moments, which this process never touches
    split = params.size // 2
    head = _Adam(params[:split], config.learning_rate)
    tail = _Adam(params[split:], config.learning_rate)
    rng = np.random.default_rng(seed + 1)

    losses: list[float] = []
    # the partner forks inside errstate, so it inherits it
    with np.errstate(all="ignore"), right_to_left_runner(
            config.lstm_spec(), flats, d_flats, int(np.diff(data.offsets).max()),
            min(config.batch_size, len(data)),
            tail=lambda: tail.update(params[split:], grad[split:])) as runner:
        for epoch in range(1, config.epochs + 1):
            order = rng.permutation(len(data))
            epoch_loss = 0.0
            for batch_no, start in enumerate(range(0, len(order), config.batch_size), start=1):
                rows = order[start:start + config.batch_size]
                loss = loss_and_gradients(model, data, rows, tensors, runner)
                grad /= len(rows)
                norm = _global_norm(tensors)
                if not (math.isfinite(loss) and math.isfinite(norm)):
                    raise TrainingError(
                        f"non-finite loss or gradient in epoch {epoch}, batch {batch_no}")
                if norm > CLIP_NORM:
                    grad *= CLIP_NORM / norm
                tail_step = runner.step()
                head.update(params[:split], grad[:split])
                tail_step()
                epoch_loss += loss
            losses.append(epoch_loss / len(data))
    return model, losses


def gradient_check(model: SrlModel, corpus: Corpus, samples: int = 200) -> float:
    """Compare analytic gradients of a batch against central finite differences.

    Runs every (sentence, predicate frame) row of ``corpus``, encoded as
    :func:`train` encodes it, as one batch through :func:`loss_and_gradients` into
    the training workspace, built once with the right-to-left runner that
    :func:`train` uses, and keeps a copy of its flat gradient as the
    analytic result.  Then it perturbs, through the parameter views that
    Adam steps, about ``samples`` coordinates spread over the trained
    tensors (at least five of each, or all of a smaller one), and returns
    the maximum relative error |g_a - g_n| / max(|g_a|, |g_n|, 1e-4).
    """
    data = encode_examples(model, corpus)
    rows = np.arange(len(data))
    params, grad, tensors, flats, d_flats = _workspace(model)
    with right_to_left_runner(model.config.lstm_spec(), flats, d_flats,
                              int(np.diff(data.offsets).max()), len(data)) as runner:
        loss_and_gradients(model, data, rows, tensors, runner)
        shapes = {name: g.shape for name, g in tensors.items()}
        analytic = _views(grad.copy(), shapes)

        rng = np.random.default_rng(GRADIENT_CHECK_SEED)
        worst = 0.0
        for name, tensor in sorted(_views(params, shapes).items()):
            count = min(tensor.size, max(5, round(samples * tensor.size / params.size)))
            coords = rng.choice(tensor.size, size=count, replace=False)
            flat = tensor.reshape(-1)
            grad_flat = analytic[name].reshape(-1)
            for c in coords:
                original = flat[c]
                flat[c] = original + GRADIENT_CHECK_EPSILON
                upper = loss_and_gradients(model, data, rows, tensors, runner)
                flat[c] = original - GRADIENT_CHECK_EPSILON
                lower = loss_and_gradients(model, data, rows, tensors, runner)
                flat[c] = original
                numeric = (upper - lower) / (2.0 * GRADIENT_CHECK_EPSILON)
                ga = float(grad_flat[c])
                rel = abs(ga - numeric) / max(abs(ga), abs(numeric), 1e-4)
                worst = max(worst, rel)
    return worst
