"""Deterministic seeded training and finite-difference gradient validation."""

from __future__ import annotations

import math
import os

import numpy as np

from ..corpus import Corpus
from .network import (
    ModelConfig,
    ModelError,
    SrlModel,
    TrainingExample,
    Vocabulary,
    examples_from_corpus,
    init_model,
    loss_and_gradients,
    param_shapes,
)

__all__ = ["TrainingError", "train", "gradient_check"]

# Full-size copies of the parameters alive during training: the parameters,
# Adam's two moments and one batch gradient.
LIVE_COPIES = 4


class TrainingError(RuntimeError):
    """Raised when training meets a non-finite loss or gradient."""


class _Adam:
    def __init__(self, params: dict[str, np.ndarray], learning_rate: float,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.lr = learning_rate
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.step = 0
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}

    def update(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]) -> None:
        """One step on every tensor in ``grads``; other tensors stay put.

        Works in place without temporaries and consumes ``grads``.
        """
        self.step += 1
        # lr * (m/bias1) / (sqrt(v/bias2) + eps) as rate * m / (sqrt(v) + eps_hat)
        bias2_root = math.sqrt(1.0 - self.beta2 ** self.step)
        rate = self.lr * bias2_root / (1.0 - self.beta1 ** self.step)
        eps_hat = self.eps * bias2_root
        for name in sorted(grads):
            g = grads[name]
            m = self.m[name]
            v = self.v[name]
            # m = beta1*m + (1-beta1)*g as g + beta1*(m - g); v likewise with g*g
            m -= g
            m *= self.beta1
            m += g
            g *= g
            v -= g
            v *= self.beta2
            v += g
            np.sqrt(v, out=g)
            g += eps_hat
            np.divide(m, g, out=g)
            g *= rate
            params[name] -= g


def _global_norm(grads: dict[str, np.ndarray]) -> float:
    return math.sqrt(sum(float(np.vdot(g, g)) for g in grads.values()))


def _physical_memory() -> int:
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def _check_memory(config: ModelConfig, vocab: Vocabulary) -> None:
    """Refuse a model whose training state cannot fit in physical memory.

    The estimate counts LIVE_COPIES of every parameter tensor; it is made
    from the shapes alone, before anything is allocated.
    """
    count = sum(math.prod(shape) for shape in param_shapes(config, vocab).values())
    needed = count * np.dtype(config.dtype).itemsize * LIVE_COPIES
    available = _physical_memory()
    if needed > available:
        raise ModelError(
            f"training this model needs about {needed / 2**30:.1f} GiB "
            f"({count:,} parameters x {LIVE_COPIES} copies: parameters, Adam "
            f"moments, batch gradient), more than the {available / 2**30:.1f} GiB "
            f"of physical memory; shrink it with --hidden, --layers, --lang-dim, "
            f"--word-dim, or use --variant basic")


def train(corpus: Corpus, config: ModelConfig, seed: int = 42,
          word_table: np.ndarray | None = None,
          vocab: Vocabulary | None = None,
          ) -> tuple[SrlModel, list[float]]:
    """Train a model on a (possibly mixed-language) corpus.

    One example per (sentence, predicate).  Epoch order is shuffled by a
    generator seeded with ``seed``; each batch runs as one padded,
    language-grouped minibatch, its gradient is averaged over the batch,
    and the returned log holds the mean loss of every epoch.  Identical
    corpus, config and seed give bit-identical models.  A non-finite loss
    or gradient raises :class:`TrainingError` naming the epoch and batch.
    """
    examples = examples_from_corpus(corpus)
    if not examples:
        raise ModelError("corpus has no predicate frames to train on")
    if vocab is None:
        vocab = Vocabulary.from_corpus(corpus)
    _check_memory(config, vocab)
    model = init_model(config, vocab, seed=seed, word_table=word_table)
    config = model.config
    frozen = set() if config.train_word_table else {"word_table"}
    optimizer = _Adam({name: p for name, p in model.params.items() if name not in frozen},
                      config.learning_rate)
    rng = np.random.default_rng(seed + 1)

    losses: list[float] = []
    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(len(examples))
        epoch_loss = 0.0
        for batch_no, start in enumerate(range(0, len(order), config.batch_size), start=1):
            batch = [examples[int(i)] for i in order[start:start + config.batch_size]]
            loss, grads = loss_and_gradients(model, batch)
            for g in grads.values():
                g /= len(batch)
            norm = _global_norm(grads)
            if not (math.isfinite(loss) and math.isfinite(norm)):
                raise TrainingError(
                    f"non-finite loss or gradient in epoch {epoch}, batch {batch_no}")
            if config.clip_norm > 0 and norm > config.clip_norm:
                for g in grads.values():
                    g *= config.clip_norm / norm
            optimizer.update(model.params, grads)
            epoch_loss += loss
        losses.append(epoch_loss / len(examples))
    return model, losses


def gradient_check(model: SrlModel, examples: list[TrainingExample],
                   epsilon: float = 1e-5, samples: int = 200,
                   seed: int = 0) -> float:
    """Compare analytic gradients of a batch against central finite differences.

    Samples at least ``samples`` coordinates spread over every trained
    parameter tensor and returns the maximum relative error
    |g_a - g_n| / max(|g_a|, |g_n|, 1e-4).  Requires 64-bit parameters.
    """
    if any(p.dtype != np.float64 for p in model.params.values()):
        raise ModelError("gradient_check needs float64 parameters")
    _, analytic = loss_and_gradients(model, examples)

    def loss_only() -> float:
        loss, _ = loss_and_gradients(model, examples)
        return loss

    rng = np.random.default_rng(seed)
    total_size = sum(g.size for g in analytic.values())
    worst = 0.0
    for name in sorted(analytic):
        tensor = model.params[name]
        count = min(tensor.size, max(5, round(samples * tensor.size / total_size)))
        coords = rng.choice(tensor.size, size=count, replace=False)
        flat = tensor.reshape(-1)
        grad_flat = analytic[name].reshape(-1)
        for c in coords:
            original = flat[c]
            flat[c] = original + epsilon
            upper = loss_only()
            flat[c] = original - epsilon
            lower = loss_only()
            flat[c] = original
            numeric = (upper - lower) / (2.0 * epsilon)
            ga = float(grad_flat[c])
            rel = abs(ga - numeric) / max(abs(ga), abs(numeric), 1e-4)
            worst = max(worst, rel)
    return worst
