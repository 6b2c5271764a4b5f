"""Self-describing binary checkpoints for trained models.

Layout: 8-byte magic, u32 format version, u32-length-prefixed JSON header
(configuration and vocabulary), u32 tensor count, then, in name order, per
tensor a u32-length-prefixed name, u32 rank, u64 dimensions and row-major
float64 data.  All numbers little-endian.  Besides the
:class:`~xsrl.model.network.ModelConfig` fields, the header's
configuration records the label and language counts (written from the
vocabulary, before ``variant``), the training clip norm (before
``train_word_table``) and the tensors' dtype, always ``float64`` (last).
The loader ignores the counts and the clip norm, as the vocabulary and
the training code hold them, and refuses any other dtype.  Versions 1
and 2 read the same way.
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import asdict

import numpy as np

from .network import ModelConfig, ModelError, SrlModel, Vocabulary, param_shapes
from .training import CLIP_NORM

__all__ = ["CheckpointError", "save_model", "load_model"]

MAGIC = b"XSRLMODL"
VERSION = 2


class CheckpointError(ValueError):
    """Raised for unreadable or inconsistent checkpoint files."""


def save_model(model: SrlModel, path: str) -> None:
    config = {}
    for name, value in asdict(model.config).items():
        if name == "variant":
            config["label_count"] = len(model.vocab.labels)
            config["language_count"] = len(model.vocab.languages)
        elif name == "train_word_table":
            config["clip_norm"] = CLIP_NORM
        config[name] = value
    header = json.dumps({
        "config": {**config, "dtype": "float64"},
        "vocab": {
            "words": list(model.vocab.words),
            "pos_tags": list(model.vocab.pos_tags),
            "labels": list(model.vocab.labels),
            "languages": list(model.vocab.languages),
        },
    }).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", VERSION))
        fh.write(struct.pack("<I", len(header)))
        fh.write(header)
        fh.write(struct.pack("<I", len(model.params)))
        for name in sorted(model.params):
            tensor = np.ascontiguousarray(model.params[name], dtype="<f8")
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<I", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<I", tensor.ndim))
            fh.write(struct.pack(f"<{tensor.ndim}Q", *tensor.shape))
            fh.write(tensor.data)


def _claim(fh, count: int) -> None:
    """Refuse a read of ``count`` bytes past the end of the file."""
    if count > os.fstat(fh.fileno()).st_size - fh.tell():
        raise CheckpointError("unexpected end of container")


def _read(fh, count: int) -> bytes:
    _claim(fh, count)
    return fh.read(count)


def _u32(fh) -> int:
    return struct.unpack("<I", _read(fh, 4))[0]


def load_model(path: str) -> SrlModel:
    """Read a checkpoint.  Every length and shape field is checked against
    the configuration and the bytes left in the file before it is read,
    and a tensor holding NaN or infinity is refused by name, as is a
    header whose dtype is not float64."""
    with open(path, "rb") as fh:
        if _read(fh, len(MAGIC)) != MAGIC:
            raise CheckpointError("not an xsrl model checkpoint (bad magic)")
        version = _u32(fh)
        if version not in (1, VERSION):
            raise CheckpointError(
                f"unsupported checkpoint version {version}, expected 1 or {VERSION}")
        text = _read(fh, _u32(fh))
        try:
            header = json.loads(text.decode("utf-8"))
            fields = dict(header["config"])
            dtype = fields.pop("dtype")
            for name in ("label_count", "language_count", "clip_norm"):
                fields.pop(name, None)
            config = ModelConfig(**fields)
            vocab = Vocabulary(
                words=tuple(header["vocab"]["words"]),
                pos_tags=tuple(header["vocab"]["pos_tags"]),
                labels=tuple(header["vocab"]["labels"]),
                languages=tuple(header["vocab"]["languages"]),
            )
            expected = param_shapes(config, vocab)
        except (KeyError, TypeError, ValueError, ModelError) as exc:
            raise CheckpointError(f"malformed checkpoint header: {exc}") from None
        if dtype != "float64":
            raise CheckpointError(f"unsupported tensor dtype {dtype!r}: "
                                  "checkpoints hold float64 tensors")
        tensor_count = _u32(fh)
        if tensor_count != len(expected):
            raise CheckpointError(
                f"checkpoint config mismatch: {tensor_count} tensors, configuration "
                f"implies {len(expected)} ({sorted(expected)})")
        params: dict[str, np.ndarray] = {}
        for name, shape in sorted(expected.items()):
            found = _read(fh, _u32(fh)).decode("utf-8", "replace")
            ndim = _u32(fh)
            dims = struct.unpack(f"<{ndim}Q", _read(fh, 8 * ndim))
            if (found, dims) != (name, shape):
                raise CheckpointError(
                    f"checkpoint config mismatch: tensor {found} has shape {dims}, "
                    f"configuration implies {name} with shape {shape}")
            _claim(fh, 8 * math.prod(shape))
            tensor = np.empty(shape, dtype="<f8")
            if fh.readinto(tensor) != tensor.nbytes:
                raise CheckpointError("unexpected end of container")
            if tensor.size and not np.isfinite([tensor.min(), tensor.max()]).all():
                raise CheckpointError(f"tensor {name} holds non-finite values")
            params[name] = tensor
    return SrlModel(config=config, vocab=vocab, params=params)
