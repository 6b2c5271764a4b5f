"""Self-describing binary checkpoints for trained models.

Layout: 8-byte magic, u32 format version, u32-length-prefixed JSON header
(configuration and vocabulary), u32 tensor count, then per tensor a
u32-length-prefixed name, u32 rank, u64 dimensions and row-major data in
the configuration's dtype.  All numbers little-endian.  Version 1 files,
which hold float64 data whatever the configuration says, still load; their
tensors come back in the configuration's dtype.
"""

from __future__ import annotations

import json
import struct
from dataclasses import asdict

import numpy as np

from .network import ModelConfig, ModelError, SrlModel, Vocabulary, param_shapes

__all__ = ["CheckpointError", "save_model", "load_model"]

MAGIC = b"XSRLMODL"
VERSION = 2


class CheckpointError(ValueError):
    """Raised for unreadable or inconsistent checkpoint files."""


def _tensor_dtype(config: ModelConfig) -> np.dtype:
    dtype = np.dtype(config.dtype)
    if dtype.kind != "f":
        raise ValueError(f"dtype {config.dtype!r} is not a float type")
    return dtype.newbyteorder("<")


def save_model(model: SrlModel, path: str) -> None:
    dtype = _tensor_dtype(model.config)
    header = json.dumps({
        "config": asdict(model.config),
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
            tensor = np.ascontiguousarray(model.params[name], dtype=dtype)
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<I", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<I", tensor.ndim))
            fh.write(struct.pack(f"<{tensor.ndim}Q", *tensor.shape))
            fh.write(tensor.tobytes())


def _read(fh, count: int) -> bytes:
    data = fh.read(count)
    if len(data) != count:
        raise CheckpointError("unexpected end of container")
    return data


def load_model(path: str) -> SrlModel:
    with open(path, "rb") as fh:
        if _read(fh, len(MAGIC)) != MAGIC:
            raise CheckpointError("not an xsrl model checkpoint (bad magic)")
        (version,) = struct.unpack("<I", _read(fh, 4))
        if version not in (1, VERSION):
            raise CheckpointError(
                f"unsupported checkpoint version {version}, expected 1 or {VERSION}")
        (header_len,) = struct.unpack("<I", _read(fh, 4))
        try:
            header = json.loads(_read(fh, header_len).decode("utf-8"))
            config = ModelConfig(**header["config"])
            vocab = Vocabulary(
                words=tuple(header["vocab"]["words"]),
                pos_tags=tuple(header["vocab"]["pos_tags"]),
                labels=tuple(header["vocab"]["labels"]),
                languages=tuple(header["vocab"]["languages"]),
            )
            dtype = _tensor_dtype(config)
        except (KeyError, TypeError, ValueError, ModelError) as exc:
            raise CheckpointError(f"malformed checkpoint header: {exc}") from None
        (tensor_count,) = struct.unpack("<I", _read(fh, 4))
        params: dict[str, np.ndarray] = {}
        for _ in range(tensor_count):
            (name_len,) = struct.unpack("<I", _read(fh, 4))
            name = _read(fh, name_len).decode("utf-8")
            (ndim,) = struct.unpack("<I", _read(fh, 4))
            shape = struct.unpack(f"<{ndim}Q", _read(fh, 8 * ndim))
            size = int(np.prod(shape)) if shape else 1
            stored = np.dtype("<f8") if version == 1 else dtype
            data = _read(fh, stored.itemsize * size)
            params[name] = np.frombuffer(data, dtype=stored).reshape(shape).astype(config.dtype)

    expected = param_shapes(config, vocab)
    if set(params) != set(expected):
        raise CheckpointError(
            f"checkpoint config mismatch: tensors {sorted(params)} do not match "
            f"configuration ({sorted(expected)})")
    for name, shape in expected.items():
        if params[name].shape != shape:
            raise CheckpointError(
                f"checkpoint config mismatch: {name} has shape {params[name].shape}, "
                f"configuration implies {shape}")
    return SrlModel(config=config, vocab=vocab, params=params)
