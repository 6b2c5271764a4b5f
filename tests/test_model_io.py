import json
import struct
from dataclasses import replace

import numpy as np
import pytest

from xsrl.corpus import Corpus, PredicateFrame, Sentence, Token
from xsrl.model import (
    BASIC,
    PGN,
    CheckpointError,
    ModelConfig,
    ModelError,
    Vocabulary,
    init_model,
    load_embeddings,
    load_model,
    predict,
    save_model,
)

from conftest import checkpoint_layout

# One EN sentence with a predicate, for predict runs through the CLI.
PROBE = "# lang = EN\n1\ta\ta\tNOUN\t_\t_\t2\tnsubj\t_\t_\t_\tA0\n" \
        "2\tv\tv\tVERB\t_\t_\t0\troot\t_\t_\tv.01\t_\n\n"


def make_model(variant=PGN, seed=1):
    corpus = Corpus.from_sentences([
        Sentence(tokens=(Token(1, "a", "a", "NOUN"), Token(2, "v", "v", "VERB")),
                 lang="EN", frames=(PredicateFrame(2, "v.01", ((1, "A0"),)),)),
        Sentence(tokens=(Token(1, "b", "b", "NOUN"),), lang="DE"),
    ])
    config = ModelConfig(word_dim=5, pos_dim=3, pred_dim=3, lang_dim=2, hidden=4,
                         layers=1, variant=variant)
    return init_model(config, Vocabulary.from_corpus(corpus), seed=seed)


def probe_sentences(rng, count=10):
    out = []
    for _ in range(count):
        n = int(rng.integers(1, 6))
        tokens = tuple(Token(i + 1, f"w{rng.integers(5)}", "_", "NOUN")
                       for i in range(n))
        out.append(Sentence(tokens=tokens, lang="EN"))
    return out


@pytest.mark.parametrize("variant", [BASIC, PGN])
def test_round_trip_identical_predictions(tmp_path, variant):
    model = make_model(variant)
    path = tmp_path / "model.bin"
    save_model(model, str(path))
    loaded = load_model(str(path))
    assert loaded.config == model.config
    assert loaded.vocab == model.vocab
    rng = np.random.default_rng(0)
    for sent in probe_sentences(rng):
        pred_index = int(rng.integers(1, len(sent.tokens) + 1))
        probe = Corpus((replace(sent, frames=(PredicateFrame(pred_index),)),))
        assert predict(model, probe) == predict(loaded, probe)
    for name in model.params:
        assert np.array_equal(model.params[name], loaded.params[name])


def test_truncated_file(tmp_path):
    model = make_model()
    path = tmp_path / "model.bin"
    save_model(model, str(path))
    data = path.read_bytes()
    (tmp_path / "cut.bin").write_bytes(data[:len(data) // 2])
    with pytest.raises(CheckpointError, match="unexpected end of container"):
        load_model(str(tmp_path / "cut.bin"))


def test_bad_magic(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"NOTMODEL" + b"\x00" * 64)
    with pytest.raises(CheckpointError, match="bad magic"):
        load_model(str(path))


def test_version_mismatch(tmp_path):
    model = make_model()
    path = tmp_path / "model.bin"
    save_model(model, str(path))
    data = bytearray(path.read_bytes())
    data[8] = 99
    path.write_bytes(bytes(data))
    with pytest.raises(CheckpointError, match="version"):
        load_model(str(path))


def test_config_tensor_mismatch(tmp_path):
    model = make_model(BASIC)
    model.params["bilstm"] = model.params["bilstm"][:-1]
    path = tmp_path / "model.bin"
    save_model(model, str(path))
    with pytest.raises(CheckpointError, match="config mismatch"):
        load_model(str(path))


def test_load_embeddings(tmp_path):
    path = tmp_path / "vecs.txt"
    path.write_text("2 3\nfoo 1.0 2.0 3.0\nbar 0.5 0.25 0.125\n")
    words, vectors = load_embeddings(str(path))
    assert words == ["foo", "bar"]
    np.testing.assert_array_equal(vectors, [[1, 2, 3], [0.5, 0.25, 0.125]])


def test_load_embeddings_errors(tmp_path):
    path = tmp_path / "vecs.txt"
    path.write_text("2 3\nfoo 1.0 2.0\n")
    with pytest.raises(Exception, match="line 2"):
        load_embeddings(str(path))
    path.write_text("2 3\nfoo 1.0 2.0 3.0\n")
    with pytest.raises(Exception, match="expected 2 vectors"):
        load_embeddings(str(path))


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN"])
def test_load_embeddings_rejects_non_finite_values(tmp_path, value):
    path = tmp_path / "vecs.txt"
    path.write_text(f"2 3\nfoo 1.0 2.0 3.0\nbar 0.5 {value} 0.125\n")
    with pytest.raises(ModelError, match="line 3: non-finite value"):
        load_embeddings(str(path))


def with_header(data: bytes, **config) -> bytes:
    """Checkpoint bytes with the given configuration fields rewritten."""
    (length,) = struct.unpack_from("<I", data, 12)
    header = json.loads(data[16:16 + length])
    header["config"].update(config)
    text = json.dumps(header).encode("utf-8")
    return data[:12] + struct.pack("<I", len(text)) + text + data[16 + length:]


def test_version_1_checkpoints_still_load(tmp_path):
    """Version 1 wrote float64 tensors in the version-2 layout."""
    model = make_model()
    path = tmp_path / "v1.bin"
    save_model(model, str(path))
    data = bytearray(path.read_bytes())
    struct.pack_into("<I", data, 8, 1)
    path.write_bytes(bytes(data))
    loaded = load_model(str(path))
    assert loaded.config == model.config
    for name, tensor in model.params.items():
        assert loaded.params[name].dtype == np.float64
        assert np.array_equal(loaded.params[name], tensor)


def test_clip_norm_in_the_header_is_ignored(tmp_path):
    model = make_model()
    path = tmp_path / "model.bin"
    save_model(model, str(path))
    path.write_bytes(with_header(path.read_bytes(), clip_norm=0.0))
    assert load_model(str(path)).config == model.config


@pytest.mark.parametrize("dtype", ["float32", "int8"])
def test_non_float64_dtype_exits_2_naming_the_file(tmp_path, capsys, dtype):
    path = tmp_path / "model.bin"
    save_model(make_model(), str(path))
    path.write_bytes(with_header(path.read_bytes(), dtype=dtype))
    with pytest.raises(CheckpointError, match="float64"):
        load_model(str(path))
    assert predict_exit(tmp_path, path) == 2
    assert capsys.readouterr().err == (
        f"xsrl: error: {path}: unsupported tensor dtype {dtype!r}: "
        f"checkpoints hold float64 tensors\n")
    assert not (tmp_path / "pred.conllu").exists()


def predict_exit(tmp_path, path):
    """Exit code of ``xsrl predict`` with the checkpoint ``path``."""
    from xsrl.cli import main

    probe = tmp_path / "probe.conllu"
    probe.write_text(PROBE, encoding="utf-8")
    return main(["predict", "--model", str(path), "--input", str(probe),
                 "--out", str(tmp_path / "pred.conllu")])


def test_version_2_bytes_are_unchanged(tmp_path):
    """The writer's layout, rebuilt field by field."""
    model = make_model()
    path = tmp_path / "model.bin"
    save_model(model, str(path))
    data = path.read_bytes()
    _, tensors = checkpoint_layout(data)
    assert list(tensors) == sorted(model.params)
    for name, (offset, dtype, count) in tensors.items():
        assert data[offset:offset + dtype.itemsize * count] == model.params[name].tobytes()
    assert load_model(str(path)).params.keys() == model.params.keys()


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("name", ["crf_emission", "w_pgn"])
def test_non_finite_tensor_is_refused(tmp_path, capsys, name, value):
    model = make_model()
    model.params[name][...] = value
    path = tmp_path / "model.bin"
    save_model(model, str(path))
    with pytest.raises(CheckpointError, match=f"tensor {name} holds non-finite values"):
        load_model(str(path))
    assert predict_exit(tmp_path, path) == 2
    assert capsys.readouterr().err == (
        f"xsrl: error: {path}: tensor {name} holds non-finite values\n")
    assert not (tmp_path / "pred.conllu").exists()


def test_oversized_tensor_shape_exits_2_naming_the_file(tmp_path, capsys):
    """A dimension of 2**60 is refused before anything is read or allocated."""
    path = tmp_path / "model.bin"
    save_model(make_model(BASIC), str(path))
    data = bytearray(path.read_bytes())
    fields, _ = checkpoint_layout(bytes(data))
    offset = next(offset for offset, width in fields if width == 8)
    struct.pack_into("<Q", data, offset, 2**60)
    path.write_bytes(bytes(data))
    assert predict_exit(tmp_path, path) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"xsrl: error: {path}: checkpoint config mismatch: ")
    assert str(2**60) in err


# (field, value written there, message after "PATH: ")
BAD_LENGTHS = [
    ("header length", 2**32 - 1, "unexpected end of container"),
    ("tensor count", 99, "checkpoint config mismatch: 99 tensors"),
    ("name length", 2**32 - 1, "unexpected end of container"),
    ("rank", 2**32 - 1, "unexpected end of container"),
    ("rank", 2, "checkpoint config mismatch: tensor bilstm has shape ("),
]


@pytest.mark.parametrize("field, value, message", BAD_LENGTHS,
                         ids=[f"{case[0]}-{case[1]}" for case in BAD_LENGTHS])
def test_length_field_is_checked_before_reading(tmp_path, capsys, field, value, message):
    path = tmp_path / "model.bin"
    save_model(make_model(BASIC), str(path))
    data = bytearray(path.read_bytes())
    fields, _ = checkpoint_layout(bytes(data))
    offset = {"header length": fields[0], "tensor count": fields[1],
              "name length": fields[2], "rank": fields[3]}[field][0]
    struct.pack_into("<I", data, offset, value)
    path.write_bytes(bytes(data))
    assert predict_exit(tmp_path, path) == 2
    assert capsys.readouterr().err.startswith(f"xsrl: error: {path}: {message}")


def test_tensor_larger_than_the_file_is_not_read(tmp_path):
    """A checkpoint cut inside the last tensor's data: its declared size is
    checked against the bytes left before anything is allocated."""
    path = tmp_path / "model.bin"
    save_model(make_model(BASIC), str(path))
    data = path.read_bytes()
    path.write_bytes(data[:-1])
    with pytest.raises(CheckpointError, match="unexpected end of container"):
        load_model(str(path))
