import json
import struct
from dataclasses import asdict

import numpy as np
import pytest

from xsrl.corpus import Corpus, PredicateFrame, Sentence, Token
from xsrl.model import (
    BASIC,
    PGN,
    CheckpointError,
    ModelConfig,
    Vocabulary,
    init_model,
    load_embeddings,
    load_model,
    predict,
    save_model,
)

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
        assert (predict(model, [(sent, [pred_index], "EN")])
                == predict(loaded, [(sent, [pred_index], "EN")]))
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


def write_version_1(model, path):
    """The version-1 writer: every tensor as float64, whatever the config dtype."""
    header = json.dumps({
        "config": asdict(model.config),
        "vocab": {"words": list(model.vocab.words), "pos_tags": list(model.vocab.pos_tags),
                  "labels": list(model.vocab.labels),
                  "languages": list(model.vocab.languages)},
    }).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(b"XSRLMODL" + struct.pack("<II", 1, len(header)) + header)
        fh.write(struct.pack("<I", len(model.params)))
        for name in sorted(model.params):
            tensor = np.ascontiguousarray(model.params[name], dtype="<f8")
            fh.write(struct.pack("<I", len(name)) + name.encode("utf-8"))
            fh.write(struct.pack(f"<I{tensor.ndim}Q", tensor.ndim, *tensor.shape))
            fh.write(tensor.tobytes())


def float32_model(variant):
    model = make_model(variant)
    model.config.dtype = "float32"
    model.params = {name: p.astype(np.float32) for name, p in model.params.items()}
    return model


@pytest.mark.parametrize("variant", [BASIC, PGN])
def test_float32_round_trip_keeps_dtype(tmp_path, variant):
    model = float32_model(variant)
    path = tmp_path / "model.bin"
    save_model(model, str(path))
    loaded = load_model(str(path))
    for name, tensor in model.params.items():
        assert loaded.params[name].dtype == np.float32
        assert np.array_equal(loaded.params[name], tensor)


@pytest.mark.parametrize("dtype", ["float64", "float32"])
def test_version_1_checkpoints_still_load(tmp_path, dtype):
    model = make_model() if dtype == "float64" else float32_model(PGN)
    path = tmp_path / "v1.bin"
    write_version_1(model, str(path))
    loaded = load_model(str(path))
    assert loaded.config == model.config
    for name, tensor in model.params.items():
        assert loaded.params[name].dtype == np.dtype(dtype)
        assert np.array_equal(loaded.params[name], tensor)


def test_non_float_dtype_is_a_malformed_header(tmp_path):
    model = make_model()
    model.config.dtype = "int8"
    path = tmp_path / "int.bin"
    write_version_1(model, str(path))
    with pytest.raises(CheckpointError, match="not a float type"):
        load_model(str(path))
