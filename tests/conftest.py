import math
import struct
from pathlib import Path

import numpy as np
import pytest

from xsrl import blas
from xsrl.alignment import AlignmentTable
from xsrl.corpus import Corpus, PredicateFrame, Sentence, Token, UNIVERSAL_TAGS
from xsrl.model import OUTSIDE, encode_examples, loss_and_gradients, predict, training
from xsrl.model.lstm import Inline

DATA = Path(__file__).resolve().parent.parent / "data" / "toy"


def pytest_configure(config):
    """BLAS on one thread, as ``xsrl.cli.main`` runs it, so library calls
    fork the right-to-left partner as the command line does."""
    blas.use_one_thread()

ROLES = ("A0", "A1", "A2", "AM-TMP", "AM-LOC")
FORMS = ("alpha", "beta", "gamma", "delta", "kappa", "sigma", "tau", "omega")


@pytest.fixture(scope="session")
def toy_dir() -> Path:
    return DATA


def read(path: Path) -> str:
    return path.read_text(encoding="utf-8")


def alignment_table(probs, floor: float = 0.0) -> AlignmentTable:
    """The table of the flat ``{(e, f): p}`` entries ``probs``, grouped into
    one row per source word; rows and targets keep the entries' order."""
    rows: dict[str, dict[str, float]] = {}
    for (e, f), p in probs.items():
        rows.setdefault(e, {})[f] = p
    return AlignmentTable(rows=rows, floor=floor)


def checkpoint_layout(data: bytes):
    """Where the fields of a version-2 checkpoint lie.

    Returns ``(fields, tensors)``: ``fields`` lists the (offset, width) of
    every length or shape field (the header length, the tensor count, and
    each tensor's name length, rank and dimensions); ``tensors`` maps each
    tensor name to the (offset, dtype, element count) of its data.
    """
    (header_len,) = struct.unpack_from("<I", data, 12)
    dtype = np.dtype("<f8")
    pos = 16 + header_len
    fields, tensors = [(12, 4), (pos, 4)], {}
    (count,) = struct.unpack_from("<I", data, pos)
    pos += 4
    for _ in range(count):
        (name_len,) = struct.unpack_from("<I", data, pos)
        name = data[pos + 4:pos + 4 + name_len].decode("utf-8")
        pos += 4 + name_len
        (ndim,) = struct.unpack_from("<I", data, pos)
        shape = struct.unpack_from(f"<{ndim}Q", data, pos + 4)
        fields += [(pos - 4 - name_len, 4), (pos, 4), *((pos + 4 + 8 * i, 8) for i in range(ndim))]
        pos += 4 + 8 * ndim
        tensors[name] = (pos, dtype, math.prod(shape))
        pos += dtype.itemsize * math.prod(shape)
    assert pos == len(data)
    return fields, tensors


def batch_of_one(*columns):
    """A lone sequence as the CRF and the BiLSTM take it: each of its
    time-major ``columns`` (its emissions, labels or inputs) as a batch of
    one on a new axis 1, then its (1,) lengths."""
    batch = [np.asarray(column)[:, None] for column in columns]
    return (*batch, np.array([len(batch[0])]))


def random_sentence(rng: np.random.Generator, max_len: int = 8,
                    max_frames: int = 2, lang: str = "EN") -> Sentence:
    n = int(rng.integers(1, max_len + 1))
    tokens = tuple(
        Token(index=i + 1,
              form=FORMS[rng.integers(len(FORMS))],
              lemma=FORMS[rng.integers(len(FORMS))],
              upos=UNIVERSAL_TAGS[rng.integers(len(UNIVERSAL_TAGS))],
              head=int(rng.integers(0, n + 1)),
              deprel="dep",
              misc="_")
        for i in range(n))
    n_frames = int(rng.integers(0, min(max_frames, n) + 1))
    pred_positions = rng.choice(n, size=n_frames, replace=False) + 1
    frames = []
    for pred in sorted(int(p) for p in pred_positions):
        candidates = [i for i in range(1, n + 1) if i != pred]
        rng.shuffle(candidates)
        n_args = int(rng.integers(0, min(3, len(candidates)) + 1))
        args = tuple(sorted(
            (int(c), ROLES[rng.integers(len(ROLES))]) for c in candidates[:n_args]))
        frames.append(PredicateFrame(pred_index=pred, sense=f"s.{rng.integers(1, 9)}",
                                     args=args))
    return Sentence(tokens=tokens, lang=lang, sent_id=f"r{rng.integers(1e6)}",
                    frames=tuple(frames))


def random_corpus(rng: np.random.Generator, n_sentences: int, **kwargs) -> Corpus:
    return Corpus.from_sentences(
        random_sentence(rng, **kwargs) for _ in range(n_sentences))


def token_f1(model, corpus: Corpus) -> float:
    """Token-level role F1 of one :func:`predict` call over the corpus
    against its gold frames, one token sequence per (sentence, predicate).
    predict never labels a predicate's own token."""
    predicted = predict(model, corpus)
    tp = fp = fn = 0
    for sentence, relabelled in zip(corpus.sentences, predicted.sentences, strict=True):
        for gold_frame, frame in zip(sentence.frames, relabelled.frames, strict=True):
            gold_roles, roles = dict(gold_frame.args), dict(frame.args)
            for token in sentence.tokens:
                gold = gold_roles.get(token.index, OUTSIDE)
                got = roles.get(token.index, OUTSIDE)
                if gold != OUTSIDE and got == gold:
                    tp += 1
                elif gold == OUTSIDE and got != OUTSIDE:
                    fp += 1
                elif gold != OUTSIDE:
                    fn += 1
                    if got != OUTSIDE:
                        fp += 1
    p = tp / (tp + fp) if tp + fp else 0.0
    r = tp / (tp + fn) if tp + fn else 0.0
    return 2 * p * r / (p + r) if p + r else 0.0


def workspace_loss(model, data, rows=None):
    """The loss and the gradients of :func:`loss_and_gradients` over the
    rows ``rows`` of ``data`` (all of them by default), in a new
    training workspace, so the gradients of two calls never share a
    buffer."""
    _, _, tensors, flats, d_flats = training._workspace(model)
    rows = np.arange(len(data)) if rows is None else rows
    runner = Inline(model.config.lstm_spec(), flats, d_flats)
    return loss_and_gradients(model, data, rows, tensors, runner), tensors


def freeze_onto(basic, pgn):
    """Make the lang_dim-1 PGN model ``pgn`` a copy of the BASIC model
    ``basic``: shared tensors copied, the generator set to BASIC's
    recurrent vector and every language embedding to 1."""
    for name in ("word_table", "pos_table", "pred_table", "crf_emission",
                 "crf_transition"):
        pgn.params[name] = basic.params[name].copy()
    pgn.params["lang_table"] = np.ones((len(pgn.vocab.languages), 1))
    pgn.params["w_pgn"] = basic.params["bilstm"][:, None].copy()
    return pgn


def assert_frozen_pgn_equals_basic(basic, frozen, corpus):
    """On the rows of ``corpus`` as one batch of one language group, the
    frozen PGN of :func:`freeze_onto` trains and predicts exactly like
    BASIC: equal losses, bit-equal gradients of every shared tensor, the
    generator's gradient equal to BASIC's recurrent gradient, and equal
    frames."""
    loss_b, grads_b = workspace_loss(basic, encode_examples(basic, corpus))
    loss_p, grads_p = workspace_loss(frozen, encode_examples(frozen, corpus))
    assert loss_b == loss_p
    shared = set(grads_b) - {"bilstm"}
    assert shared == set(grads_p) - {"w_pgn", "lang_table"}
    for name in shared:
        assert np.array_equal(grads_b[name], grads_p[name]), name
    assert np.array_equal(grads_p["w_pgn"][:, 0], grads_b["bilstm"])
    assert predict(basic, corpus) == predict(frozen, corpus)
