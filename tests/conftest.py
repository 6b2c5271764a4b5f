from pathlib import Path

import numpy as np
import pytest

from xsrl.corpus import Corpus, PredicateFrame, Sentence, Token, UNIVERSAL_TAGS
from xsrl.model import OUTSIDE, encode_examples, loss_and_gradients, predict
from xsrl.model.network import examples_from_corpus

DATA = Path(__file__).resolve().parent.parent / "data" / "toy"

ROLES = ("A0", "A1", "A2", "AM-TMP", "AM-LOC")
FORMS = ("alpha", "beta", "gamma", "delta", "kappa", "sigma", "tau", "omega")


@pytest.fixture(scope="session")
def toy_dir() -> Path:
    return DATA


def read(path: Path) -> str:
    return path.read_text(encoding="utf-8")


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
    predicted = predict(model, [(s, [f.pred_index for f in s.frames], s.lang)
                                for s in corpus.sentences])
    frames = [frame for sentence_frames in predicted for frame in sentence_frames]
    tp = fp = fn = 0
    for ex, frame in zip(examples_from_corpus(corpus), frames, strict=True):
        roles = dict(frame.args)
        for token, gold in zip(ex.sentence.tokens, ex.labels):
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


def assert_frozen_pgn_equals_basic(basic, frozen, examples):
    """On one batch of one language group, the frozen PGN of
    :func:`freeze_onto` trains and predicts exactly like BASIC: equal
    losses, bit-equal gradients of every shared tensor, the generator's
    gradient equal to BASIC's recurrent gradient, and equal frames."""
    loss_b, grads_b = loss_and_gradients(basic, encode_examples(basic, examples))
    loss_p, grads_p = loss_and_gradients(frozen, encode_examples(frozen, examples))
    assert loss_b == loss_p
    shared = set(grads_b) - {"bilstm"}
    assert shared == set(grads_p) - {"w_pgn", "lang_table"}
    for name in shared:
        assert np.array_equal(grads_b[name], grads_p[name]), name
    assert np.array_equal(grads_p["w_pgn"][:, 0], grads_b["bilstm"])
    requests = [(ex.sentence, [ex.frame.pred_index], ex.sentence.lang) for ex in examples]
    assert predict(basic, requests) == predict(frozen, requests)
