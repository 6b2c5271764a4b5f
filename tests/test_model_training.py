import math

import numpy as np
import pytest

from xsrl.corpus import Corpus, PredicateFrame, Sentence, Token
from xsrl.model import (
    BASIC,
    PGN,
    ModelConfig,
    ModelError,
    TrainingError,
    Vocabulary,
    encode_examples,
    gradient_check,
    init_model,
    loss_and_gradients,
    train,
)
from xsrl.model.network import TrainingExample, examples_from_corpus

from conftest import token_f1


def sentence(forms, pred, roles, lang="EN"):
    tokens = tuple(Token(i + 1, f, f, "NOUN") for i, f in enumerate(forms))
    return Sentence(tokens=tokens, lang=lang,
                    frames=(PredicateFrame(pred, "x.01", tuple(roles)),))


@pytest.fixture
def mixed_corpus():
    return Corpus.from_sentences([
        sentence(["a", "b", "c"], 2, [(1, "A0"), (3, "A1")]),
        sentence(["c", "a", "b"], 2, [(1, "A1")], lang="DE"),
    ])


def grad_config(variant, layers):
    return ModelConfig(word_dim=8, pos_dim=4, pred_dim=4, lang_dim=4, hidden=8,
                       layers=layers, variant=variant)


@pytest.mark.parametrize("variant", [BASIC, PGN])
@pytest.mark.parametrize("layers", [1, 3])
def test_gradient_check_all_tensors(mixed_corpus, variant, layers):
    model = init_model(grad_config(variant, layers),
                       Vocabulary.from_corpus(mixed_corpus), seed=11)
    example = examples_from_corpus(mixed_corpus)[0]
    assert len(example.labels) == 3
    error = gradient_check(model, [example], epsilon=1e-5, samples=220)
    assert error < 1e-4


def test_gradient_check_requires_float64(mixed_corpus):
    config = grad_config(BASIC, 1)
    config.dtype = "float32"
    model = init_model(config, Vocabulary.from_corpus(mixed_corpus), seed=1)
    example = examples_from_corpus(mixed_corpus)[0]
    with pytest.raises(ModelError, match="float64"):
        gradient_check(model, [example])


def test_saturated_example_has_zero_gradients(mixed_corpus):
    """With a single label every path is the gold path: loss and grads vanish."""
    single = Corpus.from_sentences([sentence(["a", "b"], 1, [(2, "A0")])])
    vocab = Vocabulary(words=("<unk>", "a", "b"), pos_tags=("NOUN", "_"),
                       labels=("A0",), languages=("EN",))
    model = init_model(grad_config(BASIC, 1), vocab, seed=2)
    example = TrainingExample(single.sentences[0], single.sentences[0].frames[0],
                              ("A0", "A0"))
    loss, grads = loss_and_gradients(model, encode_examples(model, [example]))
    assert abs(loss) < 1e-12
    for g in grads.values():
        assert np.max(np.abs(g)) < 1e-8
    assert gradient_check(model, [example], samples=50) < 1e-4


def test_overfit_small_corpus():
    rng = np.random.default_rng(0)
    sentences = []
    for i in range(12):
        forms = [f"w{rng.integers(6)}" for _ in range(4)]
        sentences.append(sentence(forms, 2, [(1, "A0"), (4, "A1")]))
    corpus = Corpus.from_sentences(sentences)
    config = ModelConfig(word_dim=12, pos_dim=4, pred_dim=4, hidden=24, layers=1,
                         variant=BASIC, learning_rate=0.01, batch_size=6, epochs=60)
    model, losses = train(corpus, config, seed=5)
    assert losses[-1] < losses[0]
    assert token_f1(model, corpus) >= 0.99


def test_training_determinism(mixed_corpus):
    config = grad_config(PGN, 1)
    config.epochs, config.batch_size, config.learning_rate = 4, 2, 0.01
    m1, losses1 = train(mixed_corpus, config, seed=9)
    m2, losses2 = train(mixed_corpus, config, seed=9)
    assert losses1 == losses2
    for name in m1.params:
        assert np.array_equal(m1.params[name], m2.params[name])
    _, losses3 = train(mixed_corpus, config, seed=10)
    assert losses1 != losses3


def test_zero_frame_corpus_errors():
    empty = Corpus.from_sentences([Sentence(tokens=(Token(1, "a"),), lang="EN")])
    with pytest.raises(ModelError, match="no predicate frames"):
        train(empty, grad_config(BASIC, 1))


def test_overfit_all_outside_frame_predicts_empty_args():
    from xsrl.model import predict

    sentences = [
        sentence(["p", "q", "r"], 1, [(2, "A0")]),
        sentence(["p", "s", "r"], 1, []),  # gold roles all outside
    ]
    corpus = Corpus.from_sentences(sentences)
    config = ModelConfig(word_dim=8, pos_dim=4, pred_dim=4, hidden=16, layers=1,
                         variant=BASIC, learning_rate=0.02, batch_size=2, epochs=80)
    model, _ = train(corpus, config, seed=3)
    (frame,), = predict(model, [(sentences[1], [1], "EN")])
    assert frame.args == ()
    (frame,), = predict(model, [(sentences[0], [1], "EN")])
    assert frame.args == ((2, "A0"),)


def test_float32_mode_trains():
    corpus = Corpus.from_sentences([sentence(["a", "b"], 1, [(2, "A0")])])
    config = grad_config(BASIC, 1)
    config.dtype, config.epochs, config.batch_size = "float32", 2, 1
    model, losses = train(corpus, config, seed=1)
    assert model.params["bilstm"].dtype == np.float32
    assert all(np.isfinite(loss) for loss in losses)


def test_frozen_word_table_stays_put(mixed_corpus):
    config = grad_config(BASIC, 1)
    config.epochs, config.batch_size, config.train_word_table = 2, 2, False
    vocab = Vocabulary.from_corpus(mixed_corpus)
    table = np.arange(len(vocab.words) * config.word_dim,
                      dtype=np.float64).reshape(len(vocab.words), -1)
    model, _ = train(mixed_corpus, config, seed=1, word_table=table, vocab=vocab)
    assert np.array_equal(model.params["word_table"], table)


PADDED_VOCAB = Vocabulary(words=("<unk>", *"abcde"), pos_tags=("NOUN", "VERB", "_"),
                          labels=("A0", "A1", "O"), languages=("DE", "EN"))


def padded_corpus():
    """Mixed-language sentences of lengths 1 to 6, one with two frames."""
    return Corpus.from_sentences([
        sentence(["a", "b", "c", "d", "e"], 2, [(1, "A0"), (4, "A1")]),
        sentence(["c"], 1, [], lang="DE"),
        sentence(["b", "a", "c"], 3, [(2, "A1")], lang="DE"),
        Sentence(tokens=tuple(Token(i + 1, f, f, "VERB") for i, f in enumerate("abcdea")),
                 lang="EN", frames=(PredicateFrame(1, "x.01", ((3, "A0"),)),
                                    PredicateFrame(5, "y.01", ((6, "A1"), (2, "A0"))))),
        sentence(["e", "d"], 1, [(2, "A0")], lang="DE"),
    ])


def padded_batch():
    """Mixed-language examples of lengths 1 to 6, several per sentence."""
    return examples_from_corpus(padded_corpus())


@pytest.mark.parametrize("variant", [BASIC, PGN])
@pytest.mark.parametrize("layers", [1, 2])
def test_batch_equals_sum_of_batches_of_one(variant, layers):
    batch = padded_batch()
    assert len({len(ex.labels) for ex in batch}) > 2
    assert {ex.sentence.lang for ex in batch} == {"EN", "DE"}
    model = init_model(grad_config(variant, layers), PADDED_VOCAB, seed=4)
    data = encode_examples(model, batch)
    loss, grads = loss_and_gradients(model, data)
    singles = [loss_and_gradients(model, data, [i]) for i in range(len(batch))]
    assert loss == pytest.approx(sum(l for l, _ in singles), abs=1e-12)
    for name, g in grads.items():
        summed = sum(single[name] for _, single in singles)
        np.testing.assert_allclose(g, summed, rtol=0, atol=1e-12, err_msg=name)


@pytest.mark.parametrize("variant", [BASIC, PGN])
@pytest.mark.parametrize("layers", [1, 3])
def test_gradient_check_padded_mixed_language_batch(variant, layers):
    batch = padded_batch()
    model = init_model(grad_config(variant, layers), PADDED_VOCAB, seed=12)
    assert gradient_check(model, batch, epsilon=1e-5, samples=220) < 1e-4


UNEQUAL_VOCAB = Vocabulary(words=("<unk>", *"abcde"), pos_tags=("NOUN", "VERB", "_"),
                           labels=("A0", "A1", "O"), languages=("DE", "EN", "FR"))


def unequal_groups_batch():
    """Interleaved languages: the EN group's longest sentence is shorter
    than the DE group's, and FR is a one-row group."""
    return examples_from_corpus(Corpus.from_sentences([
        sentence(["a", "b", "c", "d", "e", "a"], 2, [(1, "A0"), (6, "A1")], lang="DE"),
        sentence(["b", "c"], 1, [(2, "A1")]),
        sentence(["e", "d", "c", "b"], 4, [(1, "A0")], lang="FR"),
        sentence(["c", "a", "b"], 3, [(1, "A0"), (2, "A1")]),
        sentence(["d"], 1, [], lang="DE"),
    ]))


@pytest.mark.parametrize("variant", [BASIC, PGN])
@pytest.mark.parametrize("layers", [1, 2])
def test_unequal_language_groups_equal_batches_of_one(variant, layers):
    batch = unequal_groups_batch()
    lengths = {lang: [len(ex.labels) for ex in batch if ex.sentence.lang == lang]
               for lang in UNEQUAL_VOCAB.languages}
    assert max(lengths["EN"]) < max(lengths["DE"]) and len(lengths["FR"]) == 1
    model = init_model(grad_config(variant, layers), UNEQUAL_VOCAB, seed=6)
    data = encode_examples(model, batch)
    loss, grads = loss_and_gradients(model, data)
    singles = [loss_and_gradients(model, data, [i]) for i in range(len(batch))]
    assert loss == pytest.approx(sum(l for l, _ in singles), abs=1e-12)
    for name, g in grads.items():
        summed = sum(single[name] for _, single in singles)
        np.testing.assert_allclose(g, summed, rtol=0, atol=1e-12, err_msg=name)
    # padding indexes the <unk> row; no real token is unknown
    assert not np.any(data.ids[:, 0] == 0)
    assert not grads["word_table"][0].any()
    assert gradient_check(model, batch, epsilon=1e-5, samples=220) < 1e-4


def test_training_encodes_the_corpus_once(monkeypatch):
    corpus = padded_corpus()
    calls = []
    word_id = Vocabulary.word_id

    def counting_word_id(self, form):
        calls.append(form)
        return word_id(self, form)

    monkeypatch.setattr(Vocabulary, "word_id", counting_word_id)
    config = grad_config(PGN, 1)
    config.epochs, config.batch_size = 3, 2
    train(corpus, config, seed=1)
    assert len(calls) == sum(len(ex.labels) for ex in examples_from_corpus(corpus))


def test_frozen_word_table_has_no_gradient(mixed_corpus):
    config = grad_config(BASIC, 1)
    config.train_word_table = False
    model = init_model(config, Vocabulary.from_corpus(mixed_corpus), seed=1)
    _, grads = loss_and_gradients(model, encode_examples(model, examples_from_corpus(mixed_corpus)))
    assert "word_table" not in grads
    assert set(grads) == set(model.params) - {"word_table"}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_loss_stops_training(mixed_corpus, bad):
    config = grad_config(PGN, 1)
    config.epochs, config.batch_size = 2, 1
    vocab = Vocabulary.from_corpus(mixed_corpus)
    table = np.full((len(vocab.words), config.word_dim), bad)
    with pytest.raises(TrainingError, match="epoch 1, batch 1"):
        train(mixed_corpus, config, seed=1, word_table=table, vocab=vocab)


def test_memory_preflight_refuses_default_model(mixed_corpus, monkeypatch):
    from xsrl.model import training

    def no_allocation(*args, **kwargs):
        raise AssertionError("the preflight must run before any allocation")

    monkeypatch.setattr(training, "_physical_memory", lambda: 8 * 2**30)
    monkeypatch.setattr(training, "init_model", no_allocation)
    with pytest.raises(ModelError, match=r"about 2\d\.\d GiB .*--hidden, --layers"):
        train(mixed_corpus, ModelConfig())
    training._check_memory(grad_config(PGN, 3), Vocabulary.from_corpus(mixed_corpus))


def reference_adam_step(state, params, grads, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """The per-tensor in-place Adam step, one pass over each whole tensor."""
    state["step"] += 1
    bias2_root = math.sqrt(1.0 - beta2 ** state["step"])
    rate = lr * bias2_root / (1.0 - beta1 ** state["step"])
    eps_hat = eps * bias2_root
    for name in sorted(grads):
        g, m, v = grads[name], state["m"][name], state["v"][name]
        m -= g
        m *= beta1
        m += g
        g *= g
        v -= g
        v *= beta2
        v += g
        np.sqrt(v, out=g)
        g += eps_hat
        np.divide(m, g, out=g)
        g *= rate
        params[name] -= g


def test_blocked_adam_matches_per_tensor_step():
    from xsrl.model.training import ADAM_BLOCK, _Adam
    rng = np.random.default_rng(3)
    shapes = {"big": (3, ADAM_BLOCK // 2 + 7), "small": (5, 4), "vector": (ADAM_BLOCK,)}
    params = {name: rng.normal(size=shape) for name, shape in shapes.items()}
    expected = {name: p.copy() for name, p in params.items()}
    state = {"step": 0, "m": {k: np.zeros_like(p) for k, p in params.items()},
             "v": {k: np.zeros_like(p) for k, p in params.items()}}
    adam = _Adam(params, learning_rate=0.01)
    for _ in range(4):
        grads = {name: rng.normal(size=shape) for name, shape in shapes.items()}
        reference_adam_step(state, expected, {k: g.copy() for k, g in grads.items()}, 0.01)
        adam.update(params, grads)
    assert shapes["big"][0] * shapes["big"][1] % ADAM_BLOCK
    for name in shapes:
        assert np.array_equal(params[name], expected[name])
        assert np.array_equal(adam.m[name], state["m"][name])
        assert np.array_equal(adam.v[name], state["v"][name])
