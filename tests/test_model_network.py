from dataclasses import replace

import numpy as np
import pytest

from xsrl.corpus import Corpus, PredicateFrame, Sentence, Token
from xsrl.model import (
    BASIC,
    PGN,
    ModelConfig,
    ModelError,
    Vocabulary,
    crf,
    encode_examples,
    init_model,
    language_similarity,
    loss_and_gradients,
    pgn_params,
    predict,
    similarity_csv,
)
from xsrl.model.lstm import LstmSpec, bilstm_backward, bilstm_forward
from xsrl.model.network import PREDICT_ROWS, TrainingExample, examples_from_corpus

from conftest import assert_frozen_pgn_equals_basic, freeze_onto


def make_sentence(forms, pred=1, lang="EN", roles=None):
    tokens = tuple(Token(i + 1, f, f, "NOUN") for i, f in enumerate(forms))
    args = tuple((i, r) for i, r in (roles or ()))
    return Sentence(tokens=tokens, lang=lang,
                    frames=(PredicateFrame(pred, "x.01", args),))


def small_config(variant=BASIC, layers=1, **kw):
    defaults = dict(word_dim=6, pos_dim=3, pred_dim=3, lang_dim=4, hidden=5,
                    layers=layers, variant=variant)
    defaults.update(kw)
    return ModelConfig(**defaults)


@pytest.fixture
def corpus():
    return Corpus.from_sentences([
        make_sentence(["a", "b", "c"], pred=2, roles=((1, "A0"), (3, "A1"))),
        make_sentence(["b", "d"], pred=1, lang="DE", roles=((2, "A1"),)),
    ])


def test_config_validation():
    with pytest.raises(ModelError):
        ModelConfig(variant="fancy")
    with pytest.raises(ModelError):
        ModelConfig(hidden=0)
    for bad in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ModelError, match="clip_norm must be"):
            ModelConfig(clip_norm=bad)
    ModelConfig(clip_norm=0.0)


def test_examples_from_corpus(corpus):
    examples = examples_from_corpus(corpus)
    assert len(examples) == 2
    assert examples[0].labels == ("A0", "O", "A1")
    assert examples[1].labels == ("O", "A1")


def test_feature_shape_and_indicator(corpus):
    model = init_model(small_config(), Vocabulary.from_corpus(corpus), seed=0)
    data = encode_examples(model, examples_from_corpus(corpus))
    assert data.ids.shape == (3 + 2, 3)
    assert data.offsets.tolist() == [0, 3, 5]
    vocab = model.vocab
    assert data.ids[:3].tolist() == [[vocab.word_id(f), vocab.pos_id("NOUN"), int(f == "b")]
                                     for f in "abc"]
    assert data.ids[3:, 2].tolist() == [1, 0]


def test_feature_dim_arithmetic():
    cfg = ModelConfig(word_dim=300, pos_dim=100, pred_dim=100)
    assert cfg.feature_dim == 500


def test_indicator_only_difference(corpus):
    model = init_model(small_config(), Vocabulary.from_corpus(corpus), seed=0)
    sent = corpus.sentences[0]
    data = encode_examples(model, [TrainingExample(sent, PredicateFrame(p, "x.01"), ("O",) * 3)
                                   for p in (1, 2)])
    x1, x2 = data.ids[:3], data.ids[3:]
    np.testing.assert_array_equal(x1[:, :2], x2[:, :2])
    assert x1[:, 2].tolist() == [1, 0, 0] and x2[:, 2].tolist() == [0, 1, 0]


def test_oov_maps_to_unknown_row(corpus):
    model = init_model(small_config(), Vocabulary.from_corpus(corpus), seed=0)
    sent = make_sentence(["zzz", "a"], pred=1)
    data = encode_examples(model, [TrainingExample(sent, sent.frames[0], ("O", "O"))])
    assert model.vocab.words[0] == "<unk>"
    assert model.vocab.word_id("a") != 0
    assert data.ids[:, 0].tolist() == [0, model.vocab.word_id("a")]


def test_pgn_zero_vector_and_linearity():
    rng = np.random.default_rng(0)
    w = rng.normal(size=(40, 4))
    assert np.all(pgn_params(w, np.zeros(4)) == 0.0)
    e1, e2 = rng.normal(size=4), rng.normal(size=4)
    a, b = 0.37, -1.25
    lhs = pgn_params(w, a * e1 + b * e2)
    rhs = a * pgn_params(w, e1) + b * pgn_params(w, e2)
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_pgn_column_of_ones():
    w = np.ones((7, 1))
    out = pgn_params(w, np.array([2.0]))
    np.testing.assert_array_equal(out, np.full(7, 2.0))


def test_pgn_dimension_mismatch():
    with pytest.raises(ModelError):
        pgn_params(np.ones((7, 2)), np.ones(3))


def test_encode_shapes(corpus):
    vocab = Vocabulary.from_corpus(corpus)
    single = make_sentence(["a"], pred=1)
    for variant in (BASIC, PGN):
        model = init_model(small_config(variant, layers=3), vocab, seed=1)
        examples = [examples_from_corpus(corpus)[0],
                    TrainingExample(single, single.frames[0], ("O",))]
        data = encode_examples(model, examples)
        for rows in (None, [0], [1]):
            loss, grads = loss_and_gradients(model, data, rows)
            assert np.isfinite(loss) and loss > 0
            assert {name: g.shape for name, g in grads.items()} == {
                name: p.shape for name, p in model.params.items()}
            assert all(np.all(np.isfinite(g)) for g in grads.values())
        assert grads["crf_emission"].shape == (len(vocab.labels), 10)
        frames = predict(model, [(ex.sentence, [ex.frame.pred_index], "EN")
                                 for ex in examples])
        assert [[f.pred_index for f in fs] for fs in frames] == [[2], [1]]
        assert frames[1][0].args == ()


def test_unknown_language_errors(corpus):
    model = init_model(small_config(PGN), Vocabulary.from_corpus(corpus), seed=1)
    sent = corpus.sentences[0]
    with pytest.raises(ModelError, match="unknown language"):
        predict(model, [(sent, [2], "FI")])
    # BASIC ignores the language entirely
    basic = init_model(small_config(BASIC), Vocabulary.from_corpus(corpus), seed=1)
    assert predict(basic, [(sent, [2], "FI")]) == predict(basic, [(sent, [2], "EN")])


def test_reversal_swaps_direction_trajectories():
    spec = LstmSpec(input_dim=4, hidden=3, layers=1)
    rng = np.random.default_rng(2)
    flat = rng.normal(size=spec.total_params)
    # tie the two directions' weights so the symmetry is exact
    (f_views, b_views), = spec.views(flat)
    for fv, bv in zip(f_views, b_views):
        bv[...] = fv
    x = rng.normal(size=(6, 4))
    h_fwd_of_reversed, _ = bilstm_forward(spec, flat, x[::-1, None])
    h, _ = bilstm_forward(spec, flat, x[:, None])
    np.testing.assert_allclose(h_fwd_of_reversed[:, 0, :3], h[::-1, 0, 3:], atol=1e-12)


def test_distinct_language_embeddings_distinct_states(corpus):
    model = init_model(small_config(PGN), Vocabulary.from_corpus(corpus), seed=3)
    ex = examples_from_corpus(corpus)[0]
    as_de = replace(ex, sentence=replace(ex.sentence, lang="DE"))
    loss_en, grads_en = loss_and_gradients(model, encode_examples(model, [ex]))
    loss_de, grads_de = loss_and_gradients(model, encode_examples(model, [as_de]))
    assert loss_en != loss_de
    # the emission gradient is d_emissions^T @ states: it sees the states
    assert np.max(np.abs(grads_en["crf_emission"] - grads_de["crf_emission"])) > 1e-9


def test_frozen_pgn_equals_basic_bitwise(corpus):
    vocab = Vocabulary.from_corpus(corpus)
    basic = init_model(small_config(BASIC, layers=2), vocab, seed=4)
    pgn = freeze_onto(basic, init_model(small_config(PGN, layers=2, lang_dim=1), vocab, seed=5))
    for example in examples_from_corpus(corpus):
        assert_frozen_pgn_equals_basic(basic, pgn, [example])


def test_model_level_crf_loss_two_paths(corpus):
    vocab = Vocabulary(words=("<unk>", "a"), pos_tags=("NOUN", "_"),
                       labels=("A0", "O"), languages=("EN",))
    model = init_model(small_config(BASIC, hidden=1), vocab, seed=0)
    model.params["crf_emission"] = np.array([[1.0, 0.0], [0.0, 1.0]])
    model.params["crf_transition"] = np.zeros((4, 4))
    states = np.array([[2.0, 3.0]])  # n=1, 2*hidden=2
    scores = states[0] @ model.params["crf_emission"].T
    expected = -np.log(np.exp(scores[0]) / np.exp(scores).sum())
    emissions = states @ model.params["crf_emission"].T
    loss, _, _ = crf.nll_gradients(emissions, model.params["crf_transition"],
                                   [vocab.label_id("A0")])
    assert loss == pytest.approx(expected, abs=1e-12)


def test_predict_contract(corpus):
    model = init_model(small_config(BASIC), Vocabulary.from_corpus(corpus), seed=6)
    sent = corpus.sentences[0]
    (frame,), = predict(model, [(sent, [2], "EN")])
    assert frame.pred_index == 2
    assert frame.sense == "x.01"
    assert all(1 <= a <= 3 and a != 2 for a, _ in frame.args)
    with pytest.raises(ModelError, match="predicate index"):
        predict(model, [(sent, [9], "EN")])


def test_basic_forget_gate_bias_initialized():
    cfg = small_config(BASIC, layers=2)
    vocab = Vocabulary(words=("<unk>", "a"), pos_tags=("NOUN", "_"),
                       labels=("A0", "O"), languages=("EN",))
    model = init_model(cfg, vocab, seed=0)
    spec = cfg.lstm_spec()
    flat = model.params["bilstm"]
    for start, end in spec.forget_bias_offsets():
        np.testing.assert_array_equal(flat[start:end], np.ones(end - start))


def test_padded_batch_states_match_single_sequences():
    spec = LstmSpec(input_dim=4, hidden=3, layers=2)
    rng = np.random.default_rng(7)
    flat = rng.normal(size=spec.total_params)
    lengths = np.array([5, 1, 3, 5, 2])
    batch = rng.normal(size=(5, len(lengths), 4))
    states, _ = bilstm_forward(spec, flat, batch, lengths)
    inference, no_cache = bilstm_forward(spec, flat, batch, lengths, keep_cache=False)
    assert no_cache is None
    assert np.array_equal(inference, states)
    for b, n in enumerate(lengths):
        single, _ = bilstm_forward(spec, flat, batch[:n, b:b + 1])
        np.testing.assert_allclose(states[:n, b], single[:, 0], rtol=0, atol=1e-12)


def test_batched_predict_matches_one_predicate_at_a_time(corpus):
    sent = make_sentence(["a", "b", "c", "d", "b"], pred=2, roles=((1, "A0"),))
    for variant in (BASIC, PGN):
        model = init_model(small_config(variant, layers=2),
                           Vocabulary.from_corpus(corpus), seed=8)
        frames, = predict(model, [(sent, [1, 2, 5], "EN")])
        assert frames == tuple(predict(model, [(sent, [p], "EN")])[0][0] for p in (1, 2, 5))
        assert [f.sense for f in frames] == ["_", "x.01", "_"]
    assert predict(model, [(sent, [], "EN")]) == [()]


def test_backward_writes_the_flat_gradient_into_out():
    spec = LstmSpec(input_dim=4, hidden=3, layers=2)
    rng = np.random.default_rng(9)
    flat = rng.normal(size=spec.total_params)
    lengths = np.array([4, 2, 3])
    states, caches = bilstm_forward(spec, flat, rng.normal(size=(4, 3, 4)), lengths)
    d_out = rng.normal(size=states.shape) * (np.arange(4)[:, None] < lengths)[..., None]
    d_inputs, d_flat = bilstm_backward(spec, flat, caches, d_out)
    buffer = np.zeros((2, spec.total_params))
    d_inputs_out, d_flat_out = bilstm_backward(spec, flat, caches, d_out, out=buffer[1])
    assert np.shares_memory(d_flat_out, buffer[1])
    assert np.array_equal(buffer[1], d_flat)
    assert np.array_equal(d_inputs_out, d_inputs)
    assert not buffer[0].any()


PREDICT_VOCAB = Vocabulary(words=("<unk>", *"abcde"), pos_tags=("NOUN", "VERB", "_"),
                           labels=("A0", "A1", "O"), languages=("DE", "EN"))


def predict_requests():
    """Mixed EN/DE requests: lengths 1 to 7, a sentence without frames,
    predicate indices that are no frame's, and more rows than one batch."""
    rng = np.random.default_rng(11)
    requests = []
    for i in range(2 * PREDICT_ROWS):
        n = 1 + i % 7
        forms = [str(f) for f in rng.choice(list("abcdef"), size=n)]
        lang = ("EN", "DE")[i % 3 % 2]
        preds = sorted({int(p) for p in rng.integers(1, n + 1, size=1 + i % 3)})
        sent = make_sentence(forms, pred=preds[0], lang=lang)
        requests.append((sent, preds, lang))
    requests.append((Sentence(tokens=make_sentence(["c", "a"]).tokens, lang="DE"), [], "DE"))
    requests.append((Sentence(tokens=make_sentence(["e", "b", "d"]).tokens, lang="EN"),
                     [3, 1], "EN"))
    return requests


@pytest.mark.parametrize("variant", [BASIC, PGN])
@pytest.mark.parametrize("layers", [1, 2])
def test_corpus_predict_matches_each_request_alone(variant, layers):
    requests = predict_requests()
    model = init_model(small_config(variant, layers=layers), PREDICT_VOCAB, seed=12)
    # unit-scale weights, so the untrained model's labels vary
    rng = np.random.default_rng(13)
    for tensor in model.params.values():
        tensor[...] = rng.normal(size=tensor.shape)
    for lang in ("EN", "DE"):
        assert sum(len(p) for _, p, l in requests if l == lang) > PREDICT_ROWS
    frames = predict(model, requests)
    assert frames == [predict(model, [request])[0] for request in requests]
    assert [tuple(f.pred_index for f in fs) for fs in frames] == [
        tuple(preds) for _, preds, _ in requests]
    assert frames[::-1] == predict(model, requests[::-1])
    assert frames[-2] == ()
    assert [f.sense for f in frames[-1]] == ["_", "_"]
    labelled = sum(len(f.args) for fs in frames for f in fs)
    assert 0 < labelled < sum(len(s.tokens) - 1 for s, preds, _ in requests for _ in preds)


def make_pgn_model(n_langs):
    tokens = (Token(1, "a", "a", "NOUN"),)
    sentences = [
        Sentence(tokens=tokens, lang=f"L{i}",
                 frames=(PredicateFrame(1, "a.01"),))
        for i in range(n_langs)
    ]
    config = ModelConfig(word_dim=3, pos_dim=2, pred_dim=2, lang_dim=2, hidden=3,
                         layers=1, variant=PGN)
    return init_model(config, Vocabulary.from_corpus(
        Corpus.from_sentences(sentences)), seed=0)


def test_language_similarity_matrix():
    model = make_pgn_model(3)
    langs, matrix = language_similarity(model)
    assert matrix.shape == (3, 3)
    assert similarity_csv(model).splitlines()[0] == "lang," + ",".join(langs)
    np.testing.assert_allclose(matrix, matrix.T, atol=1e-12)
    np.testing.assert_array_equal(np.diag(matrix), np.zeros(3))
    model.params["lang_table"][0] = [0.0, 0.0]
    model.params["lang_table"][1] = [3.0, 4.0]
    _, matrix = language_similarity(model)
    assert matrix[0, 1] == pytest.approx(5.0, abs=1e-12)
    model.params["lang_table"][1] = model.params["lang_table"][0]
    _, matrix = language_similarity(model)
    assert matrix[0, 1] == 0.0


def test_language_similarity_triangle_inequality():
    model = make_pgn_model(5)
    rng = np.random.default_rng(8)
    model.params["lang_table"] = rng.normal(size=(5, 2))
    _, m = language_similarity(model)
    for i in range(5):
        for j in range(5):
            for k in range(5):
                assert m[i, j] <= m[i, k] + m[k, j] + 1e-12


def test_basic_variant_has_no_language_embeddings():
    config = ModelConfig(word_dim=3, pos_dim=2, pred_dim=2, hidden=3, layers=1,
                         variant=BASIC)
    vocab = Vocabulary(words=("<unk>",), pos_tags=("NOUN", "_"), labels=("O",),
                       languages=("EN",))
    model = init_model(config, vocab, seed=0)
    with pytest.raises(ModelError, match="no language embeddings"):
        language_similarity(model)
