import numpy as np
import pytest

from xsrl.corpus import Corpus, PredicateFrame, Sentence, Token
from xsrl.model import (
    BASIC,
    PGN,
    ModelConfig,
    ModelError,
    Vocabulary,
    build_features,
    encode,
    init_model,
    pgn_params,
    predict,
    viterbi_decode,
)
from xsrl.model.lstm import LstmSpec, bilstm_forward
from xsrl.model.network import TrainingExample, examples_from_corpus


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


def test_examples_from_corpus(corpus):
    examples = examples_from_corpus(corpus)
    assert len(examples) == 2
    assert examples[0].labels == ("A0", "O", "A1")
    assert examples[1].labels == ("O", "A1")


def test_feature_shape_and_indicator(corpus):
    model = init_model(small_config(), Vocabulary.from_corpus(corpus), seed=0)
    examples = examples_from_corpus(corpus)
    x = build_features(model, examples[0])
    assert x.shape == (3, 6 + 3 + 3)
    table = model.params["pred_table"]
    np.testing.assert_array_equal(x[1, 9:], table[1])
    np.testing.assert_array_equal(x[0, 9:], table[0])


def test_feature_dim_arithmetic():
    cfg = ModelConfig(word_dim=300, pos_dim=100, pred_dim=100)
    assert cfg.feature_dim == 500


def test_indicator_only_difference(corpus):
    model = init_model(small_config(), Vocabulary.from_corpus(corpus), seed=0)
    sent = corpus.sentences[0]
    ex1 = TrainingExample(sent, PredicateFrame(1, "x.01"), ())
    ex2 = TrainingExample(sent, PredicateFrame(2, "x.01"), ())
    x1, x2 = build_features(model, ex1), build_features(model, ex2)
    np.testing.assert_array_equal(x1[:, :9], x2[:, :9])
    assert not np.array_equal(x1[:, 9:], x2[:, 9:])


def test_oov_maps_to_unknown_row(corpus):
    model = init_model(small_config(), Vocabulary.from_corpus(corpus), seed=0)
    sent = make_sentence(["zzz"], pred=1)
    ex = TrainingExample(sent, sent.frames[0], ("O",))
    x = build_features(model, ex)
    np.testing.assert_array_equal(x[0, :6], model.params["word_table"][0])


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
    for variant in (BASIC, PGN):
        model = init_model(small_config(variant, layers=3), vocab, seed=1)
        ex = examples_from_corpus(corpus)[0]
        h = encode(model, build_features(model, ex), "EN")
        assert h.shape == (3, 10)
        assert np.all(np.isfinite(h))
        single = make_sentence(["a"], pred=1)
        ex1 = TrainingExample(single, single.frames[0], ("O",))
        h1 = encode(model, build_features(model, ex1), "EN")
        assert h1.shape == (1, 10)


def test_unknown_language_errors(corpus):
    model = init_model(small_config(PGN), Vocabulary.from_corpus(corpus), seed=1)
    ex = examples_from_corpus(corpus)[0]
    with pytest.raises(ModelError, match="unknown language"):
        encode(model, build_features(model, ex), "FI")
    # BASIC ignores the language entirely
    basic = init_model(small_config(BASIC), Vocabulary.from_corpus(corpus), seed=1)
    encode(basic, build_features(basic, ex), "FI")


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
    x = build_features(model, ex)
    h_en = encode(model, x, "EN")
    h_de = encode(model, x, "DE")
    assert np.max(np.abs(h_en - h_de)) > 1e-9


def test_frozen_pgn_equals_basic_bitwise(corpus):
    vocab = Vocabulary.from_corpus(corpus)
    basic = init_model(small_config(BASIC, layers=2), vocab, seed=4)
    cfg = small_config(PGN, layers=2, lang_dim=1)
    pgn = init_model(cfg, vocab, seed=5)
    for name in ("word_table", "pos_table", "pred_table", "crf_emission",
                 "crf_transition"):
        pgn.params[name] = basic.params[name].copy()
    pgn.params["lang_table"] = np.ones((len(vocab.languages), 1))
    pgn.params["w_pgn"] = basic.params["bilstm"][:, None].copy()
    for sent in corpus.sentences:
        ex = TrainingExample(sent, sent.frames[0], ())
        xb = build_features(basic, ex)
        xp = build_features(pgn, ex)
        hb = encode(basic, xb, sent.lang)
        hp = encode(pgn, xp, sent.lang)
        assert np.array_equal(hb, hp)
        assert viterbi_decode(basic, hb) == viterbi_decode(pgn, hp)


def test_model_level_crf_loss_two_paths(corpus):
    from xsrl.model import crf_neg_log_likelihood

    vocab = Vocabulary(words=("<unk>", "a"), pos_tags=("NOUN", "_"),
                       labels=("A0", "O"), languages=("EN",))
    model = init_model(small_config(BASIC, hidden=1), vocab, seed=0)
    model.params["crf_emission"] = np.array([[1.0, 0.0], [0.0, 1.0]])
    model.params["crf_transition"] = np.zeros((4, 4))
    states = np.array([[2.0, 3.0]])  # n=1, 2*hidden=2
    scores = states[0] @ model.params["crf_emission"].T
    expected = -np.log(np.exp(scores[0]) / np.exp(scores).sum())
    assert crf_neg_log_likelihood(model, states, ("A0",)) == pytest.approx(
        expected, abs=1e-12)


def test_predict_contract(corpus):
    model = init_model(small_config(BASIC), Vocabulary.from_corpus(corpus), seed=6)
    sent = corpus.sentences[0]
    frame, = predict(model, sent, [2], "EN")
    assert frame.pred_index == 2
    assert frame.sense == "x.01"
    assert all(1 <= a <= 3 and a != 2 for a, _ in frame.args)
    with pytest.raises(ModelError, match="predicate index"):
        predict(model, sent, [9], "EN")


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
    for b, n in enumerate(lengths):
        single, _ = bilstm_forward(spec, flat, batch[:n, b:b + 1])
        np.testing.assert_allclose(states[:n, b], single[:, 0], rtol=0, atol=1e-12)


def test_batched_predict_matches_one_predicate_at_a_time(corpus):
    sent = make_sentence(["a", "b", "c", "d", "b"], pred=2, roles=((1, "A0"),))
    for variant in (BASIC, PGN):
        model = init_model(small_config(variant, layers=2),
                           Vocabulary.from_corpus(corpus), seed=8)
        frames = predict(model, sent, [1, 2, 5], "EN")
        assert frames == tuple(predict(model, sent, [p], "EN")[0] for p in (1, 2, 5))
        assert [f.sense for f in frames] == ["_", "x.01", "_"]
    assert predict(model, sent, [], "EN") == ()
