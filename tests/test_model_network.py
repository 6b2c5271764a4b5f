import inspect
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
    pgn_params,
    predict,
    similarity_csv,
)
from xsrl.model.lstm import Inline, LstmSpec, bilstm_backward, bilstm_forward
from xsrl.model.network import (
    PREDICT_ROWS,
    _embed,
    _language_groups,
    _pad,
    _recurrent_vector,
)

from conftest import (assert_frozen_pgn_equals_basic, batch_of_one, freeze_onto,
                      workspace_loss)


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
    with pytest.raises(ModelError, match="hidden must be >= 1, got 0"):
        ModelConfig(hidden=0)
    with pytest.raises(ModelError, match="batch_size must be >= 1, got 0"):
        ModelConfig(batch_size=0)
    with pytest.raises(ModelError, match="epochs must be >= 1, got -1"):
        ModelConfig(epochs=-1)
    with pytest.raises(ModelError, match="lang_dim must be >= 1, got 0"):
        ModelConfig(lang_dim=0)
    ModelConfig(lang_dim=0, variant="basic")
    for bad in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ModelError, match="learning_rate must be a finite number > 0"):
            ModelConfig(learning_rate=bad)


def test_gold_labels_are_the_frame_roles(corpus):
    model = init_model(small_config(), Vocabulary.from_corpus(corpus), seed=0)
    data = encode_examples(model, corpus)
    assert len(data) == 2
    labels = [model.vocab.labels[i] for i in data.labels]
    assert labels[:3] == ["A0", "O", "A1"]
    assert labels[3:] == ["O", "A1"]
    assert encode_examples(model, corpus, gold=False).labels.size == 0


def test_feature_shape_and_indicator(corpus):
    model = init_model(small_config(), Vocabulary.from_corpus(corpus), seed=0)
    data = encode_examples(model, corpus)
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
    sent = replace(corpus.sentences[0],
                   frames=tuple(PredicateFrame(p, "x.01") for p in (1, 2)))
    data = encode_examples(model, Corpus((sent,)))
    x1, x2 = data.ids[:3], data.ids[3:]
    np.testing.assert_array_equal(x1[:, :2], x2[:, :2])
    assert x1[:, 2].tolist() == [1, 0, 0] and x2[:, 2].tolist() == [0, 1, 0]


def test_oov_maps_to_unknown_row(corpus):
    model = init_model(small_config(), Vocabulary.from_corpus(corpus), seed=0)
    sent = make_sentence(["zzz", "a"], pred=1)
    data = encode_examples(model, Corpus((sent,)))
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
        two = Corpus((corpus.sentences[0], single))
        data = encode_examples(model, two)
        for rows in (None, [0], [1]):
            loss, grads = workspace_loss(model, data, rows)
            assert np.isfinite(loss) and loss > 0
            assert {name: g.shape for name, g in grads.items()} == {
                name: p.shape for name, p in model.params.items()}
            assert all(np.all(np.isfinite(g)) for g in grads.values())
        assert grads["crf_emission"].shape == (len(vocab.labels), 10)
        predicted = predict(model, two).sentences
        assert [[f.pred_index for f in s.frames] for s in predicted] == [[2], [1]]
        assert predicted[1].frames[0].args == ()


def test_unknown_language_errors(corpus):
    model = init_model(small_config(PGN), Vocabulary.from_corpus(corpus), seed=1)
    english = Corpus(corpus.sentences[:1])
    finnish = Corpus((replace(english.sentences[0], lang="FI"),))
    with pytest.raises(ModelError, match="unknown language"):
        predict(model, finnish)
    # BASIC ignores the language entirely
    basic = init_model(small_config(BASIC), Vocabulary.from_corpus(corpus), seed=1)
    assert (predict(basic, finnish).sentences[0].frames
            == predict(basic, english).sentences[0].frames)


def test_reversal_swaps_direction_trajectories():
    spec = LstmSpec(input_dim=4, hidden=3, layers=1)
    rng = np.random.default_rng(2)
    flat = rng.normal(size=spec.total_params)
    # tie the two directions' weights so the symmetry is exact
    (f_views, b_views), = spec.views(flat)
    for fv, bv in zip(f_views, b_views):
        bv[...] = fv
    x = rng.normal(size=(6, 4))
    runner, whole = Inline(spec, [flat]), [(0, slice(None))]
    h_fwd_of_reversed, _ = bilstm_forward(runner, whole, *batch_of_one(x[::-1]))
    h, _ = bilstm_forward(runner, whole, *batch_of_one(x))
    np.testing.assert_allclose(h_fwd_of_reversed[:, 0, :3], h[::-1, 0, 3:], atol=1e-12)


def test_distinct_language_embeddings_distinct_states(corpus):
    model = init_model(small_config(PGN), Vocabulary.from_corpus(corpus), seed=3)
    sent = corpus.sentences[0]
    as_de = replace(sent, lang="DE")
    loss_en, grads_en = workspace_loss(model, encode_examples(model, Corpus((sent,))))
    loss_de, grads_de = workspace_loss(model, encode_examples(model, Corpus((as_de,))))
    assert loss_en != loss_de
    # the emission gradient is d_emissions^T @ states: it sees the states
    assert np.max(np.abs(grads_en["crf_emission"] - grads_de["crf_emission"])) > 1e-9


def test_frozen_pgn_equals_basic_bitwise(corpus):
    vocab = Vocabulary.from_corpus(corpus)
    basic = init_model(small_config(BASIC, layers=2), vocab, seed=4)
    pgn = freeze_onto(basic, init_model(small_config(PGN, layers=2, lang_dim=1), vocab, seed=5))
    for sentence in corpus.sentences:
        assert_frozen_pgn_equals_basic(basic, pgn, Corpus((sentence,)))


def test_model_level_crf_loss_two_paths(corpus):
    vocab = Vocabulary(words=("<unk>", "a"), pos_tags=("NOUN", "_"),
                       labels=("A0", "O"), languages=("EN",))
    model = init_model(small_config(BASIC, hidden=1), vocab, seed=0)
    model.params["crf_emission"] = np.array([[1.0, 0.0], [0.0, 1.0]])
    model.params["crf_transition"] = np.zeros((4, 4))
    states = np.array([[2.0, 3.0]])  # n=1, 2*hidden=2
    scores = states[0] @ model.params["crf_emission"].T
    expected = -np.log(np.exp(scores[0]) / np.exp(scores).sum())
    emissions, labels, lengths = batch_of_one(states @ model.params["crf_emission"].T,
                                              [vocab.label_id("A0")])
    loss, _, _ = crf.nll_gradients(emissions, model.params["crf_transition"],
                                   labels, lengths)
    assert loss == pytest.approx(expected, abs=1e-12)


def test_predict_contract(corpus):
    model = init_model(small_config(BASIC), Vocabulary.from_corpus(corpus), seed=6)
    sent = corpus.sentences[0]
    (frame,) = predict(model, Corpus((sent,))).sentences[0].frames
    assert frame.pred_index == 2
    assert frame.sense == "x.01"
    assert all(1 <= a <= 3 and a != 2 for a, _ in frame.args)
    with pytest.raises(ModelError, match="predicate index"):
        predict(model, Corpus((replace(sent, frames=(PredicateFrame(9, "x.01"),)),)))


def test_basic_forget_gate_bias_initialized():
    cfg = small_config(BASIC, layers=2)
    vocab = Vocabulary(words=("<unk>", "a"), pos_tags=("NOUN", "_"),
                       labels=("A0", "O"), languages=("EN",))
    model = init_model(cfg, vocab, seed=0)
    h = cfg.hidden
    for directions in cfg.lstm_spec().views(model.params["bilstm"]):
        for _, _, b in directions:
            np.testing.assert_array_equal(b[h:2 * h], np.ones(h))
            assert np.all(np.abs(np.delete(b, np.s_[h:2 * h])) <= 0.1)


def test_padded_batch_states_match_single_sequences():
    spec = LstmSpec(input_dim=4, hidden=3, layers=2)
    rng = np.random.default_rng(7)
    flat = rng.normal(size=spec.total_params)
    lengths = np.array([5, 1, 3, 5, 2])
    batch = rng.normal(size=(5, len(lengths), 4))
    runner, whole = Inline(spec, [flat]), [(0, slice(None))]
    states, _ = bilstm_forward(runner, whole, batch, lengths)
    inference, no_cache = bilstm_forward(runner, whole, batch, lengths, keep_cache=False)
    assert no_cache is None
    assert np.array_equal(inference, states)
    for b, n in enumerate(lengths):
        single, _ = bilstm_forward(runner, whole, *batch_of_one(batch[:n, b]))
        np.testing.assert_allclose(states[:n, b], single[:, 0], rtol=0, atol=1e-12)


def test_batched_predict_matches_one_predicate_at_a_time(corpus):
    sent = make_sentence(["a", "b", "c", "d", "b"], pred=2, roles=((1, "A0"),))
    sent = replace(sent, frames=(PredicateFrame(1), *sent.frames, PredicateFrame(5)))
    for variant in (BASIC, PGN):
        model = init_model(small_config(variant, layers=2),
                           Vocabulary.from_corpus(corpus), seed=8)
        frames = predict(model, Corpus((sent,))).sentences[0].frames
        assert frames == tuple(
            predict(model, Corpus((replace(sent, frames=(f,)),))).sentences[0].frames[0]
            for f in sent.frames)
        assert [f.sense for f in frames] == ["_", "x.01", "_"]
    bare = Corpus((replace(sent, frames=()),))
    assert predict(model, bare) == bare


def test_backward_writes_the_flat_gradient_into_out():
    """Each group's gradient lands in its own row of the runner's gradient
    vectors, whatever they held before."""
    spec = LstmSpec(input_dim=4, hidden=3, layers=2)
    rng = np.random.default_rng(9)
    flats = rng.normal(size=(2, spec.total_params))
    groups = [(0, slice(0, 2)), (1, slice(2, 3))]
    lengths = np.array([4, 2, 3])
    inputs = rng.normal(size=(4, 3, 4))
    stale = np.full((2, spec.total_params), np.nan)
    states, caches = bilstm_forward(Inline(spec, flats, stale), groups, inputs, lengths)
    d_out = rng.normal(size=states.shape) * (np.arange(4)[:, None] < lengths)[..., None]
    d_inputs = bilstm_backward(caches, d_out)
    assert np.isfinite(stale).all()
    buffer = np.zeros((3, spec.total_params))
    _, caches = bilstm_forward(Inline(spec, flats, buffer[1:]), groups, inputs, lengths)
    d_inputs_out = bilstm_backward(caches, d_out)
    assert np.array_equal(buffer[1:], stale)
    assert np.array_equal(d_inputs_out, d_inputs)
    assert not buffer[0].any()


def test_bilstm_forward_takes_inputs_third():
    # the benchmark tracer counts tokens from the third positional argument
    assert list(inspect.signature(bilstm_forward).parameters)[2] == "inputs"


def per_group_loss_and_gradients(model, data):
    """The loop the merged recurrence replaced: every language group runs
    the BiLSTM alone on its columns, trimmed to its longest sequence.
    Returns the loss, the gradients and every group's (T, B, 2H) states,
    zero past the group's steps."""
    params, spec = model.params, model.config.lstm_spec()
    emission_w = params["crf_emission"]
    k, width = emission_w.shape
    grads = {name: np.zeros_like(params[name])
             for name in ("word_table", "pos_table", "pred_table")}
    rows = np.arange(len(data))
    rows = rows[np.argsort(data.langs[rows], kind="stable")]
    groups = _language_groups(data.langs[rows])
    ids, lengths, valid, tokens = _pad(data, rows)
    labels = np.zeros(valid.shape, dtype=np.intp)
    labels[valid] = data.labels[tokens]
    features = _embed(model, ids)
    states = np.zeros((*valid.shape, width))
    runs = []
    for lang_id, cols in groups:
        steps = int(lengths[cols].max())
        d_flat = np.empty(spec.total_params)
        runner = Inline(spec, [_recurrent_vector(model, lang_id)], [d_flat])
        group_states, caches = bilstm_forward(runner, [(0, slice(None))],
                                              features[:steps, cols], lengths[cols])
        states[:steps, cols] = group_states
        runs.append((cols, steps, d_flat, caches))
    loss, d_emissions, d_trans = crf.nll_gradients(
        states @ emission_w.T, params["crf_transition"], labels, lengths)
    grads["crf_emission"] = d_emissions.reshape(-1, k).T @ states.reshape(-1, width)
    grads["crf_transition"] = d_trans
    d_states = d_emissions @ emission_w
    d_features = np.zeros_like(features)
    d_flats = []
    for cols, steps, d_flat, caches in runs:
        d_features[:steps, cols] = bilstm_backward(caches, d_states[:steps, cols])
        d_flats.append(d_flat)
    offsets = np.cumsum([0, model.config.word_dim, model.config.pos_dim, model.config.pred_dim])
    for column, name in enumerate(("word_table", "pos_table", "pred_table")):
        np.add.at(grads[name], ids[valid][:, column],
                  d_features[valid][:, offsets[column]:offsets[column + 1]])
    lang_ids = [lang_id for lang_id, _ in groups]
    grads["w_pgn"] = np.array(d_flats).T @ params["lang_table"][lang_ids]
    grads["lang_table"] = np.zeros_like(params["lang_table"])
    for lang_id, d_flat in zip(lang_ids, d_flats):
        grads["lang_table"][lang_id] = params["w_pgn"].T @ d_flat
    return loss, grads, states, groups, lengths


@pytest.mark.parametrize("layers", [1, 2])
def test_merged_recurrence_matches_each_group_alone(layers):
    """Three PGN language groups: lengths 2-6 in one, a one-row group and a
    group whose longest sentence (4) is shorter than the batch's (6)."""
    vocab = Vocabulary(words=("<unk>", *"abcde"), pos_tags=("NOUN", "VERB", "_"),
                       labels=("A0", "A1", "O"), languages=("DE", "EN", "FR"))
    model = init_model(small_config(PGN, layers=layers), vocab, seed=14)
    rng = np.random.default_rng(15)
    for tensor in model.params.values():
        tensor[...] = rng.normal(size=tensor.shape) * 0.5
    sentences = []
    for lang, n in [("EN", 5), ("FR", 4), ("DE", 2), ("EN", 3), ("FR", 1), ("EN", 6),
                    ("EN", 2)]:
        forms = [str(f) for f in rng.choice(list("abcdef"), size=n)]
        roles = [str(r) for r in rng.choice(["A0", "A1", "O"], size=n)]
        # gold labels at every token, the predicate's own included
        sentences.append(make_sentence(forms, pred=1 + n // 2, lang=lang, roles=[
            (i, role) for i, role in enumerate(roles, start=1) if role != "O"]))
    data = encode_examples(model, Corpus(tuple(sentences)))
    loss, grads = workspace_loss(model, data)
    ref_loss, ref_grads, ref_states, groups, lengths = per_group_loss_and_gradients(model, data)
    assert [(lang, cols.stop - cols.start) for lang, cols in groups] == [(0, 1), (1, 4), (2, 2)]
    assert loss == ref_loss
    assert grads.keys() == ref_grads.keys()
    for name, grad in grads.items():
        assert np.array_equal(grad, ref_grads[name]), name
    rows = np.argsort(data.langs, kind="stable")
    ids, _, _, _ = _pad(data, rows)
    runner = Inline(model.config.lstm_spec(),
                    [_recurrent_vector(model, lang_id) for lang_id, _ in groups])
    states, _ = bilstm_forward(runner, [(key, cols) for key, (_, cols) in enumerate(groups)],
                               _embed(model, ids), lengths)
    for _, cols in groups:
        steps = int(lengths[cols].max())
        assert np.array_equal(states[:steps, cols], ref_states[:steps, cols])
    assert np.all(np.isfinite(states))


PREDICT_VOCAB = Vocabulary(words=("<unk>", *"abcde"), pos_tags=("NOUN", "VERB", "_"),
                           labels=("A0", "A1", "O"), languages=("DE", "EN"))


def predict_corpus():
    """Mixed EN/DE sentences: lengths 1 to 7, one without frames, frames
    without a sense or out of order, and more rows than one batch."""
    rng = np.random.default_rng(11)
    sentences = []
    for i in range(2 * PREDICT_ROWS):
        n = 1 + i % 7
        forms = [str(f) for f in rng.choice(list("abcdef"), size=n)]
        lang = ("EN", "DE")[i % 3 % 2]
        preds = sorted({int(p) for p in rng.integers(1, n + 1, size=1 + i % 3)})
        sent = make_sentence(forms, pred=preds[0], lang=lang)
        sentences.append(replace(sent, frames=(
            *sent.frames, *(PredicateFrame(p) for p in preds[1:]))))
    sentences.append(Sentence(tokens=make_sentence(["c", "a"]).tokens, lang="DE"))
    sentences.append(Sentence(tokens=make_sentence(["e", "b", "d"]).tokens, lang="EN",
                              frames=(PredicateFrame(3), PredicateFrame(1))))
    return Corpus(tuple(sentences))


def without_args(corpus):
    return [replace(s, frames=tuple(replace(f, args=()) for f in s.frames))
            for s in corpus.sentences]


@pytest.mark.parametrize("variant", [BASIC, PGN])
@pytest.mark.parametrize("layers", [1, 2])
def test_corpus_predict_matches_each_sentence_alone(variant, layers):
    corpus = predict_corpus()
    model = init_model(small_config(variant, layers=layers), PREDICT_VOCAB, seed=12)
    # unit-scale weights, so the untrained model's labels vary
    rng = np.random.default_rng(13)
    for tensor in model.params.values():
        tensor[...] = rng.normal(size=tensor.shape)
    for lang in ("EN", "DE"):
        assert sum(len(s.frames) for s in corpus.sentences if s.lang == lang) > PREDICT_ROWS
    predicted = predict(model, corpus).sentences
    assert predicted == tuple(predict(model, Corpus((s,))).sentences[0]
                              for s in corpus.sentences)
    # only the arguments change: tokens, language, frames and senses are kept
    assert without_args(Corpus(predicted)) == without_args(corpus)
    assert predict(model, Corpus(corpus.sentences[::-1])).sentences == predicted[::-1]
    assert predicted[-2].frames == ()
    assert [f.sense for f in predicted[-1].frames] == ["_", "_"]
    labelled = sum(len(f.args) for s in predicted for f in s.frames)
    assert 0 < labelled < sum(len(s.tokens) - 1 for s in predicted for _ in s.frames)


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
