import math
import os
from dataclasses import replace

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
from xsrl.model.lstm import Inline
from xsrl.model.training import ADAM_BLOCK, _Adam

from conftest import token_f1, workspace_loss


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
    first = Corpus(mixed_corpus.sentences[:1])
    assert len(first.sentences[0].tokens) == 3
    error = gradient_check(model, first, samples=220)
    assert error < 1e-4


@pytest.mark.parametrize("variant", [BASIC, PGN])
def test_gradient_check_perturbs_the_training_workspace(mixed_corpus, monkeypatch, variant):
    """gradient_check builds the training workspace once; its first loss
    sees the parameters as built, and every later one sees exactly one
    coordinate of the flat parameter buffer moved, through the views
    that Adam steps."""
    from xsrl.model import training

    built, moved = [], []
    workspace, loss_and_grads = training._workspace, training.loss_and_gradients

    def recording_workspace(model):
        result = workspace(model)
        built.append((result[0], result[0].copy()))
        return result

    def recording_loss(model, data, rows, tensors, runner):
        params, start = built[-1]
        assert all(np.shares_memory(model.params[name], params) for name in tensors)
        moved.append(int(np.count_nonzero(params != start)))
        return loss_and_grads(model, data, rows, tensors, runner)

    monkeypatch.setattr(training, "_workspace", recording_workspace)
    monkeypatch.setattr(training, "loss_and_gradients", recording_loss)
    model = init_model(grad_config(variant, 1), Vocabulary.from_corpus(mixed_corpus), seed=11)
    assert gradient_check(model, Corpus(mixed_corpus.sentences[:1]), samples=30) < 1e-4
    assert len(built) == 1
    assert moved[0] == 0 and len(moved) > 60 and set(moved[1:]) == {1}


def test_saturated_example_has_zero_gradients(mixed_corpus):
    """With a single label every path is the gold path: loss and grads vanish.
    The frame's arguments cover every token, its predicate's own included,
    so every gold label is A0."""
    single = Corpus.from_sentences([sentence(["a", "b"], 1, [(1, "A0"), (2, "A0")])])
    vocab = Vocabulary(words=("<unk>", "a", "b"), pos_tags=("NOUN", "_"),
                       labels=("A0",), languages=("EN",))
    model = init_model(grad_config(BASIC, 1), vocab, seed=2)
    data = encode_examples(model, single)
    assert data.labels.tolist() == [0, 0]
    loss, grads = workspace_loss(model, data)
    assert abs(loss) < 1e-12
    for g in grads.values():
        assert np.max(np.abs(g)) < 1e-8
    assert gradient_check(model, single, samples=50) < 1e-4


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
    (frame,) = predict(model, Corpus((sentences[1],))).sentences[0].frames
    assert frame.args == ()
    (frame,) = predict(model, Corpus((sentences[0],))).sentences[0].frames
    assert frame.args == ((2, "A0"),)


def test_frozen_word_table_stays_put(mixed_corpus):
    config = grad_config(BASIC, 1)
    config.epochs, config.batch_size = 2, 2
    words = list(Vocabulary.from_corpus(mixed_corpus).words[1:])  # all but <unk>
    table = np.arange(len(words) * config.word_dim,
                      dtype=np.float64).reshape(len(words), -1)
    model, _ = train(mixed_corpus, config, seed=1, embeddings=(words, table))
    assert np.array_equal(model.params["word_table"],
                          np.vstack([np.zeros((1, config.word_dim)), table]))
    # the table freezes the model's copy of the config, not the caller's
    assert config.train_word_table and not model.config.train_word_table


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


@pytest.mark.parametrize("variant", [BASIC, PGN])
@pytest.mark.parametrize("layers", [1, 2])
def test_batch_equals_sum_of_batches_of_one(variant, layers):
    corpus = padded_corpus()
    assert len({len(s.tokens) for s in corpus.sentences}) > 2
    assert {s.lang for s in corpus.sentences} == {"EN", "DE"}
    model = init_model(grad_config(variant, layers), PADDED_VOCAB, seed=4)
    data = encode_examples(model, corpus)
    loss, grads = workspace_loss(model, data)
    singles = [workspace_loss(model, data, [i]) for i in range(len(data))]
    assert loss == pytest.approx(sum(l for l, _ in singles), abs=1e-12)
    for name, g in grads.items():
        summed = sum(single[name] for _, single in singles)
        np.testing.assert_allclose(g, summed, rtol=0, atol=1e-12, err_msg=name)


@pytest.mark.parametrize("variant", [BASIC, PGN])
@pytest.mark.parametrize("layers", [1, 3])
def test_gradient_check_padded_mixed_language_batch(variant, layers):
    model = init_model(grad_config(variant, layers), PADDED_VOCAB, seed=12)
    assert gradient_check(model, padded_corpus(), samples=220) < 1e-4


UNEQUAL_VOCAB = Vocabulary(words=("<unk>", *"abcde"), pos_tags=("NOUN", "VERB", "_"),
                           labels=("A0", "A1", "O"), languages=("DE", "EN", "FR"))


def unequal_groups_corpus():
    """Interleaved languages: the EN group's longest sentence is shorter
    than the DE group's, and FR is a one-row group."""
    return Corpus.from_sentences([
        sentence(["a", "b", "c", "d", "e", "a"], 2, [(1, "A0"), (6, "A1")], lang="DE"),
        sentence(["b", "c"], 1, [(2, "A1")]),
        sentence(["e", "d", "c", "b"], 4, [(1, "A0")], lang="FR"),
        sentence(["c", "a", "b"], 3, [(1, "A0"), (2, "A1")]),
        sentence(["d"], 1, [], lang="DE"),
    ])


@pytest.mark.parametrize("variant", [BASIC, PGN])
@pytest.mark.parametrize("layers", [1, 2])
def test_unequal_language_groups_equal_batches_of_one(variant, layers):
    corpus = unequal_groups_corpus()
    lengths = {lang: [len(s.tokens) for s in corpus.sentences if s.lang == lang]
               for lang in UNEQUAL_VOCAB.languages}
    assert max(lengths["EN"]) < max(lengths["DE"]) and len(lengths["FR"]) == 1
    model = init_model(grad_config(variant, layers), UNEQUAL_VOCAB, seed=6)
    data = encode_examples(model, corpus)
    loss, grads = workspace_loss(model, data)
    singles = [workspace_loss(model, data, [i]) for i in range(len(data))]
    assert loss == pytest.approx(sum(l for l, _ in singles), abs=1e-12)
    for name, g in grads.items():
        summed = sum(single[name] for _, single in singles)
        np.testing.assert_allclose(g, summed, rtol=0, atol=1e-12, err_msg=name)
    # padding indexes the <unk> row; no real token is unknown
    assert not np.any(data.ids[:, 0] == 0)
    assert not grads["word_table"][0].any()
    assert gradient_check(model, corpus, samples=220) < 1e-4


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
    assert len(calls) == sum(len(s.tokens) * len(s.frames) for s in corpus.sentences)


def test_frozen_word_table_has_no_gradient(mixed_corpus):
    config = grad_config(BASIC, 1)
    config.train_word_table = False
    model = init_model(config, Vocabulary.from_corpus(mixed_corpus), seed=1)
    _, grads = workspace_loss(model, encode_examples(model, mixed_corpus))
    assert "word_table" not in grads
    assert set(grads) == set(model.params) - {"word_table"}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_loss_stops_training(mixed_corpus, bad):
    config = grad_config(PGN, 1)
    config.epochs, config.batch_size = 2, 1
    words = list(Vocabulary.from_corpus(mixed_corpus).words[1:])  # all but <unk>
    table = np.full((len(words), config.word_dim), bad)
    with pytest.raises(TrainingError, match="epoch 1, batch 1"):
        train(mixed_corpus, config, seed=1, embeddings=(words, table))


def test_memory_preflight_refuses_default_model(mixed_corpus, monkeypatch):
    from xsrl import malloc
    from xsrl.model import training

    def no_allocation(*args, **kwargs):
        raise AssertionError("the preflight must run before any allocation")

    monkeypatch.setattr(malloc, "physical_memory", lambda: 8 * 2**30)
    monkeypatch.setattr(training, "init_model", no_allocation)
    with pytest.raises(ModelError, match=r"about 2\d\.\d GiB .*--hidden, --layers"):
        train(mixed_corpus, ModelConfig())
    training._check_memory(grad_config(PGN, 3), Vocabulary.from_corpus(mixed_corpus))


@pytest.mark.parametrize("variant", [BASIC, PGN])
def test_training_peak_memory_is_the_preflight_estimate(toy_dir, monkeypatch, variant):
    """At a size where the parameters dominate the activations, the
    tracemalloc peak of train, plus the shared mapping of its workspace,
    which tracemalloc does not see, is what the preflight counts, give or
    take half a parameter copy of activations."""
    import tracemalloc

    from xsrl.corpus import parse_srl_corpus
    from xsrl.model import lstm, training
    from xsrl.model.network import training_shapes

    files = [("en_srl.conllu", "EN")] + ([("de_dev.conllu", "DE")] if variant == PGN else [])
    corpus = Corpus.from_sentences(
        sent for name, lang in files
        for sent in parse_srl_corpus((toy_dir / name).read_text(encoding="utf-8"),
                                     default_lang=lang).sentences[:12])
    config = ModelConfig(word_dim=16, pos_dim=8, pred_dim=8, lang_dim=4, hidden=192,
                         layers=2, variant=variant, batch_size=2, epochs=1)
    vocab = Vocabulary.from_corpus(corpus)
    estimate = training._check_memory(config, vocab)
    trained, _, _ = training_shapes(config, vocab)
    copy = 8 * sum(math.prod(shape) for shape in trained.values())
    shared = []

    def recording_shared_array(size, dtype):
        array = lstm.shared_array(size, dtype)
        shared.append(array.nbytes)
        return array

    monkeypatch.setattr(training, "shared_array", recording_shared_array)
    tracemalloc.start()
    try:
        train(corpus, config, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(shared) == 1
    peak += shared[0]
    assert estimate <= peak <= estimate + copy / 2, (peak / copy, estimate / copy)


def test_frozen_word_table_is_held_once(toy_dir):
    """A large pretrained table on a small corpus: train holds the table it
    stacks (the unknown word's zero row on top) once, as the preflight
    counts it, not a second copy for the model."""
    import tracemalloc

    from xsrl.corpus import parse_srl_corpus
    from xsrl.model import training

    corpus = Corpus(parse_srl_corpus((toy_dir / "en_srl.conllu").read_text(encoding="utf-8"),
                                     default_lang="EN").sentences[:6])
    words = [f"w{i}" for i in range(40_025)]
    vectors = np.random.default_rng(0).random((len(words), 100))
    config = ModelConfig(pos_dim=4, pred_dim=4, hidden=8, layers=1, variant=BASIC,
                         batch_size=2, epochs=1)
    table = 8 * (len(words) + 1) * vectors.shape[1]
    estimate = training._check_memory(replace(config, word_dim=100, train_word_table=False),
                                      Vocabulary.from_corpus(corpus, words=words))
    tracemalloc.start()
    try:
        train(corpus, config, seed=1, embeddings=(words, vectors))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < estimate + table / 2, (peak / table, estimate / table)


@pytest.mark.parametrize("variant,train_word_table", [(BASIC, True), (PGN, True), (PGN, False)])
def test_workspace_reuse_matches_fresh_buffers(variant, train_word_table):
    """Two batches with disjoint rows into one training workspace that
    starts out full of NaN: each gives the loss and gradients of a new
    workspace.  The first batch has three PGN language groups, the second
    one, and rows the second does not touch (words a and b, the EN and FR
    language rows) must not keep the first batch's values."""
    from xsrl.model import training

    corpus = Corpus.from_sentences([
        sentence(["a", "b", "c"], 2, [(1, "A0"), (3, "A1")]),
        sentence(["c", "d"], 1, [(2, "A1")], lang="DE"),
        sentence(["e", "a", "f", "b"], 3, [(1, "A0")], lang="FR"),
        sentence(["f", "e"], 2, [(1, "A1")], lang="DE"),
        sentence(["d", "d", "c"], 1, [(3, "A0")], lang="DE"),
    ])
    config = grad_config(variant, 2)
    config.train_word_table = train_word_table
    model = init_model(config, Vocabulary.from_corpus(corpus), seed=4)
    data = encode_examples(model, corpus)
    _, grad, tensors, flats, d_flats = training._workspace(model)
    grad.fill(np.nan)
    if variant == PGN:
        # BASIC's recurrent rows are the parameter and gradient views themselves
        flats.fill(np.nan)
        d_flats.fill(np.nan)
    runner = Inline(config.lstm_spec(), flats, d_flats)
    for rows in ([0, 1, 2], [3, 4]):
        loss = loss_and_gradients(model, data, rows, tensors, runner)
        fresh_loss, fresh = workspace_loss(model, data, rows)
        assert loss == fresh_loss
        assert list(tensors) == list(fresh)
        assert ("word_table" in tensors) == train_word_table
        for name in fresh:
            assert np.array_equal(tensors[name], fresh[name]), name


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
    """The flat optimiser, stepped in blocks, against one whole-tensor step
    per tensor: block boundaries fall inside a tensor and between two."""
    from xsrl.model.training import _views
    rng = np.random.default_rng(3)
    shapes = {"big": (2, ADAM_BLOCK // 2 + 3), "small": (5, 4),
              "vector": (ADAM_BLOCK - 26,), "tail": (3,)}
    offsets = np.cumsum([0, *(math.prod(shape) for shape in shapes.values())])
    assert offsets[1] > ADAM_BLOCK  # the first boundary falls inside "big"
    assert offsets[3] == 2 * ADAM_BLOCK  # the second between "vector" and "tail"
    flat = rng.normal(size=offsets[-1])
    expected = {name: p.copy() for name, p in _views(flat, shapes).items()}
    state = {"step": 0, "m": {k: np.zeros_like(p) for k, p in expected.items()},
             "v": {k: np.zeros_like(p) for k, p in expected.items()}}
    adam = _Adam(flat, learning_rate=0.01)
    for _ in range(4):
        grad = rng.normal(size=flat.shape)
        reference_adam_step(state, expected,
                            {k: g.copy() for k, g in _views(grad, shapes).items()}, 0.01)
        adam.update(flat, grad)
    for name in shapes:
        assert np.array_equal(_views(flat, shapes)[name], expected[name])
        assert np.array_equal(_views(adam.m, shapes)[name], state["m"][name])
        assert np.array_equal(_views(adam.v, shapes)[name], state["v"][name])


@pytest.mark.parametrize("shapes", [
    {"big": (3, ADAM_BLOCK // 2 + 5), "vector": (ADAM_BLOCK + 11,), "tail": (7,)},
    {"odd": (2 * ADAM_BLOCK + 2001,)},
    {"small": (31, 17), "tail": (3,)},
], ids=["inside a tensor", "odd size", "under one block"])
def test_split_adam_matches_one_step(shapes):
    """Two optimizers over the halves that train splits the vector into,
    against one over the whole vector: the parameters and both moments
    agree bit for bit after four steps.  The split falls inside a tensor
    and off every ADAM_BLOCK edge."""
    rng = np.random.default_rng(5)
    sizes = [math.prod(shape) for shape in shapes.values()]
    size = sum(sizes)
    split = size // 2
    assert split % ADAM_BLOCK and split not in np.cumsum(sizes)
    flat = rng.normal(size=size)
    whole_params = flat.copy()
    whole = _Adam(whole_params, learning_rate=0.01)
    head, tail = _Adam(flat[:split], learning_rate=0.01), _Adam(flat[split:], learning_rate=0.01)
    for _ in range(4):
        # gradients spread over several orders of magnitude
        grad = rng.normal(size=size) * 10.0 ** rng.integers(-6, 3, size=size)
        whole.update(whole_params, grad.copy())
        tail.update(flat[split:], grad[split:])
        head.update(flat[:split], grad[:split])
    assert flat.tobytes() == whole_params.tobytes()
    assert np.concatenate([head.m, tail.m]).tobytes() == whole.m.tobytes()
    assert np.concatenate([head.v, tail.v]).tobytes() == whole.v.tobytes()


@pytest.mark.skipif(not os.path.exists("/proc/self/statm"), reason="needs /proc/self/statm")
def test_adam_moments_stay_unwritten_until_stepped():
    """Building an optimizer writes none of its moments' pages: in training
    the partner owns the tail's moments, and the main process must not keep
    them resident."""
    def resident_bytes():
        with open("/proc/self/statm") as fh:
            return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")

    params = np.zeros(2 ** 23)
    before = resident_bytes()
    adam = _Adam(params, learning_rate=0.01)
    grown = resident_bytes() - before
    assert grown < (adam.m.nbytes + adam.v.nbytes) / 4, grown
