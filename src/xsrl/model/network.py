"""The role labeler: feature embedding, language-conditioned BiLSTM, CRF.

Two variants share all code paths.  BASIC owns its recurrent parameters
as one flat trainable vector.  PGN derives that vector from the
sentence's language: a parameter-generation matrix maps the language
embedding to the full flattened BiLSTM weight block, so each language
gets its own encoder while sharing the generator.

Both entry points take a corpus; one row is one (sentence, predicate
frame) pair, and a single row is a batch of one.
:func:`loss_and_gradients` is the training path: it takes a corpus
encoded once into integer arrays by :func:`encode_examples`
(:class:`EncodedExamples`), orders a batch by language group (one per
language for PGN, one for BASIC) and pads it once, time-major; one
BiLSTM call runs every group on its own columns with its own generated
weight block, and the embedding, the CRF and their gradients run over
the whole batch.  :func:`predict` is the inference path: it relabels a
whole corpus at once, cutting each language group into forward-only
batches of sentences of similar length.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import dataclass, field, replace

import numpy as np

from ..corpus import UNIVERSAL_TAGS, Corpus, Sentence
from . import crf
from .lstm import Inline, LstmSpec, bilstm_backward, bilstm_forward, right_to_left_runner

__all__ = [
    "ModelError",
    "ModelConfig",
    "Vocabulary",
    "EncodedExamples",
    "SrlModel",
    "encode_examples",
    "init_model",
    "param_shapes",
    "training_shapes",
    "pgn_params",
    "language_similarity",
    "similarity_csv",
    "loss_and_gradients",
    "predict",
]

# Rows per forward-only prediction batch; it bounds predict's working set.
PREDICT_ROWS = 32

UNK = "<unk>"
OUTSIDE = "O"
BASIC = "basic"
PGN = "pgn"


class ModelError(ValueError):
    """Raised for invalid model configuration or inputs."""


@dataclass
class ModelConfig:
    word_dim: int = 300
    pos_dim: int = 100
    pred_dim: int = 100
    lang_dim: int = 32
    hidden: int = 650
    layers: int = 3
    variant: str = PGN
    learning_rate: float = 0.0005
    batch_size: int = 50
    epochs: int = 80
    train_word_table: bool = True

    def __post_init__(self):
        if self.variant not in (BASIC, PGN):
            raise ModelError(f"unknown variant {self.variant!r}")
        names = ("word_dim", "pos_dim", "pred_dim", "hidden", "layers", "batch_size", "epochs")
        for name in names + (("lang_dim",) if self.variant == PGN else ()):
            value = getattr(self, name)
            if value < 1:
                raise ModelError(f"{name} must be >= 1, got {value}")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ModelError(
                f"learning_rate must be a finite number > 0, got {self.learning_rate}")

    @property
    def feature_dim(self) -> int:
        return self.word_dim + self.pos_dim + self.pred_dim

    def lstm_spec(self) -> LstmSpec:
        return LstmSpec(input_dim=self.feature_dim, hidden=self.hidden, layers=self.layers)


@dataclass(frozen=True)
class Vocabulary:
    """String-to-index maps shared by training, decoding and checkpoints."""

    words: tuple[str, ...]
    pos_tags: tuple[str, ...]
    labels: tuple[str, ...]
    languages: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "_word_id", {w: i for i, w in enumerate(self.words)})
        object.__setattr__(self, "_pos_id", {p: i for i, p in enumerate(self.pos_tags)})
        object.__setattr__(self, "_label_id", {l: i for i, l in enumerate(self.labels)})
        object.__setattr__(self, "_lang_id", {l: i for i, l in enumerate(self.languages)})

    @classmethod
    def from_corpus(cls, corpus: Corpus, words: list[str] | None = None) -> "Vocabulary":
        """The corpus's labels and languages, and its sorted word forms or,
        given ``words``, those words in their order (a pretrained table's
        rows); the unknown word comes first."""
        if words is None:
            words = sorted({t.form for s in corpus.sentences for t in s.tokens})
        labels = sorted(set(corpus.role_inventory) | {OUTSIDE})
        langs = sorted({s.lang for s in corpus.sentences})
        return cls(
            words=(UNK, *words),
            pos_tags=(*sorted(UNIVERSAL_TAGS), "_"),
            labels=tuple(labels),
            languages=tuple(langs),
        )

    def word_id(self, form: str) -> int:
        return self._word_id.get(form, 0)

    def pos_id(self, upos: str) -> int:
        return self._pos_id.get(upos, self._pos_id["_"])

    def label_id(self, label: str) -> int:
        try:
            return self._label_id[label]
        except KeyError:
            raise ModelError(f"unknown role label {label!r}") from None

    def lang_id(self, lang: str) -> int:
        try:
            return self._lang_id[lang]
        except KeyError:
            raise ModelError(f"unknown language ID {lang!r}") from None


@dataclass
class SrlModel:
    """Trainable parameters plus the configuration and vocab that shaped them.

    ``params`` maps tensor names to arrays: word_table, pos_table,
    pred_table, crf_emission, crf_transition, and either bilstm (BASIC)
    or lang_table + w_pgn (PGN).
    """

    config: ModelConfig
    vocab: Vocabulary
    params: dict[str, np.ndarray] = field(default_factory=dict)


def init_model(config: ModelConfig, vocab: Vocabulary, seed: int = 42,
               word_table: np.ndarray | None = None) -> SrlModel:
    """Seeded initialization: uniform +-0.1, forget-gate biases at 1.0.

    For PGN the recurrent parameters are generated, so the forget-bias
    rule applies only to the BASIC variant's stored vector.  Passing
    ``word_table`` installs pretrained vectors instead of random ones: the
    array itself when it is float64, else a float64 copy.
    """
    rng = np.random.default_rng(seed)
    config = replace(config)  # its own copy: the caller's may change
    spec = config.lstm_spec()

    def uniform(*shape):
        return rng.uniform(-0.1, 0.1, shape)

    params: dict[str, np.ndarray] = {}
    if word_table is not None:
        if word_table.shape != (len(vocab.words), config.word_dim):
            raise ModelError(
                f"word table shape {word_table.shape} does not match vocab "
                f"({len(vocab.words)}, {config.word_dim})")
        params["word_table"] = np.asarray(word_table, dtype=np.float64)
    else:
        params["word_table"] = uniform(len(vocab.words), config.word_dim)
    params["pos_table"] = uniform(len(vocab.pos_tags), config.pos_dim)
    params["pred_table"] = uniform(2, config.pred_dim)
    if config.variant == BASIC:
        flat = uniform(spec.total_params)
        for directions in spec.views(flat):
            for _, _, b in directions:
                b[config.hidden:2 * config.hidden] = 1.0
        params["bilstm"] = flat
    else:
        if not vocab.languages:
            raise ModelError("PGN variant needs at least one language")
        params["lang_table"] = uniform(len(vocab.languages), config.lang_dim)
        params["w_pgn"] = uniform(spec.total_params, config.lang_dim)
    params["crf_emission"] = uniform(len(vocab.labels), 2 * config.hidden)
    params["crf_transition"] = uniform(len(vocab.labels) + 2, len(vocab.labels) + 2)
    return SrlModel(config=config, vocab=vocab, params=params)


def param_shapes(config: ModelConfig, vocab: Vocabulary) -> dict[str, tuple[int, ...]]:
    """Shape of every parameter tensor a config and vocabulary imply."""
    spec = config.lstm_spec()
    k = len(vocab.labels)
    shapes = {
        "word_table": (len(vocab.words), config.word_dim),
        "pos_table": (len(vocab.pos_tags), config.pos_dim),
        "pred_table": (2, config.pred_dim),
        "crf_emission": (k, 2 * config.hidden),
        "crf_transition": (k + 2, k + 2),
    }
    if config.variant == BASIC:
        shapes["bilstm"] = (spec.total_params,)
    else:
        shapes["lang_table"] = (len(vocab.languages), config.lang_dim)
        shapes["w_pgn"] = (spec.total_params, config.lang_dim)
    return shapes


def training_shapes(config: ModelConfig, vocab: Vocabulary):
    """What training allocates besides its activations, from the shapes alone.

    Returns ``(trained, frozen, block)``: ``trained`` maps every tensor
    training updates to its shape, in the order the training workspace
    lays them out and the gradient norm sums them (the embedding tables,
    the CRF, then ``bilstm`` or ``w_pgn`` and ``lang_table``); ``frozen``
    is the shape of a frozen word table (None when it trains); ``block``
    is the (languages, P) shape of each of PGN's two per-language blocks,
    the generated recurrent vectors and their gradients (None for BASIC).
    """
    trained = param_shapes(config, vocab)
    frozen = None if config.train_word_table else trained.pop("word_table")
    block = None
    if config.variant == PGN:
        trained["lang_table"] = trained.pop("lang_table")
        block = (len(vocab.languages), trained["w_pgn"][0])
    return trained, frozen, block


def _feature_ids(model: SrlModel, sentence: Sentence, pred_index: int) -> np.ndarray:
    """(n, 3) word, POS and predicate-indicator ids of one sentence."""
    if not 1 <= pred_index <= len(sentence.tokens):
        raise ModelError(
            f"predicate index {pred_index} outside 1..{len(sentence.tokens)}")
    vocab = model.vocab
    return np.array([(vocab.word_id(t.form), vocab.pos_id(t.upos),
                      1 if t.index == pred_index else 0)
                     for t in sentence.tokens], dtype=np.intp)


def _lang_code(model: SrlModel, lang: str) -> int:
    """Language id of ``lang``; 0 for BASIC, which ignores the language."""
    return 0 if model.config.variant == BASIC else model.vocab.lang_id(lang)


@dataclass(frozen=True)
class EncodedExamples:
    """A corpus's rows coded as integer arrays, stored ragged without padding.

    Row i, one (sentence, frame) pair, owns ``offsets[i]:offsets[i + 1]``
    of ``ids`` (word, POS and predicate-indicator ids, one line per token)
    and of ``labels`` (its gold label ids; empty when encoded without gold
    labels).
    ``langs[i]`` is its language id, 0 for every row of a BASIC model.
    """

    ids: np.ndarray
    labels: np.ndarray
    offsets: np.ndarray
    langs: np.ndarray

    def __len__(self) -> int:
        return len(self.langs)


def encode_examples(model: SrlModel, corpus: Corpus, gold: bool = True) -> EncodedExamples:
    """Encode one row per (sentence, frame) of ``corpus``, sentences in
    order and each sentence's frames in order, in the sentence's language.

    A row's gold labels are its frame's role at each argument and OUTSIDE
    at every other token; with ``gold`` false (prediction) they are left
    out, so roles the model does not know are no error.  Training encodes
    its corpus once, before the first epoch.
    """
    rows = [(sentence, frame) for sentence in corpus.sentences for frame in sentence.frames]
    ids = [_feature_ids(model, sentence, frame.pred_index) for sentence, frame in rows]
    labels = []
    if gold:
        label_id = model.vocab.label_id
        for sentence, frame in rows:
            roles = dict(frame.args)
            labels.append(np.array([label_id(roles.get(t.index, OUTSIDE))
                                    for t in sentence.tokens], dtype=np.intp))
    return EncodedExamples(
        ids=np.concatenate([np.zeros((0, 3), dtype=np.intp), *ids]),
        labels=np.concatenate([np.zeros(0, dtype=np.intp), *labels]),
        offsets=np.cumsum([0, *map(len, ids)], dtype=np.intp),
        langs=np.array([_lang_code(model, sentence.lang) for sentence, _ in rows],
                       dtype=np.intp))


def _embed(model: SrlModel, ids: np.ndarray) -> np.ndarray:
    """Concatenated word/POS/indicator embeddings for ids of shape (..., 3)."""
    return np.concatenate([
        model.params["word_table"][ids[..., 0]],
        model.params["pos_table"][ids[..., 1]],
        model.params["pred_table"][ids[..., 2]],
    ], axis=-1)


def _pad(data: EncodedExamples, rows: np.ndarray):
    """Time-major padded (T, B, 3) ids of the examples ``rows`` of ``data``,
    id 0 at the padding that follows every sequence.  Also returns the
    (B,) lengths, the (T, B) mask of real positions and the ``data`` token
    of every real position, in mask order."""
    starts = data.offsets[rows]
    lengths = data.offsets[rows + 1] - starts
    positions = np.arange(lengths.max())[:, None]
    valid = positions < lengths
    tokens = (starts + positions)[valid]
    ids = np.zeros((*valid.shape, 3), dtype=np.intp)
    ids[valid] = data.ids[tokens]
    return ids, lengths, valid, tokens


def pgn_params(w_pgn: np.ndarray, lang_embedding: np.ndarray,
               out: np.ndarray | None = None) -> np.ndarray:
    """Generate the flattened recurrent parameters for one language, into
    ``out`` when given."""
    if w_pgn.ndim != 2 or lang_embedding.shape != (w_pgn.shape[1],):
        raise ModelError(
            f"cannot generate parameters: {w_pgn.shape} x {lang_embedding.shape}")
    return np.matmul(w_pgn, lang_embedding, out=out)


def language_similarity(model: SrlModel) -> tuple[tuple[str, ...], np.ndarray]:
    """Pairwise Euclidean distances between the model's language embeddings."""
    if model.config.variant == BASIC:
        raise ModelError("no language embeddings in the basic variant")
    table = model.params["lang_table"]
    diff = table[:, None, :] - table[None, :, :]
    matrix = np.sqrt(np.sum(diff * diff, axis=2))
    return model.vocab.languages, matrix


def similarity_csv(model: SrlModel) -> str:
    """The :func:`language_similarity` matrix as CSV with a header row."""
    languages, matrix = language_similarity(model)
    lines = ["lang," + ",".join(languages)]
    for lang, row in zip(languages, matrix):
        lines.append(lang + "," + ",".join(repr(float(v)) for v in row))
    return "\n".join(lines) + "\n"


def _recurrent_vector(model: SrlModel, lang_id: int) -> np.ndarray:
    if model.config.variant == BASIC:
        return model.params["bilstm"]
    return pgn_params(model.params["w_pgn"], model.params["lang_table"][lang_id])


def _language_groups(langs: np.ndarray) -> list[tuple[int, slice]]:
    """(language id, columns) of every run of equal ids in ``langs``, which
    holds the language ids of a batch ordered by language."""
    starts = np.flatnonzero(np.diff(langs, prepend=-1))
    ends = [*starts[1:], len(langs)]
    return [(int(langs[start]), slice(start, end)) for start, end in zip(starts, ends)]


def loss_and_gradients(model: SrlModel, data: EncodedExamples, rows,
                       tensors: dict[str, np.ndarray], runner: Inline) -> float:
    """Summed loss, returned, and summed gradients, written into ``tensors``
    and ``runner``, over the rows ``rows`` of ``data``.

    ``data`` comes from :func:`encode_examples`.  The batch is ordered by
    language (stably; one group for BASIC) and padded time-major once.
    One BiLSTM forward and one backward run every language group at once:
    each group's GEMMs use its own weights on its own columns, trimmed to
    its longest sequence, and the step loop runs once; the embedding, the
    CRF and their gradients run over the whole batch.
    Padded positions add exactly zero.  With a frozen word table
    (``train_word_table`` false) its gradient is not computed.

    ``tensors`` maps every trained tensor to its gradient buffer, in
    :func:`training_shapes` order.  ``runner`` runs the BiLSTM's
    right-to-left direction (:class:`~xsrl.model.lstm.Inline`, or the
    partner of :func:`~xsrl.model.lstm.right_to_left_runner`) and owns
    the recurrent vectors: for BASIC its one weight row is ``bilstm`` and
    its one gradient row is the ``bilstm`` gradient; for PGN they are two
    (languages, P) blocks, and row g of each holds the generated vector
    and the recurrent gradient of the batch's language group g.  The
    gradients overwrite what the buffers held.
    """
    config = model.config
    params = model.params
    emission_w = params["crf_emission"]
    k, width = emission_w.shape
    rows = np.asarray(rows, dtype=np.intp)
    rows = rows[np.argsort(data.langs[rows], kind="stable")]
    lang_groups = _language_groups(data.langs[rows])
    ids, lengths, valid, tokens = _pad(data, rows)
    labels = np.zeros(valid.shape, dtype=np.intp)
    labels[valid] = data.labels[tokens]
    features = _embed(model, ids)

    if config.variant == PGN:
        for (lang_id, _), flat in zip(lang_groups, runner.flats):
            pgn_params(params["w_pgn"], params["lang_table"][lang_id], out=flat)
    groups = [(key, cols) for key, (_, cols) in enumerate(lang_groups)]
    states, caches = bilstm_forward(runner, groups, features, lengths)
    emissions = states @ emission_w.T
    loss, d_emissions, d_trans = crf.nll_gradients(
        emissions, params["crf_transition"], labels, lengths)

    np.matmul(d_emissions.reshape(-1, k).T, states.reshape(-1, width),
              out=tensors["crf_emission"])
    tensors["crf_transition"][...] = d_trans
    d_features = bilstm_backward(caches, d_emissions @ emission_w)
    used_ids, d_rows = ids[valid], d_features[valid]
    offsets = np.cumsum([0, config.word_dim, config.pos_dim, config.pred_dim])
    for column, name in enumerate(("word_table", "pos_table", "pred_table")):
        if name in tensors:
            tensors[name].fill(0.0)
            np.add.at(tensors[name], used_ids[:, column],
                      d_rows[:, offsets[column]:offsets[column + 1]])

    if config.variant == PGN:
        lang_ids = [lang_id for lang_id, _ in lang_groups]
        d_flats = runner.d_flats[:len(groups)]
        np.matmul(d_flats.T, params["lang_table"][lang_ids], out=tensors["w_pgn"])
        tensors["lang_table"].fill(0.0)
        for lang_id, d_flat in zip(lang_ids, d_flats):
            np.matmul(params["w_pgn"].T, d_flat, out=tensors["lang_table"][lang_id])
    return loss


def predict(model: SrlModel, corpus: Corpus) -> Corpus:
    """Relabel the arguments of every predicate frame of ``corpus``.

    Returns the corpus with each frame's arguments replaced by the model's,
    at the predicate position and with the sense the frame gives; a
    predicate position itself never becomes an argument.  One row is one
    (sentence, frame) pair, encoded as in training in the sentence's
    language (:func:`encode_examples`, without gold labels).  Rows are
    grouped by language (one group for BASIC), ordered by sentence length
    within a group (stable in corpus order) and run forward-only (the runner
    has no gradient vectors, so it keeps no caches) in padded batches of
    PREDICT_ROWS rows, so the encoder's working set is one batch
    whatever the corpus size.  Every language's recurrent vector is made
    first; then, when there is more than one batch, one partner process,
    where one can run, runs the right-to-left direction of every batch
    (:func:`~xsrl.model.lstm.right_to_left_runner`); a single batch runs
    it inline, as the fork would cost more than it saves.
    """
    data = encode_examples(model, corpus, gold=False)
    sizes = np.diff(data.offsets)
    order = np.lexsort((sizes, data.langs))
    paths: list = [None] * len(data)
    spec = model.config.lstm_spec()
    lang_groups = _language_groups(data.langs[order])
    # every language's vector exists before a partner is forked, which
    # reads them unchanged
    flats = [_recurrent_vector(model, lang_id) for lang_id, _ in lang_groups]
    batches = [(key, order[cols][start:start + PREDICT_ROWS])
               for key, (_, cols) in enumerate(lang_groups)
               for start in range(0, cols.stop - cols.start, PREDICT_ROWS)]
    runner = (right_to_left_runner(spec, flats, (), steps=int(sizes.max(initial=1)),
                                   rows=min(PREDICT_ROWS, len(data)))
              if len(batches) > 1 else nullcontext(Inline(spec, flats)))
    with runner as right_to_left:
        for key, batch in batches:
            ids, lengths, _, _ = _pad(data, batch)
            states, _ = bilstm_forward(right_to_left, [(key, slice(None))],
                                       _embed(model, ids), lengths)
            emissions = states @ model.params["crf_emission"].T
            for row, path in zip(
                    batch, crf.viterbi(emissions, model.params["crf_transition"], lengths)):
                paths[row] = path
    labels = model.vocab.labels
    rows = iter(paths)
    return Corpus(tuple(
        replace(sentence, frames=tuple(
            replace(frame, args=tuple((i + 1, labels[y]) for i, y in enumerate(next(rows))
                                      if labels[y] != OUTSIDE and i + 1 != frame.pred_index))
            for frame in sentence.frames))
        for sentence in corpus.sentences))
