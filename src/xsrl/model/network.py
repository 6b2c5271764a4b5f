"""The role labeler: feature embedding, language-conditioned BiLSTM, CRF.

Two variants share all code paths.  BASIC owns its recurrent parameters
as one flat trainable vector.  PGN derives that vector from the
sentence's language: a parameter-generation matrix maps the language
embedding to the full flattened BiLSTM weight block, so each language
gets its own encoder while sharing the generator.

The model runs through two entry points, and a single example is a batch
of one in both.  :func:`loss_and_gradients` is the training path: it
takes examples encoded once into integer arrays by
:func:`encode_examples` (:class:`EncodedExamples`), orders a batch by
language group (one per language for PGN, one for BASIC) and pads it
once, time-major; each group runs the BiLSTM with its own generated
weight block, and the embedding, the CRF and their gradients run over the
whole batch.  :func:`predict` is the inference path: it takes a whole
corpus at once and cuts each language group into forward-only batches of
sentences of similar length.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from ..corpus import UNIVERSAL_TAGS, Corpus, PredicateFrame, Sentence
from . import crf
from .lstm import LstmSpec, bilstm_backward, bilstm_forward

__all__ = [
    "ModelError",
    "ModelConfig",
    "Vocabulary",
    "TrainingExample",
    "EncodedExamples",
    "SrlModel",
    "examples_from_corpus",
    "encode_examples",
    "init_model",
    "param_shapes",
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
    label_count: int = 0
    language_count: int = 0
    variant: str = PGN
    learning_rate: float = 0.0005
    batch_size: int = 50
    epochs: int = 80
    clip_norm: float = 5.0
    train_word_table: bool = True
    dtype: str = "float64"

    def __post_init__(self):
        if self.variant not in (BASIC, PGN):
            raise ModelError(f"unknown variant {self.variant!r}")
        for name in ("word_dim", "pos_dim", "pred_dim", "hidden", "layers"):
            if getattr(self, name) < 1:
                raise ModelError(f"{name} must be >= 1")
        if self.variant == PGN and self.lang_dim < 1:
            raise ModelError("lang_dim must be >= 1")
        for flag, value in (("--batch-size", self.batch_size), ("--epochs", self.epochs)):
            if value < 1:
                raise ModelError(f"{flag} must be >= 1, got {value}")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ModelError(
                f"--learning-rate must be a finite number > 0, got {self.learning_rate}")
        if not (math.isfinite(self.clip_norm) and self.clip_norm >= 0):
            raise ModelError(f"clip_norm must be a finite number >= 0, got {self.clip_norm}")

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
    def from_corpus(cls, corpus: Corpus) -> "Vocabulary":
        forms = sorted({t.form for s in corpus.sentences for t in s.tokens})
        labels = sorted(set(corpus.role_inventory) | {OUTSIDE})
        langs = sorted({s.lang for s in corpus.sentences})
        return cls(
            words=(UNK, *forms),
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


@dataclass(frozen=True)
class TrainingExample:
    """One (sentence, predicate) pair with its per-token gold role sequence."""

    sentence: Sentence
    frame: PredicateFrame
    labels: tuple[str, ...]


def examples_from_corpus(corpus: Corpus) -> list[TrainingExample]:
    out = []
    for sent in corpus.sentences:
        for frame in sent.frames:
            roles = dict(frame.args)
            labels = tuple(roles.get(t.index, OUTSIDE) for t in sent.tokens)
            out.append(TrainingExample(sentence=sent, frame=frame, labels=labels))
    return out


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

    @property
    def word_table(self) -> np.ndarray:
        return self.params["word_table"]

    @property
    def lang_table(self) -> np.ndarray:
        return self.params["lang_table"]

    @property
    def w_pgn(self) -> np.ndarray:
        return self.params["w_pgn"]


def init_model(config: ModelConfig, vocab: Vocabulary, seed: int = 42,
               word_table: np.ndarray | None = None) -> SrlModel:
    """Seeded initialization: uniform +-0.1, forget-gate biases at 1.0.

    For PGN the recurrent parameters are generated, so the forget-bias
    rule applies only to the BASIC variant's stored vector.  Passing
    ``word_table`` installs pretrained vectors instead of random ones.
    """
    rng = np.random.default_rng(seed)
    dtype = np.dtype(config.dtype)
    config = replace(config,
                     label_count=len(vocab.labels),
                     language_count=len(vocab.languages))
    spec = config.lstm_spec()

    def uniform(*shape):
        return rng.uniform(-0.1, 0.1, shape).astype(dtype, copy=False)

    params: dict[str, np.ndarray] = {}
    if word_table is not None:
        if word_table.shape != (len(vocab.words), config.word_dim):
            raise ModelError(
                f"word table shape {word_table.shape} does not match vocab "
                f"({len(vocab.words)}, {config.word_dim})")
        params["word_table"] = word_table.astype(dtype, copy=True)
    else:
        params["word_table"] = uniform(len(vocab.words), config.word_dim)
    params["pos_table"] = uniform(len(vocab.pos_tags), config.pos_dim)
    params["pred_table"] = uniform(2, config.pred_dim)
    if config.variant == BASIC:
        flat = uniform(spec.total_params)
        for start, end in spec.forget_bias_offsets():
            flat[start:end] = 1.0
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


def _feature_ids(model: SrlModel, sentence: Sentence, pred_index: int) -> np.ndarray:
    """(n, 3) word, POS and predicate-indicator ids of one sentence."""
    if not 1 <= pred_index <= len(sentence.tokens):
        raise ModelError(
            f"predicate index {pred_index} outside 1..{len(sentence.tokens)}")
    vocab = model.vocab
    return np.array([(vocab.word_id(t.form), vocab.pos_id(t.upos),
                      1 if t.index == pred_index else 0)
                     for t in sentence.tokens], dtype=np.intp)


def _label_ids(model: SrlModel, labels, count: int) -> np.ndarray:
    if len(labels) != count:
        raise ModelError(f"{len(labels)} gold labels for {count} tokens")
    return np.array([model.vocab.label_id(l) for l in labels], dtype=np.intp)


def _lang_code(model: SrlModel, lang: str) -> int:
    """Language id of ``lang``; 0 for BASIC, which ignores the language."""
    return 0 if model.config.variant == BASIC else model.vocab.lang_id(lang)


@dataclass(frozen=True)
class EncodedExamples:
    """Examples coded as integer arrays, stored ragged without padding.

    Example i owns rows ``offsets[i]:offsets[i + 1]`` of ``ids`` (word,
    POS and predicate-indicator ids, one row per token) and of ``labels``
    (its gold label ids; empty when encoded without gold labels).
    ``langs[i]`` is its language id, 0 for every example of a BASIC model.
    """

    ids: np.ndarray
    labels: np.ndarray
    offsets: np.ndarray
    langs: np.ndarray

    def __len__(self) -> int:
        return len(self.langs)


def _encode(model: SrlModel, rows, gold=()) -> EncodedExamples:
    """Encode ``(sentence, pred_index, lang)`` rows, with one gold label
    sequence per row in ``gold`` when given."""
    ids = [_feature_ids(model, sentence, p) for sentence, p, _ in rows]
    labels = [_label_ids(model, seq, len(row)) for seq, row in zip(gold, ids)]
    return EncodedExamples(
        ids=np.concatenate([np.zeros((0, 3), dtype=np.intp), *ids]),
        labels=np.concatenate([np.zeros(0, dtype=np.intp), *labels]),
        offsets=np.cumsum([0, *map(len, ids)], dtype=np.intp),
        langs=np.array([_lang_code(model, lang) for _, _, lang in rows], dtype=np.intp))


def encode_examples(model: SrlModel, examples: list[TrainingExample]) -> EncodedExamples:
    """Encode training examples and their gold labels; training does it once
    per corpus, before the first epoch."""
    return _encode(model, [(ex.sentence, ex.frame.pred_index, ex.sentence.lang)
                           for ex in examples], [ex.labels for ex in examples])


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


def pgn_params(w_pgn: np.ndarray, lang_embedding: np.ndarray) -> np.ndarray:
    """Generate the flattened recurrent parameters for one language."""
    if w_pgn.ndim != 2 or lang_embedding.shape != (w_pgn.shape[1],):
        raise ModelError(
            f"cannot generate parameters: {w_pgn.shape} x {lang_embedding.shape}")
    return w_pgn @ lang_embedding


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


def loss_and_gradients(model: SrlModel, data: EncodedExamples, rows=None,
                       ) -> tuple[float, dict[str, np.ndarray]]:
    """Summed loss and summed gradients over the examples ``rows`` of ``data``.

    ``data`` comes from :func:`encode_examples`; ``rows`` defaults to all
    of its examples.  The batch is ordered by language (stably; one group
    for BASIC) and padded time-major once.  Each language group runs the
    BiLSTM on its own columns, trimmed to its longest sequence; the
    embedding, the CRF and their gradients run over the whole batch.
    Padded positions add exactly zero.  With a frozen word table
    (``train_word_table`` false) its gradient is neither computed nor
    returned.
    """
    config = model.config
    params = model.params
    spec = config.lstm_spec()
    emission_w = params["crf_emission"]
    k, width = emission_w.shape
    # The gradient buffers come before the forward pass: allocated after it,
    # above the forward caches, the desk model's 5 MB recurrent gradient
    # left a hole that raised peak RSS by about 4 MB.
    names = ["word_table"] if config.train_word_table else []
    grads = {name: np.zeros_like(params[name]) for name in names + ["pos_table", "pred_table"]}
    rows = np.arange(len(data)) if rows is None else np.asarray(rows, dtype=np.intp)
    rows = rows[np.argsort(data.langs[rows], kind="stable")]
    groups = _language_groups(data.langs[rows])
    d_flats = np.empty((len(groups), spec.total_params), dtype=emission_w.dtype)
    ids, lengths, valid, tokens = _pad(data, rows)
    labels = np.zeros(valid.shape, dtype=np.intp)
    labels[valid] = data.labels[tokens]
    features = _embed(model, ids)

    states = np.zeros((*valid.shape, width), dtype=emission_w.dtype)
    runs = []
    for lang_id, cols in groups:
        steps = int(lengths[cols].max())
        flat = _recurrent_vector(model, lang_id)
        group_states, caches = bilstm_forward(spec, flat, features[:steps, cols], lengths[cols])
        states[:steps, cols] = group_states
        runs.append((cols, steps, flat, caches))
    emissions = states @ emission_w.T
    loss, d_emissions, d_trans = crf.nll_gradients(
        emissions, params["crf_transition"], labels, lengths)

    grads["crf_emission"] = d_emissions.reshape(-1, k).T @ states.reshape(-1, width)
    grads["crf_transition"] = d_trans
    d_states = d_emissions @ emission_w
    d_features = np.zeros_like(features)
    for d_flat, (cols, steps, flat, caches) in zip(d_flats, runs):
        d_group, _ = bilstm_backward(spec, flat, caches, d_states[:steps, cols], out=d_flat)
        d_features[:steps, cols] = d_group
    used_ids, d_rows = ids[valid], d_features[valid]
    offsets = np.cumsum([0, config.word_dim, config.pos_dim, config.pred_dim])
    for column, name in enumerate(("word_table", "pos_table", "pred_table")):
        if name in grads:
            np.add.at(grads[name], used_ids[:, column],
                      d_rows[:, offsets[column]:offsets[column + 1]])

    if config.variant == BASIC:
        grads["bilstm"] = d_flats[0]
    else:
        lang_ids = [lang_id for lang_id, _ in groups]
        grads["w_pgn"] = d_flats.T @ params["lang_table"][lang_ids]
        grads["lang_table"] = np.zeros_like(params["lang_table"])
        for lang_id, d_flat in zip(lang_ids, d_flats):
            grads["lang_table"][lang_id] = params["w_pgn"].T @ d_flat
    return loss, grads


def predict(model: SrlModel, requests) -> list[tuple[PredicateFrame, ...]]:
    """Label the arguments of the given predicates of many sentences.

    ``requests`` holds ``(sentence, pred_indices, lang)`` triples; the
    result holds one tuple of frames per request, in request order, one
    frame per predicate index.  One row is one (sentence, predicate) pair,
    encoded as in training.  Rows are grouped by language (one group for
    BASIC), ordered by sentence length within a group (stable in request
    order) and run forward-only in padded batches of PREDICT_ROWS rows, so
    the encoder's working set is one batch whatever the corpus size.  A
    predicate position itself never becomes an argument; each frame keeps
    the sentence's sense for its predicate.
    """
    requests = [(sentence, list(preds), lang) for sentence, preds, lang in requests]
    data = _encode(model, [(sentence, p, lang) for sentence, preds, lang in requests
                           for p in preds])
    order = np.lexsort((np.diff(data.offsets), data.langs))
    paths: list = [None] * len(data)
    spec = model.config.lstm_spec()
    for lang_id, cols in _language_groups(data.langs[order]):
        flat = _recurrent_vector(model, lang_id)
        group = order[cols]
        for start in range(0, len(group), PREDICT_ROWS):
            batch = group[start:start + PREDICT_ROWS]
            ids, lengths, _, _ = _pad(data, batch)
            states, _ = bilstm_forward(spec, flat, _embed(model, ids), lengths,
                                       keep_cache=False)
            emissions = states @ model.params["crf_emission"].T
            for row, path in zip(
                    batch, crf.viterbi(emissions, model.params["crf_transition"], lengths)):
                paths[row] = path
    labels = model.vocab.labels
    rows = iter(paths)
    out = []
    for sentence, preds, _ in requests:
        senses: dict[int, str] = {}
        for frame in sentence.frames:
            senses.setdefault(frame.pred_index, frame.sense)
        out.append(tuple(
            PredicateFrame(pred_index=p, sense=senses.get(p, "_"), args=tuple(
                (i + 1, labels[y]) for i, y in enumerate(path)
                if labels[y] != OUTSIDE and i + 1 != p))
            for p, path in zip(preds, rows)))
    return out
