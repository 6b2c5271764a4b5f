"""The role labeler: feature embedding, language-conditioned BiLSTM, CRF.

Two variants share all code paths.  BASIC owns its recurrent parameters
as one flat trainable vector.  PGN derives that vector from the
sentence's language: a parameter-generation matrix maps the language
embedding to the full flattened BiLSTM weight block, so each language
gets its own encoder while sharing the generator.

Training and prediction run on padded, time-major minibatches.  A batch
is split into language groups (one per language for PGN, one for BASIC),
so each group shares one generated weight block; a single example is a
batch of one.  Prediction takes a whole corpus at once and cuts each
language group into batches of sentences of similar length.
"""

from __future__ import annotations

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
    "SrlModel",
    "examples_from_corpus",
    "init_model",
    "param_shapes",
    "build_features",
    "pgn_params",
    "encode",
    "crf_neg_log_likelihood",
    "viterbi_decode",
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


def _label_ids(model: SrlModel, example: TrainingExample) -> np.ndarray:
    if len(example.labels) != len(example.sentence.tokens):
        raise ModelError(
            f"{len(example.labels)} gold labels for {len(example.sentence.tokens)} tokens")
    return np.array([model.vocab.label_id(l) for l in example.labels], dtype=np.intp)


def _embed(model: SrlModel, ids: np.ndarray) -> np.ndarray:
    """Concatenated word/POS/indicator embeddings for ids of shape (..., 3)."""
    return np.concatenate([
        model.params["word_table"][ids[..., 0]],
        model.params["pos_table"][ids[..., 1]],
        model.params["pred_table"][ids[..., 2]],
    ], axis=-1)


def _pad(rows: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Stack per-sequence arrays time-major (T, B, ...), zero-padded at the
    end of every sequence; also returns the (B,) lengths."""
    lengths = np.array([len(r) for r in rows], dtype=np.intp)
    out = np.zeros((int(lengths.max()), len(rows), *rows[0].shape[1:]), dtype=rows[0].dtype)
    for b, r in enumerate(rows):
        out[:len(r), b] = r
    return out, lengths


def build_features(model: SrlModel, example: TrainingExample) -> np.ndarray:
    """Concatenated word/POS/predicate-indicator embeddings, one row per token."""
    return _embed(model, _feature_ids(model, example.sentence, example.frame.pred_index))


def pgn_params(w_pgn: np.ndarray, lang_embedding: np.ndarray) -> np.ndarray:
    """Generate the flattened recurrent parameters for one language."""
    if w_pgn.ndim != 2 or lang_embedding.shape != (w_pgn.shape[1],):
        raise ModelError(
            f"cannot generate parameters: {w_pgn.shape} x {lang_embedding.shape}")
    return w_pgn @ lang_embedding


def _recurrent_vector(model: SrlModel, lang: str) -> np.ndarray:
    if model.config.variant == BASIC:
        return model.params["bilstm"]
    lid = model.vocab.lang_id(lang)
    return pgn_params(model.params["w_pgn"], model.params["lang_table"][lid])


def encode(model: SrlModel, features: np.ndarray, lang: str = "") -> np.ndarray:
    """Run the (possibly language-generated) BiLSTM stack over feature rows."""
    flat = _recurrent_vector(model, lang)
    states, _ = bilstm_forward(model.config.lstm_spec(), flat, features[:, None],
                               keep_cache=False)
    return states[:, 0]


def crf_neg_log_likelihood(model: SrlModel, states: np.ndarray, labels) -> float:
    """CRF loss for one encoded sentence and its gold role sequence."""
    label_ids = [model.vocab.label_id(l) for l in labels]
    emissions = states @ model.params["crf_emission"].T
    return crf.neg_log_likelihood(emissions, model.params["crf_transition"], label_ids)


def viterbi_decode(model: SrlModel, states: np.ndarray) -> list[str]:
    emissions = states @ model.params["crf_emission"].T
    path = crf.viterbi(emissions, model.params["crf_transition"])
    return [model.vocab.labels[i] for i in path]


def _language_groups(model: SrlModel, items, lang_of) -> list[tuple[str, list]]:
    """One group per language ``lang_of(item)`` (sorted) for PGN; one group
    of all for BASIC.  Groups keep the order of ``items``."""
    if model.config.variant == BASIC:
        return [("", list(items))]
    groups: dict[str, list] = {}
    for item in items:
        groups.setdefault(lang_of(item), []).append(item)
    return sorted(groups.items())


def _group_gradients(model: SrlModel, lang: str, group: list[TrainingExample],
                     grads: dict[str, np.ndarray], d_flat: np.ndarray) -> float:
    """Loss of one language group, padded time-major; writes its
    recurrent-vector gradient into ``d_flat`` and adds the embedding and
    CRF gradients into ``grads``."""
    config = model.config
    params = model.params
    spec = config.lstm_spec()
    emission_w = params["crf_emission"]
    k, width = emission_w.shape
    ids, lengths = _pad([_feature_ids(model, ex.sentence, ex.frame.pred_index)
                         for ex in group])
    labels, _ = _pad([_label_ids(model, ex) for ex in group])
    flat = _recurrent_vector(model, lang)
    states, caches = bilstm_forward(spec, flat, _embed(model, ids), lengths)
    emissions = states @ emission_w.T
    loss, d_emissions, d_trans = crf.nll_gradients(
        emissions, params["crf_transition"], labels, lengths)
    grads["crf_transition"] += d_trans
    grads["crf_emission"] += d_emissions.reshape(-1, k).T @ states.reshape(-1, width)
    d_features, _ = bilstm_backward(spec, flat, caches, d_emissions @ emission_w, out=d_flat)
    valid = np.arange(len(ids))[:, None] < lengths
    used_ids, d_rows = ids[valid], d_features[valid]
    offsets = np.cumsum([0, config.word_dim, config.pos_dim, config.pred_dim])
    for column, name in enumerate(("word_table", "pos_table", "pred_table")):
        if name in grads:
            np.add.at(grads[name], used_ids[:, column],
                      d_rows[:, offsets[column]:offsets[column + 1]])
    return loss


def loss_and_gradients(model: SrlModel, examples: list[TrainingExample],
                       ) -> tuple[float, dict[str, np.ndarray]]:
    """Summed loss and summed gradients over a batch of examples.

    Each language group is padded time-major and runs through the BiLSTM
    and CRF as one batch; padded positions add exactly zero.  With a
    frozen word table (``train_word_table`` false) its gradient is neither
    computed nor returned.
    """
    params = model.params
    names = ["word_table"] if model.config.train_word_table else []
    names += ["pos_table", "pred_table", "crf_emission", "crf_transition"]
    grads = {name: np.zeros_like(params[name]) for name in names}
    groups = _language_groups(model, examples, lambda ex: ex.sentence.lang)
    d_flats = np.empty((len(groups), model.config.lstm_spec().total_params),
                       dtype=params["crf_emission"].dtype)
    total = 0.0
    for row, (lang, group) in enumerate(groups):
        total += _group_gradients(model, lang, group, grads, d_flats[row])
    if model.config.variant == BASIC:
        grads["bilstm"] = d_flats[0]
    else:
        lang_ids = [model.vocab.lang_id(lang) for lang, _ in groups]
        grads["w_pgn"] = np.einsum("gp,gl->pl", d_flats, params["lang_table"][lang_ids])
        grads["lang_table"] = np.zeros_like(params["lang_table"])
        for lid, d_flat in zip(lang_ids, d_flats):
            grads["lang_table"][lid] = params["w_pgn"].T @ d_flat
    return total, grads


def predict(model: SrlModel, requests) -> list[tuple[PredicateFrame, ...]]:
    """Label the arguments of the given predicates of many sentences.

    ``requests`` holds ``(sentence, pred_indices, lang)`` triples; the
    result holds one tuple of frames per request, in request order, one
    frame per predicate index.  One row is one (sentence, predicate) pair.
    Rows are grouped by language (one group for BASIC), ordered by sentence
    length within a group (stable in request order) and run forward-only
    in padded batches of PREDICT_ROWS rows, so the encoder's working set
    is one batch whatever the corpus size.  A predicate position itself
    never becomes an argument; each frame keeps the sentence's sense for
    its predicate.
    """
    requests = [(sentence, list(preds), lang) for sentence, preds, lang in requests]
    rows = [(r, slot, _feature_ids(model, sentence, p))
            for r, (sentence, preds, _) in enumerate(requests)
            for slot, p in enumerate(preds)]
    paths: list[list] = [[None] * len(preds) for _, preds, _ in requests]
    spec = model.config.lstm_spec()
    for lang, group in _language_groups(model, rows, lambda row: requests[row[0]][2]):
        flat = _recurrent_vector(model, lang)
        group.sort(key=lambda row: len(row[2]))
        for start in range(0, len(group), PREDICT_ROWS):
            batch = group[start:start + PREDICT_ROWS]
            ids, lengths = _pad([row[2] for row in batch])
            states, _ = bilstm_forward(spec, flat, _embed(model, ids), lengths,
                                       keep_cache=False)
            emissions = states @ model.params["crf_emission"].T
            for (r, slot, _), path in zip(
                    batch, crf.viterbi(emissions, model.params["crf_transition"], lengths)):
                paths[r][slot] = path
    labels = model.vocab.labels
    out = []
    for (sentence, preds, _), request_paths in zip(requests, paths):
        senses: dict[int, str] = {}
        for frame in sentence.frames:
            senses.setdefault(frame.pred_index, frame.sense)
        out.append(tuple(
            PredicateFrame(pred_index=p, sense=senses.get(p, "_"), args=tuple(
                (i + 1, labels[y]) for i, y in enumerate(path)
                if labels[y] != OUTSIDE and i + 1 != p))
            for p, path in zip(preds, request_paths)))
    return out
