"""Language-conditioned BiLSTM-CRF role labeler with manual backprop."""

from . import crf
from .embeddings import load_embeddings, vocabulary_with_table
from .network import (
    BASIC,
    OUTSIDE,
    PGN,
    ModelConfig,
    ModelError,
    SrlModel,
    TrainingExample,
    Vocabulary,
    build_features,
    crf_neg_log_likelihood,
    encode,
    examples_from_corpus,
    init_model,
    loss_and_gradients,
    pgn_params,
    predict,
    viterbi_decode,
)
from .serialize import CheckpointError, load_model, save_model
from .training import TrainingError, gradient_check, train

__all__ = [
    "BASIC",
    "OUTSIDE",
    "PGN",
    "crf",
    "ModelConfig",
    "ModelError",
    "SrlModel",
    "TrainingError",
    "TrainingExample",
    "Vocabulary",
    "CheckpointError",
    "build_features",
    "crf_neg_log_likelihood",
    "encode",
    "examples_from_corpus",
    "gradient_check",
    "init_model",
    "load_embeddings",
    "load_model",
    "loss_and_gradients",
    "pgn_params",
    "predict",
    "save_model",
    "train",
    "viterbi_decode",
    "vocabulary_with_table",
]
