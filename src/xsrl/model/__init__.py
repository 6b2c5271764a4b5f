"""Language-conditioned BiLSTM-CRF role labeler with manual backprop."""

from . import crf
from .embeddings import load_embeddings, vocabulary_with_table
from .network import (
    BASIC,
    OUTSIDE,
    PGN,
    EncodedExamples,
    ModelConfig,
    ModelError,
    SrlModel,
    TrainingExample,
    Vocabulary,
    encode_examples,
    examples_from_corpus,
    init_model,
    language_similarity,
    loss_and_gradients,
    pgn_params,
    predict,
    similarity_csv,
)
from .serialize import CheckpointError, load_model, save_model
from .training import TrainingError, gradient_check, train

__all__ = [
    "BASIC",
    "OUTSIDE",
    "PGN",
    "crf",
    "EncodedExamples",
    "ModelConfig",
    "ModelError",
    "SrlModel",
    "TrainingError",
    "TrainingExample",
    "Vocabulary",
    "CheckpointError",
    "encode_examples",
    "examples_from_corpus",
    "gradient_check",
    "init_model",
    "language_similarity",
    "load_embeddings",
    "load_model",
    "loss_and_gradients",
    "pgn_params",
    "predict",
    "save_model",
    "similarity_csv",
    "train",
    "vocabulary_with_table",
]
