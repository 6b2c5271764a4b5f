"""The benchmark workloads: inputs, the CLI stages a user types, output checks.

Each workload writes its inputs into a work directory (``setup``), lists
the ``xsrl`` command lines of one pass over those inputs (``stages``),
names the output files whose bytes must repeat on every pass
(``outputs``), and checks one pass's outputs (``check``).  After the
timed passes, ``work`` measures the input sizes the throughputs divide
by.  Paths are relative to the repository root, which is the working
directory of a run.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from xsrl.alignment import read_parallel_corpus
from xsrl.corpus import parse_srl_corpus, validate_corpus
from xsrl.eval import parse_report
from xsrl.model import load_model

import synth
from tracer import ibm1_links

TOY = Path("data/toy")
ALIGN_ITERATIONS = 10
TOY_EPOCHS = 40

# README recipe; the desk config is a BASIC model at GEMM-sized shapes.
TOY_TRAIN = ["--variant", "pgn", "--word-dim", "16", "--pos-dim", "8", "--pred-dim", "8",
             "--lang-dim", "4", "--hidden", "24", "--layers", "1", "--epochs", str(TOY_EPOCHS),
             "--batch-size", "20", "--learning-rate", "0.01", "--seed", "42"]
DESK_TRAIN = ["--variant", "basic", "--word-dim", "64", "--pos-dim", "16", "--pred-dim", "16",
              "--hidden", "128", "--layers", "2", "--epochs", "1",
              "--batch-size", "5", "--learning-rate", "0.01", "--seed", "42"]

# Synthetic corpus sizes, picked so one pass takes 6-10 s on a 2.1 GHz
# Xeon core and a run's median is taken over four to six passes.
PREP_SIZES = dict(lexicon_size=1500, pairs=5000, sentences=2500, tagged=2500)
DESK_SIZES = dict(lexicon_size=1500, train_tokens=1300, dev_tokens=3400,
                  clause_range=(0, 2))


def _read(path) -> str:
    return Path(path).read_text(encoding="utf-8")


def _corpus(path, require_pred=True):
    return parse_srl_corpus(_read(path), require_pred=require_pred)


def _write_inputs(work: Path, files: dict[str, str]) -> None:
    for name, text in files.items():
        (work / name).write_text(text, encoding="utf-8")


def _frames_and_tokens(paths) -> tuple[int, int]:
    """(predicate frames, tokens summed over frames) of gold corpora."""
    frames = tokens = 0
    for path in paths:
        for sent in _corpus(path).sentences:
            frames += len(sent.frames)
            tokens += len(sent.frames) * len(sent.tokens)
    return frames, tokens


def _align_links(bitext) -> int:
    return ALIGN_ITERATIONS * ibm1_links(read_parallel_corpus(_read(bitext)))


def check_corpus(path) -> str | None:
    violations = validate_corpus(_corpus(path))
    return f"{path}: {violations[0].code}" if violations else None


def check_model(path) -> str | None:
    model = load_model(str(path))
    return None if model.params else f"{path}: checkpoint has no tensors"


def check_report(path, min_f1: float = 0.0) -> str | None:
    f1 = parse_report(_read(path)).f1
    return None if min_f1 <= f1 <= 1.0 else f"{path}: F1 {f1} outside [{min_f1}, 1]"


def check_stats(path, corpus) -> str | None:
    counts = dict(line.split("\t") for line in _read(path).splitlines())
    expected = len(_corpus(corpus).sentences)
    got = int(counts["sentences"])
    return None if got == expected else f"{path}: {got} sentences, expected {expected}"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    setup: Callable[[Path, int], None]
    stages: Callable[[Path], list[list[str]]]
    outputs: tuple[str, ...]
    check: Callable[[Path], list[str | None]]
    work: Callable[[Path], dict[str, int]]


# --- toy-recipe --------------------------------------------------------------

def _toy_setup(work: Path, seed: int) -> None:
    """Nothing to write: the README recipe reads data/toy in place, so the
    seed does not change this workload's inputs."""


def _toy_stages(work: Path) -> list[list[str]]:
    return [
        ["align-train", "--parallel", str(TOY / "bitext.txt"),
         "--iterations", str(ALIGN_ITERATIONS), "--out", str(work / "table.tsv")],
        ["fit-pos", "--tagged", str(TOY / "de_tagged.conllu"), "--out", str(work / "pos.tsv")],
        ["project", "--src", str(TOY / "en_srl.conllu"),
         "--translations", str(TOY / "de_trans.conllu"),
         "--table", str(work / "table.tsv"), "--posdist", str(work / "pos.tsv"),
         "--alpha", "0.4", "--out", str(work / "de_pseudo.conllu"),
         "--stats", str(work / "de_pseudo.stats")],
        ["train", "--train-file", str(TOY / "en_srl.conllu"),
         "--train-file", str(work / "de_pseudo.conllu"), *TOY_TRAIN,
         "--out", str(work / "model.bin")],
        ["predict", "--model", str(work / "model.bin"), "--input", str(TOY / "de_dev.conllu"),
         "--out", str(work / "pred.conllu")],
        ["eval", "--gold", str(TOY / "de_dev.conllu"), "--pred", str(work / "pred.conllu"),
         "--out", str(work / "report.txt")],
    ]


def _toy_check(work: Path) -> list[str | None]:
    return [check_corpus(work / "de_pseudo.conllu"), check_model(work / "model.bin"),
            check_corpus(work / "pred.conllu"), check_report(work / "report.txt", 0.9)]


def _toy_work(work: Path) -> dict[str, int]:
    frames, tokens = _frames_and_tokens([TOY / "en_srl.conllu", work / "de_pseudo.conllu"])
    _, p_tokens = _frames_and_tokens([TOY / "de_dev.conllu"])
    return {"train_examples": frames * TOY_EPOCHS, "train_tokens": tokens * TOY_EPOCHS,
            "predict_tokens": p_tokens,
            "align_links": _align_links(TOY / "bitext.txt"),
            "project_sentences": len(_corpus(TOY / "en_srl.conllu").sentences)}


# --- prep-large-vocab --------------------------------------------------------

def _prep_setup(work: Path, seed: int) -> None:
    _write_inputs(work, synth.prep_corpus(seed, **PREP_SIZES))


def _prep_stages(work: Path) -> list[list[str]]:
    return [
        ["align-train", "--parallel", str(work / "bitext.txt"),
         "--iterations", str(ALIGN_ITERATIONS), "--out", str(work / "table.tsv")],
        ["fit-pos", "--tagged", str(work / "de_tagged.conllu"), "--out", str(work / "pos.tsv")],
        ["project", "--src", str(work / "en_srl.conllu"),
         "--translations", str(work / "de_trans.conllu"),
         "--table", str(work / "table.tsv"), "--posdist", str(work / "pos.tsv"),
         "--alpha", "0.4", "--out", str(work / "de_pseudo.conllu"),
         "--stats", str(work / "de_pseudo.stats")],
        ["stats", "--input", str(work / "de_pseudo.conllu"), "--out", str(work / "counts.txt")],
    ]


def _prep_check(work: Path) -> list[str | None]:
    return [check_corpus(work / "de_pseudo.conllu"),
            check_stats(work / "counts.txt", work / "en_srl.conllu")]


def _prep_work(work: Path) -> dict[str, int]:
    return {"align_links": _align_links(work / "bitext.txt"),
            "project_sentences": len(_corpus(work / "en_srl.conllu").sentences)}


# --- train-desk-basic --------------------------------------------------------

def _desk_setup(work: Path, seed: int) -> None:
    _write_inputs(work, synth.train_corpus(seed, **DESK_SIZES))


def _desk_stages(work: Path) -> list[list[str]]:
    return [
        ["train", "--train-file", str(work / "en_train.conllu"),
         "--train-file", str(work / "de_train.conllu"), *DESK_TRAIN,
         "--out", str(work / "model.bin")],
        ["predict", "--model", str(work / "model.bin"), "--input", str(work / "de_dev.conllu"),
         "--out", str(work / "pred.conllu")],
        ["eval", "--gold", str(work / "de_dev.conllu"), "--pred", str(work / "pred.conllu"),
         "--out", str(work / "report.txt")],
    ]


def _desk_check(work: Path) -> list[str | None]:
    return [check_model(work / "model.bin"), check_corpus(work / "pred.conllu"),
            check_report(work / "report.txt")]


def _desk_work(work: Path) -> dict[str, int]:
    frames, tokens = _frames_and_tokens([work / "en_train.conllu", work / "de_train.conllu"])
    _, p_tokens = _frames_and_tokens([work / "de_dev.conllu"])
    return {"train_examples": frames, "train_tokens": tokens, "predict_tokens": p_tokens}


WORKLOADS = {w.name: w for w in [
    Workload("toy-recipe",
             "the README recipe on data/toy: PGN training is ~98% of the run",
             _toy_setup, _toy_stages,
             ("table.tsv", "pos.tsv", "de_pseudo.conllu", "model.bin", "pred.conllu",
              "report.txt"),
             _toy_check, _toy_work),
    Workload("prep-large-vocab",
             "IBM-1, corpus I/O and projection on a 1.5k-noun synthetic corpus; no model",
             _prep_setup, _prep_stages,
             ("table.tsv", "pos.tsv", "de_pseudo.conllu", "de_pseudo.stats", "counts.txt"),
             _prep_check, _prep_work),
    Workload("train-desk-basic",
             "BASIC BiLSTM-CRF at hidden 128, 2 layers on variable-length synthetic gold data",
             _desk_setup, _desk_stages,
             ("model.bin", "pred.conllu", "report.txt"),
             _desk_check, _desk_work),
]}
