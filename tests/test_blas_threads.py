"""Outputs do not depend on how many threads OpenBLAS starts.

Each run is a fresh ``python -m xsrl.cli`` process, so OpenBLAS reads
``OPENBLAS_NUM_THREADS`` at start-up as it does for a user.  At the
BASIC desk shapes a threaded reduction changes the last bits of the
gradient norm, so the checkpoint differs unless the CLI runs BLAS on one
thread whatever the variable says.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import DATA

SRC = Path(__file__).resolve().parent.parent / "src"

DESK = ["--word-dim", "64", "--pos-dim", "16", "--pred-dim", "16", "--hidden", "128",
        "--layers", "2", "--epochs", "1", "--batch-size", "5", "--seed", "5"]
# (variant flags, training files): a PGN batch holds two language groups
RUNS = {
    "basic": (["--variant", "basic", *DESK], ["en_srl.conllu"]),
    "pgn": (["--variant", "pgn", "--lang-dim", "4", "--word-dim", "16", "--pos-dim", "8",
             "--pred-dim", "8", "--hidden", "64", "--layers", "1", "--epochs", "1",
             "--batch-size", "5", "--seed", "5"], ["en_srl.conllu", "de_dev.conllu"]),
}


def cli(threads: int, *argv) -> None:
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
               PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-m", "xsrl.cli", *map(str, argv)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("variant", sorted(RUNS))
def test_outputs_match_at_one_and_two_blas_threads(tmp_path, variant):
    flags, files = RUNS[variant]
    outputs = {}
    for threads in (1, 2):
        model, pred = tmp_path / f"model{threads}.bin", tmp_path / f"pred{threads}.conllu"
        cli(threads, "train", *(a for name in files for a in ("--train-file", DATA / name)),
            *flags, "--out", model, "--log", tmp_path / "log")
        # both predict with the one-thread model, so a difference is predict's own
        cli(threads, "predict", "--model", tmp_path / "model1.bin",
            "--input", DATA / "de_dev.conllu", "--out", pred)
        outputs[threads] = model.read_bytes(), pred.read_bytes()
    assert outputs[1][0] == outputs[2][0], "model.bin differs between 1 and 2 BLAS threads"
    assert outputs[1][1] == outputs[2][1], "predictions differ between 1 and 2 BLAS threads"
