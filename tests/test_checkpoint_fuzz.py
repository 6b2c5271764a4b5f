"""A bounded fuzz of the checkpoint reader through the command line.

A small PGN checkpoint, trained with a fixed seed on two toy sentences,
is cut at every byte, has every byte of every length or shape field
flipped, and has NaN or an infinity written into each tensor.  The input
contract allows ``xsrl predict`` exit 0 or 2, and on 2 a message that
names the checkpoint first; the loader checks every one of these fields,
so each case exits 2.
"""

import numpy as np
import pytest

from xsrl import cli

from conftest import DATA, checkpoint_layout

TINY = ["--variant", "pgn", "--word-dim", "1", "--pos-dim", "1", "--pred-dim", "1",
        "--lang-dim", "1", "--hidden", "1", "--layers", "1", "--epochs", "1",
        "--batch-size", "2", "--seed", "1"]


@pytest.fixture(scope="module")
def checkpoint(tmp_path_factory):
    """The two-sentence corpus and the bytes of the model trained on it."""
    work = tmp_path_factory.mktemp("fuzz")
    blocks = (DATA / "de_dev.conllu").read_text(encoding="utf-8").split("\n\n")
    corpus = work / "small.conllu"
    corpus.write_text("\n\n".join(blocks[:2]) + "\n\n", encoding="utf-8")
    model = work / "model.bin"
    assert cli.main(["train", "--train-file", str(corpus), "--out", str(model), *TINY]) == 0
    return corpus, model.read_bytes()


def mutations(data: bytes):
    """(kind, label, bytes) of every mutated checkpoint."""
    fields, tensors = checkpoint_layout(data)
    for cut in range(len(data)):
        yield "cut", f"cut at byte {cut}", data[:cut]
    for offset, width in fields:
        for at in range(offset, offset + width):
            flipped = bytearray(data)
            flipped[at] ^= 0xFF
            yield "flip", f"byte {at} flipped", bytes(flipped)
    for name, (offset, dtype, count) in tensors.items():
        for value in (np.nan, np.inf, -np.inf):
            bad = bytearray(data)
            at = offset + dtype.itemsize * (count // 2)
            bad[at:at + dtype.itemsize] = np.array(value, dtype=dtype).tobytes()
            yield "non-finite", f"{value} in {name}", bytes(bad)


def test_mutated_checkpoint_exits_2_naming_it(checkpoint, tmp_path, capsys):
    corpus, data = checkpoint
    path, out = tmp_path / "model.bin", tmp_path / "pred.conllu"
    argv = ["predict", "--model", str(path), "--input", str(corpus), "--out", str(out)]
    path.write_bytes(data)
    assert cli.main(argv) == 0
    capsys.readouterr()
    kinds = set()
    for kind, label, mutated in mutations(data):
        path.write_bytes(mutated)
        code = cli.main(argv)
        err = capsys.readouterr().err
        assert code == 2 and err.startswith(f"xsrl: error: {path}: "), (label, code, err)
        kinds.add(kind)
    assert kinds == {"cut", "flip", "non-finite"}
