"""The right-to-left partner process: same bytes as inline, and no child left.

``train`` and ``predict`` (of more than one batch) fork a partner that
runs every layer's right-to-left direction when a second CPU is in the
affinity mask, and run that direction inline otherwise; ``train``'s
partner also steps the second half of Adam's vector.  Both paths must
write the same checkpoint and the same predictions, and the partner must
be reaped before ``train`` or ``predict`` returns or raises.
"""

import errno
import os
import signal
import warnings

import numpy as np
import pytest

from xsrl import blas, cli
from xsrl.corpus import Corpus, parse_srl_corpus
from xsrl.model import (BASIC, PGN, ModelConfig, TrainingError, Vocabulary, lstm, predict,
                        network, train, training)
from xsrl.model.serialize import save_model

from conftest import DATA

needs_partner = pytest.mark.skipif(
    not lstm._partner_available(), reason="the partner needs fork, x86, a second CPU and "
                                          "BLAS on one thread")


@pytest.fixture(scope="module")
def corpus():
    """Variable-length EN and DE sentences, interleaved so a batch holds
    both languages."""
    en, de = (parse_srl_corpus((DATA / name).read_text(encoding="utf-8"),
                               default_lang=lang).sentences[:16]
              for name, lang in (("en_srl.conllu", "EN"), ("de_dev.conllu", "DE")))
    return Corpus.from_sentences(s for pair in zip(en, de) for s in pair)


def config(variant, layers):
    return ModelConfig(word_dim=12, pos_dim=4, pred_dim=4, lang_dim=3, hidden=10,
                       layers=layers, variant=variant, batch_size=6, epochs=2,
                       learning_rate=0.01)


@pytest.fixture
def forks(monkeypatch):
    """The pids of the children forked while the test runs."""
    pids = []
    fork = os.fork

    def recording_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording_fork)
    return pids


def assert_reaped(pids):
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


def train_and_predict(corpus, variant, layers, path):
    """(checkpoint bytes, predicted corpus) of one train and predict."""
    model, _ = train(corpus, config(variant, layers), seed=3)
    save_model(model, str(path))
    return path.read_bytes(), predict(model, corpus)


@needs_partner
@pytest.mark.parametrize("variant", [BASIC, PGN])
@pytest.mark.parametrize("layers", [1, 2])
def test_partner_and_inline_write_the_same_bytes(corpus, forks, monkeypatch, tmp_path,
                                                 variant, layers):
    partnered = train_and_predict(corpus, variant, layers, tmp_path / "partner.bin")
    assert len(forks) == 2
    assert_reaped(forks)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    inline = train_and_predict(corpus, variant, layers, tmp_path / "inline.bin")
    assert len(forks) == 2
    assert partnered[0] == inline[0]
    assert partnered[1] == inline[1]


@pytest.mark.parametrize("limit", ["one CPU", "two BLAS threads"])
def test_inline_runs_without_a_free_cpu(corpus, monkeypatch, tmp_path, limit):
    if limit == "one CPU":
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    else:
        monkeypatch.setattr(blas, "threads", lambda: 2)

    def no_fork():
        raise AssertionError(f"forked with {limit}")

    monkeypatch.setattr(os, "fork", no_fork)
    checkpoint, predicted = train_and_predict(corpus, PGN, 2, tmp_path / "m.bin")
    assert checkpoint and len(predicted.sentences) == len(corpus.sentences)


def test_a_failed_fork_runs_the_direction_inline(tmp_path, monkeypatch, capsys):
    """A fork that fails (EAGAIN here) starts no process: the command runs
    the direction in this process, exits 0 and writes an inline run's bytes."""
    attempts = []

    def failing_fork():
        attempts.append(1)
        raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))

    argv = ["train", "--train-file", str(DATA / "de_dev.conllu"), "--variant", "basic",
            "--hidden", "4", "--word-dim", "4", "--pos-dim", "2", "--pred-dim", "2",
            "--layers", "2", "--epochs", "1", "--seed", "3"]
    with monkeypatch.context() as patch:
        patch.setattr(os, "sched_getaffinity", lambda pid: {0})
        assert cli.main(argv + ["--out", str(tmp_path / "inline.bin")]) == 0
    inline_log = capsys.readouterr().err
    monkeypatch.setattr(os, "fork", failing_fork)
    assert cli.main(argv + ["--out", str(tmp_path / "m.bin")]) == 0
    assert capsys.readouterr().err == inline_log
    assert len(attempts) == lstm._partner_available()
    assert (tmp_path / "m.bin").read_bytes() == (tmp_path / "inline.bin").read_bytes()


@needs_partner
def test_no_child_after_a_non_finite_loss(corpus, forks):
    cfg = config(BASIC, 1)
    words = list(Vocabulary.from_corpus(corpus).words[1:])  # all but <unk>
    table = np.full((len(words), cfg.word_dim), np.inf)
    # numpy's warnings are silenced: the error alone reports the divergence
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(TrainingError, match="epoch 1, batch 1"):
            train(corpus, cfg, seed=1, embeddings=(words, table))
    assert len(forks) == 1
    assert_reaped(forks)


def fail_in_child(monkeypatch, name, failure, owner=lstm):
    """Make ``owner.<name>`` call ``failure`` when it runs in a child."""
    real, parent = getattr(owner, name), os.getpid()

    def patched(*args, **kwargs):
        if os.getpid() != parent:
            failure()
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, patched)


def simulated_failure():
    raise RuntimeError("simulated partner failure")


@needs_partner
@pytest.mark.parametrize("name", ["_cell_forward", "_cell_backward"])
def test_partner_failure_is_raised_and_reaped(corpus, forks, monkeypatch, name):
    fail_in_child(monkeypatch, name, simulated_failure)
    with pytest.raises(lstm.PartnerError,
                       match="right-to-left partner: RuntimeError: simulated partner failure"):
        train(corpus, config(PGN, 2), seed=3)
    assert len(forks) == 1
    assert_reaped(forks)


@needs_partner
def test_killed_partner_is_raised_and_reaped(corpus, forks, monkeypatch, tmp_path):
    fail_in_child(monkeypatch, "_cell_forward", lambda: os.kill(os.getpid(), signal.SIGKILL))
    with pytest.raises(lstm.PartnerError, match="partner process ended"):
        train_and_predict(corpus, BASIC, 1, tmp_path / "m.bin")
    assert_reaped(forks)


@needs_partner
def test_partner_failure_exits_3(tmp_path, forks, monkeypatch, capsys):
    fail_in_child(monkeypatch, "_cell_forward", simulated_failure)
    argv = ["train", "--train-file", str(DATA / "de_dev.conllu"), "--out", str(tmp_path / "m"),
            "--variant", "basic", "--hidden", "4", "--word-dim", "4", "--pos-dim", "2",
            "--pred-dim", "2", "--layers", "1", "--epochs", "1"]
    assert cli.main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("xsrl: internal error: right-to-left partner: RuntimeError"), err
    assert not (tmp_path / "m").exists()
    assert_reaped(forks)


@needs_partner
def test_failure_here_kills_the_busy_partner(corpus, forks, monkeypatch):
    """An error in this process while the partner runs a call is raised as
    it is, and closing the runner kills and reaps the busy child."""
    real, parent = lstm._cell_forward, os.getpid()

    def failing_here(*args, **kwargs):
        if os.getpid() == parent:
            simulated_failure()
        return real(*args, **kwargs)

    busy = []
    close = lstm.Partner.close
    monkeypatch.setattr(lstm, "_cell_forward", failing_here)
    monkeypatch.setattr(lstm.Partner, "close", lambda self: busy.append(self._busy) or close(self))
    with pytest.raises(RuntimeError, match="simulated partner failure") as raised:
        train(corpus, config(BASIC, 1), seed=3)
    assert type(raised.value) is RuntimeError
    assert busy == [True]
    assert len(forks) == 1
    assert_reaped(forks)


@needs_partner
def test_no_child_after_predict_raises(corpus, forks, monkeypatch):
    model, _ = train(corpus, config(BASIC, 1), seed=3)
    fail_in_child(monkeypatch, "_cell_forward", simulated_failure)
    with pytest.raises(lstm.PartnerError):
        predict(model, corpus)
    assert len(forks) == 2
    assert_reaped(forks)


@pytest.fixture
def adam_steps(monkeypatch):
    """Adam steps counted by optimizer and process, in shared memory so a
    child's count is seen here: row 0 is the first optimizer ``train``
    builds (the head), row 1 the second (the tail); column 0 counts steps
    in this process, column 1 steps in a child."""
    counts = lstm.shared_array(4, np.int64).reshape(2, 2)
    parent, built = os.getpid(), []

    class CountingAdam(training._Adam):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.index = len(built)
            built.append(self)

        def update(self, params, grad):
            counts[self.index, int(os.getpid() != parent)] += 1
            super().update(params, grad)

    monkeypatch.setattr(training, "_Adam", CountingAdam)
    return counts


@pytest.mark.parametrize("runner", [pytest.param("partner", marks=needs_partner), "inline"])
def test_the_tail_step_runs_where_the_direction_runs(corpus, forks, monkeypatch, adam_steps,
                                                     runner):
    if runner == "inline":
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    cfg = config(BASIC, 1)
    train(corpus, cfg, seed=3)
    examples = sum(len(s.frames) for s in corpus.sentences)
    batches = cfg.epochs * -(-examples // cfg.batch_size)
    in_child = runner == "partner"
    assert adam_steps.tolist() == [[batches, 0], [batches * (not in_child), batches * in_child]]
    assert len(forks) == in_child
    assert_reaped(forks)


@needs_partner
def test_tail_step_failure_is_raised_and_reaped(corpus, forks, monkeypatch):
    fail_in_child(monkeypatch, "update", simulated_failure, owner=training._Adam)
    with pytest.raises(lstm.PartnerError,
                       match="right-to-left partner: RuntimeError: simulated partner failure"):
        train(corpus, config(BASIC, 2), seed=3)
    assert len(forks) == 1
    assert_reaped(forks)


def test_one_batch_predict_forks_nothing(corpus, forks):
    """EN's rows fill one batch: predicting them alone forks no partner and
    gives the frames they get beside DE's, where EN's batch is the same and
    two batches fork one where a partner can run."""
    model, _ = train(corpus, config(PGN, 2), seed=3)
    forks.clear()
    english = Corpus(tuple(s for s in corpus.sentences if s.lang == "EN"))
    alone = predict(model, english)
    assert sum(len(s.frames) for s in english.sentences) <= network.PREDICT_ROWS
    assert forks == []
    beside = predict(model, corpus)
    assert len(forks) == lstm._partner_available()
    assert_reaped(forks)
    assert tuple(s for s in beside.sentences if s.lang == "EN") == alone.sentences
