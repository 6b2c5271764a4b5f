"""Tests of the benchmark's own parts: input generator, tracer, metric lists.

Run from the repository root:  python3 -m pytest bench -q
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import run  # noqa: E402
import synth  # noqa: E402
from tracer import Tracer, instrument  # noqa: E402
from xsrl.alignment import read_parallel_corpus  # noqa: E402
from xsrl.corpus import parse_srl_corpus, validate_corpus  # noqa: E402

SMALL_PREP = dict(lexicon_size=60, pairs=80, sentences=40, tagged=30, clause_range=(0, 2))
SMALL_TRAIN = dict(lexicon_size=60, train_tokens=400, dev_tokens=300, clause_range=(0, 4))


@pytest.mark.parametrize("make, sizes", [(synth.prep_corpus, SMALL_PREP),
                                         (synth.train_corpus, SMALL_TRAIN)])
def test_same_seed_same_bytes_other_seed_other_bytes(make, sizes):
    assert make(3, **sizes) == make(3, **sizes)
    first, other = make(3, **sizes), make(4, **sizes)
    assert all(first[name] != other[name] for name in first)


@pytest.mark.parametrize("make, sizes", [(synth.prep_corpus, SMALL_PREP),
                                         (synth.train_corpus, SMALL_TRAIN)])
def test_generated_corpora_validate(make, sizes):
    files = make(5, **sizes)
    for name, text in files.items():
        if name.endswith(".txt"):
            assert len(read_parallel_corpus(text)) == sizes["pairs"]
            continue
        with_frames = name in ("en_srl.conllu", "en_train.conllu", "de_train.conllu",
                               "de_dev.conllu")
        corpus = parse_srl_corpus(text, require_pred=with_frames)
        assert validate_corpus(corpus) == [], name
        if with_frames:
            assert all(s.frames for s in corpus.sentences), name


def test_chained_clauses_widen_lengths_and_frames():
    corpus = parse_srl_corpus(synth.train_corpus(2, **SMALL_TRAIN)["en_train.conllu"])
    frames = {len(s.frames) for s in corpus.sentences}
    lengths = [len(s.tokens) for s in corpus.sentences]
    assert max(frames) >= 5 and min(frames) == 1
    assert max(lengths) - min(lengths) >= 12


def test_lexicon_is_distinct_and_leaves_toy_templates_alone():
    before = list(synth.toy.NOUNS)
    lexicon = synth.make_lexicon(synth.np.random.default_rng(0), 500)
    assert len({e for e, _, _ in lexicon}) == len({d for _, d, _ in lexicon}) == 500
    synth.sample(synth.np.random.default_rng(0), lexicon, 2)
    assert synth.toy.NOUNS == before


def fake_clock():
    ticks = iter(range(1000))
    return lambda: next(ticks)


def test_spans_nest_and_self_times_add_up_to_the_root():
    tracer = Tracer(clock=fake_clock())
    with tracer.span("root"):              # 0 .. 7
        with tracer.span("a"):             # 1 .. 4
            with tracer.span("b"):         # 2 .. 3
                pass
        with tracer.span("b"):             # 5 .. 6
            pass
    assert [(n, s, e, p) for n, s, e, p, _ in tracer.spans] == [
        ("root", 0, 7, -1), ("a", 1, 4, 0), ("b", 2, 3, 1), ("b", 5, 6, 0)]
    self_s = tracer.self_times(0)
    assert self_s == {"root": 3, "a": 2, "b": 2}
    assert sum(self_s.values()) == 7


def test_self_times_are_per_run_id():
    tracer = Tracer(clock=fake_clock())
    with tracer.span("x"):
        pass
    tracer.run_id = 1
    with tracer.span("x"):
        with tracer.span("y"):
            pass
    assert tracer.self_times(0) == {"x": 1}
    assert tracer.self_times(1) == {"x": 2, "y": 1}


def test_instrument_wraps_where_the_caller_looks_and_restores():
    import xsrl.model.crf as crf
    from xsrl.model import network

    original = crf.viterbi
    tracer = Tracer(clock=fake_clock())
    patches = [("xsrl.model.crf", "viterbi", "model.crf.viterbi", None),
               ("xsrl.model.crf", "no_such_function", "nothing", None)]
    emissions = synth.np.zeros((3, 2))
    transitions = synth.np.zeros((4, 4))
    with instrument(tracer, patches) as missing:
        network.crf.viterbi(emissions, transitions)
    assert missing == ["xsrl.model.crf.no_such_function"]
    assert crf.viterbi is original
    assert [s[0] for s in tracer.spans] == ["model.crf.viterbi"]
    assert tracer.counts[0]["model.crf.viterbi.calls"] == 1


def test_benchmark_json_lists_what_the_runner_reports():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    for key, metrics in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        assert [(m["name"], m["unit"], m["better"]) for m in spec[key]] == metrics
