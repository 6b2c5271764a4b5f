import importlib.util
import math
import tracemalloc
from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest

from xsrl import alignment, malloc
from xsrl.alignment import (
    NULL_TOKEN,
    AlignmentError,
    AlignmentTable,
    ParallelPair,
    best_target,
    ibm1_train,
    load_table,
    read_parallel_corpus,
    save_table,
)

from conftest import DATA, alignment_table, read

SYNTH = Path(__file__).resolve().parent.parent / "bench" / "synth.py"


def pair(src, tgt):
    return ParallelPair(tuple(src.split()), tuple(tgt.split()))


def test_single_cooccurrence_converges():
    log = []
    table = ibm1_train([pair("a", "x")] * 10, iterations=5, log=log)
    stored = table.probs[("a", "x")]
    renormalized = stored / (1.0 - table.null_mass("a"))
    assert abs(renormalized - 1.0) < 1e-12
    assert abs(stored + table.null_mass("a") - 1.0) < 1e-12


def test_two_pair_ordering_hand_run():
    # two EM iterations by hand confirm a(x|a) pulls ahead of a(y|a):
    # "a" co-occurs with x in both pairs but with y only in the first.
    table = ibm1_train([pair("a b", "x y"), pair("a", "x")], iterations=10)
    assert table.probs[("a", "x")] > table.probs[("a", "y")]


def test_iterations_zero_error():
    with pytest.raises(AlignmentError, match="iterations"):
        ibm1_train([pair("a", "x")], iterations=0)


@pytest.mark.parametrize("floor", [-0.1, 1.5, float("nan")])
def test_floor_outside_unit_interval_error(floor):
    # a table with such a floor could be saved but not loaded
    with pytest.raises(AlignmentError, match=r"^floor must be in \[0,1\], got "):
        ibm1_train([pair("a", "x")], iterations=1, floor=floor)


def test_empty_inputs_error():
    with pytest.raises(AlignmentError, match="empty pair list"):
        ibm1_train([], iterations=1)
    with pytest.raises(AlignmentError, match="pair 1"):
        ibm1_train([pair("a", "x"), ParallelPair((), ("x",))], iterations=1)


def test_loglik_monotone_and_normalized(toy_dir):
    pairs = read_parallel_corpus(read(toy_dir / "bitext.txt"))
    log = []
    table = ibm1_train(pairs, iterations=10, log=log)
    assert len(log) == 10
    assert all(later >= earlier - 1e-9 for earlier, later in zip(log, log[1:]))
    sums = {}
    for (e, _), p in table.probs.items():
        sums[e] = sums.get(e, 0.0) + p
    assert sums
    for e, total in sums.items():
        assert abs(total - 1.0) < 1e-9, e


def test_determinism_bit_identical(toy_dir):
    pairs = read_parallel_corpus(read(toy_dir / "bitext.txt"))[:50]
    t1 = ibm1_train(pairs, iterations=4)
    t2 = ibm1_train(pairs, iterations=4)
    assert t1.probs == t2.probs and t1.floor == t2.floor


def reference_ibm1(pairs, iterations):
    """The textbook dict-keyed EM loop that ``ibm1_train`` must match bit for bit."""
    corpus = [(list(p.src_tokens), [NULL_TOKEN, *p.tgt_tokens]) for p in pairs]
    uniform = 1.0 / len({f for _, tgt in corpus for f in tgt})
    probs = defaultdict(lambda: uniform)
    log = []
    for _ in range(iterations):
        counts = defaultdict(float)
        totals = defaultdict(float)
        loglik = 0.0
        for src, tgt in corpus:
            inv_len = 1.0 / len(tgt)
            for e in src:
                denom = sum(probs[(e, f)] for f in tgt)
                loglik += math.log(denom * inv_len)
                for f in tgt:
                    gamma = probs[(e, f)] / denom
                    counts[(e, f)] += gamma
                    totals[e] += gamma
        probs = {(e, f): c / totals[e] for (e, f), c in counts.items()}
        log.append(loglik)
    return probs, log


EQUIVALENCE_CASES = {
    "repeated-word": [pair("a a b", "x y x"), pair("b a", "y y"), pair("a", "x z")],
    "literal-null": [pair("a b", f"{NULL_TOKEN} x"), pair("b", f"y {NULL_TOKEN}"),
                     pair(NULL_TOKEN, "x")],
    "single-pair": [pair("a b c", "x y")],
    "mixed-case": [pair("The Dog", "Der Hund"), pair("the dog runs", "der hund läuft"),
                   pair("DOG", "HUND")],
    "mixed-case-literal-null": [pair("A <NULL>", f"X {NULL_TOKEN}"), pair("a", "<null> x")],
}


@pytest.mark.parametrize("case", ["toy", *EQUIVALENCE_CASES])
def test_ibm1_matches_reference_loop_bit_for_bit(case, toy_dir, tmp_path):
    if case == "toy":
        pairs = read_parallel_corpus(read(toy_dir / "bitext.txt"))
    else:
        pairs = EQUIVALENCE_CASES[case]
    expected_probs, expected_log = reference_ibm1(pairs, 10)
    log = []
    table = ibm1_train(pairs, iterations=10, floor=1e-6, log=log)
    assert table.probs == expected_probs
    # rows and each row's targets come in the reference's order of first use
    sources = list(dict.fromkeys(e for e, _ in expected_probs))
    assert list(table.rows) == sources
    for e in sources:
        assert list(table.rows[e]) == [f for src, f in expected_probs if src == e]
    assert all(type(p) is float for p in table.probs.values())
    assert log == expected_log
    save_table(table, str(tmp_path / "got.tsv"))
    save_table(alignment_table(expected_probs, floor=1e-6), str(tmp_path / "want.tsv"))
    assert (tmp_path / "got.tsv").read_bytes() == (tmp_path / "want.tsv").read_bytes()


@pytest.mark.parametrize("block_links", [1, 7, 64])
@pytest.mark.parametrize("case", ["toy", *EQUIVALENCE_CASES])
def test_ibm1_blocks_match_reference_loop_bit_for_bit(case, block_links, toy_dir, tmp_path,
                                                      monkeypatch):
    # blocks this small cut the corpus many times, and a pair of more links
    # than a block is a block of its own
    monkeypatch.setattr(alignment, "BLOCK_LINKS", block_links)
    if case == "toy":
        pairs = read_parallel_corpus(read(toy_dir / "bitext.txt"))
    else:
        pairs = EQUIVALENCE_CASES[case]
    expected_probs, expected_log = reference_ibm1(pairs, 10)
    log = []
    table = ibm1_train(pairs, iterations=10, floor=1e-6, log=log)
    assert table.probs == expected_probs
    sources = list(dict.fromkeys(e for e, _ in expected_probs))
    assert list(table.rows) == sources
    for e in sources:
        assert list(table.rows[e]) == [f for src, f in expected_probs if src == e]
    assert log == expected_log
    save_table(table, str(tmp_path / "got.tsv"))
    save_table(alignment_table(expected_probs, floor=1e-6), str(tmp_path / "want.tsv"))
    assert (tmp_path / "got.tsv").read_bytes() == (tmp_path / "want.tsv").read_bytes()


def test_ibm1_memory_grows_under_8_bytes_a_link():
    # 40 x 40 pairs over 100 words a side: about 10k entries however many
    # pairs, so what the peak gains from 400 to 800 pairs is per link
    rng = np.random.default_rng(0)
    src = [f"s{i}" for i in range(100)]
    tgt = [f"t{i}" for i in range(100)]

    def peak(n_pairs):
        pairs = [ParallelPair(tuple(src[i] for i in rng.integers(0, 100, 40)),
                              tuple(tgt[i] for i in rng.integers(0, 100, 40)))
                 for _ in range(n_pairs)]
        tracemalloc.start()
        try:
            ibm1_train(pairs, iterations=2)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    added_links = 400 * 40 * 41
    assert peak(800) - peak(400) <= 8 * added_links


def links_estimate(pairs):
    """The memory estimate align-train checked before ibm1_train checked its
    own: 4 bytes a link, 40 a token (the NULL left out) and 64 a link of
    the largest block."""
    tokens = links = widest = 0
    for p in pairs:
        m, n = len(p.src_tokens), len(p.tgt_tokens)
        tokens += m + n
        links += m * (n + 1)
        widest = max(widest, m * (n + 1))
    return 4 * links + 40 * tokens + 64 * min(links, max(widest, alignment.BLOCK_LINKS))


def refusal(monkeypatch, pairs, *memory):
    """What ibm1_train refuses with when physical memory reads ``memory[k]``
    at its k-th check, or None when it trains."""
    readings = iter(memory)
    monkeypatch.setattr(malloc, "physical_memory", lambda: next(readings))
    try:
        ibm1_train(pairs, iterations=1)
    except AlignmentError as exc:
        return str(exc)
    return None


def test_ibm1_train_refuses_exactly_above_its_links_estimate(monkeypatch):
    pairs = [pair("a b", "x y z"), pair("a", "x")]
    needed = 4 * 10 + 40 * 7 + 64 * 8  # 10 links, 7 tokens, a block of 8 links
    for block_links in (8, 1):  # at 1 the 8-link pair is still a block
        monkeypatch.setattr(alignment, "BLOCK_LINKS", block_links)
        assert refusal(monkeypatch, pairs, needed, needed + 2**20) is None
        assert refusal(monkeypatch, pairs, needed - 1) == (
            "aligning its 2 pairs (10 links) needs about 0.0 GiB, more than the 0.0 GiB "
            "of physical memory")


def prep_bitext(seed=3):
    """The bitext of the benchmark's prep-large-vocab inputs."""
    spec = importlib.util.spec_from_file_location("bench_synth", SYNTH)
    synth = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(synth)
    files = synth.prep_corpus(seed, lexicon_size=1500, pairs=5000, sentences=2500, tagged=2500)
    return read_parallel_corpus(files["bitext.txt"])


def test_links_estimate_keeps_the_old_threshold(monkeypatch):
    wide = pair(" ".join(f"s{i}" for i in range(256)), " ".join(f"t{i}" for i in range(256)))
    assert 256 * 257 > alignment.BLOCK_LINKS
    for pairs in (read_parallel_corpus(read(DATA / "bitext.txt")), prep_bitext(),
                  [pair("a b", "x"), wide, pair("c", "y z")]):
        needed = links_estimate(pairs)
        assert "links) needs" in refusal(monkeypatch, pairs, needed - 1)
        assert "table entries) needs" in refusal(monkeypatch, pairs, needed, 0)


def distinct_pairs(n, width=20):
    """``n`` pairs of ``width`` words a side, no word used twice."""
    return [ParallelPair(tuple(f"s{p}.{i}" for i in range(width)),
                         tuple(f"t{p}.{i}" for i in range(width))) for p in range(n)]


def test_ibm1_train_counts_the_table_entries(monkeypatch):
    # 42 000 links, each its own entry, and 2 000 source words: the table,
    # not the links, sets the peak
    monkeypatch.setattr(alignment, "BLOCK_LINKS", 2**10)
    pairs = distinct_pairs(100)
    links = links_estimate(pairs)
    full = (links + 42_000 * alignment._ENTRY_BYTES + 2_000 * alignment._SOURCE_BYTES)
    assert refusal(monkeypatch, pairs, full, full) is None
    assert refusal(monkeypatch, pairs, full - 1, full - 1).startswith(
        "aligning its 100 pairs (42,000 links, 42,000 table entries) needs about")
    log = []
    monkeypatch.setattr(malloc, "physical_memory", lambda: (links + full) // 2)
    with pytest.raises(AlignmentError, match="table entries"):
        ibm1_train(pairs, iterations=1, log=log)
    assert log == []  # refused before the EM
    monkeypatch.setattr(malloc, "physical_memory", lambda: full)
    tracemalloc.start()
    try:
        ibm1_train(pairs, iterations=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= full <= 1.5 * peak


def test_best_target_scores_unseen_pairs_at_the_floor():
    table = alignment_table({("run", "x"): 0.7}, floor=0.0)
    assert best_target(table, "run", ["x"]) == (1, 0.7)
    assert best_target(table, "run", ["zzz"]) == (1, 0.0)
    assert best_target(AlignmentTable(floor=1e-6), "run", ["zzz"]) == (1, 1e-6)
    assert best_target(alignment_table({("run", "x"): 1e-7}, floor=1e-6),
                       "run", ["x", "zzz"]) == (2, 1e-6)


def test_best_target_and_ties():
    table = alignment_table({("run", "x"): 0.7, ("run", "y"): 0.2})
    assert best_target(table, "run", ["x", "y"]) == (1, 0.7)
    assert best_target(table, "run", ["y", "x"]) == (2, 0.7)
    floored = AlignmentTable(floor=0.25)
    assert best_target(floored, "run", ["p", "q"]) == (1, 0.25)
    with pytest.raises(AlignmentError, match="empty target"):
        best_target(table, "run", [])


def test_best_target_matches_exhaustive_scan():
    rng = np.random.default_rng(5)
    vocab = [f"w{i}" for i in range(12)]
    for _ in range(200):
        entries = {("e", vocab[i]): float(rng.random())
                   for i in rng.choice(12, size=6, replace=False)}
        table = alignment_table(entries, floor=float(rng.random()) * 0.1)
        sentence = [vocab[i] for i in rng.integers(0, 12, size=rng.integers(1, 9))]
        j, p = best_target(table, "e", sentence)
        probs = [table.probs.get(("e", f), table.floor) for f in sentence]
        best = max(probs)
        assert p == best
        assert j == probs.index(best) + 1


def test_best_target_toy_table_brute_force(toy_dir):
    pairs = read_parallel_corpus(read(toy_dir / "bitext.txt"))
    table = ibm1_train(pairs, iterations=10)
    sentence = "das haus folgt dem fluss heute !".split()
    j, p = best_target(table, "house", sentence)
    probs = [table.probs.get(("house", f), table.floor) for f in sentence]
    assert p == max(probs)
    assert j == probs.index(max(probs)) + 1
    assert sentence[j - 1] == "haus"


def test_best_target_never_returns_null(toy_dir):
    pairs = read_parallel_corpus(read(toy_dir / "bitext.txt"))
    table = ibm1_train(pairs, iterations=5)
    assert table.null_mass("dog") > 0.0
    j, _ = best_target(table, "dog", ["hund", "katze"])
    assert j == 1


def test_table_keys_keep_the_bitext_spelling():
    table = ibm1_train([pair("Dog", "Hund")] * 4, iterations=3)
    assert ("dog", "hund") not in table.probs
    assert table.probs[("Dog", "Hund")] > 0.0


def test_table_round_trip(tmp_path):
    table = alignment_table({("a", "x"): 0.5, ("a", NULL_TOKEN): 0.5, ("b", "y"): 1.0},
                            floor=1e-6)
    path = tmp_path / "t.tsv"
    save_table(table, str(path))
    loaded = load_table(str(path))
    assert loaded.probs == table.probs
    assert loaded.floor == table.floor


def test_load_table_shares_one_string_per_word(tmp_path):
    path = tmp_path / "t.tsv"
    path.write_text("floor\t0.0\nhouse\thaus\t0.5\nhouse\t<NULL>\t0.5\n"
                    "home\thaus\t1.0\n", encoding="utf-8")
    rows = load_table(str(path)).rows
    assert list(rows) == ["house", "home"]
    assert next(iter(rows["house"])) is next(iter(rows["home"]))


def test_load_errors(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("floor\t0.0\na\tx\t1.5\n")
    with pytest.raises(AlignmentError, match="line 2: probability out of range"):
        load_table(str(path))
    path.write_text("floor\t0.0\na\tx\tnope\n")
    with pytest.raises(AlignmentError, match="malformed probability"):
        load_table(str(path))


def test_a_floor_header_off_line_1_says_so(tmp_path):
    path = tmp_path / "t.tsv"
    path.write_text("\nfloor\t0.001\na\tx\t0.5\n")
    with pytest.raises(AlignmentError, match="^line 2: 'floor' header must be line 1$"):
        load_table(str(path))
    path.write_text("floor\t0.0\nfloor\tx\t0.5\n")  # a row for the source word "floor"
    assert load_table(str(path)).probs == {("floor", "x"): 0.5}


def test_a_headerless_table_may_start_with_a_floor_row(tmp_path):
    path = tmp_path / "t.tsv"
    path.write_text("floor\tx\t0.5\nhouse\thaus\t1.0\n")
    table = load_table(str(path))
    assert table.rows == {"floor": {"x": 0.5}, "house": {"haus": 1.0}}
    assert table.floor == 0.0
    for line in ("floor\n", "floor\t0.0\t1\t2\n"):
        path.write_text(line + "house\thaus\t1.0\n")
        with pytest.raises(AlignmentError, match="^line 1: malformed floor header$"):
            load_table(str(path))


def test_load_table_holds_under_80_bytes_an_entry(tmp_path):
    """A 400 × 30 table, each source word's targets drawn from a shared
    vocabulary as in a real table, held after the load in tracemalloc."""
    path = tmp_path / "t.tsv"
    lines = [f"source{e}\ttarget{(7 * e + 11 * k) % 1000}\t{1 / (k + 2)!r}\n"
             for e in range(400) for k in range(30)]
    path.write_text("floor\t0.0\n" + "".join(lines), encoding="utf-8")
    tracemalloc.start()
    try:
        table = load_table(str(path))
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held / 12_000 <= 80, f"{held / 12_000:.0f} B an entry"
    assert sum(map(len, table.rows.values())) == 12_000


def test_load_empty_file(tmp_path):
    path = tmp_path / "empty.tsv"
    path.write_text("")
    table = load_table(str(path))
    assert table.probs == {} and table.floor == 0.0


def test_parallel_corpus_errors():
    with pytest.raises(AlignmentError, match="line 1"):
        read_parallel_corpus("no separator here")
    with pytest.raises(AlignmentError, match="line 2: empty side"):
        read_parallel_corpus("a ||| x\nb |||\n")
