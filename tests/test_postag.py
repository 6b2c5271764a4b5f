from collections import Counter, defaultdict

import numpy as np
import pytest

from xsrl.corpus import UNIVERSAL_TAGS, Corpus, Sentence, Token, parse_srl_corpus
from xsrl.postag import (
    PosDistribution,
    PosError,
    fit_pos_emission,
    load_pos_distribution,
    pos_prob,
    save_pos_distribution,
)


def tagged(*pairs):
    sentences = []
    for i, (form, upos) in enumerate(pairs):
        sentences.append(Sentence(
            tokens=(Token(1, form, form, upos),), lang="XX", sent_id=str(i)))
    return Corpus.from_sentences(sentences)


def test_unsmoothed_single_tag():
    dist = fit_pos_emission(tagged(*[("dog", "NOUN")] * 3).sentences, k=0.0)
    assert pos_prob(dist, "dog", "NOUN") == 1.0
    assert pos_prob(dist, "dog", "VERB") == 0.0


def test_add_one_smoothing_hand_arithmetic():
    corpus = tagged(*([("run", "VERB")] * 3 + [("run", "NOUN")]))
    dist = fit_pos_emission(corpus.sentences, k=1.0)
    assert len(dist.tagset) == 17
    assert pos_prob(dist, "run", "VERB") == pytest.approx(4 / 21, abs=1e-15)
    assert pos_prob(dist, "run", "NOUN") == pytest.approx(2 / 21, abs=1e-15)
    assert pos_prob(dist, "run", "ADV") == pytest.approx(1 / 21, abs=1e-15)


def test_unseen_word_uniform():
    dist = fit_pos_emission(tagged(("dog", "NOUN")).sentences, k=0.0)
    assert pos_prob(dist, "unseen", "VERB") == pytest.approx(1 / 17)


def test_unknown_tag_errors():
    dist = fit_pos_emission(tagged(("dog", "NOUN")).sentences)
    with pytest.raises(PosError, match="VRB"):
        pos_prob(dist, "dog", "VRB")


def test_empty_corpus_errors():
    with pytest.raises(PosError, match="empty corpus"):
        fit_pos_emission(Corpus().sentences)


@pytest.mark.parametrize("k", [-1.0, float("inf"), float("nan")])
def test_smoothing_constant_must_be_finite_and_non_negative(k):
    # an infinite k would write NaN probabilities that the loader refuses
    with pytest.raises(PosError, match="smoothing constant must be a finite number >= 0"):
        fit_pos_emission(tagged(("dog", "NOUN")).sentences, k=k)


def test_rows_sum_to_one_everywhere():
    rng = np.random.default_rng(3)
    words = ["a", "b", "c", "dd"]
    tags = ["NOUN", "VERB", "ADV", "DET"]
    pairs = [(words[rng.integers(4)], tags[rng.integers(4)]) for _ in range(60)]
    for k in (0.0, 0.1, 2.0):
        dist = fit_pos_emission(tagged(*pairs).sentences, k=k)
        for word in words + ["missing"]:
            total = sum(pos_prob(dist, word, t) for t in dist.tagset)
            assert abs(total - 1.0) < 1e-9


def test_duplication_invariance_at_k0():
    pairs = [("a", "NOUN"), ("a", "VERB"), ("b", "ADV")]
    once = fit_pos_emission(tagged(*pairs).sentences, k=0.0)
    twice = fit_pos_emission(tagged(*(pairs * 2)).sentences, k=0.0)
    for word in ("a", "b"):
        for tag in once.tagset:
            assert pos_prob(once, word, tag) == pytest.approx(
                pos_prob(twice, word, tag), abs=1e-15)


def test_fit_deterministic(toy_dir):
    text = (toy_dir / "de_tagged.conllu").read_text()
    corpus = parse_srl_corpus(text, require_pred=False)
    d1 = fit_pos_emission(corpus.sentences)
    d2 = fit_pos_emission(corpus.sentences)
    assert d1.tagset == d2.tagset
    assert set(d1.dist) == set(d2.dist)
    for word in d1.dist:
        assert np.array_equal(d1.dist[word], d2.dist[word])


def test_round_trip(tmp_path):
    dist = fit_pos_emission(tagged(("dog", "NOUN"), ("dog", "VERB"), ("cat", "NOUN")).sentences,
                            k=0.1)
    path = tmp_path / "pos.tsv"
    save_pos_distribution(dist, str(path))
    loaded = load_pos_distribution(str(path))
    assert loaded.tagset == dist.tagset
    assert set(loaded.dist) == set(dist.dist)
    for word in dist.dist:
        assert np.array_equal(loaded.dist[word], dist.dist[word])


def test_round_trip_of_an_untagged_corpus(tmp_path):
    """A corpus with no tags fits a distribution with no words; its file is
    the tagset line alone, which loads as that distribution."""
    dist = fit_pos_emission(tagged(("dog", "_"), ("cat", "_")).sentences, k=0.1)
    assert dist.dist == {}
    path = tmp_path / "pos.tsv"
    save_pos_distribution(dist, str(path))
    loaded = load_pos_distribution(str(path))
    assert loaded.tagset == dist.tagset
    assert loaded.dist == {}


def test_load_rejects_bad_sums(tmp_path):
    path = tmp_path / "pos.tsv"
    path.write_text("tagset\tNOUN,VERB\nw\tNOUN\t0.6\nw\tVERB\t0.6\n")
    with pytest.raises(PosError, match="above 1"):
        load_pos_distribution(str(path))
    path.write_text("tagset\tNOUN,VERB\nw\tNOUN\t0.3\n")
    with pytest.raises(PosError, match="below 1"):
        load_pos_distribution(str(path))


def test_load_empty_file_uniform_everywhere(tmp_path):
    path = tmp_path / "empty.tsv"
    path.write_text("")
    dist = load_pos_distribution(str(path))
    assert dist.dist == {}
    assert pos_prob(dist, "anything", "NOUN") == pytest.approx(1 / 17)


def test_construction_rejects_bad_tagset():
    with pytest.raises(PosError):
        PosDistribution(tagset=())
    with pytest.raises(PosError):
        PosDistribution(tagset=("NOUN", "NOUN"))


def reference_fit(corpus, k):
    """The word-by-word loop that ``fit_pos_emission`` must match bit for bit."""
    pair_counts = defaultdict(Counter)
    for sent in corpus.sentences:
        for tok in sent.tokens:
            if tok.upos != "_":
                pair_counts[tok.form][tok.upos] += 1
    tagset = tuple(sorted({t for c in pair_counts.values() for t in c} | set(UNIVERSAL_TAGS)))
    dist = {}
    for word, tags in pair_counts.items():
        counts = np.array([tags.get(t, 0) for t in tagset], dtype=np.float64)
        dist[word] = (counts + k) / (counts.sum() + k * len(tagset))
    return PosDistribution(tagset=tagset, dist=dist)


def reference_save(dist):
    lines = ["tagset\t" + ",".join(dist.tagset) + "\n"]
    for word in sorted(dist.dist):
        for tag, p in zip(dist.tagset, dist.dist[word]):
            if p != 0.0:
                lines.append(f"{word}\t{tag}\t{float(p)!r}\n")
    return "".join(lines)


def reference_load(text):
    """The line-by-line loader: its distribution, or its error message."""
    lines = text.split("\n")
    dist = PosDistribution(tagset=tuple(lines[0].split("\t")[1].split(",")))
    rows = {}
    try:
        for lineno, line in enumerate(lines[1:], start=2):
            if not line:
                continue
            fields = line.split("\t")
            if len(fields) != 3:
                raise PosError(f"line {lineno}: expected 'word\\ttag\\tprob'")
            word, tag, text = fields
            try:
                p = float(text)
            except ValueError:
                raise PosError(f"line {lineno}: malformed probability {text!r}") from None
            if not 0.0 <= p <= 1.0:
                raise PosError(f"line {lineno}: probability out of range: {text}")
            if tag not in dist.tagset:
                raise PosError(f"line {lineno}: unknown POS tag {tag!r}")
            vec = rows.setdefault(word, np.zeros(len(dist.tagset)))
            vec[dist.tagset.index(tag)] = p
        for word, vec in rows.items():
            total = vec.sum()
            if total > 1.0 + 1e-6:
                raise PosError(f"probabilities for word {word!r} sum to {total}, above 1")
            if total < 1.0 - 1e-6:
                raise PosError(f"probabilities for word {word!r} sum to {total}, below 1")
    except PosError as exc:
        return str(exc)
    return rows


def _tagged_corpora(toy_dir):
    yield parse_srl_corpus((toy_dir / "de_tagged.conllu").read_text(), require_pred=False)
    rng = np.random.default_rng(11)
    tags = ["NOUN", "VERB", "ADV", "_", "X", "INTJ"]
    for _ in range(20):
        yield tagged(*[(f"w{rng.integers(8)}", tags[rng.integers(len(tags))])
                       for _ in range(int(rng.integers(1, 40)))])
    yield tagged(("a", "_"), ("b", "_"))


def test_fit_and_save_match_reference_loops(toy_dir, tmp_path):
    for corpus in _tagged_corpora(toy_dir):
        for k in (0.0, 0.1, 2.0):
            got, want = fit_pos_emission(corpus.sentences, k=k), reference_fit(corpus, k)
            assert got.tagset == want.tagset
            assert list(got.dist) == list(want.dist)
            for word, vec in want.dist.items():
                assert got.dist[word].tolist() == vec.tolist()
            save_pos_distribution(got, str(tmp_path / "pos.tsv"))
            assert (tmp_path / "pos.tsv").read_text(encoding="utf-8") == reference_save(want)


LOAD_CASES = [
    "tagset\tNOUN,VERB\nw\tNOUN\t0.25\nv\tVERB\t1.0\nw\tVERB\t0.75\n",
    "tagset\tNOUN,VERB\nw\tNOUN\t0.9\nw\tVERB\t0.1\nw\tNOUN\t0.5\nw\tVERB\t0.5\n",
    "tagset\tNOUN,VERB\n\nw\tNOUN\t1.0\n\nv\tVERB\t1.0",
    "tagset\tNOUN,VERB\nw\tNOUN\t0.6\nw\tVERB\t0.6\n",
    "tagset\tNOUN,VERB\nw\tNOUN\t1.0\nv\tNOUN\t0.3\nu\tNOUN\t0.2\n",
    "tagset\tNOUN,VERB\nw\tNOUN\t1.0\nv\tNOUN\n",
    "tagset\tNOUN,VERB\nw\tNOUN\t1.0\tx\n",
    "tagset\tNOUN,VERB\nw\tNOUN\tnope\nv\tNOUN\n",
    "tagset\tNOUN,VERB\nw\tNOUN\t1.0\nv\tNOUN\tnan\n",
    "tagset\tNOUN,VERB\nw\tNOUN\t-0.5\n",
    "tagset\tNOUN,VERB\nw\tNOUN\t1.5\nv\tADJ\t1.0\n",
    "tagset\tNOUN,VERB\nw\tADJ\t1.0\nv\tNOUN\t1.5\n",
    "tagset\tNOUN,VERB\n \n",
]


def assert_load_matches_reference(path, text):
    path.write_text(text, encoding="utf-8")
    want = reference_load(text)
    if isinstance(want, str):
        with pytest.raises(PosError) as exc:
            load_pos_distribution(str(path))
        assert str(exc.value) == want
    else:
        got = load_pos_distribution(str(path)).dist
        assert list(got) == list(want)
        for word, vec in want.items():
            assert got[word].tolist() == vec.tolist()


@pytest.mark.parametrize("text", LOAD_CASES)
def test_load_matches_reference_loop(tmp_path, text):
    assert_load_matches_reference(tmp_path / "pos.tsv", text)


def test_load_sums_each_word_like_the_loop(tmp_path):
    rng = np.random.default_rng(2)
    tags = [f"T{i}" for i in range(18)]
    rows, lines = {}, []
    for w in range(300):
        vec = rng.random(18) * (rng.random(18) < 0.6)
        vec = vec / vec.sum() * (1 + rng.normal() * 1e-7)
        for tag, p in zip(tags, vec):
            lines.append(f"w{w}\t{tag}\t{p!r}")
    text = "tagset\t" + ",".join(tags) + "\n" + "\n".join(lines) + "\n"
    for drift in ("", "w7\tT3\t0.5\n"):
        assert_load_matches_reference(tmp_path / "pos.tsv", text + drift)


@pytest.mark.parametrize("text", ["\ntagset\tNOUN,VERB\nw\tNOUN\t1.0\n", "\n\nw\tNOUN\t1.0\n"])
def test_load_needs_the_header_on_line_1(tmp_path, text):
    """Only a file with no non-empty line is the empty distribution; a
    blank line before the header does not make a file empty."""
    path = tmp_path / "pos.tsv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(PosError) as exc:
        load_pos_distribution(str(path))
    assert str(exc.value) == "line 1: expected 'tagset\\t<comma-joined tags>' header"
    path.write_text("\n\n", encoding="utf-8")
    assert load_pos_distribution(str(path)).dist == {}


def test_load_peaks_near_what_it_keeps(tmp_path):
    """The file is read a line at a time: loading 1 500 words of 17 tags
    takes little more memory than the distribution it returns."""
    import tracemalloc

    probs = np.random.default_rng(5).random((1500, len(UNIVERSAL_TAGS))) + 0.01
    probs /= probs.sum(axis=1, keepdims=True)
    path = tmp_path / "pos.tsv"
    save_pos_distribution(PosDistribution(dist={f"w{i}": row for i, row in enumerate(probs)}),
                          str(path))
    tracemalloc.start()
    try:
        dist = load_pos_distribution(str(path))
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(dist.dist) == 1500
    assert peak <= 1.5 * kept, peak / kept
