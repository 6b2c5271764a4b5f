import numpy as np
import pytest

from xsrl.corpus import (
    Corpus,
    CorpusError,
    PredicateFrame,
    Sentence,
    Token,
    corpus_stats,
    parse_srl_corpus,
    validate_corpus,
    write_srl_corpus,
)

from conftest import random_corpus, read

MINIMAL = (
    "# lang = EN\n"
    "1\tdog\tdog\tNOUN\t_\t_\t2\tnsubj\t_\t_\t_\tA0\n"
    "2\truns\trun\tVERB\t_\t_\t0\troot\t_\t_\trun.01\t_\n"
    "\n"
)


def test_parse_minimal():
    corpus = parse_srl_corpus(MINIMAL)
    assert len(corpus.sentences) == 1
    sent = corpus.sentences[0]
    assert sent.lang == "EN"
    assert len(sent.frames) == 1
    frame = sent.frames[0]
    assert frame.pred_index == 2
    assert frame.sense == "run.01"
    assert frame.args == ((1, "A0"),)


def test_parse_shares_one_string_per_word():
    first, second = parse_srl_corpus(MINIMAL + MINIMAL).sentences
    assert first.tokens[0].form is second.tokens[0].form
    assert first.tokens[0].form is first.tokens[0].lemma
    assert first.frames[0].args[0][1] is second.frames[0].args[0][1]


def test_round_trip_canonical_bytes():
    out = write_srl_corpus(parse_srl_corpus(MINIMAL))
    assert out == write_srl_corpus(parse_srl_corpus(out))


def test_too_few_columns_names_line():
    text = "# sent_id = x\n# lang = EN\n1\ta\tb\tNOUN\t_\t_\t0\tx\tr\n\n"
    with pytest.raises(CorpusError, match="line 3: expected ≥11 columns"):
        parse_srl_corpus(text)


def test_bare_conllu_allowed_without_pred():
    text = "# lang = DE\n1\thund\thund\tNOUN\t_\t_\t0\troot\t_\t_\n\n"
    with pytest.raises(CorpusError):
        parse_srl_corpus(text)
    corpus = parse_srl_corpus(text, require_pred=False)
    assert corpus.sentences[0].frames == ()


def test_non_contiguous_indices_rejected():
    text = (
        "# lang = EN\n"
        "1\ta\ta\tNOUN\t_\t_\t0\tdep\t_\t_\t_\n"
        "3\tb\tb\tNOUN\t_\t_\t0\tdep\t_\t_\t_\n\n"
    )
    with pytest.raises(CorpusError, match="sent-indices"):
        parse_srl_corpus(text)


def test_multiword_and_empty_nodes_rejected():
    base = "# lang = EN\n{}\tab\tab\tNOUN\t_\t_\t0\tdep\t_\t_\t_\n\n"
    for bad in ("1-2", "1.1"):
        with pytest.raises(CorpusError, match="not supported"):
            parse_srl_corpus(base.format(bad))


def test_arg_column_count_mismatch():
    text = (
        "# lang = EN\n"
        "1\ta\ta\tNOUN\t_\t_\t2\tdep\t_\t_\t_\tA0\tA1\n"
        "2\tb\tb\tVERB\t_\t_\t0\troot\t_\t_\tb.01\t_\t_\n\n"
    )
    with pytest.raises(CorpusError, match="1 predicates but 2 ARG columns"):
        parse_srl_corpus(text)


def test_missing_language_requires_default():
    text = "1\ta\ta\tNOUN\t_\t_\t0\tdep\t_\t_\t_\n\n"
    with pytest.raises(CorpusError, match="no '# lang"):
        parse_srl_corpus(text)
    assert parse_srl_corpus(text, default_lang="FI").sentences[0].lang == "FI"


def test_write_empty_corpus_is_empty():
    assert write_srl_corpus(Corpus()) == b""


def test_write_ends_with_single_blank_line():
    data = write_srl_corpus(parse_srl_corpus(MINIMAL)).decode()
    assert data.endswith("\t_\n\n")
    assert not data.endswith("\n\n\n")


def test_two_predicates_expected_file():
    sent = Sentence(
        tokens=(
            Token(1, "a", "a", "NOUN"),
            Token(2, "b", "b", "VERB"),
            Token(3, "c", "c", "VERB"),
        ),
        lang="EN",
        frames=(
            PredicateFrame(2, "b.01", ((1, "A0"),)),
            PredicateFrame(3, "c.02", ((1, "A1"),)),
        ),
    )
    expected = (
        "# lang = EN\n"
        "1\ta\ta\tNOUN\t_\t_\t0\t_\t_\t_\t_\tA0\tA1\n"
        "2\tb\tb\tVERB\t_\t_\t0\t_\t_\t_\tb.01\t_\t_\n"
        "3\tc\tc\tVERB\t_\t_\t0\t_\t_\t_\tc.02\t_\t_\n"
        "\n"
    )
    assert write_srl_corpus(Corpus.from_sentences([sent])).decode() == expected


def test_senseless_predicate_round_trips():
    sent = Sentence(
        tokens=(Token(1, "x", "x", "VERB"),),
        lang="EN",
        frames=(PredicateFrame(1, "_", ()),),
    )
    corpus = Corpus.from_sentences([sent])
    data = write_srl_corpus(corpus)
    assert b"\t-\n" in data or b"\t-\t" in data
    assert parse_srl_corpus(data) == corpus


def test_random_round_trip_property():
    rng = np.random.default_rng(7)
    for _ in range(60):
        corpus = random_corpus(rng, n_sentences=int(rng.integers(0, 6)))
        assert parse_srl_corpus(write_srl_corpus(corpus)) == corpus


def test_extra_comments_preserved():
    text = (
        "# sent_id = s9\n"
        "# lang = EN\n"
        "# text = dog runs\n"
        "# source = toy\n"
        "1\tdog\tdog\tNOUN\t_\t_\t2\tnsubj\t_\t_\t_\tA0\n"
        "2\truns\trun\tVERB\t_\t_\t0\troot\t_\t_\trun.01\t_\n"
        "\n"
    )
    corpus = parse_srl_corpus(text)
    sent = corpus.sentences[0]
    assert sent.sent_id == "s9"
    assert sent.comments == ("# text = dog runs", "# source = toy")
    assert write_srl_corpus(corpus).decode() == text


def _codes(corpus):
    return {v.code for v in validate_corpus(corpus)}


def test_validate_codes_each_invariant():
    def sent(tokens, frames=()):
        return Corpus.from_sentences(
            [Sentence(tokens=tokens, lang="EN", frames=frames)])

    assert "token-index" in _codes(sent((Token(0, "a"),)))
    assert "token-form" in _codes(sent((Token(1, ""),)))
    assert "token-upos" in _codes(sent((Token(1, "a", upos="NN"),)))
    assert "token-head" in _codes(sent((Token(1, "a", head=5),)))
    assert "sent-indices" in _codes(sent((Token(2, "a"),)))
    ok = (Token(1, "a"), Token(2, "b"))
    assert "frame-bounds" in _codes(sent(ok, (PredicateFrame(3, "x.01"),)))
    assert "frame-dup-pred" in _codes(
        sent(ok, (PredicateFrame(1, "x.01"), PredicateFrame(1, "y.01"))))
    assert "frame-dup-arg" in _codes(
        sent(ok, (PredicateFrame(1, "x.01", ((2, "A0"), (2, "A1"))),)))
    assert "frame-reflexive" in _codes(
        sent(ok, (PredicateFrame(1, "x.01", ((1, "A0"),)),)))
    assert "frame-empty-role" in _codes(
        sent(ok, (PredicateFrame(1, "x.01", ((2, ""),)),)))
    assert "frame-bad-sense" in _codes(sent(ok, (PredicateFrame(1, ""),)))
    bad_inventory = Corpus(
        sentences=(Sentence(tokens=ok, lang="EN",
                            frames=(PredicateFrame(1, "x.01", ((2, "A0"),)),)),),
        role_inventory=("A9",))
    assert "corpus-roles" in _codes(bad_inventory)
    good = Corpus.from_sentences(
        [Sentence(tokens=ok, lang="EN",
                  frames=(PredicateFrame(1, "x.01", ((2, "A0"),)),))])
    assert _codes(good) == set()


def test_stats_toy_manifest(toy_dir):
    corpus = parse_srl_corpus(read(toy_dir / "en_srl.conllu"))
    stats = corpus_stats(corpus)
    manifest = {}
    for line in read(toy_dir / "manifest.tsv").splitlines():
        key, value = line.split("\t")
        manifest[key] = int(value)
    assert stats.sentences == manifest["sentences"]
    assert stats.predicates == manifest["predicates"]
    assert stats.arguments == manifest["arguments"]
    for role, count in stats.roles.items():
        assert manifest[f"role:{role}"] == count

    # independent recount straight off the text
    text = read(toy_dir / "en_srl.conllu")
    naive_preds = sum(
        1 for line in text.splitlines()
        if line and not line.startswith("#") and line.split("\t")[10] != "_")
    assert stats.predicates == naive_preds


def test_stats_additive_under_concat():
    rng = np.random.default_rng(13)
    a = random_corpus(rng, 4)
    b = random_corpus(rng, 3)
    both = Corpus.from_sentences(a.sentences + b.sentences)
    sa, sb, sc = corpus_stats(a), corpus_stats(b), corpus_stats(both)
    assert sc.sentences == sa.sentences + sb.sentences
    assert sc.predicates == sa.predicates + sb.predicates
    assert sc.arguments == sa.arguments + sb.arguments
    for role in set(sa.roles) | set(sb.roles):
        assert sc.roles[role] == sa.roles.get(role, 0) + sb.roles.get(role, 0)


def test_empty_corpus_stats():
    stats = corpus_stats(Corpus())
    assert (stats.sentences, stats.predicates, stats.arguments) == (0, 0, 0)
    assert stats.roles == {}


def test_upb_en_train_counts_if_supplied():
    """Checkable only against user-supplied converted UPB data."""
    import os

    path = os.environ.get("XSRL_UPB_EN_TRAIN")
    if not path:
        pytest.skip("set XSRL_UPB_EN_TRAIN to a converted UPB EN train file")
    stats = corpus_stats(parse_srl_corpus(
        open(path, encoding="utf-8").read(), default_lang="EN"))
    assert stats.sentences == 10907
    assert stats.predicates == 41359
    assert stats.arguments == 100170
