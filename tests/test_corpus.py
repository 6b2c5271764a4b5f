import re

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


ROW = "\t".join(["1", "a", "a", "NOUN", "_", "_", "0", "dep", "_", "_", "_"])
ROW2 = ROW.replace("1", "2", 1)


def _row(**cells):
    """A 11-column token row with some cells replaced, by column number."""
    fields = ROW.split("\t")
    for col, value in cells.items():
        fields[int(col[1:])] = value
    return "\t".join(fields)


# (text, require_pred, exact error); the first malformed line wins, and the
# checks of one line run in the order columns, width, ID, HEAD.
ROW_ERRORS = [
    ("# lang = EN\n1\ta\ta\tNOUN\t_\t_\t0\tdep\t_\t_\n\n", True,
     "line 2: expected ≥11 columns, got 10"),
    ("# lang = EN\n1\ta\ta\tNOUN\t_\t_\t0\tdep\t_\n\n", False,
     "line 2: expected ≥10 columns, got 9"),
    (f"# lang = EN\n{ROW}\n{ROW2}\t_\n\n", True,
     "line 3: expected 11 columns like the rest of the sentence, got 12"),
    (f"# lang = EN\n{ROW}\t_\n{ROW2}\n\n", True,
     "line 3: expected 12 columns like the rest of the sentence, got 11"),
    (f"# lang = EN\n{_row(c0='1-2')}\n\n", True,
     "line 2: multiword-token or empty-node ID '1-2' is not supported"),
    (f"# lang = EN\n{_row(c0='1.1')}\n\n", True,
     "line 2: multiword-token or empty-node ID '1.1' is not supported"),
    (f"# lang = EN\n{_row(c0='-1')}\n\n", True,
     "line 2: multiword-token or empty-node ID '-1' is not supported"),
    (f"# lang = EN\n{_row(c0='x')}\n\n", True, "line 2: token ID 'x' is not an integer"),
    (f"# lang = EN\n{_row(c6='root')}\n\n", True, "line 2: HEAD 'root' is not an integer"),
    (f"# lang = EN\n{_row(c0='x', c6='y')}\n\n", True,
     "line 2: token ID 'x' is not an integer"),
    # two bad lines in one sentence: the first one wins, whatever its kind
    (f"# lang = EN\n{ROW}\n{_row(c0='2', c6='y')}\n{_row(c0='z')}\n\n", True,
     "line 3: HEAD 'y' is not an integer"),
    (f"# lang = EN\n{ROW}\n{_row(c0='2.5')}\n{ROW}\t_\n\n", True,
     "line 3: multiword-token or empty-node ID '2.5' is not supported"),
    (f"# lang = EN\n{ROW}\n{ROW2}\t_\n{_row(c0='q')}\n\n", True,
     "line 3: expected 11 columns like the rest of the sentence, got 12"),
    (f"# lang = EN\n{ROW}\n# note\n{_row(c0='q')}\n\n", True,
     "line 4: token ID 'q' is not an integer"),
    # an earlier sentence's error wins over a later sentence's
    (f"# lang = EN\n{_row(c6='h')}\n\n# lang = EN\n{_row(c0='x')}\n\n", True,
     "line 2: HEAD 'h' is not an integer"),
    (f"# lang = EN\n{ROW}\n\n\n# lang = EN\n{_row(c0='x')}\n\n", True,
     "line 6: token ID 'x' is not an integer"),
    # a missing '# lang' names the sentence's first line, comment or token
    (f"# lang = EN\n{ROW}\n\n# sent_id = s2\n{ROW}\n\n", True,
     "line 4: sentence has no '# lang = XX' comment and no default language was given"),
    (f"{ROW}\n\n", True,
     "line 1: sentence has no '# lang = XX' comment and no default language was given"),
    # row errors are found before the sentence-level checks
    (f"{ROW}\n{_row(c0='x')}\n\n", True, "line 2: token ID 'x' is not an integer"),
]


@pytest.mark.parametrize("text, require_pred, message", ROW_ERRORS)
def test_row_errors_name_the_first_bad_line(text, require_pred, message):
    with pytest.raises(CorpusError) as exc:
        parse_srl_corpus(text, require_pred=require_pred)
    assert str(exc.value) == message


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
    good = Corpus.from_sentences(
        [Sentence(tokens=ok, lang="EN",
                  frames=(PredicateFrame(1, "x.01", ((2, "A0"),)),))])
    assert _codes(good) == set()


def test_violations_number_sentences_from_1():
    """As ``project``'s messages and every ``line N`` do."""
    ok = Sentence(tokens=(Token(1, "a"), Token(2, "b")), lang="EN")
    gap = Sentence(tokens=(Token(1, "a"), Token(3, "b")), lang="EN")
    for number, sentences in ((1, [gap, ok]), (2, [ok, gap])):
        messages = [v.message for v in validate_corpus(Corpus.from_sentences(sentences))]
        assert messages == [f"sentence {number}: token indices not contiguous 1..2"]


def test_role_inventory_is_derived_from_the_sentences():
    """A corpus built directly reports the sorted roles of its arguments,
    as one built by ``from_sentences`` does."""
    rng = np.random.default_rng(21)
    sentences = random_corpus(rng, 6).sentences
    direct, built = Corpus(sentences=sentences), Corpus.from_sentences(list(sentences))
    roles = sorted({r for s in sentences for f in s.frames for _, r in f.args})
    assert len(roles) > 1
    assert direct.role_inventory == built.role_inventory == tuple(roles)
    assert direct == built
    assert Corpus().role_inventory == ()


def test_stats_toy_manifest(toy_dir):
    corpus = parse_srl_corpus(read(toy_dir / "en_srl.conllu"))
    stats = corpus_stats(corpus.sentences)
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
    sa, sb, sc = (corpus_stats(a.sentences), corpus_stats(b.sentences),
                  corpus_stats(both.sentences))
    assert sc.sentences == sa.sentences + sb.sentences
    assert sc.predicates == sa.predicates + sb.predicates
    assert sc.arguments == sa.arguments + sb.arguments
    for role in set(sa.roles) | set(sb.roles):
        assert sc.roles[role] == sa.roles.get(role, 0) + sb.roles.get(role, 0)


def test_empty_corpus_stats():
    stats = corpus_stats(Corpus().sentences)
    assert (stats.sentences, stats.predicates, stats.arguments) == (0, 0, 0)
    assert stats.roles == {}


def test_upb_en_train_counts_if_supplied():
    """Checkable only against user-supplied converted UPB data."""
    import os

    path = os.environ.get("XSRL_UPB_EN_TRAIN")
    if not path:
        pytest.skip("set XSRL_UPB_EN_TRAIN to a converted UPB EN train file")
    stats = corpus_stats(parse_srl_corpus(
        open(path, encoding="utf-8").read(), default_lang="EN").sentences)
    assert stats.sentences == 10907
    assert stats.predicates == 41359
    assert stats.arguments == 100170


def reference_parse(data, default_lang=None, require_pred=True):
    """The line-by-line parser that ``parse_srl_corpus`` must agree with:
    the same corpus, or an error with the same text."""
    def build(rows, comments, first_lineno):
        tokens, pred_cells, arg_rows, ncols = [], [], [], None
        for lineno, fields in rows:
            if len(fields) < 11 and require_pred:
                raise CorpusError(f"line {lineno}: expected ≥11 columns, got {len(fields)}")
            if len(fields) < 10:
                raise CorpusError(f"line {lineno}: expected ≥10 columns, got {len(fields)}")
            if ncols is None:
                ncols = len(fields)
            elif len(fields) != ncols:
                raise CorpusError(
                    f"line {lineno}: expected {ncols} columns like the rest of the sentence, "
                    f"got {len(fields)}")
            if "-" in fields[0] or "." in fields[0]:
                raise CorpusError(f"line {lineno}: multiword-token or empty-node ID "
                                  f"{fields[0]!r} is not supported")
            try:
                index = int(fields[0])
            except ValueError:
                raise CorpusError(
                    f"line {lineno}: token ID {fields[0]!r} is not an integer") from None
            try:
                head = int(fields[6])
            except ValueError:
                raise CorpusError(
                    f"line {lineno}: HEAD {fields[6]!r} is not an integer") from None
            tokens.append(Token(index, fields[1], fields[2], fields[3], head, fields[7],
                                fields[9]))
            pred_cells.append(fields[10] if len(fields) > 10 else "_")
            arg_rows.append(fields[11:])
        positions = [i for i, cell in enumerate(pred_cells) if cell != "_"]
        if arg_rows and len(arg_rows[0]) != len(positions):
            raise CorpusError(f"line {first_lineno}: sentence has {len(positions)} "
                              f"predicates but {len(arg_rows[0])} ARG columns")
        frames = tuple(
            PredicateFrame(tokens[pos].index, "_" if pred_cells[pos] == "-" else pred_cells[pos],
                           tuple((tokens[r].index, arg_rows[r][col])
                                 for r in range(len(tokens)) if arg_rows[r][col] != "_"))
            for col, pos in enumerate(positions))
        lang = sent_id = ""
        extra = []
        for comment in comments:
            if m := re.match(r"^#\s*lang\s*=\s*(\S+)\s*$", comment):
                lang = m.group(1)
            elif m := re.match(r"^#\s*sent_id\s*=\s*(\S+)\s*$", comment):
                sent_id = m.group(1)
            else:
                extra.append(comment)
        if not lang:
            if default_lang is None:
                raise CorpusError(f"line {first_lineno}: sentence has no '# lang = XX' "
                                  f"comment and no default language was given")
            lang = default_lang
        return Sentence(tuple(tokens), lang, sent_id, frames, tuple(extra))

    sentences, rows, comments, first_lineno = [], [], [], 1
    for lineno, line in enumerate(data.split("\n"), start=1):
        line = line.rstrip("\r")
        if not line.strip():
            # comments alone make a sentence without tokens, in a corpus
            # that needs no predicate columns
            if rows or (comments and not require_pred):
                sentences.append(build(rows, comments, first_lineno))
            rows, comments = [], []
            continue
        if not rows and not comments:
            first_lineno = lineno
        if line.startswith("#"):
            comments.append(line)
        else:
            rows.append((lineno, line.split("\t")))
    if rows or (comments and not require_pred):
        sentences.append(build(rows, comments, first_lineno))
    corpus = Corpus.from_sentences(sentences)
    violations = validate_corpus(corpus)
    if violations:
        raise CorpusError(f"{violations[0].code}: {violations[0].message}")
    return corpus


def _outcome(parse, text, **kwargs):
    try:
        return parse(text, **kwargs)
    except CorpusError as exc:
        return f"CorpusError: {exc}"


def _corrupt(rng, text):
    """``text`` with a few random edits of the kinds the parser checks."""
    lines = text.split("\n")
    edits = [
        lambda f: f[:-1],                      # a column fewer
        lambda f: f + ["_"],                   # a column more
        lambda f: f[:10],                      # bare CoNLL-U
        lambda f: [rng.choice(["1-2", "3.1", "-1", "x", "+2", " 4"])] + f[1:],
        lambda f: f[:6] + [rng.choice(["root", "-3", "9"])] + f[7:],
        lambda f: f[:10] + [rng.choice(["_", "-", "v.01"])] + f[11:],
        lambda f: f[:11] + [rng.choice(["_", "A0", "AM-TMP"]) for _ in f[11:]],
        lambda f: f[:3] + [rng.choice(["NOUN", "NN", "_"])] + f[4:],
    ]
    for _ in range(int(rng.integers(0, 4))):
        i = int(rng.integers(len(lines)))
        kind = int(rng.integers(len(edits) + 5))
        if kind < len(edits):
            if lines[i] and not lines[i].startswith("#"):
                lines[i] = "\t".join(edits[kind](lines[i].split("\t")))
        elif kind == len(edits):
            lines.insert(i, rng.choice(["", " ", "\t", "# note", "# lang = DE"]))
        elif kind == len(edits) + 1:
            lines[i] = lines[i] + "\r"
        elif kind == len(edits) + 2 and lines[i].startswith("# lang"):
            del lines[i]
        elif kind == len(edits) + 3:
            lines.insert(i, "# only a comment\n")
    return "\n".join(lines)


def test_parse_agrees_with_line_by_line_reference():
    rng = np.random.default_rng(23)
    for trial in range(400):
        # enough sentences now and then to span several parse batches
        n = int(rng.integers(0, 6)) if trial % 20 else 700
        text = write_srl_corpus(random_corpus(rng, n_sentences=n)).decode()
        text = _corrupt(rng, text)
        for kwargs in ({}, {"require_pred": False}, {"default_lang": "FI"}):
            want = _outcome(reference_parse, text, **kwargs)
            got = _outcome(parse_srl_corpus, text, **kwargs)
            assert got == want, (trial, kwargs)
