"""Seeded synthetic EN/DE corpora for the benchmark workloads.

Sentences come from the toy data generator (``demos/make_toy_data.py``):
its clause template, determiner table and CoNLL rendering are imported,
not copied.  Two things are added on top, because the toy never shows
them: a generated noun lexicon of configurable size, which grows the
alignment table and the word embedding table, and chained extra clauses,
which widen the sentence-length range and the number of predicate frames
per sentence.  Everything is drawn from one ``numpy`` generator seeded
by the caller, so one seed always gives byte-identical files.
"""

from __future__ import annotations

import importlib.util
from contextlib import contextmanager
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def _load_toy_module():
    path = ROOT / "demos" / "make_toy_data.py"
    spec = importlib.util.spec_from_file_location("_bench_make_toy_data", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


toy = _load_toy_module()

_ONSETS = ("b", "d", "f", "g", "k", "l", "m", "n", "p", "r", "s", "t", "v", "w", "z",
           "br", "dr", "gr", "kl", "pl", "sch", "st", "tr")
_VOWELS = ("a", "e", "i", "o", "u", "ei", "au", "ie")
_CODAS = ("", "n", "r", "l", "s", "t", "ng", "ck")


def make_lexicon(rng: np.random.Generator, size: int) -> list[tuple[str, str, str]]:
    """``size`` distinct (english, german, gender) noun pairs.

    Forms are random syllable strings; none repeats on either side or
    collides with a word of the toy templates.
    """
    taken = {w for n in toy.NOUNS for w in n[:2]}
    taken |= {w for v in toy.VERBS for w in v[:4]}
    taken |= {w for a in toy.ADVERBS for w in a}
    taken |= {"the", "a", "and", "und", *toy.DET_DE.values()}

    def word(syllables: int) -> str:
        while True:
            parts = [_ONSETS[rng.integers(len(_ONSETS))] + _VOWELS[rng.integers(len(_VOWELS))]
                     + _CODAS[rng.integers(len(_CODAS))] for _ in range(syllables)]
            form = "".join(parts)
            if form not in taken:
                taken.add(form)
                return form

    genders = ("m", "f", "n")
    return [(word(2), word(int(rng.integers(2, 4))), genders[rng.integers(3)])
            for _ in range(size)]


@contextmanager
def _nouns(lexicon):
    saved = toy.NOUNS
    toy.NOUNS = lexicon
    try:
        yield
    finally:
        toy.NOUNS = saved


def _chain_clause(rng, tokens, frames):
    """Append one "and <verb> <det> <noun>" clause sharing the first subject.

    Same shape as the toy template's optional conjunction; the clause goes
    before the final punctuation token.
    """
    punct = tokens.pop()
    v1 = frames[0][0]
    subject = frames[0][2][0][0]
    verb = toy.VERBS[rng.integers(len(toy.VERBS))]
    obj = toy.NOUNS[rng.integers(len(toy.NOUNS))]
    definite = bool(rng.random() < 0.65)
    v, o = len(tokens) + 2, len(tokens) + 4
    tokens.append(["and", "und", "and", "und", "CCONJ", v, "cc"])
    tokens.append([verb[0], verb[1], verb[2], verb[3], "VERB", v1, "conj"])
    tokens.append(["the" if definite else "a", toy.DET_DE[(definite, obj[2], "acc")],
                   "the" if definite else "a", "der" if definite else "ein", "DET", o, "det"])
    tokens.append([obj[0], obj[1], obj[0], obj[1], "NOUN", v, "obj"])
    tokens.append(punct)
    frames.append((v, verb[4], [(subject, "A0"), (o, "A1")]))


def sample(rng, lexicon, extra_clauses: int = 0):
    """One parallel sentence (tokens, frames) with ``extra_clauses`` chained on."""
    with _nouns(lexicon):
        tokens, frames = toy.sample_sentence(rng)
        for _ in range(extra_clauses):
            _chain_clause(rng, tokens, frames)
    return tokens, frames


def _clauses(i: int, clause_range: tuple[int, int]) -> int:
    # Round-robin over the range, so every seed gets the same length mix and
    # only word choice varies between seeds.
    lo, hi = clause_range
    return lo + i % (hi - lo + 1)


def _bitext_line(tokens) -> str:
    return " ".join(t[0] for t in tokens) + " ||| " + " ".join(t[1] for t in tokens)


def prep_corpus(seed: int, lexicon_size: int = 1500, pairs: int = 10000,
                sentences: int = 5000, tagged: int = 5000,
                clause_range: tuple[int, int] = (0, 0)) -> dict[str, str]:
    """Inputs of the data-preparation stages, as file name -> text.

    ``bitext.txt`` (parallel pairs), ``en_srl.conllu`` (gold source frames),
    ``de_trans.conllu`` (index-aligned bare translations) and
    ``de_tagged.conllu`` (tagged target sentences for POS fitting).
    """
    rng = np.random.default_rng(seed)
    lexicon = make_lexicon(rng, lexicon_size)
    en, de, bitext = [], [], []
    for i in range(sentences):
        tokens, frames = sample(rng, lexicon, _clauses(i, clause_range))
        en.append(toy.conllu_block(tokens, frames, 0, "EN", f"syn-en-{i}", True))
        de.append(toy.conllu_block(tokens, frames, 1, "DE", f"syn-de-{i}", False))
        bitext.append(_bitext_line(tokens))
    for i in range(sentences, pairs):
        bitext.append(_bitext_line(sample(rng, lexicon, _clauses(i, clause_range))[0]))
    tags = []
    for i in range(tagged):
        tokens, frames = sample(rng, lexicon, _clauses(i, clause_range))
        tags.append(toy.conllu_block(tokens, frames, 1, "DE", f"syn-tag-{i}", False))
    return {
        "bitext.txt": "\n".join(bitext) + "\n",
        "en_srl.conllu": "".join(en),
        "de_trans.conllu": "".join(de),
        "de_tagged.conllu": "".join(tags),
    }


def _frame_tokens(tokens, frames) -> int:
    # The labeler encodes the whole sentence once per predicate frame.
    return len(tokens) * len(frames)


def train_corpus(seed: int, lexicon_size: int = 1500, train_tokens: int = 1200,
                 dev_tokens: int = 3000,
                 clause_range: tuple[int, int] = (0, 2)) -> dict[str, str]:
    """Inputs of the model stages, as file name -> text.

    ``en_train.conllu`` and ``de_train.conllu`` hold gold frames on both
    sides of the same sentences; ``de_dev.conllu`` is a held-out gold
    target set.  Sentences are added until the tokens summed over frames
    (the labeler's work) reach ``train_tokens`` per language and
    ``dev_tokens``, so the work varies little from seed to seed.
    """
    rng = np.random.default_rng(seed)
    lexicon = make_lexicon(rng, lexicon_size)
    en, de, dev = [], [], []
    done = 0
    while done < train_tokens:
        tokens, frames = sample(rng, lexicon, _clauses(len(en), clause_range))
        en.append(toy.conllu_block(tokens, frames, 0, "EN", f"syn-en-{len(en)}", True))
        de.append(toy.conllu_block(tokens, frames, 1, "DE", f"syn-de-{len(de)}", True))
        done += _frame_tokens(tokens, frames)
    done = 0
    while done < dev_tokens:
        tokens, frames = sample(rng, lexicon, _clauses(len(dev), clause_range))
        dev.append(toy.conllu_block(tokens, frames, 1, "DE", f"syn-dev-{len(dev)}", True))
        done += _frame_tokens(tokens, frames)
    return {
        "en_train.conllu": "".join(en),
        "de_train.conllu": "".join(de),
        "de_dev.conllu": "".join(dev),
    }
