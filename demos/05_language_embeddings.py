#!/usr/bin/env python3
"""Language embeddings of the conditioned encoder, as a distance matrix.

Four synthetic languages: two share one labeling convention, two share the
inverted one.  After training, the learned language embeddings of the
same-convention pairs should sit closer together than the cross pairs.
"""

import numpy as np

from xsrl.corpus import Corpus, PredicateFrame, Sentence, Token
from xsrl.model import ModelConfig, PGN, language_similarity, similarity_csv, train


def make_language(rng, lang, count, flipped):
    sentences = []
    for k in range(count):
        nouns = [f"n{i}" for i in rng.choice(6, size=2, replace=False)]
        verb = f"v{rng.integers(3)}"
        tokens = (Token(1, nouns[0], upos="NOUN"),
                  Token(2, verb, upos="VERB"),
                  Token(3, nouns[1], upos="NOUN"))
        args = ((1, "A1"), (3, "A0")) if flipped else ((1, "A0"), (3, "A1"))
        sentences.append(Sentence(tokens=tokens, lang=lang, sent_id=f"{lang}{k}",
                                  frames=(PredicateFrame(2, f"{verb}.01", args),)))
    return sentences


def main():
    rng = np.random.default_rng(5)
    corpus = Corpus.from_sentences(
        make_language(rng, "P1", 30, False) + make_language(rng, "P2", 30, False)
        + make_language(rng, "Q1", 30, True) + make_language(rng, "Q2", 30, True))

    config = ModelConfig(word_dim=12, pos_dim=6, pred_dim=6, lang_dim=4,
                         hidden=16, layers=1, variant=PGN,
                         learning_rate=0.01, batch_size=20, epochs=40)
    model, _ = train(corpus, config, seed=1)

    languages, matrix = language_similarity(model)
    print("Euclidean distances between language embeddings:")
    print(similarity_csv(model))
    same = [matrix[languages.index(a), languages.index(b)]
            for a, b in (("P1", "P2"), ("Q1", "Q2"))]
    cross = [matrix[languages.index(a), languages.index(b)]
             for a, b in (("P1", "Q1"), ("P1", "Q2"), ("P2", "Q1"), ("P2", "Q2"))]
    print(f"mean distance, same convention:  {np.mean(same):.3f}")
    print(f"mean distance, cross convention: {np.mean(cross):.3f}")


if __name__ == "__main__":
    main()
