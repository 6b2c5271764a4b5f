#!/usr/bin/env python3
"""Train the shared-encoder labeler on the toy English corpus.

A small configuration memorizes the 50 sentences quickly; the loss curve
and a decoded example show the CRF head producing coherent role spans.
"""

from pathlib import Path

from xsrl.corpus import parse_srl_corpus
from xsrl.model import BASIC, ModelConfig, predict, train

DATA = Path(__file__).resolve().parent.parent / "data" / "toy"


def main():
    corpus = parse_srl_corpus((DATA / "en_srl.conllu").read_text())
    config = ModelConfig(word_dim=32, pos_dim=16, pred_dim=16, hidden=64,
                         layers=1, variant=BASIC, learning_rate=0.004,
                         batch_size=10, epochs=60)
    model, losses = train(corpus, config, seed=42)
    for epoch in (1, 10, 20, 40, len(losses)):
        print(f"  epoch {epoch:3d}  mean loss {losses[epoch - 1]:.4f}")

    sentence = corpus.sentences[0]
    frame = sentence.frames[0]
    hyp, = predict(model, sentence, [frame.pred_index], sentence.lang)
    forms = " ".join(t.form for t in sentence.tokens)
    print(f"\nsentence: {forms}")
    print(f"gold args:      {frame.args}")
    print(f"predicted args: {hyp.args}")


if __name__ == "__main__":
    main()
