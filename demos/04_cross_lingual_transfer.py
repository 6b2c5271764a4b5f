#!/usr/bin/env python3
"""The whole translation-based transfer recipe on the toy language pair.

No gold German training data is touched: the German corpus is
manufactured by projecting the gold English annotations through word
alignments, a model is trained on it (optionally mixed with the English
source), and the result is scored against held-out gold German sentences.
"""

from dataclasses import replace
from pathlib import Path

from xsrl.alignment import ibm1_train, read_parallel_corpus
from xsrl.corpus import Corpus, parse_srl_corpus
from xsrl.eval import srl_f1
from xsrl.model import ModelConfig, PGN, predict, train
from xsrl.postag import fit_pos_emission
from xsrl.projection import ProjectionConfig, project_corpus

DATA = Path(__file__).resolve().parent.parent / "data" / "toy"


def evaluate(model, dev):
    predicted = [
        replace(s, frames=predict(model, s, [f.pred_index for f in s.frames], s.lang))
        for s in dev.sentences
    ]
    return srl_f1(dev, Corpus.from_sentences(predicted))


def main():
    table = ibm1_train(read_parallel_corpus((DATA / "bitext.txt").read_text()),
                       iterations=10)
    dist = fit_pos_emission(parse_srl_corpus(
        (DATA / "de_tagged.conllu").read_text(), require_pred=False))
    source = parse_srl_corpus((DATA / "en_srl.conllu").read_text())
    translations = list(parse_srl_corpus(
        (DATA / "de_trans.conllu").read_text(), require_pred=False).sentences)
    dev = parse_srl_corpus((DATA / "de_dev.conllu").read_text())

    target, stats = project_corpus(source, translations, table, dist,
                                   ProjectionConfig(alpha=0.4))
    print(f"pseudo target corpus: {stats.frames_kept} frames, "
          f"{stats.args_kept} arguments")

    config = ModelConfig(word_dim=16, pos_dim=8, pred_dim=8, lang_dim=4,
                         hidden=24, layers=1, variant=PGN,
                         learning_rate=0.01, batch_size=20, epochs=40)

    target_only = train(target, config, seed=42)[0]
    print(f"target-only model   dev F1 {evaluate(target_only, dev).f1:.3f}")

    mixed = Corpus.from_sentences(source.sentences + target.sentences)
    mixed_model = train(mixed, config, seed=42)[0]
    report = evaluate(mixed_model, dev)
    print(f"source+target model dev F1 {report.f1:.3f}")

    print("\nper-role scores of the mixed model:")
    for role, score in sorted(report.per_role.items()):
        print(f"  {role:8s} P {score.precision:.3f} R {score.recall:.3f} "
              f"F1 {score.f1:.3f} (support {score.support})")


if __name__ == "__main__":
    main()
