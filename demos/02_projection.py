#!/usr/bin/env python3
"""Project the toy English SRL annotations onto their translations.

Shows the three moving parts: alignment probabilities, target-side POS
compatibility, and the confidence threshold.  Ends with a threshold sweep
so the filtering trade-off is visible.
"""

from pathlib import Path

from xsrl.alignment import ibm1_train, read_parallel_corpus
from xsrl.corpus import parse_srl_corpus, write_srl_corpus
from xsrl.postag import fit_pos_emission
from xsrl.projection import project_corpus, sweep_corpus

DATA = Path(__file__).resolve().parent.parent / "data" / "toy"


def main():
    table = ibm1_train(read_parallel_corpus((DATA / "bitext.txt").read_text()),
                       iterations=10)
    tagged = parse_srl_corpus((DATA / "de_tagged.conllu").read_text(),
                              require_pred=False)
    dist = fit_pos_emission(tagged.sentences, k=0.1)

    src = parse_srl_corpus((DATA / "en_srl.conllu").read_text())
    translations = list(parse_srl_corpus((DATA / "de_trans.conllu").read_text(),
                                         require_pred=False).sentences)

    projected, stats = project_corpus(src, translations, table, dist, 0.4)
    print("projection at the default threshold 0.4:")
    print(stats.as_lines())

    print("first projected sentence:")
    print(write_srl_corpus(projected).decode().split("\n\n")[0])

    print("\nthreshold sweep (one projection pass, cut at each alpha):")
    print("  alpha  frames_kept  args_kept")
    alphas = [0.0, 0.2, 0.4, 0.6, 0.8, 1.0]
    for alpha, (_, s) in zip(alphas, sweep_corpus(src, translations, table, dist, alphas)):
        print(f"  {alpha:5.1f}  {s.frames_kept:11d}  {s.args_kept:9d}")


if __name__ == "__main__":
    main()
