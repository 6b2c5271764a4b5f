#!/usr/bin/env python3
"""Train word-alignment probabilities on the toy bitext and poke at them.

Every source word gets a distribution over target words, including the
reserved NULL token that absorbs words with no good counterpart.  The
per-iteration corpus log-likelihood is printed; EM guarantees it never
decreases.
"""

from pathlib import Path

from xsrl.alignment import best_target, ibm1_train, read_parallel_corpus

DATA = Path(__file__).resolve().parent.parent / "data" / "toy"


def main():
    pairs = read_parallel_corpus((DATA / "bitext.txt").read_text())
    print(f"{len(pairs)} parallel pairs")

    log = []
    table = ibm1_train(pairs, iterations=10, log=log)
    for i, ll in enumerate(log, start=1):
        print(f"  iteration {i:2d}  log-likelihood {ll:10.2f}")

    print("\nlexical probabilities:")
    for e in ("dog", "sees", "today", "the"):
        print(f"  {e}: null mass {table.null_mass(e):.3f}")
        entries = sorted(table.rows[e].items(), key=lambda item: -item[1])[:4]
        for f, p in entries:
            print(f"      a({f}|{e}) = {p:.4f}")

    sentence = "der hund folgt einem vogel heute .".split()
    print(f"\nbest targets in {' '.join(sentence)!r}:")
    for e in ("dog", "follows", "bird", "today"):
        j, p = best_target(table, e, sentence)
        print(f"  {e} -> token {j} ({sentence[j - 1]}) with probability {p:.4f}")


if __name__ == "__main__":
    main()
