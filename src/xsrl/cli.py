"""Command-line pipeline driver.

One binary with subcommands covering the whole workflow: align-train,
project, sweep-alpha, train, predict, eval, aggregate, stats.  Exit codes:
0 success, 2 usage or input error, 3 internal invariant violation or a
non-finite training loss.  A flat
"key = value" config file can preset any flag; explicit flags win.  The
seed falls back to the XSRL_SEED environment variable, then 42.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

from . import eval as evaluation
from .alignment import AlignmentError, ibm1_train, load_table, read_parallel_corpus, save_table
from .corpus import Corpus, CorpusError, corpus_stats, parse_srl_corpus, write_srl_corpus
from .model import (
    BASIC,
    PGN,
    ModelConfig,
    ModelError,
    TrainingError,
    load_embeddings,
    load_model,
    predict,
    save_model,
    similarity_csv,
    train,
    vocabulary_with_table,
)
from .model.network import OUTSIDE
from .model.serialize import CheckpointError
from .postag import PosError, fit_pos_emission, load_pos_distribution, save_pos_distribution
from .projection import ProjectionConfig, ProjectionError, ProjectionStats, project_corpus

USAGE_ERROR = 2
INTERNAL_ERROR = 3

_INPUT_ERRORS = (AlignmentError, CorpusError, ModelError, PosError,
                 ProjectionError, CheckpointError, evaluation.EvalError,
                 OSError, ValueError)


def _read_text(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _load_corpus(path: str, lang: str | None = None, require_pred: bool = True) -> Corpus:
    return parse_srl_corpus(_read_text(path), default_lang=lang, require_pred=require_pred)


def _write_bytes(path: str, data: bytes) -> None:
    with open(path, "wb") as fh:
        fh.write(data)


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _read_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    for lineno, line in enumerate(_read_text(path).splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ValueError(f"{path}:{lineno}: expected 'key = value'")
        key, value = stripped.split("=", 1)
        values[key.strip().replace("-", "_")] = value.strip()
    return values


def _cast_config_value(raw: str):
    lowered = raw.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    for caster in (int, float):
        try:
            return caster(raw)
        except ValueError:
            continue
    return raw


def _apply_config_file(args: argparse.Namespace, argv: list[str]) -> None:
    """Fill the flags not given on the command line from the config file.

    The command line is parsed again with every default suppressed, so a
    flag given explicitly wins even when its value equals the default.
    """
    if not args.config:
        return
    explicit = vars(build_parser(suppress_defaults=True).parse_args(argv))
    for key, raw in _read_config_file(args.config).items():
        if hasattr(args, key) and key not in explicit:
            setattr(args, key, _cast_config_value(raw))


def _seed(args: argparse.Namespace) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("XSRL_SEED")
    return int(env) if env else 42


def cmd_align_train(args) -> int:
    pairs = read_parallel_corpus(_read_text(args.parallel))
    log: list[float] = []
    table = ibm1_train(pairs, iterations=args.iterations, floor=args.floor,
                       lowercase=args.lowercase, log=log)
    save_table(table, args.out)
    for i, ll in enumerate(log, start=1):
        print(f"iteration {i}\tlog-likelihood {ll:.6f}", file=sys.stderr)
    return 0


def cmd_project(args) -> int:
    src = _load_corpus(args.src, lang=args.src_lang)
    translations = _load_corpus(args.translations, lang=args.tgt_lang, require_pred=False)
    table = load_table(args.table)
    dist = load_pos_distribution(args.posdist)
    config = ProjectionConfig(alpha=args.alpha)
    out, stats = project_corpus(src, list(translations.sentences), table, dist, config)
    _write_bytes(args.out, write_srl_corpus(out))
    stats_text = stats.as_lines()
    _write_text(args.stats or args.out + ".stats", stats_text)
    sys.stdout.write(stats_text)
    return 0


def cmd_fit_pos(args) -> int:
    tagged = _load_corpus(args.tagged, lang=args.lang, require_pred=False)
    dist = fit_pos_emission(tagged, k=args.k)
    save_pos_distribution(dist, args.out)
    return 0


def _train_config(args) -> ModelConfig:
    return ModelConfig(
        word_dim=args.word_dim, pos_dim=args.pos_dim, pred_dim=args.pred_dim,
        lang_dim=args.lang_dim, hidden=args.hidden, layers=args.layers,
        variant=args.variant, learning_rate=args.learning_rate,
        batch_size=args.batch_size, epochs=args.epochs)


def _merge_corpora(paths: list[str], lang: str | None) -> Corpus:
    sentences = []
    for path in paths:
        sentences.extend(_load_corpus(path, lang=lang).sentences)
    return Corpus.from_sentences(sentences)


def _train_model(args, corpus: Corpus, seed: int):
    config = _train_config(args)
    if corpus.sentences and any(not s.lang for s in corpus.sentences):
        raise ModelError("training sentences need language IDs")
    word_table = None
    vocab = None
    if args.embeddings:
        words, vectors = load_embeddings(args.embeddings)
        if vectors.shape[1] != config.word_dim:
            config.word_dim = vectors.shape[1]
        labels = sorted(set(corpus.role_inventory) | {OUTSIDE})
        langs = sorted({s.lang for s in corpus.sentences})
        vocab, word_table = vocabulary_with_table(words, vectors, labels, langs)
        config.train_word_table = False
    return train(corpus, config, seed=seed, word_table=word_table, vocab=vocab)


def cmd_train(args) -> int:
    corpus = _merge_corpora(args.train_file, args.lang)
    seed = _seed(args)
    model, losses = _train_model(args, corpus, seed)
    save_model(model, args.out)
    log_path = args.log or args.out + ".log"
    lines = "".join(f"epoch {i}\tloss {loss!r}\n" for i, loss in enumerate(losses, start=1))
    _write_text(log_path, lines)
    sys.stderr.write(lines)
    return 0


def _relabel(model, corpus: Corpus) -> Corpus:
    frames = predict(model, [(sent, [f.pred_index for f in sent.frames], sent.lang)
                             for sent in corpus.sentences])
    return Corpus.from_sentences(
        replace(sent, frames=sent_frames)
        for sent, sent_frames in zip(corpus.sentences, frames))


def cmd_predict(args) -> int:
    model = load_model(args.model)
    corpus = _load_corpus(args.input, lang=args.lang)
    _write_bytes(args.out, write_srl_corpus(_relabel(model, corpus)))
    return 0


def cmd_eval(args) -> int:
    gold = _load_corpus(args.gold, lang=args.lang)
    pred = _load_corpus(args.pred, lang=args.lang)
    buckets = evaluation.parse_buckets(args.buckets)
    report = evaluation.srl_f1(gold, pred, buckets=buckets)
    text = evaluation.format_report(report)
    if args.out:
        _write_text(args.out, text)
    sys.stdout.write(text)
    return 0


def cmd_aggregate(args) -> int:
    reports = [evaluation.parse_report(_read_text(path)) for path in args.reports]
    text = evaluation.format_report(evaluation.aggregate_reports(reports))
    if args.out:
        _write_text(args.out, text)
    sys.stdout.write(text)
    return 0


def cmd_stats(args) -> int:
    stats = corpus_stats(_load_corpus(args.input, lang=args.lang))
    lines = [
        f"sentences\t{stats.sentences}",
        f"predicates\t{stats.predicates}",
        f"arguments\t{stats.arguments}",
    ]
    lines.extend(f"role:{role}\t{count}" for role, count in stats.roles.items())
    text = "\n".join(lines) + "\n"
    if args.out:
        _write_text(args.out, text)
    sys.stdout.write(text)
    return 0


def cmd_similarity(args) -> int:
    model = load_model(args.model)
    text = similarity_csv(model)
    if args.out:
        _write_text(args.out, text)
    sys.stdout.write(text)
    return 0


def cmd_sweep_alpha(args) -> int:
    alphas: list[float] = []
    for value in args.alphas.split(","):
        alpha = float(value)
        if alpha in alphas:
            print(f"warning: duplicate alpha {alpha} ignored", file=sys.stderr)
            continue
        alphas.append(alpha)
    if not alphas:
        raise ValueError("need at least one alpha value")
    if args.train and not args.dev:
        raise ValueError("--train needs a --dev corpus to score against")

    src = _load_corpus(args.src, lang=args.src_lang)
    translations = _load_corpus(args.translations, lang=args.tgt_lang, require_pred=False)
    table = load_table(args.table)
    dist = load_pos_distribution(args.posdist)
    dev = _load_corpus(args.dev, lang=args.tgt_lang) if args.train else None
    seed = _seed(args)

    header = ["alpha", *ProjectionStats.FIELDS]
    if args.train:
        header.append("f1")
    rows = [",".join(header)]
    for alpha in alphas:
        projected, stats = project_corpus(
            src, list(translations.sentences), table, dist, ProjectionConfig(alpha=alpha))
        row = [repr(alpha)] + [str(getattr(stats, f)) for f in ProjectionStats.FIELDS]
        if args.train:
            row.append(repr(_dev_f1(args, projected, dev, seed)))
        rows.append(",".join(row))
    text = "\n".join(rows) + "\n"
    _write_text(args.out, text)
    sys.stdout.write(text)
    return 0


def _dev_f1(args, projected: Corpus, dev: Corpus, seed: int) -> float:
    """Train on a projected corpus and score the dev file.

    An empty projected corpus cannot train a model; its F1 is 0 by the
    zero-recall convention.
    """
    if not any(s.frames for s in projected.sentences):
        return 0.0
    model, _ = _train_model(args, projected, seed)
    return evaluation.srl_f1(dev, _relabel(model, dev)).f1


def _add_train_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--variant", choices=[BASIC, PGN], default=ModelConfig.variant)
    sub.add_argument("--word-dim", type=int, default=ModelConfig.word_dim)
    sub.add_argument("--pos-dim", type=int, default=ModelConfig.pos_dim)
    sub.add_argument("--pred-dim", type=int, default=ModelConfig.pred_dim)
    sub.add_argument("--lang-dim", type=int, default=ModelConfig.lang_dim)
    sub.add_argument("--hidden", type=int, default=ModelConfig.hidden)
    sub.add_argument("--layers", type=int, default=ModelConfig.layers)
    sub.add_argument("--learning-rate", type=float, default=ModelConfig.learning_rate)
    sub.add_argument("--batch-size", type=int, default=ModelConfig.batch_size)
    sub.add_argument("--epochs", type=int, default=ModelConfig.epochs)
    sub.add_argument("--embeddings", help="pretrained word vector file (frozen table)")


def build_parser(suppress_defaults: bool = False) -> argparse.ArgumentParser:
    """The CLI parser; with ``suppress_defaults`` a parse holds only the
    flags that were given."""
    parser = argparse.ArgumentParser(
        prog="xsrl",
        description="Cross-lingual SRL: corpus translation and role labeling.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("align-train", help="train an IBM Model 1 alignment table")
    p.add_argument("--parallel", required=True, help="bitext, 'src ||| tgt' per line")
    p.add_argument("--iterations", type=int, default=10)
    p.add_argument("--floor", type=float, default=0.0)
    p.add_argument("--lowercase", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_align_train)

    p = sub.add_parser("fit-pos", help="fit a POS emission distribution from a tagged corpus")
    p.add_argument("--tagged", required=True)
    p.add_argument("--lang")
    p.add_argument("--k", type=float, default=0.1)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_fit_pos)

    p = sub.add_parser("project", help="project source frames onto translations")
    p.add_argument("--src", required=True)
    p.add_argument("--translations", required=True)
    p.add_argument("--table", required=True)
    p.add_argument("--posdist", required=True)
    p.add_argument("--alpha", type=float, default=0.4)
    p.add_argument("--src-lang")
    p.add_argument("--tgt-lang")
    p.add_argument("--out", required=True)
    p.add_argument("--stats", help="stats report path (default: <out>.stats)")
    p.set_defaults(func=cmd_project)

    p = sub.add_parser("sweep-alpha", help="projection statistics per threshold")
    p.add_argument("--src", required=True)
    p.add_argument("--translations", required=True)
    p.add_argument("--table", required=True)
    p.add_argument("--posdist", required=True)
    p.add_argument("--alphas", required=True, help="comma-separated thresholds")
    p.add_argument("--train", action="store_true",
                   help="also train per alpha and report dev F1")
    p.add_argument("--dev", help="gold dev corpus for --train")
    p.add_argument("--src-lang")
    p.add_argument("--tgt-lang")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True)
    _add_train_flags(p)
    p.set_defaults(func=cmd_sweep_alpha)

    p = sub.add_parser("train", help="train a role labeler")
    p.add_argument("--train-file", action="append", required=True,
                   help="repeatable; corpora are concatenated")
    p.add_argument("--lang", help="language for files without '# lang' comments")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True)
    p.add_argument("--log", help="loss log path (default: <out>.log)")
    _add_train_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="re-label the predicates of a corpus")
    p.add_argument("--model", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--lang")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("eval", help="score predictions against gold")
    p.add_argument("--gold", required=True)
    p.add_argument("--pred", required=True)
    p.add_argument("--lang")
    p.add_argument("--buckets", default="1-2,3-6,7+")
    p.add_argument("--out")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("aggregate", help="average several evaluation reports")
    p.add_argument("reports", nargs="+")
    p.add_argument("--out")
    p.set_defaults(func=cmd_aggregate)

    p = sub.add_parser("stats", help="corpus statistics")
    p.add_argument("--input", required=True)
    p.add_argument("--lang")
    p.add_argument("--out")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("similarity", help="language-embedding distance matrix as CSV")
    p.add_argument("--model", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_similarity)

    for command in sub.choices.values():
        command.add_argument("--config", help="flat 'key = value' preset file")
        if suppress_defaults:
            for action in command._actions:
                action.default = argparse.SUPPRESS
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    args = build_parser().parse_args(argv)
    try:
        _apply_config_file(args, argv)
        return args.func(args)
    except _INPUT_ERRORS as exc:
        print(f"xsrl: error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except TrainingError as exc:
        print(f"xsrl: error: {exc}", file=sys.stderr)
        return INTERNAL_ERROR
    except Exception as exc:  # noqa: BLE001 - anything else is an internal bug
        print(f"xsrl: internal error: {exc}", file=sys.stderr)
        return INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
