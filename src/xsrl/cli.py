"""Command-line pipeline driver.

One binary with subcommands covering the whole workflow: align-train,
project, sweep-alpha, train, predict, eval, aggregate, stats.  Exit codes:
0 success, 2 usage or input error, 3 internal invariant violation or a
non-finite training loss.  A flat
"key = value" config file can preset any flag; explicit flags win.  The
seed falls back to the XSRL_SEED environment variable, then 42.  numpy's
BLAS runs on one thread, so the outputs do not depend on
OPENBLAS_NUM_THREADS.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from contextlib import contextmanager
from pathlib import Path

from . import blas
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
)
from .model.serialize import CheckpointError
from .postag import PosError, fit_pos_emission, load_pos_distribution, save_pos_distribution
from .projection import (ProjectionStats, SourceError, TranslationCountError, TranslationError,
                         project_corpus, sweep_corpus)

USAGE_ERROR = 2
INTERNAL_ERROR = 3

# Errors about the content of an input file: their messages get its path.
_FILE_ERRORS = (AlignmentError, CorpusError, ModelError, PosError, CheckpointError,
                evaluation.EvalError)


@functools.cache
def _keep_freed_pages() -> None:
    """Keep freed memory in the heap for reuse (:mod:`xsrl.malloc`), once
    per process: a training batch frees its temporaries and the next one
    allocates them again, and pages given back would be faulted in anew
    every batch.  ``train`` still gives the kept pages back before it maps
    its shared workspace (:func:`~xsrl.model.lstm.shared_array`).  The
    module and ctypes load on the first call, so importing the CLI does
    not change the heap's layout."""
    from . import malloc

    malloc.keep_freed_pages()


@functools.cache
def _one_blas_thread() -> None:
    """Run BLAS on one thread (:mod:`xsrl.blas`), once per process; warn
    where that cannot be done."""
    if not blas.use_one_thread():
        print("xsrl: warning: cannot set numpy's BLAS to one thread; outputs may "
              "depend on OPENBLAS_NUM_THREADS", file=sys.stderr)


@contextmanager
def _reading(path: str, errors=_FILE_ERRORS):
    """Name ``path`` in every input error of the types ``errors`` raised in
    the block: while reading it, or while using what was read from it.

    Undecodable bytes become ``PATH: line N: not valid UTF-8``, N being the
    line of the first byte that is not UTF-8.
    """
    try:
        yield
    except UnicodeDecodeError:
        with open(path, "rb") as fh:
            data = fh.read()
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            line = data.count(b"\n", 0, exc.start) + 1
            raise ValueError(f"{path}: line {line}: not valid UTF-8") from None
        raise
    except errors as exc:
        raise type(exc)(f"{path}: {exc}") from None


def _load_corpus(path: str, lang: str | None = None, require_pred: bool = True) -> Corpus:
    with _reading(path):
        return parse_srl_corpus(Path(path).read_text(encoding="utf-8"), default_lang=lang,
                                require_pred=require_pred)


def _emit(text: str, path: str | None, stream=None) -> None:
    """Write ``text`` to ``path`` when one is given, then print it to
    ``stream`` (standard output by default)."""
    if path:
        Path(path).write_text(text, encoding="utf-8")
    (stream or sys.stdout).write(text)


def _load(reader, path: str):
    """``reader(path)``, with ``path`` named in the input errors it raises."""
    with _reading(path):
        return reader(path)


def _read_config_file(path: str) -> dict[str, tuple[int, str]]:
    """Each key of a "key = value" file, with its line number and raw value."""
    values: dict[str, tuple[int, str]] = {}
    with _reading(path):
        text = Path(path).read_text(encoding="utf-8")
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ValueError(f"{path}:{lineno}: expected 'key = value'")
        key, value = stripped.split("=", 1)
        values[key.strip().replace("-", "_")] = (lineno, value.strip())
    return values


def _config_value(action: argparse.Action, raw: str):
    """A config-file value converted the way the flag converts it on the
    command line: by its type, which words every bad value as an
    :class:`argparse.ArgumentTypeError`, checked against its choices; a
    switch (``store_true``) takes true or false."""
    if action.nargs == 0:
        if raw.lower() not in ("true", "false"):
            raise ValueError(f"expected true or false, got {raw!r}")
        return raw.lower() == "true"
    value = raw
    if action.type is not None:
        try:
            value = action.type(raw)
        except argparse.ArgumentTypeError as exc:
            raise ValueError(str(exc)) from None
    if action.choices is not None and value not in action.choices:
        raise ValueError(f"invalid choice: {value!r} (choose from "
                         f"{', '.join(map(str, action.choices))})")
    return value


def _apply_config_file(args: argparse.Namespace, argv: list[str]) -> None:
    """Fill the flags not given on the command line from the config file.

    The command line is parsed again with every default suppressed, so a
    flag given explicitly wins even when its value equals the default.
    Keys that name no flag of the command are ignored.
    """
    if not args.config:
        return
    parser = build_parser(suppress_defaults=True)
    explicit = vars(parser.parse_args(argv))
    subcommands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    flags = {action.dest: action for action in subcommands.choices[args.command]._actions
             if action.option_strings and hasattr(args, action.dest)}
    for key, (lineno, raw) in _read_config_file(args.config).items():
        if key in flags and key not in explicit:
            try:
                value = _config_value(flags[key], raw)
            except ValueError as exc:
                raise ValueError(f"{args.config}:{lineno}: "
                                 f"{flags[key].option_strings[0]}: {exc}") from None
            setattr(args, key, value)


def _number(text: str, kind: type = float):
    """``text`` as a ``kind``; a failure reads as argparse words it."""
    try:
        return kind(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid {kind.__name__} value: {text!r}") from None


def _probability(text: str) -> float:
    """``--floor``, ``--alpha``: a float in [0, 1]."""
    value = _number(text)
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(f"must be in [0, 1], got {value}")
    return value


def _alphas(text: str) -> list[float]:
    """``--alphas``: comma-separated floats in [0, 1]."""
    return [_probability(value) for value in text.split(",")]


def _int_at_least(low: int):
    """The type of ``--seed`` (low 0), and of ``--iterations`` and the
    model's sizes and schedule (low 1): ``--word-dim``, ``--pos-dim``,
    ``--pred-dim``, ``--lang-dim``, ``--hidden``, ``--layers``,
    ``--batch-size`` and ``--epochs``."""

    def parse(text: str) -> int:
        value = _number(text, int)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    return parse


def _smoothing(text: str) -> float:
    """``--k``: a finite float >= 0."""
    value = _number(text)
    if not 0.0 <= value < math.inf:
        raise argparse.ArgumentTypeError(f"must be a finite number >= 0, got {value}")
    return value


def _learning_rate(text: str) -> float:
    """``--learning-rate``: a finite float > 0."""
    value = _number(text)
    if not 0.0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"must be a finite number > 0, got {value}")
    return value


def _lang(text: str) -> str:
    """``--lang``, ``--src-lang``, ``--tgt-lang``: one token with no spaces,
    as a ``# lang = XX`` comment holds."""
    if text.split() != [text]:
        raise argparse.ArgumentTypeError(f"must be one token with no spaces, got {text!r}")
    return text


def _buckets(text: str):
    """``--buckets``: distance buckets such as ``1-2,3-6,7+``."""
    try:
        return evaluation.parse_buckets(text)
    except evaluation.EvalError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _seed(args: argparse.Namespace) -> int:
    if args.seed is not None:
        return args.seed
    try:
        return _int_at_least(0)(os.environ.get("XSRL_SEED") or "42")
    except argparse.ArgumentTypeError as exc:
        raise ValueError(f"XSRL_SEED: {exc}") from None


def cmd_align_train(args) -> int:
    log: list[float] = []
    with _reading(args.parallel):  # a bitext with no pairs too
        pairs = read_parallel_corpus(Path(args.parallel).read_text(encoding="utf-8"))
        table = ibm1_train(pairs, iterations=args.iterations, floor=args.floor, log=log)
    save_table(table, args.out)
    for i, ll in enumerate(log, start=1):
        print(f"iteration {i}\tlog-likelihood {ll:.6f}", file=sys.stderr)
    return 0


def _projection_inputs(args):
    """The source corpus, its translations (one per sentence), the table and
    the POS distribution of ``project`` and ``sweep-alpha``."""
    src = _load_corpus(args.src, lang=args.src_lang)
    translations = _load_corpus(args.translations, lang=args.tgt_lang, require_pred=False)
    table = _load(load_table, args.table)
    dist = _load(load_pos_distribution, args.posdist)
    return src, list(translations.sentences), table, dist


@contextmanager
def _projecting(args):
    """Name the file at fault in a projection's input errors: --src for an
    untagged source word, --translations for an empty translation or a
    count that differs from --src's (naming --src too), and --posdist for a
    source tag outside its tagset."""
    try:
        with (_reading(args.src, SourceError), _reading(args.translations, TranslationError),
              _reading(args.posdist)):
            yield
    except TranslationCountError as exc:
        raise TranslationCountError(f"{exc} in --src {args.src}") from None


def cmd_project(args) -> int:
    src, translations, table, dist = _projection_inputs(args)
    with _projecting(args):
        out, stats = project_corpus(src, translations, table, dist, args.alpha)
    Path(args.out).write_bytes(write_srl_corpus(out))
    _emit(stats.as_lines(), args.stats or args.out + ".stats")
    return 0


def cmd_fit_pos(args) -> int:
    tagged = _load_corpus(args.tagged, lang=args.lang, require_pred=False)
    with _reading(args.tagged):  # a corpus with no sentences
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


def _train_model(args, corpus: Corpus):
    embeddings = _load(load_embeddings, args.embeddings) if args.embeddings else None
    return train(corpus, _train_config(args), seed=_seed(args), embeddings=embeddings)


def cmd_train(args) -> int:
    corpus = _merge_corpora(args.train_file, args.lang)
    if not any(sentence.frames for sentence in corpus.sentences):  # train's check, with paths
        raise ModelError(f"{', '.join(args.train_file)}: corpus has no predicate frames to "
                         "train on")
    model, losses = _train_model(args, corpus)
    save_model(model, args.out)
    _emit("".join(f"epoch {i}\tloss {loss!r}\n" for i, loss in enumerate(losses, start=1)),
          args.log or args.out + ".log", sys.stderr)
    return 0


def cmd_predict(args) -> int:
    model = _load(load_model, args.model)
    corpus = _load_corpus(args.input, lang=args.lang)
    with _reading(args.input):  # a language the model does not know
        predicted = predict(model, corpus)
    Path(args.out).write_bytes(write_srl_corpus(predicted))
    return 0


def cmd_eval(args) -> int:
    gold = _load_corpus(args.gold, lang=args.lang)
    pred = _load_corpus(args.pred, lang=args.lang)
    try:
        report = evaluation.srl_f1(gold, pred, buckets=args.buckets)
    except evaluation.EvalError as exc:  # sentences or predicates that differ
        raise evaluation.EvalError(
            f"--pred {args.pred} does not match --gold {args.gold}: {exc}") from None
    _emit(evaluation.format_report(report), args.out)
    return 0


def cmd_aggregate(args) -> int:
    reports = []
    for path in args.reports:
        with _reading(path):
            reports.append(evaluation.parse_report(Path(path).read_text(encoding="utf-8")))
    _emit(evaluation.format_report(evaluation.aggregate_reports(reports)), args.out)
    return 0


def cmd_stats(args) -> int:
    stats = corpus_stats(_load_corpus(args.input, lang=args.lang))
    rows = [("sentences", stats.sentences), ("predicates", stats.predicates),
            ("arguments", stats.arguments),
            *((f"role:{role}", count) for role, count in stats.roles.items())]
    _emit("".join(f"{name}\t{value}\n" for name, value in rows), args.out)
    return 0


def cmd_similarity(args) -> int:
    _emit(similarity_csv(_load(load_model, args.model)), args.out)
    return 0


def cmd_sweep_alpha(args) -> int:
    alphas: list[float] = []
    for alpha in args.alphas:
        if alpha in alphas:
            print(f"warning: duplicate alpha {alpha} ignored", file=sys.stderr)
            continue
        alphas.append(alpha)
    if args.train and not args.dev:
        raise ValueError("--train needs a --dev corpus to score against")

    src, translations, table, dist = _projection_inputs(args)
    dev = _load_corpus(args.dev, lang=args.tgt_lang) if args.train else None

    header = ["alpha", *ProjectionStats.FIELDS]
    if args.train:
        header.append("f1")
    rows = [",".join(header)]
    with _projecting(args):
        projections = sweep_corpus(src, translations, table, dist, alphas)
    # the cuts are nested, so equal kept counts mean the same corpus, whose
    # deterministic training need not run again
    scores: dict[tuple[int, int], float] = {}
    for alpha, (projected, stats) in zip(alphas, projections):
        row = [repr(alpha)] + [str(getattr(stats, f)) for f in ProjectionStats.FIELDS]
        if args.train:
            cut = (stats.frames_kept, stats.args_kept)
            if cut not in scores:
                scores[cut] = _dev_f1(args, projected, dev)
            row.append(repr(scores[cut]))
        rows.append(",".join(row))
    _emit("\n".join(rows) + "\n", args.out)
    return 0


def _dev_f1(args, projected: Corpus, dev: Corpus) -> float:
    """Train on a projected corpus and score the dev file.

    An empty projected corpus cannot train a model; its F1 is 0 by the
    zero-recall convention.
    """
    if not any(s.frames for s in projected.sentences):
        return 0.0
    model, _ = _train_model(args, projected)
    with _reading(args.dev):  # a language the model does not know
        return evaluation.srl_f1(dev, predict(model, dev)).f1


def _add_projection_flags(sub: argparse.ArgumentParser) -> None:
    """The inputs of a projection, which ``project`` and ``sweep-alpha``
    read with :func:`_projection_inputs`."""
    sub.add_argument("--src", required=True)
    sub.add_argument("--translations", required=True)
    sub.add_argument("--table", required=True)
    sub.add_argument("--posdist", required=True)
    sub.add_argument("--src-lang", type=_lang)
    sub.add_argument("--tgt-lang", type=_lang)


def _add_train_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--variant", choices=[BASIC, PGN], default=ModelConfig.variant)
    sub.add_argument("--word-dim", type=_int_at_least(1), default=ModelConfig.word_dim)
    sub.add_argument("--pos-dim", type=_int_at_least(1), default=ModelConfig.pos_dim)
    sub.add_argument("--pred-dim", type=_int_at_least(1), default=ModelConfig.pred_dim)
    sub.add_argument("--lang-dim", type=_int_at_least(1), default=ModelConfig.lang_dim)
    sub.add_argument("--hidden", type=_int_at_least(1), default=ModelConfig.hidden)
    sub.add_argument("--layers", type=_int_at_least(1), default=ModelConfig.layers)
    sub.add_argument("--learning-rate", type=_learning_rate, default=ModelConfig.learning_rate)
    sub.add_argument("--batch-size", type=_int_at_least(1), default=ModelConfig.batch_size)
    sub.add_argument("--epochs", type=_int_at_least(1), default=ModelConfig.epochs)
    sub.add_argument("--embeddings", help="pretrained word vector file (frozen table)")


@functools.cache
def build_parser(suppress_defaults: bool = False) -> argparse.ArgumentParser:
    """The CLI parser, built once per process (about 4 ms); with
    ``suppress_defaults`` a parse holds only the flags that were given.
    Subcommand ``NAME`` runs ``cmd_NAME``, looked up when it runs."""
    parser = argparse.ArgumentParser(
        prog="xsrl",
        description="Cross-lingual SRL: corpus translation and role labeling.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("align-train", help="train an IBM Model 1 alignment table")
    p.add_argument("--parallel", required=True, help="bitext, 'src ||| tgt' per line")
    p.add_argument("--iterations", type=_int_at_least(1), default=10)
    p.add_argument("--floor", type=_probability, default=0.0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("fit-pos", help="fit a POS emission distribution from a tagged corpus")
    p.add_argument("--tagged", required=True)
    p.add_argument("--lang", type=_lang)
    p.add_argument("--k", type=_smoothing, default=0.1)
    p.add_argument("--out", required=True)

    p = sub.add_parser("project", help="project source frames onto translations")
    _add_projection_flags(p)
    p.add_argument("--alpha", type=_probability, default=0.4)
    p.add_argument("--out", required=True)
    p.add_argument("--stats", help="stats report path (default: <out>.stats)")

    p = sub.add_parser("sweep-alpha", help="projection statistics per threshold")
    _add_projection_flags(p)
    p.add_argument("--alphas", type=_alphas, required=True, help="comma-separated thresholds")
    p.add_argument("--train", action="store_true",
                   help="also train per alpha and report dev F1")
    p.add_argument("--dev", help="gold dev corpus for --train")
    p.add_argument("--seed", type=_int_at_least(0))
    p.add_argument("--out", required=True)
    _add_train_flags(p)

    p = sub.add_parser("train", help="train a role labeler")
    p.add_argument("--train-file", action="append", required=True,
                   help="repeatable; corpora are concatenated")
    p.add_argument("--lang", type=_lang, help="language for files without '# lang' comments")
    p.add_argument("--seed", type=_int_at_least(0))
    p.add_argument("--out", required=True)
    p.add_argument("--log", help="loss log path (default: <out>.log)")
    _add_train_flags(p)

    p = sub.add_parser("predict", help="re-label the predicates of a corpus")
    p.add_argument("--model", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--lang", type=_lang)
    p.add_argument("--out", required=True)

    p = sub.add_parser("eval", help="score predictions against gold")
    p.add_argument("--gold", required=True)
    p.add_argument("--pred", required=True)
    p.add_argument("--lang", type=_lang)
    p.add_argument("--buckets", type=_buckets, default=evaluation.DEFAULT_BUCKETS)
    p.add_argument("--out")

    p = sub.add_parser("aggregate", help="average several evaluation reports")
    p.add_argument("reports", nargs="+")
    p.add_argument("--out")

    p = sub.add_parser("stats", help="corpus statistics")
    p.add_argument("--input", required=True)
    p.add_argument("--lang", type=_lang)
    p.add_argument("--out")

    p = sub.add_parser("similarity", help="language-embedding distance matrix as CSV")
    p.add_argument("--model", required=True)
    p.add_argument("--out")

    for command in sub.choices.values():
        command.add_argument("--config", help="flat 'key = value' preset file")
        if suppress_defaults:
            for action in command._actions:
                action.default = argparse.SUPPRESS
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    _keep_freed_pages()
    _one_blas_thread()
    args = build_parser().parse_args(argv)
    try:
        _apply_config_file(args, argv)
        return globals()["cmd_" + args.command.replace("-", "_")](args)
    except (OSError, ValueError) as exc:  # every input error class is a ValueError
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
