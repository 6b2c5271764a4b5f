"""Scoring predicted SRL corpora against gold annotations.

An argument is correct iff sentence, predicate index, argument token index
and role all match; predicates are given, so gold and prediction must
carry identical predicate sets.  All scores are micro-averaged from pooled
true/false positive and negative counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .corpus import Corpus

__all__ = [
    "EvalError",
    "RoleScore",
    "EvalReport",
    "DEFAULT_BUCKETS",
    "srl_f1",
    "format_report",
    "parse_report",
    "aggregate_reports",
    "parse_buckets",
]

#: Distance buckets as (low, high) inclusive ranges; None means unbounded.
DEFAULT_BUCKETS = ((1, 2), (3, 6), (7, None))


class EvalError(ValueError):
    """Raised for misaligned corpora, invalid bucket definitions or a
    malformed report."""


@dataclass(frozen=True)
class RoleScore:
    precision: float
    recall: float
    f1: float
    support: int


@dataclass
class EvalReport:
    precision: float
    recall: float
    f1: float
    gold_args: int
    pred_args: int
    per_role: dict[str, RoleScore] = field(default_factory=dict)
    per_distance: dict[str, RoleScore] = field(default_factory=dict)


def _score(tp: int, fp: int, fn: int) -> RoleScore:
    p = tp / (tp + fp) if tp + fp else 0.0
    r = tp / (tp + fn) if tp + fn else 0.0
    f = 2 * p * r / (p + r) if p + r else 0.0
    return RoleScore(p, r, f, support=tp + fn)


def parse_buckets(text: str) -> tuple[tuple[int, int | None], ...]:
    """Parse "1-2,3-6,7+" into ((1,2),(3,6),(7,None)); the buckets must
    cover every distance >= 1 exactly once."""
    out = []
    for part in text.split(","):
        part = part.strip()
        try:
            if part.endswith("+"):
                out.append((int(part[:-1]), None))
            else:
                low, high = part.split("-")
                out.append((int(low), int(high)))
        except ValueError:
            raise EvalError(f"malformed bucket {part!r}") from None
    _check_buckets(out)
    return tuple(out)


def _check_buckets(buckets) -> None:
    unbounded = [b for b in buckets if b[1] is None]
    spans = [(lo, hi) for lo, hi in buckets if hi is not None]
    for lo, hi in spans:
        if lo > hi or lo < 1:
            raise EvalError(f"bad bucket range {lo}-{hi}")
    edges = sorted(spans) + sorted((lo, math.inf) for lo, _ in unbounded)
    for (lo1, hi1), (lo2, _) in zip(edges, edges[1:]):
        if lo2 <= hi1:
            raise EvalError("overlapping buckets")
        if lo2 != hi1 + 1:
            raise EvalError(f"buckets leave distance {hi1 + 1} uncovered")
    if not edges or edges[0][0] != 1 or edges[-1][1] != math.inf:
        raise EvalError("buckets must cover every distance >= 1")


def _bucket_of(distance: int, bins) -> list[int]:
    for (low, high), counts in bins:
        if distance >= low and (high is None or distance <= high):
            return counts
    raise EvalError(f"no bucket for distance {distance}")


def _paired_frames(gold: Corpus, pred: Corpus):
    """(pred_index, gold_args, pred_args) of every predicate, each argument
    set holding (token index, role) pairs."""
    if len(gold.sentences) != len(pred.sentences):
        raise EvalError(
            f"gold has {len(gold.sentences)} sentences, prediction "
            f"{len(pred.sentences)}")
    for number, (gs, ps) in enumerate(zip(gold.sentences, pred.sentences), start=1):
        gold_preds = {f.pred_index: f.args for f in gs.frames}
        pred_preds = {f.pred_index: f.args for f in ps.frames}
        if gold_preds.keys() != pred_preds.keys():
            raise EvalError(
                f"sentence {number}: predicate sets differ "
                f"({sorted(gold_preds)} vs {sorted(pred_preds)})")
        for index in sorted(gold_preds):
            yield index, set(gold_preds[index]), set(pred_preds[index])


def srl_f1(gold: Corpus, pred: Corpus,
           buckets=DEFAULT_BUCKETS) -> EvalReport:
    """Micro P/R/F1 with full per-role and per-distance breakdowns.

    Each argument adds one to the [tp, fp, fn] counts of the whole report,
    of its role and of its distance bucket.
    """
    _check_buckets(buckets)
    total = [0, 0, 0]
    per_role: dict[str, list[int]] = {}
    per_distance = {f"{low}+" if high is None else f"{low}-{high}": [0, 0, 0]
                    for low, high in buckets}
    bins = list(zip(buckets, per_distance.values()))
    for index, gold_args, pred_args in _paired_frames(gold, pred):
        kinds = (gold_args & pred_args, pred_args - gold_args, gold_args - pred_args)
        for kind, args in enumerate(kinds):
            for arg, role in args:
                bucket = _bucket_of(abs(arg - index), bins)
                for counts in (total, per_role.setdefault(role, [0, 0, 0]), bucket):
                    counts[kind] += 1
    tp, fp, fn = total
    overall = _score(tp, fp, fn)
    return EvalReport(
        precision=overall.precision, recall=overall.recall, f1=overall.f1,
        gold_args=tp + fn, pred_args=tp + fp,
        per_role={role: _score(*c) for role, c in sorted(per_role.items())},
        per_distance={label: _score(*c) for label, c in per_distance.items()})


def format_report(report: EvalReport) -> str:
    lines = [
        f"precision\t{report.precision!r}",
        f"recall\t{report.recall!r}",
        f"f1\t{report.f1!r}",
        f"gold_args\t{report.gold_args}",
        f"pred_args\t{report.pred_args}",
        "",
        "[per_role]",
        "role,precision,recall,f1,support",
    ]
    for role, s in report.per_role.items():
        lines.append(f"{role},{s.precision!r},{s.recall!r},{s.f1!r},{s.support}")
    lines.extend(["", "[per_distance]", "bucket,precision,recall,f1,support"])
    for label, s in report.per_distance.items():
        lines.append(f"{label},{s.precision!r},{s.recall!r},{s.f1!r},{s.support}")
    return "\n".join(lines) + "\n"


_SCORES = ("precision", "recall", "f1")
_COUNTS = ("gold_args", "pred_args")


def _report_value(text: str, lineno: int, count: bool = False):
    """A report field: a count >= 0, or a score in [0, 1]."""
    try:
        value = int(text) if count else float(text)
    except ValueError:
        value = -1
    valid = value >= 0 if count else 0.0 <= value <= 1.0
    if valid:
        return value
    what = "a count" if count else "a score in [0, 1]"
    raise EvalError(f"line {lineno}: expected {what}, got {text!r}")


def parse_report(text: str) -> EvalReport:
    """Read back a :func:`format_report` text.  A malformed line, an unknown
    name or section, a score outside [0, 1] (NaN included) or a missing
    top-level line raises :class:`EvalError` naming the line."""
    top: dict[str, float] = {}
    tables: dict[str, dict[str, RoleScore]] = {"per_role": {}, "per_distance": {}}
    section = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("["):
            section = line.strip("[]")
            if section not in tables:
                raise EvalError(f"line {lineno}: unknown section {line.strip()}")
            continue
        if section is None:
            fields = line.split("\t")
            if len(fields) != 2:
                raise EvalError(f"line {lineno}: expected a name, a tab and a value")
            key, value = fields
            if key not in _SCORES + _COUNTS:
                raise EvalError(f"line {lineno}: unknown name {key!r}")
            top[key] = _report_value(value, lineno, key in _COUNTS)
        elif not line.startswith(("role,", "bucket,")):
            fields = line.split(",")
            if len(fields) != 5:
                raise EvalError(f"line {lineno}: expected 'name,precision,recall,f1,support', "
                                f"got {len(fields)} fields")
            name, *scores, support = fields
            tables[section][name] = RoleScore(*(_report_value(s, lineno) for s in scores),
                                              _report_value(support, lineno, count=True))
    for key in _SCORES + _COUNTS:
        if key not in top:
            raise EvalError(f"no {key!r} line")
    return EvalReport(**top, per_role=tables["per_role"], per_distance=tables["per_distance"])


def aggregate_reports(reports: list[EvalReport]) -> EvalReport:
    """Mean the scores of several evaluation runs (e.g. over seeds)."""
    if not reports:
        raise EvalError("no reports to aggregate")

    def mean(values):
        return sum(values) / len(values)

    def mean_table(key):
        tables = [getattr(r, key) for r in reports]
        out = {}
        for name in sorted({name for table in tables for name in table}):
            rows = [table[name] for table in tables if name in table]
            out[name] = RoleScore(*(mean([getattr(s, f) for s in rows]) for f in _SCORES),
                                  support=round(mean([s.support for s in rows])))
        return out

    return EvalReport(
        *(mean([getattr(r, f) for r in reports]) for f in _SCORES),
        *(round(mean([getattr(r, c) for r in reports])) for c in _COUNTS),
        per_role=mean_table("per_role"), per_distance=mean_table("per_distance"))
