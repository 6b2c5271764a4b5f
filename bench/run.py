#!/usr/bin/env python3
"""Benchmark of the xsrl pipeline, end to end and layer by layer.

    python3 bench/run.py --workload toy-recipe --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seed 1

Run from the repository root.  One run is one workload in this single
process, with BLAS pinned to one thread.  It sets up the workload's inputs
(several times, to time set-up), then repeats passes over the workload's
``xsrl`` stages, each called in-process through ``xsrl.cli.main`` with the
argv a user types, for about ``--seconds`` and at least two passes.  Every
pass's outputs are checked and must be byte-identical to the first pass's.

With ``--trace 0`` the metrics are end-to-end medians over the passes.
With ``--trace 1`` traced and untraced passes alternate; the metrics are
per-layer medians over the traced passes, plus the tracing overhead.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
print every metric by name and unit, and the run record.  Spans and the
full result go to ``.bench_work/`` under the repository root.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import Tracer, instrument

# Before numpy is first imported (by the workload modules, in run_workload):
# one BLAS thread, so runs do not depend on how many cores are free.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
WORK_ROOT = Path(".bench_work")
SETUP_REPEATS = 3
MIN_PASSES = 2
WORKLOAD_NAMES = ("toy-recipe", "prep-large-vocab", "train-desk-basic")

# (name, unit, better): the metrics of the final JSON line.
END_TO_END = [
    ("pipeline_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]

# Printed by name, not gated, on the workloads whose stages produce them:
# (name, unit, better, input size from Workload.work, stage it divides by).
STAGE_RATES = [
    ("train_examples_per_s", "examples/s", "higher", "train_examples", "train"),
    ("train_tokens_per_s", "tokens/s", "higher", "train_tokens", "train"),
    ("predict_tokens_per_s", "tokens/s", "higher", "predict_tokens", "predict"),
    ("align_links_per_s", "links/s", "higher", "align_links", "align-train"),
    ("project_sentences_per_s", "sentences/s", "higher", "project_sentences", "project"),
]
STAGE_METRICS = ([("error_rate", "failed/attempted", "lower")]
                 + [r[:3] for r in STAGE_RATES] + [("dev_f1", "F1", "higher")])

CLI_STAGES = ("align-train", "fit-pos", "project", "train", "predict", "eval", "stats")
SELF_TIMES = [f"cli.{s}" for s in CLI_STAGES] + [
    "corpus.parse_srl_corpus", "corpus.write_srl_corpus",
    "alignment.read_parallel_corpus", "alignment.ibm1_train",
    "alignment.save_table", "alignment.load_table",
    "postag.fit_pos_emission", "postag.load_pos_distribution",
    "projection.project_corpus",
    "model.train", "model.loss_and_gradients", "model.bilstm_forward",
    "model.bilstm_backward", "model.crf.nll_gradients", "model.crf.viterbi",
    "model.pgn_params", "model.predict", "model.save_model", "model.load_model",
    "eval.srl_f1", "eval.format_report",
]
COUNTS = [
    "corpus.parse_srl_corpus.calls", "alignment.ibm1.links", "alignment.table_entries",
    "projection.frames_in", "projection.args_in",
    "model.loss_and_gradients.calls", "model.bilstm_forward.calls",
    "model.pgn_params.calls", "model.predict.calls", "model.param_count", "model.tokens",
]
# rate name -> (count, span whose self time divides it)
RATES = {
    "corpus.parse.tokens_per_s": ("corpus.parse.tokens", "corpus.parse_srl_corpus"),
    "corpus.write.tokens_per_s": ("corpus.write.tokens", "corpus.write_srl_corpus"),
    "alignment.ibm1.links_per_s": ("alignment.ibm1.links", "alignment.ibm1_train"),
    "projection.sentences_per_s": ("projection.sentences", "projection.project_corpus"),
}
# ratio name -> (useful count, attempted count)
RATIOS = {
    "projection.frames_kept_ratio": ("projection.frames_kept", "projection.frames_in"),
    "projection.args_kept_ratio": ("projection.args_kept", "projection.args_in"),
}
PER_LAYER = (
    [(f"{n}.self_s", "s", "lower") for n in SELF_TIMES]
    + [(n, "count", "lower") for n in COUNTS]
    + [(n, RATES[n][0].rsplit(".", 1)[1] + "/s", "higher") for n in RATES]
    + [(n, "ratio", "higher") for n in RATIOS]
    + [("trace.overhead_s", "s", "lower")]
)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOAD_NAMES, "all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _require_checkout() -> None:
    for needed in ("src/xsrl/cli.py", "demos/make_toy_data.py", "data/toy/bitext.txt"):
        if not (ROOT / needed).is_file():
            sys.exit(f"bench: {needed} not found under {ROOT}; run from a full checkout")


def run_record(args) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    sha = dirty = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        git = ["git", "-C", str(ROOT)]
        sha = subprocess.run([*git, "rev-parse", "HEAD"], capture_output=True,
                             text=True).stdout.strip() or None
        status = subprocess.run([*git, "status", "--porcelain", "--untracked-files=no"],
                                capture_output=True, text=True)
        dirty = bool(status.stdout.strip()) if status.returncode == 0 else None
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(), "machine": platform.machine(),
        "python": platform.python_version(), "numpy": np.__version__, "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "git_sha": sha, "git_dirty": dirty,
    }


def run_stage(main, argv, tracer=None) -> tuple[int, float, str]:
    """Call ``xsrl.cli.main(argv)``; returns (exit code, seconds, captured stderr)."""
    out, err = io.StringIO(), io.StringIO()
    span = tracer.span(f"cli.{argv[0]}") if tracer else contextlib.nullcontext()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), span:
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the argv
            code = exc.code if isinstance(exc.code, int) else 2
    return code, time.perf_counter() - start, err.getvalue()


def import_s() -> float:
    """Seconds a fresh interpreter takes to import the package's CLI."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import xsrl.cli"], env=env, check=True)
    return time.perf_counter() - start


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Run:
    """Attempted and failed operations of one benchmark run."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def op(self, problem: str | None) -> None:
        self.attempted += 1
        if problem:
            self.failures.append(problem)


def run_pass(workload, work: Path, run: Run, main, tracer=None) -> dict:
    """One pass over the workload's stages, then its output checks."""
    stage_s: dict[str, float] = {}
    with instrument(tracer) if tracer else contextlib.nullcontext([]) as missing:
        stages = workload.stages(work)
        for i, argv in enumerate(stages):
            code, seconds, err = run_stage(main, argv, tracer)
            stage_s[argv[0]] = seconds
            if code != 0:
                run.op(f"{argv[0]} exited {code}: {err.strip()[-300:]}")
                for rest in stages[i + 1:]:
                    run.op(f"{rest[0]} not run")
                return {"stage_s": stage_s, "ok": False}
            run.op(None)
    for problem in workload.check(work):
        run.op(problem)
    digests = {name: _digest(work / name) for name in workload.outputs}
    return {"stage_s": stage_s, "ok": True, "digests": digests,
            "pipeline_s": sum(stage_s.values()), "uninstrumented": missing}


def layer_metrics(tracer, run_id: int) -> dict[str, float]:
    self_s = tracer.self_times(run_id)
    counts = tracer.counts[run_id]
    out = {f"{n}.self_s": self_s.get(n, 0.0) for n in SELF_TIMES}
    out.update({n: counts.get(n, 0) for n in COUNTS})
    for name, (count, span) in RATES.items():
        seconds = self_s.get(span, 0.0)
        out[name] = counts.get(count, 0) / seconds if seconds > 0 else 0.0
    for name, (useful, attempted) in RATIOS.items():
        base = counts.get(attempted, 0)
        out[name] = counts.get(useful, 0) / base if base else 0.0
    return out


def run_workload(args) -> int:
    from workloads import WORKLOADS

    from xsrl.eval import parse_report

    from xsrl.cli import main

    workload = WORKLOADS[args.workload]
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    work = WORK_ROOT / f"{tag}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        # Set-up is what a fresh process pays before the first stage: the
        # imports, then generating and writing the inputs.  Repeated, and
        # the median taken, because one import is too short to time steadily.
        setups = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            workload.setup(work, args.seed)
            setups.append(import_s() + time.perf_counter() - start)
        setup_s = statistics.median(setups)

        run = Run()
        tracer = Tracer() if args.trace else None
        passes: list[dict] = []
        began = time.perf_counter()
        while True:
            traced = bool(tracer) and len(passes) % 2 == 1
            if traced:
                tracer.run_id = len(passes)
            result = run_pass(workload, work, run, main, tracer if traced else None)
            result.update(index=len(passes), traced=traced)
            passes.append(result)
            if not result["ok"]:
                break
            for name, digest in result["digests"].items():
                run.op(None if digest == passes[0]["digests"][name]
                       else f"{name} differs from the first pass")
            elapsed = time.perf_counter() - began
            typical = statistics.median(p["pipeline_s"] for p in passes)
            if len(passes) >= MIN_PASSES and elapsed + typical > args.seconds:
                break
        sizes = workload.work(work) if passes[-1]["ok"] else {}
        report = work / "report.txt"
        dev_f1 = None
        if report.exists() and passes[-1]["ok"]:
            dev_f1 = parse_report(report.read_text(encoding="utf-8")).f1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    plain = [p for p in passes if p["ok"] and not p["traced"]]
    traced_passes = [p for p in passes if p["ok"] and p["traced"]]

    end_to_end: dict[str, float] = {"setup_s": setup_s, "peak_rss_mb": peak_rss_mb}
    if plain:
        end_to_end["pipeline_s"] = statistics.median(p["pipeline_s"] for p in plain)
    stage_metrics: dict[str, float] = {
        "error_rate": len(run.failures) / max(run.attempted, 1)}
    for metric, _, _, size, stage in STAGE_RATES:
        if plain and size in sizes:
            stage_metrics[metric] = sizes[size] / statistics.median(
                p["stage_s"][stage] for p in plain)
    if dev_f1 is not None:
        stage_metrics["dev_f1"] = dev_f1

    per_layer: dict[str, float] = {}
    if traced_passes:
        layers = [layer_metrics(tracer, p["index"]) for p in traced_passes]
        for name, unit, _ in PER_LAYER[:-1]:
            values = [m[name] for m in layers]
            if unit == "count":
                run.op(None if len(set(values)) == 1
                       else f"count {name} differs between traced passes: {values}")
                per_layer[name] = values[0]
            else:
                per_layer[name] = statistics.median(values)
        per_layer["trace.overhead_s"] = (
            statistics.median(p["pipeline_s"] for p in traced_passes)
            - end_to_end.get("pipeline_s", 0.0))

    record = run_record(args)
    record.update(passes=len(passes), setup_repeats=setups,
                  uninstrumented=traced_passes[0]["uninstrumented"] if traced_passes else [],
                  stage_s=[p["stage_s"] for p in passes], work_sizes=sizes)
    specs = PER_LAYER if args.trace else END_TO_END
    source = per_layer if args.trace else end_to_end
    metrics = {name: {"value": source[name], "unit": unit}
               for name, unit, _ in specs if name in source}
    result = {"correct": not run.failures and len(metrics) == len(specs),
              "attempted": run.attempted, "failed": len(run.failures),
              "metrics": metrics}

    for problem in run.failures:
        print(f"FAILED: {problem}")
    shown = {**end_to_end, **stage_metrics}
    for name, unit, better in END_TO_END + STAGE_METRICS:
        if name in shown:
            print(f"{workload.name}\t{name}\t{shown[name]!r}\t{unit}\t({better} is better)")
    for name, unit, better in PER_LAYER:
        if name in per_layer:
            print(f"{workload.name}\t{name}\t{per_layer[name]!r}\t{unit}\t({better} is better)")
    print("run-record " + json.dumps(record, sort_keys=True))

    WORK_ROOT.mkdir(exist_ok=True)
    if tracer:
        tracer.write(WORK_ROOT / f"{tag}.spans.jsonl")
    (WORK_ROOT / f"{tag}.json").write_text(json.dumps(
        {"record": record, "end_to_end": end_to_end, "stage_metrics": stage_metrics,
         "per_layer": per_layer, "failures": run.failures, "result": result},
        indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh process; prints their lines and one JSON map."""
    results = {}
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        sys.stdout.write("".join(line + "\n" for line in lines[:-1]))
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            return proc.returncode or 1
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    _require_checkout()
    os.chdir(ROOT)
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(ROOT / "src"))
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
