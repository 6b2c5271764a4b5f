"""In-memory span tracer and the wrappers that feed it.

A span is (name, start, end, parent, run id).  Spans nest by call order:
the pipeline is single-threaded, so a span's children lie inside it and
never overlap one another, and a span's self time is its duration minus
the durations of its direct children.  Counts are recorded by the same
wrappers that open the spans.

The wrappers are installed from outside the package: each public function
is replaced on the module where its caller looks it up (``xsrl.cli`` for
the stage functions it imports by name, ``xsrl.model.network`` for the
recurrent layer, and so on), and the original is put back afterwards.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []  # [name, start, end, parent index or -1, run id]
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self.run_id = 0
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.clock(), None, parent, self.run_id])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = self.clock()

    def count(self, name: str, n: int = 1) -> None:
        self.counts[self.run_id][name] += n

    def set(self, name: str, value: int) -> None:
        self.counts[self.run_id][name] = value

    def self_times(self, run_id: int) -> dict[str, float]:
        """Summed self time per span name over the spans of one run."""
        children = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                children[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, run) in enumerate(self.spans):
            if run == run_id:
                out[name] += (end - start) - children[i]
        return dict(out)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, run in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "run": run}) + "\n")


def _tokens(corpus) -> int:
    return sum(len(s.tokens) for s in corpus.sentences)


def ibm1_links(pairs) -> int:
    """Source-target pairs one IBM-1 EM iteration visits (NULL included)."""
    return sum(len(p.src_tokens) * (len(p.tgt_tokens) + 1) for p in pairs)


def _ibm1(tracer, args, kwargs, table):
    iterations = kwargs.get("iterations", args[1] if len(args) > 1 else None)
    tracer.count("alignment.ibm1.links", ibm1_links(args[0]) * iterations)
    tracer.set("alignment.table_entries", len(table.probs))


def _project(tracer, args, kwargs, result):
    _, stats = result
    tracer.count("projection.sentences", len(args[0].sentences))
    for name in ("frames_in", "frames_kept", "args_in", "args_kept"):
        tracer.count(f"projection.{name}", getattr(stats, name))


def _train(tracer, args, kwargs, result):
    model, _ = result
    tracer.set("model.param_count", sum(int(p.size) for p in model.params.values()))


# (module, attribute, span name, hook(tracer, args, kwargs, result) or None)
PATCHES = [
    ("xsrl.cli", "read_parallel_corpus", "alignment.read_parallel_corpus", None),
    ("xsrl.cli", "ibm1_train", "alignment.ibm1_train", _ibm1),
    ("xsrl.cli", "save_table", "alignment.save_table", None),
    ("xsrl.cli", "load_table", "alignment.load_table", None),
    ("xsrl.cli", "parse_srl_corpus", "corpus.parse_srl_corpus",
     lambda t, a, k, r: t.count("corpus.parse.tokens", _tokens(r))),
    ("xsrl.cli", "write_srl_corpus", "corpus.write_srl_corpus",
     lambda t, a, k, r: t.count("corpus.write.tokens", _tokens(a[0]))),
    ("xsrl.cli", "fit_pos_emission", "postag.fit_pos_emission", None),
    ("xsrl.cli", "load_pos_distribution", "postag.load_pos_distribution", None),
    ("xsrl.cli", "project_corpus", "projection.project_corpus", _project),
    ("xsrl.cli", "train", "model.train", _train),
    ("xsrl.cli", "save_model", "model.save_model", None),
    ("xsrl.cli", "load_model", "model.load_model", None),
    ("xsrl.cli", "predict", "model.predict", None),
    ("xsrl.eval", "srl_f1", "eval.srl_f1", None),
    ("xsrl.eval", "format_report", "eval.format_report", None),
    ("xsrl.model.training", "loss_and_gradients", "model.loss_and_gradients", None),
    ("xsrl.model.network", "bilstm_forward", "model.bilstm_forward",
     lambda t, a, k, r: t.count("model.tokens", int(a[2].shape[0]))),
    ("xsrl.model.network", "bilstm_backward", "model.bilstm_backward", None),
    ("xsrl.model.network", "pgn_params", "model.pgn_params", None),
    ("xsrl.model.crf", "nll_gradients", "model.crf.nll_gradients", None),
    ("xsrl.model.crf", "viterbi", "model.crf.viterbi", None),
]


def _wrap(tracer: Tracer, fn, name: str, hook):
    calls = name + ".calls"

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.count(calls)
        with tracer.span(name):
            result = fn(*args, **kwargs)
        if hook is not None:
            hook(tracer, args, kwargs, result)
        return result

    return wrapper


@contextmanager
def instrument(tracer: Tracer, patches=PATCHES):
    """Install a span wrapper for every patch target, restoring them on exit.

    Targets missing from the code under test are skipped and listed in
    the yielded list, so their metrics read zero instead of failing.
    """
    saved = []
    missing = []
    try:
        for module_name, attr, name, hook in patches:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                missing.append(f"{module_name}.{attr}")
                continue
            saved.append((module, attr, original))
            setattr(module, attr, _wrap(tracer, original, name, hook))
        yield missing
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
