"""Per-layer tracing from outside the program.

The tracer wraps the public functions of each graphgp module (every
binding they are called through, plus the kernels' ``gram`` methods),
records spans (name, start, end, parent, info) in memory and turns them
into per-layer figures at the end of the process: call counts, total
time, self time (span minus child spans) and a few cache counters read
from ``cache_info()`` deltas. Functions called hundreds of thousands of
times (``pair_histogram``, ``evaluate``, ``edge_permutation``) are counted
from their caches, not spanned.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time
from collections import defaultdict

MODULES = ("graphgp", "graphgp.spaces", "graphgp.kravchuk", "graphgp.kernels",
           "graphgp.invariance", "graphgp.gp", "graphgp.datasets", "graphgp.cli")

#: Span name -> (defining module, function name).
FUNCTIONS = {
    "kravchuk.build_table": ("graphgp.kravchuk", "build_table"),
    "kernels.kernel_profile": ("graphgp.kernels", "kernel_profile"),
    "spaces.pairwise_hamming": ("graphgp.spaces", "pairwise_hamming"),
    "invariance.gram_exact": ("graphgp.invariance", "invariant_gram_exact"),
    "invariance.gram_sampled": ("graphgp.invariance", "invariant_gram_sampled"),
    "gp.optimize": ("graphgp.gp", "optimize_hyperparameters"),
    "gp.fit": ("graphgp.gp", "fit"),
    "gp.predict": ("graphgp.gp", "predict"),
    "datasets.encode": ("graphgp.datasets", "encode"),
    "datasets.predictive_log_likelihood": ("graphgp.datasets", "predictive_log_likelihood"),
    "cli.load_model": ("graphgp.cli", "load_model"),
    "cli.run_experiment": ("graphgp.cli", "run_experiment"),
}

#: Kernel classes whose ``gram`` method is spanned as gram.square / gram.cross.
GRAM_CLASSES = (("graphgp.kernels", "IsotropicKernel"), ("graphgp.kernels", "LinearKernel"),
                ("graphgp.invariance", "ProjectedKernel"))

#: Cached functions whose hits and misses are read from ``cache_info()``.
CACHES = {
    "invariance.pair_histogram": ("graphgp.invariance", "pair_histogram"),
    "spaces.edge_permutation": ("graphgp.spaces", "edge_permutation"),
}


class Tracer:
    """Spans and counters of one process; install once, summarize at exit."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, info]
        self._stack: list[int] = []
        self._open = defaultdict(int)
        self.objective_failed = 0
        self._cache_start: dict[str, object] = {}

    def record(self, name: str, start: float, end: float) -> None:
        self.spans.append([name, start, end, self._stack[-1] if self._stack else -1, None])

    def _wrap(self, name, fn, info=None):
        spans, stack, opened, clock = self.spans, self._stack, self._open, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(idx)
            opened[name] += 1
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                if name == "gp.fit" and opened["gp.optimize"]:
                    self.objective_failed += 1
                raise
            finally:
                opened[name] -= 1
                stack.pop()
                span[2] = clock()
            if info is not None:
                span[4] = info(args, result)
            return result

        return wrapper

    def _wrap_gram(self, fn):
        square = self._wrap("gram.square", fn)
        cross = self._wrap("gram.cross", fn)

        @functools.wraps(fn)
        def gram(self_, xs, ys=None):
            return square(self_, xs) if ys is None else cross(self_, xs, ys)

        return gram

    def _wrap_lml(self, fn):
        opened = self._open

        @functools.wraps(fn)
        def lml(model):
            value = fn(model)
            if opened["gp.optimize"] and not math.isfinite(value):
                self.objective_failed += 1
            return value

        return lml

    def install(self) -> None:
        mods = [sys.modules[m] for m in MODULES]
        infos = {
            "gp.optimize": lambda args, result: result.evaluations,
            "gp.fit": lambda args, result: int(result.jitter > 0),
            "gp.predict": lambda args, result: len(args[1]),
        }
        replacements = {}
        for name, (mod, attr) in FUNCTIONS.items():
            original = getattr(sys.modules[mod], attr)
            replacements[id(original)] = (original, self._wrap(name, original, infos.get(name)))
        lml = sys.modules["graphgp.gp"].log_marginal_likelihood
        replacements[id(lml)] = (lml, self._wrap_lml(lml))
        for mod in mods:
            for attr, value in list(vars(mod).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
        for mod, cls in GRAM_CLASSES:
            klass = getattr(sys.modules[mod], cls)
            klass.gram = self._wrap_gram(klass.gram)
        for name, (mod, attr) in CACHES.items():
            self._cache_start[name] = getattr(sys.modules[mod], attr).cache_info()

    def write_spans(self, path) -> None:
        """All spans of the process as JSON rows [name, start, end, parent, info]."""
        with open(path, "w") as fh:
            json.dump(self.spans, fh)

    def summary(self) -> dict:
        """Per-layer totals of this process (plain JSON)."""
        by_name = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0, "first_s": None, "info": 0})
        child_s = defaultdict(float)
        for name, start, end, parent, _info in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        extra = defaultdict(float)
        for idx, (name, start, end, parent, info) in enumerate(self.spans):
            dur = end - start
            row = by_name[name]
            row["calls"] += 1
            row["s"] += dur
            row["self_s"] += dur - child_s[idx]
            if row["first_s"] is None:
                row["first_s"] = dur
            if info is not None:
                row["info"] += info
            if name.startswith("gram.") and parent >= 0 and self.spans[parent][0] == "gp.predict":
                extra[f"predict.{name}"] += dur
        caches = {}
        for name, (mod, attr) in CACHES.items():
            start, end = self._cache_start[name], getattr(sys.modules[mod], attr).cache_info()
            caches[name] = {"hits": end.hits - start.hits, "misses": end.misses - start.misses,
                            "entries": end.currsize}
        return {"layers": dict(by_name), "predict_gram": dict(extra), "caches": caches,
                "objective_failed": self.objective_failed}


def layer_metrics(summaries: list[dict], round_s: float) -> dict:
    """The benchmark's per-layer metrics, summed over the traced processes."""

    def total(name, key):
        return sum((s["layers"].get(name) or {}).get(key) or 0 for s in summaries)

    def cache(name, key):
        return sum(s["caches"][name][key] for s in summaries)

    runs = total("gp.optimize", "calls")
    values = {
        "kravchuk.build_table.s": (total("kravchuk.build_table", "s"), "s"),
        "kernels.kernel_profile.calls": (total("kernels.kernel_profile", "calls"), "count"),
        "kernels.kernel_profile.s": (total("kernels.kernel_profile", "s"), "s"),
        "spaces.pairwise_hamming.s": (total("spaces.pairwise_hamming", "s"), "s"),
        "spaces.edge_permutation.misses": (cache("spaces.edge_permutation", "misses"), "count"),
        "invariance.gram_exact.calls": (total("invariance.gram_exact", "calls"), "count"),
        "invariance.gram_exact.self_s": (total("invariance.gram_exact", "self_s"), "s"),
        "invariance.gram_exact.first_s": (total("invariance.gram_exact", "first_s"), "s"),
        "invariance.pair_histogram.hits": (cache("invariance.pair_histogram", "hits"), "count"),
        "invariance.pair_histogram.misses": (cache("invariance.pair_histogram", "misses"), "count"),
        "invariance.pair_histogram.entries": (cache("invariance.pair_histogram", "entries"), "count"),
        "invariance.gram_sampled.calls": (total("invariance.gram_sampled", "calls"), "count"),
        "invariance.gram_sampled.self_s": (total("invariance.gram_sampled", "self_s"), "s"),
        "gp.optimize.runs": (runs, "count"),
        "gp.optimize.evals_per_run": (total("gp.optimize", "info") / runs if runs else 0.0, "count"),
        "gp.optimize.s": (total("gp.optimize", "s"), "s"),
        "gp.objective.failed": (sum(s["objective_failed"] for s in summaries), "count"),
        "gp.fit.calls": (total("gp.fit", "calls"), "count"),
        "gp.fit.self_s": (total("gp.fit", "self_s"), "s"),
        "gp.fit.jittered": (total("gp.fit", "info"), "count"),
        "gp.predict.points": (total("gp.predict", "info"), "count"),
        "gp.predict.self_s": (total("gp.predict", "self_s"), "s"),
        "gp.predict.gram_cross_s": (sum(s["predict_gram"].get("predict.gram.cross", 0.0) for s in summaries), "s"),
        "gp.predict.gram_square_s": (sum(s["predict_gram"].get("predict.gram.square", 0.0) for s in summaries), "s"),
        "datasets.encode.s": (total("datasets.encode", "s"), "s"),
        "datasets.predictive_log_likelihood.s": (total("datasets.predictive_log_likelihood", "s"), "s"),
        "cli.import.s": (total("cli.import", "s"), "s"),
        "cli.load_model.s": (total("cli.load_model", "s"), "s"),
        "cli.run_experiment.s": (total("cli.run_experiment", "s"), "s"),
        "trace.round_s": (round_s, "s"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}
