"""Spans around calls into refadapt's modules, installed from the benchmark's side.

Each wrapper replaces a function under the name its caller looks it up by
(``refadapt.runner.cascade_cluster``, ``refadapt.selection.nondominated_split``,
``associate`` in ``simulate``, ``reference`` and ``adaptation``, ...), so no
tracing code lives inside ``src/refadapt``. Spans are kept in memory and
written out when the run ends. A span's self time is its duration minus its
child spans; the self times of all modules plus ``trace.harness_s`` add up to
``trace.wall_s``.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

from refadapt import adaptation, problems, reference, runner, selection, simulate

PERCENTILE_MIN_SAMPLES = 200
MODULES = ("variation", "problems", "core", "selection", "archive", "adaptation",
           "reference", "metrics", "simulate", "runner")
ROOT = "bench.round"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []          # [name, parent index, start, end]
        self.counts: dict[str, float] = defaultdict(float)
        self.peaks: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    def wrap(self, name: str, fn, count=None):
        """``fn`` recording one span per call, and counts from ``count(args, result)``."""
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, stack[-1] if stack else -1, 0.0, 0.0]
            spans.append(span)
            stack.append(idx)
            span[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                stack.pop()
            if count is not None:
                count(self, args, result)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, count=None) -> None:
        setattr(owner, attr, self.wrap(name, getattr(owner, attr), count))

    def patch_method(self, cls, attr: str, name: str, count=None) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            setattr(cls, attr, classmethod(self.wrap(name, raw.__func__, count)))
        else:
            setattr(cls, attr, self.wrap(name, raw, count))

    def write(self, path: Path) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": names, "fields": ["name", "parent", "start", "end"],
                       "spans": [[index[s[0]], s[1], s[2], s[3]] for s in self.spans]}, fh)


def span_cost(calls: int = 20_000, repeats: int = 5) -> float:
    """Seconds one traced call adds to an untraced one: the median over repeats, on a no-op."""
    def noop(arg):
        return arg

    traced = Tracer().wrap("noop", noop)
    costs = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for i in range(calls):
            noop(i)
        t1 = time.perf_counter()
        for i in range(calls):
            traced(i)
        t2 = time.perf_counter()
        costs.append((t2 - t1 - (t1 - t0)) / calls)
    return max(0.0, float(np.median(costs)))


def _add(key, value_of):
    def count(tracer, args, result):
        tracer.counts[key] += value_of(args, result)
    return count


def _count_associate(tracer, args, result):
    rows = len(np.atleast_2d(args[0]))
    cols = len(np.atleast_2d(args[1]))
    tracer.counts["core.associate.pairs"] += rows * cols
    tracer.peaks["core.associate.max_matrix_mb"] = max(
        tracer.peaks["core.associate.max_matrix_mb"], rows * cols * 8 / 2**20)


def _count_event(tracer, args, result):
    tracer.counts[f"adaptation.events.{result[1].kind}"] += 1


def _count_output_bytes(tracer, args, result):
    tracer.counts["runner.output_bytes"] += sum(
        os.path.getsize(os.path.join(d, f)) for d, _, files in os.walk(args[0]) for f in files)


def install(tracer: Tracer) -> None:
    """Route every traced call of refadapt through ``tracer``."""
    t = tracer
    t.patch(runner, "experiment", "runner.experiment")
    t.patch(runner, "run", "runner.run",
            _add("runner.generations", lambda a, r: len(r.generations)))
    t.patch(runner, "_write_outputs", "runner.write", _count_output_bytes)
    t.patch(runner, "make_offspring", "variation.make_offspring",
            _add("variation.make_offspring.rows", lambda a, r: len(r)))
    t.patch(runner, "cascade_cluster", "selection.cascade_cluster",
            _add("selection.cascade_cluster.pool_rows", lambda a, r: len(a[0])))
    t.patch(runner, "maintain", "archive.maintain")
    t.patch(runner, "igd", "metrics.igd",
            _add("metrics.igd.pairs", lambda a, r: len(a[0]) * len(a[1])))
    t.patch(runner, "confidence_trajectory", "metrics.confidence_trajectory")
    t.patch(selection, "nondominated_split", "core.nondominated_split",
            _add("core.nondominated_split.pairs", lambda a, r: len(a[0]) ** 2))
    for module in (runner, simulate):
        t.patch(module, "adapt", "adaptation.adapt", _count_event)
    for module in (adaptation, reference, simulate):
        t.patch(module, "associate", "core.associate", _count_associate)
    t.patch(simulate, "permutation_similarity", "simulate.permutation_similarity")
    t.patch(simulate, "run_scenario", "simulate.run_scenario",
            _add("simulate.run_scenario.iterations", lambda a, r: r.iterations))
    t.patch(simulate, "active_set", "simulate.active_set")
    t.patch(simulate, "enabled_point_keys", "simulate.enabled_point_keys")
    t.patch_method(problems.ProblemSpec, "evaluate", "problems.evaluate",
                   _add("problems.evaluate.rows", lambda a, r: len(np.atleast_2d(a[1]))))
    t.patch_method(problems.ProblemSpec, "sample_true_pf", "problems.sample_true_pf")
    t.patch_method(reference.ReferenceArchive, "initialize", "reference.initialize")
    t.patch_method(reference.ReferenceArchive, "new_layer", "reference.new_layer",
                   _add("reference.new_layer.vectors", lambda a, r: len(r)))


def per_layer_metrics(tracer: Tracer, rounds: int, setup: dict[str, float],
                      cost: float) -> dict[str, tuple]:
    """Per-round layer metrics as {name: (value, unit)}.

    Times and counts are totals over the traced rounds divided by the
    number of rounds. p50/p95 cover every call of the traced rounds and
    read 0 when there were fewer than PERCENTILE_MIN_SAMPLES calls.
    ``cost`` is the time one span adds (see ``span_cost``); times its
    span count it estimates the tracing overhead of a round.
    """
    spans = tracer.spans
    child = np.zeros(len(spans))
    for name, parent, start, end in spans:
        if parent >= 0:
            child[parent] += end - start
    total: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    durations: dict[str, list[float]] = defaultdict(list)
    for i, (name, parent, start, end) in enumerate(spans):
        total[name] += end - start
        own[name] += end - start - child[i]
        durations[name].append(end - start)

    def ms_percentile(name, q):
        d = durations[name]
        return float(np.percentile(d, q)) * 1e3 if len(d) >= PERCENTILE_MIN_SAMPLES else 0.0

    out: dict[str, tuple] = {
        "setup.import_s": (setup["import"], "s"),
        "problems.sample_true_pf.s": (setup["sample_true_pf"], "s"),
        "reference.initialize.s": (setup["initialize"], "s"),
    }

    def timed(name, *, self_s=False, percentiles=False):
        out[f"{name}.s"] = (total[name] / rounds, "s")
        if self_s:
            out[f"{name}.self_s"] = (own[name] / rounds, "s")
        out[f"{name}.calls"] = (len(durations[name]) / rounds, "count")
        if percentiles:
            out[f"{name}.p50_ms"] = (ms_percentile(name, 50), "ms")
            out[f"{name}.p95_ms"] = (ms_percentile(name, 95), "ms")

    def counted(key, unit="count"):
        out[key] = (tracer.counts[key] / rounds, unit)

    def seconds(name, key=None):
        out[key or f"{name}.s"] = (total[name] / rounds, "s")

    timed("variation.make_offspring", percentiles=True)
    counted("variation.make_offspring.rows")
    seconds("problems.evaluate")
    counted("problems.evaluate.rows")
    timed("core.nondominated_split", percentiles=True)
    counted("core.nondominated_split.pairs")
    timed("core.associate")
    counted("core.associate.pairs")
    out["core.associate.max_matrix_mb"] = (tracer.peaks["core.associate.max_matrix_mb"], "MiB")
    timed("selection.cascade_cluster", self_s=True, percentiles=True)
    counted("selection.cascade_cluster.pool_rows")
    seconds("archive.maintain")
    timed("adaptation.adapt")
    for kind in ("shrink", "expand", "none"):
        counted(f"adaptation.events.{kind}")
    timed("reference.new_layer")
    counted("reference.new_layer.vectors")
    timed("metrics.igd")
    counted("metrics.igd.pairs")
    seconds("metrics.confidence_trajectory")
    timed("simulate.run_scenario")
    counted("simulate.run_scenario.iterations")
    seconds("simulate.active_set")
    seconds("simulate.enabled_point_keys")
    timed("runner.run")
    counted("runner.generations")
    seconds("runner.write", "runner.write_s")
    counted("runner.output_bytes", "bytes")

    module_self = defaultdict(float)
    for name, value in own.items():
        module_self[name.split(".")[0]] += value
    for module in MODULES:
        out[f"{module}.self_s"] = (module_self[module] / rounds, "s")
    out["trace.harness_s"] = (own[ROOT] / rounds, "s")
    out["trace.wall_s"] = (total[ROOT] / rounds, "s")
    out["trace.rounds"] = (rounds, "count")
    out["trace.spans"] = (len(spans) / rounds, "count")
    out["trace.overhead_s"] = (len(spans) / rounds * cost, "s")
    return out
