"""Closed-loop timing, failure counting and per-layer metrics from spans."""

import time
from dataclasses import dataclass, field

from tracer import ROOT, Span, Tracer, self_times


def percentile(values, q: float) -> float:
    """q-th percentile (0..100), linear between the closest ranks."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values) -> float:
    return percentile(values, 50.0)


@dataclass
class LoopResult:
    """What a closed loop saw; traced ops keep their latencies apart."""

    latencies_ns: list[int] = field(default_factory=list)
    traced_ns: list[int] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    work: int = 0
    problems: list[str] = field(default_factory=list)

    def record(self, latency_ns: int, problems: list[str], work: int, traced: bool) -> None:
        self.attempted += 1
        (self.traced_ns if traced else self.latencies_ns).append(latency_ns)
        if problems:
            self.failed += 1
            if len(self.problems) < 5:
                self.problems.append(f"op {self.attempted - 1}: {'; '.join(problems)}")
        else:
            self.work += work


def run_once(workload, tracer: Tracer | None = None) -> tuple[int, list[str]]:
    """One operation: time it, then check its output outside the timed region.

    A raised exception and every failed output check count as a failure.
    With a tracer the operation is wrapped in a root "op" span.
    """
    if tracer is not None and workload.in_process:
        tracer.install()
    start = time.perf_counter_ns()
    root = tracer.begin("op") if tracer is not None else None
    error = None
    try:
        output = workload.op(tracer)
    except Exception as exc:  # the benchmark must keep running to count it
        error = f"{type(exc).__name__}: {exc}"
    finally:
        if tracer is not None:
            tracer.end(root, error=error is not None)
    latency = time.perf_counter_ns() - start
    if tracer is not None and workload.in_process:
        tracer.uninstall()
    if error is not None:
        return latency, [error]
    try:
        return latency, workload.check(output)
    except Exception as exc:
        return latency, [f"check raised {type(exc).__name__}: {exc}"]


def run_loop(workload, seconds: float, tracer: Tracer | None = None,
             result: LoopResult | None = None) -> LoopResult:
    """Closed loop with one client for ``seconds``, added to ``result``.

    With a tracer, operations alternate untraced and traced, so one run
    gives both the per-layer spans and the tracing overhead; at least one
    operation of each kind runs however short ``seconds`` is.
    """
    result = LoopResult() if result is None else result
    minimum = result.attempted + (1 if tracer is None else 2)
    deadline = time.perf_counter_ns() + int(seconds * 1e9)
    while result.attempted < minimum or time.perf_counter_ns() < deadline:
        traced = tracer is not None and result.attempted % 2 == 1
        if traced:
            tracer.op = result.attempted
        latency, problems = run_once(workload, tracer if traced else None)
        result.record(latency, problems, workload.work_per_op, traced)
    return result


# per-operation span time in ms: "total" sums the top-most spans of the names,
# "self" sums their own layer's self time (children in other layers excluded)
TIME_METRICS = {
    "cli.main_ms": ("total", ("cli.main",)),
    "dataio.parse_ms": ("total", ("dataio.parse_csv",)),
    "dataio.serialize_ms": ("total", ("dataio.serialize_csv",)),
    "series.build_ms": ("total", ("series.dataset_series",)),
    "linalg.tridiagonal_ms": ("total", ("linalg.solve_tridiagonal",)),
    "linalg.banded_ms": ("total", ("linalg.solve_banded_spd",)),
    "linalg.lstsq_ms": ("total", ("linalg.solve_least_squares",)),
    "splines.fit_self_ms": ("self", ("splines.fit_natural_spline", "splines.fit_smoothing_spline")),
    "splines.extrema_ms": ("total", ("splines.spline_extrema",)),
    "splines.eval_ms": ("total", ("splines.dense_grid",)),
    "regression.trend_self_ms": ("self", ("regression.trend_report",)),
    "regression.pearson_ms": ("total", ("regression.pearson",)),
    "regression.poly_curve_ms": ("total", ("regression.poly_curve",)),
    "harmonic.fit_self_ms": ("self", ("harmonic.fit_amplitude_offset",)),
    "harmonic.compare_ms": ("total", ("harmonic.compare_to_harmonic",)),
    "harmonic.sample_ms": ("total", ("harmonic.sample_harmonic",)),
    "svgplot.render_ms": ("total", ("svgplot.render_svg",)),
}

# per-operation sums of a count recorded at the span boundary
COUNT_METRICS = {
    "dataio.cells": (("dataio.parse_csv",), "cells"),
    "series.knots": (("series.dataset_series",), "knots"),
    "linalg.rows": (
        ("linalg.solve_tridiagonal", "linalg.solve_banded_spd", "linalg.solve_least_squares"),
        "rows",
    ),
    "splines.extrema": (("splines.spline_extrema",), "extrema"),
    "splines.points": (("splines.dense_grid",), "points"),
    "regression.pairs": (("regression.matched_pairs",), "pairs"),
    "harmonic.points": (
        ("harmonic.fit_amplitude_offset", "harmonic.compare_to_harmonic",
         "harmonic.sample_harmonic"),
        "points",
    ),
    "svgplot.points": (("svgplot.render_svg",), "points"),
    "svgplot.bytes": (("svgplot.render_svg",), "bytes"),
}

# nanoseconds per counted unit: (time metrics summed, count metric)
RATE_METRICS = {
    "dataio.ns_per_cell": (("dataio.parse_ms",), "dataio.cells"),
    "series.ns_per_knot": (("series.build_ms",), "series.knots"),
    "linalg.ns_per_row": (
        ("linalg.tridiagonal_ms", "linalg.banded_ms", "linalg.lstsq_ms"), "linalg.rows"),
    "splines.ns_per_point": (("splines.eval_ms",), "splines.points"),
    "harmonic.ns_per_point": (
        ("harmonic.fit_self_ms", "harmonic.compare_ms", "harmonic.sample_ms"), "harmonic.points"),
    "svgplot.ns_per_point": (("svgplot.render_ms",), "svgplot.points"),
}


class OpTree:
    """The spans of one traced operation, with self and layer-self times."""

    def __init__(self, spans: list[Span], root: int, children: dict[int, list[int]],
                 own_self: list[int]) -> None:
        self.spans = spans
        self.root = root
        self.children = children
        self.own_self = own_self
        self.members = [root]
        for index in self.members:  # breadth-first walk of the root's subtree
            self.members.extend(children.get(index, ()))

    @property
    def duration_ns(self) -> int:
        span = self.spans[self.root]
        return span.end - span.start

    def self_sum_ns(self) -> int:
        return sum(self.own_self[i] for i in self.members)

    def _topmost(self, names) -> list[int]:
        found = []
        stack = [self.root]
        while stack:
            index = stack.pop()
            if self.spans[index].name in names:
                found.append(index)
            else:
                stack.extend(self.children.get(index, ()))
        return found

    def _layer_self(self, index: int) -> int:
        layer = self.spans[index].layer
        return self.own_self[index] + sum(
            self._layer_self(c) for c in self.children.get(index, ()) if self.spans[c].layer == layer
        )

    def time_ms(self, kind: str, names) -> float:
        top = self._topmost(names)
        if kind == "self":
            total = sum(self._layer_self(i) for i in top)
        else:
            total = sum(self.spans[i].end - self.spans[i].start for i in top)
        return total / 1e6

    def count(self, names, key: str) -> int:
        return sum(self.spans[i].counts.get(key, 0) for i in self.members
                   if self.spans[i].name in names)

    def failures(self, layer: str) -> int:
        return sum(1 for i in self.members
                   if self.spans[i].layer == layer and self.spans[i].error)


def op_trees(spans: list[Span]) -> list[OpTree]:
    children: dict[int, list[int]] = {}
    for i, span in enumerate(spans):
        children.setdefault(span.parent, []).append(i)
    own_self = self_times(spans)
    return [OpTree(spans, i, children, own_self) for i in children.get(ROOT, ())
            if spans[i].name == "op"]


def layer_metrics(trees: list[OpTree]) -> dict[str, float]:
    """Median of every per-layer time, count and rate over the traced
    operations that ran the layer (0 when none did), and the number of
    linalg calls that raised across all of them."""
    per_op = []
    for tree in trees:
        values = {name: tree.time_ms(kind, names) for name, (kind, names) in TIME_METRICS.items()}
        values.update(
            {name: tree.count(names, key) for name, (names, key) in COUNT_METRICS.items()})
        for name, (times, count) in RATE_METRICS.items():
            units = values[count]
            values[name] = sum(values[t] for t in times) * 1e6 / units if units else 0.0
        per_op.append(values)
    result = {}
    for name in per_op[0]:
        ran = [values[name] for values in per_op if values[name]]
        result[name] = median(ran) if ran else 0
    result["linalg.failures"] = sum(tree.failures("linalg") for tree in trees)
    return result
