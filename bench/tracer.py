"""In-memory span tracer for the benchmark's traced runs.

A span records its name, start and end (``time.perf_counter_ns``, which is
CLOCK_MONOTONIC on Linux and therefore comparable across processes), the
index of the span that caused it, the operation id, work counts taken at
the boundary and whether the call raised.  Spans stay in memory until the
run writes them out at the end.

Wrappers are installed wherever callers look a function up: every loaded
``hydrospline`` module whose globals hold the original function gets the
wrapper, so ``hydrospline.splines.solve_tridiagonal`` and
``hydrospline.harmonic.solve_least_squares`` open spans nested inside the
fit that called them.
"""

import functools
import sys
import time
from dataclasses import asdict, dataclass, field

ROOT = -1


@dataclass
class Span:
    name: str
    start: int
    end: int
    parent: int
    op: int
    counts: dict = field(default_factory=dict)
    error: bool = False

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


# (defining module, function, span name, counter(args, result) -> counts).
# Every counter is O(1) in the size of the work, so it does not distort spans.
TARGETS = (
    ("dataio", "parse_csv", "dataio.parse_csv",
     lambda a, r: {"cells": len(r.rows) * (len(r.parameters) + 1)}),
    ("dataio", "serialize_csv", "dataio.serialize_csv", lambda a, r: {"bytes": len(r)}),
    ("dataio", "dataset_series", "series.dataset_series", lambda a, r: {"knots": len(r.knots)}),
    ("linalg", "solve_tridiagonal", "linalg.solve_tridiagonal", lambda a, r: {"rows": a[0].n}),
    ("linalg", "solve_banded_spd", "linalg.solve_banded_spd", lambda a, r: {"rows": len(r)}),
    ("linalg", "solve_least_squares", "linalg.solve_least_squares",
     lambda a, r: {"rows": a[0].design.shape[0]}),
    ("splines", "fit_natural_spline", "splines.fit_natural_spline",
     lambda a, r: {"knots": len(r.knots)}),
    ("splines", "fit_smoothing_spline", "splines.fit_smoothing_spline",
     lambda a, r: {"knots": len(r.knots)}),
    ("splines", "spline_extrema", "splines.spline_extrema", lambda a, r: {"extrema": len(r)}),
    ("splines", "dense_grid", "splines.dense_grid", lambda a, r: {"points": len(r.t)}),
    ("regression", "trend_report", "regression.trend_report", None),
    ("regression", "fit_polynomial", "regression.fit_polynomial", None),
    ("regression", "matched_pairs", "regression.matched_pairs", lambda a, r: {"pairs": len(r)}),
    ("regression", "pearson", "regression.pearson", None),
    ("regression", "poly_curve", "regression.poly_curve", lambda a, r: {"points": len(r.t)}),
    ("harmonic", "fit_amplitude_offset", "harmonic.fit_amplitude_offset",
     lambda a, r: {"points": len(a[0].t)}),
    ("harmonic", "compare_to_harmonic", "harmonic.compare_to_harmonic",
     lambda a, r: {"points": len(a[0].t)}),
    ("harmonic", "sample_harmonic", "harmonic.sample_harmonic",
     lambda a, r: {"points": len(r.t)}),
    ("svgplot", "render_svg", "svgplot.render_svg",
     lambda a, r: {"points": sum(len(layer.points) for layer in a[0].layers), "bytes": len(r)}),
)


class Tracer:
    """Collects spans; ``install`` swaps traced wrappers into hydrospline."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op = -1
        self._open: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else ROOT
        self.spans.append(Span(name, time.perf_counter_ns(), 0, parent, self.op))
        self._open.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def end(self, index: int, counts: dict | None = None, error: bool = False) -> None:
        span = self.spans[index]
        span.end = time.perf_counter_ns()
        if counts:
            span.counts = counts
        span.error = error
        if self._open.pop() != index:
            raise RuntimeError(f"span {span.name} closed out of order")

    @property
    def current(self) -> int:
        """Index of the innermost open span."""
        return self._open[-1]

    def wrap(self, func, name, counter=None):
        @functools.wraps(func)
        def traced(*args, **kwargs):
            index = self.begin(name)
            try:
                result = func(*args, **kwargs)
            except BaseException:
                self.end(index, error=True)
                raise
            self.end(index, counter(args, result) if counter else None)
            return result

        return traced

    def install(self) -> None:
        """Wrap every TARGETS function in each hydrospline module that holds it."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [
            module for key, module in list(sys.modules.items())
            if module is not None and (key == "hydrospline" or key.startswith("hydrospline."))
        ]
        for module_name, attr, name, counter in TARGETS:
            original = getattr(sys.modules[f"hydrospline.{module_name}"], attr)
            wrapper = self.wrap(original, name, counter)
            for module in modules:
                if vars(module).get(attr) is original:
                    self._patched.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def adopt(self, spans: list[dict], parent: int) -> None:
        """Append spans recorded by another process beneath ``parent``."""
        base = len(self.spans)
        for raw in spans:
            span = Span(**raw)
            span.parent = parent if span.parent == ROOT else span.parent + base
            span.op = self.op
            self.spans.append(span)

    def dump(self) -> list[dict]:
        return [asdict(span) for span in self.spans]


def self_times(spans: list[Span]) -> list[int]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[int]] = {}
    for i, span in enumerate(spans):
        children.setdefault(span.parent, []).append(i)
    result = []
    for i, span in enumerate(spans):
        covered = 0
        reach = span.start
        intervals = sorted(
            (max(spans[c].start, span.start), min(spans[c].end, span.end))
            for c in children.get(i, ())
        )
        for lo, hi in intervals:
            lo = max(lo, reach)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result.append(span.end - span.start - covered)
    return result
