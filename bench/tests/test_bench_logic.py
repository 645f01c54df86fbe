"""Tests of the benchmark's own logic: percentiles, span self times, layer
metrics and failure counting."""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import hydrospline  # noqa: E402
from measure import LoopResult, layer_metrics, op_trees, percentile, run_once  # noqa: E402
from tracer import ROOT, Span, Tracer, self_times  # noqa: E402
from workloads import CliFixture, CliOutput, DenseCurve, StationTable  # noqa: E402


def test_percentile_interpolates_between_ranks():
    values = [10, 1, 9, 2, 8, 3, 7, 4, 6, 5]
    assert percentile(values, 0) == 1
    assert percentile(values, 100) == 10
    assert percentile(values, 50) == 5.5
    assert percentile(values, 90) == pytest.approx(9.1)
    assert percentile([4.0], 90) == 4.0
    with pytest.raises(ValueError):
        percentile([], 50)


def test_self_time_subtracts_covered_children():
    spans = [
        Span("op", 0, 100, ROOT, 0),
        Span("a.x", 10, 40, 0, 0),
        Span("b.y", 20, 30, 1, 0),
        Span("a.z", 50, 70, 0, 0),
    ]
    assert self_times(spans) == [50, 20, 10, 20]
    (tree,) = op_trees(spans)
    assert tree.self_sum_ns() == tree.duration_ns == 100


def test_layer_self_time_keeps_same_layer_children():
    spans = [
        Span("op", 0, 1000, ROOT, 0),
        Span("regression.trend_report", 0, 900, 0, 0),
        Span("regression.fit_polynomial", 100, 800, 1, 0),
        Span("linalg.solve_least_squares", 200, 700, 2, 0, {"rows": 7}),
    ]
    (tree,) = op_trees(spans)
    assert tree.time_ms("self", ("regression.trend_report",)) == 400 / 1e6
    assert tree.time_ms("total", ("regression.trend_report",)) == 900 / 1e6
    assert tree.count(("linalg.solve_least_squares",), "rows") == 7


def test_layer_metrics_take_median_over_operations_that_ran_the_layer():
    spans = []
    for op, duration in enumerate((2_000_000, 4_000_000, 9_000_000)):
        base = op * 10**8
        spans.append(Span("op", base, base + 10**7, ROOT, op))
        root = len(spans) - 1
        spans.append(Span("svgplot.render_svg", base, base + duration, root, op,
                          {"points": 1000, "bytes": 5}))
    spans.append(Span("op", 10**9, 10**9 + 10, ROOT, 3))
    metrics = layer_metrics(op_trees(spans))
    assert metrics["svgplot.render_ms"] == 4.0
    assert metrics["svgplot.points"] == 1000
    assert metrics["svgplot.ns_per_point"] == 4000.0
    assert metrics["dataio.parse_ms"] == 0
    assert metrics["linalg.failures"] == 0


def test_installed_tracer_nests_package_internal_calls_and_restores():
    from hydrospline import regression

    original = regression.solve_least_squares
    series = hydrospline.dataset_series(hydrospline.gropeni_dataset(), "OD")
    tracer = Tracer()
    tracer.install()
    try:
        root = tracer.begin("op")
        hydrospline.trend_report(series)
        hydrospline.fit_smoothing_spline(series, 5.0)
        tracer.end(root)
    finally:
        tracer.uninstall()
    assert regression.solve_least_squares is original
    names = [span.name for span in tracer.spans]
    assert names == ["op", "regression.trend_report", "regression.fit_polynomial",
                     "linalg.solve_least_squares", "splines.fit_smoothing_spline",
                     "linalg.solve_banded_spd"]
    parents = [names[span.parent] if span.parent != ROOT else None for span in tracer.spans]
    assert parents[3] == "regression.fit_polynomial"
    assert parents[5] == "splines.fit_smoothing_spline"
    assert tracer.spans[3].counts == {"rows": len(series.knots)}
    (tree,) = op_trees(tracer.spans)
    assert tree.self_sum_ns() == tree.duration_ns


class _Fixed:
    in_process = True
    work_per_op = 3

    def __init__(self, output=None, error=None):
        self.output, self.error = output, error

    def op(self, tracer=None):
        if self.error:
            raise self.error
        return self.output

    def check(self, output):
        return [] if output == 42 else [f"got {output}"]


@pytest.mark.parametrize("workload, failed", [
    (_Fixed(42), 0),
    (_Fixed(41), 1),
    (_Fixed(error=ValueError("boom")), 1),
])
def test_failed_checks_and_exceptions_count_as_failures(workload, failed):
    result = LoopResult()
    latency, problems = run_once(workload)
    result.record(latency, problems, workload.work_per_op, traced=False)
    assert (result.attempted, result.failed, result.work) == (1, failed, 3 * (1 - failed))
    assert len(result.problems) == failed


def test_traced_operation_records_root_span_even_when_it_raises():
    tracer = Tracer()
    latency, problems = run_once(_Fixed(error=ValueError("boom")), tracer)
    assert problems == ["ValueError: boom"]
    assert [(s.name, s.error) for s in tracer.spans] == [("op", True)]
    assert tracer.spans[0].end - tracer.spans[0].start <= latency


def test_cli_output_must_match_goldens_byte_for_byte(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    workload = CliFixture(seed=0, root=tmp_path)
    code, stdout, _ = workload.goldens["trend"]
    assert workload.check(CliOutput("trend", code, stdout, None)) == []
    assert workload.check(CliOutput("trend", code, stdout + b" ", None))
    assert workload.check(CliOutput("trend", 2, stdout, None))
    missing = tmp_path / "plot.svg"
    code, stdout, _ = workload.goldens["plot"]
    assert workload.check(CliOutput("plot", code, stdout, missing))


def test_station_table_check_rejects_a_wrong_correlation(tmp_path):
    workload = StationTable(seed=3, root=tmp_path)
    output = workload.op()
    assert workload.check(output) == []
    pair = next(iter(output.correlations))
    output.correlations[pair] += 1e-6
    assert any("pearson" in p for p in workload.check(output))


def test_dense_curve_check_rejects_a_wrong_svg(tmp_path):
    workload = DenseCurve(seed=3, root=tmp_path)
    outputs = workload.op()
    assert workload.check(outputs) == []
    outputs[1].svg = outputs[1].svg.replace("<circle", "<rect", 1)
    assert any("svg" in p for p in workload.check(outputs))


def test_benchmark_json_declares_exactly_the_reported_metrics():
    import json

    from run import END_TO_END_UNITS, per_layer_units

    declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == per_layer_units()
