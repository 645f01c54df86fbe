"""The benchmark's three workloads: seeded inputs, one operation, output checks.

Each workload is a closed loop with one client.  ``op`` is the timed
operation; ``check`` runs outside the timed region and returns the list of
problems it found (empty when the output is correct).  Inputs come only
from the generators here and the seed; nothing under ``tests/`` is used.
"""

import itertools
import json
import os
import resource
import subprocess
import sys
import threading
from dataclasses import dataclass
from datetime import date, timedelta
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
GOLDEN_DIR = BENCH_DIR / "goldens"
OUT_DIR = Path(".bench_out")

CHILD_TIMEOUT_S = 60.0

# (name, argv after "hydrospline"): the seven command lines of the README,
# with --out pointing into the benchmark's output directory
CLI_COMMANDS = (
    ("interp", ["interp", "--fixture", "gropeni", "--param", "OD", "--resolution", "1000",
                "--out", "{out}/interp.csv"]),
    ("interp_smooth", ["interp", "--fixture", "gropeni", "--param", "OD", "--method", "smooth",
                       "--lambda", "50", "--out", "{out}/interp_smooth.csv"]),
    ("extrema", ["extrema", "--fixture", "gropeni", "--param", "OD"]),
    ("trend", ["trend", "--fixture", "gropeni", "--param", "OD"]),
    ("correlate", ["correlate", "--fixture", "gropeni", "--param-a", "temp", "--param-b", "OD"]),
    ("harmonic", ["harmonic", "--fixture", "gropeni", "--param", "OD"]),
    ("plot", ["plot", "--fixture", "gropeni", "--param", "OD", "--harmonic",
              "--out", "{out}/plot.svg"]),
)

STATION_ROWS = 2000
STATION_PARAMETERS = ("temp", "pH", "OD", "CBO5", "CCO-Mn", "CCO-Cr")
# (mean, seasonal amplitude, noise sd), near the ranges of the bundled fixture
STATION_PROFILES = ((13.0, 10.0, 2.0), (7.5, 0.3, 0.2), (8.3, 1.0, 0.5),
                    (6.5, 1.5, 1.5), (11.0, 4.0, 3.0), (25.0, 8.0, 5.0))
MISSING_SHARE = 0.1
SMOOTH_PARAMETER = "OD"
LAMBDA = 50.0

DENSE_KNOTS = 1000
DENSE_GRID = 10_000


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    return env


def spawn(argv: list[str], env: dict, cwd: Path) -> tuple[int, bytes, int]:
    """Run a child to completion; return exit code, stdout+stderr and its ru_maxrss (KiB)."""
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                            env=env, cwd=cwd)
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        output = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
        proc.stdout.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, output, usage.ru_maxrss


# ---------------------------------------------------------------- generators

def station_table(rng: np.random.Generator, rows: int = STATION_ROWS):
    """A daily monitoring table with ``MISSING_SHARE`` of cells "*" or "-".

    Returns the CSV text and the parsed-value matrix (NaN where missing),
    both built from the same cell strings.
    """
    start = date(1990, 1, 1) + timedelta(days=int(rng.integers(0, 3650)))
    day = np.arange(rows)
    cells = []
    for mean, amplitude, noise in STATION_PROFILES:
        phase = rng.uniform(0.0, 365.25)
        column = mean + amplitude * np.sin(2 * np.pi * (day + phase) / 365.25)
        column = np.maximum(column + rng.normal(0.0, noise, rows), 0.01)
        cells.append([f"{v:.2f}" for v in column])
    n_params = len(STATION_PROFILES)
    missing = rng.choice(rows * n_params, size=round(MISSING_SHARE * rows * n_params),
                         replace=False)
    markers = rng.choice(["*", "-"], size=missing.size)
    for flat, marker in zip(missing, markers):
        cells[flat % n_params][flat // n_params] = str(marker)
    lines = ["Data," + ",".join(STATION_PARAMETERS)]
    for i in range(rows):
        d = start + timedelta(days=i)
        lines.append(f"{d.month}/{d.day}/{d.year}," + ",".join(col[i] for col in cells))
    values = np.array([[np.nan if c in ("*", "-") else float(c) for c in col] for col in cells])
    return "\n".join(lines) + "\n", values.T


def random_knots(rng: np.random.Generator, n: int, t_span: float, y_span=(0.0, 12.0),
                 min_gap: float = 0.5):
    """Strictly increasing times with a minimum gap, bounded values."""
    gaps = rng.uniform(min_gap, t_span / n, n - 1)
    t = np.concatenate([[0.0], np.cumsum(gaps)])
    return t, rng.uniform(y_span[0], y_span[1], n)


# ---------------------------------------------------------------- numpy references

def _coefficients(model) -> np.ndarray:
    return np.array(model.coefficients, dtype=float)


def _piecewise(t: np.ndarray, coeffs: np.ndarray, at: np.ndarray, order: int = 0) -> np.ndarray:
    i = np.clip(np.searchsorted(t, at, side="right") - 1, 0, t.size - 2)
    s = at - t[i]
    a, b, c, d = coeffs[i].T
    if order == 1:
        return (3.0 * d * s + 2.0 * c) * s + b
    return ((d * s + c) * s + b) * s + a


def spline_problems(label: str, model, t: np.ndarray, y: np.ndarray) -> list[str]:
    """An interpolating spline must hit every knot from both sides."""
    coeffs = _coefficients(model)
    h = np.diff(t)
    a, b, c, d = coeffs.T
    scale = 1.0 + float(np.max(np.abs(y)))
    problems = []
    if not (np.allclose(a, y[:-1], rtol=0, atol=1e-12 * scale)
            and np.allclose(((d * h + c) * h + b) * h + a, y[1:], rtol=0, atol=1e-9 * scale)):
        problems.append(f"{label}: spline misses its knots")
    return problems


def smoothing_problems(label: str, model, t: np.ndarray, y: np.ndarray) -> list[str]:
    """A smoothing spline must be continuous at its knots with a natural left end."""
    a, b, c, d = _coefficients(model).T
    h = np.diff(t)
    ends = ((d * h + c) * h + b) * h + a
    if np.allclose(ends[:-1], a[1:], rtol=0, atol=1e-9 * (1.0 + float(np.max(np.abs(y))))) \
            and c[0] == 0.0:
        return []
    return [f"{label}: smoothing spline is not a continuous natural spline"]


def extrema_problems(label: str, extrema, model, t: np.ndarray) -> list[str]:
    """Reported extrema must be stationary points, sorted, inside the span."""
    if not extrema:
        return []
    at = np.array([e.t for e in extrema])
    slope = _piecewise(t, _coefficients(model), at, order=1)
    tol = 1e-9 * (1.0 + float(np.max(np.abs(_coefficients(model)[:, 1]))))
    problems = []
    if np.any(np.abs(slope) > tol):
        problems.append(f"{label}: |f'| = {float(np.max(np.abs(slope))):.3g} at an extremum")
    if np.any(np.diff(at) <= 0) or at[0] <= t[0] or at[-1] >= t[-1]:
        problems.append(f"{label}: extrema not sorted inside the span")
    return problems


def harmonic_base(spec, index_map, t: np.ndarray) -> np.ndarray:
    k = index_map.scale * t + index_map.offset
    u = np.sin(spec.angular_coeff * k) + np.cos(spec.angular_coeff * k)
    return np.sign(u) * np.abs(u) ** spec.exponent


def _close(x: float, ref: float, rtol: float, atol: float) -> bool:
    return abs(x - ref) <= atol + rtol * abs(ref)


# ---------------------------------------------------------------- workloads

@dataclass
class CliOutput:
    name: str
    code: int
    stdout: bytes
    file: Path | None


class CliFixture:
    """One fresh ``python -m hydrospline.cli`` process per operation.

    The seven README commands run in turn on ``--fixture gropeni``; the seed
    picks the command the rotation starts with.  Exit code, output stream
    and written file are compared byte for byte with the goldens.
    """

    name = "cli_fixture"
    in_process = False
    work_per_op = 1  # commands

    def __init__(self, seed: int, root: Path) -> None:
        self.root = root
        self.env = child_env(root)
        self.out_dir = OUT_DIR / "cli"
        self.out_dir.mkdir(parents=True, exist_ok=True)
        manifest = json.loads((GOLDEN_DIR / "exit_codes.json").read_text())
        self.goldens = {}
        for name, _ in CLI_COMMANDS:
            written = GOLDEN_DIR / f"{name}.file"
            self.goldens[name] = (
                manifest[name],
                (GOLDEN_DIR / f"{name}.stdout").read_bytes(),
                written.read_bytes() if written.exists() else None,
            )
        self.next = seed % len(CLI_COMMANDS)
        self.max_rss_kb = 0

    def op(self, tracer=None) -> CliOutput:
        name, args = CLI_COMMANDS[self.next]
        self.next = (self.next + 1) % len(CLI_COMMANDS)
        argv = [a.replace("{out}", str(self.out_dir)) for a in args]
        out = next((Path(a) for a, raw in zip(argv, args) if "{out}" in raw), None)
        if tracer is None:
            prefix = [sys.executable, "-m", "hydrospline.cli"]
        else:
            spans_path = OUT_DIR / "child_spans.json"
            spans_path.unlink(missing_ok=True)
            prefix = [sys.executable, str(BENCH_DIR / "cli_child.py"), str(spans_path)]
        code, stdout, rss_kb = spawn(prefix + argv, self.env, self.root)
        self.max_rss_kb = max(self.max_rss_kb, rss_kb)
        if tracer is not None:
            tracer.adopt(json.loads(spans_path.read_text()), parent=tracer.current)
        return CliOutput(name, code, stdout, out)

    def check(self, output: CliOutput) -> list[str]:
        code, stdout, content = self.goldens[output.name]
        problems = []
        if output.code != code:
            problems.append(f"{output.name}: exit {output.code}, golden {code}")
        if output.stdout != stdout:
            problems.append(f"{output.name}: output differs from golden")
        if output.file is not None:
            written = output.file.read_bytes() if output.file.exists() else None
            if written != content:
                problems.append(f"{output.name}: {output.file.name} differs from golden")
            output.file.unlink(missing_ok=True)
        return problems

    def peak_rss_mb(self) -> float:
        return self.max_rss_kb / 1024.0


@dataclass
class StationOutput:
    dataset: object
    series: dict
    trends: dict
    correlations: dict
    models: dict
    extrema: dict
    smooth: object
    roundtrip: object


class StationTable:
    """Whole-station analysis of a generated daily table, in one process."""

    name = "station_table"
    in_process = True

    def __init__(self, seed: int, root: Path) -> None:
        import hydrospline

        self.hs = hydrospline
        self.text, values = station_table(np.random.default_rng(seed))
        self.refs = {}
        for j, p in enumerate(STATION_PARAMETERS):
            present = np.flatnonzero(~np.isnan(values[:, j]))
            t = (present - present[0]).astype(float)
            y = values[present, j]
            self.refs[p] = (t, y, np.polyfit(t, y, 1)[0])
        self.corr_refs = {}
        for (i, a), (j, b) in itertools.combinations(enumerate(STATION_PARAMETERS), 2):
            both = ~np.isnan(values[:, i]) & ~np.isnan(values[:, j])
            self.corr_refs[a, b] = np.corrcoef(values[both, i], values[both, j])[0, 1]
        # knots fitted per operation: one natural fit per parameter plus the smoothing fit
        self.work_per_op = sum(t.size for t, _, _ in self.refs.values()) + \
            self.refs[SMOOTH_PARAMETER][0].size

    def op(self, tracer=None) -> StationOutput:
        hs = self.hs
        dataset = hs.parse_csv(self.text, station="bench-station")
        series = {p: hs.dataset_series(dataset, p) for p in STATION_PARAMETERS}
        trends = {p: hs.trend_report(s) for p, s in series.items()}
        correlations = {(a, b): hs.pearson(series[a], series[b])
                        for a, b in itertools.combinations(STATION_PARAMETERS, 2)}
        models = {p: hs.fit_natural_spline(s) for p, s in series.items()}
        extrema = {p: hs.spline_extrema(m) for p, m in models.items()}
        smooth = hs.fit_smoothing_spline(series[SMOOTH_PARAMETER], LAMBDA)
        roundtrip = hs.parse_csv(hs.serialize_csv(dataset), station="bench-station")
        return StationOutput(dataset, series, trends, correlations, models, extrema, smooth,
                             roundtrip)

    def check(self, out: StationOutput) -> list[str]:
        problems = []
        if out.roundtrip != out.dataset:
            problems.append("serialize_csv -> parse_csv does not reproduce the table")
        for p, (t, y, slope) in self.refs.items():
            knots = np.array(out.series[p].knots, dtype=float)
            if knots.shape != (t.size, 2) or not (np.array_equal(knots[:, 0], t)
                                                  and np.array_equal(knots[:, 1], y)):
                problems.append(f"{p}: series knots differ from the generated table")
                continue
            scale = float(np.ptp(y)) / max(float(t[-1]), 1.0)
            if not _close(out.trends[p].slope, slope, 1e-7, 1e-12 * scale):
                problems.append(f"{p}: trend slope {out.trends[p].slope!r} vs polyfit {slope!r}")
            problems += spline_problems(p, out.models[p], t, y)
            problems += extrema_problems(p, out.extrema[p], out.models[p], t)
        for pair, ref in self.corr_refs.items():
            if not _close(out.correlations[pair], ref, 1e-9, 1e-12):
                problems.append(f"{pair}: pearson {out.correlations[pair]!r} vs corrcoef {ref!r}")
        t, y, _ = self.refs[SMOOTH_PARAMETER]
        return problems + smoothing_problems(SMOOTH_PARAMETER, out.smooth, t, y)

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class CurveOutput:
    model: object
    smooth: object
    curve: object
    poly: object
    fitted: object
    residuals: object
    reference: object
    svg: str


class DenseCurve:
    """Dense evaluation of the fixture OD series and a seeded 1,000-knot series."""

    name = "dense_curve"
    in_process = True
    work_per_op = 2 * 3 * DENSE_GRID  # grid points of dense_grid, poly_curve, sample_harmonic

    def __init__(self, seed: int, root: Path) -> None:
        import hydrospline

        self.hs = hydrospline
        fixture = hydrospline.dataset_series(hydrospline.gropeni_dataset(), "OD")
        t, y = random_knots(np.random.default_rng(seed), DENSE_KNOTS, t_span=2.0 * DENSE_KNOTS)
        seeded = hydrospline.TimeSeries(
            station="bench", parameter="y",
            knots=tuple(zip(t.tolist(), y.tolist())), epoch=date(2000, 1, 1))
        self.series = (fixture, seeded)

    def _one(self, series) -> CurveOutput:
        hs = self.hs
        model = hs.fit_natural_spline(series)
        smooth = hs.fit_smoothing_spline(series, LAMBDA)
        curve = hs.dense_grid(model, DENSE_GRID)
        poly = hs.poly_curve(hs.fit_polynomial(series, 3), curve.t[0], curve.t[-1], DENSE_GRID)
        index_map = hs.IndexMap.spanning(series.t[0], series.t[-1])
        fitted = hs.fit_amplitude_offset(curve, hs.HarmonicSpec(), index_map)
        residuals = hs.compare_to_harmonic(curve, fitted, index_map)
        reference = hs.sample_harmonic(fitted, index_map, curve.t)
        svg = hs.render_svg(hs.PlotSpec(
            width=800, height=500,
            layers=(hs.curve_layer(curve, "blue", "spline"),
                    hs.curve_layer(reference, "red", "harmonic"),
                    hs.marker_layer(series.knots, "black", "samples")),
            title=f"{series.station} {series.parameter}"))
        return CurveOutput(model, smooth, curve, poly, fitted, residuals, reference, svg)

    def op(self, tracer=None) -> list[CurveOutput]:
        return [self._one(series) for series in self.series]

    def check(self, outs: list[CurveOutput]) -> list[str]:
        problems = []
        for series, out in zip(self.series, outs):
            label = f"{series.station}/{series.parameter}"
            t = np.array(series.t)
            y = np.array(series.y)
            problems += spline_problems(label, out.model, t, y)
            problems += smoothing_problems(label, out.smooth, t, y)
            grid = np.linspace(t[0], t[-1], DENSE_GRID)
            curve_y = np.array(out.curve.y)
            scale = 1.0 + float(np.max(np.abs(y)))
            if not np.array_equal(np.array(out.curve.t), grid) or not np.allclose(
                    curve_y, _piecewise(t, _coefficients(out.model), grid),
                    rtol=0, atol=1e-9 * scale):
                problems.append(f"{label}: dense_grid differs from the piecewise cubic")
            poly_ref = np.polynomial.Polynomial.fit(t, y, 3)(grid)
            if not np.allclose(np.array(out.poly.y), poly_ref, rtol=0, atol=1e-8 * scale):
                problems.append(f"{label}: poly_curve differs from numpy's degree-3 fit")
            index_map = self.hs.IndexMap.spanning(t[0], t[-1])
            base = harmonic_base(out.fitted, index_map, grid)
            amplitude, offset = np.linalg.lstsq(
                np.column_stack([base, np.ones(grid.size)]), curve_y, rcond=None)[0]
            if not (_close(out.fitted.amplitude, amplitude, 1e-8, 1e-10 * scale)
                    and _close(out.fitted.offset, offset, 1e-8, 1e-10 * scale)):
                problems.append(f"{label}: harmonic amplitude/offset differ from numpy lstsq")
            reference = out.fitted.offset + out.fitted.amplitude * base
            rmse = float(np.sqrt(np.mean((curve_y - reference) ** 2)))
            if not _close(out.residuals.rmse, rmse, 1e-9, 1e-12 * scale):
                problems.append(f"{label}: harmonic rmse {out.residuals.rmse!r} vs {rmse!r}")
            if not np.allclose(np.array(out.reference.y), reference, rtol=0, atol=1e-9 * scale):
                problems.append(f"{label}: sample_harmonic differs from the numpy formula")
            if out.svg.count("<polyline") != 2 or out.svg.count("<circle") != t.size:
                problems.append(f"{label}: svg has wrong polyline or circle count")
        return problems

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


WORKLOADS = {w.name: w for w in (CliFixture, StationTable, DenseCurve)}


def prepare(name: str, seed: int, root: Path):
    """Build a workload's inputs and run one untimed warm-up operation."""
    workload = WORKLOADS[name](seed, root)
    workload.check(workload.op())
    return workload
