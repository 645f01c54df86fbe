"""Acceptance suite.

Each test covers one acceptance criterion and prints a single
"acceptance NN name: PASS|FAIL" line (visible under pytest -s or in the
captured output of a failing run). Tolerances are pinned here, not
imported, so a library change that drifts past them fails loudly.
"""

import math
import time

import numpy as np

from helpers import (
    dense_spline_coefficients,
    gauss_solve,
    harmonic_reference,
    make_series,
    normal_equations_solve,
    random_knots,
    tridiagonal_to_dense,
)
from hydrospline import (
    HarmonicSpec,
    IndexMap,
    dense_grid,
    dataset_series,
    eval_lagrange,
    eval_poly,
    eval_spline,
    eval_spline_derivative,
    fit_lagrange,
    fit_natural_spline,
    fit_polynomial,
    fit_smoothing_spline,
    gropeni_dataset,
    matched_pairs,
    parse_csv,
    pearson,
    poly_curve,
    serialize_csv,
    spline_extrema,
    trend_report,
)
from hydrospline.cli import main
from hydrospline.linalg import (
    LeastSquaresProblem,
    TridiagonalSystem,
    solve_least_squares,
    solve_tridiagonal,
)

GOLDEN_MAX_T = 223.3686773954997
GOLDEN_MAX_Y = 9.973285320441454
GOLDEN_SLOPE = 0.003014566130552139
GOLDEN_PEARSON = 0.1329713235733478


def _check(num, name, fn):
    try:
        fn()
    except BaseException:
        print(f"acceptance {num:02d} {name}: FAIL")
        raise
    print(f"acceptance {num:02d} {name}: PASS")


def test_01_fixture_reproduction_and_speed(od_series):
    def body():
        model = fit_natural_spline(od_series)
        for t, y in od_series.knots:
            assert abs(eval_spline(model, t) - y) <= 1e-9 * (1.0 + abs(y))
        best = math.inf
        for _ in range(20):
            start = time.perf_counter()
            fit_natural_spline(od_series)
            best = min(best, time.perf_counter() - start)
        assert best < 1e-3, f"fit took {best * 1e3:.3f} ms"

    _check(1, "fixture knots reproduced, fit under 1 ms", body)


def test_02_random_series_stay_natural_and_smooth():
    def body():
        rng = np.random.default_rng(90210)
        start = time.perf_counter()
        for _ in range(200):
            n = int(rng.integers(3, 31))
            t, y = random_knots(rng, n)
            model = fit_natural_spline(make_series(t, y))
            assert abs(eval_spline_derivative(model, t[0], 2)) <= 1e-9
            assert abs(eval_spline_derivative(model, t[-1], 2)) <= 1e-9
            ts = t
            for j in range(1, n - 1):
                h = ts[j] - ts[j - 1]
                a, b, c, d = model.coefficients[j - 1]
                a2, b2, c2, _ = model.coefficients[j]
                left = (((d * h + c) * h + b) * h + a, (3 * d * h + 2 * c) * h + b, 6 * d * h + 2 * c)
                right = (a2, b2, 2 * c2)
                for lhs, rhs in zip(left, right):
                    assert abs(lhs - rhs) <= 1e-8 * (1.0 + max(abs(lhs), abs(rhs)))
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"200 fits took {elapsed:.2f} s"

    _check(2, "200 random series C2 with flat ends under 1 s", body)


def test_03_solvers_match_dense_oracles():
    def body():
        rng = np.random.default_rng(31415)
        for _ in range(50):
            n = int(rng.integers(3, 21))
            t, y = random_knots(rng, n)
            model = fit_natural_spline(make_series(t, y))
            oracle = dense_spline_coefficients(t, y)
            assert np.allclose(np.array(model.coefficients), oracle, atol=1e-9, rtol=1e-9)
        rng = np.random.default_rng(20240521)
        for _ in range(100):
            n = int(rng.integers(2, 60))
            diag = rng.uniform(2.0, 4.0, n)
            lower = rng.uniform(-1.0, 1.0, n - 1)
            upper = rng.uniform(-1.0, 1.0, n - 1)
            rhs = rng.uniform(-5.0, 5.0, n)
            system = TridiagonalSystem(lower=lower, diag=diag, upper=upper, rhs=rhs)
            x = solve_tridiagonal(system)
            dense = tridiagonal_to_dense(system)
            assert np.allclose(x, gauss_solve(dense, rhs), atol=1e-10, rtol=1e-10)
        rng = np.random.default_rng(77)
        for _ in range(100):
            m = int(rng.integers(4, 30))
            k = int(rng.integers(1, min(m, 6) + 1))
            design = rng.uniform(-2.0, 2.0, (m, k))
            targets = rng.uniform(-3.0, 3.0, m)
            mine = solve_least_squares(LeastSquaresProblem(design=design, targets=targets))
            oracle = normal_equations_solve(design, targets)
            assert np.allclose(mine, oracle, atol=1e-8, rtol=1e-8)

    _check(3, "tridiagonal, least squares, and spline oracles agree", body)


def test_04_fixture_overshoot_located(od_series):
    def body():
        model = fit_natural_spline(od_series)
        grid = dense_grid(model, 1000)
        peak = max(grid.y)
        assert peak > 9.8
        maxima = [e for e in spline_extrema(model) if e.kind == "max"]
        best = max(maxima, key=lambda e: e.y)
        assert 196.0 < best.t < 263.0
        cell = grid.t[1] - grid.t[0]
        grid_argmax = grid.t[grid.y.index(peak)]
        assert abs(best.t - grid_argmax) <= cell
        assert abs(best.t - GOLDEN_MAX_T) <= 1e-9
        assert abs(best.y - GOLDEN_MAX_Y) <= 1e-9

    _check(4, "oxygen peak above 9.8 located between spring knots", body)


def test_05_smoothing_limits(od_series):
    def body():
        natural = dense_grid(fit_natural_spline(od_series), 1000)
        zero = dense_grid(fit_smoothing_spline(od_series, 0.0), 1000)
        assert max(abs(a - b) for a, b in zip(natural.y, zero.y)) <= 1e-6
        stiff = dense_grid(fit_smoothing_spline(od_series, 1e12), 1000)
        line = fit_polynomial(od_series, 1)
        reference = poly_curve(line, od_series.t[0], od_series.t[-1], 1000)
        assert max(abs(a - b) for a, b in zip(stiff.y, reference.y)) <= 1e-3

    _check(5, "smoothing matches interpolant at 0 and the line at infinity", body)


def test_06_lagrange_exactness_and_runge():
    def body():
        rng = np.random.default_rng(404)
        t, y = random_knots(rng, 6)
        model = fit_lagrange(make_series(t, y))
        for ti, yi in zip(t, y):
            assert eval_lagrange(model, float(ti)) == yi
        for degree in range(4):
            coeffs = rng.uniform(-1.0, 1.0, degree + 1)
            poly = np.polynomial.Polynomial(coeffs)
            knots = np.linspace(0.0, 5.0, degree + 2)
            fitted = fit_lagrange(make_series(knots, poly(knots)))
            for probe in np.linspace(0.0, 5.0, 41):
                assert abs(eval_lagrange(fitted, float(probe)) - poly(probe)) <= 1e-9
        tt = np.linspace(-1.0, 1.0, 11)
        runge = fit_lagrange(make_series(tt, 1.0 / (1.0 + 25.0 * tt**2)))
        err = abs(eval_lagrange(runge, 0.96) - 1.0 / (1.0 + 25.0 * 0.96**2))
        assert err > 1.0

    _check(6, "lagrange exact through cubic, oscillates on equispaced runge", body)


def test_07_trend_slopes(od_series):
    def body():
        rng = np.random.default_rng(1905)
        t = np.linspace(0.0, 365.0, 100)
        y = 4.0 + 0.004 * t + rng.uniform(-0.05, 0.05, t.size)
        synthetic = trend_report(make_series(t, y))
        assert abs(synthetic.slope - 0.004) <= 0.002
        report = trend_report(od_series)
        tt = np.array(od_series.t)
        yy = np.array(od_series.y)
        closed = float(((tt - tt.mean()) * (yy - yy.mean())).sum() / ((tt - tt.mean()) ** 2).sum())
        assert abs(report.slope - closed) <= 1e-8 * (1.0 + abs(closed))
        assert abs(report.slope - GOLDEN_SLOPE) <= 1e-12
        assert report.direction == "up"

    _check(7, "trend slope matches closed form and recovers synthetic", body)


def test_08_correlation(gropeni):
    def body():
        temp = dataset_series(gropeni, "temp")
        od = dataset_series(gropeni, "OD")
        pairs = matched_pairs(temp, od)
        assert len(pairs) == 9
        r = pearson(temp, od)
        xs = np.array([p[1] for p in pairs])
        ys = np.array([p[2] for p in pairs])
        oracle = float(
            ((xs - xs.mean()) * (ys - ys.mean())).sum()
            / math.sqrt(((xs - xs.mean()) ** 2).sum() * ((ys - ys.mean()) ** 2).sum())
        )
        assert abs(r - oracle) <= 1e-10
        assert abs(r - GOLDEN_PEARSON) <= 1e-10
        rng = np.random.default_rng(8128)
        t = np.arange(0.0, 50.0, 2.0)
        for _ in range(100):
            a = make_series(t, rng.normal(0.0, 1.0, t.size))
            b = make_series(t, rng.normal(0.0, 1.0, t.size), parameter="z")
            base = pearson(a, b)
            assert abs(pearson(b, a) - base) <= 1e-12
            scaled = make_series(t, 2.0 * np.array(b.y) + 5.0, parameter="z")
            assert abs(pearson(a, scaled) - base) <= 1e-12

    _check(8, "pearson matches oracle, symmetric and affine invariant", body)


def test_09_harmonic_identities():
    def body():
        spec = HarmonicSpec()
        peak = 2.0 ** (2.0 / 3.0)
        assert harmonic_reference(0.0, spec) == 1.0
        assert abs(harmonic_reference(6.0, spec) - peak) <= 1e-12
        assert abs(harmonic_reference(30.0, spec) + peak) <= 1e-12
        for i in range(0, 1921):
            k = i * 0.1
            assert abs(harmonic_reference(k, spec) - harmonic_reference(k + 48.0, spec)) <= 1e-9

    _check(9, "seasonal reference hits its peaks and repeats every 48", body)


def test_10_round_trips(gropeni, capsys, tmp_path):
    def body():
        text = serialize_csv(gropeni)
        again = parse_csv(text, station=gropeni.station, source=gropeni.source)
        assert again == gropeni
        assert serialize_csv(again) == text
        stdout_commands = [
            ["extrema", "--fixture", "gropeni", "--param", "OD"],
            ["trend", "--fixture", "gropeni", "--param", "OD"],
            ["correlate", "--fixture", "gropeni", "--param-a", "temp", "--param-b", "OD"],
            ["harmonic", "--fixture", "gropeni", "--param", "OD"],
        ]
        for argv in stdout_commands:
            outputs = []
            for _ in range(2):
                assert main(list(argv)) == 0
                outputs.append(capsys.readouterr().out)
            assert outputs[0] == outputs[1], argv[0]
        file_commands = [
            ["interp", "--fixture", "gropeni", "--param", "OD", "--out"],
            ["plot", "--fixture", "gropeni", "--param", "OD", "--harmonic", "--out"],
        ]
        for argv in file_commands:
            payloads = []
            for run in ("a", "b"):
                target = tmp_path / f"{argv[0]}_{run}"
                assert main(list(argv) + [str(target)]) == 0
                capsys.readouterr()
                payloads.append(target.read_bytes())
            assert payloads[0] == payloads[1], argv[0]

    _check(10, "csv round trip is identity and cli reruns are byte equal", body)
