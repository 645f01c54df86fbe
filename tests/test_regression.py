"""Polynomial trend fitting, Pearson correlation, and curve comparison."""

import math

import numpy as np
import pytest

from helpers import make_series, normal_equations_solve, random_knots
from hydrospline import (
    eval_poly,
    fit_polynomial,
    matched_pairs,
    pearson,
    poly_curve,
    rmse_between,
    trend_report,
)
from hydrospline.errors import (
    DegreeTooHigh,
    GridMismatch,
    InsufficientData,
    InsufficientPairs,
    NumericOverflow,
    ZeroVariance,
)


def test_two_point_trend_example():
    series = make_series([0.0, 100.0], [5.0, 4.0])
    report = trend_report(series)
    assert report.slope == pytest.approx(-0.01, abs=1e-12)
    assert report.total_change == pytest.approx(-1.0, abs=1e-12)
    assert report.span_days == 100.0
    assert report.direction == "down"


def test_constant_series_is_flat():
    series = make_series([0.0, 10.0, 25.0, 40.0], [3.2, 3.2, 3.2, 3.2])
    report = trend_report(series)
    assert report.direction == "flat"
    assert report.slope == pytest.approx(0.0, abs=1e-12)


def test_flat_threshold_is_on_total_change():
    # slope tiny but span long enough that the total change crosses 0.01
    series = make_series([0.0, 1000.0], [0.0, 0.011])
    assert trend_report(series).direction == "up"
    series = make_series([0.0, 1000.0], [0.0, 0.009])
    assert trend_report(series).direction == "flat"


def test_fixture_trend_matches_closed_form(od_series):
    report = trend_report(od_series)
    t = np.array(od_series.t)
    y = np.array(od_series.y)
    slope = float(((t - t.mean()) * (y - y.mean())).sum() / ((t - t.mean()) ** 2).sum())
    assert abs(report.slope - slope) <= 1e-8 * (1.0 + abs(slope))
    assert report.direction == "up"


def test_trend_recovers_known_slope():
    rng = np.random.default_rng(1905)
    t = np.linspace(0.0, 365.0, 100)
    y = 4.0 + 0.004 * t + rng.uniform(-0.05, 0.05, t.size)
    report = trend_report(make_series(t, y))
    assert abs(report.slope - 0.004) <= 0.002


def test_trend_needs_two_points():
    with pytest.raises(InsufficientData):
        trend_report(make_series([3.0], [1.0]))


def test_polynomial_reproduces_exact_polynomials():
    rng = np.random.default_rng(27)
    for degree in range(0, 6):
        coeffs = rng.uniform(-1.0, 1.0, degree + 1)
        poly = np.polynomial.Polynomial(coeffs)
        t = np.linspace(0.0, 50.0, degree + 4)
        model = fit_polynomial(make_series(t, poly(t)), degree)
        assert model.rmse <= 1e-8
        for probe in np.linspace(0.0, 50.0, 33):
            assert abs(eval_poly(model, float(probe)) - poly(probe)) <= 1e-7


def test_midpoint_evaluation_is_exactly_the_constant_term(od_series):
    model = fit_polynomial(od_series, 3)
    mid = (od_series.t[0] + od_series.t[-1]) / 2.0
    assert eval_poly(model, mid) == model.coefficients[0]


def test_rmse_never_increases_with_degree(od_series):
    errors = [fit_polynomial(od_series, d).rmse for d in range(0, 6)]
    for lo, hi in zip(errors[1:], errors[:-1]):
        assert lo <= hi + 1e-12


def test_residuals_orthogonal_to_design(od_series):
    model = fit_polynomial(od_series, 2)
    t = np.array(od_series.t)
    y = np.array(od_series.y)
    u = (t - model.t_mid) / model.t_scale
    residual = y - np.array([eval_poly(model, float(ti)) for ti in t])
    for power in range(3):
        assert abs(float(residual @ u**power)) <= 1e-8 * (1.0 + abs(y).max())


def test_polynomial_matches_normal_equations():
    rng = np.random.default_rng(42)
    for _ in range(30):
        n = int(rng.integers(6, 20))
        t, y = random_knots(rng, n)
        degree = int(rng.integers(1, 4))
        series = make_series(t, y)
        model = fit_polynomial(series, degree)
        u = (np.array(t) - model.t_mid) / model.t_scale
        design = np.vander(u, degree + 1, increasing=True)
        oracle = normal_equations_solve(design, np.array(y))
        np.testing.assert_allclose(model.coefficients, oracle, atol=1e-8, rtol=1e-6)


def test_degree_bounds():
    series = make_series(np.arange(20.0), np.arange(20.0))
    with pytest.raises(DegreeTooHigh):
        fit_polynomial(series, 11)
    with pytest.raises(DegreeTooHigh):
        fit_polynomial(series, -1)


def test_underdetermined_fit_rejected():
    series = make_series([0.0, 1.0, 2.0], [1.0, 2.0, 3.0])
    with pytest.raises(InsufficientData):
        fit_polynomial(series, 3)


def test_poly_curve_tagging(od_series):
    model = fit_polynomial(od_series, 1)
    curve = poly_curve(model, od_series.t[0], od_series.t[-1], 100)
    assert curve.source == "regression"
    assert len(curve.t) == 100


# correlation


def test_fixture_pairs_skip_missing_cells(gropeni):
    from hydrospline import dataset_series

    temp = dataset_series(gropeni, "temp")
    od = dataset_series(gropeni, "OD")
    pairs = matched_pairs(temp, od)
    assert len(pairs) == 9  # two temp cells are absent
    days = [p[0] for p in pairs]
    assert days == sorted(days)


def test_pairs_use_calendar_dates_not_offsets():
    a = make_series([0.0, 5.0], [1.0, 2.0])
    b_knots = [(3.0, 9.0), (8.0, 7.0)]
    from datetime import date

    from hydrospline.series import TimeSeries

    b = TimeSeries(
        station="site-a",
        parameter="z",
        knots=tuple(b_knots),
        epoch=date(1999, 12, 29),
    )
    # b's epoch sits 3 days earlier, so its t = 3 lands on a's t = 0
    pairs = matched_pairs(a, b)
    assert len(pairs) == 2
    assert pairs[0][1:] == (1.0, 9.0)
    assert pairs[1][1:] == (2.0, 7.0)


def test_perfect_and_inverse_correlation():
    t = [0.0, 10.0, 20.0, 30.0]
    a = make_series(t, [1.0, 2.0, 3.0, 4.0])
    up = make_series(t, [10.0, 20.0, 30.0, 40.0], parameter="z")
    down = make_series(t, [8.0, 6.0, 4.0, 2.0], parameter="w")
    assert pearson(a, up) == pytest.approx(1.0, abs=1e-12)
    assert pearson(a, down) == pytest.approx(-1.0, abs=1e-12)


def test_correlation_is_symmetric_and_affine_invariant():
    rng = np.random.default_rng(613)
    t = np.sort(rng.uniform(0.0, 100.0, 12))
    t = np.unique(np.round(t, 1))
    ya = rng.normal(5.0, 2.0, t.size)
    yb = rng.normal(5.0, 2.0, t.size)
    a = make_series(t, ya)
    b = make_series(t, yb, parameter="z")
    r = pearson(a, b)
    assert pearson(b, a) == pytest.approx(r, abs=1e-12)
    scaled = make_series(t, 3.5 * yb + 11.0, parameter="z")
    assert pearson(a, scaled) == pytest.approx(r, abs=1e-12)
    flipped = make_series(t, -2.0 * yb + 1.0, parameter="z")
    assert pearson(a, flipped) == pytest.approx(-r, abs=1e-12)


def test_correlation_bounds_hold():
    rng = np.random.default_rng(20240102)
    t = np.arange(0.0, 40.0, 2.5)
    for _ in range(100):
        a = make_series(t, rng.normal(0.0, 1.0, t.size))
        b = make_series(t, rng.normal(0.0, 1.0, t.size), parameter="z")
        assert -1.0 <= pearson(a, b) <= 1.0


def test_fixture_correlation_value(gropeni):
    from hydrospline import dataset_series

    r = pearson(dataset_series(gropeni, "temp"), dataset_series(gropeni, "OD"))
    assert r == pytest.approx(0.1329713235733478, abs=1e-10)


def test_correlation_station_mismatch():
    a = make_series([0.0, 1.0, 2.0], [1.0, 2.0, 3.0], station="north")
    b = make_series([0.0, 1.0, 2.0], [1.0, 2.0, 3.0], station="south", parameter="z")
    with pytest.raises(ValueError):
        pearson(a, b)


def test_correlation_needs_three_pairs():
    a = make_series([0.0, 1.0], [1.0, 2.0])
    b = make_series([0.0, 1.0], [4.0, 3.0], parameter="z")
    with pytest.raises(InsufficientPairs):
        pearson(a, b)


def test_constant_input_has_no_correlation():
    t = [0.0, 1.0, 2.0, 3.0]
    a = make_series(t, [2.0, 2.0, 2.0, 2.0])
    b = make_series(t, [1.0, 5.0, 2.0, 8.0], parameter="z")
    with pytest.raises(ZeroVariance):
        pearson(a, b)
    with pytest.raises(ZeroVariance):
        pearson(b, a)


# curve comparison


def test_rmse_between_identical_curves(od_series):
    from hydrospline import dense_grid, fit_natural_spline

    grid = dense_grid(fit_natural_spline(od_series), 200)
    assert rmse_between(grid, grid) == 0.0


def test_rmse_between_known_offset():
    a = poly_curve(fit_polynomial(make_series([0.0, 10.0], [1.0, 1.0]), 0), 0.0, 10.0, 50)
    b = poly_curve(fit_polynomial(make_series([0.0, 10.0], [3.0, 3.0]), 0), 0.0, 10.0, 50)
    assert rmse_between(a, b) == pytest.approx(2.0, abs=1e-12)


def test_rmse_between_requires_matching_grids(od_series):
    from hydrospline import dense_grid, fit_natural_spline

    model = fit_natural_spline(od_series)
    with pytest.raises(GridMismatch):
        rmse_between(dense_grid(model, 100), dense_grid(model, 101))


@pytest.mark.parametrize("size", [1e300, 1e308, 1e-170], ids=["square", "sum", "tiny"])
def test_correlation_outside_float_range_is_typed(size):
    # 1e300 overflows a square, 1e308 the sum of the values, and 1e-170 underflows
    # the product of the sums of squares to zero
    t = [0.0, 1.0, 2.0, 3.0]
    a = make_series(t, [size, -size, size, -size])
    b = make_series(t, [-size, size, size, -size])
    with pytest.raises(NumericOverflow):
        pearson(a, b)


def test_overflowing_rmse_is_inf():
    # the fit is finite; only the sum of squared residuals leaves the float range
    model = fit_polynomial(make_series([0.0, 1.0, 2.0, 3.0], [1e300, -1e300, 1e300, -1e300]), 1)
    assert all(math.isfinite(c) for c in model.coefficients)
    assert model.rmse == math.inf


def test_overflowing_least_squares_fit_is_typed():
    with pytest.raises(NumericOverflow):
        trend_report(make_series([0.0, 1.0, 2.0, 3.0], [1e308] * 4))
