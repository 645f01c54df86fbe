"""Polynomial trend fitting and Pearson correlation."""

import math
import random
from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    make_series,
    normal_equations_solve,
    random_knots,
    scalar_matched_pairs,
    scalar_pearson,
)
from hydrospline import (
    TimeSeries,
    eval_poly,
    fit_polynomial,
    matched_pairs,
    pearson,
    poly_curve,
    trend_report,
)
from hydrospline.errors import (
    DegreeTooHigh,
    InsufficientData,
    InsufficientPairs,
    NumericOverflow,
    ZeroVariance,
)
from hydrospline.regression import PolyModel, _pearson_of_pairs


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


def test_one_knot_constant_keeps_a_unit_scale():
    # a zero half-span scales the axis by exactly 1.0, not by 0 (which gives 0 / 0)
    model = fit_polynomial(make_series([5.0], [2.0]), 0)
    assert model == PolyModel((2.0,), 5.0, 1.0, 0.0)


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


def _day_series(rng, days, epoch, step=1.0):
    """A series with knots on the given day offsets (times ``step`` each) and random values."""
    knots = tuple((d * step, float(v)) for d, v in zip(days, rng.normal(5.0, 3.0, len(days))))
    return TimeSeries(station="s", parameter="p", knots=knots, epoch=epoch)


@pytest.mark.parametrize("seed", range(6))
def test_matched_pairs_match_scalar_loop(seed):
    rng = np.random.default_rng(seed)
    epoch = date(2003, 9, 11)

    def sampled(lo, hi, n):
        return sorted(rng.choice(np.arange(lo, hi), size=n, replace=False).tolist())

    shift = int(rng.integers(-40, 40))
    later = epoch + timedelta(days=shift)
    cases = [
        # different epochs, partial overlap
        (_day_series(rng, sampled(0, 300, 120), epoch),
         _day_series(rng, sampled(100, 400, 150), later)),
        # tenth-of-a-day steps, so matching rests on rounded sums
        (_day_series(rng, sampled(0, 600, 200), epoch, 0.1),
         _day_series(rng, sampled(0, 600, 200), later, 0.1)),
        # no overlap: the empty result
        (_day_series(rng, sampled(0, 100, 30), epoch),
         _day_series(rng, sampled(0, 100, 30), epoch + timedelta(days=500))),
    ]
    a = cases[0][0]
    cases += [
        (a, _day_series(rng, [a.t[7]], epoch)),  # one knot, on a date a has
        (_day_series(rng, [1000], epoch), a),  # one knot, on no date a has
        # 0.1 and 0.1 + 1e-11 round to one day ordinal
        (_day_series(rng, [0.1, 0.1 + 1e-11, 3.0], epoch), _day_series(rng, [0.1, 3.0], epoch)),
    ]
    for a, b in cases:
        for x, y in ((a, b), (b, a)):
            pairs = matched_pairs(x, y)
            assert all(type(v) is float for pair in pairs for v in pair)
            hexed = [tuple(map(float.hex, pair)) for pair in pairs]
            assert hexed == [tuple(map(float.hex, pair)) for pair in scalar_matched_pairs(x, y)]
    assert matched_pairs(*cases[2]) == []
    assert len(matched_pairs(*cases[3])) == 1
    assert matched_pairs(*cases[4]) == []
    close, b = cases[5]  # the later of close's two knots on one day is paired, as by a dict
    assert [p[1:] for p in matched_pairs(close, b)] == [(close.y[1], b.y[0]), (close.y[2], b.y[1])]
    assert len(matched_pairs(b, close)) == 3


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


@pytest.mark.parametrize("size", [1e300, 1e308, 1e-170], ids=["square", "sum", "tiny"])
def test_correlation_outside_float_range_is_typed(size):
    # 1e300 overflows a square, 1e308 the sum of the values, and 1e-170 underflows
    # the product of the sums of squares to zero
    t = [0.0, 1.0, 2.0, 3.0]
    a = make_series(t, [size, -size, size, -size])
    b = make_series(t, [-size, size, size, -size])
    with pytest.raises(NumericOverflow):
        pearson(a, b)


def _outcome(correlate, pairs):
    """The bits of the correlation, or the type and message of what it raised."""
    try:
        return correlate(pairs).hex()
    except Exception as exc:
        return type(exc), str(exc)


@st.composite
def _value_side(draw, rng, n):
    """n values of one magnitude, from subnormals to 1.7e308: constant, or spread
    around an offset, with some at exactly +-scale."""
    scale = draw(st.floats(min_value=5e-324, max_value=1.7e308))
    if draw(st.integers(0, 7)) == 0:
        return [draw(st.sampled_from([scale, -scale, 0.0, -0.0]))] * n
    offset = scale * draw(st.sampled_from([0.0, 0.5, -3.0, 1e8]))
    values = (offset + scale * (rng.choice((-1.0, 1.0)) if rng.random() < 0.1
                                else rng.uniform(-1.0, 1.0)) for _ in range(n))
    return [min(max(v, -1.7e308), 1.7e308) for v in values]


@settings(max_examples=500, deadline=None)
@given(st.data())
def test_correlation_matches_scalar_route_bit_for_bit(data):
    # the same bits, or the same exception and message, as the list-based route
    n = data.draw(st.integers(0, 400))
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    xs, ys = data.draw(_value_side(rng, n)), data.draw(_value_side(rng, n))
    pairs = [(float(day), x, y) for day, (x, y) in enumerate(zip(xs, ys))]
    assert _outcome(_pearson_of_pairs, pairs) == _outcome(scalar_pearson, pairs)


@pytest.mark.parametrize("pairs", [
    [(0.0, 11.73, 9.17), (1.0, 0.15, 1.72), (2.0, 2.8, 6.53), (3.0, 22.0, 13.91),
     (4.0, 0.79, 12.05), (5.0, 20.02, 1.97)],
    [(0.0, 26.79, 2.76), (1.0, 4.77, 4.02), (2.0, 13.68, 7.81), (3.0, 22.6, 9.2),
     (4.0, 14.4, 0.6), (5.0, 1.53, 5.13)],
])
def test_correlation_squares_round_as_pow(pairs):
    # squaring the deviations as float64 d * d moves the last bit of r on these
    assert _pearson_of_pairs(pairs).hex() == scalar_pearson(pairs).hex()


def test_overflowing_rmse_is_inf():
    # the fit is finite; only the sum of squared residuals leaves the float range
    model = fit_polynomial(make_series([0.0, 1.0, 2.0, 3.0], [1e300, -1e300, 1e300, -1e300]), 1)
    assert all(math.isfinite(c) for c in model.coefficients)
    assert model.rmse == math.inf


def test_overflowing_least_squares_fit_is_typed():
    with pytest.raises(NumericOverflow):
        trend_report(make_series([0.0, 1.0, 2.0, 3.0], [1e308] * 4))


def test_overflowing_trend_is_typed():
    # a finite fit whose slope, -2e308 per day, leaves the float range
    with pytest.raises(NumericOverflow):
        trend_report(make_series([0.0, 1.0], [1e308, -1e308]))
