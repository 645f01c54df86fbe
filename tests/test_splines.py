"""Spline and Lagrange model behavior against independent oracles."""

import copy
import dataclasses
import math
import pickle
import warnings
from fractions import Fraction
from functools import partial

import numpy as np
import pytest

from helpers import (
    EPOCH,
    dense_spline_coefficients,
    make_series,
    random_knots,
    scalar_extrema,
    scalar_lagrange,
    scalar_lagrange_first_form,
    scalar_lagrange_weights,
    scalar_spline,
)
from hydrospline import (
    CurveSamples,
    Dataset,
    Extremum,
    HarmonicSpec,
    IndexMap,
    LagrangeModel,
    PlotLayer,
    SplineModel,
    TimeSeries,
    compare_to_harmonic,
    curve_layer,
    dense_grid,
    eval_lagrange,
    eval_spline,
    eval_spline_derivative,
    fit_amplitude_offset,
    fit_lagrange,
    fit_natural_spline,
    fit_smoothing_spline,
    gropeni_dataset,
    marker_layer,
    sample_harmonic,
    spline_extrema,
)
from hydrospline.errors import (
    NegativeLambda,
    NumericOverflow,
    ResolutionTooLarge,
    ResolutionTooSmall,
    TooFewKnots,
    UnsupportedOrder,
    WeightOverflow,
)
from hydrospline.linalg import LeastSquaresProblem, TridiagonalSystem
from hydrospline.regression import eval_poly, fit_polynomial, poly_curve
from hydrospline.series import _MAX_POINTS
from hydrospline.splines import _barycentric, _evaluate


def junction_mismatch(model):
    """Worst relative jump of f, f', f'' across interior junctions."""
    ts = [t for t, _ in model.knots]
    worst = 0.0
    for j in range(1, len(ts) - 1):
        h = ts[j] - ts[j - 1]
        a, b, c, d = model.coefficients[j - 1]
        left = (
            ((d * h + c) * h + b) * h + a,
            (3.0 * d * h + 2.0 * c) * h + b,
            6.0 * d * h + 2.0 * c,
        )
        a2, b2, c2, _ = model.coefficients[j]
        right = (a2, b2, 2.0 * c2)
        for lhs, rhs in zip(left, right):
            worst = max(worst, abs(lhs - rhs) / (1.0 + max(abs(lhs), abs(rhs))))
    return worst


# interpolating spline


def test_two_knots_give_a_straight_segment():
    series = make_series([0.0, 10.0], [1.0, 3.0])
    model = fit_natural_spline(series)
    assert model.coefficients == ((1.0, 0.2, 0.0, 0.0),)
    for t in (0.0, 2.5, 5.0, 10.0):
        assert eval_spline(model, t) == pytest.approx(1.0 + 0.2 * t, abs=1e-12)


def test_single_knot_rejected():
    with pytest.raises(TooFewKnots):
        fit_natural_spline(make_series([0.0], [1.0]))


def test_fixture_knot_reproduction(od_series):
    model = fit_natural_spline(od_series)
    for t, y in od_series.knots:
        assert abs(eval_spline(model, t) - y) <= 1e-9 * (1.0 + abs(y))


def test_coefficients_match_dense_constraint_oracle():
    rng = np.random.default_rng(31415)
    for _ in range(50):
        n = int(rng.integers(3, 21))
        t, y = random_knots(rng, n)
        model = fit_natural_spline(make_series(t, y))
        oracle = dense_spline_coefficients(t, y)
        mine = np.array(model.coefficients)
        np.testing.assert_allclose(mine, oracle, atol=1e-9, rtol=1e-9)


def test_junctions_are_c2_and_ends_are_flat():
    rng = np.random.default_rng(2718)
    for _ in range(60):
        n = int(rng.integers(3, 31))
        t, y = random_knots(rng, n)
        model = fit_natural_spline(make_series(t, y))
        assert junction_mismatch(model) <= 1e-8
        assert abs(eval_spline_derivative(model, t[0], 2)) <= 1e-9
        assert abs(eval_spline_derivative(model, t[-1], 2)) <= 1e-9


def test_linear_data_reproduces_the_line_for_any_lambda():
    t = np.array([0.0, 7.0, 19.0, 40.0, 66.0, 101.0])
    y = 3.0 - 0.25 * t
    series = make_series(t, y)
    probes = np.linspace(0.0, 101.0, 173)
    for lam in (0.0, 1.0, 1e6):
        model = fit_smoothing_spline(series, lam)
        for p in probes:
            assert abs(eval_spline(model, float(p)) - (3.0 - 0.25 * p)) <= 1e-10


def test_extrapolation_is_linear():
    model = fit_natural_spline(make_series([0.0, 5.0, 9.0, 14.0], [1.0, 4.0, 2.0, 3.0]))
    left_slope = eval_spline_derivative(model, 0.0, 1)
    right_slope = eval_spline_derivative(model, 14.0, 1)
    y0 = eval_spline(model, 0.0)
    yn = eval_spline(model, 14.0)
    for dt in (0.5, 3.0, 20.0):
        assert eval_spline(model, -dt) == pytest.approx(y0 - left_slope * dt, rel=1e-12)
        assert eval_spline(model, 14.0 + dt) == pytest.approx(yn + right_slope * dt, rel=1e-12)
        assert eval_spline_derivative(model, -dt, 1) == pytest.approx(left_slope, rel=1e-12)
        assert eval_spline_derivative(model, 14.0 + dt, 2) == 0.0


@pytest.mark.parametrize(
    "knots, coefficients",
    [
        (((0.0, 1.0), (1.0, 1.0), (2.0, 1.0)), None),  # a natural fit through a constant
        (((0.0, -0.0), (1.0, -0.0), (2.0, -0.0)), None),
        (((0.0, 0.0), (1.0, 0.0)), ((-0.0, -0.0, 0.0, 0.0),)),  # zero slope of either sign
        (((0.0, 0.0), (1.0, 0.0)), ((-0.0, 0.0, 0.0, 0.0),)),
        (((0.0, 2.0), (3.0, 5.0)), ((2.0, 1.0, 0.0, 0.0),)),  # a sloped boundary
    ],
)
def test_flat_boundary_extends_to_infinity(knots, coefficients):
    # 0.0 * inf is nan: a flat boundary segment evaluated nan at +-inf, with a warning
    if coefficients is None:
        model = fit_natural_spline(make_series(*zip(*knots)))
    else:
        model = SplineModel(knots=knots, coefficients=coefficients)
    finite = [-1e300, -7.5, -1e-300, 0.0, 0.5, knots[-1][0], knots[-1][0] + 1e-300, 9.0, 1e300]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ends = [eval_spline(model, t) for t in (-math.inf, math.inf)]
        far = [eval_spline(model, t) for t in (-1e300, 1e300)]
        slopes = [eval_spline_derivative(model, t, 1) for t in (-math.inf, math.inf)]
        values = [eval_spline(model, t) for t in finite]
    for end, limit, slope, (t, _) in zip(ends, far, slopes, (knots[0], knots[-1])):
        if slope == 0.0:  # the boundary value, with the sign a far finite point gives
            assert end == eval_spline(model, t) and end.hex() == limit.hex()
        else:
            assert end == math.copysign(math.inf, limit)
    # outside the span, finite points keep the bits of boundary value + slope * distance
    expected = []
    for t in finite:
        edge = min(max(t, knots[0][0]), knots[-1][0])
        value, slope = eval_spline(model, edge), eval_spline_derivative(model, edge, 1)
        expected.append(value if t == edge else value + slope * (t - edge))
    assert [v.hex() for v in values] == [v.hex() for v in expected]


def test_evaluation_matches_scalar_reference(od_series):
    # same arithmetic as the per-point loop, so the values must have the same bits,
    # signed zeros included, which == does not tell apart
    rng = np.random.default_rng(577)
    flat = make_series([0.0, 1.0, 3.0, 4.0], [-0.0] * 4)
    for series in (od_series, make_series(*random_knots(rng, 40)), flat):
        t0, tn = series.t[0], series.t[-1]
        probes = [*rng.uniform(2 * t0 - tn, 2 * tn - t0, 400).tolist(), *series.t, -1e300, 1e300]
        for model in (fit_natural_spline(series), fit_smoothing_spline(series, 5.0)):
            for order in (0, 1, 2):
                got = [_evaluate_scalar(model, p, order) for p in probes]
                assert [v.hex() for v in got] == [
                    scalar_spline(model, p, order).hex() for p in probes]
            curve = dense_grid(model, 1001)
            assert [v.hex() for v in curve.y] == [scalar_spline(model, p).hex() for p in curve.t]


def _evaluate_scalar(model, t, order):
    return eval_spline(model, t) if order == 0 else eval_spline_derivative(model, t, order)


# smoothing spline


def test_lambda_zero_equals_interpolating_fit(od_series):
    natural = fit_natural_spline(od_series)
    smooth = fit_smoothing_spline(od_series, 0.0)
    grid_a = dense_grid(natural, 1000)
    grid_b = dense_grid(smooth, 1000)
    sup = max(abs(a - b) for a, b in zip(grid_a.y, grid_b.y))
    assert sup <= 1e-6


def test_negative_lambda_rejected(od_series):
    with pytest.raises(NegativeLambda):
        fit_smoothing_spline(od_series, -0.5)
    with pytest.raises(NegativeLambda, match="got nan"):
        fit_smoothing_spline(od_series, math.nan)


def test_smoothing_needs_three_knots():
    series = make_series([0.0, 4.0], [1.0, 2.0])
    with pytest.raises(TooFewKnots):
        fit_smoothing_spline(series, 1.0)
    # lam = 0 still works with two knots
    assert fit_smoothing_spline(series, 0.0).smoothing == 0.0


def test_huge_lambda_approaches_least_squares_line(od_series):
    model = fit_smoothing_spline(od_series, 1e12)
    line = fit_polynomial(od_series, 1)
    curve = dense_grid(model, 1000)
    reference = poly_curve(line, od_series.t[0], od_series.t[-1], 1000)
    sup = max(abs(a - b) for a, b in zip(curve.y, reference.y))
    assert sup <= 1e-3


def test_knot_values_approach_the_line_monotonically(od_series):
    line = fit_polynomial(od_series, 1)
    target = [eval_poly(line, t) for t in od_series.t]
    previous = None
    for lam in (1e0, 1e2, 1e4, 1e6, 1e8, 1e10):
        model = fit_smoothing_spline(od_series, lam)
        values = [eval_spline(model, t) for t in od_series.t]
        distance = math.sqrt(sum((v - w) ** 2 for v, w in zip(values, target)))
        if previous is not None:
            assert distance <= previous + 1e-12
        previous = distance


def test_smoothing_junctions_stay_c2(od_series):
    for lam in (0.1, 10.0, 1e4):
        model = fit_smoothing_spline(od_series, lam)
        assert junction_mismatch(model) <= 1e-8
        assert model.smoothing == lam
        assert dense_grid(model, 10).source == "smoothing"


def test_smoothing_minimizes_the_penalized_objective(od_series):
    """Perturbing the fitted knot values can only raise the objective."""
    lam = 25.0
    t = np.array(od_series.t)
    y = np.array(od_series.y)
    h = np.diff(t)
    n = t.size

    def objective(knot_values):
        # any natural spline is determined by its knot values; its curvature
        # penalty is gamma^T R gamma with R gamma = Q^T values
        from hydrospline.linalg import TridiagonalSystem, solve_tridiagonal

        rhs = (knot_values[2:] - knot_values[1:-1]) / h[1:] - (
            knot_values[1:-1] - knot_values[:-2]
        ) / h[:-1]
        system = TridiagonalSystem(
            lower=h[1:-1] / 6.0,
            diag=(h[:-1] + h[1:]) / 3.0,
            upper=h[1:-1] / 6.0,
            rhs=rhs,
        )
        gamma = solve_tridiagonal(system)
        r_gamma = np.zeros(n - 2)
        r_gamma += (h[:-1] + h[1:]) / 3.0 * gamma
        r_gamma[:-1] += h[1:-1] / 6.0 * gamma[1:]
        r_gamma[1:] += h[1:-1] / 6.0 * gamma[:-1]
        penalty = float(gamma @ r_gamma)
        misfit = float(((y - knot_values) ** 2).sum())
        return misfit + lam * penalty

    model = fit_smoothing_spline(od_series, lam)
    fitted = np.array([eval_spline(model, float(ti)) for ti in t])
    best = objective(fitted)
    rng = np.random.default_rng(404)
    for scale in (1e-3, 1e-2, 0.1, 1.0):
        for _ in range(8):
            perturbed = fitted + rng.normal(0.0, scale, n)
            assert objective(perturbed) >= best - 1e-9


# Lagrange


def test_three_knot_parabola():
    model = fit_lagrange(make_series([-1.0, 0.0, 1.0], [1.0, 0.0, 1.0]))
    assert model.weights == (0.5, -1.0, 0.5)
    assert eval_lagrange(model, 0.5) == pytest.approx(0.25, abs=1e-12)


def test_lagrange_knot_short_circuit():
    model = fit_lagrange(make_series([0.0, 2.0, 5.0], [1.5, -0.5, 2.5]))
    for (t, y) in model.knots:
        assert eval_lagrange(model, t) == y
        assert eval_lagrange(model, t + 1e-13) == y


def test_lagrange_weight_overflow_is_typed():
    # 400 daily knots: prod_{j != i} (t_i - t_j) overflows to inf
    days = [float(d) for d in range(400)]
    with pytest.raises(WeightOverflow):
        fit_lagrange(make_series(days, [math.sin(d / 30.0) for d in days]))


def test_lagrange_matches_spline_at_knots():
    rng = np.random.default_rng(161803)
    t, y = random_knots(rng, 7)
    series = make_series(t, y)
    spline = fit_natural_spline(series)
    lagrange = fit_lagrange(series)
    for ti, yi in series.knots:
        assert abs(eval_spline(spline, ti) - eval_lagrange(lagrange, ti)) <= 1e-9 * (1 + abs(yi))


@pytest.mark.parametrize("coeffs", [(2.0,), (1.0, -0.5), (0.5, 1.0, -0.25), (2.0, -1.0, 0.5, -0.25)])
def test_lagrange_reproduces_low_degree_polynomials(coeffs):
    poly = np.polynomial.Polynomial(coeffs)
    t = np.linspace(0.0, 4.0, len(coeffs))
    if len(coeffs) == 1:
        t = np.array([1.0])
    series = make_series(t, poly(t))
    model = fit_lagrange(series)
    for probe in np.linspace(0.0, 4.0, 57):
        assert abs(eval_lagrange(model, float(probe)) - poly(probe)) <= 1e-9


def test_equispaced_high_degree_oscillates():
    t = np.linspace(-1.0, 1.0, 11)
    y = 1.0 / (1.0 + 25.0 * t**2)
    model = fit_lagrange(make_series(t, y))
    probe = 0.96
    true_value = 1.0 / (1.0 + 25.0 * probe**2)
    assert abs(eval_lagrange(model, probe) - true_value) > 1.0


def _hex(values):
    return [v.hex() for v in values]


@pytest.mark.parametrize("seed", range(4))
def test_lagrange_matches_scalar_reference(seed):
    # 2-300 knots, offsets up to +-1e6 and scales 1e-3 to 1e3; probes on the dense grid,
    # at the knots and 1e-13 either side of them take the second form, probes outside the
    # span the first; nan matches nan
    rng = np.random.default_rng(seed)
    fitted = overflowed = 0
    for _ in range(15):
        n = int(rng.integers(2, 301))
        scale, offset = 10.0 ** rng.uniform(-3.0, 3.0), rng.uniform(-1e6, 1e6)
        t = offset + scale * np.cumsum(rng.uniform(0.2, 1.0, n))
        series = make_series(t, rng.uniform(-10.0, 10.0, n))
        try:
            expected = scalar_lagrange_weights(series)
        except (WeightOverflow, ZeroDivisionError):  # the loop divides by a product of 0.0
            with pytest.raises(WeightOverflow):
                fit_lagrange(series)
            overflowed += 1
            continue
        model = fit_lagrange(series)
        assert _hex(model.weights) == _hex(expected)
        fitted += 1
        ts, span = list(series.t), series.t[-1] - series.t[0]
        grid = np.linspace(ts[0], ts[-1], 200).tolist()
        outside = [ts[0] - span * f for f in (0.01, 0.5, 3.0)]
        outside += [ts[-1] + span * f for f in (0.01, 0.5, 3.0)]
        probes = grid + ts + [v + 1e-13 for v in ts] + [v - 1e-13 for v in ts] + outside
        values = _barycentric(model, np.array(probes)).tolist()
        inside = len(probes) - len(outside)
        assert _hex(values[:inside]) == _hex(scalar_lagrange(model, p) for p in probes[:inside])
        assert _hex(values[inside:]) == _hex(scalar_lagrange_first_form(model, p) for p in outside)
        for probe, value in zip(probes[::37], values[::37]):
            if math.isfinite(value):
                assert eval_lagrange(model, probe).hex() == value.hex()
            else:  # a result that is not finite at a finite t is typed
                with pytest.raises(NumericOverflow):
                    eval_lagrange(model, probe)
        if all(map(math.isfinite, values[:200])):
            assert _hex(dense_grid(model, 200).y) == _hex(values[:200])
    assert fitted and overflowed


def test_lagrange_snaps_to_the_first_close_knot():
    series = make_series([0.0, 1e-12, 1.0], [1.0, 2.0, 3.0])
    model = fit_lagrange(series)
    for probe in (5e-13, 1e-12, 1.5e-12, 0.5):
        assert eval_lagrange(model, probe).hex() == scalar_lagrange(model, probe).hex()
    assert eval_lagrange(model, 5e-13) == 1.0


def test_lagrange_weight_underflow_is_typed():
    # every product for the first knot underflows to 0.0, where the scalar loop divided by zero
    series = make_series([0.0, 1e-200, 2e-200], [1.0, 2.0, 3.0])
    with pytest.raises(ZeroDivisionError):
        scalar_lagrange_weights(series)
    with pytest.raises(WeightOverflow):
        fit_lagrange(series)


def test_lagrange_far_outside_the_span_is_accurate():
    # the second form's denominator cancels to exactly 0.0 at 1e20 (inf) and to noise at
    # 1e10 (1.547e16 where t**2 is 1e20); the first form is within a few ulps of t**2
    model = fit_lagrange(make_series([0.0, 1.0, 2.0], [0.0, 1.0, 4.0]))
    for t in (1e10, 1e20, -1e10, -1e20):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = eval_lagrange(model, t)
        exact = Fraction(t) ** 2
        assert abs(Fraction(value) - exact) <= 4 * 2.0**-52 * exact


@pytest.mark.parametrize("seed", range(4))
def test_lagrange_outside_the_span_matches_exact_polynomial(seed):
    # 3-11 knots, probes 1e3 to 1e6 spans outside: within 1e-13 of the exact interpolant
    rng = np.random.default_rng(seed)
    for _ in range(10):
        n = int(rng.integers(3, 12))
        t = np.cumsum(rng.uniform(0.2, 1.0, n))
        model = fit_lagrange(make_series(t, rng.uniform(-10.0, 10.0, n)))
        span = model.knots[-1][0] - model.knots[0][0]
        for f in (1e3, 1e4, 1e5, 1e6):
            for probe in (model.knots[0][0] - f * span, model.knots[-1][0] + f * span):
                exact = _exact_lagrange(model.knots, probe)
                error = abs(Fraction(eval_lagrange(model, probe)) - exact)
                assert error <= 1e-13 * abs(exact)


def _exact_lagrange(knots, t):
    """The interpolating polynomial at ``t`` in exact rational arithmetic."""
    t = Fraction(t)
    total = Fraction(0)
    for i, (ti, yi) in enumerate(knots):
        term = Fraction(yi)
        for j, (tj, _) in enumerate(knots):
            if j != i:
                term *= (t - Fraction(tj)) / (Fraction(ti) - Fraction(tj))
        total += term
    return total


#: knot times a hand-built model must reject: unsorted, repeated, not finite
UNORDERED_TIMES = ((2.0, 1.0, 3.0), (0.0, 0.0, 1.0), (0.0, math.nan, 2.0), (0.0, 1.0, math.inf))


def test_lagrange_model_needs_one_weight_per_knot():
    # two weights for three knots would evaluate a truncated sum
    with pytest.raises(ValueError, match="one weight per knot"):
        LagrangeModel(knots=((0.0, 1.0), (1.0, 2.0), (2.0, 0.0)), weights=(0.5, -1.0))
    with pytest.raises(ValueError, match="at least one knot"):
        LagrangeModel(knots=(), weights=())
    for times in UNORDERED_TIMES:
        with pytest.raises(ValueError, match="knot times must be finite and strictly increasing"):
            LagrangeModel(knots=tuple(zip(times, (0.0, 1.0, 0.0))), weights=(0.5, -1.0, 0.5))
    # a nan value or an inf weight evaluated nan; a zero weight dropped its knot from the sums
    with pytest.raises(ValueError, match="knot values must be finite"):
        LagrangeModel(knots=((0.0, 1.0), (1.0, math.nan), (2.0, 0.0)), weights=(0.5, -1.0, 0.5))
    for weights in ((0.5, math.inf, 0.5), (0.5, 0.0, 0.5)):
        with pytest.raises(WeightOverflow, match="barycentric weights overflow for this knot layout"):
            LagrangeModel(knots=((0.0, 1.0), (1.0, 2.0), (2.0, 0.0)), weights=weights)


def test_spline_model_needs_one_row_per_segment():
    # one row for three knots, or one knot with no rows, would fail in evaluation
    # with a bare IndexError
    with pytest.raises(ValueError, match="one coefficient row per segment"):
        SplineModel(knots=((0.0, 0.0), (1.0, 1.0), (2.0, 0.0)), coefficients=((0.0, 1.0, 0.0, 0.0),))
    with pytest.raises(ValueError, match="2 or more knots"):
        SplineModel(knots=((0.0, 1.0),), coefficients=np.zeros((0, 4)))
    # unsorted knots evaluated 0.5 at t = 1.5 and gridded from 2.0 to 3.0 only
    for times in UNORDERED_TIMES:
        with pytest.raises(ValueError, match="knot times must be finite and strictly increasing"):
            SplineModel(knots=tuple(zip(times, (0.0, 1.0, 0.0))),
                        coefficients=((0.0, 1.0, 0.0, 0.0), (1.0, -1.0, 0.0, 0.0)))


@pytest.mark.parametrize(
    "coefficients",
    [((0.0, 1.0),), ((0.0, 1.0, 0.0, 0.0, 0.0),), (0.0, 1.0, 0.0, 0.0), ((0.0, 1.0, 0.0), (0.0,))],
    ids=["two-columns", "five-columns", "flat", "ragged"],
)
def test_spline_model_needs_four_coefficients_per_row(coefficients):
    # a two-column row built, and eval_spline then failed with a bare unpacking error
    with pytest.raises(ValueError):
        SplineModel(knots=((0.0, 0.0), (1.0, 1.0)), coefficients=coefficients)


def test_spline_model_stores_any_table_as_floats():
    knots = ((0.0, 0.0), (1.0, 1.0), (2.0, 0.0))
    rows = [[0, 2, -1, 0], [1, 0, -1, 0]]
    tables = (np.array(rows), rows, tuple(map(tuple, rows)))
    models = [SplineModel(knots, table) for table in tables]
    for model in models:
        assert model == models[0] and hash(model) == hash(models[0])
        assert model.coefficients == ((0.0, 2.0, -1.0, 0.0), (1.0, 0.0, -1.0, 0.0))
        assert {type(v) for row in model.coefficients for v in row} == {float}
        assert eval_spline(model, 1.5) == 0.75


# dense_grid


def test_dense_grid_endpoints_only():
    model = fit_natural_spline(make_series([0.0, 10.0], [1.0, 2.0]))
    grid = dense_grid(model, 2)
    assert grid.t == (0.0, 10.0)
    assert grid.source == "spline"


def test_dense_grid_five_points_unit_span():
    model = fit_natural_spline(make_series([0.0, 1.0], [0.0, 1.0]))
    grid = dense_grid(model, 5)
    assert grid.t == (0.0, 0.25, 0.5, 0.75, 1.0)


def test_dense_grid_resolution_too_small(od_series):
    model = fit_natural_spline(od_series)
    with pytest.raises(ResolutionTooSmall):
        dense_grid(model, 1)
    with pytest.raises(ResolutionTooSmall):
        poly_curve(fit_polynomial(od_series, 1), od_series.t[0], od_series.t[-1], 1)


@pytest.mark.parametrize(
    "resolution", [_MAX_POINTS + 1, 2**63, 10**400], ids=["max+1", "2**63", "10**400"]
)
def test_grid_beyond_one_array_is_typed(od_series, resolution):
    # numpy raised a bare ValueError at 10**400 and an IndexError at 2**63
    model = fit_natural_spline(od_series)
    with pytest.raises(ResolutionTooLarge, match=f"at most {_MAX_POINTS} points"):
        dense_grid(model, resolution)
    with pytest.raises(ResolutionTooLarge, match=f"at most {_MAX_POINTS} points"):
        poly_curve(fit_polynomial(od_series, 1), od_series.t[0], od_series.t[-1], resolution)
    with pytest.raises(ResolutionTooLarge):
        dense_grid(fit_lagrange(od_series), resolution)


def test_scalar_t_evaluates_one_row(od_series):
    model = fit_natural_spline(od_series)
    for t in (od_series.t[3] + 0.25, np.float64(-5.0), np.array(1e9)):
        for order in (0, 1, 2):
            value = _evaluate(model, t, order)
            assert value.shape == ()
            assert value == _evaluate(model, np.array([t]), order)[0]


@pytest.mark.parametrize("order", [0, 1, 2])
def test_array_route_matches_scalar_evaluation(order):
    # flat (with a signed zero) at one end, sloped and curved at the other, each taken as
    # the left end; the boundary slope is computed only outside the span, so inside
    # points add nothing and warn nothing
    flat, sloped = (1.0, -0.0, 0.0, 0.0), (1.0, 0.25, 0.5, -0.125)
    knots = ((0.0, 1.0), (1.0, 1.0), (3.0, 2.0))
    ts = [-math.inf, -1e300, -2.0, -1e-300, -0.0, 0.0, 0.5, 1.0, 2.9, 3.0, 3.5, 1e300,
          math.inf, math.nan]
    for coefficients in ((flat, sloped), (sloped, flat)):
        model = SplineModel(knots=knots, coefficients=coefficients)
        expected = [scalar_spline(model, t, order).hex() for t in ts]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = _evaluate(model, np.array(ts), order)
            scalars = [_evaluate(model, np.array(t), order) for t in ts]
            per_point = [_evaluate_scalar(model, t, order) for t in ts]
        assert [v.hex() for v in values.tolist()] == expected
        assert [v.hex() for v in per_point] == expected
        assert all(value.shape == () for value in scalars)
        assert [float(v).hex() for v in scalars] == expected


def test_dense_grid_sources(od_series):
    assert dense_grid(fit_natural_spline(od_series), 10).source == "spline"
    assert dense_grid(fit_smoothing_spline(od_series, 2.0), 10).source == "smoothing"
    assert dense_grid(fit_lagrange(od_series), 10).source == "lagrange"


def test_fixture_overshoot_above_9_8(od_series):
    grid = dense_grid(fit_natural_spline(od_series), 1000)
    assert max(grid.y) > 9.8


def test_curve_samples_validate_uniformity():
    with pytest.raises(ValueError):
        CurveSamples(t=(0.0, 1.0, 3.0), y=(0.0, 0.0, 0.0), source="spline")
    with pytest.raises(ValueError, match="equal length"):
        CurveSamples(t=(0.0, 1.0, 2.0), y=(0.0, 0.0), source="spline")


def test_curve_samples_reject_an_uneven_or_repeating_grid():
    # the last grid repeats a point by less than the 1e-9 step slack
    message = "grid must be strictly increasing with uniform step"
    for t in ([0.0, 1.0, 3.0], [0.0, 1e-10, 0.5e-10], [0.0, 1e-10, 1e-10]):
        with pytest.raises(ValueError, match=message):
            CurveSamples(t=t, y=[0.0, 0.0, 0.0], source="spline")


@pytest.mark.parametrize("offset", [0.0, 7.3e5, 1e7, 1.7e9, -1.7e9, 1e15])
def test_grids_far_from_t_zero_are_the_linspace_grid(offset):
    # at 1.7e9 (an hour of knots in Unix seconds) the rounding of np.linspace's own
    # points exceeded the step slack, and all three curves raised ValueError
    series = make_series([offset, offset + 1800, offset + 3600], [1.0, 3.0, 2.0])
    grid = np.linspace(offset, offset + 3600, 1000)
    curves = [
        dense_grid(fit_natural_spline(series), 1000),
        poly_curve(fit_polynomial(series, 1), offset, offset + 3600, 1000),
        sample_harmonic(HarmonicSpec(), IndexMap.spanning(offset, offset + 3600), grid),
    ]
    for curve in curves:
        assert curve.grid.tobytes() == grid.tobytes()


def test_span_too_narrow_for_the_grid_is_typed():
    # two knots two floats apart hold three distinct grid points, not 50
    start = 1e6
    middle = math.nextafter(start, math.inf)
    end = math.nextafter(middle, math.inf)
    series = make_series([start, end], [1.0, 2.0])
    message = "too narrow for 50 distinct grid points"
    for model in (fit_natural_spline(series), fit_lagrange(series)):
        with pytest.raises(ResolutionTooLarge, match=message):
            dense_grid(model, 50)
        assert dense_grid(model, 3).t == (start, middle, end)
        with pytest.raises(ResolutionTooSmall):  # the grid size is still checked first
            dense_grid(model, 1)
    poly = fit_polynomial(series, 1)
    with pytest.raises(ResolutionTooLarge, match=message):
        poly_curve(poly, start, end, 50)
    assert poly_curve(poly, start, end, 3).t == (start, middle, end)
    with pytest.raises(ValueError, match="strictly increasing"):  # a falling span is no grid
        poly_curve(poly, end, start, 50)


def test_curve_samples_hold_read_only_float_arrays():
    # an int grid and -0.0 values; arrays, lists and tuples give the same curve
    t, y = [2, 4, 6, 8], [1, -0.0, 2.5, 0]
    given = np.array(t)
    curves = [CurveSamples(t=given, y=np.array(y), source="spline")] + [
        CurveSamples(t=kind(t), y=kind(y), source="spline") for kind in (list, tuple)
    ]
    for curve in curves:
        assert curve == curves[0] and hash(curve) == hash(curves[0])
        assert repr(curve) == repr(curves[0])
        assert curve.t == (2.0, 4.0, 6.0, 8.0) and curve.y == (1.0, -0.0, 2.5, 0.0)
        assert {type(v) for v in curve.t + curve.y} == {float}
        for array, view in ((curve.grid, curve.t), (curve.values, curve.y)):
            assert array.dtype == np.float64 and not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 5.0
            assert [float(v).hex() for v in array] == [v.hex() for v in view]
    assert curves[0] != CurveSamples(t=t, y=y, source="regression")
    given[0] = 0  # the curve keeps its own copy
    assert curves[0].t[0] == 2.0 and given.flags.writeable


# extrema


def test_extrema_whose_discriminant_rounds_to_zero_are_kept():
    # f'(s) = 3d s^2 + 2c s + b has two roots 0.018 apart where |f''| is about 0.1, but its
    # discriminant rounds to exactly 0: the pair is reported as one stationary point, not lost
    b, c, d = 30135454877077.605, -12670796.555794422, 1.7758604276724412
    qa, qb, qc = 3.0 * d, 2.0 * c, b
    assert qb * qb - 4.0 * qa * qc == 0.0
    exact = Fraction(qb) ** 2 - 4 * Fraction(qa) * Fraction(qc)
    assert math.sqrt(exact) > 0.09 and math.sqrt(exact) / qa > 0.018
    s = -qb / (2.0 * qa)
    model = SplineModel(((0.0, 0.0), (4.0 * s, 1.0)), [[0.0, b, c, d]])
    [point] = spline_extrema(model)
    assert point.t == s


def test_symmetric_hump_has_single_interior_max():
    model = fit_natural_spline(make_series([0.0, 1.0, 2.0], [0.0, 1.0, 0.0]))
    extrema = spline_extrema(model)
    assert len(extrema) == 1
    assert extrema[0].kind == "max"
    assert extrema[0].t == pytest.approx(1.0, abs=1e-12)
    assert extrema[0].y == pytest.approx(1.0, abs=1e-12)


def test_straight_line_has_no_extrema():
    t = np.array([0.0, 4.0, 9.0, 15.0])
    model = fit_natural_spline(make_series(t, 2.0 + 0.5 * t))
    assert spline_extrema(model) == []


def test_stationary_inflection_is_excluded():
    # f(s) = s^3 - 3 s^2 + 3 s has f'(1) = 0 with f''(1) = 0: a flat
    # stationary point, not an extremum
    model = SplineModel(
        knots=((0.0, 0.0), (10.0, 730.0)),
        coefficients=((0.0, 3.0, -3.0, 1.0),),
    )
    assert spline_extrema(model) == []


def test_junction_root_counted_once():
    # both segments are parabolas meeting at t = 1 with zero slope
    model = SplineModel(
        knots=((0.0, 0.0), (1.0, 1.0), (2.0, 0.0)),
        coefficients=((0.0, 2.0, -1.0, 0.0), (1.0, 0.0, -1.0, 0.0)),
    )
    extrema = spline_extrema(model)
    assert len(extrema) == 1
    assert extrema[0] == (1.0, 1.0, "max")


def test_fixture_maximum_sits_between_spring_knots(od_series):
    model = fit_natural_spline(od_series)
    maxima = [e for e in spline_extrema(model) if e.kind == "max"]
    # knots at 196 (3/25/2004) and 263 (5/31/2004) bracket the peak
    assert any(196.0 < e.t < 263.0 for e in maxima)


def test_extrema_are_sound_and_complete():
    rng = np.random.default_rng(55)
    for _ in range(40):
        n = int(rng.integers(3, 25))
        t, y = random_knots(rng, n)
        model = fit_natural_spline(make_series(t, y))
        extrema = spline_extrema(model)
        for e in extrema:
            assert t[0] < e.t < t[-1]
            assert abs(eval_spline_derivative(model, e.t, 1)) <= 1e-8
            assert e.y == pytest.approx(eval_spline(model, e.t), abs=1e-12)
        # every strict sign change of f' on a dense grid is matched
        grid = np.linspace(t[0], t[-1], 10 * n)
        cell = grid[1] - grid[0]
        slopes = [eval_spline_derivative(model, float(g), 1) for g in grid]
        for i in range(len(grid) - 1):
            if slopes[i] * slopes[i + 1] < 0.0:
                assert any(
                    grid[i] - cell <= e.t <= grid[i + 1] + cell for e in extrema
                ), f"missed sign change in [{grid[i]}, {grid[i + 1]}]"


def test_extrema_sorted_by_time(od_series):
    model = fit_natural_spline(od_series)
    ts = [e.t for e in spline_extrema(model)]
    assert ts == sorted(ts)


def test_translation_equivariance():
    rng = np.random.default_rng(808)
    t, y = random_knots(rng, 9)
    t = np.round(t * 4.0) / 4.0  # quarter-day knots survive the shift exactly
    t = np.unique(t)
    y = y[: t.size]
    base = fit_natural_spline(make_series(t, y))
    shifted = fit_natural_spline(make_series(t + 1000.0, y))
    base_extrema = spline_extrema(base)
    shifted_extrema = spline_extrema(shifted)
    assert len(base_extrema) == len(shifted_extrema)
    for e, f in zip(base_extrema, shifted_extrema):
        assert f.t - e.t == pytest.approx(1000.0, abs=1e-9)
        assert f.y == pytest.approx(e.y, abs=1e-9)
        assert f.kind == e.kind


# derivatives


def test_derivative_matches_finite_differences():
    rng = np.random.default_rng(99)
    t, y = random_knots(rng, 8)
    model = fit_natural_spline(make_series(t, y))
    h = 1e-5
    for probe in np.linspace(t[0] + 0.1, t[-1] - 0.1, 61):
        probe = float(probe)
        fd1 = (eval_spline(model, probe + h) - eval_spline(model, probe - h)) / (2 * h)
        fd2 = (
            eval_spline(model, probe + h)
            - 2 * eval_spline(model, probe)
            + eval_spline(model, probe - h)
        ) / (h * h)
        d1 = eval_spline_derivative(model, probe, 1)
        d2 = eval_spline_derivative(model, probe, 2)
        assert abs(fd1 - d1) <= 1e-5 * (1.0 + abs(d1))
        assert abs(fd2 - d2) <= 1e-4 * (1.0 + abs(d2))


def test_unsupported_derivative_order(od_series):
    model = fit_natural_spline(od_series)
    with pytest.raises(UnsupportedOrder):
        eval_spline_derivative(model, 10.0, 3)
    with pytest.raises(UnsupportedOrder):
        eval_spline_derivative(model, 10.0, 0)


def _exact(extrema):
    return [(e.t.hex(), e.y.hex(), e.kind) for e in extrema]


def test_extrema_match_scalar_reference():
    rng = np.random.default_rng(2024)
    for _ in range(60):
        n = int(rng.integers(2, 80))
        t, y = random_knots(rng, n)
        if rng.random() < 0.3:
            y = np.round(y / 4.0)  # plateaus
        series = make_series(t + rng.choice([0.0, 1000.0]), y)
        for lam in (0.0, 0.5, 50.0, 1e6) if n > 2 else (0.0,):
            model = fit_smoothing_spline(series, lam)
            extrema = spline_extrema(model)
            assert _exact(extrema) == _exact(scalar_extrema(model))
            assert all(type(e) is Extremum for e in extrema)


@pytest.mark.parametrize(
    "coefficients",
    [
        ((1.0, 2.0, -1.0, 0.0), (2.0, 0.0, -1.0, 0.0)),  # d == 0: parabolas
        ((1.0, 0.0, 0.0, 0.0), (1.0, 2.0, 0.0, 0.0)),  # c == d == 0: flat and linear
        ((0.0, 3.0, -3.0, 1.0), (1.0, 0.0, 0.0, 0.0)),  # zero discriminant at s = 1
        ((0.0, 1.0, -1.5, 0.5), (0.0, -0.5, 0.0, 0.5)),  # roots on and past a junction
        ((0.0, -3.0, 0.0, 1.0), (-2.0, 0.0, 3.0, -1.0)),  # two roots, one per segment end
        ((0.0, 1.0, -0.25, 0.0), (1.0, 2e-13, 1.0, 0.0)),  # root 1e-13 before a knot snaps
        ((0.0, -3.999999999998, 1.0, 0.0), (0.0, 1e-12, 1.0, 0.0)),  # minima 1e-12 apart merge
        # 2 - 1e-12, 2 + 6e-10 and 2 + 1.2e-9: the middle one merges into the first, and
        # the last is kept, as it is more than 1e-9 from the first
        ((0.0, -3.999999999998, 1.0, 0.0), (0.0, 2.16e-18, -2.7e-9, 1.0)),
    ],
)
def test_extrema_of_hand_built_segments_match_scalar_reference(coefficients):
    model = SplineModel(knots=((0.0, 0.0), (2.0, 0.0), (4.0, 0.0)), coefficients=coefficients)
    assert _exact(spline_extrema(model)) == _exact(scalar_extrema(model))


def test_coefficients_are_tuples_of_python_floats(od_series):
    model = fit_natural_spline(od_series)
    assert all(type(row) is tuple and len(row) == 4 for row in model.coefficients)
    assert {type(v) for row in model.coefficients for v in row} == {float}


@pytest.mark.parametrize(
    "big, lam, row",
    [(1e308, 0.0, None), (1e300, 1e308, None), (1e308, 50.0, None),
     (1.0, 0.0, (math.nan, 1.0, 0.0, 0.0)), (1.0, 0.0, (0.0, 1.0, math.inf, 0.0))],
    ids=["natural", "lam", "smooth", "nan-row", "inf-row"],
)
def test_non_finite_fit_is_typed_and_silent(big, lam, row):
    # a hand-built nan or inf row evaluated nan and found no extrema
    series = make_series([0.0, 1.0, 2.0, 3.0], [big, -big, big, -big])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericOverflow):
            if row is None:
                fit_smoothing_spline(series, lam)
            else:
                SplineModel(series.knots, (row,) * 3)


def test_overflowing_curve_is_typed():
    # finite coefficients whose cubic overshoots the float range between knots
    peak = 1.6467945348926161e308
    model = fit_natural_spline(make_series([0.0, 6.0, 10.0, 11.0], [0.0, peak, 0.0, 0.0]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericOverflow):
            dense_grid(model, 1000)


def test_curve_samples_beyond_the_float_range_are_typed():
    # float() of an int past the float range raised a bare OverflowError
    with pytest.raises(NumericOverflow):
        CurveSamples(t=[10**400, 10**401], y=[0.0, 1.0], source="x")
    with pytest.raises(NumericOverflow):
        CurveSamples(t=[0.0, 1.0], y=[0.0, -10**400], source="x")


BEYOND = 10**400  # an int that float() cannot convert


def _small_series():
    return make_series([0.0, 1.0, 2.0, 3.0], [1.0, 3.0, 2.0, 4.0])


def _on_curve(route, spec=HarmonicSpec(), index_map=IndexMap(64.0)):
    """A harmonic route on a spline curve of the small series."""
    curve = dense_grid(fit_natural_spline(_small_series()), 5)
    if route is sample_harmonic:
        return route(spec, index_map, curve.grid)
    return route(curve, spec, index_map)


_HARMONIC_ROUTES = {"sample": sample_harmonic, "fit": fit_amplitude_offset,
                    "compare": compare_to_harmonic}
_HARMONIC_BEYOND = {
    "angular": {"spec": HarmonicSpec(angular_coeff=BEYOND)},
    "exponent": {"spec": HarmonicSpec(exponent=BEYOND)},
    "index-map": {"index_map": IndexMap(BEYOND)},
    "amplitude": {"spec": HarmonicSpec(amplitude=BEYOND)},  # the fit replaces amplitude
    "offset": {"spec": HarmonicSpec(offset=-BEYOND)},  # and offset
}
_HARMONIC_CASES = {
    f"{route}-{field}": partial(_on_curve, _HARMONIC_ROUTES[route], **change)
    for route in _HARMONIC_ROUTES for field, change in _HARMONIC_BEYOND.items()
    if not (route == "fit" and field in ("amplitude", "offset"))
}


@pytest.mark.parametrize(
    "build",
    [
        lambda: SplineModel(((0.0, 1.0), (BEYOND, 2.0)), [[0.0, 0.0, 0.0, 0.0]]),
        lambda: SplineModel(((0.0, 1.0), (1.0, 2.0)), [[BEYOND, 0, 0, 0]]),
        lambda: SplineModel(((0.0, 1.0), (1.0, BEYOND)), [[0.0, 0.0, 0.0, 0.0]]),
        lambda: TimeSeries("s", "p", ((0.0, 1.0), (BEYOND, 2.0)), EPOCH),
        lambda: TimeSeries("s", "p", ((0.0, 1.0), (1.0, -BEYOND)), EPOCH),
        lambda: LagrangeModel(((0.0, BEYOND),), [1.0]),
        lambda: LagrangeModel(((BEYOND, 1.0),), [1.0]),
        lambda: LagrangeModel(((0.0, 1.0),), [BEYOND]),
        lambda: PlotLayer("curve", [(0, 1), (1, BEYOND)], "red"),
        lambda: marker_layer([(0, BEYOND)], "red"),
        lambda: TridiagonalSystem([1.0], [1.0, BEYOND], [1.0], [1.0, 1.0]),
        lambda: TridiagonalSystem([], [1.0], [], [BEYOND]),
        lambda: LeastSquaresProblem([[1.0], [BEYOND]], [1.0, 2.0]),
        lambda: LeastSquaresProblem([[1.0], [2.0]], [1.0, BEYOND]),
        lambda: IndexMap.spanning(0, BEYOND),
        lambda: IndexMap.spanning(BEYOND, BEYOND + 5),
        lambda: Dataset("s", ("a",), (EPOCH,), ((BEYOND,),), "x"),
        lambda: eval_poly(fit_polynomial(_small_series(), 1), BEYOND),
        lambda: poly_curve(fit_polynomial(_small_series(), 1), 0.0, BEYOND, 3),
        lambda: eval_lagrange(fit_lagrange(_small_series()), BEYOND),
        lambda: fit_smoothing_spline(_small_series(), BEYOND),
        *_HARMONIC_CASES.values(),
    ],
    ids=["spline-knot", "spline-coefficient", "spline-value", "series-time", "series-value", "lagrange-value",
         "lagrange-time", "lagrange-weight", "layer", "marker-layer", "tridiagonal",
         "tridiagonal-rhs", "lstsq-design", "lstsq-targets", "index-span", "index-offset",
         "dataset-cell", "eval-poly", "poly-curve", "eval-lagrange", "smoothing-lam",
         *_HARMONIC_CASES],
)
def test_ints_beyond_the_float_range_are_typed(build):
    # converting the int raised a bare OverflowError (a TypeError for a Lagrange
    # knot value, from np.isfinite on a list, and for a poly_curve end, from the
    # grid's subtraction)
    with pytest.raises(NumericOverflow):
        build()


def test_ints_in_the_float_range_keep_their_bits_and_types():
    series = _small_series()
    poly, lagrange = fit_polynomial(series, 2), fit_lagrange(series)
    assert type(eval_poly(poly, 2)) is float
    assert eval_poly(poly, 2).hex() == eval_poly(poly, 2.0).hex()
    curves = poly_curve(poly, 0, 3, 4), poly_curve(poly, 0.0, 3.0, 4)
    assert curves[0].values.tobytes() == curves[1].values.tobytes()
    assert eval_lagrange(lagrange, 2).hex() == eval_lagrange(lagrange, 2.0).hex()
    smooth = fit_smoothing_spline(series, 3)
    assert smooth._table.tobytes() == fit_smoothing_spline(series, 3.0)._table.tobytes()
    assert type(smooth.smoothing) is float


@pytest.mark.parametrize(
    "t", [1e308, -1e308, BEYOND, -BEYOND], ids=["1e308", "-1e308", "int", "-int"]
)
def test_overflowing_extension_is_typed_and_silent(t):
    # the linear extension slope * (t - 2) overflowed, warned and returned inf
    model = fit_natural_spline(make_series([0.0, 1.0, 2.0], [0.0, 10.0, 20.0]))
    with pytest.raises(NumericOverflow):
        eval_spline(model, t)
    assert eval_spline(model, math.inf) == math.inf
    assert eval_spline(model, -math.inf) == -math.inf
    assert eval_spline(model, 1e300) == 10.0 * 1e300


def test_poly_and_lagrange_overflow_at_a_finite_t_is_typed(od_series):
    # these returned an infinity (a numpy float t also warned) where eval_spline raises
    poly, lagrange = fit_polynomial(od_series, 3), fit_lagrange(od_series)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cases = [(eval_poly, poly, 1e308), (eval_poly, poly, np.float64(-1e308)),
                 (eval_lagrange, lagrange, 1e300)]
        for evaluate, model, t in cases:
            with pytest.raises(NumericOverflow, match="leaves the float range at this t"):
                evaluate(model, t)
        # an infinite or nan t and an array t keep what the arithmetic gives
        for t in (math.inf, math.nan):
            assert math.isnan(eval_poly(poly, t)) and math.isnan(eval_lagrange(lagrange, t))
        assert eval_poly(poly, np.array([0.0, 1e308]))[1] == -math.inf
        with pytest.raises(NumericOverflow):  # np.linspace warned over this span
            poly_curve(poly, -1e308, 1e308, 3)


def test_non_finite_value_at_an_infinite_t_is_typed():
    # 3 * d overflows, so the boundary slope is nan; the extension to -inf was nan
    model = SplineModel(((0.0, 0.0), (1.0, 1.0)), [[0.0, 1e308, 1e308, 1e308]])
    with pytest.raises(NumericOverflow):
        eval_spline(model, -math.inf)
    assert math.isfinite(eval_spline(model, 0.5))  # inside the span only the value counts


@pytest.mark.parametrize(
    "order, t",
    [(1, 0.5), (2, 0.5), (1, 1e308), (1, math.inf), (1, BEYOND), (2, -BEYOND)],
    ids=["slope", "curvature", "slope-1e308", "slope-inf", "int", "-int"],
)
def test_overflowing_derivative_is_typed_and_silent(order, t):
    # 3 * d and 6 * d overflow: the derivative warned and returned inf, and an
    # int t beyond the float range raised a bare OverflowError
    model = SplineModel(((0.0, 0.0), (1.0, 1.0)), [[0.0, 1e308, 1e308, 1e308]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericOverflow):
            eval_spline_derivative(model, t, order)
        assert eval_spline_derivative(model, 1e308, 2) == 0.0  # no curvature outside the span
        assert math.isnan(eval_spline_derivative(model, math.nan, 1))


def test_extremum_kinds_are_two_shared_strings(od_series):
    # the kinds came from a '<U3' array, a new str for every extremum
    series = make_series(*random_knots(np.random.default_rng(5), 1800, t_span=3600.0))
    extrema = spline_extrema(fit_natural_spline(od_series)) + spline_extrema(
        fit_natural_spline(series))
    assert len(extrema) > 100 and {e.kind for e in extrema} == {"min", "max"}
    assert len({id(e.kind) for e in extrema}) == 2


def test_overflowing_extremum_is_typed_and_silent():
    # finite coefficients whose stationary-point products overflow: the search
    # warned and reported a minimum at y = -inf
    series = make_series([0.0, 1e-12, 1e6, 1e15, 1e300], [1e15, -1.0, 1.7e308, 1e300, 5e-324])
    model = fit_natural_spline(series)
    with pytest.raises(NumericOverflow):
        spline_extrema(model)


def test_single_knot_lagrange_has_no_grid():
    model = fit_lagrange(make_series([3.0], [1.0]))
    with pytest.raises(TooFewKnots):
        dense_grid(model, 10)


def test_fitted_arrays_equal_arrays_built_from_the_tuples(od_series):
    rng = np.random.default_rng(77)
    for series in (od_series, make_series(*random_knots(rng, 1800, t_span=3600.0))):
        for lam in (0.0, 50.0):
            model = fit_smoothing_spline(series, lam)
            hand_built = SplineModel(model.knots, model.coefficients, model.smoothing)
            for seeded, built in zip((model._times, model._table),
                                     (hand_built._times, hand_built._table)):
                assert (seeded.dtype, seeded.shape) == (built.dtype, built.shape)
                assert seeded.tobytes() == built.tobytes()
            assert model == hand_built
            assert repr(model) == repr(hand_built)
            # the table is the one stored copy; the tuples are built when first read
            model = fit_smoothing_spline(series, lam)
            assert "coefficients" not in vars(model)
            assert hash(model) == hash((model.knots, model.coefficients, model.smoothing))
            assert repr(model) == (f"SplineModel(knots={model.knots!r}, "
                                   f"coefficients={model.coefficients!r}, "
                                   f"smoothing={model.smoothing!r})")


def _value_types(od_series):
    model = fit_natural_spline(od_series)
    curve = dense_grid(model, 50)
    return {"series": od_series, "model": model, "curve": curve,
            "lagrange": fit_lagrange(od_series), "dataset": gropeni_dataset(),
            "layer": curve_layer(curve, "red", "spline")}


# the lazy tuple view of each value type that has one
_VIEWS = {"model": "coefficients", "curve": "t", "lagrange": "weights", "dataset": "rows",
          "layer": None}


def _arrays(value):
    return [a for a in vars(value).values() if isinstance(a, np.ndarray)]


@pytest.mark.parametrize("kind", ["series", "model", "curve", "lagrange", "dataset", "layer"])
@pytest.mark.parametrize(
    "duplicate",
    [copy.copy, copy.deepcopy, lambda value: pickle.loads(pickle.dumps(value))],
    ids=["copy", "deepcopy", "pickle"],
)
def test_copies_are_equal_with_read_only_arrays(od_series, kind, duplicate):
    # a deep copy or a pickle round trip gave writeable arrays
    value = _value_types(od_series)[kind]
    duplicated = duplicate(value)
    if kind == "layer":
        assert (duplicated.kind, duplicated.color, duplicated.label) == ("curve", "red", "spline")
        assert duplicated.points.tobytes() == value.points.tobytes()
    else:
        assert duplicated == value
    assert _arrays(duplicated) and not any(a.flags.writeable for a in _arrays(duplicated))


@pytest.mark.parametrize("kind", list(_VIEWS))
def test_models_and_curves_are_frozen_values_not_dataclasses(od_series, kind):
    # they declared dataclass fields their constructors do not take, so replace()
    # failed with a misleading missing- or unexpected-argument TypeError
    value = _value_types(od_series)[kind]
    assert not dataclasses.is_dataclass(value)
    with pytest.raises(TypeError, match="dataclass"):
        dataclasses.replace(value, source="x")
    with pytest.raises(dataclasses.FrozenInstanceError):
        value.knots = ()
    with pytest.raises(dataclasses.FrozenInstanceError):
        del value.values
    # the lazy tuple views are still built on first read, and only then
    view = _VIEWS[kind]
    if view is not None:
        assert view not in vars(value)
        assert getattr(value, view) == getattr(value, view) and view in vars(value)
