"""Cubic spline and barycentric Lagrange models over a day-count axis.

The interpolating spline is built in moment (second-derivative) form:
natural end conditions pin the end moments to zero, the interior moments
solve a tridiagonal system, and per-segment cubic coefficients are
recovered from the moments.  The smoothing variant penalizes integrated
squared curvature with weight ``lam`` and collapses to the interpolant at
``lam = 0`` and to the least-squares line as ``lam`` grows.
:func:`dense_grid` returns a ``series.CurveSamples`` and checks its size by
the grid-size rules that ``series`` keeps.
"""

import math
from functools import cached_property
from itertools import repeat
from typing import NamedTuple

import numpy as np

from .errors import (
    NegativeLambda,
    NumericOverflow,
    TooFewKnots,
    UnsupportedOrder,
    WeightOverflow,
    typed_overflow,
)
from .linalg import TridiagonalSystem, solve_banded_spd, solve_tridiagonal
from .series import (CurveSamples, TimeSeries, _check_resolution, _check_span, _knot_arrays,
                     _tuple_view, _Value)

#: stationary points with |f''| at or below this are treated as flat and dropped
FLAT_CURVATURE_TOL = 1e-10

#: evaluation points this close to a knot (in days) return the knot value
KNOT_SNAP_TOL = 1e-12

#: the kinds of extrema, indexed by "is a maximum"; every Extremum shares these two strs
_KINDS = np.array(("min", "max"), dtype=object)
_KINDS.flags.writeable = False


class SplineModel(_Value):
    """Piecewise cubic f(t) = a + b s + c s^2 + d s^3, s = t - t_i per segment.

    ``knots`` keeps the data the model was fitted to; for a smoothing fit
    the curve passes through fitted values, not through ``knots``.  Outside
    the knot span the model extends linearly with the boundary slope.  For
    n >= 2 knots, any finite (n-1, 4) coefficient table is stored once, as a
    read-only float64 array; ``coefficients`` is a tuple view of it, built on
    first use.
    ``smoothing`` is the fit's lam.
    """

    def __init__(self, knots, coefficients, smoothing: float = 0.0) -> None:
        knots, times, _ = _knot_arrays(knots)
        with typed_overflow("spline coefficients leave the float range"):
            table = np.array(coefficients, dtype=float)
        if times.size < 2 or table.shape != (times.size - 1, 4):
            raise ValueError("a spline needs 2 or more knots and one coefficient row per segment")
        if not np.isfinite(table).all():
            raise NumericOverflow("spline coefficients overflow the float range for these values")
        table.flags.writeable = False
        vars(self).update(knots=knots, smoothing=smoothing, _times=times, _table=table)

    @cached_property
    def coefficients(self) -> tuple[tuple[float, float, float, float], ...]:
        return tuple(zip(*self._table.T.tolist()))


class LagrangeModel(_Value):
    """Single global interpolating polynomial in barycentric form, kept as read-only arrays."""

    def __init__(self, knots, weights) -> None:
        knots, times, values = _knot_arrays(knots)
        if not times.size or len(weights) != times.size:
            raise ValueError("a Lagrange model needs at least one knot and one weight per knot")
        with typed_overflow("Lagrange weights leave the float range"):
            weights = np.array(weights, dtype=float)
        if not (np.isfinite(weights) & (weights != 0.0)).all():
            raise WeightOverflow("barycentric weights overflow for this knot layout")
        weights.flags.writeable = False
        vars(self).update(knots=knots, _times=times, _ys=values, _weights=weights)

    weights = _tuple_view("_weights")


class Extremum(NamedTuple):
    t: float
    y: float
    kind: str  # "max" | "min"


def _natural_moments(t: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Second derivatives at the knots under natural end conditions.

    Interior moments solve the tridiagonal system with rows
    h_{i-1}/6, (h_{i-1}+h_i)/3, h_i/6 against the divided second
    differences of y; the end moments are exactly zero.
    """
    n = t.size
    moments = np.zeros(n)
    if n > 2:
        h = np.diff(t)
        rhs = (y[2:] - y[1:-1]) / h[1:] - (y[1:-1] - y[:-2]) / h[:-1]
        system = TridiagonalSystem(
            lower=h[1:-1] / 6.0,
            diag=(h[:-1] + h[1:]) / 3.0,
            upper=h[1:-1] / 6.0,
            rhs=rhs,
        )
        moments[1:-1] = solve_tridiagonal(system)
    return moments


def _model_from_moments(
    series: TimeSeries, values: np.ndarray, moments: np.ndarray, lam: float
) -> SplineModel:
    """The spline through ``values`` at the series' times with these moments."""
    h = np.diff(series.times)
    a = values[:-1]
    b = (values[1:] - values[:-1]) / h - h * (2.0 * moments[:-1] + moments[1:]) / 6.0
    c = moments[:-1] / 2.0
    d = (moments[1:] - moments[:-1]) / (6.0 * h)
    return SplineModel(series.knots, np.column_stack((a, b, c, d)), float(lam))


@np.errstate(over="ignore", invalid="ignore")  # a non-finite fit raises NumericOverflow
def fit_natural_spline(series: TimeSeries) -> SplineModel:
    """Interpolating natural cubic spline through the series knots.

    Needs at least two knots; two knots give a straight segment.  The
    result is C2 across junctions with zero second derivative at both ends,
    so the curve continues linearly at the extremes.
    """
    if len(series.knots) < 2:
        raise TooFewKnots("an interpolating spline needs at least 2 knots")
    t, y = series.times, series.values
    return _model_from_moments(series, y, _natural_moments(t, y), 0.0)


@np.errstate(over="ignore", invalid="ignore")
def fit_smoothing_spline(series: TimeSeries, lam: float) -> SplineModel:
    """Natural cubic smoothing spline minimizing misfit plus lam * curvature.

    Minimizes sum (y_i - f(t_i))^2 + lam * integral of f''(t)^2 over all
    natural cubic splines on the knots.  ``lam = 0`` reproduces the
    interpolating spline; as lam grows the fitted knot values approach the
    least-squares straight line.

    The stationarity conditions reduce to a pentadiagonal system in the
    interior moments gamma: (R + lam Q^T Q) gamma = Q^T y with fitted knot
    values y - lam Q gamma, where R is the moment matrix above and Q^T the
    divided second-difference operator.
    """
    if not lam >= 0:
        raise NegativeLambda(f"smoothing weight must be >= 0, got {lam}")
    with typed_overflow("smoothing weight leaves the float range"):
        lam = float(lam)
    n = len(series.knots)
    if lam == 0:
        return fit_natural_spline(series)
    if n < 3:
        raise TooFewKnots("a smoothing spline with lam > 0 needs at least 3 knots")
    t, y = series.times, series.values
    h = np.diff(t)
    ih = 1.0 / h
    m = n - 2
    # lower band storage of R + lam Q^T Q (bandwidth 2)
    bands = np.zeros((3, m))
    bands[0] = (h[:-1] + h[1:]) / 3.0 + lam * (
        ih[:-1] ** 2 + (ih[:-1] + ih[1:]) ** 2 + ih[1:] ** 2
    )
    bands[1, : m - 1] = h[1:-1] / 6.0 - lam * ih[1:-1] * (ih[:-2] + 2.0 * ih[1:-1] + ih[2:])
    bands[2, : m - 2] = lam * ih[1:-2] * ih[2:-1]
    rhs = (y[2:] - y[1:-1]) * ih[1:] - (y[1:-1] - y[:-2]) * ih[:-1]
    gamma = solve_banded_spd(bands, rhs)
    # fitted knot values: y - lam * Q gamma
    q_gamma = np.zeros(n)
    q_gamma[:m] += gamma * ih[:-1]
    q_gamma[1 : m + 1] -= gamma * (ih[:-1] + ih[1:])
    q_gamma[2 : m + 2] += gamma * ih[1:]
    fitted = y - lam * q_gamma
    moments = np.zeros(n)
    moments[1:-1] = gamma
    return _model_from_moments(series, fitted, moments, lam)


def _cubic(rows: np.ndarray, s: np.ndarray, order: int) -> np.ndarray:
    """Value (order 0), slope (1) or curvature (2) of a + b s + c s^2 + d s^3 per row."""
    a, b, c, d = rows.T
    if order == 2:
        return 6.0 * d * s + 2.0 * c
    if order == 1:
        return (3.0 * d * s + 2.0 * c) * s + b
    return ((d * s + c) * s + b) * s + a


def _evaluate(model: SplineModel, t: float | np.ndarray, order: int) -> np.ndarray:
    """Value (order 0) or derivative (order 1, 2) of the spline at each of ``t``.

    Points outside the knot span are clipped to it; the value then extends
    linearly with the boundary slope, the slope stays constant and the
    curvature is zero; only those points, and nan, compute the slope.
    """
    ts, coefficients = model._times, model._table
    flat = np.asarray(t, dtype=float).reshape(-1)  # a scalar t takes the array route
    clipped = np.clip(flat, ts[0], ts[-1])
    i = np.clip(np.searchsorted(ts, clipped, side="right") - 1, 0, ts.size - 2)
    rows, s = coefficients.take(i, axis=0), clipped - ts[i]
    result, outside = _cubic(rows, s, order), np.flatnonzero(flat != clipped)
    if order == 2:
        result[outside] = 0.0
    elif order == 0 and outside.size:  # nothing to extend when every point is inside
        slope, step = _cubic(rows[outside], s[outside], 1), flat[outside] - clipped[outside]
        # a flat boundary adds a signed zero, also at an infinite t, where 0.0 * inf is nan
        step = np.where(slope == 0.0, np.sign(step), step)
        result[outside] += slope * step
    return result.reshape(np.shape(t))


_OVERFLOW = ("spline value leaves the float range at this t",
             "spline derivative leaves the float range at this t")


@np.errstate(over="ignore", invalid="ignore")  # raises NumericOverflow instead
def _checked(model: SplineModel, t: float, order: int) -> float:
    # finite, nan at a nan t, or (a value only) an infinity at an infinite t; else NumericOverflow
    with typed_overflow(_OVERFLOW[order > 0]):
        value = float(_evaluate(model, t, order))
    if math.isfinite(value) or math.isnan(t) or order == 0 and math.isinf(t) and math.isinf(value):
        return value
    raise NumericOverflow(_OVERFLOW[order > 0])


def eval_spline(model: SplineModel, t: float) -> float:
    """Evaluate the spline; outside the knot span it extends linearly.

    At t = +-inf the extension is +-inf by the sign of the boundary slope,
    or the boundary value where that slope is zero; a nan t gives nan.  Any
    other result that is not finite, such as at a finite t whose linear
    extension overflows, raises NumericOverflow, as does an int t beyond
    the float range.
    """
    return _checked(model, t, 0)


def eval_spline_derivative(model: SplineModel, t: float, order: int) -> float:
    """First or second derivative of the spline at ``t``.

    The linear extension outside the knot span keeps the boundary slope and
    has zero curvature, so the derivative at t = +-inf is that of the knot
    span's end; a nan t gives nan.  Any other result that is not finite
    raises NumericOverflow, as does an int t beyond the float range.
    Raises UnsupportedOrder for orders outside {1, 2}.
    """
    if order not in (1, 2):
        raise UnsupportedOrder(f"derivative order must be 1 or 2, got {order}")
    return _checked(model, t, order)


@np.errstate(over="ignore", divide="ignore", invalid="ignore")  # raises WeightOverflow instead
def fit_lagrange(series: TimeSeries) -> LagrangeModel:
    """Global interpolating polynomial with barycentric weights.

    w_i = 1 / prod_{j != i} (t_i - t_j); a single knot gets weight 1.  The
    products run over j in knot order, one array operation per knot, with
    an exact factor of 1.0 at j = i.  Useful only for small knot counts:
    high degrees oscillate wildly between equispaced knots.
    """
    ts = series.times
    index = np.arange(ts.size)
    prod = np.ones(ts.size)
    for j in index:
        prod *= np.where(index == j, 1.0, ts - ts[j])
    return LagrangeModel(knots=series.knots, weights=1.0 / prod)


@np.errstate(over="ignore", divide="ignore", invalid="ignore")  # inf or nan, as Python floats
def _barycentric(model: LagrangeModel, t: float | np.ndarray) -> np.ndarray:
    """The barycentric form at each of ``t``, summed in knot order.

    Inside the knot span this is the second form ``num / den``.  Outside it,
    where ``den`` cancels towards 1 / l(t), it is the first form
    ``l(t) * num`` with ``l(t) = prod (t - t_i)`` (Berrut & Trefethen, SIAM
    Review 2004).  A point within KNOT_SNAP_TOL of a knot takes the value of
    the first such knot.
    """
    t = np.asarray(t, dtype=float)
    num, den, ell = np.zeros(t.shape), np.zeros(t.shape), np.ones(t.shape)
    snapped = np.full(t.shape, -1)
    ts, ys = model._times, model._ys
    for i, (ti, yi, wi) in enumerate(zip(ts.tolist(), ys.tolist(), model._weights.tolist())):
        offset = t - ti
        snapped[(snapped < 0) & (np.abs(offset) <= KNOT_SNAP_TOL)] = i
        factor = wi / offset
        num += factor * yi
        den += factor
        ell *= offset
    outside = (t < ts[0]) | (t > ts[-1])
    return np.where(snapped < 0, np.where(outside, ell * num, num / den), ys[snapped])


def eval_lagrange(model: LagrangeModel, t: float) -> float:
    """Evaluate the barycentric form; exact at (snapped) knots.

    A result that is not finite at a finite t raises NumericOverflow, as does an
    int t beyond the float range; an infinite or nan t gives what the arithmetic
    gives.
    """
    message = "Lagrange value leaves the float range at this t"
    with typed_overflow(message):
        value = float(_barycentric(model, t))
    if math.isfinite(value) or not math.isfinite(t):
        return value
    raise NumericOverflow(message)


@np.errstate(over="ignore", invalid="ignore")  # CurveSamples rejects non-finite values
def dense_grid(model: SplineModel | LagrangeModel, resolution: int) -> CurveSamples:
    """Evaluate a model on a uniform grid of ``resolution`` points.

    The grid runs from the first to the last knot inclusive, so
    ``resolution = 2`` yields exactly the two endpoints.
    """
    _check_resolution(resolution)
    ts = model._times
    if ts.size < 2:
        raise TooFewKnots("a dense grid needs at least 2 knots")
    _check_span(ts[0], ts[-1], resolution)
    grid = np.linspace(ts[0], ts[-1], resolution)
    if isinstance(model, SplineModel):
        source = "smoothing" if model.smoothing > 0 else "spline"
        values = _evaluate(model, grid, 0)
    else:
        source, values = "lagrange", _barycentric(model, grid)
    return CurveSamples(t=grid, y=values, source=source)


def spline_extrema(model: SplineModel) -> list[Extremum]:
    """Interior local extrema of the piecewise cubic, sorted by t.

    Stationary points come from the closed-form roots of each segment's
    quadratic derivative, taken on the half-open segment so junction roots
    are counted once.  Points with |f''| <= FLAT_CURVATURE_TOL are treated
    as inflection-flat and dropped; the span endpoints are never reported.
    """
    ts, coefficients = model._times, model._table
    # two slots per segment for the ascending real roots of f'(s) = qc + qb s + qa s^2
    segment = np.repeat(np.arange(ts.size - 1), 2)
    upper = np.arange(segment.size) % 2 == 1
    rows, h = coefficients.take(segment, axis=0), np.diff(ts)[segment]
    with np.errstate(all="ignore"):  # a kept non-finite point raises NumericOverflow below
        qa, qb, qc = 3.0 * rows[:, 3], 2.0 * rows[:, 2], rows[:, 1]
        disc = qb * qb - 4.0 * qa * qc
        # split the quadratic formula to avoid cancellation between -qb and the root
        q = -(qb + np.copysign(np.sqrt(disc), qb)) / 2.0
        r1, r2 = q / qa, qc / q
        single = (qa == 0.0) | (disc == 0.0)
        s = np.where(qa == 0.0, -qc / qb, -qb / (2.0 * qa))
        # a pair of roots fills the two slots in the order sorted((r1, r2)) gives
        s = np.where(single, s, np.where((r2 < r1) != upper, r2, r1))
        exists = np.where(qa == 0.0, qb != 0.0, ~(disc < 0.0)) & ~(upper & single)
        snapped = np.where(s < 0.0, 0.0, s)  # a root just before a segment snaps to its start
        t, curvature, y = ts[segment] + snapped, _cubic(rows, snapped, 2), _cubic(rows, snapped, 0)
    keep = exists & ~(s < -1e-12 * np.maximum(1.0, np.abs(h))) & ~(s >= h)
    keep &= (ts[0] < t) & (t < ts[-1]) & ~(np.abs(curvature) <= FLAT_CURVATURE_TOL)
    order = np.argsort(t[keep], kind="stable")
    t, y, curvature = (x[keep][order] for x in (t, y, curvature))
    # a point within 1e-9 of the last point kept merges into it; only the ends of
    # gaps of at most 1e-9 can merge, so the walk visits just those
    merged = np.zeros(t.size, dtype=bool)
    for i in np.flatnonzero(np.diff(t) <= 1e-9).tolist():
        if not merged[i]:  # the first gap of a run starts at a kept point
            last = t[i]
        merged[i + 1] = abs(t[i + 1] - last) <= 1e-9
    t, y, is_max = t[~merged], y[~merged], curvature[~merged] < 0.0
    if not (np.isfinite(t).all() and np.isfinite(y).all()):
        raise NumericOverflow("spline extrema overflow the float range for these values")
    kinds = _KINDS.take(is_max).tolist()
    # tuple.__new__ builds each named tuple in C; Extremum's own __new__ runs Python code
    return list(map(tuple.__new__, repeat(Extremum), zip(t.tolist(), y.tolist(), kinds)))
