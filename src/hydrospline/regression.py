"""Polynomial trend fits, linear trend reports, and date-matched correlation.

Polynomials are fitted over a normalized axis u = (t - t_mid) / t_scale so
the design stays well conditioned up to degree 10; coefficients therefore
live in u-space and :func:`eval_poly` maps back from days.
"""

import math
import sys

import numpy as np

from .errors import (
    DegreeTooHigh,
    InsufficientData,
    InsufficientPairs,
    NumericOverflow,
    ZeroVariance,
    typed_overflow,
)
from .linalg import LeastSquaresProblem, solve_least_squares
from .series import CurveSamples, TimeSeries, _check_resolution, _check_span, _Value

MAX_DEGREE = 10

#: |total change| below this counts as no trend
FLAT_THRESHOLD = 0.01


class PolyModel(_Value):
    """Polynomial sum c_j u^j over the normalized axis u = (t - t_mid) / t_scale."""

    def __init__(self, coefficients: tuple[float, ...], t_mid: float, t_scale: float,
                 rmse: float) -> None:
        vars(self).update(coefficients=coefficients, t_mid=t_mid, t_scale=t_scale, rmse=rmse)


class TrendReport(_Value):
    """Linear trend summary: slope is in y-units per day, total_change = slope * span_days
    by construction, and direction is "down", "up" or "flat"."""

    def __init__(self, slope: float, total_change: float, span_days: float,
                 direction: str) -> None:
        vars(self).update(slope=slope, total_change=total_change, span_days=span_days,
                          direction=direction)


def fit_polynomial(series: TimeSeries, degree: int) -> PolyModel:
    """Least-squares polynomial of the given degree through the knots.

    Degrees 0..10 are supported and need at least degree + 1 knots.  The
    time axis is centered and scaled to [-1, 1] before building the design.
    An rmse whose sum of squares overflows the float range is stored as inf.
    """
    if not 0 <= degree <= MAX_DEGREE:
        raise DegreeTooHigh(f"degree must be in 0..{MAX_DEGREE}, got {degree}")
    n = len(series.knots)
    if n < degree + 1:
        raise InsufficientData(f"degree {degree} needs {degree + 1} knots, have {n}")
    t, y = series.times, series.values
    t_mid = (t[0] + t[-1]) / 2.0
    half_span = (t[-1] - t[0]) / 2.0
    t_scale = half_span if half_span > 0 else 1.0
    u = (t - t_mid) / t_scale
    design = np.vander(u, degree + 1, increasing=True)
    coeffs = solve_least_squares(LeastSquaresProblem(design, y))
    with np.errstate(over="ignore", invalid="ignore"):
        residuals = y - design @ coeffs
        rmse = math.sqrt(float(residuals @ residuals) / n)
    return PolyModel(tuple(coeffs.tolist()), t_mid=float(t_mid), t_scale=float(t_scale), rmse=rmse)


@np.errstate(over="ignore", invalid="ignore")  # raises NumericOverflow instead
def eval_poly(model: PolyModel, t: float) -> float:
    """Horner evaluation; at t = t_mid this returns c_0 exactly.

    A result that is not finite at a finite t raises NumericOverflow, as does an
    int t beyond the float range; an infinite or nan t gives what the arithmetic
    gives.  An array t, as :func:`poly_curve` passes, is evaluated unchecked.
    """
    message = "polynomial value leaves the float range at this t"
    with typed_overflow(message):
        u = (t - model.t_mid) / model.t_scale
    acc = 0.0
    for c in reversed(model.coefficients):
        acc = acc * u + c
    if np.ndim(acc) or math.isfinite(acc) or not math.isfinite(t):
        return acc
    raise NumericOverflow(message)


@np.errstate(over="ignore", invalid="ignore")  # CurveSamples rejects non-finite values
def poly_curve(model: PolyModel, t_start: float, t_end: float, resolution: int) -> CurveSamples:
    """Sample a fitted polynomial on a uniform grid."""
    _check_resolution(resolution)
    with typed_overflow("polynomial grid leaves the float range"):
        t_start, t_end = float(t_start), float(t_end)
    _check_span(t_start, t_end, resolution)
    grid = np.linspace(t_start, t_end, resolution)
    return CurveSamples(t=grid, y=eval_poly(model, grid), source="regression")


def trend_report(series: TimeSeries) -> TrendReport:
    """Degree-1 fit summarized as slope, total change over the span, direction.

    ``direction`` is "flat" when |total_change| < FLAT_THRESHOLD, otherwise
    "down" or "up" by the sign of the slope.  A slope or total change that
    leaves the float range raises NumericOverflow.
    """
    if len(series.knots) < 2:
        raise InsufficientData("a trend needs at least 2 knots")
    model = fit_polynomial(series, 1)
    slope = model.coefficients[1] / model.t_scale
    span_days = series.span_days
    total_change = slope * span_days
    if not (math.isfinite(slope) and math.isfinite(total_change)):
        raise NumericOverflow("trend overflows the float range for these values")
    if abs(total_change) < FLAT_THRESHOLD:
        direction = "flat"
    elif slope < 0:
        direction = "down"
    else:
        direction = "up"
    return TrendReport(
        slope=slope, total_change=total_change, span_days=span_days, direction=direction
    )


def matched_pairs(a: TimeSeries, b: TimeSeries) -> list[tuple[float, float, float]]:
    """Value pairs whose knots fall on the same calendar day.

    Days are day ordinals (epoch ordinal plus day offset), so series with
    different epochs match on the date.  Returns (ordinal, y_a, y_b) in
    ``b.knots`` order; a's knots that round to one ordinal pair by the last.
    """
    days_a, days_b = a.epoch.toordinal() + a.times, b.epoch.toordinal() + b.times
    ia = np.searchsorted(days_a, days_b, side="right") - 1  # a's last day at or before b's
    hit = days_a[ia] == days_b  # an index of -1 reads a's latest day, which is after b's
    return list(zip(days_b[hit].tolist(), a.values[ia[hit]].tolist(), b.values[hit].tolist()))


def pearson(a: TimeSeries, b: TimeSeries) -> float:
    """Pearson product-moment correlation over date-matched pairs.

    Requires both series to come from the same station and at least three
    matched pairs; a constant side raises ZeroVariance, and sums that
    leave the float range raise NumericOverflow.  The result is clamped to
    [-1, 1] against last-bit rounding.
    """
    if a.station != b.station:
        raise ValueError(f"series stations differ: {a.station!r} vs {b.station!r}")
    return _pearson_of_pairs(matched_pairs(a, b))


def _pearson_of_pairs(pairs: list[tuple[float, float, float]]) -> float:
    """Pearson correlation of (day, x, y) triples, checked as :func:`pearson` describes."""
    n = len(pairs)
    if n < 3:
        raise InsufficientPairs(f"need at least 3 matched pairs, have {n}")
    _, xs, ys = zip(*pairs)
    x, y = np.fromiter(xs, float, n), np.fromiter(ys, float, n)
    if x.max() == x.min() or y.max() == y.min():
        raise ZeroVariance("correlation is undefined for a constant series")
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite sums raise NumericOverflow
        try:
            dx = x - math.fsum(xs) / n
            dy = y - math.fsum(ys) / n
            sxy = math.fsum((dx * dy).tolist())
            # libm pow squares as Python's pow(d, 2) does; float64 d * d rounds differently
            sxx = math.fsum(np.float_power(dx, 2.0).tolist())
            syy = math.fsum(np.float_power(dy, 2.0).tolist())
        except (OverflowError, ValueError):  # a sum overflows, or meets both signs of inf
            sxy = sxx = syy = math.inf
    # a product that overflows, or underflows below the normal range, would clamp garbage
    if not (math.isfinite(sxy) and sys.float_info.min <= sxx * syy < math.inf):
        raise NumericOverflow("correlation sums leave the float range for these values")
    r = sxy / math.sqrt(sxx * syy)
    return max(-1.0, min(1.0, r))
