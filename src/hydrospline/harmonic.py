"""Signed-power harmonic reference curve and residual comparison.

The reference is offset + amplitude * s(sin(w k) + cos(w k)) ** p taken with
a signed power, where k is a sample index obtained from the day axis via an
affine :class:`IndexMap`.  With the default coefficients the curve has
period 48 index units.
"""

import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import NumericOverflow, typed_overflow
from .linalg import LeastSquaresProblem, solve_least_squares
from .series import CurveSamples, _Value

#: IndexMap.spanning maps a series' span onto [0, INDEX_UNITS]
INDEX_UNITS = 192.0

#: default angular coefficient: one cycle every 48 index units
DEFAULT_ANGULAR_COEFF = 8.0 * math.pi / INDEX_UNITS

DEFAULT_EXPONENT = 4.0 / 3.0


class HarmonicSpec(_Value):
    """Parameters of the signed-power harmonic reference."""

    def __init__(self, angular_coeff: float = DEFAULT_ANGULAR_COEFF,
                 exponent: float = DEFAULT_EXPONENT, amplitude: float = 1.0,
                 offset: float = 0.0) -> None:
        if not angular_coeff > 0:
            raise ValueError("angular_coeff must be positive")
        if not exponent > 0:
            raise ValueError("exponent must be positive")
        vars(self).update(angular_coeff=angular_coeff, exponent=exponent, amplitude=amplitude,
                          offset=offset)


_SPAN_OVERFLOW = "index map scale or offset leaves the float range"


class IndexMap(_Value):
    """Affine map from day offsets to sample indices: k = scale * t + offset."""

    def __init__(self, scale: float, offset: float = 0.0) -> None:
        vars(self).update(scale=scale, offset=offset)

    @classmethod
    def spanning(cls, t_start: float, t_end: float) -> "IndexMap":
        """Map [t_start, t_end] onto [0, INDEX_UNITS]."""
        span = t_end - t_start
        if span <= 0:
            raise ValueError("index map needs a positive span")
        with typed_overflow(_SPAN_OVERFLOW):
            scale = INDEX_UNITS / span
            offset = -scale * t_start
        if not (0.0 < scale < math.inf and math.isfinite(offset)):
            raise NumericOverflow(_SPAN_OVERFLOW)
        return cls(scale=scale, offset=offset)


class HarmonicResiduals(NamedTuple):
    rmse: float
    max_abs_dev: float
    argmax_t: float


class _GridKey:
    """A float64 day grid as a memo key: hashed by its size, equal by identity or by
    ``np.array_equal``.  The grid must not change while the memo holds it."""

    __slots__ = ("grid",)

    def __init__(self, grid: np.ndarray) -> None:
        self.grid = grid

    def __hash__(self) -> int:
        return self.grid.size

    def __eq__(self, other) -> bool:
        return self.grid is other.grid or np.array_equal(self.grid, other.grid)


_OVERFLOW = "harmonic reference leaves the float range for these coefficients"


@lru_cache(maxsize=1)
@np.errstate(over="ignore", invalid="ignore")  # as Python floats do: inf or nan, no warning
def _signed_powers(
    angular_coeff: float, exponent: float, index_map: IndexMap, key: _GridKey
) -> np.ndarray:
    """copysign(|u| ** p, u), u = sin(w k) + cos(w k), k = scale * t + offset, at each day
    offset t of ``key.grid``.

    The angles are one float64 array, rounded step by step as Python floats
    round them.  sin, cos and pow are libm's: the float64 loops of ``np.sin``,
    ``np.cos`` and ``np.float_power`` call libm once per point, so they give
    the bits of ``math.sin``, ``math.cos`` and ``pow``, while numpy's ``**``
    rounds differently.  The last result is memoized by the coefficients, the
    map and the grid's :class:`_GridKey`, so fitting, comparing and sampling
    on one grid compute the powers once: the same grid object hits in O(1), an
    equal one after one ``np.array_equal``, and equal keys (-0.0 and 0.0, an
    int and its float) give the same bits.  Raises NumericOverflow when the
    signed power overflows or an angle is infinite, where ``math.sin`` raises.
    """
    angles = angular_coeff * (index_map.scale * key.grid + index_map.offset)
    if np.isinf(angles).any():
        raise NumericOverflow(_OVERFLOW)
    u = np.sin(angles)
    u += np.cos(angles)
    powers = np.copysign(np.float_power(np.abs(u), exponent), u)
    # a finite exponent overflows where Python's pow raises; |u| ** inf is inf without error
    if math.isfinite(exponent) and np.isinf(powers).any():
        raise NumericOverflow(_OVERFLOW)
    powers.flags.writeable = False  # shared by every caller that hits the memo
    return powers


@np.errstate(over="ignore", invalid="ignore")  # as Python floats do: inf or nan, no warning
def _reference_values(spec: HarmonicSpec, index_map: IndexMap, grid) -> np.ndarray:
    """offset + amplitude * copysign(|u| ** p, u) at each day offset of ``grid``, with the
    signed powers of :func:`_signed_powers`.  An int coefficient or map entry beyond the
    float range raises NumericOverflow."""
    with typed_overflow(_OVERFLOW):
        key = _GridKey(np.asarray(grid, dtype=float))
        powers = _signed_powers(spec.angular_coeff, spec.exponent, index_map, key)
        return spec.offset + spec.amplitude * powers


def sample_harmonic(spec: HarmonicSpec, index_map: IndexMap, grid) -> CurveSamples:
    """Evaluate the harmonic on a day grid (uniform, as for other curves)."""
    with typed_overflow(_OVERFLOW):  # int days beyond the float range
        grid = np.array(grid, dtype=float)  # a copy of the caller's grid, so it cannot change
    return CurveSamples(t=grid, y=_reference_values(spec, index_map, grid), source="harmonic")


def fit_amplitude_offset(
    curve: CurveSamples, spec: HarmonicSpec, index_map: IndexMap
) -> HarmonicSpec:
    """Fit amplitude and offset to a curve by two-column least squares.

    The angular coefficient and exponent are kept; only the affine scaling
    of the unit-amplitude, zero-offset reference is re-estimated.
    """
    unit = _reference_values(spec._replace(amplitude=1.0, offset=0.0), index_map, curve.grid)
    design = np.column_stack([unit, np.ones(unit.size)])
    amplitude, offset = solve_least_squares(LeastSquaresProblem(design, curve.values))
    return spec._replace(amplitude=float(amplitude), offset=float(offset))


@np.errstate(over="ignore")  # an rmse that overflows raises NumericOverflow
def compare_to_harmonic(
    curve: CurveSamples, spec: HarmonicSpec, index_map: IndexMap
) -> HarmonicResiduals:
    """Residual statistics of a curve against the harmonic reference.

    Returns the rmse, the maximum absolute deviation, and the day offset
    where that maximum occurs (the earliest grid point on ties).  Raises
    NumericOverflow when the rmse leaves the float range.
    """
    residuals = curve.values - _reference_values(spec, index_map, curve.grid)
    try:
        rmse = math.sqrt(math.fsum((residuals * residuals).tolist()) / residuals.size)
    except OverflowError:  # the sum of squares overflows
        rmse = math.inf
    if not math.isfinite(rmse):
        raise NumericOverflow("harmonic residuals overflow the float range for these values")
    deviation = np.abs(residuals)
    worst = int(np.argmax(deviation))
    return HarmonicResiduals(rmse, float(deviation[worst]), float(curve.grid[worst]))
