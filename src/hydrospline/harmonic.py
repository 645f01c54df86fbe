"""Signed-power harmonic reference curve and residual comparison.

The reference is offset + amplitude * s(sin(w k) + cos(w k)) ** p taken with
a signed power, where k is a sample index obtained from the day axis via an
affine :class:`IndexMap`.  With the default coefficients the curve has
period 48 index units.
"""

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import NumericOverflow
from .linalg import LeastSquaresProblem, solve_least_squares
from .splines import CurveSamples

#: IndexMap.spanning maps a series' span onto [0, INDEX_UNITS]
INDEX_UNITS = 192.0

#: default angular coefficient: one cycle every 48 index units
DEFAULT_ANGULAR_COEFF = 8.0 * math.pi / INDEX_UNITS

DEFAULT_EXPONENT = 4.0 / 3.0


@dataclass(frozen=True)
class HarmonicSpec:
    """Parameters of the signed-power harmonic reference."""

    angular_coeff: float = DEFAULT_ANGULAR_COEFF
    exponent: float = DEFAULT_EXPONENT
    amplitude: float = 1.0
    offset: float = 0.0

    def __post_init__(self) -> None:
        if not self.angular_coeff > 0:
            raise ValueError("angular_coeff must be positive")
        if not self.exponent > 0:
            raise ValueError("exponent must be positive")


@dataclass(frozen=True)
class IndexMap:
    """Affine map from day offsets to sample indices: k = scale * t + offset."""

    scale: float
    offset: float = 0.0

    def index_at(self, t: float) -> float:
        return self.scale * t + self.offset

    @classmethod
    def spanning(cls, t_start: float, t_end: float) -> "IndexMap":
        """Map [t_start, t_end] onto [0, INDEX_UNITS]."""
        span = t_end - t_start
        if span <= 0:
            raise ValueError("index map needs a positive span")
        scale = INDEX_UNITS / span
        offset = -scale * t_start
        if not (0.0 < scale < math.inf and math.isfinite(offset)):
            raise NumericOverflow("index map scale or offset leaves the float range")
        return cls(scale=scale, offset=offset)


class HarmonicResiduals(NamedTuple):
    rmse: float
    max_abs_dev: float
    argmax_t: float


def signed_pow(u: float, p: float) -> float:
    """sign(u) * |u| ** p: odd in u, real for negative bases, exact zero at zero."""
    return math.copysign(abs(u) ** p, u)


def harmonic_reference(k: float, spec: HarmonicSpec) -> float:
    """Reference value at sample index k."""
    base = math.sin(spec.angular_coeff * k) + math.cos(spec.angular_coeff * k)
    return spec.offset + spec.amplitude * signed_pow(base, spec.exponent)


@lru_cache(maxsize=1)
def _signed_powers(
    angular_coeff: float, exponent: float, index_map: IndexMap, ts: tuple
) -> np.ndarray:
    """copysign(|u| ** p, u), u = sin(w k) + cos(w k), at each day offset of ``ts``.

    The loop is ``signed_pow`` of ``harmonic_reference``'s base at
    ``index_map.index_at(t)``, inlined over bound locals: the same float
    operations in the same order, so the same bits.  The last result is
    memoized by value, so fitting, comparing and sampling on one grid compute
    the powers once; keys that compare equal (-0.0 and 0.0, an int and its
    float) give the same bits.  Raises NumericOverflow when the signed power
    overflows or an angle is infinite.
    """
    w, p = angular_coeff, exponent
    scale, shift = index_map.scale, index_map.offset
    sin, cos, copysign = math.sin, math.cos, math.copysign
    powers = []
    append = powers.append
    try:
        for t in ts:
            k = scale * t + shift
            u = sin(w * k) + cos(w * k)
            append(copysign(abs(u) ** p, u))
    except (OverflowError, ValueError):  # |u| ** p overflows; sin or cos of inf
        raise NumericOverflow(
            "harmonic reference leaves the float range for these coefficients"
        ) from None
    powers = np.array(powers)
    powers.flags.writeable = False  # shared by every caller that hits the memo
    return powers


@np.errstate(over="ignore", invalid="ignore")  # as Python floats do: inf or nan, no warning
def _reference_values(spec: HarmonicSpec, index_map: IndexMap, ts) -> np.ndarray:
    """``harmonic_reference(index_map.index_at(t), spec)`` at each day offset of ``ts``.

    Bit for bit the scalar formula.
    """
    powers = _signed_powers(spec.angular_coeff, spec.exponent, index_map, tuple(ts))
    return spec.offset + spec.amplitude * powers


def sample_harmonic(spec: HarmonicSpec, index_map: IndexMap, grid) -> CurveSamples:
    """Evaluate the harmonic on a day grid (uniform, as for other curves)."""
    return CurveSamples(t=grid, y=_reference_values(spec, index_map, grid), source="harmonic")


def fit_amplitude_offset(
    curve: CurveSamples, spec: HarmonicSpec, index_map: IndexMap
) -> HarmonicSpec:
    """Fit amplitude and offset to a curve by two-column least squares.

    The angular coefficient and exponent are kept; only the affine scaling
    of the unit-amplitude, zero-offset reference is re-estimated.
    """
    powers = _signed_powers(spec.angular_coeff, spec.exponent, index_map, curve.t)
    # the unit reference is 0.0 + 1.0 * power, which writes -0.0 as 0.0
    design = np.column_stack([0.0 + powers, np.ones(powers.size)])
    amplitude, offset = solve_least_squares(LeastSquaresProblem(design, curve.values))
    return replace(spec, amplitude=float(amplitude), offset=float(offset))


@np.errstate(over="ignore")  # an rmse that overflows raises NumericOverflow
def compare_to_harmonic(
    curve: CurveSamples, spec: HarmonicSpec, index_map: IndexMap
) -> HarmonicResiduals:
    """Residual statistics of a curve against the harmonic reference.

    Returns the rmse, the maximum absolute deviation, and the day offset
    where that maximum occurs (the earliest grid point on ties).  Raises
    NumericOverflow when the rmse leaves the float range.
    """
    residuals = curve.values - _reference_values(spec, index_map, curve.t)
    try:
        rmse = math.sqrt(math.fsum((residuals * residuals).tolist()) / residuals.size)
    except OverflowError:  # the sum of squares overflows
        rmse = math.inf
    if not math.isfinite(rmse):
        raise NumericOverflow("harmonic residuals overflow the float range for these values")
    deviation = np.abs(residuals)
    worst = int(np.argmax(deviation))
    return HarmonicResiduals(rmse, float(deviation[worst]), curve.t[worst])
