"""Signed-power harmonic reference curve and residual comparison.

The reference is offset + amplitude * s(sin(w k) + cos(w k)) ** p taken with
a signed power, where k is a sample index obtained from the day axis via an
affine :class:`IndexMap`.  With the default coefficients the curve has
period 48 index units.
"""

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .errors import NumericOverflow
from .linalg import LeastSquaresProblem, solve_least_squares
from .splines import CurveSamples

#: default angular coefficient: one cycle every 48 index units
DEFAULT_ANGULAR_COEFF = 8.0 * math.pi / 192.0

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
    def spanning(cls, t_start: float, t_end: float, units: float = 192.0) -> "IndexMap":
        """Map [t_start, t_end] onto [0, units] (default 192 index units)."""
        span = t_end - t_start
        if span <= 0:
            raise ValueError("index map needs a positive span")
        scale = units / span
        return cls(scale=scale, offset=-scale * t_start)


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


def _reference_values(spec: HarmonicSpec, index_map: IndexMap, ts) -> list[float]:
    """The reference at each day offset of ``ts``, one ``math`` call per point.

    The loop is ``harmonic_reference(index_map.index_at(t), spec)`` inlined:
    the same float operations in the same order, so the same bits.  Raises
    NumericOverflow when the signed power overflows or an angle is infinite.
    """
    w, p, amplitude, offset = spec.angular_coeff, spec.exponent, spec.amplitude, spec.offset
    scale, shift = index_map.scale, index_map.offset
    sin, cos, copysign = math.sin, math.cos, math.copysign
    values = []
    append = values.append
    try:
        for t in ts:
            k = scale * t + shift
            u = sin(w * k) + cos(w * k)
            append(offset + amplitude * copysign(abs(u) ** p, u))
    except (OverflowError, ValueError):  # |u| ** p overflows; sin or cos of inf
        raise NumericOverflow(
            "harmonic reference leaves the float range for these coefficients"
        ) from None
    return values


def sample_harmonic(spec: HarmonicSpec, index_map: IndexMap, grid) -> CurveSamples:
    """Evaluate the harmonic on a day grid (uniform, as for other curves)."""
    ts = tuple(np.asarray(grid, dtype=float).tolist())
    return CurveSamples(t=ts, y=tuple(_reference_values(spec, index_map, ts)), source="harmonic")


def fit_amplitude_offset(
    curve: CurveSamples, spec: HarmonicSpec, index_map: IndexMap
) -> HarmonicSpec:
    """Fit amplitude and offset to a curve by two-column least squares.

    The angular coefficient and exponent are kept; only the affine scaling
    of the unit-amplitude, zero-offset reference is re-estimated.
    """
    unit = replace(spec, amplitude=1.0, offset=0.0)
    base = np.array(_reference_values(unit, index_map, curve.t))
    design = np.column_stack([base, np.ones(base.size)])
    amplitude, offset = solve_least_squares(
        LeastSquaresProblem(design, np.asarray(curve.y, dtype=float))
    )
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
    residuals = np.subtract(curve.y, _reference_values(spec, index_map, curve.t))
    try:
        rmse = math.sqrt(math.fsum((residuals * residuals).tolist()) / residuals.size)
    except OverflowError:  # the sum of squares overflows
        rmse = math.inf
    if not math.isfinite(rmse):
        raise NumericOverflow("harmonic residuals overflow the float range for these values")
    deviation = np.abs(residuals)
    worst = int(np.argmax(deviation))
    return HarmonicResiduals(rmse, float(deviation[worst]), curve.t[worst])
