"""Signed-power harmonic reference curve and residual comparison.

The reference is offset + amplitude * s(sin(w k) + cos(w k)) ** p taken with
a signed power, where k is a sample index obtained from the day axis via an
affine :class:`IndexMap`.  With the default coefficients the curve has
period 48 index units.
"""

import math
from dataclasses import dataclass, field, replace
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
    #: ``fit_amplitude_offset`` seeds this with the signed powers it computed
    #: (see ``_BasisSeed``); ``replace`` does not carry it over
    _basis: "_BasisSeed | None" = field(default=None, init=False, compare=False, repr=False)

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


class _BasisSeed(NamedTuple):
    """Signed powers s(sin(w k) + cos(w k)) ** p on one grid object, for reuse."""

    grid: object
    key: tuple  # (angular_coeff, exponent, index_map) the powers were computed with
    powers: np.ndarray


def _signed_powers(spec: HarmonicSpec, index_map: IndexMap, ts) -> np.ndarray:
    """copysign(|u| ** p, u), u = sin(w k) + cos(w k), at each day offset of ``ts``.

    The loop is ``signed_pow`` of ``harmonic_reference``'s base at
    ``index_map.index_at(t)``, inlined over bound locals: the same float
    operations in the same order, so the same bits.  Raises NumericOverflow
    when the signed power overflows or an angle is infinite.
    """
    w, p = spec.angular_coeff, spec.exponent
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
    return np.array(powers)


def _seeded_powers(spec: HarmonicSpec, index_map: IndexMap, grid) -> "np.ndarray | None":
    """The fit's signed powers when they were computed for this grid tuple, map and spec."""
    seed = spec._basis
    if seed is not None and seed.grid is grid and type(grid) is tuple and seed.key == (
        spec.angular_coeff, spec.exponent, index_map
    ):
        return seed.powers
    return None


@np.errstate(over="ignore", invalid="ignore")  # as Python floats do: inf or nan, no warning
def _scaled(spec: HarmonicSpec, powers: np.ndarray) -> np.ndarray:
    """offset + amplitude * power at each point: ``harmonic_reference``'s last two operations."""
    return spec.offset + spec.amplitude * powers


def _reference_values(spec: HarmonicSpec, index_map: IndexMap, ts) -> np.ndarray:
    """``harmonic_reference(index_map.index_at(t), spec)`` at each day offset of ``ts``.

    Bit for bit the scalar formula; a fitted spec reuses its seeded powers.
    """
    powers = _seeded_powers(spec, index_map, ts)
    if powers is None:
        powers = _signed_powers(spec, index_map, ts)
    return _scaled(spec, powers)


def sample_harmonic(spec: HarmonicSpec, index_map: IndexMap, grid) -> CurveSamples:
    """Evaluate the harmonic on a day grid (uniform, as for other curves)."""
    powers = _seeded_powers(spec, index_map, grid)
    # a tuple of floats is already the grid that the conversion below makes
    if powers is None or set(map(type, grid)) != {float}:
        grid = tuple(np.asarray(grid, dtype=float).tolist())
        powers = _signed_powers(spec, index_map, grid)
    return CurveSamples(t=grid, y=tuple(_scaled(spec, powers).tolist()), source="harmonic")


def fit_amplitude_offset(
    curve: CurveSamples, spec: HarmonicSpec, index_map: IndexMap
) -> HarmonicSpec:
    """Fit amplitude and offset to a curve by two-column least squares.

    The angular coefficient and exponent are kept; only the affine scaling
    of the unit-amplitude, zero-offset reference is re-estimated.  The
    result is seeded with the signed powers on ``curve.t``, so comparing or
    sampling it on that same grid object does not compute them again.
    """
    powers = _signed_powers(spec, index_map, curve.t)
    # the unit reference is 0.0 + 1.0 * power, which writes -0.0 as 0.0
    design = np.column_stack([0.0 + powers, np.ones(powers.size)])
    amplitude, offset = solve_least_squares(
        LeastSquaresProblem(design, np.asarray(curve.y, dtype=float))
    )
    fitted = replace(spec, amplitude=float(amplitude), offset=float(offset))
    seed = _BasisSeed(curve.t, (spec.angular_coeff, spec.exponent, index_map), powers)
    object.__setattr__(fitted, "_basis", seed)
    return fitted


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
