"""The time-series and curve value types and the calendar-to-day time axis.

A :class:`TimeSeries` holds the knots of one station/parameter, with
``t`` counting days since its epoch; ``dataio.dataset_series`` builds one
from a table's column.  A :class:`CurveSamples` is a curve on a uniform
grid, as the spline, trend and harmonic modules return it;
``_check_resolution`` and ``_check_span`` are the grid-size rules of
``dense_grid`` and ``poly_curve`` (``ResolutionTooSmall``,
``ResolutionTooLarge``).  The shared internals, ``_Value`` and the knot
reader ``_knot_arrays``, live here too, so those modules need not import
each other.
"""

import math
import re
from dataclasses import FrozenInstanceError
from datetime import date, timedelta
from functools import cached_property

import numpy as np

from .errors import (
    InvalidDate,
    MalformedDate,
    NumericOverflow,
    ResolutionTooLarge,
    ResolutionTooSmall,
    typed_overflow,
)

#: Known parameter codes and their units.  Lookups are case-sensitive;
#: codes outside the registry are accepted and report unit "unknown".
PARAMETER_UNITS = {
    "temp": "°C",
    "pH": "dimensionless",
    "OD": "mg/l",
    "CBO5": "mg/l",
    "CCO-Mn": "mg/l",
    "CCO-Cr": "mg/l",
}


def parameter_unit(code: str) -> str:
    """Unit string for a parameter code, or "unknown" for unregistered codes."""
    return PARAMETER_UNITS.get(code, "unknown")


_DATE_RE = re.compile(r"^(\d{1,2})/(\d{1,2})/(\d{4})$")


def parse_date(text: str) -> date:
    """Parse a M/D/YYYY date string.

    Month and day may be one or two digits; the year must be four.
    Raises MalformedDate when the shape is wrong and InvalidDate when the
    shape is fine but the calendar day does not exist (e.g. 2/30/2004).
    """
    match = _DATE_RE.match(text)
    if match is None:
        raise MalformedDate(f"expected M/D/YYYY, got {text!r}")
    month, day, year = int(match.group(1)), int(match.group(2)), int(match.group(3))
    try:
        return date(year, month, day)
    except ValueError as exc:
        raise InvalidDate(f"no such calendar day: {text!r}") from exc


def format_date(d: date) -> str:
    """Render a date back in the M/D/YYYY shape used by the CSV format."""
    return f"{d.month}/{d.day}/{d.year}"


class _Value:
    """Equality, hashing and ``repr`` by the arguments of the constructor, whose names
    ``_fields`` lists and whose values copies, pickles and ``_replace`` pass back to it.
    Each subclass's ``__init__`` checks its arguments and stores them, or a converted copy,
    with ``vars(self).update``; instances are frozen, so assignment raises
    FrozenInstanceError.  A mutable type, like the linalg solver inputs, is a plain class
    without this base."""

    _fields: tuple[str, ...]

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        code = cls.__init__.__code__
        cls._fields = code.co_varnames[1:code.co_argcount]

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        return self._values() == other._values() if type(other) is type(self) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        args = ", ".join(map("{}={!r}".format, self._fields, self._values()))
        return f"{type(self).__qualname__}({args})"

    def __reduce__(self):
        return type(self), self._values()

    def _replace(self, **changes):
        """A copy with ``changes`` applied, built and so checked again by the constructor."""
        return type(self)(**dict(zip(self._fields, self._values()), **changes))


def _knot_arrays(knots) -> tuple[tuple, np.ndarray, np.ndarray]:
    """The (t, y) knots as a tuple of tuples (a tuple of tuples passes through as the same
    object) and their times and values as read-only float64 arrays, checked."""
    if not isinstance(knots, tuple) or list(map(type, knots)).count(tuple) < len(knots):
        knots = tuple(map(tuple, knots))
    with typed_overflow("knots leave the float range"):
        times = np.array([t for t, _ in knots], dtype=float)
        values = np.array([y for _, y in knots], dtype=float)
    if not np.isfinite(times).all() or (times[1:] <= times[:-1]).any():
        raise ValueError("knot times must be finite and strictly increasing")
    if not np.isfinite(values).all():
        raise ValueError("knot values must be finite")
    times.flags.writeable = values.flags.writeable = False
    return knots, times, values


class TimeSeries(_Value):
    """Strictly increasing (t, y) knots for one station and parameter.

    ``t`` counts days since ``epoch`` (the calendar date mapped to t = 0).
    Values are immutable after construction and safe to share.  ``times`` and
    ``values`` are the knots as read-only float64 arrays; ``t`` and ``y`` are tuples of them.
    """

    def __init__(self, station: str, parameter: str, knots: tuple[tuple[float, float], ...],
                 epoch: date) -> None:
        if not knots:
            raise ValueError("a series needs at least one knot")
        knots, times, values = _knot_arrays(knots)
        vars(self).update(station=station, parameter=parameter, knots=knots, epoch=epoch,
                          times=times, values=values)

    @cached_property
    def t(self) -> tuple[float, ...]:
        return tuple(self.times.tolist())

    @cached_property
    def y(self) -> tuple[float, ...]:
        return tuple(self.values.tolist())

    @property
    def span_days(self) -> float:
        return self.knots[-1][0] - self.knots[0][0]

    def calendar_date(self, t: float) -> date:
        """Calendar day containing day-offset ``t`` (fractions truncated)."""
        return self.epoch + timedelta(days=math.floor(t))


#: the most float64 values one numpy array can hold, and so the most grid points
_MAX_POINTS = np.iinfo(np.intp).max // 8


class CurveSamples(_Value):
    """A curve evaluated on a uniform grid, tagged with its source.

    ``grid`` and ``values`` are read-only float64 arrays, the one stored copy
    of the curve; ``t`` and ``y`` are tuple views of them, built on first
    use.  Equality, hashing and ``repr`` go by ``t``, ``y`` and ``source``.  A grid is
    uniform when every step is positive and differs from the first by at most 1e-9 times
    max(1, first step) plus four float spacings at the grid's larger end.
    """

    def __init__(self, t, y, source: str) -> None:
        with typed_overflow("curve values are not finite (float overflow)"):
            grid, values = np.array(t, dtype=float), np.array(y, dtype=float)
        if grid.ndim != 1 or not grid.size or grid.shape != values.shape:
            raise ValueError("grid and values must be non-empty and equal length")
        if not (np.isfinite(grid).all() and np.isfinite(values).all()):
            raise NumericOverflow("curve values are not finite (float overflow)")
        steps = np.diff(grid)
        if steps.size:
            # rounding moves each point by up to a few float spacings, the largest at an end
            spacing = np.spacing(max(abs(grid[0]), abs(grid[-1])))
            slack = 1e-9 * max(1.0, abs(steps[0])) + 4.0 * spacing
            if steps.min() <= 0 or np.abs(steps - steps[0]).max() > slack:
                raise ValueError("grid must be strictly increasing with uniform step")
        grid.flags.writeable = values.flags.writeable = False
        vars(self).update(grid=grid, values=values, source=source)

    @cached_property
    def t(self) -> tuple[float, ...]:
        return tuple(self.grid.tolist())

    @cached_property
    def y(self) -> tuple[float, ...]:
        return tuple(self.values.tolist())


def _check_resolution(resolution: int) -> None:
    """Raise a typed error for a grid size that ``np.linspace`` cannot give."""
    if resolution < 2:
        raise ResolutionTooSmall(f"need at least 2 grid points, got {resolution}")
    if resolution > _MAX_POINTS:
        raise ResolutionTooLarge(f"a grid holds at most {_MAX_POINTS} points")


def _check_span(start: float, end: float, resolution: int) -> None:
    """Raise ResolutionTooLarge when a rising span is too narrow for ``resolution`` distinct
    grid points: their step would fall below the float spacing at the span's larger end."""
    if start < end and (end - start) / (resolution - 1) < np.spacing(max(abs(start), abs(end))):
        raise ResolutionTooLarge(f"the span is too narrow for {resolution} distinct grid points")
