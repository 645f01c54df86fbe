"""The time-series and curve value types and the calendar-to-day time axis.

A :class:`TimeSeries` holds the knots of one station/parameter, with
``t`` counting days since its epoch; ``dataio.dataset_series`` builds one
from a table's column.  A :class:`CurveSamples` is a curve on a uniform
grid, as the spline, trend and harmonic modules return it;
``_check_resolution`` and ``_check_span`` are the grid-size rules of
``dense_grid`` and ``poly_curve`` (``ResolutionTooSmall``,
``ResolutionTooLarge``).  The shared internals, ``_Value``, the knot reader
``_knot_arrays`` and ``_tuple_view``, live here too, so those modules need not
import each other.  ``_tuple_view`` builds every tuple view of an array (``t``,
``y``, ``LagrangeModel.weights``); those are for callers, as the package itself
reads the arrays.  The M/D/YYYY calendar format lives here alone: ``_parse_dates``
reads a column of dates, ``parse_date`` is its one-cell case, and
``format_date`` writes one.
"""

import math
import re
from dataclasses import FrozenInstanceError
from datetime import date, timedelta
from functools import cached_property
from operator import attrgetter

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


# the M/D/YYYY fields of a date, or of each line of a "\n"-joined column of dates
_DATE_RE = re.compile(r"^(\d{1,2})/(\d{1,2})/(\d{4})$", re.M)


def _parse_dates(cells: list[str]) -> list[date] | tuple[int, MalformedDate | InvalidDate]:
    """The dates of M/D/YYYY cells, or the index and error of the first bad cell."""
    joined = "\n".join(cells)
    fields = _DATE_RE.findall(joined)
    if len(fields) == len(cells) == joined.count("\n") + 1:  # one M/D/YYYY line per cell
        try:
            return [date(int(year), int(month), int(day)) for month, day, year in fields]
        except ValueError:  # no such calendar day
            pass
    for i, cell in enumerate(cells):
        match = _DATE_RE.fullmatch(cell)
        if match is None:
            return i, MalformedDate(f"expected M/D/YYYY, got {cell!r}")
        try:
            date(*map(int, match.group(3, 1, 2)))  # year, month, day
        except ValueError:
            return i, InvalidDate(f"no such calendar day: {cell!r}")
    return []  # no cells


def parse_date(text: str) -> date:
    """Parse a string that is exactly one M/D/YYYY date.

    Month and day may be one or two digits; the year must be four.
    Raises MalformedDate when the shape is wrong and InvalidDate when the
    shape is fine but the calendar day does not exist (e.g. 2/30/2004).
    """
    dates = _parse_dates([text])
    if isinstance(dates, tuple):
        raise dates[1]
    return dates[0]


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
        fields = cls._fields = code.co_varnames[1:code.co_argcount]
        getter = attrgetter(*fields)  # of one name, attrgetter returns the bare value
        cls._values = property(getter if len(fields) > 1 else lambda self: (getter(self),))

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        return self._values == other._values if type(other) is type(self) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._values)

    def __repr__(self) -> str:
        args = ", ".join(map("{}={!r}".format, self._fields, self._values))
        return f"{type(self).__qualname__}({args})"

    def __reduce__(self):
        return type(self), self._values

    def _replace(self, **changes):
        """A copy with ``changes`` applied, built and so checked again by the constructor."""
        return type(self)(**dict(zip(self._fields, self._values), **changes))


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


def _tuple_view(name: str) -> cached_property:
    """A tuple view of the array attribute ``name``, built on first use and kept."""
    return cached_property(lambda self: tuple(getattr(self, name).tolist()))


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

    t, y = _tuple_view("times"), _tuple_view("values")

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

    t, y = _tuple_view("grid"), _tuple_view("values")


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
