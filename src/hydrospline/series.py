"""The time-series value type and the calendar-to-day time axis.

A :class:`TimeSeries` holds the knots of one station/parameter, with
``t`` counting days since its epoch; ``dataio.dataset_series`` builds one
from a table's column.
"""

import math
import re
from dataclasses import FrozenInstanceError, dataclass
from datetime import date, timedelta
from functools import cached_property

import numpy as np

from .errors import InvalidDate, MalformedDate, typed_overflow

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
    """Equality, hashing and ``repr`` by the constructor arguments named in ``_fields``,
    whose values copies and pickles pass back to the constructor.  Instances are
    frozen: assignment raises FrozenInstanceError, as on a frozen dataclass.  A type
    that stores a converted copy of its arguments subclasses this with an explicit
    ``__init__`` (TimeSeries keeps a dataclass one, for ``dataclasses.replace``).  A record
    that stores its arguments as given stays a dataclass: DatasetRow, HarmonicSpec,
    IndexMap, PolyModel, TrendReport and PlotSpec.  The two linalg solver inputs are
    mutable, so they convert their arguments in a plain ``__init__`` without this base."""

    _fields: tuple[str, ...] = ()

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


def _knot_arrays(knots) -> tuple[np.ndarray, np.ndarray]:
    """The times and values of (t, y) knots as read-only float64 arrays, checked."""
    with typed_overflow("knots leave the float range"):
        times = np.array([t for t, _ in knots], dtype=float)
        values = np.array([y for _, y in knots], dtype=float)
    if not np.isfinite(times).all() or (times[1:] <= times[:-1]).any():
        raise ValueError("knot times must be finite and strictly increasing")
    if not np.isfinite(values).all():
        raise ValueError("knot values must be finite")
    times.flags.writeable = values.flags.writeable = False
    return times, values


@dataclass(frozen=True, eq=False, repr=False)
class TimeSeries(_Value):
    """Strictly increasing (t, y) knots for one station and parameter.

    ``t`` counts days since ``epoch`` (the calendar date mapped to t = 0).
    Values are immutable after construction and safe to share.  ``times`` and
    ``values`` are the knots as read-only float64 arrays; ``t`` and ``y`` are tuples of them.
    """

    station: str
    parameter: str
    knots: tuple[tuple[float, float], ...]
    epoch: date
    _fields = ("station", "parameter", "knots", "epoch")

    def __post_init__(self) -> None:
        if not self.knots:
            raise ValueError("a series needs at least one knot")
        times, values = _knot_arrays(self.knots)
        vars(self).update(times=times, values=values)

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

