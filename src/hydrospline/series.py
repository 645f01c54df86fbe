"""Domain types for monitoring samples and the calendar-to-day time axis.

A :class:`Sample` is one measurement cell (station, date, parameter,
optional value).  :func:`build_series` turns a bag of samples for one
station/parameter into a :class:`TimeSeries` whose abscissa counts days
since the earliest retained sample.
"""

import math
import re
from dataclasses import dataclass
from datetime import date, timedelta
from functools import cached_property
from operator import itemgetter

from .errors import DuplicateTimestamp, EmptySeries, InvalidDate, MalformedDate

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


@dataclass(frozen=True)
class Sample:
    """One measurement cell.  ``value`` is None when the cell is absent."""

    station: str
    date: date
    parameter: str
    value: float | None = None

    def __post_init__(self) -> None:
        if self.value is not None and not math.isfinite(self.value):
            raise ValueError("sample value must be finite or None, not a sentinel")


@dataclass(frozen=True)
class TimeSeries:
    """Strictly increasing (t, y) knots for one station and parameter.

    ``t`` counts days since ``epoch`` (the calendar date mapped to t = 0).
    Values are immutable after construction and safe to share.
    """

    station: str
    parameter: str
    knots: tuple[tuple[float, float], ...]
    epoch: date

    def __post_init__(self) -> None:
        if not self.knots:
            raise ValueError("a series needs at least one knot")
        for t, y in self.knots:
            if not (math.isfinite(t) and math.isfinite(y)):
                raise ValueError("knots must be finite")
        ts = [t for t, _ in self.knots]
        if any(b <= a for a, b in zip(ts, ts[1:])):
            raise ValueError("knot times must be strictly increasing")

    @cached_property
    def t(self) -> tuple[float, ...]:
        return tuple(t for t, _ in self.knots)

    @cached_property
    def y(self) -> tuple[float, ...]:
        return tuple(y for _, y in self.knots)

    @property
    def span_days(self) -> float:
        return self.knots[-1][0] - self.knots[0][0]

    def calendar_date(self, t: float) -> date:
        """Calendar day containing day-offset ``t`` (fractions truncated)."""
        return self.epoch + timedelta(days=math.floor(t))


def build_series(samples, station: str, parameter: str) -> TimeSeries:
    """Assemble a TimeSeries from samples of one station and parameter.

    Samples with absent values are dropped; the rest are sorted by date.
    The earliest retained date becomes the epoch and each knot's t is the
    exact day count from it.  Raises EmptySeries when nothing survives the
    filter and DuplicateTimestamp when two retained samples share a date.
    """
    for s in samples:
        if s.station != station or s.parameter != parameter:
            raise ValueError(
                f"sample for {s.station!r}/{s.parameter!r} does not belong to "
                f"{station!r}/{parameter!r}"
            )
    return _series_from_pairs(((s.date, s.value) for s in samples), station, parameter)


def _series_from_pairs(pairs, station: str, parameter: str) -> TimeSeries:
    """The TimeSeries of ``(date, value)`` pairs, as :func:`build_series` describes it."""
    retained = sorted((pair for pair in pairs if pair[1] is not None), key=itemgetter(0))
    if not retained:
        raise EmptySeries(f"no values for {station!r}/{parameter!r}")
    for (a, _), (b, _) in zip(retained, retained[1:]):
        if a == b:
            raise DuplicateTimestamp(f"two samples on {format_date(a)}")
    epoch = retained[0][0]
    knots = tuple((float((when - epoch).days), float(value)) for when, value in retained)
    return TimeSeries(station=station, parameter=parameter, knots=knots, epoch=epoch)
