"""CSV ingestion and serialization for station monitoring tables.

The format is one header row (date column first, then parameter codes)
followed by one row per sampling date.  Cells holding "*" or "-" mean the
measurement is absent; serialization re-emits absent cells as "*".
"""

import csv
import importlib.resources
import io
import math
import re
from datetime import date
from functools import cached_property
from itertools import compress, repeat
from operator import itemgetter
from pathlib import Path

import numpy as np

from .errors import (
    DuplicateTimestamp,
    EmptySeries,
    HeaderMismatch,
    HydrosplineError,
    InvalidDate,
    MalformedDate,
    MalformedNumber,
    MalformedRow,
    UndecodableFile,
    UnknownParameter,
    typed_overflow,
)
from .series import _DATE_RE, TimeSeries, _Value, format_date, parse_date

GROPENI_STATION = "Dunare-Gropeni"

_MISSING_MARKERS = {"*", "-"}

# a character that no number or missing marker in ASCII holds; over the others,
# float() takes exactly the numbers that _NON_CELL_LINE_RE lets through
_NON_CELL_CHAR_RE = re.compile(r"[^0-9.eE+\-*\n]")

# a line of a "\n"-joined column that is neither a number nor a missing marker
_NON_CELL_LINE_RE = re.compile(r"^(?!(?:[+-]?(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?|[*-])$)",
                               re.M)

# the M/D/YYYY fields of each line of a "\n"-joined date column
_DATE_LINE_RE = re.compile(_DATE_RE.pattern, re.M)

_Bad = tuple[int, HydrosplineError]  # a column's first bad cell: its index and its error


class DatasetRow(_Value):
    """One sampling date; values align with the dataset's parameter order."""

    def __init__(self, date: date, values: tuple[float | None, ...]) -> None:
        vars(self).update(date=date, values=values)


class Dataset(_Value):
    """A monitoring table held as columns: ``dates``, and in ``columns`` one tuple
    of values (a float, or None where the cell is absent) per parameter.  It is
    sorted by date when built (a stable sort); ``ordinals`` holds the sorted
    dates' day ordinals as a read-only int64 array.  A column count or length
    that does not match raises MalformedRow, a nan or infinite value
    MalformedNumber, an int beyond the float range NumericOverflow, two rows on
    one date DuplicateTimestamp.  ``rows`` is the table a row at a time, built
    on first use."""

    def __init__(self, station: str, parameters, dates, columns, source: str) -> None:
        columns, n = tuple(columns), len(dates)
        if len(columns) != len(parameters):
            raise MalformedRow(f"expected {len(parameters)} columns, got {len(columns)}")
        for code, column in zip(parameters, columns):
            if len(column) != n:
                raise MalformedRow(f"column {code}: expected {n} values, got {len(column)}")
        ordinals = np.fromiter(map(date.toordinal, dates), dtype=np.int64, count=n)
        order = np.argsort(ordinals, kind="stable")
        ordinals, take = ordinals[order], order.tolist()
        dates = tuple(map(dates.__getitem__, take))
        columns = tuple(tuple(map(column.__getitem__, take)) for column in columns)
        bad = []  # (row, column) of each nan or infinite value
        for j, column in enumerate(columns):
            with typed_overflow(f"column {parameters[j]}: values leave the float range"):
                values = np.array(column, dtype=float)
            # a None reads as nan, so it is a suspect too
            suspects = np.flatnonzero(~np.isfinite(values)).tolist()
            bad += [(i, j) for i in suspects if column[i] is not None]
        if bad:
            i, j = min(bad)
            when, code = format_date(dates[i]), parameters[j]
            raise MalformedNumber(f"row on {when}, column {code}: not finite: {columns[j][i]!r}")
        same = np.flatnonzero(ordinals[1:] == ordinals[:-1])
        if same.size:
            raise DuplicateTimestamp(f"two rows on {format_date(dates[same[0]])}")
        ordinals.flags.writeable = False
        vars(self).update(station=station, parameters=parameters, dates=dates, columns=columns,
                          source=source, ordinals=ordinals)

    @cached_property
    def rows(self) -> tuple[DatasetRow, ...]:
        values = zip(*self.columns) if self.columns else repeat((), len(self.dates))
        return tuple(map(DatasetRow, self.dates, values))


def _date_column(cells: list[str]) -> list[date] | _Bad:
    """The dates of a column, or its first bad cell."""
    joined = "\n".join(cells)
    fields = _DATE_LINE_RE.findall(joined)
    if len(fields) == len(cells) == joined.count("\n") + 1:  # one M/D/YYYY line per cell
        try:
            return [date(int(year), int(month), int(day)) for month, day, year in fields]
        except ValueError:  # no such calendar day
            pass
    for i, cell in enumerate(cells):
        try:
            parse_date(cell)
        except (MalformedDate, InvalidDate) as exc:
            return i, exc
    return []  # an empty column


def _first_non_cell(cells: list[str], joined: str) -> int:
    """The index of the first cell that is neither a number nor a missing marker,
    or ``len(cells)``."""
    bad = _NON_CELL_LINE_RE.search(joined)
    end = len(cells) if bad is None else joined.count("\n", 0, bad.start())
    # a quoted cell holding "\n" is bad, and the lines after it are not cells
    if joined.count("\n") >= len(cells):
        end = min(end, next((i for i, cell in enumerate(cells) if "\n" in cell), end))
    return end


def _value_column(cells: list[str], code: str) -> list[float | None] | _Bad:
    """The values of a column, or its first bad cell: one that is neither a
    number nor a missing marker, or a number outside the float range."""
    joined = "\n".join(cells)
    end = len(cells) if _NON_CELL_CHAR_RE.search(joined) is None else _first_non_cell(cells, joined)
    try:
        values = [None if cell in _MISSING_MARKERS else float(cell) for cell in cells[:end]]
    except ValueError:  # a cell of the character class that is no number, such as "1e" or "--"
        end = _first_non_cell(cells, joined)
        values = [None if cell in _MISSING_MARKERS else float(cell) for cell in cells[:end]]
    if math.inf in values or -math.inf in values:  # float() overflowed before row `end`
        i = next(i for i, value in enumerate(values) if value in (math.inf, -math.inf))
        return i, MalformedNumber(f"row {i + 2}, column {code}: out of range: {cells[i]!r}")
    if end < len(cells):
        return end, MalformedNumber(f"row {end + 2}, column {code}: not a number: {cells[end]!r}")
    return values


def _parse_body(body: list[list[str]], parameters: tuple[str, ...]) -> list[list]:
    """The columns of ``body``, dates first, each parsed by one scan.  Each scan
    gives its cells or its first bad cell, and the earliest row's error raises;
    in one row, a wrong cell count comes first, then the date, then the values
    from left to right."""
    width = len(parameters) + 1
    good = next((i for i, record in enumerate(body) if len(record) != width), len(body))
    columns = [[cell.strip() for cell in map(itemgetter(j), body[:good])] for j in range(width)]
    scans = [_date_column(columns[0])]
    scans += [_value_column(cells, code) for cells, code in zip(columns[1:], parameters)]
    failures = [scan for scan in scans if isinstance(scan, tuple)]
    if good < len(body):  # no scan reached this row, so it ties with no scanned cell
        got = len(body[good])
        failures.append((good, MalformedRow(f"row {good + 2}: expected {width} cells, got {got}")))
    if failures:
        raise min(failures, key=itemgetter(0))[1]  # on one row, min keeps the leftmost
    return scans


def parse_csv(text: str, station: str = "unknown", source: str = "<memory>") -> Dataset:
    """Parse a monitoring table from CSV text.

    The first header cell must be "Data" or "Date"; the rest name the
    parameter columns.  The :class:`Dataset` sorts the rows by date and
    rejects two rows on the same date.
    """
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        records = [row for row in reader if row]
    except csv.Error as exc:  # e.g. a cell over the field size limit
        raise MalformedRow(f"row {reader.line_num}: {exc}") from None
    if not records:
        raise HeaderMismatch("file has no header row")
    header = [cell.strip() for cell in records[0]]
    if header[0] not in ("Data", "Date"):
        raise HeaderMismatch(f"first header cell must be Data or Date, got {header[0]!r}")
    parameters = tuple(header[1:])
    if len(set(parameters)) != len(parameters):
        raise HeaderMismatch("duplicate parameter codes in header")
    dates, *columns = _parse_body(records[1:], parameters)
    return Dataset(station=station, parameters=parameters, dates=dates, columns=columns,
                   source=source)


def serialize_csv(dataset: Dataset) -> str:
    """Render a dataset back to CSV; parsing the result reproduces it."""
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerow(["Data", *dataset.parameters])
    # body cells never need quoting: the date, then repr of each float or "*" for None
    # (no date or float repr holds "None")
    rows = zip(map(format_date, dataset.dates), *(map(repr, column) for column in dataset.columns))
    return out.getvalue() + "".join(f"{','.join(row)}\n" for row in rows).replace("None", "*")


def load_csv(path: str | Path, station: str | None = None) -> Dataset:
    """Read a dataset from a file, skipping a UTF-8 BOM; the station defaults to the file stem."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        reason = f"{exc.reason} at byte {exc.start}"
        raise UndecodableFile(f"{path}: not UTF-8 text ({reason})") from None
    return parse_csv(text, station=station or path.stem, source=str(path))


def gropeni_dataset() -> Dataset:
    """The bundled Dunare-Gropeni table (11 rows, 6 parameters), 9/11/2003 .. 7/15/2004."""
    text = importlib.resources.files(__package__).joinpath("data/gropeni.csv").read_text("utf-8")
    return parse_csv(text, station=GROPENI_STATION, source="fixture:gropeni")


def dataset_series(dataset: Dataset, parameter: str) -> TimeSeries:
    """The series of one parameter: its present cells in row (date) order,
    with t the exact day count from the first of them, which is the epoch.

    Raises UnknownParameter for a code the table lacks and EmptySeries when
    every cell of the column is absent.
    """
    try:
        i = dataset.parameters.index(parameter)
    except ValueError:
        raise UnknownParameter(
            f"unknown parameter {parameter!r}; file has {', '.join(dataset.parameters)}"
        ) from None
    column = dataset.columns[i]
    present = ~np.isnan(np.array(column, dtype=float))  # None reads as nan; the table has no nan
    if not present.any():
        raise EmptySeries(f"no values for {dataset.station!r}/{parameter!r}")
    days = dataset.ordinals[present]
    t = (days - days[0]).astype(float)
    # the knots share the table's float objects
    knots = tuple(zip(t.tolist(), map(float, compress(column, present.tolist()))))
    epoch = dataset.dates[int(present.argmax())]
    return TimeSeries(station=dataset.station, parameter=parameter, knots=knots, epoch=epoch)
