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
from dataclasses import dataclass
from datetime import date
from operator import attrgetter, itemgetter
from pathlib import Path

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
)
from .series import TimeSeries, format_date, parse_date

GROPENI_STATION = "Dunare-Gropeni"

_MISSING_MARKERS = {"*", "-"}

# a line of a "\n"-joined column that is neither a number nor a missing marker
_NON_CELL_LINE_RE = re.compile(r"^(?!(?:[+-]?(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?|[*-])$)",
                               re.M)

_Bad = tuple[int, HydrosplineError]  # a column's first bad cell: its index and its error


@dataclass(frozen=True)
class DatasetRow:
    """One sampling date; values align with the dataset's parameter order."""

    date: date
    values: tuple[float | None, ...]


@dataclass(frozen=True)
class Dataset:
    """A monitoring table, its rows sorted by date when built (a stable sort).  A row
    of the wrong width raises MalformedRow, two rows on one date DuplicateTimestamp."""

    station: str
    parameters: tuple[str, ...]
    rows: tuple[DatasetRow, ...]
    source: str

    def __post_init__(self) -> None:
        rows = tuple(sorted(self.rows, key=attrgetter("date")))
        width = len(self.parameters)
        for row in rows:
            if len(row.values) != width:
                when, got = format_date(row.date), len(row.values)
                raise MalformedRow(f"row on {when}: expected {width} values, got {got}")
        for a, b in zip(rows, rows[1:]):
            if a.date == b.date:
                raise DuplicateTimestamp(f"two rows on {format_date(a.date)}")
        object.__setattr__(self, "rows", rows)


def _date_column(cells: list[str]) -> list[date] | _Bad:
    """The dates of a column, or its first bad cell."""
    dates = []
    for i, cell in enumerate(cells):
        try:
            dates.append(parse_date(cell))
        except (MalformedDate, InvalidDate) as exc:
            return i, exc
    return dates


def _value_column(cells: list[str], code: str) -> list[float | None] | _Bad:
    """The values of a column, or its first bad cell: one that is neither a
    number nor a missing marker, or a number outside the float range."""
    joined = "\n".join(cells)
    bad = _NON_CELL_LINE_RE.search(joined)
    end = len(cells) if bad is None else joined.count("\n", 0, bad.start())
    # a quoted cell holding "\n" is bad, and the lines after it are not cells
    if joined.count("\n") >= len(cells):
        end = min(end, next((i for i, cell in enumerate(cells) if "\n" in cell), end))
    values = [None if cell in _MISSING_MARKERS else float(cell) for cell in cells[:end]]
    if math.inf in values or -math.inf in values:  # float() overflowed before row `end`
        i = next(i for i, value in enumerate(values) if value in (math.inf, -math.inf))
        return i, MalformedNumber(f"row {i + 2}, column {code}: out of range: {cells[i]!r}")
    if end < len(cells):
        return end, MalformedNumber(f"row {end + 2}, column {code}: not a number: {cells[end]!r}")
    return values


def _parse_body(body: list[list[str]], parameters: tuple[str, ...]) -> list[DatasetRow]:
    """The rows of ``body``, parsed a column at a time.  Each column scan gives
    its cells or its first bad cell, and the earliest row's error raises; in
    one row, a wrong cell count comes first, then the date, then the values
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
    return [DatasetRow(row[0], row[1:]) for row in zip(*scans)]


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
    rows = _parse_body(records[1:], parameters)
    return Dataset(station=station, parameters=parameters, rows=rows, source=source)


def serialize_csv(dataset: Dataset) -> str:
    """Render a dataset back to CSV; parsing the result reproduces it."""
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerow(["Data", *dataset.parameters])
    # value cells never need quoting: the date, then repr of each float or "*" for None
    # (no float's repr holds "None")
    sep = "," if dataset.parameters else ""
    out.writelines(
        f"{format_date(row.date)}{sep}{','.join(map(repr, row.values)).replace('None', '*')}\n"
        for row in dataset.rows
    )
    return out.getvalue()


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
    present = [(row.date, row.values[i]) for row in dataset.rows if row.values[i] is not None]
    if not present:
        raise EmptySeries(f"no values for {dataset.station!r}/{parameter!r}")
    epoch = present[0][0]
    base = epoch.toordinal()
    knots = tuple((float(when.toordinal() - base), float(value)) for when, value in present)
    return TimeSeries(station=dataset.station, parameter=parameter, knots=knots, epoch=epoch)
