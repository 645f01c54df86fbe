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

_NUMBER = r"[+-]?(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?"

_NUMBER_RE = re.compile(rf"^{_NUMBER}$")

# the first line of a "\n"-joined column that is neither a number nor a missing marker
_BAD_LINE_RE = re.compile(rf"^(?!(?:{_NUMBER}|[*-])$)", re.M)


@dataclass(frozen=True)
class DatasetRow:
    """One sampling date; values align with the dataset's parameter order."""

    date: date
    values: tuple[float | None, ...]


@dataclass(frozen=True)
class Dataset:
    """A monitoring table.  Its rows are sorted by date when it is built (a
    stable sort), and two rows on one date raise DuplicateTimestamp."""

    station: str
    parameters: tuple[str, ...]
    rows: tuple[DatasetRow, ...]
    source: str

    def __post_init__(self) -> None:
        rows = tuple(sorted(self.rows, key=attrgetter("date")))
        for a, b in zip(rows, rows[1:]):
            if a.date == b.date:
                raise DuplicateTimestamp(f"two rows on {format_date(a.date)}")
        object.__setattr__(self, "rows", rows)


def _parse_cell(cell: str, row_number: int, code: str) -> float | None:
    if cell in _MISSING_MARKERS:
        return None
    if not _NUMBER_RE.match(cell):
        raise MalformedNumber(f"row {row_number}, column {code}: not a number: {cell!r}")
    value = float(cell)
    if not math.isfinite(value):
        raise MalformedNumber(f"row {row_number}, column {code}: out of range: {cell!r}")
    return value


def _parse_rows(body: list[list[str]], parameters: tuple[str, ...]) -> list[DatasetRow]:
    """The rows of ``body``, parsed a record at a time; the first bad cell in
    row order raises (arity, then date, then values from left to right)."""
    rows = []
    for number, record in enumerate(body, start=2):
        cells = [cell.strip() for cell in record]
        if len(cells) != len(parameters) + 1:
            raise MalformedRow(
                f"row {number}: expected {len(parameters) + 1} cells, got {len(cells)}"
            )
        when = parse_date(cells[0])
        values = tuple(
            _parse_cell(cell, number, code) for cell, code in zip(cells[1:], parameters)
        )
        rows.append(DatasetRow(date=when, values=values))
    return rows


def _parse_columns(body: list[list[str]], parameters: tuple[str, ...]) -> list[DatasetRow] | None:
    r"""The rows of ``body``, parsed a column at a time; None if any record is bad.

    Each value column is stripped, joined with "\n" and checked by one
    regex search, then converted with ``float``.  A cell holding "\n"
    would pass as two lines, so it counts as bad.
    """
    if not parameters or set(map(len, body)) != {len(parameters) + 1}:
        return None
    try:
        dates = list(map(parse_date, map(str.strip, map(itemgetter(0), body))))
    except (MalformedDate, InvalidDate):
        return None
    value_columns = []
    for j in range(1, len(parameters) + 1):
        joined = "\n".join(map(str.strip, map(itemgetter(j), body)))
        if joined.count("\n") != len(body) - 1 or _BAD_LINE_RE.search(joined):
            return None
        values = [None if cell in _MISSING_MARKERS else float(cell) for cell in joined.split("\n")]
        if math.inf in values or -math.inf in values:  # float() overflowed
            return None
        value_columns.append(values)
    return list(map(DatasetRow, dates, zip(*value_columns)))


def parse_csv(text: str, station: str = "unknown", source: str = "<memory>") -> Dataset:
    """Parse a monitoring table from CSV text.

    The first header cell must be "Data" or "Date"; the rest name the
    parameter columns.  The :class:`Dataset` sorts the rows by date and
    rejects two rows on the same date.
    """
    reader = csv.reader(io.StringIO(text))
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
    rows = _parse_columns(records[1:], parameters)
    if rows is None:  # a bad record: the row-major loop raises for the first one
        rows = _parse_rows(records[1:], parameters)
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
