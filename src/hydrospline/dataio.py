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
from pathlib import Path

from .errors import (
    DuplicateTimestamp,
    HeaderMismatch,
    MalformedNumber,
    MalformedRow,
    UndecodableFile,
    UnknownParameter,
)
from .series import Sample, TimeSeries, _series_from_pairs, format_date, parse_date

GROPENI_STATION = "Dunare-Gropeni"

_MISSING_MARKERS = {"*", "-"}

_NUMBER_RE = re.compile(r"^[+-]?(\d+(\.\d*)?|\.\d+)([eE][+-]?\d+)?$")


@dataclass(frozen=True)
class DatasetRow:
    """One sampling date; values align with the dataset's parameter order."""

    date: date
    values: tuple[float | None, ...]


@dataclass(frozen=True)
class Dataset:
    """A parsed monitoring table: rows sorted by date, no duplicate dates."""

    station: str
    parameters: tuple[str, ...]
    rows: tuple[DatasetRow, ...]
    source: str

    def column(self, parameter: str) -> list[float | None]:
        i = self._parameter_index(parameter)
        return [row.values[i] for row in self.rows]

    def samples(self, parameter: str) -> list[Sample]:
        i = self._parameter_index(parameter)
        return [
            Sample(station=self.station, date=row.date, parameter=parameter, value=row.values[i])
            for row in self.rows
        ]

    def _parameter_index(self, parameter: str) -> int:
        try:
            return self.parameters.index(parameter)
        except ValueError:
            raise UnknownParameter(
                f"unknown parameter {parameter!r}; file has {', '.join(self.parameters)}"
            ) from None


def _parse_cell(cell: str, row_number: int, code: str) -> float | None:
    if cell in _MISSING_MARKERS:
        return None
    if not _NUMBER_RE.match(cell):
        raise MalformedNumber(f"row {row_number}, column {code}: not a number: {cell!r}")
    value = float(cell)
    if not math.isfinite(value):
        raise MalformedNumber(f"row {row_number}, column {code}: out of range: {cell!r}")
    return value


def parse_csv(text: str, station: str = "unknown", source: str = "<memory>") -> Dataset:
    """Parse a monitoring table from CSV text.

    The first header cell must be "Data" or "Date"; the rest name the
    parameter columns.  Rows are sorted by date on the way in and two rows
    on the same date are rejected.
    """
    reader = csv.reader(io.StringIO(text))
    records = [row for row in reader if row]
    if not records:
        raise HeaderMismatch("file has no header row")
    header = [cell.strip() for cell in records[0]]
    if header[0] not in ("Data", "Date"):
        raise HeaderMismatch(f"first header cell must be Data or Date, got {header[0]!r}")
    parameters = tuple(header[1:])
    if len(set(parameters)) != len(parameters):
        raise HeaderMismatch("duplicate parameter codes in header")
    rows = []
    for number, record in enumerate(records[1:], start=2):
        cells = [cell.strip() for cell in record]
        if len(cells) != len(header):
            raise MalformedRow(
                f"row {number}: expected {len(header)} cells, got {len(cells)}"
            )
        when = parse_date(cells[0])
        values = tuple(
            _parse_cell(cell, number, code) for cell, code in zip(cells[1:], parameters)
        )
        rows.append(DatasetRow(date=when, values=values))
    rows.sort(key=lambda row: row.date)
    for a, b in zip(rows, rows[1:]):
        if a.date == b.date:
            raise DuplicateTimestamp(f"two rows on {format_date(a.date)}")
    return Dataset(station=station, parameters=parameters, rows=tuple(rows), source=source)


def _format_value(value: float | None) -> str:
    if value is None:
        return "*"
    return repr(value)


def serialize_csv(dataset: Dataset) -> str:
    """Render a dataset back to CSV; parsing the result reproduces it."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["Data", *dataset.parameters])
    for row in dataset.rows:
        writer.writerow([format_date(row.date), *map(_format_value, row.values)])
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
    """Build the day-count series for one parameter of a dataset (no Sample per cell)."""
    i = dataset._parameter_index(parameter)
    pairs = ((row.date, row.values[i]) for row in dataset.rows)
    return _series_from_pairs(pairs, dataset.station, parameter)
