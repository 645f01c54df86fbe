"""CSV parsing, serialization round trips, and the bundled dataset."""

import copy
import csv
import gc
import io
import pickle
import random
from datetime import date, datetime, timedelta
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import make_dataset, scalar_parse_rows, station_csv
from hydrospline import (
    Dataset,
    DatasetRow,
    dataset_series,
    gropeni_dataset,
    load_csv,
    parse_csv,
    serialize_csv,
)
from hydrospline import dataio
from hydrospline.dataio import GROPENI_STATION
from hydrospline.errors import (
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


def test_bundled_dataset_shape(gropeni):
    assert gropeni.station == GROPENI_STATION
    assert gropeni.parameters == ("temp", "pH", "OD", "CBO5", "CCO-Mn", "CCO-Cr")
    assert len(gropeni.rows) == 11
    missing = sum(v is None for row in gropeni.rows for v in row.values)
    assert missing == 3


def test_bundled_oxygen_column(gropeni):
    series = dataset_series(gropeni, "OD")
    assert series.t == (0.0, 33.0, 61.0, 85.0, 141.0, 147.0, 196.0, 232.0, 263.0, 291.0, 308.0)
    assert series.y == (8.1, 7.5, 7.9, 7.3, 8.3, 8.5, 9.2, 9.8, 8.0, 9.0, 7.6)


def test_bundled_temperature_skips_missing(gropeni):
    series = dataset_series(gropeni, "temp")
    assert len(series.knots) == 9
    assert series.y[0] == 21.0
    assert series.y[-1] == 26.0
    # the two starred dates fall out of the knot sequence entirely
    absent = {"2004-04-30", "2004-07-15"}
    kept = {series.calendar_date(t).isoformat() for t in series.t}
    assert kept.isdisjoint(absent)


def test_rows_sorted_even_when_input_is_not():
    text = "Data,temp\n3/1/2004,5.0\n9/11/2003,19.0\n"
    dataset = parse_csv(text)
    assert [row.date.isoformat() for row in dataset.rows] == ["2003-09-11", "2004-03-01"]


def test_date_header_spelling_accepted():
    dataset = parse_csv("Date,pH\n1/2/2003,7.5\n")
    assert dataset.parameters == ("pH",)
    # serialization normalizes the header
    assert serialize_csv(dataset).splitlines()[0] == "Data,pH"


def test_header_must_start_with_data():
    with pytest.raises(HeaderMismatch):
        parse_csv("When,temp\n1/2/2003,5.0\n")
    with pytest.raises(HeaderMismatch):
        parse_csv("Data,temp,temp\n1/2/2003,5.0,6.0\n")
    with pytest.raises(HeaderMismatch):
        parse_csv("")


def test_row_arity_checked():
    with pytest.raises(MalformedRow):
        parse_csv("Data,temp,pH\n1/2/2003,5.0\n")


def test_cell_over_the_csv_field_limit_rejected():
    # the csv module's own error for the cell becomes a MalformedRow on its line
    text = "Data,OD\n1/2/2003," + "9" * (csv.field_size_limit() + 1) + "\n1/3/2003,5.0\n"
    with pytest.raises(MalformedRow) as info:
        parse_csv(text)
    assert str(info.value) == f"row 2: field larger than field limit ({csv.field_size_limit()})"


def test_bad_cells_rejected():
    for cell in ("abc", "1.2.3", "nan", "inf", "1_000", "--", ""):
        with pytest.raises(MalformedNumber):
            parse_csv(f"Data,temp\n1/2/2003,{cell}\n")


def test_overflowing_cell_rejected():
    # 1e400 matches the number pattern but float() turns it into inf
    with pytest.raises(MalformedNumber, match=r"row 3, column pH: out of range: '-1e400'"):
        parse_csv("Data,temp,pH\n1/2/2003,5.0,7.1\n1/3/2003,6.0,-1e400\n")


def test_byte_order_mark_skipped(tmp_path, gropeni, gropeni_text):
    path = tmp_path / "gropeni.csv"
    path.write_text("\ufeff" + gropeni_text, encoding="utf-8")
    dataset = load_csv(path)
    assert dataset.parameters == gropeni.parameters
    assert dataset.rows == gropeni.rows


def test_bad_dates_rejected():
    with pytest.raises(InvalidDate):
        parse_csv("Data,temp\n2/30/2004,5.0\n")


def test_quoted_date_cell_with_a_trailing_newline_parses():
    # cells are stripped before the date column is read
    assert parse_csv('Data,A\n"1/2/2003\n",5\n').dates == (date(2003, 1, 2),)


def test_duplicate_dates_rejected():
    text = "Data,temp\n1/2/2003,5.0\n1/2/2003,6.0\n"
    with pytest.raises(DuplicateTimestamp, match=r"^two rows on 1/2/2003$"):
        parse_csv(text)


def test_missing_markers_parse_to_none():
    dataset = parse_csv("Data,temp,pH\n1/2/2003,*,7.1\n2/2/2003,-,7.2\n")
    assert [row.values for row in dataset.rows] == [(None, 7.1), (None, 7.2)]


def test_round_trip_is_identity(gropeni):
    text = serialize_csv(gropeni)
    again = parse_csv(text, station=gropeni.station, source=gropeni.source)
    assert again == gropeni
    assert serialize_csv(again) == text


def test_round_trip_preserves_float_precision():
    text = "Data,OD\n1/2/2003,0.1\n1/3/2003,0.30000000000000004\n"
    dataset = parse_csv(text)
    assert serialize_csv(dataset).splitlines()[2] == "1/3/2003,0.30000000000000004"
    assert [row.values for row in dataset.rows] == [(0.1,), (0.1 + 0.2,)]


def test_missing_serializes_as_star(gropeni):
    lines = serialize_csv(gropeni).splitlines()
    assert lines[8].startswith("4/30/2004,*")


def test_load_csv_defaults_station_to_stem(tmp_path):
    path = tmp_path / "somewhere.csv"
    path.write_text("Data,temp\n1/2/2003,5.0\n")
    dataset = load_csv(path)
    assert dataset.station == "somewhere"
    assert dataset.source == str(path)
    named = load_csv(path, station="elsewhere")
    assert named.station == "elsewhere"


def test_unknown_parameter_lists_available(gropeni):
    with pytest.raises(UnknownParameter) as info:
        dataset_series(gropeni, "NOPE")
    assert "temp" in str(info.value)


def test_datasets_compare_by_value(gropeni):
    clone = Dataset(
        station=gropeni.station,
        parameters=gropeni.parameters,
        dates=gropeni.dates,
        columns=gropeni.columns,
        source=gropeni.source,
    )
    assert clone == gropeni


def test_non_utf8_file_names_the_file(tmp_path):
    path = tmp_path / "latin.csv"
    path.write_bytes(b"Data,temp\n1/2/2003,5.0\n1/3/2003,caf\xe9\n")
    with pytest.raises(UndecodableFile, match="latin.csv: not UTF-8 text"):
        load_csv(path)


def _seeded_table(rows=2000, seed=11):
    """A daily table of six columns with 10% of cells missing: the CSV text
    and the generated values, NaN where a cell is missing."""
    rng = np.random.default_rng(seed)
    values = rng.uniform(-50.0, 50.0, (rows, 6))
    missing = rng.random((rows, 6)) < 0.1
    start = date(2000, 1, 1)
    lines = ["Data,temp,pH,OD,CBO5,CCO-Mn,CCO-Cr"]
    for i in range(rows):
        day = start + timedelta(days=i)
        cells = ["*" if gap else repr(v) for v, gap in zip(values[i].tolist(), missing[i])]
        lines.append(f"{day.month}/{day.day}/{day.year}," + ",".join(cells))
    return "\n".join(lines) + "\n", np.where(missing, np.nan, values)


def _fixture_knots(text):
    """Each column's (epoch, knots) over its present cells, read with str.split
    and strptime: a reference that shares no code with parse_csv."""
    header, *lines = [line.split(",") for line in text.splitlines()]
    days = [datetime.strptime(cells[0], "%m/%d/%Y").date() for cells in lines]
    expected = {}
    for j, code in enumerate(header[1:], start=1):
        present = sorted((day, float(cells[j])) for day, cells in zip(days, lines)
                         if cells[j] not in ("*", "-"))
        epoch = present[0][0]
        expected[code] = epoch, tuple((float((day - epoch).days), v) for day, v in present)
    return expected


def _generator_knots(values):
    """Each column's (epoch, knots) of ``_seeded_table``: row i holds day i."""
    expected = {}
    for j, code in enumerate(("temp", "pH", "OD", "CBO5", "CCO-Mn", "CCO-Cr")):
        present = np.flatnonzero(~np.isnan(values[:, j]))
        t = (present - present[0]).astype(float)
        epoch = date(2000, 1, 1) + timedelta(days=int(present[0]))
        expected[code] = epoch, tuple(zip(t.tolist(), values[present, j].tolist()))
    return expected


@pytest.mark.parametrize("source", ["fixture", "seeded"])
def test_dataset_series_equals_series_of_samples(gropeni_text, source):
    # knots are (days since the first present cell, value) over the sampled values
    if source == "fixture":
        ds, expected = gropeni_dataset(), _fixture_knots(gropeni_text)
    else:
        text, values = _seeded_table()
        ds, expected = parse_csv(text, station="seeded"), _generator_knots(values)
    assert set(expected) == set(ds.parameters)
    for p, (epoch, knots) in expected.items():
        series = dataset_series(ds, p)
        assert (series.epoch, series.knots) == (epoch, knots)


def test_dataset_series_of_unsorted_rows():
    ds = make_dataset(
        (date(2004, 3, 1), (3.0,)), (date(2003, 9, 11), (1.0,)), (date(2004, 1, 5), (None,)),
        (date(2003, 12, 31), (2.0,)),
    )
    assert [row.date for row in ds.rows] == sorted(row.date for row in ds.rows)
    series = dataset_series(ds, "OD")
    assert series.epoch == date(2003, 9, 11)
    assert series.t == (0.0, 111.0, 172.0)
    assert series.y == (1.0, 2.0, 3.0)


def _message(action):
    with pytest.raises(HydrosplineError) as info:
        action()
    return type(info.value), str(info.value)


def test_dataset_series_duplicate_dates_match_build_series():
    # a parsed table and a hand-built one fail alike, when the Dataset is built
    got = _message(lambda: parse_csv("Data,OD\n9/11/2003,1\n9/11/2003,2\n", station="s"))
    assert got == _message(
        lambda: make_dataset((date(2003, 9, 11), (1.0,)), (date(2003, 9, 11), (2.0,)))
    )
    assert got == (DuplicateTimestamp, "two rows on 9/11/2003")


def test_dataset_series_all_missing_matches_build_series():
    parsed = parse_csv("Data,OD,pH\n9/11/2003,*,1\n9/12/2003,-,2\n", station="s")
    got = _message(lambda: dataset_series(parsed, "OD"))
    built = make_dataset((date(2003, 9, 11), (None, 1.0)), (date(2003, 9, 12), (None, 2.0)),
                         parameters=("OD", "pH"))
    assert got == _message(lambda: dataset_series(built, "OD"))
    assert got == (EmptySeries, "no values for 's'/'OD'")


def test_hand_built_row_of_wrong_width_rejected():
    # a parsed table checks the cell count of each record, so only a hand-built one gets here
    dates = (date(2003, 9, 11), date(2003, 9, 12))
    with pytest.raises(MalformedRow, match=r"^expected 2 columns, got 1$"):
        Dataset("s", ("OD", "pH"), dates, ((1.0, 2.0),), "<hand>")
    with pytest.raises(MalformedRow, match=r"^column pH: expected 2 values, got 1$"):
        Dataset("s", ("OD", "pH"), dates, ((1.0, 2.0), (7.0,)), "<hand>")


def test_dataset_series_rejects_infinite_values():
    # the table rejects the value when it is built, before any series is taken from it
    with pytest.raises(MalformedNumber, match=r"^row on 9/12/2003, column OD: not finite: inf$"):
        make_dataset((date(2003, 9, 11), (1.0,)), (date(2003, 9, 12), (float("inf"),)))


def test_hand_built_nan_value_rejected():
    # a parsed table rejects "nan" as not a number, so only a hand-built one gets here
    with pytest.raises(MalformedNumber, match=r"^row on 9/12/2003, column pH: not finite: nan$"):
        make_dataset((date(2003, 9, 11), (1.0, 7.0)), (date(2003, 9, 12), (2.0, float("nan"))),
                     parameters=("OD", "pH"))


# --- the column scans against the row-major reference

def _parse_failure(text):
    with pytest.raises(HydrosplineError) as info:
        parse_csv(text)
    return type(info.value), str(info.value)


@pytest.mark.parametrize(
    "text, expected",
    [
        # column order meets B's bad row 3 first; row order meets C's bad row 2 first
        ("Data,A,B,C\n1/1/2003,1,2,x\n1/2/2003,1,y,3\n",
         (MalformedNumber, "row 2, column C: not a number: 'x'")),
        # the date column is parsed first, but a bad number in an earlier row wins
        ("Data,A\n1/1/2003,x\n2/30/2003,1\n",
         (MalformedNumber, "row 2, column A: not a number: 'x'")),
        # arity is checked first, but a bad cell in an earlier row wins
        ("Data,A,B\n1/1/2003,1,x\n1/2/2003,1\n",
         (MalformedNumber, "row 2, column B: not a number: 'x'")),
        ("Data,A,B\n1/1/2003,1,1e400\n1/2/2003,x,1\n",
         (MalformedNumber, "row 2, column B: out of range: '1e400'")),
        # a quoted cell holding a newline is one bad cell, not two good lines
        ('Data,A\n1/1/2003,"1\n2"\n', (MalformedNumber, "row 2, column A: not a number: '1\\n2'")),
        ('Data,A\n1/1/2003," 7 "\n1/2/2003,"\n"\n',
         (MalformedNumber, "row 3, column A: not a number: ''")),
        ("Data,A\n1/1/2003,1\n1/2/2003\n", (MalformedRow, "row 3: expected 2 cells, got 1")),
        ("Data,A\n1/1/2003,*\nx,1\n", (MalformedDate, "expected M/D/YYYY, got 'x'")),
    ],
    ids=["row-before-column", "number-before-date", "cell-before-arity", "range-before-number",
         "quoted-newline", "quoted-blank", "arity", "date"],
)
def test_first_bad_cell_in_row_order_is_reported(text, expected):
    assert _parse_failure(text) == expected


def test_unicode_digits_parse_as_numbers():
    dataset = parse_csv("Data,A\n1/1/2003,٣\n1/2/2003,١.٥e1\n")
    assert [row.values for row in dataset.rows] == [(3.0,), (15.0,)]


def _messy_table(seed, rows=400):
    """Shuffled daily rows whose cells carry whitespace, signs, exponents and both markers."""
    rng = random.Random(seed)
    start = date(1995, 1, 1)
    order = list(range(rows))
    rng.shuffle(order)

    def cell():
        if rng.random() < 0.1:
            return rng.choice(["*", "-", " * ", "\t-"])
        digits = str(rng.randint(0, 10**rng.randint(0, 9)))
        body = rng.choice([digits, f"{digits}.{rng.randint(0, 999)}", f".{digits}", f"{digits}."])
        exponent = rng.choice(["", "", f"e{rng.randint(-300, 300)}", f"E+{rng.randint(0, 9)}"])
        pad = rng.choice(["", "", " ", "\t", "  "])
        return f"{pad}{rng.choice(['', '+', '-'])}{body}{exponent}{pad[::-1]}"

    lines = ["Data,temp, pH ,OD"]
    for i in order:
        day = start + timedelta(days=i)
        lines.append(", ".join([f"{day.month}/{day.day}/{day.year}"] + [cell() for _ in range(3)]))
    return "\n".join(lines) + "\n"


def _reference_parse(text):
    """What parse_csv gives, with the body parsed by the row-major reference."""
    records = [record for record in csv.reader(io.StringIO(text, newline="")) if record]
    parameters = tuple(cell.strip() for cell in records[0][1:])
    rows = scalar_parse_rows(records[1:], parameters)
    return make_dataset(*rows, parameters=parameters, station="unknown", source="<memory>")


@pytest.mark.parametrize("seed", range(6))
def test_column_parse_equals_row_parse(seed):
    text = _messy_table(seed)
    dataset = parse_csv(text)
    # repr tells -0.0 from 0.0, which == does not
    assert repr(dataset) == repr(_reference_parse(text))
    assert parse_csv(serialize_csv(dataset)) == dataset
    assert repr(parse_csv(serialize_csv(dataset))) == repr(dataset)


def test_table_without_parameters_round_trips():
    dataset = parse_csv("Data\n1/3/2003\n1/2/2003\n")
    assert [row.values for row in dataset.rows] == [(), ()]
    assert serialize_csv(dataset) == "Data\n1/2/2003\n1/3/2003\n"


_GOOD_CELLS = ["1", "-2.5", "+.5", "3.", "1e3", " 7.25 ", "-0.0", "*", "-", " * "]
_BAD_DATES = ["2/30/2003", "13/1/2003", "x", "1/1/04", "1//2004"]
# the last ten are made of characters that numbers and markers hold, so only
# float() or the per-line scan tells them from a number
_BAD_CELLS = ["abc", "", "1.2.3", "1e400", "-1e999", '"1\n2"', "٣", "١.٥e1",
              "1e", "--", ".", "+", "e5", "1_0", "inf", "nan", "-*", "1.5e3.2"]


def _corrupted_table(rng):
    """Shuffled rows of 0-3 parameters; each row gets up to two corruptions: a
    dropped or an extra cell, a bad date, or a junk, overflowing, quoted-newline
    or Unicode-digit value cell."""
    parameters = [f"P{j}" for j in range(rng.randint(0, 3))]
    start = date(2003, 1, 1) + timedelta(days=rng.randint(0, 400))
    lines = []
    for i in range(rng.randint(0, 8)):
        day = start + timedelta(days=i)
        cells = [f"{day.month}/{day.day}/{day.year}"]
        cells += [rng.choice(_GOOD_CELLS) for _ in parameters]
        for _ in range(2):
            kind = rng.choice(["drop", "extra", "date", "value", None, None, None, None])
            if kind == "drop" and cells:
                cells.pop(rng.randrange(len(cells)))
            elif kind == "extra":
                cells.insert(rng.randint(0, len(cells)), rng.choice(_GOOD_CELLS))
            elif kind == "date" and cells:
                cells[0] = rng.choice(_BAD_DATES)
            elif kind == "value" and len(cells) > 1:
                cells[rng.randrange(1, len(cells))] = rng.choice(_BAD_CELLS)
        lines.append(",".join(cells))
    rng.shuffle(lines)
    return "\n".join([",".join(["Data", *parameters]), *lines]) + "\n"


def _outcome(parse, text):
    try:
        return "parsed", repr(parse(text))
    except HydrosplineError as exc:
        return type(exc), str(exc)


def test_first_error_equals_row_major_reference():
    rng = random.Random(2003)
    kinds = set()
    for _ in range(3000):
        text = _corrupted_table(rng)
        got = _outcome(parse_csv, text)
        assert got == _outcome(_reference_parse, text), text
        kinds.add(got[0])
    # the tables reach every outcome: parsed, and each error of the body
    assert kinds == {"parsed", MalformedRow, MalformedDate, InvalidDate, MalformedNumber}


# the characters of the clean-column screen, where float() decides, and decimal
# digits of two other scripts, which send the column to the per-cell walk
_SCREEN_CELLS = st.text("0123456789.eE+-*", max_size=8)
_UNICODE_CELLS = st.text("0123456789.eE+-*٣١٥१५", max_size=8)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(cells=st.lists(st.one_of(_SCREEN_CELLS, _UNICODE_CELLS), min_size=1, max_size=5))
def test_screened_cells_parse_as_the_number_grammar(cells):
    # the clean-column path trusts float() and the walk trusts the cell grammar,
    # so over these characters both must take exactly the reference's numbers
    lines = [f"1/{day}/2003,{cell}" for day, cell in enumerate(cells, start=1)]
    text = "\n".join(["Data,A", *lines]) + "\n"
    assert _outcome(parse_csv, text) == _outcome(_reference_parse, text)


def test_only_a_column_with_a_bad_cell_is_walked(monkeypatch):
    grammar = mock.Mock(wraps=dataio._CELL_RE)  # counts the walk's fullmatch calls
    monkeypatch.setattr(dataio, "_CELL_RE", grammar)
    parse_csv(station_csv(1))
    assert grammar.fullmatch.call_count == 0
    lines = station_csv(1, days=30).splitlines()
    date_cell, *cells = lines[-1].split(",")
    cells[2] = "1e"
    lines[-1] = ",".join([date_cell, *cells])
    assert _parse_failure("\n".join(lines)) == (
        MalformedNumber, "row 31, column OD: not a number: '1e'")
    assert grammar.fullmatch.call_count == 30


@pytest.mark.parametrize("ending", ["\r\n", "\r"])
def test_line_endings_parse_alike(gropeni_text, ending):
    assert "\r" not in gropeni_text
    assert parse_csv(gropeni_text.replace("\n", ending)) == parse_csv(gropeni_text)


def test_quoted_line_break_is_not_a_number():
    assert _parse_failure('Data,A\r\n1/1/2003,"1\r\n2"\r\n') == (
        MalformedNumber, "row 2, column A: not a number: '1\\r\\n2'")


@pytest.mark.parametrize(
    "duplicate",
    [copy.copy, copy.deepcopy, lambda value: pickle.loads(pickle.dumps(value))],
    ids=["copy", "deepcopy", "pickle"],
)
def test_dataset_copies_are_rebuilt(gropeni, duplicate):
    # a copy goes through the constructor, so it carries no cached rows view
    # and its ordinals are read-only, like the original's
    assert gropeni.rows and "rows" in vars(gropeni)
    duplicated = duplicate(gropeni)
    assert duplicated == gropeni
    assert not duplicated.ordinals.flags.writeable
    assert duplicated.ordinals.tobytes() == gropeni.ordinals.tobytes()
    assert "rows" not in vars(duplicated)
    assert duplicated.rows == gropeni.rows


def test_parse_leaves_no_object_per_row_for_the_collector():
    # the table is held as columns of floats, None and dates, which the garbage
    # collector does not track, so a parse and its series leave O(parameters)
    # tracked objects alive; a row object per row left about 2,000
    text, _ = _seeded_table()
    gc.collect()
    before = len(gc.get_objects())
    dataset = parse_csv(text)
    series = [dataset_series(dataset, p) for p in dataset.parameters]
    gc.collect()
    assert len(gc.get_objects()) - before < 10 * len(series)
    assert len(dataset.dates) == 2000


def test_rows_view_matches_columns():
    ds = parse_csv("Data,temp,pH\n3/1/2004,5.0,*\n9/11/2003,19.0,7.5\n")
    assert "rows" not in vars(ds)
    assert ds.rows == (DatasetRow(date(2003, 9, 11), (19.0, 7.5)),
                       DatasetRow(date(2004, 3, 1), (5.0, None)))
    assert ds.columns == ((19.0, 5.0), (7.5, None))
    assert ds.ordinals.tolist() == [date(2003, 9, 11).toordinal(), date(2004, 3, 1).toordinal()]
