"""CSV parsing, serialization round trips, and the bundled dataset."""

from datetime import date, timedelta

import numpy as np
import pytest

from hydrospline import (
    Dataset,
    build_series,
    dataset_series,
    gropeni_dataset,
    load_csv,
    parse_csv,
    serialize_csv,
)
from hydrospline.dataio import GROPENI_STATION, DatasetRow
from hydrospline.errors import (
    DuplicateTimestamp,
    EmptySeries,
    HeaderMismatch,
    InvalidDate,
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


def test_duplicate_dates_rejected():
    text = "Data,temp\n1/2/2003,5.0\n1/2/2003,6.0\n"
    with pytest.raises(DuplicateTimestamp):
        parse_csv(text)


def test_missing_markers_parse_to_none():
    dataset = parse_csv("Data,temp,pH\n1/2/2003,*,7.1\n2/2/2003,-,7.2\n")
    assert dataset.column("temp") == [None, None]
    assert dataset.column("pH") == [7.1, 7.2]


def test_round_trip_is_identity(gropeni):
    text = serialize_csv(gropeni)
    again = parse_csv(text, station=gropeni.station, source=gropeni.source)
    assert again == gropeni
    assert serialize_csv(again) == text


def test_round_trip_preserves_float_precision():
    text = "Data,OD\n1/2/2003,0.1\n1/3/2003,0.30000000000000004\n"
    dataset = parse_csv(text)
    assert serialize_csv(dataset).splitlines()[2] == "1/3/2003,0.30000000000000004"
    assert dataset.column("OD") == [0.1, 0.1 + 0.2]


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


def test_samples_feed_series_builder(gropeni):
    samples = gropeni.samples("CBO5")
    series = build_series(samples, GROPENI_STATION, "CBO5")
    assert len(series.knots) == 11
    assert series.parameter == "CBO5"


def test_datasets_compare_by_value(gropeni):
    clone = Dataset(
        station=gropeni.station,
        parameters=gropeni.parameters,
        rows=gropeni.rows,
        source=gropeni.source,
    )
    assert clone == gropeni


def test_non_utf8_file_names_the_file(tmp_path):
    path = tmp_path / "latin.csv"
    path.write_bytes(b"Data,temp\n1/2/2003,5.0\n1/3/2003,caf\xe9\n")
    with pytest.raises(UndecodableFile, match="latin.csv: not UTF-8 text"):
        load_csv(path)


def _seeded_table(rows=2000, seed=11):
    """A daily table of six columns with 10% of cells missing, as CSV text."""
    rng = np.random.default_rng(seed)
    values = rng.uniform(-50.0, 50.0, (rows, 6))
    missing = rng.random((rows, 6)) < 0.1
    start = date(2000, 1, 1)
    lines = ["Data,temp,pH,OD,CBO5,CCO-Mn,CCO-Cr"]
    for i in range(rows):
        day = start + timedelta(days=i)
        cells = ["*" if gap else repr(v) for v, gap in zip(values[i].tolist(), missing[i])]
        lines.append(f"{day.month}/{day.day}/{day.year}," + ",".join(cells))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("source", ["fixture", "seeded"])
def test_dataset_series_equals_series_of_samples(gropeni, source):
    ds = gropeni if source == "fixture" else parse_csv(_seeded_table(), station="seeded")
    for p in ds.parameters:
        assert dataset_series(ds, p) == build_series(ds.samples(p), ds.station, p)


def _hand_built(*rows, parameters=("OD",)):
    return Dataset(
        station="s",
        parameters=parameters,
        rows=tuple(DatasetRow(date=d, values=v) for d, v in rows),
        source="<hand>",
    )


def test_dataset_series_of_unsorted_rows():
    ds = _hand_built(
        (date(2004, 3, 1), (3.0,)), (date(2003, 9, 11), (1.0,)), (date(2004, 1, 5), (None,)),
        (date(2003, 12, 31), (2.0,)),
    )
    series = dataset_series(ds, "OD")
    assert series == build_series(ds.samples("OD"), "s", "OD")
    assert series.epoch == date(2003, 9, 11)
    assert series.y == (1.0, 2.0, 3.0)


def _message(call):
    with pytest.raises(Exception) as info:
        call()
    return type(info.value), str(info.value)


def test_dataset_series_duplicate_dates_match_build_series():
    ds = _hand_built((date(2003, 9, 11), (1.0,)), (date(2003, 9, 11), (2.0,)))
    got = _message(lambda: dataset_series(ds, "OD"))
    assert got == _message(lambda: build_series(ds.samples("OD"), "s", "OD"))
    assert got == (DuplicateTimestamp, "two samples on 9/11/2003")


def test_dataset_series_all_missing_matches_build_series():
    ds = _hand_built((date(2003, 9, 11), (None, 1.0)), (date(2003, 9, 12), (None, 2.0)),
                     parameters=("OD", "pH"))
    got = _message(lambda: dataset_series(ds, "OD"))
    assert got == _message(lambda: build_series(ds.samples("OD"), "s", "OD"))
    assert got == (EmptySeries, "no values for 's'/'OD'")


def test_dataset_series_rejects_infinite_values():
    ds = _hand_built((date(2003, 9, 11), (1.0,)), (date(2003, 9, 12), (float("inf"),)))
    with pytest.raises(ValueError):
        dataset_series(ds, "OD")
