"""CSV parsing, serialization round trips, and the bundled dataset."""

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
from hydrospline.dataio import GROPENI_STATION
from hydrospline.errors import (
    DuplicateTimestamp,
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
