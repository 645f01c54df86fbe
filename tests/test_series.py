"""Sample/series construction and the M/D/YYYY date axis."""

from datetime import date

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hydrospline import Sample, TimeSeries, build_series, parameter_unit, parse_date
from hydrospline.errors import (
    DuplicateTimestamp,
    EmptySeries,
    InvalidDate,
    MalformedDate,
)
from hydrospline.series import format_date


@pytest.mark.parametrize(
    "text,expected",
    [
        ("9/11/2003", date(2003, 9, 11)),
        ("12/5/2003", date(2003, 12, 5)),
        ("1/30/2004", date(2004, 1, 30)),
        ("02/05/2004", date(2004, 2, 5)),
    ],
)
def test_parse_date_accepts_one_and_two_digit_fields(text, expected):
    assert parse_date(text) == expected


@pytest.mark.parametrize("text", ["2003-09-11", "9/11/03", "9.11.2003", "", "9/2003", "a/b/cccc"])
def test_parse_date_rejects_wrong_shapes(text):
    with pytest.raises(MalformedDate):
        parse_date(text)


@pytest.mark.parametrize("text", ["2/30/2004", "13/1/2004", "0/10/2004", "6/31/2003"])
def test_parse_date_rejects_impossible_days(text):
    with pytest.raises(InvalidDate):
        parse_date(text)


def test_format_date_round_trips():
    d = date(2004, 2, 5)
    assert parse_date(format_date(d)) == d
    assert format_date(d) == "2/5/2004"


def test_sample_rejects_nan_values():
    with pytest.raises(ValueError):
        Sample(station="s", date=date(2003, 9, 11), parameter="OD", value=float("nan"))


def test_sample_allows_missing_value():
    s = Sample(station="s", date=date(2003, 9, 11), parameter="temp")
    assert s.value is None


def test_parameter_registry_is_case_sensitive():
    assert parameter_unit("OD") == "mg/l"
    assert parameter_unit("temp") == "°C"
    assert parameter_unit("od") == "unknown"
    assert parameter_unit("NH4") == "unknown"


def test_series_requires_increasing_knots():
    with pytest.raises(ValueError):
        TimeSeries(station="s", parameter="y", knots=((0.0, 1.0), (0.0, 2.0)), epoch=date(2000, 1, 1))


def test_build_series_drops_missing_and_counts_days(gropeni):
    samples = gropeni.samples("OD")
    series = build_series(samples, gropeni.station, "OD")
    assert len(series.knots) == 11
    assert series.epoch == date(2003, 9, 11)
    assert series.t == (0.0, 33.0, 61.0, 85.0, 141.0, 147.0, 196.0, 232.0, 263.0, 291.0, 308.0)
    assert series.y == (8.1, 7.5, 7.9, 7.3, 8.3, 8.5, 9.2, 9.8, 8.0, 9.0, 7.6)


def test_build_series_temp_has_nine_knots(gropeni):
    series = build_series(gropeni.samples("temp"), gropeni.station, "temp")
    assert len(series.knots) == 9
    assert series.epoch == date(2003, 9, 11)


def test_build_series_knot_count_matches_present_values(gropeni):
    for code in gropeni.parameters:
        samples = gropeni.samples(code)
        present = sum(s.value is not None for s in samples)
        series = build_series(samples, gropeni.station, code)
        assert len(series.knots) == present


def test_build_series_day_counts_match_calendar():
    samples = [
        Sample("s", date(2003, 12, 5), "OD", 1.0),
        Sample("s", date(2004, 1, 30), "OD", 2.0),
        Sample("s", date(2004, 3, 1), "OD", 3.0),
    ]
    series = build_series(samples, "s", "OD")
    # 2004 is a leap year; the calendar, not a 30-day approximation, decides
    assert series.t == (0.0, 56.0, 87.0)
    for (t, _), s in zip(series.knots, samples):
        assert (s.date - series.epoch).days == t


@given(st.permutations(range(11)))
def test_build_series_is_permutation_invariant(order):
    from hydrospline.dataio import gropeni_dataset

    ds = gropeni_dataset()
    samples = ds.samples("OD")
    shuffled = [samples[i] for i in order]
    a = build_series(samples, ds.station, "OD")
    b = build_series(shuffled, ds.station, "OD")
    assert a == b


def test_build_series_rejects_duplicate_dates():
    samples = [
        Sample("s", date(2003, 9, 11), "OD", 1.0),
        Sample("s", date(2003, 9, 11), "OD", 2.0),
    ]
    with pytest.raises(DuplicateTimestamp):
        build_series(samples, "s", "OD")


def test_build_series_rejects_all_missing():
    samples = [Sample("s", date(2003, 9, 11), "OD"), Sample("s", date(2003, 10, 14), "OD")]
    with pytest.raises(EmptySeries):
        build_series(samples, "s", "OD")


def test_build_series_rejects_foreign_samples():
    samples = [Sample("other", date(2003, 9, 11), "OD", 1.0)]
    with pytest.raises(ValueError):
        build_series(samples, "s", "OD")


def test_series_axes_are_built_once(od_series):
    assert od_series.t is od_series.t
    assert od_series.y is od_series.y
    assert od_series.t == tuple(t for t, _ in od_series.knots)
    assert od_series.y == tuple(y for _, y in od_series.knots)


def test_calendar_date_truncates_fractions(od_series):
    assert od_series.calendar_date(0.0) == date(2003, 9, 11)
    assert od_series.calendar_date(33.9) == date(2003, 10, 14)
