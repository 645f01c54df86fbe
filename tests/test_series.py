"""Series construction from a table's column and the M/D/YYYY date axis."""

from datetime import date
from functools import partial

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import make_dataset
from hydrospline import Dataset, TimeSeries, dataset_series, parameter_unit, parse_date
from hydrospline.errors import (
    DuplicateTimestamp,
    EmptySeries,
    InvalidDate,
    MalformedDate,
)
from hydrospline.series import format_date
from hydrospline.splines import LagrangeModel, SplineModel


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


def test_parameter_registry_is_case_sensitive():
    assert parameter_unit("OD") == "mg/l"
    assert parameter_unit("temp") == "°C"
    assert parameter_unit("od") == "unknown"
    assert parameter_unit("NH4") == "unknown"


def test_series_requires_increasing_knots():
    with pytest.raises(ValueError):
        TimeSeries(station="s", parameter="y", knots=((0.0, 1.0), (0.0, 2.0)), epoch=date(2000, 1, 1))


def test_build_series_drops_missing_and_counts_days(gropeni):
    series = dataset_series(gropeni, "OD")
    assert len(series.knots) == 11
    assert series.epoch == date(2003, 9, 11)
    assert series.t == (0.0, 33.0, 61.0, 85.0, 141.0, 147.0, 196.0, 232.0, 263.0, 291.0, 308.0)
    assert series.y == (8.1, 7.5, 7.9, 7.3, 8.3, 8.5, 9.2, 9.8, 8.0, 9.0, 7.6)
    ds = make_dataset((date(2003, 9, 11), (None,)), (date(2003, 9, 12), (1.0,)),
                      (date(2003, 9, 14), (None,)), (date(2003, 9, 15), (2.0,)))
    series = dataset_series(ds, "OD")
    # the first present cell is the epoch; absent cells leave no knot
    assert series.epoch == date(2003, 9, 12)
    assert series.knots == ((0.0, 1.0), (3.0, 2.0))


def test_build_series_temp_has_nine_knots(gropeni):
    series = dataset_series(gropeni, "temp")
    assert len(series.knots) == 9
    assert series.epoch == date(2003, 9, 11)


def test_build_series_knot_count_matches_present_values(gropeni):
    for i, code in enumerate(gropeni.parameters):
        present = sum(row.values[i] is not None for row in gropeni.rows)
        assert len(dataset_series(gropeni, code).knots) == present


def test_build_series_day_counts_match_calendar():
    dates = [date(2003, 12, 5), date(2004, 1, 30), date(2004, 3, 1)]
    series = dataset_series(make_dataset(*((d, (float(k),)) for k, d in enumerate(dates))), "OD")
    # 2004 is a leap year; the calendar, not a 30-day approximation, decides
    assert series.t == (0.0, 56.0, 87.0)
    for t, d in zip(series.t, dates):
        assert (d - series.epoch).days == t


@given(st.permutations(range(11)))
def test_build_series_is_permutation_invariant(order):
    from hydrospline.dataio import gropeni_dataset

    ds = gropeni_dataset()
    dates = tuple(ds.dates[i] for i in order)
    columns = tuple(tuple(column[i] for i in order) for column in ds.columns)
    shuffled = Dataset(ds.station, ds.parameters, dates, columns, ds.source)
    # the Dataset sorts its rows when it is built
    assert shuffled == ds
    assert dataset_series(shuffled, "OD") == dataset_series(ds, "OD")


def test_build_series_rejects_duplicate_dates():
    with pytest.raises(DuplicateTimestamp) as info:
        make_dataset((date(2003, 9, 11), (1.0,)), (date(2003, 10, 14), (None,)),
                     (date(2003, 9, 11), (2.0,)))
    assert str(info.value) == "two rows on 9/11/2003"


def test_build_series_rejects_all_missing():
    ds = make_dataset((date(2003, 9, 11), (None, 1.0)), (date(2003, 10, 14), (None, 2.0)),
                      parameters=("OD", "pH"))
    with pytest.raises(EmptySeries) as info:
        dataset_series(ds, "OD")
    assert str(info.value) == "no values for 's'/'OD'"


def test_series_axes_are_built_once(od_series):
    assert od_series.t is od_series.t
    assert od_series.y is od_series.y
    assert od_series.t == tuple(t for t, _ in od_series.knots)
    assert od_series.y == tuple(y for _, y in od_series.knots)


def test_series_arrays_are_read_only_float64_knots(od_series):
    hand_built = TimeSeries(station="s", parameter="y", knots=((0, 4), (3, -2), (10, 7)),
                            epoch=date(2000, 1, 1))
    replaced = od_series._replace(knots=((1.5, 2.0), (4.0, -1.25)))
    for series in (od_series, hand_built, replaced):
        for array, axis, column in ((series.times, series.t, 0), (series.values, series.y, 1)):
            assert array.dtype == np.float64 and array.ndim == 1
            assert not array.flags.writeable
            assert array.tobytes() == np.array(axis).tobytes()
            assert array.tobytes() == np.array([k[column] for k in series.knots], float).tobytes()
    assert replaced.t == (1.5, 4.0) and replaced.y == (2.0, -1.25)
    with pytest.raises(ValueError):
        od_series.times[0] = 1.0


BAD_TIMES = "knot times must be finite and strictly increasing"


@pytest.mark.parametrize(
    "knots,message",
    [
        ((), "a series needs at least one knot"),
        (((0.0, 1.0), (1.0, float("nan"))), "knot values must be finite"),
        (((float("-inf"), 1.0), (0.0, 2.0)), BAD_TIMES),
        (((0.0, 1.0), (2.0, 2.0), (2.0, 3.0)), BAD_TIMES),
        (((3.0, 1.0), (1.0, 2.0)), BAD_TIMES),
        (((0.0, float("inf")), (1.0, 2.0)), "knot values must be finite"),
        (((0.0, 1.0), (float("nan"), 2.0)), BAD_TIMES),
    ],
)
def test_series_constructor_messages(knots, message):
    # one reader checks the knots of all three types; each keeps its own count rule
    builds = [partial(TimeSeries, "s", "y", knots, date(2000, 1, 1))]
    if knots:
        builds += [partial(SplineModel, knots, [[0.0, 1.0, 0.0, 0.0]] * (len(knots) - 1)),
                   partial(LagrangeModel, knots, [1.0] * len(knots))]
    for build in builds:
        with pytest.raises(ValueError) as info:
            build()
        assert type(info.value) is ValueError and str(info.value) == message, build.func


def test_list_built_values_equal_and_hash_as_tuple_built():
    # the knot reader stores other sequences as a tuple of tuples and keeps a tuple as it is
    pairs, epoch, rows = ((0.0, 1.0), (1.0, 2.0), (3.0, 0.5)), date(2000, 1, 1), [[0, 1, 0, 0]] * 2
    series = TimeSeries("s", "p", pairs, epoch)
    cases = [
        (TimeSeries("s", "p", list(pairs), epoch), series),
        (series._replace(knots=[list(pair) for pair in pairs]), series),
        (SplineModel(list(pairs), rows), SplineModel(pairs, rows)),
        (LagrangeModel(list(pairs), [1.0] * 3), LagrangeModel(pairs, [1.0] * 3)),
    ]
    for listed, tupled in cases:
        assert tupled.knots is pairs
        assert listed.knots == pairs and type(listed.knots[0]) is tuple
        assert listed == tupled and hash(listed) == hash(tupled)


def test_tuple_of_lists_built_values_equal_and_hash_as_tuple_built():
    # a tuple whose pairs are not all tuples is read as a tuple of tuples too
    pairs, epoch, rows = ((0.0, 1.0), (1.0, 2.0), (3.0, 0.5)), date(2000, 1, 1), [[0, 1, 0, 0]] * 2
    series = TimeSeries("s", "p", pairs, epoch)
    for given in (tuple(map(list, pairs)), (pairs[0], [1.0, 2.0], pairs[2])):
        cases = [
            (TimeSeries("s", "p", given, epoch), series),
            (series._replace(knots=given), series),
            (SplineModel(given, rows), SplineModel(pairs, rows)),
            (LagrangeModel(given, [1.0] * 3), LagrangeModel(pairs, [1.0] * 3)),
        ]
        for built, tupled in cases:
            assert built.knots == pairs and {type(pair) for pair in built.knots} == {tuple}
            assert built == tupled and hash(built) == hash(tupled)


def test_calendar_date_truncates_fractions(od_series):
    assert od_series.calendar_date(0.0) == date(2003, 9, 11)
    assert od_series.calendar_date(33.9) == date(2003, 10, 14)
