"""The library contract on extreme numbers: every public computation returns or raises a
HydrosplineError.

Knot gaps run from 1e-12 to 1e300 at offsets up to +-1e300, values from the smallest
subnormal to +-1.7e308, dates over every year from 1 to 9999, and evaluation points over
every float, infinities and nan included.  Only valid arguments are drawn, so no call may
raise a ``ValueError``, and warnings are errors in this suite.  A finite result is required
wherever the README promises one, and so is the CSV round trip.  Every public callable is
called here or named, with its reason, in ``NOT_CALLED``.
"""

import ast
import math
from datetime import date
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import hydrospline
from helpers import make_series
from hydrospline import (
    CurveSamples,
    Dataset,
    HarmonicSpec,
    HydrosplineError,
    IndexMap,
    PlotSpec,
    TridiagonalSystem,
    compare_to_harmonic,
    curve_layer,
    dataset_series,
    dense_grid,
    eval_lagrange,
    eval_poly,
    eval_spline,
    eval_spline_derivative,
    fit_amplitude_offset,
    fit_lagrange,
    fit_natural_spline,
    fit_polynomial,
    fit_smoothing_spline,
    format_date,
    marker_layer,
    matched_pairs,
    parse_csv,
    parse_date,
    pearson,
    poly_curve,
    render_svg,
    sample_harmonic,
    serialize_csv,
    solve_tridiagonal,
    spline_extrema,
    trend_report,
)
from hydrospline.errors import InsufficientData
from hydrospline.harmonic import DEFAULT_ANGULAR_COEFF, DEFAULT_EXPONENT

# the ends of each range drawn often, as only they reach the float range's limits
OFFSETS = st.one_of(st.sampled_from([0.0, 1.7e9, -1e300, 1e300]), st.floats(-1e300, 1e300))
GAPS = st.one_of(st.sampled_from([1e-12, 1.0, 1e300]), st.floats(1e-12, 1e300))
VALUES = st.one_of(
    st.sampled_from([5e-324, -5e-324, 0.0, 1.7e308, -1.7e308]),
    st.floats(-1.7e308, 1.7e308),
)
LAMS = st.one_of(st.sampled_from([0.0, 1e-300, 1.7e308]), st.floats(0.0, 1.7e308))
POINTS = st.one_of(st.sampled_from([1.8e308, -1.8e308, math.inf, -math.inf, math.nan]),
                   st.floats())
ANGULAR_COEFFS = st.one_of(st.just(DEFAULT_ANGULAR_COEFF), st.floats(1e-300, 1.7e308))
EXPONENTS = st.one_of(st.just(DEFAULT_EXPONENT), st.floats(1e-300, 1.7e308))
DATES = st.dates(min_value=date(1, 1, 1), max_value=date(9999, 12, 31))
CELLS = st.one_of(st.none(), VALUES)  # None is an absent cell


@st.composite
def knots(draw):
    """1 to 8 strictly increasing times from an offset and gaps, and a value at each."""
    times = [draw(OFFSETS)]
    for gap in draw(st.lists(GAPS, max_size=7)):
        # a gap lost to rounding at a large offset moves on by one float instead
        times.append(max(times[-1] + gap, math.nextafter(times[-1], math.inf)))
    return times, draw(st.lists(VALUES, min_size=len(times), max_size=len(times)))


def _run(function, *args):
    """The call's result, or None when it raises a HydrosplineError."""
    try:
        return function(*args)
    except HydrosplineError:
        return None


def _finite(*values):
    return all(math.isfinite(v) for v in values)


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=knots(), other=st.lists(VALUES, min_size=8, max_size=8), lam=LAMS,
       degree=st.integers(0, 10), points=st.lists(POINTS, min_size=1, max_size=4),
       resolution=st.integers(2, 200), angular_coeff=ANGULAR_COEFFS, exponent=EXPONENTS)
def test_public_computations_return_or_raise_typed(
        data, other, lam, degree, points, resolution, angular_coeff, exponent):
    times, values = data
    series = make_series(times, values)
    models = [_run(fit_natural_spline, series), _run(fit_smoothing_spline, series, lam)]
    for model in filter(None, models):
        assert all(_finite(t, y) for t, y, _ in _run(spline_extrema, model) or ())
        for t in points:
            for value in (_run(eval_spline, model, t), _run(eval_spline_derivative, model, t, 1),
                          _run(eval_spline_derivative, model, t, 2)):
                assert value is None or math.isfinite(value) or not math.isfinite(t)
    lagrange, poly = _run(fit_lagrange, series), _run(fit_polynomial, series, degree)
    for t in points:
        for value in (lagrange and _run(eval_lagrange, lagrange, t),
                      poly and _run(eval_poly, poly, t)):
            assert value is None or math.isfinite(value) or not math.isfinite(t)
    report = _run(trend_report, series)
    assert report is None or _finite(report.slope, report.total_change)
    partner = make_series(times, other[: len(times)])
    r = _run(pearson, series, partner)
    assert r is None or -1.0 <= r <= 1.0

    curves = [_run(dense_grid, model, resolution) for model in (*models, lagrange) if model]
    index_map = None
    if len(times) > 1:  # a curve and an index map need a rising span
        curves.append(poly and _run(poly_curve, poly, times[0], times[-1], resolution))
        index_map = _run(IndexMap.spanning, times[0], times[-1])
    spec = HarmonicSpec(angular_coeff, exponent)
    for curve in filter(None, curves):
        assert np.isfinite(curve.grid).all() and np.isfinite(curve.values).all()
        if index_map is not None:
            _run(sample_harmonic, spec, index_map, curve.grid)
            fitted = _run(fit_amplitude_offset, curve, spec, index_map)
            residuals = _run(compare_to_harmonic, curve, fitted or spec, index_map)
            assert residuals is None or _finite(*residuals)
        layers = (curve_layer(curve, "red"), marker_layer(list(zip(times, values)), "black"))
        svg = _run(render_svg, PlotSpec(640, 480, layers))
        assert svg is None or svg.startswith("<svg")


@st.composite
def tridiagonal_systems(draw):
    """The lower, diagonal, upper and right-hand-side entries of 1 to 6 unknowns."""
    n = draw(st.integers(1, 6))
    return [draw(st.lists(VALUES, min_size=size, max_size=size)) for size in (n - 1, n, n - 1, n)]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(entries=tridiagonal_systems())
def test_tridiagonal_solves_return_finite_or_raise_typed(entries):
    x = _run(solve_tridiagonal, TridiagonalSystem(*entries))
    assert x is None or np.isfinite(x).all()


def test_a_harmonic_fit_to_one_point_raises_insufficient_data():
    curve = CurveSamples(t=[0.0], y=[1.0], source="x")
    with pytest.raises(InsufficientData, match="^a harmonic fit needs at least 2 curve points$"):
        fit_amplitude_offset(curve, HarmonicSpec(), IndexMap(1.0))


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(dates=st.lists(DATES, max_size=8, unique=True),
       columns=st.lists(st.lists(CELLS, min_size=8, max_size=8), min_size=2, max_size=2),
       points=st.lists(POINTS, min_size=1, max_size=4))
def test_tables_round_trip_and_dates_return_or_raise_typed(dates, columns, points):
    table = Dataset("unknown", ("a", "b"), dates, [column[: len(dates)] for column in columns],
                    "<memory>")
    assert parse_csv(serialize_csv(table)) == table
    assert [parse_date(format_date(day)) for day in table.dates] == list(table.dates)
    a, b = (_run(dataset_series, table, code) for code in table.parameters)
    for series, column in zip((a, b), table.columns):
        if series is not None:
            present = [day for day, value in zip(table.dates, column) if value is not None]
            assert list(map(series.calendar_date, series.t)) == present
            for t in points:
                day = _run(series.calendar_date, t)
                assert day is None or isinstance(day, date)
    if a is not None and b is not None:
        both = [(day.toordinal(), x, y) for day, x, y in zip(table.dates, *table.columns)
                if x is not None and y is not None]
        assert matched_pairs(a, b) == both


# public callables that no test here calls, each with the reason
NOT_CALLED = {
    "DatasetRow": "a record of one table row, built by Dataset.rows; it checks nothing",
    "Extremum": "the record spline_extrema returns; it checks nothing",
    "HarmonicResiduals": "the record compare_to_harmonic returns; it checks nothing",
    "PolyModel": "the record fit_polynomial returns; it checks nothing",
    "TrendReport": "the record trend_report returns; it checks nothing",
    "HydrosplineError": "the base class of the errors every call here may raise",
    "TimeSeries": "built in every example, by helpers.make_series and by dataset_series",
    "SplineModel": "built by fit_natural_spline and fit_smoothing_spline in every example",
    "LagrangeModel": "built by fit_lagrange in every example",
    "PlotLayer": "built by curve_layer and marker_layer in every example",
    "LeastSquaresProblem": "built by fit_polynomial and fit_amplitude_offset in every example",
    "solve_least_squares": "called by fit_polynomial and fit_amplitude_offset in every example",
    "load_csv": "reads a file for parse_csv; tests/test_contract.py gives it arbitrary bytes",
    "gropeni_dataset": "takes no argument; tests/test_dataio.py pins its one table",
    "parameter_unit": "a registry lookup with a default, which returns for every string",
}


def _called_names(tree):
    """The last part of each name a module calls, or hands to ``_run`` to call."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            runs = getattr(node.func, "id", None) == "_run"
            for callee in [node.func, *node.args[:1]] if runs else [node.func]:
                yield getattr(callee, "id", getattr(callee, "attr", None))


def _public_callables():
    """Each callable in ``__all__``, classes included, and as ``Class.method`` each public
    method an exported class defines."""
    for name in hydrospline.__all__:
        value = getattr(hydrospline, name)
        if callable(value):
            yield name
        if isinstance(value, type):
            for attr, member in vars(value).items():
                if not attr.startswith("_") and (
                        callable(member) or isinstance(member, (classmethod, staticmethod))):
                    yield f"{name}.{attr}"


def test_every_public_callable_is_called_here_or_exempt():
    called = set(_called_names(ast.parse(Path(__file__).read_text(encoding="utf-8"))))
    public = set(_public_callables())
    assert {"IndexMap.spanning", "TimeSeries.calendar_date", "parse_csv"} <= public
    uncalled = {name for name in public if name.rpartition(".")[2] not in called}
    # a callable neither called nor exempt, or an exemption that is called or not public
    assert sorted(uncalled ^ NOT_CALLED.keys()) == []
