"""The library contract on extreme numbers: every public computation returns or raises a
HydrosplineError.

Knot gaps run from 1e-12 to 1e300 at offsets up to +-1e300, values from the smallest
subnormal to +-1.7e308, and evaluation points over every float, infinities and nan
included.  Only valid arguments are drawn, so no call may raise a ``ValueError``, and
warnings are errors in this suite.  A finite result is required wherever the README
promises one.
"""

import math

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers import make_series
from hydrospline import (
    HarmonicSpec,
    HydrosplineError,
    IndexMap,
    PlotSpec,
    compare_to_harmonic,
    curve_layer,
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
    marker_layer,
    pearson,
    poly_curve,
    render_svg,
    sample_harmonic,
    spline_extrema,
    trend_report,
)
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
