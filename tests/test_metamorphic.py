"""Metamorphic checks: scaling the values or shifting the times moves every
fit the same way.

Doubling is exact in binary floating point, so each output that is linear
in y must double bit for bit (compared by ``float.hex``), and each output
that does not depend on the scale of y must keep its bits.  Shifting
integer knot times by an integer is exact too, and the fits see only the
gaps between knots, so their coefficients keep their bits.
"""

import math

import numpy as np
import pytest

from helpers import make_series
from hydrospline import (
    HarmonicSpec,
    IndexMap,
    compare_to_harmonic,
    dataset_series,
    dense_grid,
    eval_spline,
    fit_amplitude_offset,
    fit_natural_spline,
    fit_smoothing_spline,
    pearson,
    spline_extrema,
    trend_report,
)

PARAMETERS = ("temp", "pH", "OD", "CBO5", "CCO-Mn", "CCO-Cr")


def _hex(values):
    return [float(v).hex() for v in values]


def _doubled(series):
    return series._replace(knots=tuple((t, 2.0 * y) for t, y in series.knots))


@pytest.fixture(scope="module", params=PARAMETERS)
def pair(request, gropeni):
    series = dataset_series(gropeni, request.param)
    return series, _doubled(series)


def _coefficients(model):
    return [c for row in model.coefficients for c in row]


@pytest.mark.parametrize("fit", [fit_natural_spline, lambda s: fit_smoothing_spline(s, 50.0)],
                         ids=["natural", "smoothing"])
def test_doubling_y_doubles_spline_coefficients(pair, fit):
    series, doubled = pair
    assert _hex(_coefficients(fit(doubled))) == _hex(2.0 * c for c in _coefficients(fit(series)))


def test_doubling_y_doubles_extremum_values(pair):
    series, doubled = pair
    base = spline_extrema(fit_natural_spline(series))
    scaled = spline_extrema(fit_natural_spline(doubled))
    assert [(e.t.hex(), e.kind) for e in scaled] == [(e.t.hex(), e.kind) for e in base]
    assert _hex(e.y for e in scaled) == _hex(2.0 * e.y for e in base)


def test_doubling_y_doubles_trend(pair):
    series, doubled = pair
    base, scaled = trend_report(series), trend_report(doubled)
    assert _hex([scaled.slope, scaled.total_change]) == _hex(
        [2.0 * base.slope, 2.0 * base.total_change])


def test_doubling_y_doubles_harmonic_fit(pair):
    series, doubled = pair
    index_map = IndexMap.spanning(series.t[0], series.t[-1])

    def harmonic(s):
        curve = dense_grid(fit_natural_spline(s), 1000)
        spec = fit_amplitude_offset(curve, HarmonicSpec(), index_map)
        return spec, compare_to_harmonic(curve, spec, index_map)

    (spec, residuals), (spec2, residuals2) = harmonic(series), harmonic(doubled)
    assert _hex([spec2.amplitude, spec2.offset, residuals2.rmse, residuals2.max_abs_dev]) == _hex(
        2.0 * v for v in (spec.amplitude, spec.offset, residuals.rmse, residuals.max_abs_dev))
    assert residuals2.argmax_t.hex() == residuals.argmax_t.hex()


def test_doubling_one_side_keeps_pearson(gropeni):
    for a in PARAMETERS:
        for b in PARAMETERS:
            if a != b:
                series_a, series_b = dataset_series(gropeni, a), dataset_series(gropeni, b)
                r = pearson(series_a, series_b)
                assert pearson(_doubled(series_a), series_b).hex() == r.hex()
                assert pearson(series_a, _doubled(series_b)).hex() == r.hex()


def _shifted(series, c):
    return series._replace(knots=tuple((t + c, y) for t, y in series.knots))


@pytest.mark.parametrize("c", [1, 1_000, 36_500])
def test_shifting_t_keeps_fits(pair, c):
    series, _ = pair
    shifted = _shifted(series, c)
    for fit in (fit_natural_spline, lambda s: fit_smoothing_spline(s, 50.0)):
        assert _hex(_coefficients(fit(shifted))) == _hex(_coefficients(fit(series)))
    base = spline_extrema(fit_natural_spline(series))
    moved = spline_extrema(fit_natural_spline(shifted))
    assert [(e.y.hex(), e.kind) for e in moved] == [(e.y.hex(), e.kind) for e in base]
    # an extremum's t is its knot plus an offset that keeps its bits; adding c to the
    # knot first rounds the sum differently by up to one ulp
    assert all(abs(m.t - (e.t + c)) <= math.ulp(m.t) for m, e in zip(moved, base))
    assert trend_report(shifted) == trend_report(series)


def test_spline_reproduces_knots_near_ten_million_days():
    rng = np.random.default_rng(7)
    t = 1e7 + np.cumsum(rng.uniform(1.0, 30.0, 40))
    y = rng.uniform(0.0, 12.0, 40)
    series = make_series(t, y)
    model = fit_natural_spline(series)
    at_knots = [eval_spline(model, a) - b for a, b in series.knots]
    # each segment's cubic at its right end, where the next segment takes over
    ends = [
        ((d * h + c) * h + b) * h + a - y_next
        for (a, b, c, d), h, y_next in zip(model.coefficients, np.diff(t), y[1:])
    ]
    assert max(map(abs, at_knots + ends)) <= 1e-12
