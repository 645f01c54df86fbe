"""The spline solves and fits against scipy, an implementation written elsewhere.

The dense and scalar oracles in ``helpers`` were written alongside the code
they check, so a misreading of the maths shared by both would pass them.
scipy is a test-only dependency: each test here skips when it cannot be
imported.  The import is a fixture, so that it skips before hypothesis runs.

Each random-input tolerance is a multiple of a first-order error bound,
at least twenty times the worst agreement seen in 1,000 draws of the test's
own inputs.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import make_series, smoothing_bands
from hydrospline import fit_natural_spline, fit_smoothing_spline
from hydrospline.linalg import solve_banded_spd
from hydrospline.splines import _evaluate

EPS = np.finfo(float).eps

KNOTS = st.integers(3, 300)
LAMS = st.floats(-3.0, 6.0).map(lambda e: 10.0**e)
SCALES = st.floats(-3.0, 3.0).map(lambda e: 10.0**e)
OFFSETS = st.floats(0.0, 1e6)
SEEDS = st.integers(0, 2**32 - 1)


@pytest.fixture(scope="module")
def scipy_linalg():
    return pytest.importorskip("scipy.linalg", exc_type=ImportError)


@pytest.fixture(scope="module")
def scipy_interpolate():
    return pytest.importorskip("scipy.interpolate", exc_type=ImportError)


def _knot_times(rng, n, offset):
    """n knot times from ``offset`` on, 1 to 30 days apart: daily to monthly sampling."""
    return offset + np.concatenate(([0.0], np.cumsum(rng.uniform(1.0, 30.0, n - 1))))


@settings(max_examples=60, deadline=None)
@given(n=KNOTS, lam=LAMS, scale=SCALES, seed=SEEDS)
def test_banded_solve_matches_scipy_solveh_banded(scipy_linalg, n, lam, scale, seed):
    # Both sides are backward-stable Cholesky solves, so each is within about
    # cond(A) * eps of the exact solution, relative to its size.  16 cond(A) eps
    # covers the two errors adding and the max norm; seen: at most 0.74 cond(A)
    # eps, that is 4.0e-11 relative.
    rng = np.random.default_rng(seed)
    bands = smoothing_bands(rng, n - 2, lam)
    rhs = scale * rng.uniform(-1.0, 1.0, n - 2)
    expected = scipy_linalg.solveh_banded(bands, rhs, lower=True)
    dense = np.zeros((n - 2, n - 2))
    for d in range(3):
        i = np.arange(max(n - 2 - d, 0))
        dense[i + d, i] = dense[i, i + d] = bands[d, : i.size]
    bound = 16.0 * np.linalg.cond(dense) * EPS * np.abs(expected).max()
    assert np.abs(solve_banded_spd(bands, rhs) - expected).max() <= bound


@settings(max_examples=60, deadline=None)
@given(n=st.integers(5, 300), lam=LAMS, scale=SCALES, offset=OFFSETS, seed=SEEDS)
def test_smoothing_spline_matches_scipy_make_smoothing_spline(
    scipy_interpolate, n, lam, scale, offset, seed
):
    # scipy minimises the same sum of squares plus lam * integral f''^2, in a
    # B-spline basis, and needs 5 or more knots.  Relative to the data range the
    # curves agree to about eps * (1 + lam / h_min^3 + max|t| / h_min): the
    # first terms bound the condition of the smoothing system, the last is the
    # rounding of the knot times measured in the smallest gap.  The bound is 8
    # times that; seen: at most 0.33 times, that is 3.9e-11 of the range.
    rng = np.random.default_rng(seed)
    t = _knot_times(rng, n, offset)
    y = scale * rng.uniform(-1.0, 1.0, n)
    model = fit_smoothing_spline(make_series(t.tolist(), y.tolist()), lam)
    expected = scipy_interpolate.make_smoothing_spline(t, y, lam=lam)
    points = np.concatenate((t, np.linspace(t[0], t[-1], 1000)))
    h_min = np.diff(t).min()
    bound = 8.0 * EPS * (1.0 + lam / h_min**3 + t[-1] / h_min) * np.ptp(y)
    assert np.abs(_evaluate(model, points, 0) - expected(points)).max() <= bound


@pytest.mark.parametrize("lam", [0.5, 50.0, 5000.0])
def test_fixture_smoothing_spline_matches_scipy(scipy_interpolate, od_series, lam):
    # fixture OD spans 308 days in gaps of 6 to 56 days; seen: at most 2.1e-15
    # of the data range, so 1e-13 leaves a margin of almost fifty
    t, y = od_series.times, od_series.values
    expected = scipy_interpolate.make_smoothing_spline(t, y, lam=lam)
    grid = np.linspace(t[0], t[-1], 2000)
    model = fit_smoothing_spline(od_series, lam)
    assert np.abs(_evaluate(model, grid, 0) - expected(grid)).max() <= 1e-13 * np.ptp(y)


@settings(max_examples=60, deadline=None)
@given(n=KNOTS, scale=SCALES, offset=OFFSETS, seed=SEEDS)
def test_natural_spline_matches_scipy_cubic_spline(scipy_interpolate, n, scale, offset, seed):
    # scipy solves for the slopes, the fit for the second derivatives; both
    # systems are diagonally dominant.  Relative to the data range the curves
    # agree to about eps * (1 + h_max / h_min + max|t| / h_min): the ratio of
    # the gaps bounds the condition of either system, the last term is the
    # rounding of the knot times measured in the smallest gap.  The bound is 32
    # times that; seen: at most 1.1 times, that is 1.1e-14 of the range.
    rng = np.random.default_rng(seed)
    t = _knot_times(rng, n, offset)
    y = scale * rng.uniform(-1.0, 1.0, n)
    model = fit_natural_spline(make_series(t.tolist(), y.tolist()))
    expected = scipy_interpolate.CubicSpline(t, y, bc_type="natural")
    points = np.concatenate((t, np.linspace(t[0], t[-1], 1000)))
    gaps = np.diff(t)
    bound = 32.0 * EPS * (1.0 + gaps.max() / gaps.min() + t[-1] / gaps.min()) * np.ptp(y)
    assert np.abs(_evaluate(model, points, 0) - expected(points)).max() <= bound


def test_fixture_natural_spline_matches_scipy(scipy_interpolate, od_series):
    # seen: at most 1.4e-15 of the data range (3.6e-15 absolute) at the knots
    # and on a 2,000-point grid, so 1e-13 leaves a margin of about seventy
    t, y = od_series.times, od_series.values
    expected = scipy_interpolate.CubicSpline(t, y, bc_type="natural")
    points = np.concatenate((t, np.linspace(t[0], t[-1], 2000)))
    model = fit_natural_spline(od_series)
    assert np.abs(_evaluate(model, points, 0) - expected(points)).max() <= 1e-13 * np.ptp(y)
