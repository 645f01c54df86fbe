"""Exact rational oracles: a result of the package against the exact value of the same
computation on the same float inputs, within a stated bound on its rounding error.

``fractions.Fraction`` holds every float exactly, so the oracle's sums and solves carry no
rounding; pearson's one irrational step, a square root, is taken in ``decimal`` at 40
digits, some 24 digits beyond float64.  Needs neither scipy nor any download, so nothing
here skips.
"""

import math
from datetime import date
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hydrospline import TimeSeries, fit_natural_spline, pearson
from hydrospline.errors import ZeroVariance

U = 2.0 ** -53  # the unit roundoff of float64

# the error may exceed the first-order bound only by its second-order terms, O(U**2)
SLACK = 2.0

# station-like values, two decimals as a monitoring table holds them, and general floats:
# a full 53-bit mantissa at a binary exponent from -60 to 60, so that no sum of squares
# leaves the float range and pearson raises NumericOverflow on none of them
STATION_VALUES = st.integers(-5_000, 50_000).map(lambda k: k / 100)
GENERAL_VALUES = st.builds(math.ldexp, st.integers(-2**53, 2**53), st.integers(-60, 60))
PAIRS = st.sampled_from([STATION_VALUES, GENERAL_VALUES]).flatmap(
    lambda values: st.lists(st.tuples(values, values), min_size=3, max_size=100))


def _exact_pearson(pairs) -> Decimal:
    """r of the float pairs, exact but for the 40-digit square root and quotient."""
    xs, ys = [Fraction(x) for x, _ in pairs], [Fraction(y) for _, y in pairs]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    sxx_syy = sum((x - mx) ** 2 for x in xs) * sum((y - my) ** 2 for y in ys)
    with localcontext() as context:
        context.prec = 40
        root = (Decimal(sxx_syy.numerator) / sxx_syy.denominator).sqrt()
        return Decimal(sxy.numerator) / sxy.denominator / root


def _first_order_bound(pairs, r: float) -> float:
    """A first-order bound on the rounding error of pearson's r.

    Each mean is a correctly rounded sum (``math.fsum``) divided by n, so it is off by at
    most 2U relative; each deviation then rounds once, so it is off by at most
    U |d| + 2U |mean|.  Each product rounds once, each square (libm ``pow``) by at most
    one ulp, 2U, and each sum once more (``math.fsum``).  The product of the two sums of
    squares, its square root and the quotient round once each, 3U relative on r.
    """
    xs, ys = [x for x, _ in pairs], [y for _, y in pairs]
    mx, my = math.fsum(xs) / len(xs), math.fsum(ys) / len(ys)
    dx, dy = [x - mx for x in xs], [y - my for y in ys]
    abs_x, abs_y = math.fsum(map(abs, dx)), math.fsum(map(abs, dy))
    sxx, syy = math.fsum(d * d for d in dx), math.fsum(d * d for d in dy)
    abs_xy = math.fsum(abs(a * b) for a, b in zip(dx, dy))
    sxy = math.fsum(a * b for a, b in zip(dx, dy))
    error_xy = U * (3 * abs_xy + 2 * abs(mx) * abs_y + 2 * abs(my) * abs_x + abs(sxy))
    error_xx = U * (5 * sxx + 4 * abs(mx) * abs_x)
    error_yy = U * (5 * syy + 4 * abs(my) * abs_y)
    return error_xy / math.sqrt(sxx * syy) + abs(r) * (
        error_xx / (2 * sxx) + error_yy / (2 * syy) + 3 * U)


def _series(parameter, values) -> TimeSeries:
    knots = tuple((float(day), value) for day, value in enumerate(values))
    return TimeSeries("s", parameter, knots, date(2003, 9, 11))


# derandomized so the suite runs the same examples every time; raise max_examples to explore
@settings(max_examples=300, deadline=None, derandomize=True)
@given(pairs=PAIRS)
def test_pearson_is_within_its_rounding_bound_of_the_exact_r(pairs):
    a = _series("x", [x for x, _ in pairs])
    b = _series("y", [y for _, y in pairs])
    if len({x for x, _ in pairs}) == 1 or len({y for _, y in pairs}) == 1:
        with pytest.raises(ZeroVariance):
            pearson(a, b)
        return
    r = pearson(a, b)
    error = abs(Decimal(r) - _exact_pearson(pairs))
    assert error <= Decimal(SLACK * _first_order_bound(pairs, r)), (r, error)


# knot times: whole days, as a monitoring table gives them, or general floats (a 53-bit
# mantissa at a binary exponent from -20 to 20)
STATION_DAYS = st.integers(0, 20_000).map(float)
GENERAL_TIMES = st.builds(math.ldexp, st.integers(0, 2**53), st.integers(-20, 20))


@st.composite
def knot_lists(draw):
    """3-100 knots, the count drawn first so that long series are as likely as short."""
    n = draw(st.integers(3, 100))
    times = draw(st.sampled_from([STATION_DAYS, GENERAL_TIMES]))
    values = draw(st.sampled_from([STATION_VALUES, GENERAL_VALUES]))
    return list(zip(sorted(draw(st.lists(times, min_size=n, max_size=n, unique=True))),
                    draw(st.lists(values, min_size=n, max_size=n))))


# the first-order constant of the moments' error bound, derived in _moment_error_bounds
MOMENT_BOUND = 7


def _natural_system(knots):
    """The exact interior rows of the natural-spline system on the float knots: the
    tridiagonal bands of A, the right side b and the divided differences behind b."""
    t, y = [Fraction(t) for t, _ in knots], [Fraction(y) for _, y in knots]
    h = [b - a for a, b in zip(t, t[1:])]
    dd = [(y1 - y0) / hi for y0, y1, hi in zip(y, y[1:], h)]
    diag = [(h0 + h1) / 3 for h0, h1 in zip(h, h[1:])]
    off = [hi / 6 for hi in h[1:-1]]
    return diag, off, [d1 - d0 for d0, d1 in zip(dd, dd[1:])], dd


def _exact_moments(diag, off, rhs):
    """The exact solution of the symmetric tridiagonal system, by elimination in rationals."""
    pivots, ds = [diag[0]], [rhs[0]]
    for lo, di, r in zip(off, diag[1:], rhs[1:]):
        factor = lo / pivots[-1]
        pivots.append(di - factor * lo)
        ds.append(r - factor * ds[-1])
    moments = [ds[-1] / pivots[-1]]
    for up, p, d in zip(reversed(off), pivots[-2::-1], ds[-2::-1]):
        moments.append((d - up * moments[-1]) / p)
    return moments[::-1]


def _moment_error_bounds(diag, off, dd, computed):
    """A first-order bound on each computed moment's error, U * MOMENT_BOUND * w.

    Forming the system rounds the knot gaps h once (U relative), each band entry then once
    or twice more (the diagonal (h0 + h1) / 3 by 3U, the off-diagonal h / 6 by 2U) and
    each divided difference by 3U, and b = dd1 - dd0 once more: |dA| <= 3U |A| and
    |db| <= 4U (|dd0| + |dd1|).  The solve without pivoting (Higham, "Accuracy and Stability
    of Numerical Algorithms", 2nd ed., ch. 9) is backward stable with |dA| <= 4U |L||U|,
    and |L||U| = |A| here: the matrix is diagonally dominant with a positive diagonal and
    positive off-diagonals, so flipping every other sign makes it an M-matrix.  To first
    order the moments m then err by at most 7U |A^-1| (|A| |m| + |dd0| + |dd1|), a
    componentwise condition estimate that needs no factor of n: each row of a tridiagonal
    solve rounds a fixed number of times, however long the system.
    """
    off = np.array(off, dtype=float)
    a = np.diag(np.array(diag, dtype=float)) + np.diag(off, 1) + np.diag(off, -1)
    spread = np.abs(np.array(dd[1:], dtype=float)) + np.abs(np.array(dd[:-1], dtype=float))
    w = np.abs(np.linalg.inv(a)) @ (np.abs(a) @ np.abs(computed) + spread)
    return MOMENT_BOUND * U * w


# derandomized so the suite runs the same examples every time; raise max_examples to explore
@settings(max_examples=100, deadline=None, derandomize=True)
@given(knots=knot_lists())
def test_natural_spline_moments_are_within_their_rounding_bound_of_the_exact_solve(knots):
    series = TimeSeries("s", "x", tuple(knots), date(2003, 9, 11))
    # the moments are twice the quadratic coefficients (exactly), and zero at both ends
    computed = np.array([2.0 * row[2] for row in fit_natural_spline(series).coefficients[1:]])
    diag, off, rhs, dd = _natural_system(knots)
    exact = _exact_moments(diag, off, rhs)
    bounds = _moment_error_bounds(diag, off, dd, computed)
    for m, e, bound in zip(computed.tolist(), exact, bounds.tolist()):
        error = float(abs(Fraction(m) - e))
        assert error <= SLACK * bound, (error, bound)
