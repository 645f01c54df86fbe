"""Exact rational oracles: a result of the package against the exact value of the same
computation on the same float inputs, within a stated bound on its rounding error.

``fractions.Fraction`` holds every float exactly, so the oracle's sums carry no rounding;
its one irrational step, a square root, is taken in ``decimal`` at 40 digits, some 24
digits beyond float64.  Needs neither scipy nor any download, so nothing here skips.
"""

import math
from datetime import date
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hydrospline import TimeSeries, pearson
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
