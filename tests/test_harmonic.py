"""Seasonal reference curve: signed power, identities, and fitting."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    harmonic_reference,
    index_at,
    make_series,
    random_knots,
    scalar_residuals,
    signed_pow,
)
from hydrospline import (
    CurveSamples,
    HarmonicSpec,
    IndexMap,
    compare_to_harmonic,
    dense_grid,
    fit_amplitude_offset,
    fit_natural_spline,
    sample_harmonic,
)
from hydrospline import harmonic
from hydrospline.errors import NumericOverflow
from hydrospline.harmonic import _reference_values

CBRT4 = 2.0 ** (2.0 / 3.0)  # (sin + cos) peak value 2^(1/2) raised to 4/3


@pytest.fixture(scope="module")
def spec():
    return HarmonicSpec(angular_coeff=8.0 * math.pi / 192.0, exponent=4.0 / 3.0)


def test_reference_at_zero(spec):
    assert harmonic_reference(0.0, spec) == 1.0


def test_reference_peaks_at_k6(spec):
    assert harmonic_reference(6.0, spec) == pytest.approx(CBRT4, abs=1e-12)
    assert harmonic_reference(30.0, spec) == pytest.approx(-CBRT4, abs=1e-12)


def test_reference_has_period_48(spec):
    for k in range(0, 193):
        now = harmonic_reference(float(k), spec)
        later = harmonic_reference(float(k) + 48.0, spec)
        assert abs(now - later) <= 1e-9


def test_reference_bounded_by_peak(spec):
    for i in range(1921):
        k = i * 0.1
        assert abs(harmonic_reference(k, spec)) <= CBRT4 + 1e-12


def test_amplitude_and_offset_shift(spec):
    scaled = HarmonicSpec(
        angular_coeff=spec.angular_coeff,
        exponent=spec.exponent,
        amplitude=2.5,
        offset=-1.0,
    )
    for k in (0.0, 3.7, 11.2, 100.0):
        assert harmonic_reference(k, scaled) == pytest.approx(
            -1.0 + 2.5 * harmonic_reference(k, spec), abs=1e-12
        )


@given(st.floats(min_value=-100.0, max_value=100.0, allow_nan=False))
def test_signed_pow_is_odd(u):
    assert signed_pow(-u, 4.0 / 3.0) == -signed_pow(u, 4.0 / 3.0)


def test_signed_pow_preserves_order():
    values = [signed_pow(u, 4.0 / 3.0) for u in (-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0)]
    assert values == sorted(values)
    assert signed_pow(0.0, 4.0 / 3.0) == 0.0
    assert signed_pow(-8.0, 1.0 / 3.0) == pytest.approx(-2.0, abs=1e-12)


def test_spec_rejects_nonpositive_parameters():
    with pytest.raises(ValueError):
        HarmonicSpec(angular_coeff=0.0, exponent=1.0)
    with pytest.raises(ValueError):
        HarmonicSpec(angular_coeff=1.0, exponent=-2.0)


def test_spec_rejects_a_zero_exponent():
    with pytest.raises(ValueError, match="exponent must be positive"):
        HarmonicSpec(exponent=0.0)


def test_index_map_spanning():
    imap = IndexMap.spanning(0.0, 308.0)
    assert index_at(imap, 0.0) == 0.0
    assert index_at(imap, 308.0) == pytest.approx(192.0, abs=1e-12)
    assert index_at(imap, 154.0) == pytest.approx(96.0, abs=1e-12)
    with pytest.raises(ValueError):
        IndexMap.spanning(5.0, 5.0)
    # 192 / 1e-320 overflows to inf; an infinite start leaves a nan offset; a span
    # that overflows to inf gives scale 0, which mapped every day to index 0; an int
    # end beyond the float range overflows the span
    for t_start, t_end in ((0.0, 1e-320), (-math.inf, 0.0), (-1e308, 1e308), (0.0, 10**400),
                           (-10**400, 0.0)):
        with pytest.raises(NumericOverflow):
            IndexMap.spanning(t_start, t_end)


def test_self_comparison_has_zero_residual(spec):
    imap = IndexMap(scale=0.5)
    grid = tuple(i * 0.25 for i in range(401))
    curve = sample_harmonic(spec, imap, grid)
    assert curve.source == "harmonic"
    result = compare_to_harmonic(curve, spec, imap)
    assert result.rmse <= 1e-12
    assert result.max_abs_dev <= 1e-12


def test_fit_recovers_known_scaling(spec):
    imap = IndexMap(scale=1.0)
    grid = tuple(float(i) for i in range(193))
    target = HarmonicSpec(
        angular_coeff=spec.angular_coeff,
        exponent=spec.exponent,
        amplitude=3.25,
        offset=7.5,
    )
    curve = sample_harmonic(target, imap, grid)
    fitted = fit_amplitude_offset(curve, spec, imap)
    assert fitted.amplitude == pytest.approx(3.25, abs=1e-9)
    assert fitted.offset == pytest.approx(7.5, abs=1e-9)
    assert fitted.angular_coeff == spec.angular_coeff
    assert fitted.exponent == spec.exponent


def test_fixture_oxygen_against_seasonal_reference(od_series, spec):
    model = fit_natural_spline(od_series)
    curve = dense_grid(model, 1000)
    imap = IndexMap.spanning(od_series.t[0], od_series.t[-1])
    fitted = fit_amplitude_offset(curve, spec, imap)
    assert fitted.amplitude == pytest.approx(-0.04856715001932358, abs=1e-9)
    assert fitted.offset == pytest.approx(8.325781819358705, abs=1e-9)
    result = compare_to_harmonic(curve, fitted, imap)
    assert result.rmse == pytest.approx(0.7864555645517676, abs=1e-9)
    assert result.max_abs_dev == pytest.approx(1.6571410599137568, abs=1e-9)
    assert result.argmax_t == pytest.approx(224.75675675675674, abs=1e-9)


def test_residual_argmax_reports_earliest_tie(spec):
    imap = IndexMap(scale=1.0)
    grid = (0.0, 48.0, 96.0)  # reference repeats, curve constant: equal deviations
    curve = sample_harmonic(spec, imap, grid)
    shifted = type(curve)(t=curve.t, y=tuple(v + 1.0 for v in curve.y), source="spline")
    result = compare_to_harmonic(shifted, spec, imap)
    assert result.max_abs_dev == pytest.approx(1.0, abs=1e-12)
    assert result.argmax_t == 0.0


@pytest.mark.parametrize("big", [1e200, 1.5e154, 1e154], ids=["squares", "sum", "fsum"])
def test_overflowing_residuals_are_typed(spec, big):
    # squares of 1e200 and of 1.5e154 (2.25e308) overflow one by one; squares of
    # 1e154 stay finite, but their fsum raises OverflowError
    grid = tuple(float(i) for i in range(1000))
    curve = CurveSamples(t=grid, y=tuple(big * (-1) ** i for i in range(1000)), source="spline")
    with pytest.raises(NumericOverflow):
        compare_to_harmonic(curve, spec, IndexMap.spanning(0.0, 999.0))


def test_residuals_match_scalar_reference(od_series):
    rng = np.random.default_rng(31)
    series = [od_series] + [make_series(*random_knots(rng, n)) for n in (3, 12, 60)]
    for knots in series:
        curve = dense_grid(fit_natural_spline(knots), 997)
        imap = IndexMap.spanning(knots.t[0], knots.t[-1])
        for spec in (HarmonicSpec(), HarmonicSpec(angular_coeff=0.3, exponent=2.5)):
            fitted = fit_amplitude_offset(curve, spec, imap)
            result = compare_to_harmonic(curve, fitted, imap)
            expected = scalar_residuals(curve, fitted, imap)
            assert [v.hex() for v in result] == [v.hex() for v in expected]


@pytest.mark.parametrize("exponent", [0.5, 1.0, 4.0 / 3.0, 3.0])
@pytest.mark.parametrize("amplitude, offset", [(1.0, 0.0), (2.5, -1.0), (-3.25, 7.5)])
def test_reference_values_match_scalar_reference_bit_for_bit(
    od_series, exponent, amplitude, offset
):
    rng = np.random.default_rng(53)
    days = np.sort(rng.uniform(0.0, 2000.0, 2000))
    spec = HarmonicSpec(exponent=exponent, amplitude=amplitude, offset=offset)
    for t_first, t_last in ((od_series.t[0], od_series.t[-1]), (days[0], days[-1])):
        index_map = IndexMap.spanning(t_first, t_last)
        # the grid, the span's ends and points past them
        ts = np.linspace(t_first, t_last, 10_007).tolist() + [t_first - 90.5, t_last + 1e3]
        expected = [harmonic_reference(index_at(index_map, t), spec) for t in ts]
        assert [v.hex() for v in _reference_values(spec, index_map, ts)] == [
            v.hex() for v in expected
        ]


def _harmonic_outputs(curve, spec, imap):
    """compare_to_harmonic and sample_harmonic on the curve's grid, bit for bit."""
    residuals = compare_to_harmonic(curve, spec, imap)
    samples = sample_harmonic(spec, imap, curve.t)
    return [v.hex() for v in residuals], repr(samples.t), [v.hex() for v in samples.y]


@pytest.fixture()
def seeded_fit(od_series):
    """A fit on the fixture's 997-point curve, run with an empty memo."""
    curve = dense_grid(fit_natural_spline(od_series), 997)
    imap = IndexMap.spanning(od_series.t[0], od_series.t[-1])
    harmonic._signed_powers.cache_clear()
    return curve, imap, fit_amplitude_offset(curve, HarmonicSpec(), imap)


def _power_loops():
    """How many times the signed-power loop has run since the memo was last cleared."""
    return harmonic._signed_powers.cache_info().misses


def test_fitted_spec_is_a_plain_value(seeded_fit):
    _, _, fitted = seeded_fit
    assert vars(fitted).keys() == {"angular_coeff", "exponent", "amplitude", "offset"}
    assert fitted == fitted._replace() and hash(fitted) == hash(fitted._replace())
    assert repr(fitted) == (
        f"HarmonicSpec(angular_coeff={fitted.angular_coeff!r}, exponent={fitted.exponent!r}, "
        f"amplitude={fitted.amplitude!r}, offset={fitted.offset!r})"
    )


def test_seeded_reference_matches_unseeded_bit_for_bit(seeded_fit):
    curve, imap, fitted = seeded_fit
    memoized = _harmonic_outputs(curve, fitted, imap)
    # keys equal by value hit too: a copy of the grid, an equal map, a hand-built spec
    copy = CurveSamples(t=tuple(list(curve.t)), y=curve.y, source=curve.source)
    hand_built = HarmonicSpec(amplitude=fitted.amplitude, offset=fitted.offset)
    assert _harmonic_outputs(copy, hand_built, IndexMap(imap.scale, imap.offset)) == memoized
    assert _power_loops() == 1  # fit, compare and sample on one grid: the fit's loop only
    key = harmonic._GridKey(curve.grid)
    powers = harmonic._signed_powers(fitted.angular_coeff, fitted.exponent, imap, key)
    assert _power_loops() == 1  # an equal grid object hits the memo
    with pytest.raises(ValueError):
        powers[0] = 0.0  # the memo's array is shared, so it is read-only
    harmonic._signed_powers.cache_clear()
    assert _harmonic_outputs(curve, fitted, imap) == memoized
    assert _power_loops() == 1
    rmse, max_abs_dev, argmax_t = scalar_residuals(curve, fitted, imap)
    assert memoized[0] == [rmse.hex(), max_abs_dev.hex(), argmax_t.hex()]


@pytest.mark.parametrize(
    "miss", ["distinct-grid", "other-map", "hand-built", "exponent", "angular-coeff"]
)
def test_seed_misses_compute_the_reference(seeded_fit, miss):
    curve, imap, fitted = seeded_fit
    spec = fitted
    # the fit's loop, then one for compare and sample together
    loops = 2
    if miss == "distinct-grid":
        curve = CurveSamples(t=tuple(t + 0.5 for t in curve.t), y=curve.y, source=curve.source)
    elif miss == "other-map":
        imap = IndexMap(imap.scale, imap.offset + 1.0)
    elif miss == "hand-built":
        # the memo is keyed by value, so a spec built by hand with the fit's
        # coefficients reuses the fit's loop instead of missing
        spec = HarmonicSpec(amplitude=fitted.amplitude, offset=fitted.offset)
        loops = 1
    elif miss == "exponent":
        spec = fitted._replace(exponent=2.5)
    else:
        spec = fitted._replace(angular_coeff=0.3)
    result = _harmonic_outputs(curve, spec, imap)
    assert _power_loops() == loops
    reference = [harmonic_reference(index_at(imap, t), spec) for t in curve.t]
    assert result[2] == [v.hex() for v in reference]


def test_seeded_sample_keeps_a_grid_of_other_types(seeded_fit):
    # integer days are written as floats; they key the memo as the equal floats do
    _, imap, _ = seeded_fit
    days = tuple(range(0, 300, 3))
    curve = CurveSamples(t=days, y=tuple(float(d % 7) for d in days), source="spline")
    fitted = fit_amplitude_offset(curve, HarmonicSpec(), imap)
    sampled = sample_harmonic(fitted, imap, days)
    assert _power_loops() == 2
    assert all(type(t) is float for t in sampled.t)
    harmonic._signed_powers.cache_clear()
    assert repr(sampled) == repr(sample_harmonic(fitted, imap, [float(d) for d in days]))


def test_signed_zeros_share_a_memo_entry():
    # -0.0 == 0.0 as a key, and sin(+-0) + cos(+-0) is 1.0 either way
    spec = HarmonicSpec(angular_coeff=0.3, exponent=2.5)
    negative = (-0.0,) + tuple(float(i) for i in range(1, 50))
    positive = (0.0,) + negative[1:]
    harmonic._signed_powers.cache_clear()
    first = sample_harmonic(spec, IndexMap(0.5, -0.0), negative)
    second = sample_harmonic(spec, IndexMap(0.5, 0.0), positive)
    assert _power_loops() == 1
    assert repr(first.t[0]) == "-0.0" and repr(second.t[0]) == "0.0"
    for grid, offset, samples in ((negative, -0.0, first), (positive, 0.0, second)):
        reference = [harmonic_reference(index_at(IndexMap(0.5, offset), t), spec) for t in grid]
        assert [v.hex() for v in samples.y] == [v.hex() for v in reference]


def test_grid_key_matches_by_identity_then_by_value():
    grid = np.array([-0.0, 1.0, math.nan])
    key = harmonic._GridKey(grid)
    # the same object matches without a comparison of values, which nan would fail
    assert key == harmonic._GridKey(grid) and hash(key) == grid.size
    assert key != harmonic._GridKey(grid.copy())
    finite = harmonic._GridKey(np.array([-0.0, 1.0, 2.0]))
    assert finite == harmonic._GridKey(np.array([0.0, 1.0, 2.0]))
    assert finite != harmonic._GridKey(np.array([0.0, 1.0, 3.0]))
    assert finite != harmonic._GridKey(np.array([0.0, 1.0]))


@pytest.mark.parametrize("amplitude", [1.7e308, -1.7e308])
def test_seeded_overflow_is_typed_like_unseeded(seeded_fit, amplitude):
    # amplitude * power leaves the float range where |power| > 1.06; the least-squares
    # solver never returns such an amplitude, so the spec is moved by hand
    curve, imap, fitted = seeded_fit
    spec = fitted._replace(amplitude=amplitude)
    outcomes = []
    for clear in (False, True):
        if clear:
            harmonic._signed_powers.cache_clear()
        for call in (
            lambda: compare_to_harmonic(curve, spec, imap),
            lambda: sample_harmonic(spec, imap, curve.t),
        ):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(NumericOverflow) as caught:
                    call()
            outcomes.append(str(caught.value))
    assert _power_loops() == 1  # the memo hit before the clear, one loop after it
    assert outcomes[:2] == outcomes[2:]
    assert outcomes[:2] == [
        "harmonic residuals overflow the float range for these values",
        "curve values are not finite (float overflow)",
    ]


def _python_pow(x, p):
    """x ** p as Python floats take it, with inf where it raises OverflowError."""
    try:
        return x**p
    except OverflowError:
        return math.inf


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.floats(min_value=0.0, max_value=2.0), min_size=1, max_size=70),
    st.floats(min_value=0.0, max_value=50.0, exclude_min=True),
)
def test_float_power_is_libm_pow(xs, p):
    # _signed_powers relies on this: float_power's float64 loop is libm pow, while
    # numpy's ** and square round differently on some values
    assert [v.hex() for v in np.float_power(np.array(xs), p).tolist()] == [
        _python_pow(x, p).hex() for x in xs
    ]


@pytest.mark.parametrize(
    "x, p",
    [
        (5e-324, 0.5), (5e-324, 1.0), (2.2250738585072014e-308, 1.5), (1e-300, 1.1),
        (0.5, 1074.0), (0.5, 1075.0), (0.999, 7e5),  # underflow to subnormals and zero
        (2.0, 1023.9999999), (2.0, 1024.0), (1.9, 1200.0), (1.4142135623730951, 2047.0),
        (1.4142135623730951, 2048.5), (1.0, 1e308), (0.0, 1e-300), (0.0, 4.0 / 3.0),
        (1.5, math.inf), (0.5, math.inf), (1.0, math.inf),
    ],
)
def test_float_power_edges_are_libm_pow(x, p):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(over="ignore"):
            powers = np.float_power(np.full(20, x), p).tolist()
    assert {v.hex() for v in powers} == {_python_pow(x, p).hex()}


def _assert_sin_cos_are_libm(xs):
    angles = np.array(xs, float)
    for ufunc, libm in ((np.sin, math.sin), (np.cos, math.cos)):
        assert [v.hex() for v in ufunc(angles).tolist()] == [libm(x).hex() for x in xs]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=70))
def test_sin_and_cos_are_libm(xs):
    # _signed_powers relies on this: the float64 loops of np.sin and np.cos call libm.
    # A numpy that fails it needs math.sin and math.cos back, not a tolerance
    _assert_sin_cos_are_libm(xs)


@pytest.mark.parametrize(
    "x", [0.0, -0.0, 5e-324, -5e-324, 1e22, 1.7976931348623157e308, -1.7976931348623157e308,
          math.nan],
)
def test_sin_and_cos_edges_are_libm(x):
    _assert_sin_cos_are_libm([x] * 20)


@settings(max_examples=100, deadline=None)
@given(
    st.floats(min_value=-1e6, max_value=1e6),
    st.floats(min_value=-3.0, max_value=7.0),
    st.integers(min_value=1, max_value=400),
    st.floats(min_value=-3.0, max_value=1.0),
    st.floats(min_value=0.0, max_value=50.0, exclude_min=True),
    st.floats(min_value=-1e3, max_value=1e3),
    st.floats(min_value=-1e3, max_value=1e3),
)
def test_signed_powers_match_scalar_reference(
    start, log_span, n, log_coeff, exponent, amplitude, offset
):
    span = 10.0**log_span
    grid = np.linspace(start, start + span, n)
    index_map = IndexMap.spanning(start, start + span)
    spec = HarmonicSpec(10.0**log_coeff, exponent, amplitude, offset)
    expected = [harmonic_reference(index_at(index_map, t), spec) for t in grid.tolist()]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = _reference_values(spec, index_map, grid)
    assert [v.hex() for v in values.tolist()] == [v.hex() for v in expected]


OVERFLOW = "harmonic reference leaves the float range for these coefficients"


@pytest.mark.parametrize(
    "spec, index_map",
    [
        (HarmonicSpec(exponent=2100.0), IndexMap(1.0)),  # |u| ** p overflows at |u| > 1.4
        (HarmonicSpec(exponent=5e5), IndexMap(1.0)),
        (HarmonicSpec(angular_coeff=math.inf), IndexMap(1.0)),  # infinite angles
        (HarmonicSpec(), IndexMap(1e308, 0.0)),  # k = 1e308 * t overflows
        (HarmonicSpec(), IndexMap(1e308, -1e308)),
    ],
    ids=["exponent", "huge-exponent", "angular-coeff", "scale", "scale-and-offset"],
)
def test_reference_overflow_is_typed(spec, index_map):
    grid = tuple(float(i) for i in range(1, 49))
    # the per-point reference fails on these points as Python floats do
    with pytest.raises((OverflowError, ValueError)):
        [harmonic_reference(index_at(index_map, t), spec) for t in grid]
    curve = CurveSamples(t=grid, y=grid, source="spline")
    for call in (
        lambda: fit_amplitude_offset(curve, spec, index_map),
        lambda: compare_to_harmonic(curve, spec, index_map),
        lambda: sample_harmonic(spec, index_map, grid),
    ):
        harmonic._signed_powers.cache_clear()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericOverflow, match=f"^{OVERFLOW}$"):
                call()


def test_int_days_beyond_the_float_range_are_typed():
    with pytest.raises(NumericOverflow, match=f"^{OVERFLOW}$"):
        sample_harmonic(HarmonicSpec(), IndexMap(1.0), [10**400, 10**401])


def test_infinite_exponent_is_not_an_overflow():
    # |u| ** inf is inf for |u| > 1 with no OverflowError, so the curve, not the
    # signed power, reports the non-finite values, as the per-point loop did
    spec = HarmonicSpec(exponent=math.inf)
    index_map = IndexMap(1.0)
    grid = tuple(float(i) for i in range(48))
    expected = [harmonic_reference(index_at(index_map, t), spec) for t in grid]
    assert math.inf in expected and -math.inf in expected and 0.0 in expected
    harmonic._signed_powers.cache_clear()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = _reference_values(spec, index_map, grid)
        with pytest.raises(NumericOverflow, match="curve values are not finite"):
            sample_harmonic(spec, index_map, grid)
    assert [v.hex() for v in values.tolist()] == [v.hex() for v in expected]
