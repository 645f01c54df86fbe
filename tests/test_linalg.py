"""Solver contracts against dense oracles."""

import math

import numpy as np
import pytest

from helpers import (
    gauss_solve,
    normal_equations_solve,
    scalar_banded_spd,
    scalar_tridiagonal,
    smoothing_bands,
    tridiagonal_to_dense,
)
from hydrospline import (
    LeastSquaresProblem,
    TridiagonalSystem,
    solve_least_squares,
    solve_tridiagonal,
)
from hydrospline.errors import NumericOverflow, RankDeficient, ZeroPivot
from hydrospline.linalg import solve_banded_spd


def random_tridiagonal(rng, n):
    lower = rng.uniform(-1.0, 1.0, n - 1)
    upper = rng.uniform(-1.0, 1.0, n - 1)
    diag = rng.uniform(2.5, 4.0, n) * rng.choice([-1.0, 1.0], n)
    rhs = rng.uniform(-10.0, 10.0, n)
    return TridiagonalSystem(lower=lower, diag=diag, upper=upper, rhs=rhs)


def test_identity_system():
    system = TridiagonalSystem(lower=[0.0], diag=[1.0, 1.0], upper=[0.0], rhs=[3.0, -2.0])
    assert solve_tridiagonal(system).tolist() == [3.0, -2.0]


def test_known_three_by_three():
    # [[2,1,0],[1,2,1],[0,1,2]] x = [4,8,8] has solution [1,2,3]
    system = TridiagonalSystem(lower=[1.0, 1.0], diag=[2.0, 2.0, 2.0], upper=[1.0, 1.0], rhs=[4.0, 8.0, 8.0])
    np.testing.assert_allclose(solve_tridiagonal(system), [1.0, 2.0, 3.0], atol=1e-12)


def test_single_unknown():
    system = TridiagonalSystem(lower=[], diag=[4.0], upper=[], rhs=[10.0])
    assert solve_tridiagonal(system).tolist() == [2.5]


def test_tridiagonal_matches_dense_oracle_across_sizes():
    rng = np.random.default_rng(20240521)
    for n in range(2, 101):
        system = random_tridiagonal(rng, n)
        x = solve_tridiagonal(system)
        expected = gauss_solve(tridiagonal_to_dense(system), system.rhs)
        np.testing.assert_allclose(x, expected, atol=1e-10, rtol=1e-10)


def test_tridiagonal_residual_bound():
    rng = np.random.default_rng(99)
    for _ in range(25):
        n = int(rng.integers(2, 60))
        system = random_tridiagonal(rng, n)
        x = solve_tridiagonal(system)
        residual = tridiagonal_to_dense(system) @ x - system.rhs
        bound = 1e-10 * (1.0 + np.max(np.abs(system.rhs)))
        assert np.max(np.abs(residual)) <= bound


def test_tridiagonal_is_deterministic():
    rng = np.random.default_rng(5)
    system = random_tridiagonal(rng, 40)
    first = solve_tridiagonal(system)
    second = solve_tridiagonal(system)
    assert np.array_equal(first, second)


def test_zero_pivot_raises():
    system = TridiagonalSystem(lower=[1.0], diag=[0.0, 1.0], upper=[1.0], rhs=[1.0, 1.0])
    with pytest.raises(ZeroPivot):
        solve_tridiagonal(system)


def test_eliminated_zero_pivot_raises():
    # second pivot becomes 1 - 1*1 = 0 during the sweep
    system = TridiagonalSystem(lower=[1.0], diag=[1.0, 1.0], upper=[1.0], rhs=[1.0, 1.0])
    with pytest.raises(ZeroPivot):
        solve_tridiagonal(system)


def test_pivot_at_the_tolerance_is_kept():
    # a pivot of exactly ZERO_PIVOT_TOL = 1e-14 is solved; one just below it raises,
    # at row 0 and at an eliminated row (upper 0.0 leaves the second pivot as given)
    assert solve_tridiagonal(TridiagonalSystem([], [1e-14], [], [1.0])).tolist() == [1e14]
    system = TridiagonalSystem([1.0], [1.0, 1e-14], [0.0], [0.0, 1.0])
    assert solve_tridiagonal(system).tolist() == [0.0, 1e14]
    below = math.nextafter(1e-14, 0.0)
    for system in (TridiagonalSystem([], [below], [], [1.0]),
                   TridiagonalSystem([1.0], [1.0, below], [0.0], [0.0, 1.0])):
        with pytest.raises(ZeroPivot):
            solve_tridiagonal(system)


def test_dimension_validation():
    with pytest.raises(ValueError):
        TridiagonalSystem(lower=[1.0], diag=[1.0], upper=[], rhs=[1.0])
    with pytest.raises(ValueError):
        LeastSquaresProblem(design=np.ones((2, 3)), targets=[1.0, 2.0])
    one, two = [1.0], [1.0, 1.0]
    for build, message in (
        (lambda: TridiagonalSystem(lower=[one], diag=two, upper=one, rhs=two), "lower must be"),
        (lambda: TridiagonalSystem(lower=[], diag=[], upper=[], rhs=[]), "at least one unknown"),
        (lambda: TridiagonalSystem(lower=one, diag=two, upper=one, rhs=one), "rhs must have"),
        (lambda: LeastSquaresProblem(design=two, targets=two), "design must be two-"),
        (lambda: LeastSquaresProblem(design=np.ones((3, 2)), targets=two), "targets length"),
        (lambda: LeastSquaresProblem(design=[[1.0, np.nan], two], targets=two), "be finite"),
        (lambda: solve_banded_spd(np.ones(3), [1.0] * 3), "bands must be two-"),
        (lambda: solve_banded_spd(np.ones((2, 3)), [1.0] * 3), "bands must have three rows"),
        (lambda: solve_banded_spd(np.ones((3, 3)), two), "rhs length must match band columns"),
    ):
        with pytest.raises(ValueError, match=message):
            build()


def test_least_squares_exact_fit():
    # square, well-conditioned: recovers the interpolant
    design = np.array([[1.0, 0.0], [1.0, 1.0]])
    coeffs = solve_least_squares(LeastSquaresProblem(design, [2.0, 5.0]))
    np.testing.assert_allclose(coeffs, [2.0, 3.0], atol=1e-12)


def test_least_squares_matches_normal_equations():
    rng = np.random.default_rng(77)
    for _ in range(100):
        m = int(rng.integers(4, 40))
        k = int(rng.integers(1, min(m, 8) + 1))
        design = rng.uniform(-3.0, 3.0, (m, k))
        targets = rng.uniform(-5.0, 5.0, m)
        mine = solve_least_squares(LeastSquaresProblem(design, targets))
        expected = normal_equations_solve(design, targets)
        np.testing.assert_allclose(mine, expected, atol=1e-8, rtol=1e-8)


def test_least_squares_residual_orthogonality():
    rng = np.random.default_rng(13)
    for _ in range(30):
        m = int(rng.integers(5, 60))
        k = int(rng.integers(1, 8))
        design = rng.uniform(-2.0, 2.0, (m, k))
        targets = rng.uniform(-9.0, 9.0, m)
        coeffs = solve_least_squares(LeastSquaresProblem(design, targets))
        residual = targets - design @ coeffs
        gram = np.abs(design.T @ residual)
        scale = 1.0 + np.abs(targets).max()
        assert gram.max() <= 1e-8 * scale


def test_least_squares_is_deterministic():
    rng = np.random.default_rng(3)
    design = rng.uniform(-1, 1, (30, 5))
    targets = rng.uniform(-1, 1, 30)
    a = solve_least_squares(LeastSquaresProblem(design, targets))
    b = solve_least_squares(LeastSquaresProblem(design, targets))
    assert np.array_equal(a, b)


def test_rank_deficient_raises():
    design = np.array([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0]])
    with pytest.raises(RankDeficient):
        solve_least_squares(LeastSquaresProblem(design, [1.0, 2.0, 3.0]))


def test_zero_column_raises():
    design = np.array([[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])
    with pytest.raises(RankDeficient):
        solve_least_squares(LeastSquaresProblem(design, [1.0, 2.0, 3.0]))


def test_banded_spd_matches_dense_oracle():
    rng = np.random.default_rng(1234)
    for _ in range(30):
        n = int(rng.integers(1, 40))
        p = int(rng.integers(1, min(2, n) + 1)) if n > 1 else 1
        # assemble a random SPD matrix with bandwidth p: B^T B + n I on a banded B
        b = np.zeros((n, n))
        for d in range(0, p + 1):
            vals = rng.uniform(-1.0, 1.0, n - d)
            b[np.arange(n - d) + d, np.arange(n - d)] = vals
        a = b @ b.T + n * np.eye(n)
        # bandwidth of a is p; pack the lower bands into three rows
        bands = np.zeros((3, n))
        for d in range(p + 1):
            bands[d, : n - d] = a[np.arange(n - d) + d, np.arange(n - d)]
        rhs = rng.uniform(-5.0, 5.0, n)
        x = solve_banded_spd(bands, rhs)
        np.testing.assert_allclose(x, gauss_solve(a, rhs), atol=1e-9, rtol=1e-9)


def test_banded_spd_rejects_indefinite():
    bands = np.array([[1.0, -5.0], [2.0, 0.0], [0.0, 0.0]])  # [[1,2],[2,-5]] is indefinite
    with pytest.raises(ZeroPivot):
        solve_banded_spd(bands, [1.0, 1.0])


def _bits(x):
    return [float(v).hex() for v in x]


SOLVER_SIZES = [1, 2, 3, 4, 7, 50, 333, 1000, 3000]


@pytest.mark.parametrize("n", SOLVER_SIZES)
def test_tridiagonal_matches_scalar_reference_bit_for_bit(n):
    rng = np.random.default_rng(n)
    for scale in (1e-3, 1.0, 1e3):
        system = random_tridiagonal(rng, n)
        system = TridiagonalSystem(
            system.lower * scale, system.diag * scale, system.upper * scale, system.rhs * scale
        )
        assert _bits(solve_tridiagonal(system)) == _bits(scalar_tridiagonal(system))


@pytest.mark.parametrize("n", SOLVER_SIZES)
def test_banded_spd_matches_scalar_reference_bit_for_bit(n):
    rng = np.random.default_rng(1000 + n)
    for lam in (0.5, 50.0, 1e6):
        bands = smoothing_bands(rng, n, lam)
        rhs = rng.uniform(-10.0, 10.0, n)
        assert _bits(solve_banded_spd(bands, rhs)) == _bits(scalar_banded_spd(bands, rhs))
    # bandwidths 0 and 1 of a diagonally dominant matrix, padded with zero rows
    for p in (0, 1):
        bands = np.vstack([
            rng.uniform(4.0, 8.0, (1, n)), rng.uniform(-1.0, 1.0, (p, n)), np.zeros((2 - p, n))
        ])
        rhs = rng.uniform(-1e3, 1e3, n)
        assert _bits(solve_banded_spd(bands, rhs)) == _bits(scalar_banded_spd(bands, rhs))


def test_banded_spd_squares_like_float64_power():
    # x ** 2 and x * x round differently for this x; the factorization squares
    # with ** 2, so the pivot of row 1 (2 - x ** 2) keeps that last bit
    x = float.fromhex("-0x1.53d82875324fbp+0")
    assert x**2 != x * x
    bands = np.array([[1.0, 2.0, 3.0], [x, 0.5, 0.0], [0.0, 0.0, 0.0]])
    rhs = [1.0, -1.0, 0.5]
    assert _bits(solve_banded_spd(bands, rhs)) == _bits(scalar_banded_spd(bands, rhs))


@pytest.mark.parametrize(
    "bands",
    [[[2e-13, 1e300, 1.0], [1e160, 1.0, 0.0], [0.0, 0.0, 0.0]],
     [[2e-13, np.inf, 1.0], [1e160, 1.0, 0.0], [0.0, 0.0, 0.0]],
     [[2e-13, 1.0, 1.0], [0.0, 0.0, 0.0], [1e160, 0.0, 0.0]],
     [[2e-13, 1.0, np.inf], [0.0, 0.0, 0.0], [1e160, 0.0, 0.0]]],
    ids=["collapses", "nan", "far-collapses", "far-nan"],
)
def test_banded_spd_square_overflow_matches_float64(bands):
    # chol[1, 0] or, in the far cases, chol[2, 0] = 1e160 / sqrt(2e-13) squares past the
    # float range: float64 gives inf, so the pivot is finite - inf (ZeroPivot) or
    # inf - inf (nan)
    bands = np.array(bands)
    rhs = [1.0, 1.0, 1.0]
    with np.errstate(all="ignore"):
        try:
            expected = _bits(scalar_banded_spd(bands, rhs))
        except ZeroPivot as exc:
            expected = str(exc)
    try:
        got = _bits(solve_banded_spd(bands, rhs))
    except ZeroPivot as exc:
        got = str(exc)
    assert got == expected


@pytest.mark.parametrize(
    "bands, rhs",
    [([[1.0, 10**400], [0.0, 0.0], [0.0, 0.0]], [1.0, 1.0]),
     ([[1.0, 1.0], [0.0, 0.0], [0.0, 0.0]], [1.0, -10**400])],
    ids=["bands", "rhs"],
)
def test_banded_spd_ints_beyond_the_float_range_are_typed(bands, rhs):
    # converting the int raised a bare OverflowError
    with pytest.raises(NumericOverflow):
        solve_banded_spd(bands, rhs)


def test_least_squares_overflow_is_typed_and_silent():
    design = np.column_stack([np.linspace(-1.0, 1.0, 4), np.ones(4)])
    with pytest.raises(NumericOverflow):
        solve_least_squares(LeastSquaresProblem(design, [1e308] * 4))


def test_tridiagonal_overflow_is_typed():
    # finite entries whose elimination overflows: the solver returned [inf, -inf, inf]
    system = TridiagonalSystem(lower=[1.7e308, 5e-324], diag=[1.0, 1.0, 1.0],
                               upper=[5e-324, 5e-324], rhs=[1.7e308, 5e-324, 5e-324])
    message = "^tridiagonal solution overflows the float range for these values$"
    with pytest.raises(NumericOverflow, match=message):
        solve_tridiagonal(system)
