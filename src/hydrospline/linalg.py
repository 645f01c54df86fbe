"""Small linear-algebra kernels backing the spline and regression fits.

Two public solvers with fixed numeric contracts:

* :func:`solve_tridiagonal`: forward elimination / back substitution in
  O(n), no pivoting (the spline systems are diagonally dominant).
* :func:`solve_least_squares`: column-by-column orthogonalization of the
  design matrix instead of raw normal equations, which keeps polynomial
  bases up to degree 10 well conditioned.

Both are deterministic: the same input bytes give the same output bytes.
:func:`solve_banded_spd` is the pentadiagonal Cholesky for the smoothing
spline's system (Reinsch, Numer. Math. 1967).  It and :func:`solve_tridiagonal`
loop over Python floats, with the float64 operations in their fixed order.
"""

import math

import numpy as np

from .errors import NumericOverflow, RankDeficient, ZeroPivot, typed_overflow

#: pivots below this magnitude abort elimination
ZERO_PIVOT_TOL = 1e-14

#: smallest acceptable pivot/column-norm ratio in the least-squares factorization
RANK_TOL = 1e-12


def _as_vector(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional")
    return arr


class TridiagonalSystem:
    """A x = rhs with A tridiagonal, stored as its three diagonals.

    ``lower`` and ``upper`` have length n-1, ``diag`` and ``rhs`` length n.
    """

    def __init__(self, lower, diag, upper, rhs) -> None:
        with typed_overflow("tridiagonal system entries leave the float range"):
            self.lower = _as_vector(lower, "lower")
            self.diag = _as_vector(diag, "diag")
            self.upper = _as_vector(upper, "upper")
            self.rhs = _as_vector(rhs, "rhs")
        n = self.diag.size
        if n < 1:
            raise ValueError("system must have at least one unknown")
        if self.lower.size != n - 1 or self.upper.size != n - 1:
            raise ValueError("off-diagonals must have length n-1")
        if self.rhs.size != n:
            raise ValueError("rhs must have length n")

    @property
    def n(self) -> int:
        return self.diag.size


class LeastSquaresProblem:
    """min ||design @ x - targets||_2 with an m x k design, m >= k >= 1."""

    def __init__(self, design, targets) -> None:
        with typed_overflow("least-squares design or targets leave the float range"):
            self.design = np.asarray(design, dtype=float)
            self.targets = _as_vector(targets, "targets")
        if self.design.ndim != 2:
            raise ValueError("design must be two-dimensional")
        m, k = self.design.shape
        if not m >= k >= 1:
            raise ValueError(f"need m >= k >= 1, got shape {m}x{k}")
        if self.targets.size != m:
            raise ValueError("targets length must match design rows")
        if not (np.isfinite(self.design).all() and np.isfinite(self.targets).all()):
            raise ValueError("design and targets must be finite")


def solve_tridiagonal(system: TridiagonalSystem) -> np.ndarray:
    """Solve a tridiagonal system by forward elimination and back substitution.

    Runs in O(n) with no pivoting.  Raises ZeroPivot when an eliminated
    pivot falls below ``ZERO_PIVOT_TOL`` in magnitude, and NumericOverflow
    when the solution leaves the float range.
    """
    lower, diag, upper, rhs = (
        v.tolist() for v in (system.lower, system.diag, system.upper, system.rhs)
    )
    pivot = diag[0]
    if abs(pivot) < ZERO_PIVOT_TOL:
        raise ZeroPivot("zero pivot at row 0")
    d = rhs[0] / pivot
    gamma, delta = [], [d]
    for lo, di, up, r in zip(lower, diag[1:], upper, rhs[1:]):
        g = up / pivot
        pivot = di - lo * g
        if abs(pivot) < ZERO_PIVOT_TOL:
            raise ZeroPivot(f"zero pivot at row {len(delta)}")
        d = (r - lo * d) / pivot
        gamma.append(g)
        delta.append(d)
    x = [d]  # back substitution, from the last unknown to the first
    for g, dk in zip(reversed(gamma), delta[-2::-1]):
        x.append(dk - g * x[-1])
    x = np.array(x[::-1])
    if not np.isfinite(x).all():
        raise NumericOverflow("tridiagonal solution overflows the float range for these values")
    return x


@np.errstate(over="ignore", invalid="ignore")  # a non-finite solution raises NumericOverflow
def solve_least_squares(problem: LeastSquaresProblem) -> np.ndarray:
    """Least-squares coefficients via orthogonalization of the design columns.

    Each column is orthogonalized against the previous ones (with one
    re-orthogonalization pass, so the residual stays orthogonal to the
    column space to near machine precision), then the triangular factor is
    back-substituted.  Raises RankDeficient when a column collapses to less
    than ``RANK_TOL`` of its original norm, and NumericOverflow when the
    solution leaves the float range.
    """
    design, targets = problem.design, problem.targets
    m, k = design.shape
    q = np.empty((m, k))
    r = np.zeros((k, k))
    for j in range(k):
        v = design[:, j].copy()
        col_norm = math.sqrt(float(v @ v))
        if col_norm == 0.0:
            raise RankDeficient(f"design column {j} is zero")
        for _ in range(2):
            for i in range(j):
                s = float(q[:, i] @ v)
                r[i, j] += s
                v -= s * q[:, i]
        pivot = math.sqrt(float(v @ v))
        if pivot <= RANK_TOL * col_norm:
            raise RankDeficient(
                f"design column {j} is numerically dependent on earlier columns"
            )
        r[j, j] = pivot
        q[:, j] = v / pivot
    # back substitution on r x = q^T targets
    qt_b = q.T @ targets
    x = np.empty(k)
    for j in range(k - 1, -1, -1):
        x[j] = (qt_b[j] - r[j, j + 1 :] @ x[j + 1 :]) / r[j, j]
    if not np.isfinite(x).all():
        raise NumericOverflow("least-squares solution overflows the float range for these values")
    return x


def solve_banded_spd(bands: np.ndarray, rhs) -> np.ndarray:
    """Solve A x = rhs for a symmetric positive-definite pentadiagonal matrix.

    ``bands`` holds the three lower band rows: ``bands[d, j] = A[j + d, j]``
    for d = 0, 1, 2 (entries past the matrix edge are ignored).  Cholesky
    without pivoting; raises ZeroPivot when a pivot collapses, i.e. the
    matrix is not numerically positive definite.
    """
    with typed_overflow("banded system entries leave the float range"):
        bands = np.asarray(bands, dtype=float)
        if bands.ndim != 2:
            raise ValueError("bands must be two-dimensional")
        if bands.shape[0] != 3:
            raise ValueError("bands must have three rows: the diagonal and the two below it")
        b = _as_vector(rhs, "rhs")
    diag, near, far = bands.tolist()
    if b.size != len(diag):
        raise ValueError("rhs length must match band columns")
    # row i of the factor L is (L[i, i-2], L[i, i-1], L[i, i], z_i), z the forward-
    # substituted rhs; identity rows before row 0 and after row n-1 stand in for neighbours
    rows = [(0.0, 0.0, 1.0, 0.0)] * 2
    for i, (a2, a1, s, acc) in enumerate(zip([0.0, 0.0, *far], [0.0, *near], diag, b.tolist())):
        (_, _, d2, z2), (_, c, d1, z1) = rows[-2:]
        l2 = a2 / d2
        l1 = (a1 - l2 * c) / d1
        try:
            s -= l2 ** 2
        except OverflowError:  # a float64 square rounds to inf instead
            s -= math.inf
        try:
            s -= l1 ** 2
        except OverflowError:
            s -= math.inf
        acc -= l2 * z2
        acc -= l1 * z1
        if s <= ZERO_PIVOT_TOL:
            raise ZeroPivot(f"pivot collapsed at row {i}; matrix not positive definite")
        pivot = math.sqrt(s)
        rows.append((l2, l1, pivot, acc / pivot))
    # back substitution from the last row, each row i with rows i+1 and i+2;
    # x holds x_{n+1} = x_n = 0 and then the unknowns found so far, last first
    back = rows[:2] + rows[::-1]
    x = [0.0, 0.0]
    for (_, _, pivot, z), (_, c1, _, _), (c2, _, _, _) in zip(back[2:-2], back[1:], back):
        x.append((z - c1 * x[-1] - c2 * x[-2]) / pivot)
    return np.array(x[:1:-1])
