"""Small linear-algebra kernels backing the spline and regression fits.

Two public solvers with fixed numeric contracts:

* :func:`solve_tridiagonal`: forward elimination / back substitution in
  O(n), no pivoting (the spline systems are diagonally dominant).
* :func:`solve_least_squares`: column-by-column orthogonalization of the
  design matrix instead of raw normal equations, which keeps polynomial
  bases up to degree 10 well conditioned.

Both are deterministic: the same input bytes give the same output bytes.
:func:`solve_banded_spd` is the banded Cholesky used by the smoothing
spline's pentadiagonal system.  It and :func:`solve_tridiagonal` loop
over Python floats, with the float64 operations in their fixed order.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericOverflow, RankDeficient, ZeroPivot

#: pivots below this magnitude abort elimination
ZERO_PIVOT_TOL = 1e-14

#: smallest acceptable pivot/column-norm ratio in the least-squares factorization
RANK_TOL = 1e-12


def _as_vector(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional")
    return arr


@dataclass(eq=False)
class TridiagonalSystem:
    """A x = rhs with A tridiagonal, stored as its three diagonals.

    ``lower`` and ``upper`` have length n-1, ``diag`` and ``rhs`` length n.
    """

    lower: np.ndarray
    diag: np.ndarray
    upper: np.ndarray
    rhs: np.ndarray

    def __post_init__(self) -> None:
        self.lower = _as_vector(self.lower, "lower")
        self.diag = _as_vector(self.diag, "diag")
        self.upper = _as_vector(self.upper, "upper")
        self.rhs = _as_vector(self.rhs, "rhs")
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


@dataclass(eq=False)
class LeastSquaresProblem:
    """min ||design @ x - targets||_2 with an m x k design, m >= k >= 1."""

    design: np.ndarray
    targets: np.ndarray

    def __post_init__(self) -> None:
        self.design = np.asarray(self.design, dtype=float)
        self.targets = _as_vector(self.targets, "targets")
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
    pivot falls below ``ZERO_PIVOT_TOL`` in magnitude.
    """
    n = system.n
    lower, diag, upper, rhs = (
        v.tolist() for v in (system.lower, system.diag, system.upper, system.rhs)
    )
    gamma = [0.0] * (n - 1)
    delta = [0.0] * n
    pivot = diag[0]
    if abs(pivot) < ZERO_PIVOT_TOL:
        raise ZeroPivot("zero pivot at row 0")
    delta[0] = rhs[0] / pivot
    for i in range(1, n):
        gamma[i - 1] = upper[i - 1] / pivot
        pivot = diag[i] - lower[i - 1] * gamma[i - 1]
        if abs(pivot) < ZERO_PIVOT_TOL:
            raise ZeroPivot(f"zero pivot at row {i}")
        delta[i] = (rhs[i] - lower[i - 1] * delta[i - 1]) / pivot
    x = [0.0] * n
    x[n - 1] = delta[n - 1]
    for i in range(n - 2, -1, -1):
        x[i] = delta[i] - gamma[i] * x[i + 1]
    return np.array(x)


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
    """Solve A x = rhs for a symmetric positive-definite banded matrix.

    ``bands`` holds the lower band rows: ``bands[d, j] = A[j + d, j]`` for
    d = 0..p (entries past the matrix edge are ignored).  Cholesky without
    pivoting; raises ZeroPivot when a pivot collapses, i.e. the matrix is
    not numerically positive definite.
    """
    bands = np.asarray(bands, dtype=float)
    if bands.ndim != 2:
        raise ValueError("bands must be two-dimensional")
    p = bands.shape[0] - 1
    n = bands.shape[1]
    b = _as_vector(rhs, "rhs")
    if b.size != n:
        raise ValueError("rhs length must match band columns")
    bands, b = bands.tolist(), b.tolist()
    chol = [[0.0] * n for _ in range(p + 1)]
    for j in range(n):
        s = bands[0][j]
        for k in range(max(0, j - p), j):
            try:
                s -= chol[j - k][k] ** 2
            except OverflowError:  # a float64 square rounds to inf instead
                s -= math.inf
        if s <= ZERO_PIVOT_TOL:
            raise ZeroPivot(f"pivot collapsed at row {j}; matrix not positive definite")
        chol[0][j] = math.sqrt(s)
        for i in range(j + 1, min(j + p, n - 1) + 1):
            u = bands[i - j][j]
            for k in range(max(0, i - p), j):
                u -= chol[i - k][k] * chol[j - k][k]
            chol[i - j][j] = u / chol[0][j]
    # forward then backward substitution on the banded factor
    z = [0.0] * n
    for i in range(n):
        acc = b[i]
        for k in range(max(0, i - p), i):
            acc -= chol[i - k][k] * z[k]
        z[i] = acc / chol[0][i]
    x = [0.0] * n
    for i in range(n - 1, -1, -1):
        acc = z[i]
        for k in range(i + 1, min(i + p, n - 1) + 1):
            acc -= chol[k - i][i] * x[k]
        x[i] = acc / chol[0][i]
    return np.array(x)
