"""Shared test oracles and data generators.

The oracles here deliberately take different routes than the package code:
dense Gaussian elimination with partial pivoting instead of the banded
Thomas sweep, normal equations instead of orthogonalization, and the full
per-segment constraint system instead of the moment form.  The scalar
spline evaluator, extrema finder and harmonic residuals are the
per-point and per-segment loops that the vectorised ones replaced, as are
the Lagrange weight and barycentric loops, the two scalar solvers are the numpy-scalar loops that the list-based ones
replaced, and the SVG marks are the per-point ``to_px`` loop with Python's
own ``f"{v:.4f}"``, which the array writer replaced: same operations in
the same order, so their results must match bit for bit.  The CSV body is parsed a record
and a cell at a time, as before the column scans, so the first bad cell
in row order raises with the same error.
"""

import math
import re
from bisect import bisect_right
from datetime import date
from html import escape

import numpy as np

from hydrospline import Dataset, DatasetRow, TimeSeries, harmonic_reference
from hydrospline.errors import MalformedNumber, MalformedRow, WeightOverflow, ZeroPivot
from hydrospline.linalg import ZERO_PIVOT_TOL
from hydrospline.series import parse_date
from hydrospline.splines import FLAT_CURVATURE_TOL, KNOT_SNAP_TOL, Extremum
from hydrospline.svgplot import MARKER_RADIUS, _padded

EPOCH = date(2000, 1, 1)


def make_series(t, y, station="site-a", parameter="y") -> TimeSeries:
    knots = tuple((float(a), float(b)) for a, b in zip(t, y))
    return TimeSeries(station=station, parameter=parameter, knots=knots, epoch=EPOCH)


def make_dataset(*rows, parameters=("OD",)) -> Dataset:
    """A table of station "s" from (date, values) rows, built without parse_csv."""
    return Dataset(
        station="s",
        parameters=parameters,
        rows=tuple(DatasetRow(date=d, values=v) for d, v in rows),
        source="<hand>",
    )


_NUMBER_RE = re.compile(r"^[+-]?(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?$")


def _scalar_cell(cell, row_number, code):
    if cell in ("*", "-"):
        return None
    if not _NUMBER_RE.match(cell):
        raise MalformedNumber(f"row {row_number}, column {code}: not a number: {cell!r}")
    value = float(cell)
    if not math.isfinite(value):
        raise MalformedNumber(f"row {row_number}, column {code}: out of range: {cell!r}")
    return value


def scalar_parse_rows(body, parameters):
    """The rows of a CSV body (the records after the header), parsed a record
    at a time; the first bad cell in row order raises (arity, then date, then
    values from left to right)."""
    rows = []
    for number, record in enumerate(body, start=2):
        cells = [cell.strip() for cell in record]
        if len(cells) != len(parameters) + 1:
            raise MalformedRow(
                f"row {number}: expected {len(parameters) + 1} cells, got {len(cells)}"
            )
        when = parse_date(cells[0])
        values = tuple(
            _scalar_cell(cell, number, code) for cell, code in zip(cells[1:], parameters)
        )
        rows.append(DatasetRow(date=when, values=values))
    return rows


def random_knots(rng, n, t_span=200.0, y_span=(0.0, 12.0), min_gap=0.5):
    """Strictly increasing times with a minimum gap, bounded values."""
    gaps = rng.uniform(min_gap, t_span / n, n - 1)
    t = np.concatenate([[0.0], np.cumsum(gaps)])
    y = rng.uniform(y_span[0], y_span[1], n)
    return t, y


def gauss_solve(a, b):
    """Dense Gaussian elimination with partial pivoting."""
    a = np.array(a, dtype=float)
    b = np.array(b, dtype=float)
    n = a.shape[0]
    for col in range(n):
        pivot_row = col + int(np.argmax(np.abs(a[col:, col])))
        if pivot_row != col:
            a[[col, pivot_row]] = a[[pivot_row, col]]
            b[[col, pivot_row]] = b[[pivot_row, col]]
        for row in range(col + 1, n):
            factor = a[row, col] / a[col, col]
            a[row, col:] -= factor * a[col, col:]
            b[row] -= factor * b[col]
    x = np.zeros(n)
    for row in range(n - 1, -1, -1):
        x[row] = (b[row] - a[row, row + 1 :] @ x[row + 1 :]) / a[row, row]
    return x


def tridiagonal_to_dense(system):
    n = system.n
    a = np.zeros((n, n))
    a[np.arange(n), np.arange(n)] = system.diag
    if n > 1:
        a[np.arange(1, n), np.arange(n - 1)] = system.lower
        a[np.arange(n - 1), np.arange(1, n)] = system.upper
    return a


def normal_equations_solve(design, targets):
    """Least squares via A^T A x = A^T b, solved densely."""
    design = np.asarray(design, dtype=float)
    targets = np.asarray(targets, dtype=float)
    return gauss_solve(design.T @ design, design.T @ targets)


def dense_spline_coefficients(t, y):
    """Per-segment cubic coefficients from the full constraint system.

    Unknowns are (a, b, c, d) for every segment; equations are the two
    interpolation conditions per segment, C1/C2 matching at the interior
    junctions, and zero second derivative at both ends.
    """
    t = np.asarray(t, dtype=float)
    y = np.asarray(y, dtype=float)
    nseg = t.size - 1
    a = np.zeros((4 * nseg, 4 * nseg))
    b = np.zeros(4 * nseg)
    row = 0
    for i in range(nseg):
        h = t[i + 1] - t[i]
        a[row, 4 * i] = 1.0
        b[row] = y[i]
        row += 1
        a[row, 4 * i : 4 * i + 4] = [1.0, h, h * h, h * h * h]
        b[row] = y[i + 1]
        row += 1
    for i in range(nseg - 1):
        h = t[i + 1] - t[i]
        a[row, 4 * i + 1] = 1.0
        a[row, 4 * i + 2] = 2.0 * h
        a[row, 4 * i + 3] = 3.0 * h * h
        a[row, 4 * (i + 1) + 1] = -1.0
        row += 1
        a[row, 4 * i + 2] = 2.0
        a[row, 4 * i + 3] = 6.0 * h
        a[row, 4 * (i + 1) + 2] = -2.0
        row += 1
    a[row, 2] = 2.0
    row += 1
    h = t[-1] - t[-2]
    a[row, 4 * (nseg - 1) + 2] = 2.0
    a[row, 4 * (nseg - 1) + 3] = 6.0 * h
    row += 1
    assert row == 4 * nseg
    return gauss_solve(a, b).reshape(nseg, 4)


def scalar_spline(model, t, order=0):
    """Value or derivative of a SplineModel at one point, by bisection and Horner.

    Outside the knot span the value extends linearly with the boundary slope,
    which keeps the slope constant and the curvature zero.
    """
    ts = [k for k, _ in model.knots]
    if t < ts[0]:
        a, b, _, _ = model.coefficients[0]
        return (a + b * (t - ts[0]), b, 0.0)[order]
    i = min(max(bisect_right(ts, t) - 1, 0), len(ts) - 2)
    a, b, c, d = model.coefficients[i]
    s = min(t, ts[-1]) - ts[i]
    value = ((d * s + c) * s + b) * s + a
    slope = (3.0 * d * s + 2.0 * c) * s + b
    if t > ts[-1]:
        return (value + slope * (t - ts[-1]), slope, 0.0)[order]
    return (value, slope, 6.0 * d * s + 2.0 * c)[order]


def _stationary_points(b, c, d):
    """Real roots of f'(s) = b + 2 c s + 3 d s^2, ascending."""
    qa, qb, qc = 3.0 * d, 2.0 * c, b
    if qa == 0.0:
        if qb == 0.0:
            return []
        return [-qc / qb]
    disc = qb * qb - 4.0 * qa * qc
    if disc < 0.0:
        return []
    if disc == 0.0:
        return [-qb / (2.0 * qa)]
    # split the quadratic formula to avoid cancellation between -qb and the root
    q = -(qb + math.copysign(math.sqrt(disc), qb)) / 2.0
    return sorted((q / qa, qc / q))


def scalar_extrema(model):
    """Interior extrema of a SplineModel, one segment and one root at a time.

    Roots are taken on the half-open segment, flat points with
    |f''| <= FLAT_CURVATURE_TOL are dropped, and points within 1e-9 days of
    an earlier one are merged into it.
    """
    ts = [t for t, _ in model.knots]
    t_first, t_last = ts[0], ts[-1]
    found = []
    for i, (a, b, c, d) in enumerate(model.coefficients):
        h = ts[i + 1] - ts[i]
        snap = 1e-12 * max(1.0, abs(h))
        for s in _stationary_points(b, c, d):
            if s < -snap or s >= h:
                continue
            s = max(s, 0.0)
            t = ts[i] + s
            if not (t_first < t < t_last):
                continue
            curvature = 6.0 * d * s + 2.0 * c
            if abs(curvature) <= FLAT_CURVATURE_TOL:
                continue
            y = ((d * s + c) * s + b) * s + a
            kind = "max" if curvature < 0.0 else "min"
            found.append(Extremum(t=t, y=y, kind=kind))
    found.sort(key=lambda e: e.t)
    deduped = []
    for e in found:
        if deduped and abs(e.t - deduped[-1].t) <= 1e-9:
            continue
        deduped.append(e)
    return deduped


def scalar_lagrange_weights(series):
    """Barycentric weights of a series with distinct knots, one product at a time."""
    ts = series.t
    n = len(ts)
    weights = []
    for i in range(n):
        prod = 1.0
        for j in range(n):
            if j != i:
                prod *= ts[i] - ts[j]
        w = 1.0 / prod
        if not math.isfinite(w) or w == 0.0:
            raise WeightOverflow("barycentric weights overflow for this knot layout")
        weights.append(w)
    return tuple(weights)


def scalar_lagrange(model, t):
    """The barycentric second form of a LagrangeModel at one point; exact at (snapped) knots."""
    ts = tuple(t for t, _ in model.knots)
    for i, ti in enumerate(ts):
        if abs(t - ti) <= KNOT_SNAP_TOL:
            return model.knots[i][1]
    num = 0.0
    den = 0.0
    for (ti, yi), wi in zip(model.knots, model.weights):
        factor = wi / (t - ti)
        num += factor * yi
        den += factor
    return num / den


def scalar_lagrange_first_form(model, t):
    """The barycentric first form l(t) * sum w_i y_i / (t - t_i) of a LagrangeModel at a
    point that no knot snaps to, with l(t) the product of the (t - t_i) in knot order."""
    ell = 1.0
    num = 0.0
    for (ti, yi), wi in zip(model.knots, model.weights):
        ell *= t - ti
        num += wi / (t - ti) * yi
    return ell * num


def scalar_residuals(curve, spec, index_map):
    """(rmse, max |residual|, earliest t of that maximum) of a curve against the reference."""
    residuals = [
        y - harmonic_reference(index_map.index_at(t), spec) for t, y in zip(curve.t, curve.y)
    ]
    rmse = math.sqrt(math.fsum(r * r for r in residuals) / len(residuals))
    worst = 0
    for i, r in enumerate(residuals):
        if abs(r) > abs(residuals[worst]):
            worst = i
    return rmse, abs(residuals[worst]), curve.t[worst]


def scalar_fmt(value):
    """``value`` with four decimals, as Python writes it, with no sign on a zero."""
    text = f"{value:.4f}"
    return "0.0000" if text == "-0.0000" else text


def scalar_svg_marks(spec):
    """The polyline and circle lines of render_svg, mapping and formatting one point at a time."""
    drawable = [layer for layer in spec.layers if layer.points]
    xs = [p[0] for layer in drawable for p in layer.points]
    ys = [p[1] for layer in drawable for p in layer.points]
    x_lo, x_hi = _padded(min(xs), max(xs))
    y_lo, y_hi = _padded(min(ys), max(ys))
    w, h = float(spec.width), float(spec.height)

    def to_px(point):
        px = (point[0] - x_lo) / (x_hi - x_lo) * w
        py = h - (point[1] - y_lo) / (y_hi - y_lo) * h
        return scalar_fmt(px), scalar_fmt(py)

    lines = []
    for layer in drawable:
        color = escape(layer.color)
        if layer.kind == "curve":
            coords = " ".join(f"{px},{py}" for px, py in map(to_px, layer.points))
            lines.append(
                f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
                f'points="{coords}"/>'
            )
        else:
            for px, py in map(to_px, layer.points):
                lines.append(
                    f'<circle cx="{px}" cy="{py}" r="{scalar_fmt(MARKER_RADIUS)}" '
                    f'fill="{color}"/>'
                )
    return lines


def scalar_tridiagonal(system):
    """Thomas sweep over numpy scalars: the exact-equality reference for solve_tridiagonal."""
    n = system.n
    lower, diag, upper, rhs = system.lower, system.diag, system.upper, system.rhs
    gamma = np.empty(n - 1) if n > 1 else np.empty(0)
    delta = np.empty(n)
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
    x = np.empty(n)
    x[n - 1] = delta[n - 1]
    for i in range(n - 2, -1, -1):
        x[i] = delta[i] - gamma[i] * x[i + 1]
    return x


def scalar_banded_spd(bands, rhs):
    """Banded Cholesky over numpy scalars: the exact-equality reference for solve_banded_spd."""
    bands = np.asarray(bands, dtype=float)
    b = np.asarray(rhs, dtype=float)
    p = bands.shape[0] - 1
    n = bands.shape[1]
    chol = np.zeros_like(bands)
    for j in range(n):
        s = bands[0, j]
        for k in range(max(0, j - p), j):
            s -= chol[j - k, k] ** 2
        if s <= ZERO_PIVOT_TOL:
            raise ZeroPivot(f"pivot collapsed at row {j}; matrix not positive definite")
        chol[0, j] = math.sqrt(s)
        for i in range(j + 1, min(j + p, n - 1) + 1):
            u = bands[i - j, j]
            for k in range(max(0, i - p), j):
                u -= chol[i - k, k] * chol[j - k, k]
            chol[i - j, j] = u / chol[0, j]
    z = np.empty(n)
    for i in range(n):
        acc = b[i]
        for k in range(max(0, i - p), i):
            acc -= chol[i - k, k] * z[k]
        z[i] = acc / chol[0, i]
    x = np.empty(n)
    for i in range(n - 1, -1, -1):
        acc = z[i]
        for k in range(i + 1, min(i + p, n - 1) + 1):
            acc -= chol[k - i, i] * x[k]
        x[i] = acc / chol[0, i]
    return x
