"""Deterministic SVG rendering of curves and knot markers.

The renderer draws one polyline per curve layer and one circle per knot
marker, mapping data bounds (padded by 5% per side) linearly onto the
pixel viewport.  All numbers are written with four decimals and elements
appear in a fixed order, so identical input always yields identical bytes.
"""

import math
from dataclasses import dataclass
from html import escape
from operator import itemgetter

import numpy as np

from .errors import EmptyPlot, NumericOverflow
from .splines import CurveSamples

MARKER_RADIUS = 3.0

#: points written by one ``%`` call; bounds the tuple of floats it formats
_CHUNK = 1024


@dataclass(frozen=True)
class PlotLayer:
    """Either a connected curve or a set of point markers."""

    kind: str  # "curve" | "markers"
    points: tuple[tuple[float, float], ...]
    color: str
    label: str = ""

    def __post_init__(self) -> None:
        if self.kind not in ("curve", "markers"):
            raise ValueError(f"layer kind must be curve or markers, got {self.kind!r}")


def curve_layer(samples: CurveSamples, color: str, label: str = "") -> PlotLayer:
    points = tuple(zip(samples.t, samples.y))
    return PlotLayer(kind="curve", points=points, color=color, label=label)


def marker_layer(points, color: str, label: str = "") -> PlotLayer:
    points = tuple((float(t), float(y)) for t, y in points)
    return PlotLayer(kind="markers", points=points, color=color, label=label)


@dataclass(frozen=True)
class PlotSpec:
    """What to draw: layers plus title and axis labels on a fixed canvas."""

    width: int
    height: int
    layers: tuple[PlotLayer, ...]
    title: str = ""
    x_label: str = ""
    y_label: str = ""

    def __post_init__(self) -> None:
        if self.width <= 0 or self.height <= 0:
            raise ValueError("plot dimensions must be positive")


def _fmt(value: float) -> str:
    text = f"{value:.4f}"
    return "0.0000" if text == "-0.0000" else text


def _padded(lo: float, hi: float) -> tuple[float, float]:
    span = hi - lo
    pad = 0.05 * span if span > 0 else 0.5
    lo, hi = lo - pad, hi + pad
    if hi == lo:  # the 0.5 pad is lost to rounding at about 1e16 and beyond
        lo, hi = math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)
    return lo, hi


def _columns(points) -> tuple[np.ndarray, np.ndarray]:
    """The x and y columns of a layer's points; NumericOverflow if any is not finite."""
    n = len(points)
    x = np.fromiter(map(itemgetter(0), points), float, n)
    y = np.fromiter(map(itemgetter(1), points), float, n)
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise NumericOverflow("plot points are not finite")
    return x, y


def _bounds(columns) -> tuple[float, float]:
    """The first smallest and first largest value over all columns.

    argmin and argmax return the first of equal values, so a tie of -0.0
    and 0.0 resolves as ``min`` and ``max`` over the points do.
    """
    lo = min(float(c[c.argmin()]) for c in columns)
    hi = max(float(c[c.argmax()]) for c in columns)
    return lo, hi


def _format_pairs(px: np.ndarray, py: np.ndarray, mark: str, sep: str) -> str:
    """Each (px, py) written into ``mark``, a template with two ``%.4f``, joined by ``sep``.

    ``'%.4f' % v`` is the same text as ``f'{v:.4f}'``; one ``%`` call
    formats a chunk of up to ``_CHUNK`` points.
    """
    pairs = np.column_stack((px, py))
    chunks = []
    for start in range(0, len(pairs), _CHUNK):
        values = tuple(pairs[start:start + _CHUNK].ravel().tolist())
        chunks.append(sep.join([mark] * (len(values) // 2)) % values)
    return sep.join(chunks)


def render_svg(spec: PlotSpec) -> str:
    """Render a plot spec to SVG 1.1 text.

    Raises EmptyPlot when no layer carries any point and NumericOverflow
    when a point is not finite or a padded data span leaves the float
    range.  Output is byte-identical for identical input.
    """
    drawable = [layer for layer in spec.layers if layer.points]
    if not drawable:
        raise EmptyPlot("nothing to draw")
    columns = [_columns(layer.points) for layer in drawable]
    x_lo, x_hi = _padded(*_bounds([x for x, _ in columns]))
    y_lo, y_hi = _padded(*_bounds([y for _, y in columns]))
    x_span, y_span = x_hi - x_lo, y_hi - y_lo
    if not (math.isfinite(x_span) and math.isfinite(y_span)):
        raise NumericOverflow("plot range overflows the float range for these values")
    w, h = float(spec.width), float(spec.height)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{spec.width}" height="{spec.height}" '
        f'viewBox="0 0 {spec.width} {spec.height}">',
        f'<rect x="0" y="0" width="{spec.width}" height="{spec.height}" '
        f'fill="white" stroke="black" stroke-width="1"/>',
    ]
    if spec.title:
        parts.append(
            f'<text x="{_fmt(w / 2)}" y="16" text-anchor="middle" '
            f'font-size="14">{escape(spec.title, quote=False)}</text>'
        )
    if spec.x_label:
        parts.append(
            f'<text x="{_fmt(w / 2)}" y="{_fmt(h - 4)}" text-anchor="middle" '
            f'font-size="11">{escape(spec.x_label, quote=False)}</text>'
        )
    if spec.y_label:
        parts.append(
            f'<text x="12" y="{_fmt(h / 2)}" text-anchor="middle" font-size="11" '
            f'transform="rotate(-90 12 {_fmt(h / 2)})">{escape(spec.y_label, quote=False)}</text>'
        )
    # x maps to (x - x_lo) / x_span * w and y to h - (y - y_lo) / y_span * h,
    # the same float operations as on Python floats; a coordinate that rounds
    # to "-0.0000" is then written "0.0000", as _fmt does
    for layer, (x, y) in zip(drawable, columns):
        px = (x - x_lo) / x_span * w
        py = h - (y - y_lo) / y_span * h
        if layer.kind == "curve":
            coords = _format_pairs(px, py, "%.4f,%.4f", " ")
            parts.append(
                f'<polyline fill="none" stroke="{layer.color}" stroke-width="1.5" '
                f'points="{coords.replace("-0.0000", "0.0000")}"/>'
            )
        else:
            fill = layer.color.replace("%", "%%")
            mark = f'<circle cx="%.4f" cy="%.4f" r="{_fmt(MARKER_RADIUS)}" fill="{fill}"/>'
            circles = _format_pairs(px, py, mark, "\n")
            parts.append(
                circles.replace('x="-0.0000"', 'x="0.0000"').replace('y="-0.0000"', 'y="0.0000"')
            )
    legend_y = 30
    for layer in spec.layers:
        if layer.label:
            parts.append(
                f'<text x="8" y="{legend_y}" font-size="11" '
                f'fill="{layer.color}">{escape(layer.label, quote=False)}</text>'
            )
            legend_y += 14
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
