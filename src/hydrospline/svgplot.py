"""Deterministic SVG rendering of curves and knot markers.

The renderer draws one polyline per curve layer and one circle per knot
marker, mapping data bounds (padded by 5% per side) linearly onto the
pixel viewport.  All numbers are written with four decimals and elements
appear in a fixed order, so identical input always yields identical bytes.
"""

import math
from dataclasses import dataclass
from html import escape

from .errors import EmptyPlot, NumericOverflow
from .splines import CurveSamples

MARKER_RADIUS = 3.0


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
    return lo - pad, hi + pad


def render_svg(spec: PlotSpec) -> str:
    """Render a plot spec to SVG 1.1 text.

    Raises EmptyPlot when no layer carries any point and NumericOverflow
    when a padded data span leaves the float range.  Output is
    byte-identical for identical input.
    """
    drawable = [layer for layer in spec.layers if layer.points]
    if not drawable:
        raise EmptyPlot("nothing to draw")
    xs = [p[0] for layer in drawable for p in layer.points]
    ys = [p[1] for layer in drawable for p in layer.points]
    x_lo, x_hi = _padded(min(xs), max(xs))
    y_lo, y_hi = _padded(min(ys), max(ys))
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
    # one f-string per point: x maps to (x - x_lo) / x_span * w and y to
    # h - (y - y_lo) / y_span * h; a coordinate that rounds to "-0.0000" is
    # then written "0.0000", as _fmt does
    for layer in drawable:
        if layer.kind == "curve":
            coords = " ".join([
                f"{(x - x_lo) / x_span * w:.4f},{h - (y - y_lo) / y_span * h:.4f}"
                for x, y in layer.points
            ])
            parts.append(
                f'<polyline fill="none" stroke="{layer.color}" stroke-width="1.5" '
                f'points="{coords.replace("-0.0000", "0.0000")}"/>'
            )
        else:
            tail = f'r="{_fmt(MARKER_RADIUS)}" fill="{layer.color}"/>'
            circles = "\n".join([
                f'<circle cx="{(x - x_lo) / x_span * w:.4f}" '
                f'cy="{h - (y - y_lo) / y_span * h:.4f}" {tail}'
                for x, y in layer.points
            ])
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
