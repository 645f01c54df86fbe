"""Deterministic SVG rendering of curves and knot markers.

The renderer draws one polyline per curve layer and one circle per knot
marker, mapping data bounds (padded by 5% per side) linearly onto the
pixel viewport.  All numbers are written with four decimals and elements
appear in a fixed order, so identical input always yields identical bytes.
"""

from dataclasses import dataclass
from html import escape

from .errors import EmptyPlot
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

    Raises EmptyPlot when no layer carries any point.  Output is
    byte-identical for identical input.
    """
    drawable = [layer for layer in spec.layers if layer.points]
    if not drawable:
        raise EmptyPlot("nothing to draw")
    xs = [p[0] for layer in drawable for p in layer.points]
    ys = [p[1] for layer in drawable for p in layer.points]
    x_lo, x_hi = _padded(min(xs), max(xs))
    y_lo, y_hi = _padded(min(ys), max(ys))
    w, h = float(spec.width), float(spec.height)

    def to_px(point: tuple[float, float]) -> tuple[float, float]:
        px = (point[0] - x_lo) / (x_hi - x_lo) * w
        py = h - (point[1] - y_lo) / (y_hi - y_lo) * h
        return px, py

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
    for layer in spec.layers:
        if not layer.points:
            continue
        if layer.kind == "curve":
            coords = " ".join(
                f"{_fmt(px)},{_fmt(py)}" for px, py in map(to_px, layer.points)
            )
            parts.append(
                f'<polyline fill="none" stroke="{layer.color}" stroke-width="1.5" '
                f'points="{coords}"/>'
            )
        else:
            for point in layer.points:
                px, py = to_px(point)
                parts.append(
                    f'<circle cx="{_fmt(px)}" cy="{_fmt(py)}" r="{_fmt(MARKER_RADIUS)}" '
                    f'fill="{layer.color}"/>'
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
