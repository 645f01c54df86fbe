"""Deterministic SVG rendering of curves and knot markers.

The renderer draws one polyline per curve layer and one circle per knot
marker, mapping data bounds (padded by 5% per side) linearly onto the
pixel viewport of at most 1e9 by 1e9 pixels.  Every number is written as
``'%.4f' % v`` writes it, except that a value rounding to zero carries no
sign; one array writer produces that text from float64 columns, so the
coordinates never become Python floats.  Elements appear in a fixed order,
so identical input always yields identical bytes.
"""

import math
from dataclasses import dataclass
from functools import cache
from html import escape
from itertools import accumulate
from operator import itemgetter
from typing import Sequence

import numpy as np

from .errors import EmptyPlot, NumericOverflow
from .splines import CurveSamples

MARKER_RADIUS = 3.0

#: largest plot width or height; it keeps every coordinate times 1e4 below 2**50
MAX_DIMENSION = 1_000_000_000

#: rows written per block; bounds the writer's temporary arrays
_BLOCK = 4096


def _slots(places) -> np.ndarray:
    """Four arrays over the digits of 0..9999, from the thousands to the units
    place, as one uint32 slot of four bytes per number."""
    table = np.stack(np.broadcast_arrays(*places), axis=-1).reshape(10_000, 4)
    return table.view(np.uint32).ravel()


@cache  # built on the first render, so importing the package does not pay for it
def _tables() -> tuple[np.ndarray, np.ndarray]:
    """The slots of each of 0..9999: its four ASCII digits, zero-padded, and
    its keep-mask as a leading group, which keeps its digits from the first
    non-zero one."""
    places = np.ix_(*[np.arange(10, dtype=np.uint8)] * 4)
    digits = _slots([place + ord("0") for place in places])
    leading = _slots(list(accumulate((place > 0 for place in places), np.logical_or)))
    digits.flags.writeable = leading.flags.writeable = False  # shared by every render
    return digits, leading


#: keep-mask slot that keeps only its last byte
_LAST = np.array([0, 0, 0, 1], bool).view(np.uint32)[0]


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
        if not (0 < self.width <= MAX_DIMENSION and 0 < self.height <= MAX_DIMENSION):
            raise ValueError(f"plot dimensions must be positive and at most {MAX_DIMENSION}")


def _round4(values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(negative, whole, decimals) of each value correctly rounded to four decimals.

    |values| * 1e4 must be below 2**50, where float64 holds every half-integer.
    Rounding is monotonic, so ``scaled = values * 1e4`` lies on the same side
    of each half-integer as the exact product unless it equals one, and
    ``rint(scaled)`` is then the correctly rounded result.  The few values
    whose ``scaled`` is a half-integer are rounded by ``'%.4f'`` itself.
    """
    scaled = values * 1e4
    rounded = np.rint(scaled)
    for i in np.flatnonzero(np.abs(scaled - rounded) == 0.5):
        rounded[i] = int(("%.4f" % values[i]).replace(".", ""))
    magnitude = np.abs(rounded)
    whole = np.floor(magnitude / 1e4)
    return rounded < 0, whole.astype(np.intp), (magnitude - whole * 1e4).astype(np.intp)


def _write(columns: Sequence[np.ndarray], glue: Sequence[str]) -> list[str]:
    """The rows ``c0[i] glue[0] c1[i] glue[1] ...`` over float64 ``columns``, as text
    blocks whose concatenation leaves out the last row's final glue.

    Each value is written as ``'%.4f' % v`` writes it, except that a value
    rounding to zero has no sign.  A block is a uint8 matrix of one row per
    output row, filled through its uint32 view in 4-byte slots: per value
    ``[_ _ _ -]``, groups of four integer digits, ``[_ _ _ .]`` and the four
    decimals, then the value's glue padded to whole slots.  A keep-mask,
    computed from the sign and the digit counts, drops the pad bytes ``_``,
    the sign of values that are not negative and the leading zeros of the
    integer part.
    """
    digits, leading_digits = _tables()
    glue = [g.encode() for g in glue]
    # a column's integer digit groups; the + 1 covers a value that rounds up
    groups = [(len(str(int(max(c.max(), -c.min())) + 1)) + 3) // 4 for c in columns]
    chars = keep = b""
    for g, count in zip(glue, groups):
        pad = b"\0" * (-len(g) % 4)
        chars += b"\0\0\0-" + b"0000" * count + b"\0\0\0." + b"0000" + g + pad
        keep += b"\0\0\0\0" * (count + 1) + b"\0\0\0\1\1\1\1\1" + b"\1" * len(g) + pad
    n = len(columns[0])
    text = np.tile(np.frombuffer(chars, np.uint8), (min(n, _BLOCK), 1))
    mask = np.tile(np.frombuffer(keep, bool), (min(n, _BLOCK), 1))
    blocks = []
    for start in range(0, n, _BLOCK):
        rows = min(n - start, _BLOCK)
        text32, mask32 = text[:rows].view(np.uint32), mask[:rows].view(np.uint32)
        slot = 0
        for column, g, count in zip(columns, glue, groups):
            negative, part, decimals = _round4(column[start:start + rows])
            mask32[:, slot] = np.where(negative, _LAST, 0)
            for group in range(slot + count, slot, -1):  # from the units digit's group up
                top = group == slot + 1
                text32[:, group] = digits.take(part if top else part % 10_000)
                leading = leading_digits.take(part, mode="clip")
                mask32[:, group] = leading | _LAST if group == slot + count else leading
                if not top:
                    part //= 10_000
            text32[:, slot + count + 2] = digits.take(decimals)
            slot += count + 3 + (len(g) + 3) // 4
        data = text[:rows][mask[:rows]]
        if start + rows == n:
            data = data[:data.size - len(glue[-1])]
        blocks.append(data.tobytes().decode())
    return blocks


def _fmt(value: float) -> str:
    return _write([np.array([value], float)], [""])[0]


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
        f'viewBox="0 0 {spec.width} {spec.height}">\n',
        f'<rect x="0" y="0" width="{spec.width}" height="{spec.height}" '
        f'fill="white" stroke="black" stroke-width="1"/>\n',
    ]
    if spec.title:
        parts.append(
            f'<text x="{_fmt(w / 2)}" y="16" text-anchor="middle" '
            f'font-size="14">{escape(spec.title, quote=False)}</text>\n'
        )
    if spec.x_label:
        parts.append(
            f'<text x="{_fmt(w / 2)}" y="{_fmt(h - 4)}" text-anchor="middle" '
            f'font-size="11">{escape(spec.x_label, quote=False)}</text>\n'
        )
    if spec.y_label:
        parts.append(
            f'<text x="12" y="{_fmt(h / 2)}" text-anchor="middle" font-size="11" '
            f'transform="rotate(-90 12 {_fmt(h / 2)})">{escape(spec.y_label, quote=False)}</text>\n'
        )
    # in place, the float operations of (x - x_lo) / x_span * w and
    # h - (y - y_lo) / y_span * h, so no second copy of the columns is held
    for layer, (px, py) in zip(drawable, columns):
        px -= x_lo
        px /= x_span
        px *= w
        py -= y_lo
        py /= y_span
        py *= h
        np.subtract(h, py, out=py)
        color = escape(layer.color)
        if layer.kind == "curve":
            parts.append(
                f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="'
            )
            parts += _write((px, py), (",", " "))
            parts.append('"/>\n')
        else:
            tail = f'" r="{_fmt(MARKER_RADIUS)}" fill="{color}"/>\n'
            parts.append('<circle cx="')
            parts += _write((px, py), ('" cy="', tail + '<circle cx="'))
            parts.append(tail)
    legend_y = 30
    for layer in spec.layers:
        if layer.label:
            parts.append(
                f'<text x="8" y="{legend_y}" font-size="11" '
                f'fill="{escape(layer.color)}">{escape(layer.label, quote=False)}</text>\n'
            )
            legend_y += 14
    parts.append("</svg>\n")
    return "".join(parts)
