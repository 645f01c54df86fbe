"""Deterministic SVG rendering of curves and knot markers.

The renderer draws one polyline per curve layer and one circle per knot
marker, mapping data bounds (padded by 5% per side) linearly onto the
pixel viewport of at most 1e9 by 1e9 pixels.  Every number is written as
``'%.4f' % v`` writes it, except that a value rounding to zero carries no
sign.  One array writer fills that text from float64 columns into a byte
template and deletes the template's unused bytes, all 0xFF, with
``bytes.translate``, so the coordinates never become Python floats.
Elements appear in a fixed order, so identical input always yields
identical bytes.
"""

import math
from functools import cache
from typing import Sequence

import numpy as np

from .errors import EmptyPlot, NumericOverflow, typed_overflow
from .series import CurveSamples, _Value

MARKER_RADIUS = 3.0

#: largest plot width or height; it keeps every coordinate times 1e4 below 2**50
MAX_DIMENSION = 1_000_000_000

#: html.escape(s, quote=False) and html.escape(s) as str.translate tables; importing
#: html would load html.entities on every start for these five characters
_TEXT = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;"})
_ATTRIBUTE = {**_TEXT, ord('"'): "&quot;", ord("'"): "&#x27;"}

#: rows written per block; bounds the writer's temporary arrays
_BLOCK = 4096

#: a slot of four bytes that the writer drops, and one that keeps only a minus sign
_DROPPED, _MINUS = np.frombuffer(b"\xff\xff\xff\xff\xff\xff\xff-", np.uint32)


@cache  # built on the first render, so importing the package does not pay for it
def _tables() -> tuple[np.ndarray, np.ndarray]:
    """The 4-byte digit slots of an integer's units group and of the groups above it.

    Entry i < 10,000 holds the digits of i with the byte 0xFF in place of its
    leading zeros; entry 10,000 + i holds them zero-padded, for a group with
    non-zero digits above it.  Entry 0 is "0" in the first table and four
    0xFF bytes in the second.
    """
    digits = np.indices((10,) * 4, np.uint8).reshape(4, -1) + ord("0")  # [place, number]
    # a place's digit is a leading zero while the number is below the place's value
    started = np.arange(10_000) >= np.array([[1000], [100], [10], [0]])
    slots = np.concatenate([np.where(started, digits, 0xFF), digits], axis=1)
    units = slots.T.copy().view(np.uint32).ravel()
    upper = units.copy()
    upper[0] = _DROPPED
    units.flags.writeable = upper.flags.writeable = False  # shared by every render
    return units, upper


class PlotLayer(_Value):
    """Either a connected curve or a set of point markers, as a read-only (n, 2) array."""

    __eq__, __hash__ = object.__eq__, object.__hash__  # arrays have no truth value: by identity

    def __init__(self, kind: str, points, color: str, label: str = "") -> None:
        if kind not in ("curve", "markers"):
            raise ValueError(f"layer kind must be curve or markers, got {kind!r}")
        with typed_overflow("plot points leave the float range"):
            points = np.array(points, dtype=float)
        if points.shape != (0,) and points.shape[1:] != (2,):
            raise ValueError(f"layer points must be (x, y) pairs, got shape {points.shape}")
        points = points.reshape(-1, 2)  # only the empty table changes shape
        points.flags.writeable = False
        vars(self).update(kind=kind, points=points, color=color, label=label)


def curve_layer(samples: CurveSamples, color: str, label: str = "") -> PlotLayer:
    points = np.column_stack((samples.grid, samples.values))
    return PlotLayer(kind="curve", points=points, color=color, label=label)


def marker_layer(points, color: str, label: str = "") -> PlotLayer:
    return PlotLayer(kind="markers", points=points, color=color, label=label)


class PlotSpec(_Value):
    """What to draw: layers plus title and axis labels on a fixed canvas."""

    def __init__(self, width: int, height: int, layers: tuple[PlotLayer, ...], title: str = "",
                 x_label: str = "", y_label: str = "") -> None:
        if not (0 < width <= MAX_DIMENSION and 0 < height <= MAX_DIMENSION):
            raise ValueError(f"plot dimensions must be positive and at most {MAX_DIMENSION}")
        vars(self).update(width=width, height=height, layers=layers, title=title,
                          x_label=x_label, y_label=y_label)


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
    decimals, then the value's glue padded to whole slots.  Every byte the
    text leaves out is written as 0xFF: the pads ``_``, the sign of a value
    that is not negative and the leading zeros of the integer part.  One
    ``bytes.translate`` per block deletes them; a glue, being UTF-8, never
    holds that byte.
    """
    units, upper = _tables()
    padded = units[10_000:]
    glue = [g.encode() for g in glue]
    # a column's integer digit groups; the + 1 covers a value that rounds up
    groups = [(len(str(int(max(c.max(), -c.min())) + 1)) + 3) // 4 for c in columns]
    chars = b"".join(b"\xff\xff\xff-" + b"0000" * count + b"\xff\xff\xff.0000" + g
                     + b"\xff" * (-len(g) % 4) for g, count in zip(glue, groups))
    n = len(columns[0])
    text = np.tile(np.frombuffer(chars, np.uint8), (min(n, _BLOCK), 1))
    blocks = []
    for start in range(0, n, _BLOCK):
        rows = min(n - start, _BLOCK)
        text32 = text[:rows].view(np.uint32)
        slot = 0
        for column, g, count in zip(columns, glue, groups):
            negative, part, decimals = _round4(column[start:start + rows])
            text32[:, slot] = np.where(negative, _MINUS, _DROPPED)
            for group in range(slot + count, slot, -1):  # from the units digit's group up
                # below the top group, a part of 10,000 or more takes the zero-padded slot
                index = part if group == slot + 1 else np.minimum(part, part % 10_000 + 10_000)
                text32[:, group] = (units if group == slot + count else upper).take(index)
                if group > slot + 1:
                    part //= 10_000
            text32[:, slot + count + 2] = padded.take(decimals)
            slot += count + 3 + (len(g) + 3) // 4
        data = text[:rows].tobytes().translate(None, b"\xff")
        if start + rows == n:
            data = data[:len(data) - len(glue[-1])]
        blocks.append(data.decode())
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


def _columns(points: np.ndarray) -> np.ndarray:
    """Writable x and y rows copied from a layer's points; NumericOverflow if any is not finite."""
    if not np.isfinite(points).all():
        raise NumericOverflow("plot points are not finite")
    return np.array(points.T)


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
    drawable = [layer for layer in spec.layers if len(layer.points)]
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
            f'font-size="14">{spec.title.translate(_TEXT)}</text>\n'
        )
    if spec.x_label:
        parts.append(
            f'<text x="{_fmt(w / 2)}" y="{_fmt(h - 4)}" text-anchor="middle" '
            f'font-size="11">{spec.x_label.translate(_TEXT)}</text>\n'
        )
    if spec.y_label:
        parts.append(
            f'<text x="12" y="{_fmt(h / 2)}" text-anchor="middle" font-size="11" '
            f'transform="rotate(-90 12 {_fmt(h / 2)})">{spec.y_label.translate(_TEXT)}</text>\n'
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
        color = layer.color.translate(_ATTRIBUTE)
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
                f'<text x="8" y="{legend_y}" font-size="11" fill="'
                f'{layer.color.translate(_ATTRIBUTE)}">{layer.label.translate(_TEXT)}</text>\n'
            )
            legend_y += 14
    parts.append("</svg>\n")
    return "".join(parts)
