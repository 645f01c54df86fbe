"""SVG rendering: structure, determinism, and formatting."""

import html
import re
import tracemalloc
from xml.dom import minidom

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import make_series, random_knots, scalar_fmt, scalar_svg_marks
from hydrospline import (
    CurveSamples,
    HarmonicSpec,
    IndexMap,
    PlotSpec,
    curve_layer,
    dense_grid,
    fit_amplitude_offset,
    fit_natural_spline,
    fit_smoothing_spline,
    marker_layer,
    render_svg,
    sample_harmonic,
)
from hydrospline.errors import EmptyPlot, NumericOverflow
from hydrospline.svgplot import (
    _ATTRIBUTE,
    _BLOCK,
    _TEXT,
    MAX_DIMENSION,
    PlotLayer,
    _bounds,
    _fmt,
    _write,
)


@pytest.fixture()
def spec(od_series):
    model = fit_natural_spline(od_series)
    grid = dense_grid(model, 200)
    return PlotSpec(
        width=800,
        height=500,
        layers=(
            curve_layer(grid, "#1f77b4", label="spline"),
            marker_layer(od_series.knots, "#000000", label="samples"),
        ),
        title="Dunare-Gropeni OD",
        x_label="days",
        y_label="OD [mg/l]",
    )


def test_one_polyline_per_curve_and_one_circle_per_marker(spec):
    svg = render_svg(spec)
    assert svg.count("<polyline") == 1
    assert svg.count("<circle") == 11
    assert svg.startswith("<svg")
    assert svg.rstrip().endswith("</svg>")


def test_header_carries_dimensions(spec):
    svg = render_svg(spec)
    assert 'width="800"' in svg
    assert 'height="500"' in svg
    assert 'viewBox="0 0 800 500"' in svg


def test_labels_and_title_present(spec):
    svg = render_svg(spec)
    assert "Dunare-Gropeni OD" in svg
    assert "OD [mg/l]" in svg
    assert "spline" in svg and "samples" in svg


def test_rendering_is_deterministic(spec):
    assert render_svg(spec) == render_svg(spec)


def test_constant_curve_renders_flat_line():
    from hydrospline.splines import CurveSamples

    flat = CurveSamples(t=(0.0, 1.0, 2.0, 3.0), y=(5.0, 5.0, 5.0, 5.0), source="spline")
    spec = PlotSpec(width=100, height=80, layers=(curve_layer(flat, "red"),))
    svg = render_svg(spec)
    match = re.search(r'points="([^"]+)"', svg)
    ys = {pair.split(",")[1] for pair in match.group(1).split()}
    assert len(ys) == 1  # degenerate y-span pads to a visible centered line


def test_larger_values_map_to_smaller_y():
    from hydrospline.splines import CurveSamples

    rising = CurveSamples(t=(0.0, 1.0), y=(0.0, 10.0), source="spline")
    spec = PlotSpec(width=100, height=100, layers=(curve_layer(rising, "red"),))
    svg = render_svg(spec)
    match = re.search(r'points="([^"]+)"', svg)
    pairs = [tuple(map(float, pair.split(","))) for pair in match.group(1).split()]
    assert pairs[0][1] > pairs[1][1]


def test_coordinates_use_four_decimals(spec):
    svg = render_svg(spec)
    for pair in re.search(r'points="([^"]+)"', svg).group(1).split():
        x, y = pair.split(",")
        assert re.fullmatch(r"-?\d+\.\d{4}", x)
        assert re.fullmatch(r"-?\d+\.\d{4}", y)
    assert "-0.0000" not in svg


def test_negative_zero_is_normalized():
    assert _fmt(-0.00003) == "0.0000"
    assert _fmt(-0.3) == "-0.3000"


def test_empty_plot_rejected():
    spec = PlotSpec(width=100, height=100, layers=())
    with pytest.raises(EmptyPlot):
        render_svg(spec)
    spec = PlotSpec(width=100, height=100, layers=(marker_layer((), "red"),))
    with pytest.raises(EmptyPlot):
        render_svg(spec)


@pytest.mark.parametrize(
    "points",
    [((1.0, 2.0, 3.0), (4.0, 5.0, 6.0)), ((1.0,),), (1.0, 2.0), ((1.0, 2.0), (3.0,)), ((),)],
    ids=["2x3", "1x1", "flat", "ragged", "no-coordinates"],
)
def test_layer_points_must_be_pairs(points):
    # the 2x3 table drew two circles from the first two numbers of each point
    for kind in ("curve", "markers"):
        with pytest.raises(ValueError):
            PlotLayer(kind=kind, points=points, color="red")
    with pytest.raises(ValueError, match="layer kind must be curve or markers"):
        PlotLayer(kind="bars", points=((1.0, 2.0),), color="red")


def test_layer_points_are_a_read_only_array():
    given = np.array([[0, 1], [2, 3]])
    for layer in (marker_layer(given, "red"), marker_layer([(0, 1), (2, 3)], "red"),
                  PlotLayer(kind="curve", points=((0.0, 1.0), (2.0, 3.0)), color="red")):
        assert layer.points.dtype == np.float64 and layer.points.shape == (2, 2)
        assert layer.points.tolist() == [[0.0, 1.0], [2.0, 3.0]]
        with pytest.raises(ValueError):
            layer.points[0, 0] = 5.0
        assert layer == layer and layer != marker_layer(given, "red")  # compared by identity
    assert given.flags.writeable
    for empty in ((), []):
        assert marker_layer(empty, "grey").points.shape == (0, 2)


def test_dimensions_validated():
    with pytest.raises(ValueError):
        PlotSpec(width=0, height=100, layers=())
    with pytest.raises(ValueError):
        PlotSpec(width=100, height=-5, layers=())
    # the bound keeps every coordinate times 1e4 below 2**50, where the writer is exact
    for width, height in ((MAX_DIMENSION + 1, 100), (100, MAX_DIMENSION + 1), (float("nan"), 1)):
        with pytest.raises(ValueError, match="at most 1000000000"):
            PlotSpec(width=width, height=height, layers=())
    PlotSpec(width=MAX_DIMENSION, height=MAX_DIMENSION, layers=())


def test_one_pixel_canvas_builds():
    spec = PlotSpec(width=1, height=1, layers=())
    assert (spec.width, spec.height) == (1, 1)


@pytest.mark.parametrize(
    "color",
    ["a&b", 'red" onload="alert(1)', "<x>'y'</x>", "50%"],
    ids=["amp", "quote", "tags", "percent"],
)
def test_layer_colors_are_escaped_as_attributes(color):
    flat = CurveSamples(t=(0.0, 1.0), y=(0.0, 1.0), source="spline")
    spec = PlotSpec(width=100, height=100, layers=(
        curve_layer(flat, color, label="curve"),
        marker_layer([(0.0, 1.0), (1.0, 0.0)], color, label="knots"),
    ))
    document = minidom.parseString(render_svg(spec))
    polyline, = document.getElementsByTagName("polyline")
    circles = document.getElementsByTagName("circle")
    legend = [e for e in document.getElementsByTagName("text") if e.hasAttribute("fill")]
    assert polyline.getAttribute("stroke") == color
    assert [c.getAttribute("fill") for c in circles] == [color, color]
    assert [e.getAttribute("fill") for e in legend] == [color, color]
    for element in [polyline, *circles, *legend]:
        assert not element.hasAttribute("onload")


def test_text_is_escaped():
    from hydrospline.splines import CurveSamples

    flat = CurveSamples(t=(0.0, 1.0), y=(0.0, 1.0), source="spline")
    spec = PlotSpec(
        width=100,
        height=100,
        layers=(curve_layer(flat, "red"),),
        title="a < b & c",
    )
    svg = render_svg(spec)
    assert "a &lt; b &amp; c" in svg


def test_markup_characters_are_escaped_in_text():
    # & < > become entities in title, axis labels and legend; quotes stay as they are
    spec = PlotSpec(
        width=100,
        height=50,
        layers=(marker_layer([(0.0, 1.0), (2.0, 3.0)], "red", label="x & \"y\" <'z'>"),),
        title="A & B < C > \"D\" 'E'",
        x_label="t > 0 & t < 1",
        y_label="\"q\" 'r'",
    )
    assert render_svg(spec) == (
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="100" height="50" '
        'viewBox="0 0 100 50">\n'
        '<rect x="0" y="0" width="100" height="50" fill="white" stroke="black" '
        'stroke-width="1"/>\n'
        '<text x="50.0000" y="16" text-anchor="middle" font-size="14">'
        "A &amp; B &lt; C &gt; \"D\" 'E'</text>\n"
        '<text x="50.0000" y="46.0000" text-anchor="middle" font-size="11">'
        "t &gt; 0 &amp; t &lt; 1</text>\n"
        '<text x="12" y="25.0000" text-anchor="middle" font-size="11" '
        "transform=\"rotate(-90 12 25.0000)\">\"q\" 'r'</text>\n"
        '<circle cx="4.5455" cy="47.7273" r="3.0000" fill="red"/>\n'
        '<circle cx="95.4545" cy="2.2727" r="3.0000" fill="red"/>\n'
        '<text x="8" y="30" font-size="11" fill="red">x &amp; "y" &lt;\'z\'&gt;</text>\n'
        "</svg>\n"
    )


def _marks(svg):
    return [line for line in svg.split("\n") if line.startswith(("<polyline", "<circle"))]


def test_a_one_point_curve_builds_samples_and_draws_one_pair():
    # a one-point grid has no step to check for uniformity
    curve = CurveSamples(t=[3.0], y=[1.5], source="spline")
    twin = CurveSamples(t=(3,), y=(1.5,), source="spline")
    assert curve == curve == twin and hash(curve) == hash(twin) and curve.t == (3.0,)
    spec, index_map = HarmonicSpec(), IndexMap(0.5, 1.0)
    harmonic = sample_harmonic(spec, index_map, [3.0])
    assert harmonic.t == (3.0,) and harmonic.source == "harmonic"
    assert harmonic.y == sample_harmonic(spec, index_map, [3.0, 4.0]).y[:1]
    svg = render_svg(PlotSpec(width=100, height=80, layers=(curve_layer(curve, "red"),)))
    assert _marks(svg) == ['<polyline fill="none" stroke="red" stroke-width="1.5" '
                           'points="50.0000,40.0000"/>']


def _curve_specs(series, resolution, width, height):
    """Spline, smoothing and fitted harmonic curves plus the knots, as dense_curve draws them."""
    curve = dense_grid(fit_natural_spline(series), resolution)
    index_map = IndexMap.spanning(series.t[0], series.t[-1])
    fitted = fit_amplitude_offset(curve, HarmonicSpec(), index_map)
    layers = (
        curve_layer(curve, "blue", "spline"),
        curve_layer(dense_grid(fit_smoothing_spline(series, 50.0), resolution), "green"),
        curve_layer(sample_harmonic(fitted, index_map, curve.t), "red", "harmonic"),
        marker_layer(series.knots, "black", "samples"),
    )
    return [PlotSpec(width=width, height=height, layers=layers)]


def _constant_and_extreme_specs():
    flat = CurveSamples(t=(0.0, 1.0, 2.0, 3.0), y=(5.0, 5.0, 5.0, 5.0), source="spline")
    zero = CurveSamples(t=(-2.0, -1.0), y=(-0.0, 0.0), source="spline")
    tiny = ((0.0, 1.0), (-0.0, 2.0), (5e-324, 3.0))
    huge = ((-1e306, 0.0), (0.0, 1e306), (1e306, -1e306))
    return [
        PlotSpec(width=100, height=80, layers=(curve_layer(flat, "red"),)),
        PlotSpec(width=100, height=80, layers=(curve_layer(zero, "red"),)),
        PlotSpec(width=7, height=3, layers=(marker_layer([(-0.0, -0.0)], "red"),)),
        # a 5e-324 span pads by 0.0, so x = -0.0 maps to pixel -0.0, written as 0.0000
        PlotSpec(
            width=10,
            height=10,
            layers=tuple(
                PlotLayer(kind=kind, points=tiny, color="red") for kind in ("curve", "markers")
            ),
        ),
        PlotSpec(
            width=640,
            height=480,
            layers=(
                curve_layer(flat, "red"),
                marker_layer([(1.5, 5.0), (1.5, 5.0)], "black"),
                marker_layer((), "grey"),
            ),
        ),
        # points whose pixel lies within an ulp of a %.4f rounding edge: another order of the
        # operations, such as (x - x_lo) * (w / x_span), writes a different last digit
        PlotSpec(
            width=800,
            height=500,
            layers=(
                marker_layer(
                    [(0.0, 0.0), (11.0, 7.0)]
                    + [(x, 3.5) for x in (0.05651325625000003, 0.08222575625000006,
                                          0.14272575625000006, 0.17600075625)]
                    + [(5.5, y) for y in (6.887999229999999, 6.88645923,
                                          6.8849192299999995, 6.883379229999999)],
                    "black",
                ),
            ),
        ),
        # spans near 1e306: (x - x_lo) * w would overflow where (x - x_lo) / x_span * w does not
        PlotSpec(
            width=800,
            height=500,
            layers=tuple(
                PlotLayer(kind=kind, points=huge, color="red") for kind in ("curve", "markers")
            ),
        ),
    ]


def _chunk_boundary_specs(rng):
    """Layers around the writer's block of rows, -0.0 pixels on its edges, and a
    column with one to three integer digit groups."""
    specs = []
    for n in (1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1):
        points = tuple(zip(np.sort(rng.uniform(-50.0, 50.0, n)).tolist(),
                           rng.uniform(-3.0, 9.0, n).tolist()))
        specs.append(PlotSpec(width=640, height=480, layers=(
            PlotLayer(kind="curve", points=points, color="#1f%77b4"),
            PlotLayer(kind="markers", points=points[::-1], color="%s%%d", label="50%"),
        )))
    # x = -0.0 against a lower bound of 0.0 maps to pixel -0.0, written as 0.0000;
    # it falls on the last point of a block, the first of the next and the last of the layer
    xs = [0.0, 5e-324] * _BLOCK + [0.0]
    for i in (_BLOCK - 1, _BLOCK, 2 * _BLOCK):
        xs[i] = -0.0
    points = tuple(zip(xs, rng.uniform(0.0, 1.0, len(xs)).tolist()))
    specs.append(PlotSpec(width=10, height=10, layers=tuple(
        PlotLayer(kind=kind, points=points, color="red") for kind in ("curve", "markers")
    )))
    # on a 1e9-wide canvas the sorted x pixels have eight integer digits in the first block,
    # whose leading digit group is all zeros, and nine in the last, shorter one
    xs = np.concatenate([rng.uniform(0.0, 1e-6, _BLOCK), rng.uniform(1e-5, 1e-2, _BLOCK),
                         rng.uniform(0.5, 1.0, 7)])
    points = tuple(zip(np.sort(xs).tolist(), rng.uniform(-1.0, 1.0, xs.size).tolist()))
    specs.append(PlotSpec(width=MAX_DIMENSION, height=9_999, layers=tuple(
        PlotLayer(kind=kind, points=points, color="red") for kind in ("curve", "markers")
    )))
    return specs


@pytest.mark.parametrize(
    "case", ["fixture", "knots-1000", "constant-and-extreme", "grid-10000", "chunk-boundaries"]
)
def test_marks_match_scalar_reference(od_series, case):
    rng = np.random.default_rng(97)
    if case == "fixture":
        specs = _curve_specs(od_series, 1000, 800, 500)
    elif case == "knots-1000":
        t, y = random_knots(rng, 1000, t_span=2000.0, y_span=(-40.0, 12.0))
        specs = _curve_specs(make_series(t - 500.0, y), 3001, 1031, 397)
    elif case == "constant-and-extreme":
        specs = _constant_and_extreme_specs()
    elif case == "chunk-boundaries":
        specs = _chunk_boundary_specs(rng)
    else:
        specs = _curve_specs(od_series, 10_000, 800, 500)
    for spec in specs:
        marks = _marks(render_svg(spec))
        assert marks == scalar_svg_marks(spec)
        assert len(marks) == sum(
            1 if layer.kind == "curve" else len(layer.points)
            for layer in spec.layers
            if len(layer.points)
        )


@pytest.mark.parametrize(
    "points",
    [[(0.0, 0.0), (1.0, 1.7e308)], [(0.0, 0.0), (1.7e308, 1.0)]],
    ids=["y", "x"],
)
def test_overflowing_plot_range_is_typed(points):
    # each span is finite, but padding it by 5% per side leaves the float range
    spec = PlotSpec(width=100, height=100, layers=(marker_layer(points, "red"),))
    with pytest.raises(NumericOverflow):
        render_svg(spec)


@pytest.mark.parametrize("position", [0, 2, 4], ids=["first", "middle", "last"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("kind", ["curve", "markers"])
@pytest.mark.parametrize("axis", [0, 1], ids=["x", "y"])
def test_non_finite_points_are_typed(kind, axis, value, position):
    points = [[float(i), 2.0 * i] for i in range(5)]
    points[position][axis] = value
    layers = (
        PlotLayer(kind="markers", points=((0.5, 1.0),), color="k"),
        PlotLayer(kind=kind, points=tuple(map(tuple, points)), color="k"),
    )
    with pytest.raises(NumericOverflow, match="plot points are not finite"):
        render_svg(PlotSpec(width=100, height=100, layers=layers))


@pytest.mark.parametrize("value", [1e16, -3e17, 1e300, 5e307])
def test_constant_of_large_magnitude_widens_its_span(value):
    # the 0.5 pad is lost to rounding, so the range is widened by one float each side
    flat = CurveSamples(t=(0.0, 1.0, 2.0), y=(value, value, value), source="spline")
    svg = render_svg(PlotSpec(width=100, height=80, layers=(curve_layer(flat, "red"),)))
    points = re.search(r'points="([^"]+)"', svg).group(1)
    assert points == "4.5455,40.0000 50.0000,40.0000 95.4545,40.0000"


@pytest.mark.parametrize(
    "columns",
    [[[0.0, -0.0]], [[-0.0, 0.0]], [[0.0] * 9 + [-0.0]], [[1.0], [-0.0, 0.0]], [[0.0], [-0.0]]],
)
def test_bounds_resolve_signed_zero_ties_as_min_and_max(columns):
    flat = [v for column in columns for v in column]
    lo, hi = _bounds([np.array(column) for column in columns])
    assert (lo.hex(), hi.hex()) == (min(flat).hex(), max(flat).hex())


def _exact_ties(rng, size):
    """Values m / 2**k, whose product with 1e4 is an exact half-integer for odd m and
    k = 5, and the floats one ulp either side of them."""
    k = rng.integers(1, 40, size)
    ties = rng.integers(-2**45, 2**45, size) / 2.0**k
    ties = ties[np.abs(ties) < 1e10]
    return np.concatenate([ties, np.nextafter(ties, np.inf), np.nextafter(ties, -np.inf)])


def test_writer_matches_percent_format():
    rng = np.random.default_rng(12)
    magnitudes = 10.0 ** rng.uniform(-8.0, 11.0, 300_000) * rng.choice([-1.0, 1.0], 300_000)
    bound = np.array([MAX_DIMENSION, MAX_DIMENSION * (1 + 1e-9), 1.1e11, -1.1e11])
    values = np.concatenate([
        rng.uniform(-5.0, 805.0, 300_000),  # pixels of an 800-wide canvas
        magnitudes,
        _exact_ties(rng, 150_000),
        rng.integers(-2**20, 2**20, 100_000) / 32.0,  # ties at k = 5, all of them
        [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310, 0.00005, -0.00005],
        np.concatenate([np.nextafter(bound, np.inf), bound, np.nextafter(bound, -np.inf)]),
    ])
    assert values.size >= 1_000_000
    text = "".join(_write([values], [" "]))
    assert text.split(" ") == [scalar_fmt(v) for v in values.tolist()]


@given(
    st.lists(
        st.tuples(
            st.floats(min_value=-MAX_DIMENSION, max_value=MAX_DIMENSION * (1 + 1e-9)),
            st.floats(min_value=-MAX_DIMENSION, max_value=MAX_DIMENSION * (1 + 1e-9)),
        ),
        min_size=1,
        max_size=50,
    )
)
def test_writer_matches_percent_format_on_coordinates(pairs):
    x, y = (np.array(column, float) for column in zip(*pairs))
    text = "".join(_write((x, y), ('" cy="', '"/><circle cx="')))
    assert text == '"/><circle cx="'.join(
        f'{scalar_fmt(a)}" cy="{scalar_fmt(b)}' for a, b in pairs
    )


#: glues the writer's dropped pad byte must not touch: NUL, U+00FF (0xC3 0xBF in
#: UTF-8), a non-BMP character, and a digit beside both
_AWKWARD_GLUE = pytest.mark.parametrize(
    "glue", ["\0", "\xff", "\U0001f30a", "1\xff\0"], ids=["nul", "u+00ff", "non-bmp", "mixed"]
)


@_AWKWARD_GLUE
def test_writer_keeps_every_glue_byte(glue):
    values = np.array([0.0, -0.0, -1.5, 12.25, 99_999.99996, -1e-5, 3e8])
    text = "".join(_write((values, values[::-1]), (glue, glue + "|")))
    rows = [f"{scalar_fmt(a)}{glue}{scalar_fmt(b)}" for a, b in zip(values, values[::-1])]
    assert text == (glue + "|").join(rows)


@_AWKWARD_GLUE
def test_marker_colors_keep_every_byte(glue):
    points = [(0.0, 1.0), (2.5, -3.0), (-0.0, 0.0)]
    spec = PlotSpec(width=100, height=50, layers=(
        marker_layer(points, f"a{glue}b", label="knots"),
        curve_layer(CurveSamples(t=(0.0, 1.0), y=(0.0, 1.0), source="spline"), glue),
    ))
    assert _marks(render_svg(spec)) == scalar_svg_marks(spec)


def test_render_memory_is_bounded_by_its_text():
    # one curve of a million points: the writer's blocks, not the whole layer, are
    # held as temporaries, so the peak stays within four times the text it returns
    t = np.linspace(0.0, 3650.0, 1_000_000)
    y = np.sin(t / 58.0)
    samples = CurveSamples(t=tuple(t.tolist()), y=tuple(y.tolist()), source="spline")
    spec = PlotSpec(width=800, height=500, layers=(curve_layer(samples, "blue"),))
    tracemalloc.start()
    try:
        svg = render_svg(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert svg.count(",") == 1_000_000
    assert peak <= 4 * len(svg)


@given(st.text(alphabet=st.sampled_from("&<>\"'a;#x\u00e9\x00") | st.characters()))
def test_escape_tables_match_html_escape(text):
    assert text.translate(_TEXT) == html.escape(text, quote=False)
    assert text.translate(_ATTRIBUTE) == html.escape(text)
