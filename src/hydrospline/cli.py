"""Command-line interface for curve fitting and analysis of monitoring CSVs.

Exit codes: 0 on success, 1 on usage errors, 2 on data errors (unreadable
files, malformed tables, series too short for the requested analysis).
All output is deterministic: identical inputs and flags give identical
bytes on stdout and in any file written.
"""

import argparse
import gc
import math
import sys
from functools import partial

from .dataio import Dataset, dataset_series, gropeni_dataset, load_csv
from .errors import HydrosplineError
from .harmonic import (
    DEFAULT_ANGULAR_COEFF,
    DEFAULT_EXPONENT,
    HarmonicSpec,
    IndexMap,
    compare_to_harmonic,
    fit_amplitude_offset,
    sample_harmonic,
)
from .regression import matched_pairs, pearson, trend_report
from .series import CurveSamples, TimeSeries, format_date, parameter_unit
from .splines import (
    dense_grid,
    fit_lagrange,
    fit_natural_spline,
    fit_smoothing_spline,
    spline_extrema,
)
from .svgplot import PlotSpec, curve_layer, marker_layer, render_svg

PLOT_WIDTH = 800
PLOT_HEIGHT = 500
DEFAULT_RESOLUTION = 1000
#: the largest --resolution; at this size interp on the fixture peaks near 220 MB of memory
MAX_RESOLUTION = 1_000_000


def _num(value: float) -> str:
    return format(value, ".10g")


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on bad usage; this CLI reserves 2 for
    data errors, so usage failures are remapped to status 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _resolution(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 2:
        raise argparse.ArgumentTypeError("resolution must be at least 2")
    if value > MAX_RESOLUTION:
        raise argparse.ArgumentTypeError(f"resolution must be at most {MAX_RESOLUTION}")
    return value


def _number(text: str, positive: bool = False) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    if value < 0 or (positive and value == 0):
        need = "positive" if positive else "non-negative"
        raise argparse.ArgumentTypeError(f"must be {need}")
    return value


def _add_method_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--method", choices=["spline", "lagrange", "smooth"], default="spline"
    )
    parser.add_argument(
        "--lambda",
        dest="lam",
        type=_number,
        default=0.0,
        help="smoothing weight for --method smooth",
    )
    parser.add_argument(
        "--resolution",
        type=_resolution,
        default=DEFAULT_RESOLUTION,
        help=f"grid points, 2 to {MAX_RESOLUTION} (default {DEFAULT_RESOLUTION})",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="hydrospline", description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)

    def command(name, run, help, *params):
        """A subcommand reading one data source and the required parameter flags."""
        sub = commands.add_parser(name, help=help)
        source = sub.add_mutually_exclusive_group(required=True)
        source.add_argument("--input", metavar="FILE", help="monitoring CSV file")
        source.add_argument("--fixture", choices=["gropeni"], help="bundled dataset")
        for param in params:
            sub.add_argument(param, required=True)
        sub.set_defaults(run=run)
        return sub

    interp = command("interp", _cmd_interp, "export an interpolated curve as CSV", "--param")
    _add_method_args(interp)
    interp.add_argument("--out", required=True, metavar="FILE")
    command("extrema", _cmd_extrema, "interior extrema of the spline", "--param")
    command("trend", _cmd_trend, "linear trend over the series span", "--param")
    command("correlate", _cmd_correlate, "correlation between two parameters",
            "--param-a", "--param-b")
    harmonic = command("harmonic", _cmd_harmonic,
                       "compare the spline against the harmonic reference", "--param")
    positive = partial(_number, positive=True)
    harmonic.add_argument("--angular-coeff", type=positive, default=DEFAULT_ANGULAR_COEFF,
                          help=f"radians per index unit (default {DEFAULT_ANGULAR_COEFF:.10f})")
    harmonic.add_argument("--exponent", type=positive, default=DEFAULT_EXPONENT,
                          help=f"signed-power exponent (default {DEFAULT_EXPONENT:.10f})")
    plot = command("plot", _cmd_plot, "render curve and knots as SVG", "--param")
    _add_method_args(plot)
    plot.add_argument(
        "--harmonic", action="store_true", help="overlay the fitted harmonic reference"
    )
    plot.add_argument("--out", required=True, metavar="FILE")
    return parser


def _load(args) -> Dataset:
    if args.fixture:
        return gropeni_dataset()
    return load_csv(args.input)


def _curve(series: TimeSeries, args) -> CurveSamples:
    """The ``--method`` fit of ``series`` on a grid of ``--resolution`` points."""
    if args.method == "lagrange":
        model = fit_lagrange(series)
    elif args.method == "smooth":
        model = fit_smoothing_spline(series, args.lam)
    else:
        model = fit_natural_spline(series)
    return dense_grid(model, args.resolution)


def _harmonic_fit(series: TimeSeries, curve: CurveSamples, spec: HarmonicSpec):
    """The index map over the series' span, and ``spec`` fitted to ``curve`` on it."""
    index_map = IndexMap.spanning(series.knots[0][0], series.knots[-1][0])
    return index_map, fit_amplitude_offset(curve, spec, index_map)


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(text)


def _cmd_interp(args, dataset: Dataset) -> int:
    series = dataset_series(dataset, args.param)
    curve = _curve(series, args)
    lines = ["t_days,date,value"]
    for t, y in zip(curve.grid.tolist(), curve.values.tolist()):
        lines.append(f"{t:.6f},{format_date(series.calendar_date(t))},{y:.6f}")
    _write(args.out, "\n".join(lines) + "\n")
    return 0


def _cmd_extrema(args, dataset: Dataset) -> int:
    series = dataset_series(dataset, args.param)
    model = fit_natural_spline(series)
    for e in spline_extrema(model):
        when = format_date(series.calendar_date(e.t))
        print(f"{e.kind} {_num(e.t)} {when} {_num(e.y)}")
    return 0


def _cmd_trend(args, dataset: Dataset) -> int:
    series = dataset_series(dataset, args.param)
    report = trend_report(series)
    print(
        f"{_num(report.slope)} {_num(report.total_change)} "
        f"{_num(report.span_days)} {report.direction}"
    )
    return 0


def _cmd_correlate(args, dataset: Dataset) -> int:
    series_a = dataset_series(dataset, args.param_a)
    series_b = dataset_series(dataset, args.param_b)
    print(f"{_num(pearson(series_a, series_b))} {len(matched_pairs(series_a, series_b))}")
    return 0


def _cmd_harmonic(args, dataset: Dataset) -> int:
    series = dataset_series(dataset, args.param)
    curve = dense_grid(fit_natural_spline(series), DEFAULT_RESOLUTION)
    spec = HarmonicSpec(angular_coeff=args.angular_coeff, exponent=args.exponent)
    index_map, fitted = _harmonic_fit(series, curve, spec)
    result = compare_to_harmonic(curve, fitted, index_map)
    print(f"{_num(result.rmse)} {_num(result.max_abs_dev)} {_num(result.argmax_t)}")
    return 0


def _cmd_plot(args, dataset: Dataset) -> int:
    series = dataset_series(dataset, args.param)
    curve = _curve(series, args)
    layers = [curve_layer(curve, "blue", args.method)]
    if args.harmonic:
        index_map, fitted = _harmonic_fit(series, curve, HarmonicSpec())
        reference = sample_harmonic(fitted, index_map, curve.grid)
        layers.append(curve_layer(reference, "red", "harmonic"))
    layers.append(marker_layer(series.knots, "black", "samples"))
    spec = PlotSpec(
        width=PLOT_WIDTH,
        height=PLOT_HEIGHT,
        layers=tuple(layers),
        title=f"{dataset.station} {args.param}",
        x_label=f"days since {format_date(series.epoch)}",
        y_label=f"{args.param} [{parameter_unit(args.param)}]",
    )
    _write(args.out, render_svg(spec))  # rendered first, so a failed render leaves no file
    return 0


def _run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        return args.run(args, _load(args))
    except (HydrosplineError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main(argv=None) -> int:
    """Run one command and return its exit code.  Without ``argv`` it parses
    the process's own command line, and the process is expected to exit next."""
    code = _run(argv)
    if argv is None:
        gc.freeze()  # skips exit's collection, which the OS makes moot: 12.0 -> 2.7 ms in `trend`
    return code


if __name__ == "__main__":
    sys.exit(main())
