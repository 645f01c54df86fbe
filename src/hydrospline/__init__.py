"""Spline, trend, and correlation analysis for irregular water-quality series."""

from types import ModuleType as _ModuleType

from .dataio import (
    Dataset,
    DatasetRow,
    dataset_series,
    gropeni_dataset,
    load_csv,
    parse_csv,
    serialize_csv,
)
from .errors import HydrosplineError
from .harmonic import (
    HarmonicResiduals,
    HarmonicSpec,
    IndexMap,
    compare_to_harmonic,
    fit_amplitude_offset,
    sample_harmonic,
)
from .linalg import (
    LeastSquaresProblem,
    TridiagonalSystem,
    solve_least_squares,
    solve_tridiagonal,
)
from .regression import (
    PolyModel,
    TrendReport,
    eval_poly,
    fit_polynomial,
    matched_pairs,
    pearson,
    poly_curve,
    trend_report,
)
from .series import (
    PARAMETER_UNITS,
    CurveSamples,
    TimeSeries,
    format_date,
    parameter_unit,
    parse_date,
)
from .splines import (
    Extremum,
    LagrangeModel,
    SplineModel,
    dense_grid,
    eval_lagrange,
    eval_spline,
    eval_spline_derivative,
    fit_lagrange,
    fit_natural_spline,
    fit_smoothing_spline,
    spline_extrema,
)
from .svgplot import PlotLayer, PlotSpec, curve_layer, marker_layer, render_svg

__version__ = "0.1.0"

# the public names are exactly the ones imported above, and __version__
__all__ = [name for name, value in globals().items()
           if not name.startswith("_") and not isinstance(value, _ModuleType)] + ["__version__"]
del _ModuleType
