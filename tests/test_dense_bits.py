"""Bit identity of the dense-curve analysis: fits, 10,000-point curves and the SVG.

Each stage's output bits are hashed and compared with pinned digests, so
a change that claims "the same bits" (a faster SVG writer, a cheaper
harmonic reference) is checked by the suite rather than by a hand run.
The series are the fixture OD series and two seeded 1,000-knot series.
The digests were taken on x86-64 with numpy 2.4.6; the polynomial and
harmonic least-squares fits go through numpy's LAPACK.
"""

import hashlib
from datetime import date

import numpy as np
import pytest

from helpers import random_knots
from hydrospline import (
    HarmonicSpec,
    IndexMap,
    PlotSpec,
    TimeSeries,
    compare_to_harmonic,
    curve_layer,
    dataset_series,
    dense_grid,
    fit_amplitude_offset,
    fit_natural_spline,
    fit_polynomial,
    fit_smoothing_spline,
    gropeni_dataset,
    marker_layer,
    poly_curve,
    render_svg,
    sample_harmonic,
)

GRID = 10_000

DIGESTS = {
    "fixture": {
        "natural": "d727c2b22a6a7a095ff82d1eea175f18f459e6594af3929804b131013d6bf413",
        "smoothing": "7597e7afc2ca133c06ccf6a8baf44734f21d3bc8545cf0e9e06db81b65119fc2",
        "dense_grid": "790115c29932379c45e332af12554d30cbbf64987da3fc2ebf51a78c6ee73809",
        "poly_curve": "3fba90fa7a06ff6130e30d29dcf54d963ef81080c87db4b77c9479143e3d39ae",
        "fit": "3daa9d74e91a36db5de4d11ff387b3ca0f726abf4a5f27974d4b37e47332746d",
        "residuals": "a2f89309d876b151736d6ef555f1053b08731447dc414c110767f45954590880",
        "harmonic": "b607cd7fa085571314d18a1ca32ce297308306aac0a54875c7d0230cea3858fc",
        "svg": "ecf9fa336a3d5b9dfdc46e7717cdbab453451655e0cf7db94ed03ce31d0f79d3",
    },
    1: {
        "natural": "98073669ec7669a7d2cf4219125baa0f0e70d232a7c709ef3e6c165bb5ba93b0",
        "smoothing": "ee30af3c70ad818ca474bc30e5fe6975df1ebebaed2664333010e550143054b9",
        "dense_grid": "5ac6d3712b676cc3dd4788d73145b35fa0f38da5bfcb8615d507639392733f15",
        "poly_curve": "cdbbf42d950c2cf14143cc80157644c6215d3bac7afe83ea0bf3f5f3a9cfe6c1",
        "fit": "9d52b01acd8dd2c7cb3a01a938a6d8ad3965c2b8b32e60a35114426b00dc3feb",
        "residuals": "6f45d19ed2879dab45b6a276fe6fd05f2207551e60177f673366bcb11ffb9ff6",
        "harmonic": "f893e187a5a100be046b45a07d9940baa5e9c7aa0a826e4073a8eebe20b5ac81",
        "svg": "9cfa6347e42dc5aaeb9c3b2cc1e89201686f98cf69ed02a9440738b2e08282e6",
    },
    2: {
        "natural": "c9471221e22bae09146f5ebbfb6b77940d18373fe374d9f57e5e70ec9f2a42b1",
        "smoothing": "8b4639f61f4e124c33e37e58977da5886db2b30856feceee3c6931e714aeb749",
        "dense_grid": "9fa1228d276fc95d24bb19ef9e731f5db8392ec60c344b182f3509cd2ab78ade",
        "poly_curve": "2653752b38dfcc92564dc3f6689b3dba8e00d429bad14c85c03f94f7daf77bf8",
        "fit": "a923e2387e0c448aa8cf960b8ac910fef0e8b23469608d15db140d83f27d497d",
        "residuals": "f0b1980ed8d76f6ca69e99d9fe685951f655156c4b854fed3898f8b749fe4e47",
        "harmonic": "c2697a970e2ec23c9168d0341b664d0ea1b5e1ce78f19ee3b9301340ebf053c4",
        "svg": "93810285d3490f3197f1eb95197e3674c2035a53d88488b928d02d0ecde35b2b",
    },
}


def _series(case):
    if case == "fixture":
        return dataset_series(gropeni_dataset(), "OD")
    t, y = random_knots(np.random.default_rng(case), 1000, t_span=2000.0)
    return TimeSeries(station="seeded", parameter="y",
                      knots=tuple(zip(t.tolist(), y.tolist())), epoch=date(2000, 1, 1))


def _stage_bits(series):
    """The bits of each stage of the dense analysis, as bytes per stage."""
    model = fit_natural_spline(series)
    smooth = fit_smoothing_spline(series, 50.0)
    curve = dense_grid(model, GRID)
    poly = poly_curve(fit_polynomial(series, 3), curve.t[0], curve.t[-1], GRID)
    index_map = IndexMap.spanning(series.t[0], series.t[-1])
    fitted = fit_amplitude_offset(curve, HarmonicSpec(), index_map)
    residuals = compare_to_harmonic(curve, fitted, index_map)
    reference = sample_harmonic(fitted, index_map, curve.grid)
    svg = render_svg(PlotSpec(
        width=800, height=500,
        layers=(curve_layer(curve, "blue", "spline"),
                curve_layer(reference, "red", "harmonic"),
                marker_layer(series.knots, "black", "samples")),
        title=f"{series.station} {series.parameter}"))
    return {
        "natural": model._table.tobytes(),
        "smoothing": smooth._table.tobytes(),
        "dense_grid": curve.grid.tobytes() + curve.values.tobytes(),
        "poly_curve": poly.grid.tobytes() + poly.values.tobytes(),
        "fit": f"{fitted.amplitude.hex()} {fitted.offset.hex()}".encode(),
        "residuals": " ".join(float(r).hex() for r in residuals).encode(),
        "harmonic": reference.grid.tobytes() + reference.values.tobytes(),
        "svg": svg.encode(),
    }


@pytest.mark.parametrize("case", list(DIGESTS))
def test_dense_analysis_keeps_its_bits(case):
    digests = {k: hashlib.sha256(v).hexdigest() for k, v in _stage_bits(_series(case)).items()}
    assert digests == DIGESTS[case]
