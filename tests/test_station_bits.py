"""Bit identity of the whole six-parameter station analysis.

The output bits of each stage are hashed and compared with pinned
digests, so a change that claims "the same bits" is checked by the suite
rather than by a hand run.  The digests were taken on x86-64 with numpy
2.4.6; the trend fit's dot products go through the BLAS kernel that
numpy's OpenBLAS picks for the CPU.
"""

import hashlib
import itertools

import pytest

from helpers import STATION_PARAMETERS, station_csv
from hydrospline import (
    dataset_series,
    fit_natural_spline,
    fit_smoothing_spline,
    parse_csv,
    pearson,
    serialize_csv,
    spline_extrema,
    trend_report,
)

DIGESTS = {
    1: {
        "series": "88e5068c80db3858919995900537969f93dc6ab9493298dc154f6f56fe7d99b6",
        "trends": "875600827e869a88b1c882b385eaeb09df2402804c4f1ef2b69cbf3479ffdd11",
        "pearson": "2883b0c08173db66b3e367ad074f3751d17fd450a08b99cf1b21760a9dd2ef59",
        "natural": "099b9d034a1e82c4f83f426f6fe2622263b30c25b39f2e3b25ea9bbd9a1bb442",
        "extrema": "5ed27dfbd1fa18a86b14bdadb88b4172a35342c047ec3656becfdc76bc16f3df",
        "smoothing": "fbbd7804bf2b6c7e3b316ce8be65f66d7ef491d5bd5767483ea67689c307839b",
        "csv": "a903b79bcf9e753325e7bea199a0339d5f9f9defd4a632e9b96e87eaf22c39ff",
    },
    2: {
        "series": "bcfde3b80f1117638c82ac90a8513bfd0fe7218952526397fc254b2615286dd3",
        "trends": "6dd3deca16264c3b084d953a389847a64ae3f97b647fb34589019a5af389f9d2",
        "pearson": "08b20499030ab1795ec3c9c06ce156fb2708342dd23e9ab77587e0f16502abae",
        "natural": "4ea6527a2def018491729f5c5e689f57f39df33413efdea9585f0fce81d626e6",
        "extrema": "0fa18d36a2014a02706554551119d334168c9759a3128e40e7f2a78fa704f7c7",
        "smoothing": "ee3569df6e2e14781363a8a4157569d9b5377df396801497e0e94118394a30d2",
        "csv": "a0a34768a9bca2f63370a19200062cd1e0ce6c87bb7ced05072a86ea082397c1",
    },
}


def _stage_bits(text):
    """The bits of each stage of the station analysis, as bytes per stage."""
    dataset = parse_csv(text, station="station")
    series = {p: dataset_series(dataset, p) for p in STATION_PARAMETERS}
    trends = [trend_report(s) for s in series.values()]
    correlations = [pearson(series[a], series[b])
                    for a, b in itertools.combinations(STATION_PARAMETERS, 2)]
    models = [fit_natural_spline(s) for s in series.values()]
    extrema = [e for m in models for e in spline_extrema(m)]
    smooth = fit_smoothing_spline(series["OD"], 50.0)
    return {
        "series": b"".join(s.times.tobytes() + s.values.tobytes() for s in series.values()),
        "trends": " ".join(f"{r.slope.hex()} {r.total_change.hex()} {float(r.span_days).hex()} "
                           f"{r.direction}" for r in trends).encode(),
        "pearson": " ".join(r.hex() for r in correlations).encode(),
        "natural": b"".join(m._table.tobytes() for m in models),
        "extrema": " ".join(f"{e.t.hex()} {e.y.hex()} {e.kind}" for e in extrema).encode(),
        "smoothing": smooth._table.tobytes(),
        "csv": serialize_csv(dataset).encode(),
    }


@pytest.mark.parametrize("seed", [1, 2])
def test_station_analysis_keeps_its_bits(seed):
    digests = {k: hashlib.sha256(v).hexdigest() for k, v in _stage_bits(station_csv(seed)).items()}
    assert digests == DIGESTS[seed]
