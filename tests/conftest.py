import importlib.resources

import pytest

from hydrospline.dataio import dataset_series, gropeni_dataset


@pytest.fixture(scope="session")
def gropeni_text():
    """Text of the bundled data/gropeni.csv, the fixture's only source."""
    return importlib.resources.files("hydrospline").joinpath("data/gropeni.csv").read_text("utf-8")


@pytest.fixture(scope="session")
def gropeni():
    return gropeni_dataset()


@pytest.fixture(scope="session")
def od_series(gropeni):
    return dataset_series(gropeni, "OD")


@pytest.fixture(scope="session")
def temp_series(gropeni):
    return dataset_series(gropeni, "temp")
