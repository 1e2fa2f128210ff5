"""Shared fixtures. `utal` is imported first, so its one-BLAS-thread pin holds."""

import sys

if "numpy" in sys.modules:  # the BLAS thread count is fixed when numpy loads
    raise SystemExit("numpy was loaded before tests/conftest.py imported utal, so utal "
                     "cannot pin one BLAS thread and artifacts may not be reproducible")

import utal  # sets the BLAS thread variables to 1
import pytest

from utal.data import DataConfig, generate_synthetic_dataset


@pytest.fixture(scope="session")
def default_dataset(tmp_path_factory):
    """The default synthetic benchmark at seed 7, generated once per session."""
    out = tmp_path_factory.mktemp("bench7")
    dataset, manifest = generate_synthetic_dataset(DataConfig(), 7, out)
    return dataset, manifest


@pytest.fixture(scope="session")
def small_dataset(tmp_path_factory):
    """A 12-video set for cheap end-to-end tests."""
    out = tmp_path_factory.mktemp("bench-small")
    cfg = DataConfig(num_videos=12, t_range=(64, 96))
    dataset, manifest = generate_synthetic_dataset(cfg, 11, out)
    return dataset, manifest
