"""Shared fixtures. Thread caps are set before numpy loads anywhere."""

import os

# single BLAS strand: keeps runs bit-reproducible and the acceptance timing
# honest about "one CPU core"
os.environ.setdefault("OMP_NUM_THREADS", "1")
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("MKL_NUM_THREADS", "1")

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
