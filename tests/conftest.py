"""Shared fixtures: benchmark problems and cached stationary ensembles."""
from __future__ import annotations

import numpy as np
import pytest

import divflow as dv

ENSEMBLE_SEED = 101


@pytest.fixture(scope="session")
def ou1d():
    return dv.make_ou1d()


@pytest.fixture(scope="session")
def rot2d():
    return dv.make_rot2d(1.0)


@pytest.fixture(scope="session")
def varh2d():
    return dv.make_varh2d()


@pytest.fixture(scope="session")
def dw1d():
    return dv.make_dw1d()


@pytest.fixture(scope="session")
def all_problems(ou1d, rot2d, varh2d, dw1d):
    return [ou1d, rot2d, varh2d, dw1d]


def _ensemble(problem, count=100_000):
    return dv.sample_stationary(problem, count, seed=ENSEMBLE_SEED)


@pytest.fixture(scope="session")
def ou_ensemble(ou1d):
    return _ensemble(ou1d)


@pytest.fixture(scope="session")
def rot_ensemble(rot2d):
    return _ensemble(rot2d)


@pytest.fixture(scope="session")
def varh_ensemble(varh2d):
    return _ensemble(varh2d)


@pytest.fixture(scope="session")
def dw_ensemble(dw1d):
    return _ensemble(dw1d)


@pytest.fixture(scope="session")
def ensembles(ou_ensemble, rot_ensemble, varh_ensemble, dw_ensemble):
    return {
        "OU1D": ou_ensemble,
        "ROT2D": rot_ensemble,
        "VARH2D": varh_ensemble,
        "DW1D": dw_ensemble,
    }


def random_points(dim: int, count: int, seed: int, scale: float = 1.5) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return scale * rng.standard_normal((count, dim))
