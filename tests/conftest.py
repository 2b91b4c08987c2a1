"""Shared fixtures and hypothesis settings."""

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from cpelab import (
    COS,
    Grid,
    PhysParams,
    ScalarField2D,
    ScalarField3D,
    State,
    VectorField3D2C,
    make_initial,
)
from cpelab.parabolic import advance_coupled_linear

settings.register_profile(
    "suite",
    deadline=None,
    max_examples=25,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def grid16():
    return Grid(16, 16, 16)


@pytest.fixture(scope="session")
def grid12():
    return Grid(12, 12, 12)


@pytest.fixture(scope="session")
def params():
    return PhysParams()


@pytest.fixture(scope="session")
def weak_params():
    # weak diffusion keeps stable_dt large, so multi-step tests stay cheap
    return PhysParams(mu=0.02, lam=0.02, kappa=0.02)


@pytest.fixture
def constant_state(grid16, params):
    return make_initial("constant", grid16, params)


@pytest.fixture
def example_a(grid16, params):
    return make_initial("example-A", grid16, params, amplitude=1.0)


@pytest.fixture
def random_state(grid16, params):
    return make_initial("smooth-random", grid16, params, amplitude=0.1, seed=3)


@pytest.fixture(scope="session")
def linear_run():
    """run(grid, params, T, dt, v, sigma, p) advances (v, sigma, p) to T with
    the linear sweep at sigma_k = 1 and no sources; each field is a constant
    or a nodal array of its shape. Returns the final State."""

    def run(grid, params, T, dt, v=0.0, sigma=0.0, p=0.0):
        zero = State(
            VectorField3D2C(grid, np.zeros((2, *grid.shape3d)), COS),
            ScalarField3D(grid, np.zeros(grid.shape3d), COS),
            ScalarField2D(grid, np.zeros(grid.shape2d)),
        )
        initial = State(
            VectorField3D2C(grid, zero.v.data + v, COS),
            ScalarField3D(grid, zero.sigma.data + sigma, COS),
            ScalarField2D(grid, zero.p.data + p),
        )
        ones = ScalarField3D(grid, np.ones(grid.shape3d), COS)

        def sampler(step, stage, t):
            return ones, zero.v, zero.sigma, zero.p

        n_steps = round(T / dt)
        dt = T / n_steps
        _, states = advance_coupled_linear(initial, params, dt, n_steps, sampler)
        return states[-1]

    return run
