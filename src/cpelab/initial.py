"""Named initial-condition families.

All families are Neumann-compatible by construction (cosine vertical basis),
and the random family is floor-shifted so the configured lower bounds on
sigma and p are attained exactly at t = 0.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import UsageFault
from .fields import (
    COS,
    ScalarField2D,
    ScalarField3D,
    State,
    VectorField3D2C,
    constant_state,
)
from .grid import Grid
from .norms import _state_sq_norm
from .params import PhysParams
from .spectral import random_band_limited_2d, random_band_limited_3d

FAMILIES = ("constant", "example-A", "smooth-random")


def make_initial(
    family: str,
    grid: Grid,
    params: PhysParams,
    *,
    amplitude: float = 0.1,
    band: tuple[int, int, int] = (3, 3, 3),
    seed: int = 0,
) -> State:
    if family == "constant":
        return constant_state(grid)

    if family == "example-A":
        _, _, Z = grid.mesh3d()
        v = np.zeros((2,) + grid.shape3d)
        v[0] = amplitude * np.cos(np.pi * Z)
        return State(
            VectorField3D2C(grid, v, COS),
            ScalarField3D(grid, np.ones(grid.shape3d), COS),
            ScalarField2D(grid, np.ones(grid.shape2d)),
        )

    if family == "smooth-random":
        rng = np.random.default_rng(seed)
        v1 = random_band_limited_3d(grid, rng, band)
        v2 = random_band_limited_3d(grid, rng, band)
        r3 = random_band_limited_3d(grid, rng, band)
        r2 = random_band_limited_2d(grid, rng, band[:2])
        v = amplitude * np.stack([v1.data, v2.data])
        sig = params.sigma_floor + amplitude * (r3.data - r3.data.min())
        p = params.p_floor + amplitude * (r2.data - r2.data.min())
        return State(
            VectorField3D2C(grid, v, COS),
            ScalarField3D(grid, sig, COS),
            ScalarField2D(grid, p),
        )

    raise UsageFault(
        f"unknown initial family {family!r}; known: {', '.join(FAMILIES)}"
    )


def perturbation_direction(
    grid: Grid, *, band: tuple[int, int, int] = (2, 2, 2), seed: int = 1
) -> State:
    """Random smooth direction with unit H1 x L2 x H1 size (the norm the
    difference estimates are phrased in), for continuous-dependence runs."""
    rng = np.random.default_rng(seed)
    dv = np.stack(
        [
            random_band_limited_3d(grid, rng, band).data,
            random_band_limited_3d(grid, rng, band).data,
        ]
    )
    ds = random_band_limited_3d(grid, rng, band)
    dp = random_band_limited_2d(grid, rng, band[:2])
    raw = State(VectorField3D2C(grid, dv, COS), ds, dp)
    size = math.sqrt(_state_sq_norm(raw, (1, 0, 1)))
    return State(
        VectorField3D2C(grid, dv / size, COS),
        ScalarField3D(grid, ds.data / size, COS),
        ScalarField2D(grid, dp.data / size),
    )


def perturbed(state: State, direction: State, delta: float) -> State:
    g = state.grid
    return State(
        VectorField3D2C(g, state.v.data + delta * direction.v.data, COS),
        ScalarField3D(g, state.sigma.data + delta * direction.sigma.data, COS),
        ScalarField2D(g, state.p.data + delta * direction.p.data),
        t=state.t,
    )
