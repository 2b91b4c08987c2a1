"""Parseval Sobolev norms, the energy functional, difference norms."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cpelab import (
    COS,
    SIN,
    Grid,
    ScalarField2D,
    ScalarField3D,
    VectorField3D2C,
    energy_report,
    make_initial,
    perturbation_direction,
    perturbed,
    sobolev_norm,
)
from cpelab.fields import constant_state
from cpelab.integrators import _trajectory_delta
from cpelab.norms import difference_norm, gap_dissipation
from cpelab.spectral import ProductWorkspace, factor, random_band_limited_3d

COSX_H1_SQ = 39.478417604357434  # (2 pi)^2,  tools/oracles.py
E_CONST = 78.956835208714869  # 2 (2 pi)^2


def test_cosx_h1_2d(grid16):
    x, _ = grid16.mesh2d()
    p = ScalarField2D(grid16, np.cos(x))
    np.testing.assert_allclose(sobolev_norm(p, 1) ** 2, COSX_H1_SQ, rtol=1e-13)
    np.testing.assert_allclose(sobolev_norm(p, 0) ** 2, COSX_H1_SQ / 2, rtol=1e-13)


def test_cosx_h1_3d(grid16):
    X, _, _ = grid16.mesh3d()
    f = ScalarField3D(grid16, np.cos(X), COS)
    np.testing.assert_allclose(sobolev_norm(f, 1) ** 2, COSX_H1_SQ, rtol=1e-13)


def test_sin_pi_z_norms(grid16):
    _, _, Z = grid16.mesh3d()
    f = ScalarField3D(grid16, np.sin(np.pi * Z), SIN)
    area = (2 * np.pi) ** 2
    np.testing.assert_allclose(sobolev_norm(f, 0) ** 2, area / 2, rtol=1e-12)
    np.testing.assert_allclose(
        sobolev_norm(f, 1) ** 2, area / 2 * (1 + np.pi**2), rtol=1e-12
    )


def test_constant_norm_is_volume(grid16):
    f = ScalarField3D(grid16, np.ones((16, 16, 17)), COS)
    for k in (0, 1, 2, 3):
        np.testing.assert_allclose(sobolev_norm(f, k) ** 2, (2 * np.pi) ** 2, rtol=1e-13)


def test_constant_state_energy(grid16, params):
    st_ = constant_state(grid16)
    rep = energy_report(st_, mass=0.0, w_defect=0.0, phi_defect=0.0)
    np.testing.assert_allclose(rep.energy, E_CONST, rtol=1e-13)


@given(c=st.floats(-8.0, 8.0), k=st.integers(0, 3), seed=st.integers(0, 50))
def test_sobolev_homogeneity(grid12, c, k, seed):
    rng = np.random.default_rng(seed)
    f = random_band_limited_3d(grid12, rng, (2, 2, 2))
    scaled = ScalarField3D(grid12, c * f.data, COS)
    np.testing.assert_allclose(
        sobolev_norm(scaled, k), abs(c) * sobolev_norm(f, k), rtol=1e-12, atol=1e-12
    )


def test_sobolev_monotone_in_k(grid16, params):
    st_ = make_initial("smooth-random", grid16, params, amplitude=0.5, seed=1)
    norms = [sobolev_norm(st_.sigma, k) for k in range(4)]
    assert norms == sorted(norms)


def test_difference_norm_basics(grid16, params):
    a = make_initial("smooth-random", grid16, params, amplitude=0.1, seed=1)
    assert difference_norm(a, a) == 0.0
    b = make_initial("smooth-random", grid16, params, amplitude=0.1, seed=2)
    assert difference_norm(a, b) == difference_norm(b, a) > 0.0


def test_difference_norm_linear_in_delta(grid16, params):
    base = make_initial("smooth-random", grid16, params, amplitude=0.1, seed=3)
    direction = perturbation_direction(grid16, seed=4)
    d1 = difference_norm(base, perturbed(base, direction, 1e-3))
    d2 = difference_norm(base, perturbed(base, direction, 2e-3))
    np.testing.assert_allclose(d2 / d1, 2.0, rtol=1e-10)
    # the direction is normalized, so the response equals delta
    np.testing.assert_allclose(d1, 1e-3, rtol=1e-10)


def _derivative_sum_sq(field, k):
    """||f||_{H^k}^2 as the sum over |alpha| <= k of ||D^alpha f||_2^2, one
    Parseval sum per multi-index."""
    from itertools import product

    from cpelab.spectral import spectrum

    g = field.grid
    power = np.abs(spectrum(field)) ** 2
    wy = np.full(g.ny // 2 + 1, 2.0)
    wy[0] = 1.0
    kx2 = (g.kx**2)[:, None]
    ky2 = (g.ky_half**2)[None, :]
    wh = (2.0 * np.pi) ** 2 * wy[None, :]
    if power.ndim == 2:
        power = power * wh
        return sum(
            float(np.sum(power * kx2**a * ky2**b))
            for a, b in product(range(k + 1), repeat=2)
            if a + b <= k
        )
    n = power.shape[-1]
    m = np.arange(n) if field.parity == COS else np.arange(1, n + 1)
    wz = np.full(n, 2.0)
    if field.parity == COS:
        wz[0] = 1.0
    power = power * wh[..., None] * wz
    mz2 = (np.pi * m) ** 2
    return sum(
        float(np.sum(power * kx2[..., None] ** a * ky2[..., None] ** b * mz2**c))
        for a, b, c in product(range(k + 1), repeat=3)
        if a + b + c <= k
    )


@pytest.mark.parametrize(
    "shape", [(12, 16, 9), (8, 12, 11)], ids=lambda s: "x".join(map(str, s))
)
def test_sobolev_weight_matches_derivative_sum(shape):
    """The one-weight H^k sum equals the per-multi-index sum for cosine, sine
    and 2D fields, k = 0..4."""
    from cpelab.spectral import random_band_limited_2d

    g = Grid(*shape)
    rng = np.random.default_rng(11)
    f = random_band_limited_3d(g, rng, (3, 3, 3))
    dz = ProductWorkspace(g).field(factor(f).dz())
    fields = (f, dz, random_band_limited_2d(g, rng, (3, 3)))
    assert fields[1].parity == SIN
    for field in fields:
        for k in range(5):
            want = _derivative_sum_sq(field, k)
            np.testing.assert_allclose(sobolev_norm(field, k) ** 2, want, rtol=1e-13)


STATE_SHAPES = [(12, 12, 12), (12, 16, 9), (8, 12, 11)]


def _two_states(shape, params):
    g = Grid(*shape)
    a = make_initial("smooth-random", g, params, amplitude=0.1, seed=1)
    b = make_initial("smooth-random", g, params, amplitude=0.1, seed=2)
    gap = (
        VectorField3D2C(g, a.v.data - b.v.data, COS),
        ScalarField3D(g, a.sigma.data - b.sigma.data, COS),
        ScalarField2D(g, a.p.data - b.p.data),
    )
    return a, b, gap


@pytest.mark.parametrize("shape", STATE_SHAPES, ids=lambda s: "x".join(map(str, s)))
def test_state_norms_equal_per_field_sums(shape, params):
    """The energy, the difference norm and the Picard delta equal the
    per-field sums of squared Sobolev norms, bit for bit."""
    a, b, (dv, ds, dp) = _two_states(shape, params)
    energy = (
        sobolev_norm(a.v, 3) ** 2
        + sobolev_norm(a.sigma, 2) ** 2
        + sobolev_norm(a.p, 3) ** 2
    )
    rep = energy_report(a, mass=0.0, w_defect=0.0, phi_defect=0.0)
    assert rep.energy == energy
    h1l2h1 = math.sqrt(
        sobolev_norm(dv, 1) ** 2 + sobolev_norm(ds, 0) ** 2 + sobolev_norm(dp, 1) ** 2
    )
    assert difference_norm(a, b) == h1l2h1
    h3 = math.sqrt(
        sobolev_norm(dv, 3) ** 2 + sobolev_norm(ds, 3) ** 2 + sobolev_norm(dp, 3) ** 2
    )
    assert _trajectory_delta([a, a], [a, b]) == h3


@pytest.mark.parametrize("shape", STATE_SHAPES, ids=lambda s: "x".join(map(str, s)))
def test_gap_dissipation_matches_nodal_route(shape, params):
    """||lap v_d||^2 + ||dz sigma_d||^2 by one spectral sum equals the L2
    norms of the nodal Laplacians and z-derivative of the gap."""
    a, b, (dv, ds, _) = _two_states(shape, params)
    g = a.grid
    lap = [ProductWorkspace(g).field(factor(dv.component(i)).lap3()) for i in range(2)]
    dz = ProductWorkspace(g).field(factor(ds).dz())
    nodal = sum(sobolev_norm(f, 0) ** 2 for f in (*lap, dz))
    np.testing.assert_allclose(gap_dissipation(a, b), nodal, rtol=1e-13, atol=0)
