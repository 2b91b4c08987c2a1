"""Viscous heating, phi, diagnostic vertical velocity, thermodynamics."""

import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cpelab import (
    COS,
    Grid,
    PhysParams,
    QNegativityWarning,
    ScalarField2D,
    ScalarField3D,
    SigmaPositivityLost,
    VectorField3D2C,
    boundary_defects,
    compute_diagnostics,
    continuity_residual,
    heating,
    make_initial,
    phi_field,
    reconstruct_thermo,
    regularized_tendency,
    total_mass,
    vertical_velocity,
)
from cpelab.fields import constant_state
from cpelab.spectral import vertical_average

# independently derived reference values (tools/oracles.py)
PHI_AMP = 1.4099434858699084  # pi^2/7
W_AMP = -0.2243994752564138  # -pi/14
MASS_BUMP = 45.585750062112451  # (2 pi)^2 / sqrt(0.75)
W_COS_AMP = -0.089759790102565507  # -0.1 * nu * pi at default params


def example_a_state(grid, a=1.0):
    par = PhysParams()
    return make_initial("example-A", grid, par, amplitude=a), par


def test_heating_vertical_shear(grid16, params):
    """v = (cos pi z, 0) has only the mu |dz v|^2 contribution."""
    st, _ = example_a_state(grid16)
    Q, Sh = heating(st.v, params)
    _, _, Z = grid16.mesh3d()
    np.testing.assert_allclose(
        Q.data, np.pi**2 * np.sin(np.pi * Z) ** 2, atol=1e-11
    )
    # no horizontal gradients, so every stress component vanishes
    assert max(np.abs(s.data).max() for s in Sh) <= 1e-12


def test_heating_horizontal_shear(grid16, params):
    """v = (sin y, 0): Q = cos^2 y (pure b-term, mu (b+c)^2 with c=0)."""
    _, Y, _ = grid16.mesh3d()
    v = VectorField3D2C(grid16, np.stack([np.sin(Y), np.zeros_like(Y)]), COS)
    Q, _ = heating(v, params)
    np.testing.assert_allclose(Q.data, np.cos(Y) ** 2, atol=1e-12)


def test_heating_nonnegative_on_random_states(grid16, params):
    for seed in range(5):
        st = make_initial("smooth-random", grid16, params, amplitude=0.3, seed=seed)
        Q, _ = heating(st.v, params)
        assert Q.data.min() >= -1e-11


def test_heating_warns_on_dealiasing_dip(grid16, params):
    # band 5 squares to band 10 > the retained 7 modes, so the truncated
    # nodal Q dips slightly negative
    st = make_initial(
        "smooth-random", grid16, params, amplitude=0.5, band=(5, 5, 5), seed=2
    )
    with warnings.catch_warnings(record=True) as log:
        warnings.simplefilter("always")
        heating(st.v, params, tol_bc=1e-30)
    dips = [w for w in log if issubclass(w.category, QNegativityWarning)]
    assert dips, "truncation dip below -tol_bc should warn"
    assert hasattr(dips[0].message, "qmin")
    assert dips[0].message.qmin < 0.0


def test_phi_example_a(params):
    grid = Grid(24, 24, 24)
    st, par = example_a_state(grid)
    phi = phi_field(st.v, st.p, par)
    _, _, Z = grid.mesh3d()
    np.testing.assert_allclose(
        phi.data, PHI_AMP * np.cos(2 * np.pi * Z), rtol=0, atol=1e-10
    )
    # phi has no vertical mean, pointwise in (x, y)
    assert np.abs(vertical_average(phi).data).max() <= 1e-12


def test_w_example_a(params):
    grid = Grid(24, 24, 24)
    st, par = example_a_state(grid)
    w = vertical_velocity(st.sigma, st.v, st.p, par)
    _, _, Z = grid.mesh3d()
    np.testing.assert_allclose(
        w.data, W_AMP * np.sin(2 * np.pi * Z), rtol=0, atol=1e-11
    )
    assert np.abs(w.data[..., 0]).max() == 0.0


def test_w_from_sigma_gradient(grid16, params):
    """v = 0, sigma = 1 + 0.1 cos(pi z): w = nu dz sigma exactly."""
    _, _, Z = grid16.mesh3d()
    st = constant_state(grid16)
    sigma = ScalarField3D(grid16, 1.0 + 0.1 * np.cos(np.pi * Z), COS)
    w = vertical_velocity(sigma, st.v, st.p, params)
    np.testing.assert_allclose(
        w.data, W_COS_AMP * np.sin(np.pi * Z), atol=1e-13
    )


def test_boundary_defects_random(params):
    grid = Grid(24, 24, 24)
    for seed in range(5):
        st = make_initial("smooth-random", grid, params, amplitude=0.1, seed=seed)
        diag = compute_diagnostics(st, params)
        w_def, phi_def = boundary_defects(diag)
        assert w_def <= 1e-11
        assert phi_def <= 1e-11
        assert np.abs(diag.w.data[..., 0]).max() == 0.0


WALL_SHAPES = [(12, 12, 12), (12, 16, 9), (8, 12, 11)]


@pytest.mark.parametrize(
    "shape", WALL_SHAPES, ids=["x".join(map(str, s)) for s in WALL_SHAPES]
)
@given(seed=st.integers(0, 2**32 - 1), amplitude=st.floats(0.01, 0.3))
def test_wall_conditions_hold_on_any_grid(params, shape, seed, amplitude):
    """c01's invariants on non-cubic and odd-nz grids: w(0) = 0 exactly,
    w(1) and the vertical mean of phi vanish to rounding."""
    grid = Grid(*shape)
    st_ = make_initial(
        "smooth-random", grid, params, amplitude=amplitude, seed=seed
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", QNegativityWarning)
        diag = compute_diagnostics(st_, params)
    assert np.abs(diag.w.data[..., 0]).max() == 0.0
    assert np.abs(diag.w.data[..., -1]).max() <= 1e-11
    assert np.abs(vertical_average(diag.phi).data).max() <= 1e-11


def test_diagnostics_consistent_with_parts(grid16, params):
    st = make_initial("smooth-random", grid16, params, amplitude=0.2, seed=4)
    diag = compute_diagnostics(st, params)
    phi = phi_field(st.v, st.p, params)
    w = vertical_velocity(st.sigma, st.v, st.p, params)
    np.testing.assert_allclose(diag.phi.data, phi.data, atol=1e-14)
    np.testing.assert_allclose(diag.w.data, w.data, atol=1e-14)


def test_total_mass_bump():
    # 1/(1 + 0.5 cos x) has a geometric Fourier tail (~0.27^k); 32 nodes
    # push the quadrature error below roundoff
    grid = Grid(32, 16, 16)
    X, _, _ = grid.mesh3d()
    sigma = ScalarField3D(grid, 1.0 + 0.5 * np.cos(X), COS)
    np.testing.assert_allclose(total_mass(sigma), MASS_BUMP, rtol=1e-13)


def test_total_mass_constant(grid16):
    sigma = ScalarField3D(grid16, np.full((16, 16, 17), 2.0), COS)
    np.testing.assert_allclose(total_mass(sigma), (2 * np.pi) ** 2 / 2.0, rtol=1e-14)


def test_reconstruct_thermo(grid16, params):
    st = make_initial("smooth-random", grid16, params, amplitude=0.1, seed=6)
    rho, theta = reconstruct_thermo(st.sigma, st.p, params)
    np.testing.assert_allclose(rho.data, 1.0 / st.sigma.data, atol=0)
    lhs = params.R * rho.data * theta.data
    np.testing.assert_allclose(
        lhs, np.broadcast_to(st.p.data[..., None], lhs.shape), rtol=1e-13
    )


def test_reconstruct_thermo_rejects_nonpositive(grid16, params):
    data = np.ones((16, 16, 17))
    data[0, 0, 0] = -0.5
    sigma = ScalarField3D(grid16, data, COS)
    p = ScalarField2D(grid16, np.ones((16, 16)))
    with pytest.raises(SigmaPositivityLost):
        reconstruct_thermo(sigma, p, params)


def test_continuity_residual_scales_cubically(grid16, params):
    """The residual is pure composition aliasing (1/sigma is not band
    limited), so it should fall like amplitude^3 at fixed resolution."""
    res = {}
    for amp in (0.02, 0.01):
        st = make_initial("smooth-random", grid16, params, amplitude=amp, seed=8)
        tend = regularized_tendency(st, params)
        res[amp] = continuity_residual(st, tend.dsigma, params)
    assert res[0.02] <= 1e-3
    assert res[0.02] / res[0.01] >= 4.0
    # constant states satisfy the identity to roundoff
    cs = constant_state(grid16)
    tend0 = regularized_tendency(cs, params)
    assert continuity_residual(cs, tend0.dsigma, params) <= 1e-13
