"""Nonlinear sources and the assembled tendency."""

import numpy as np
import pytest

from cpelab import (
    COS,
    PhysParams,
    PressurePositivityLost,
    ScalarField2D,
    SigmaPositivityLost,
    frozen_sources,
    make_initial,
    regularized_tendency,
)
from cpelab.fields import constant_state

PHI3_CONST = 1.9739208802178717  # 0.2 * pi^2


@pytest.fixture
def a_state(grid16, params):
    return make_initial("example-A", grid16, params, amplitude=1.0)


def test_phi1_closed_form(grid16, params, a_state):
    """N_1 is Phi_1, where only -w dz(v) survives:
    -(pi^2/14) sin(2 pi z) sin(pi z) e1."""
    f, _, _ = frozen_sources(a_state, params)
    _, _, Z = grid16.mesh3d()
    want = -(np.pi**2) / 14 * np.sin(2 * np.pi * Z) * np.sin(np.pi * Z)
    np.testing.assert_allclose(f.component(0).data, want, atol=1e-11)
    np.testing.assert_allclose(f.component(1).data, 0.0, atol=1e-12)


def test_phi2_closed_form(grid16, params, a_state):
    """N_2 is Phi_2 here (sigma is constant): -(pi^2/7) cos(2 pi z)."""
    _, f, _ = frozen_sources(a_state, params)
    _, _, Z = grid16.mesh3d()
    np.testing.assert_allclose(
        f.data, -(np.pi**2) / 7 * np.cos(2 * np.pi * Z), atol=1e-11
    )


def test_phi3_closed_form(params, a_state):
    """N_3 is Phi_3 here (p is constant): 0.2 pi^2."""
    _, _, f = frozen_sources(a_state, params)
    np.testing.assert_allclose(f.data, PHI3_CONST, rtol=1e-12)


def test_full_tendency_example_a(grid16, params, a_state):
    """Assembled closed forms: dv = Phi1 - pi^2 cos(pi z) e1,
    dsigma = Phi2, dp = Phi3."""
    tend = regularized_tendency(a_state, params)
    _, _, Z = grid16.mesh3d()
    want_v1 = (
        -(np.pi**2) / 14 * np.sin(2 * np.pi * Z) * np.sin(np.pi * Z)
        - np.pi**2 * np.cos(np.pi * Z)
    )
    np.testing.assert_allclose(tend.dv.component(0).data, want_v1, atol=1e-10)
    np.testing.assert_allclose(tend.dv.component(1).data, 0.0, atol=1e-11)
    np.testing.assert_allclose(
        tend.dsigma.data, -(np.pi**2) / 7 * np.cos(2 * np.pi * Z), atol=1e-10
    )
    np.testing.assert_allclose(tend.dp.data, PHI3_CONST, rtol=1e-11)


@pytest.mark.parametrize("eps", [0.0, 1e-3, 1.0])
def test_equilibrium_tendency(grid16, eps):
    par = PhysParams(epsilon=eps)
    st = constant_state(grid16, sigma=1.0, p=1.0)
    tend = regularized_tendency(st, par)
    assert np.abs(tend.dv.data).max() <= 1e-12
    assert np.abs(tend.dsigma.data).max() <= 1e-12
    assert np.abs(tend.dp.data).max() <= 1e-12


def test_tendency_parities(random_state, params):
    tend = regularized_tendency(random_state, params)
    assert tend.dv.parity == COS
    assert tend.dsigma.parity == COS
    assert isinstance(tend.dp, ScalarField2D)


def test_frozen_sources_example_a(grid16, params, a_state):
    """sigma and p are constant, so the transport, nu dzz sigma and
    eps Lap_h terms vanish: N_2 and N_3 are the full dsigma and dp."""
    _, n2, n3 = frozen_sources(a_state, params)
    tend = regularized_tendency(a_state, params)
    np.testing.assert_allclose(n2.data, tend.dsigma.data, atol=1e-12)
    np.testing.assert_allclose(n3.data, tend.dp.data, atol=1e-12)


def test_epsilon_term_enters_linearly(grid16, random_state):
    """d(sigma,p)/d(eps) is exactly Lap_h(sigma,p)."""
    t0 = regularized_tendency(random_state, PhysParams(epsilon=0.0))
    t1 = regularized_tendency(random_state, PhysParams(epsilon=0.5))
    from cpelab.spectral import ProductWorkspace, factor

    ws = ProductWorkspace(grid16)
    dsig = (t1.dsigma.data - t0.dsigma.data) / 0.5
    lap_sigma = ws.field(factor(random_state.sigma).lap_h())
    np.testing.assert_allclose(dsig, lap_sigma.data, atol=1e-10)
    dp = (t1.dp.data - t0.dp.data) / 0.5
    lap_p = ws.field(factor(random_state.p).lap_h())
    np.testing.assert_allclose(dp, lap_p.data, atol=1e-10)
    # the velocity equation carries no eps term
    np.testing.assert_allclose(t1.dv.data, t0.dv.data, atol=1e-13)


def test_positivity_floor_faults(grid16, params):
    bad = constant_state(grid16, sigma=1e-9, p=1.0)
    with pytest.raises(SigmaPositivityLost):
        regularized_tendency(bad, params)
    bad_p = constant_state(grid16, sigma=1.0, p=1e-9)
    with pytest.raises(PressurePositivityLost):
        regularized_tendency(bad_p, params)
