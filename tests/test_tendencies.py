"""Nonlinear sources and the assembled tendency."""

import numpy as np
import pytest

from cpelab import (
    COS,
    PhysParams,
    PressurePositivityLost,
    ScalarField2D,
    ScalarField3D,
    SigmaPositivityLost,
    State,
    frozen_sources,
    compute_diagnostics,
    make_initial,
    phi1,
    phi2,
    phi3,
    regularized_tendency,
)
from cpelab.fields import constant_state
from cpelab.spectral import ddx, ddy, dealiased_sum

PHI3_CONST = 1.9739208802178717  # 0.2 * pi^2


@pytest.fixture
def a_state(grid16, params):
    return make_initial("example-A", grid16, params, amplitude=1.0)


def test_phi1_closed_form(grid16, params, a_state):
    """Only -w dz(v) survives: -(pi^2/14) sin(2 pi z) sin(pi z) e1."""
    f = phi1(a_state.v, a_state.sigma, a_state.p, params)
    _, _, Z = grid16.mesh3d()
    want = -(np.pi**2) / 14 * np.sin(2 * np.pi * Z) * np.sin(np.pi * Z)
    np.testing.assert_allclose(f.component(0).data, want, atol=1e-11)
    np.testing.assert_allclose(f.component(1).data, 0.0, atol=1e-12)


def test_phi2_closed_form(grid16, params, a_state):
    f = phi2(a_state.v, a_state.sigma, a_state.p, params)
    _, _, Z = grid16.mesh3d()
    np.testing.assert_allclose(
        f.data, -(np.pi**2) / 7 * np.cos(2 * np.pi * Z), atol=1e-11
    )


def test_phi3_closed_form(params, a_state):
    f = phi3(a_state.v, a_state.p, params)
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


def test_frozen_sources_subtract_advection(grid16, params, random_state):
    diag = compute_diagnostics(random_state, params)
    n1, n2, n3 = frozen_sources(random_state, params, diag)
    f1 = phi1(random_state.v, random_state.sigma, random_state.p, params, diag)
    np.testing.assert_allclose(n1.data, f1.data, atol=1e-13)
    f2 = phi2(random_state.v, random_state.sigma, random_state.p, params, diag)
    adv = (
        dealiased_sum([(random_state.v.component(0), ddx(random_state.sigma))]).data
        + dealiased_sum([(random_state.v.component(1), ddy(random_state.sigma))]).data
    )
    np.testing.assert_allclose(n2.data, f2.data - adv, atol=1e-12)


def test_frozen_sources_example_a(grid16, params, a_state):
    """sigma and p are constant, so the advection corrections vanish."""
    n1, n2, n3 = frozen_sources(a_state, params)
    _, _, Z = grid16.mesh3d()
    np.testing.assert_allclose(
        n2.data, -(np.pi**2) / 7 * np.cos(2 * np.pi * Z), atol=1e-11
    )
    np.testing.assert_allclose(n3.data, PHI3_CONST, rtol=1e-11)


def test_epsilon_term_enters_linearly(grid16, random_state):
    """d(sigma,p)/d(eps) is exactly Lap_h(sigma,p)."""
    t0 = regularized_tendency(random_state, PhysParams(epsilon=0.0))
    t1 = regularized_tendency(random_state, PhysParams(epsilon=0.5))
    from cpelab.spectral import laplacian_h

    dsig = (t1.dsigma.data - t0.dsigma.data) / 0.5
    np.testing.assert_allclose(
        dsig, laplacian_h(random_state.sigma).data, atol=1e-10
    )
    dp = (t1.dp.data - t0.dp.data) / 0.5
    np.testing.assert_allclose(dp, laplacian_h(random_state.p).data, atol=1e-10)
    # the velocity equation carries no eps term
    np.testing.assert_allclose(t1.dv.data, t0.dv.data, atol=1e-13)


def test_positivity_floor_faults(grid16, params):
    bad = constant_state(grid16, sigma=1e-9, p=1.0)
    with pytest.raises(SigmaPositivityLost):
        regularized_tendency(bad, params)
    bad_p = constant_state(grid16, sigma=1.0, p=1e-9)
    with pytest.raises(PressurePositivityLost):
        regularized_tendency(bad_p, params)
