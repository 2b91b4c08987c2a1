"""The frozen-coefficient linear sweep on the channel."""

import numpy as np

from cpelab import PhysParams, frozen_sources, make_initial
from cpelab.parabolic import advance_coupled_linear


def test_vector_problem_fourth_order(grid16, params, linear_run):
    """Constant coefficients make the decay rate exact; halving dt must
    cut the error ~16x while staying clear of roundoff."""
    X, _, Z = grid16.mesh3d()
    v0 = np.stack([np.cos(3 * X) * np.cos(2 * np.pi * Z), np.zeros_like(X)])
    rate = -(params.mu * (9 + 4 * np.pi**2) + (params.mu + params.lam) * 9)
    T = 0.02
    exact = np.exp(rate * T) * v0
    errs = []
    for dt in (8e-4, 4e-4):
        out = linear_run(grid16, params, T, dt, v=v0)
        errs.append(np.abs(out.v.data - exact).max())
    assert errs[0] > 1e-9  # signal above roundoff
    assert 12.0 <= errs[0] / errs[1] <= 20.0


def test_sigma_problem_exact_decay(grid16, params, linear_run):
    _, _, Z = grid16.mesh3d()
    s0 = np.cos(2 * np.pi * Z)
    out = linear_run(grid16, params, 0.05, 2e-4, sigma=s0)
    exact = np.exp(-params.nu * (2 * np.pi) ** 2 * 0.05) * s0
    np.testing.assert_allclose(out.sigma.data, exact, atol=1e-12)


def test_sigma_problem_epsilon_horizontal(grid16, linear_run):
    """eps Lap_h damps horizontal modes of sigma and of p alike."""
    par = PhysParams(epsilon=0.25)
    X, Y, _ = grid16.mesh3d()
    s0 = np.cos(X)
    p0 = np.cos(2 * Y[..., 0])
    out = linear_run(grid16, par, 0.1, 5e-4, sigma=s0, p=p0)
    np.testing.assert_allclose(out.sigma.data, np.exp(-0.25 * 0.1) * s0, atol=1e-12)
    np.testing.assert_allclose(out.p.data, np.exp(-0.25 * 4 * 0.1) * p0, atol=1e-12)


def test_constants_are_steady(grid16, params, linear_run):
    out = linear_run(grid16, params, 0.05, 1e-3, v=0.5, sigma=3.0, p=2.0)
    np.testing.assert_allclose(out.v.data, 0.5, atol=1e-13)
    np.testing.assert_allclose(out.sigma.data, 3.0, atol=1e-13)
    np.testing.assert_allclose(out.p.data, 2.0, atol=1e-13)


def test_coupled_linear_keeps_boundaries_clean(grid16, weak_params):
    initial = make_initial("smooth-random", grid16, weak_params, amplitude=0.2, seed=9)
    frozen = frozen_sources(initial, weak_params)

    def sampler(step, stage, t):
        return (initial.sigma, *frozen)

    _, states = advance_coupled_linear(initial, weak_params, 5e-4, 8, sampler)
    final = states[-1]
    from cpelab.spectral import ProductWorkspace, factor

    dzv = ProductWorkspace(grid16).field(factor(final.v.component(0)).dz())
    assert abs(dzv.data[..., 0]).max() <= 1e-11
    assert abs(dzv.data[..., -1]).max() <= 1e-11
