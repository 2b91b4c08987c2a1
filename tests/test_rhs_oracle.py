"""The RHS against its unexpanded forms, and the fine-grid synthesis count.

The library sums the heating expanded, forms vtilde . grad_h p as
v . grad_h p - vbar . grad_h p and merges the products that share a
coefficient field, so that fewer factors are synthesized on the 3/2 grid.
The oracle here keeps the textbook forms: Q with (b+c)^2 and (a+d)^2, the
transport through vtilde, and one product per linear term.
"""

import numpy as np
import pytest

from cpelab import (
    COS,
    Grid,
    PhysParams,
    ScalarField3D,
    frozen_sources,
    make_initial,
    regularized_tendency,
)
from cpelab.diagnostics import DiagnosticFields, heating, phi_field
from cpelab.spectral import (
    Factor,
    ProductWorkspace,
    dealiased_sum,
    divergence,
    factor,
)
from cpelab.tendencies import frozen_tendency

SHAPES = [(12, 12, 12), (12, 16, 9), (8, 12, 11)]
RTOL = 1e-13


def _oracle_diagnostics(state, params, ws):
    """Q, phi and w in their unexpanded forms."""
    mu, lam, gamma = params.mu, params.lam, params.gamma
    v1, v2 = factor(state.v.component(0)), factor(state.v.component(1))
    a, b, c, d = v1.dx(), v1.dy(), v2.dx(), v2.dy()
    vz1, vz2 = v1.dz(), v2.dz()
    Q = dealiased_sum(
        [
            (a, a, 2.0 * mu),
            (d, d, 2.0 * mu),
            (b + c, b + c, mu),
            (a + d, a + d, lam),
            (vz1, vz1, mu),
            (vz2, vz2, mu),
        ],
        ws,
    )
    p = factor(state.p)
    transport = dealiased_sum([(v1.fluct(), p.dx()), (v2.fluct(), p.dy())], ws)
    qt = ws.field(factor(Q).fluct())
    core = ws.field(divergence(state.v).fluct())
    phi_data = core.data + (transport.data - (gamma - 1.0) * qt.data) / (
        gamma * state.p.data[..., None]
    )
    phi = ScalarField3D(state.grid, phi_data, COS)
    w = ws.field(params.nu * factor(state.sigma).dz() - factor(phi).cumint())
    return DiagnosticFields(w=w, phi=phi, Q=Q)


def _oracle_linear(state, params, sigma_c, v1, v2, divv):
    """One product per linear term, in the coefficient sigma_c."""
    mu, lam, eps = params.mu, params.lam, params.epsilon
    sigma, p = factor(state.sigma), factor(state.p)
    dv = [
        [(sigma_c, vi.lap3(), mu), (sigma_c, d, mu + lam)]
        for vi, d in ((v1, divv.dx()), (v2, divv.dy()))
    ]
    dsigma = [(sigma_c, sigma.dzz(), params.nu)]
    plain_sigma = [eps * sigma.lap_h()] if eps else []
    plain_p = [eps * p.lap_h()] if eps else []
    return dv, dsigma, plain_sigma, plain_p


def _nodal(ws, terms, plain):
    out = dealiased_sum(terms, ws).data if terms else 0.0
    for t in plain:
        out = out + (ws.field(t) if isinstance(t, Factor) else t).data
    return out


def _oracle_sources(state, params, diag, v1, v2, divv):
    """Term lists (dv per component, dsigma, dp) and the plain dp terms of
    the sources N_1, N_2, N_3, unmerged: the RHS without linear or eps terms."""
    sigma, p = factor(state.sigma), factor(state.p)
    gp = (p.dx(), p.dy())
    dv = [
        [
            (v1, vi.dx(), -1.0),
            (v2, vi.dy(), -1.0),
            (diag.w, vi.dz(), -1.0),
            (sigma, gpi, -1.0),
        ]
        for vi, gpi in zip((v1, v2), gp)
    ]
    dsigma = [
        (v1, sigma.dx(), -1.0),
        (v2, sigma.dy(), -1.0),
        (diag.w, sigma.dz(), -1.0),
        (sigma, divv - diag.phi, 1.0),
    ]
    dp = [
        (v1.mean(), gp[0], -1.0),
        (v2.mean(), gp[1], -1.0),
        (p, divv.mean(), -params.gamma),
    ]
    return dv, dsigma, dp, [(params.gamma - 1.0) * factor(diag.Q).mean()]


def _oracle_velocity(state):
    v1, v2 = factor(state.v.component(0)), factor(state.v.component(1))
    return v1, v2, v1.dx() + v2.dy()


def _oracle_rhs(state, params):
    """(dv, dsigma, dp) nodal arrays of the full tendency, unmerged."""
    ws = ProductWorkspace(state.grid)
    diag = _oracle_diagnostics(state, params, ws)
    velocity = _oracle_velocity(state)
    dv, dsigma, dp, dp_plain = _oracle_sources(state, params, diag, *velocity)
    dv_lin, dsigma_lin, eps_sigma, eps_p = _oracle_linear(
        state, params, state.sigma, *velocity
    )
    return (
        np.stack([_nodal(ws, t + lin, []) for t, lin in zip(dv, dv_lin)]),
        _nodal(ws, dsigma + dsigma_lin, eps_sigma),
        _nodal(ws, dp, dp_plain + eps_p),
        diag,
    )


def _assert_close(got, want):
    scale = max(float(np.abs(want).max()), 1e-300)
    assert float(np.abs(got - want).max()) <= RTOL * scale


@pytest.fixture(params=SHAPES, ids=lambda s: "x".join(map(str, s)))
def grid(request):
    return Grid(*request.param)


@pytest.mark.parametrize("lam", [0.0, 0.3])
@pytest.mark.parametrize("eps", [0.0, 1e-2])
def test_rhs_matches_unexpanded_forms(grid, lam, eps):
    params = PhysParams(lam=lam, epsilon=eps)
    state = make_initial("smooth-random", grid, params, amplitude=0.2, seed=7)
    dv, dsigma, dp, diag = _oracle_rhs(state, params)
    ws = ProductWorkspace(grid)
    Q = heating(state.v, params, ws, tol_bc=np.inf)
    _assert_close(Q.data, diag.Q.data)
    phi = phi_field(state.v, state.p, params, Q, ws)
    _assert_close(phi.data, diag.phi.data)
    tend = regularized_tendency(state, params, tol_bc=np.inf)
    _assert_close(tend.dv.data, dv)
    _assert_close(tend.dsigma.data, dsigma)
    _assert_close(tend.dp.data, dp)


@pytest.mark.parametrize("eps", [0.0, 1e-2])
def test_frozen_tendency_matches_unmerged_products(grid, eps):
    """The linear sweep's sigma_k products against one product per term."""
    params = PhysParams(lam=0.3, epsilon=eps)
    state = make_initial("smooth-random", grid, params, amplitude=0.2, seed=8)
    frozen = make_initial("smooth-random", grid, params, amplitude=0.2, seed=9)
    sigma_k = frozen.sigma
    n1, n2, n3 = frozen_sources(frozen, params, tol_bc=np.inf)
    tend = frozen_tendency(state, params, sigma_k, (n1, n2, n3))
    ws = ProductWorkspace(grid)
    v1, v2 = factor(state.v.component(0)), factor(state.v.component(1))
    dv_lin, dsigma_lin, eps_sigma, eps_p = _oracle_linear(
        state, params, sigma_k, v1, v2, v1.dx() + v2.dy()
    )
    dv = np.stack([_nodal(ws, t, [n1.component(i)]) for i, t in enumerate(dv_lin)])
    _assert_close(tend.dv.data, dv)
    _assert_close(tend.dsigma.data, _nodal(ws, dsigma_lin, eps_sigma + [n2]))
    _assert_close(tend.dp.data, _nodal(ws, [], eps_p + [n3]))


def test_frozen_sources_match_unexpanded_sources(grid):
    """N_1, N_2, N_3 against the oracle's sources; eps is set, so an eps
    term leaking into the sources would show."""
    params = PhysParams(lam=0.3, epsilon=1e-2)
    state = make_initial("smooth-random", grid, params, amplitude=0.2, seed=7)
    ws = ProductWorkspace(grid)
    diag = _oracle_diagnostics(state, params, ws)
    dv, dsigma, dp, dp_plain = _oracle_sources(
        state, params, diag, *_oracle_velocity(state)
    )
    n1, n2, n3 = frozen_sources(state, params, tol_bc=np.inf)
    _assert_close(n1.data, np.stack([_nodal(ws, t, []) for t in dv]))
    _assert_close(n2.data, _nodal(ws, dsigma, []))
    _assert_close(n3.data, _nodal(ws, dp, dp_plain))


def test_rhs_synthesizes_sixteen_3d_factors(monkeypatch):
    """One RHS with its diagnostics synthesizes 16 distinct 3D factors on the
    3/2 grid; every other 3D fine3 call is a memo hit (no transform)."""
    transforms = []
    for name in ("fft", "rfft", "rfft2", "irfft2"):
        fn = getattr(np.fft, name)

        def counted(*args, _fn=fn, **kwargs):
            transforms.append(1)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    fine3 = ProductWorkspace.fine3
    misses, hits = [], []

    def traced(ws, f):
        before = len(transforms)
        out = fine3(ws, f)
        if out.ndim == 3:
            (misses if len(transforms) > before else hits).append(1)
        return out

    monkeypatch.setattr(ProductWorkspace, "fine3", traced)
    params = PhysParams(lam=0.3, epsilon=1e-2)
    state = make_initial("smooth-random", Grid(12, 12, 12), params, amplitude=0.1)
    regularized_tendency(state, params, tol_bc=np.inf)
    assert len(misses) == 16
    assert len(hits) > 0
