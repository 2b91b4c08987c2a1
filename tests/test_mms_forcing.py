"""The closed-form manufactured forcing against a symbolic derivation.

The oracle derives each case's forcing F = dt u - rhs(u) from the continuous
system with sympy and lambdifies it; ``mms_forcing`` must reproduce every
exact field and every forcing component on the grid nodes.
"""

import functools

import numpy as np
import pytest
import sympy as sp

from cpelab import Grid, PhysParams
from cpelab.experiments import mms_forcing

PARAM_SETS = {
    "defaults": PhysParams(),
    "mu4": PhysParams(mu=4.0),
    "mixed": PhysParams(gamma=1.67, mu=0.7, lam=0.3, epsilon=0.01, kappa=2.0, R=0.5),
    "negative-lam": PhysParams(lam=-0.5, epsilon=1e-3),
}
TIMES = (0.0, 0.0037, 0.5)
NAMES = ("v1", "v2", "sig", "p", "Fv1", "Fv2", "Fsig", "Fp")


def _case_fields(case: str):
    """The symbols (x, y, z, t) and the exact (v1, v2, sigma, p) of a case."""
    X, Y, Z, T = sp.symbols("x y z t", real=True)
    if case == "constant":
        one = sp.Integer(1)
        return (X, Y, Z, T), (sp.Integer(0), sp.Integer(0), one, one)
    if case == "A-osc":
        decay = sp.exp(-T)
        amp = sp.Rational(1, 10)
        v1 = decay * sp.cos(sp.pi * Z) * sp.cos(X)
        v2 = sp.Integer(0)
        sig = 1 + amp * decay * sp.cos(sp.pi * Z)
        p = 1 + amp * decay * sp.cos(X)
        return (X, Y, Z, T), (v1, v2, sig, p)
    raise ValueError(case)


@functools.lru_cache(maxsize=None)
def _symbolic_case(case: str, params: PhysParams):
    """Lambdified (exact fields, residual forcing) for one parameter set."""
    (X, Y, Z, T), (v1, v2, sig, p) = _case_fields(case)
    gamma = sp.Float(params.gamma, 17)
    mu = sp.Float(params.mu, 17)
    lam = sp.Float(params.lam, 17)
    eps = sp.Float(params.epsilon, 17)
    nu = sp.Float(params.nu, 17)

    def bar(f):
        return sp.integrate(f, (Z, 0, 1))

    ax = sp.diff(v1, X)
    by = sp.diff(v1, Y)
    cx = sp.diff(v2, X)
    dy = sp.diff(v2, Y)
    Q = (
        mu * (2 * ax**2 + 2 * dy**2 + (by + cx) ** 2)
        + lam * (ax + dy) ** 2
        + mu * (sp.diff(v1, Z) ** 2 + sp.diff(v2, Z) ** 2)
    )
    divh = ax + dy
    v1b, v2b = bar(v1), bar(v2)
    phi = (divh - bar(divh)) + (
        (v1 - v1b) * sp.diff(p, X)
        + (v2 - v2b) * sp.diff(p, Y)
        - (gamma - 1) * (Q - bar(Q))
    ) / (gamma * p)
    zeta = sp.Symbol("zeta", real=True)
    w = nu * sp.diff(sig, Z) - sp.integrate(phi.subs(Z, zeta), (zeta, 0, Z))

    lap3 = lambda f: sp.diff(f, X, 2) + sp.diff(f, Y, 2) + sp.diff(f, Z, 2)
    lap_h = lambda f: sp.diff(f, X, 2) + sp.diff(f, Y, 2)

    rhs_v = []
    for vi, dxi in ((v1, X), (v2, Y)):
        rhs_v.append(
            -(v1 * sp.diff(vi, X) + v2 * sp.diff(vi, Y))
            - w * sp.diff(vi, Z)
            - sig * sp.diff(p, dxi)
            + mu * sig * lap3(vi)
            + (mu + lam) * sig * sp.diff(divh, dxi)
        )
    rhs_sig = (
        -(v1 * sp.diff(sig, X) + v2 * sp.diff(sig, Y))
        - w * sp.diff(sig, Z)
        + sig * (divh - phi)
        + nu * sig * sp.diff(sig, Z, 2)
        + eps * lap_h(sig)
    )
    rhs_p = (
        -(v1b * sp.diff(p, X) + v2b * sp.diff(p, Y))
        + (gamma - 1) * bar(Q)
        - gamma * p * bar(divh)
        + eps * lap_h(p)
    )

    F = [
        sp.diff(v1, T) - rhs_v[0],
        sp.diff(v2, T) - rhs_v[1],
        sp.diff(sig, T) - rhs_sig,
        sp.diff(p, T) - rhs_p,
    ]
    args3, args2 = (X, Y, Z, T), (X, Y, T)
    fns = {
        "v1": sp.lambdify(args3, v1, modules="numpy"),
        "v2": sp.lambdify(args3, v2, modules="numpy"),
        "sig": sp.lambdify(args3, sig, modules="numpy"),
        "p": sp.lambdify(args2, p, modules="numpy"),
        "Fv1": sp.lambdify(args3, F[0], modules="numpy"),
        "Fv2": sp.lambdify(args3, F[1], modules="numpy"),
        "Fsig": sp.lambdify(args3, F[2], modules="numpy"),
        "Fp": sp.lambdify(args2, F[3], modules="numpy"),
    }
    return fns


def _closed_form(case: str, grid: Grid, params: PhysParams, t: float) -> dict:
    forcing, exact = mms_forcing(case, grid, params)
    state = exact(t)
    fv, fsig, fp = forcing(t)
    arrays = (state.v.data[0], state.v.data[1], state.sigma.data, state.p.data)
    return dict(zip(NAMES, arrays + (fv[0], fv[1], fsig, fp)))


@pytest.mark.parametrize("case", ["constant", "A-osc"])
@pytest.mark.parametrize("label", list(PARAM_SETS))
def test_closed_form_matches_symbolic_derivation(case, label):
    params = PARAM_SETS[label]
    grid = Grid(12, 16, 9)
    fns = _symbolic_case(case, params)
    mesh3, mesh2 = grid.mesh3d(), grid.mesh2d()
    for t in TIMES:
        got = _closed_form(case, grid, params, t)
        for name in NAMES:
            mesh, shape = (mesh2, grid.shape2d) if name in ("p", "Fp") else (mesh3, grid.shape3d)
            want = np.broadcast_to(np.asarray(fns[name](*mesh, t), dtype=float), shape)
            assert got[name].shape == shape and got[name].flags.c_contiguous
            # an identically zero oracle (v2, Fv2, constant forcing) needs an exact zero
            gap = float(np.abs(got[name] - want).max())
            scale = float(np.abs(want).max())
            assert gap <= 1e-13 * scale, (name, t, gap, scale)


def test_constant_forcing_is_exactly_zero(params):
    grid = Grid(8, 8, 8)
    forcing, exact = mms_forcing("constant", grid, params)
    fv, fsig, fp = forcing(0.25)
    assert not fv.any() and not fsig.any() and not fp.any()
    state = exact(0.25)
    assert not state.v.data.any()
    assert np.all(state.sigma.data == 1.0) and np.all(state.p.data == 1.0)
