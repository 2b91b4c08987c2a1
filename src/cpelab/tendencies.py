"""Right-hand sides of the epsilon-regularized system, each term written once.

Every equation's terms sit in private term lists: the sources (the Phi_1,
Phi_2, Phi_3 products plus the transport terms v . grad_h sigma and
vbar . grad_h p) and the linear part in a given coefficient sigma_c. A term
is either a dealiased product (f, g, coef) or a plain field; each output
takes one reduction over its products, then adds its plain fields in order.
Derivative factors are lazy ``Factor``s, synthesized on the product grid
from the parents' coefficients; a lazy plain term is made nodal first.

* ``regularized_tendency``: sources + linear part at sigma_c = sigma;
* ``frozen_sources``: the sources alone, N_1/N_2/N_3 of the linear sweeps;
* ``frozen_tendency``: linear part at a frozen sigma_k + frozen sources;
* ``phi1``/``phi2``/``phi3``: the Phi lists alone.

``rk4_step`` is the classical RK4 step both integration paths take, so the
Picard fixed point reproduces the nonlinear RK4 trajectory stage for stage.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .diagnostics import DiagnosticFields, compute_diagnostics, heating
from .errors import (
    PositivityMarginWarning,
    PressurePositivityLost,
    SigmaPositivityLost,
)
from .fields import COS, ScalarField2D, ScalarField3D, State, VectorField3D2C
from .params import PhysParams
from .spectral import Factor, ProductWorkspace, dealiased_sum, divergence, factor

DEFAULT_FAULT_FLOOR = 1e-8


@dataclass(frozen=True)
class StateTendency:
    dv: VectorField3D2C
    dsigma: ScalarField3D
    dp: ScalarField2D


def check_positivity(
    state,
    params: PhysParams,
    fault_floor: float = DEFAULT_FAULT_FLOOR,
) -> None:
    """Abort below the fault floor; warn when half the modeling floor is crossed."""
    smin = float(state.sigma.data.min())
    pmin = float(state.p.data.min())
    if smin <= fault_floor:
        raise SigmaPositivityLost(f"min sigma = {smin:.3e} at t = {state.t:.6g}")
    if pmin <= fault_floor:
        raise PressurePositivityLost(f"min p = {pmin:.3e} at t = {state.t:.6g}")
    if smin < 0.5 * params.sigma_floor:
        warnings.warn(
            f"min sigma = {smin:.3e} below half the floor {params.sigma_floor}",
            PositivityMarginWarning,
            stacklevel=2,
        )
    if pmin < 0.5 * params.p_floor:
        warnings.warn(
            f"min p = {pmin:.3e} below half the floor {params.p_floor}",
            PositivityMarginWarning,
            stacklevel=2,
        )


# ---------------------------------------------------------------------------
# the term lists
# ---------------------------------------------------------------------------


def _velocity(state):
    """(v1, v2, div_h v) as lazy factors."""
    v1, v2 = factor(state.v.component(0)), factor(state.v.component(1))
    return v1, v2, v1.dx() + v2.dy()


def _phi1_terms(v1, v2, sigma, w, grad_p):
    """Phi_1 = -(v . grad_h) v - w dz v - sigma grad_h p, per component."""
    return [
        [(v1, vi.dx(), -1.0), (v2, vi.dy(), -1.0), (w, vi.dz(), -1.0), (sigma, gpi, -1.0)]
        for vi, gpi in zip((v1, v2), grad_p)
    ]


def _phi2_terms(sigma, divv, diag: DiagnosticFields):
    """Phi_2 = -w dz sigma + sigma (div_h v - phi)."""
    return [(diag.w, sigma.dz(), -1.0), (sigma, divv - diag.phi, 1.0)]


def _phi3_terms(p, divv, Q, params: PhysParams):
    """Phi_3 = (gamma-1) Qbar - gamma p div_h vbar."""
    return [
        (p, divv.mean(), -params.gamma),
        (params.gamma - 1.0) * factor(Q).mean(),
    ]


def _source_terms(state, params: PhysParams, diag: DiagnosticFields, v1, v2, divv):
    """Sources per output ([dv1, dv2], dsigma, dp): the Phi products, with
    -v . grad_h sigma and -vbar . grad_h p ahead of Phi_2 and Phi_3."""
    sigma, p = factor(state.sigma), factor(state.p)
    grad_p = (p.dx(), p.dy())
    sigma_transport = [(v1, sigma.dx(), -1.0), (v2, sigma.dy(), -1.0)]
    p_transport = [(v1.mean(), grad_p[0], -1.0), (v2.mean(), grad_p[1], -1.0)]
    return (
        _phi1_terms(v1, v2, sigma, diag.w, grad_p),
        sigma_transport + _phi2_terms(sigma, divv, diag),
        p_transport + _phi3_terms(p, divv, diag.Q, params),
    )


def _linear_terms(state, params: PhysParams, sigma_c: ScalarField3D, v1, v2, divv):
    """Linear part per output ([dv1, dv2], dsigma, dp) in the coefficient sigma_c:
    mu sigma_c Lap v + (mu+lambda) sigma_c grad_h div_h v,
    nu sigma_c dzz sigma + eps Lap_h sigma, and eps Lap_h p."""
    mu, lam, eps = params.mu, params.lam, params.epsilon
    sigma, p = factor(state.sigma), factor(state.p)
    dv = [
        [(sigma_c, vi.lap3(), mu), (sigma_c, d, mu + lam)]
        for vi, d in ((v1, divv.dx()), (v2, divv.dy()))
    ]
    dsigma = [(sigma_c, sigma.dzz(), params.nu)]
    dp = []
    if eps != 0.0:
        dsigma.append(eps * sigma.lap_h())
        dp.append(eps * p.lap_h())
    return dv, dsigma, dp


def _reduce(terms, ws: ProductWorkspace):
    """One dealiased reduction over the products, then the plain fields in order."""
    products = [t for t in terms if isinstance(t, tuple)]
    out = dealiased_sum(products, ws) if products else None
    for t in terms:
        if not isinstance(t, tuple):
            if isinstance(t, Factor):
                t = ws.field(t)
            out = t if out is None else out + t
    return out


def _vector(grid, comps) -> VectorField3D2C:
    return VectorField3D2C(grid, np.stack([c.data for c in comps]), COS)


def _assemble(grid, parts, ws: ProductWorkspace) -> StateTendency:
    """One reduction per output over the term lists of all ``parts``.

    List order is summation order, so it fixes the output to the last bit."""
    dv1, dv2, dsigma, dp = [], [], [], []
    for (v1_terms, v2_terms), sigma_terms, p_terms in parts:
        dv1 += v1_terms
        dv2 += v2_terms
        dsigma += sigma_terms
        dp += p_terms
    return StateTendency(
        dv=_vector(grid, [_reduce(dv1, ws), _reduce(dv2, ws)]),
        dsigma=_reduce(dsigma, ws),
        dp=_reduce(dp, ws),
    )


# ---------------------------------------------------------------------------
# the sums
# ---------------------------------------------------------------------------


def phi1(
    v: VectorField3D2C,
    sigma: ScalarField3D,
    p: ScalarField2D,
    params: PhysParams,
    diag: DiagnosticFields | None = None,
    ws: ProductWorkspace | None = None,
) -> VectorField3D2C:
    """Phi_1 = -(v . grad_h) v - w dz v - sigma grad_h p."""
    ws = ws or ProductWorkspace(v.grid)
    if diag is None:
        diag = compute_diagnostics(State(v, sigma, p), params, ws)
    v1, v2 = factor(v.component(0)), factor(v.component(1))
    grad_p = (factor(p).dx(), factor(p).dy())
    terms = _phi1_terms(v1, v2, sigma, diag.w, grad_p)
    return _vector(v.grid, [_reduce(t, ws) for t in terms])


def phi2(
    v: VectorField3D2C,
    sigma: ScalarField3D,
    p: ScalarField2D,
    params: PhysParams,
    diag: DiagnosticFields | None = None,
    ws: ProductWorkspace | None = None,
) -> ScalarField3D:
    """Phi_2 = -w dz sigma + sigma (div_h v - phi)."""
    ws = ws or ProductWorkspace(v.grid)
    if diag is None:
        diag = compute_diagnostics(State(v, sigma, p), params, ws)
    return _reduce(_phi2_terms(factor(sigma), divergence(v), diag), ws)


def phi3(
    v: VectorField3D2C,
    p: ScalarField2D,
    params: PhysParams,
    diag: DiagnosticFields | None = None,
    ws: ProductWorkspace | None = None,
) -> ScalarField2D:
    """Phi_3 = (gamma-1) Qbar - gamma p div_h vbar."""
    ws = ws or ProductWorkspace(v.grid)
    Q = heating(v, params, ws)[0] if diag is None else diag.Q
    return _reduce(_phi3_terms(p, divergence(v), Q, params), ws)


def regularized_tendency(
    state,
    params: PhysParams,
    diag: DiagnosticFields | None = None,
    ws: ProductWorkspace | None = None,
    fault_floor: float = DEFAULT_FAULT_FLOOR,
) -> StateTendency:
    """Full tendency of the regularized system.

    dv     = Phi_1 + mu sigma Lap v + (mu+lambda) sigma grad_h div_h v
    dsigma = -v . grad_h sigma + nu sigma dzz sigma + eps Lap_h sigma + Phi_2
    dp     = -vbar . grad_h p + eps Lap_h p + Phi_3
    """
    check_positivity(state, params, fault_floor)
    ws = ws or ProductWorkspace(state.grid)
    if diag is None:
        diag = compute_diagnostics(state, params, ws)
    v1, v2, divv = _velocity(state)
    sources = _source_terms(state, params, diag, v1, v2, divv)
    linear = _linear_terms(state, params, state.sigma, v1, v2, divv)
    return _assemble(state.grid, (sources, linear), ws)


def frozen_sources(
    state,
    params: PhysParams,
    diag: DiagnosticFields | None = None,
    ws: ProductWorkspace | None = None,
):
    """(N_1, N_2, N_3) for the frozen-coefficient linear problems.

    N_1 = Phi_1; N_2 = Phi_2 - v . grad_h sigma; N_3 = Phi_3 - vbar . grad_h p.
    """
    ws = ws or ProductWorkspace(state.grid)
    if diag is None:
        diag = compute_diagnostics(state, params, ws)
    sources = _source_terms(state, params, diag, *_velocity(state))
    out = _assemble(state.grid, (sources,), ws)
    return out.dv, out.dsigma, out.dp


def frozen_tendency(
    state,
    params: PhysParams,
    sigma_k: ScalarField3D,
    sources,
    ws: ProductWorkspace | None = None,
) -> StateTendency:
    """Tendency of the frozen-coefficient linear problems.

    dv     = mu sigma_k Lap v + (mu+lambda) sigma_k grad_h div_h v + N_1
    dsigma = nu sigma_k dzz sigma + eps Lap_h sigma + N_2
    dp     = eps Lap_h p + N_3

    ``sources`` is (N_1, N_2, N_3) as returned by ``frozen_sources``.
    """
    ws = ws or ProductWorkspace(state.grid)
    n1, n2, n3 = sources
    linear = _linear_terms(state, params, sigma_k, *_velocity(state))
    frozen = ([n1.component(0)], [n1.component(1)]), [n2], [n3]
    return _assemble(state.grid, (linear, frozen), ws)


# ---------------------------------------------------------------------------
# the RK4 step
# ---------------------------------------------------------------------------


def _lincomb(base: State, t: float, *terms) -> State:
    """base + sum coef * tendency, with the given new time."""
    v = base.v.data.copy()
    s = base.sigma.data.copy()
    p = base.p.data.copy()
    for coef, tend in terms:
        v += coef * tend.dv.data
        s += coef * tend.dsigma.data
        p += coef * tend.dp.data
    g = base.grid
    return State(
        VectorField3D2C(g, v, base.v.parity),
        ScalarField3D(g, s, base.sigma.parity),
        ScalarField2D(g, p),
        t=t,
    )


def rk4_step(state: State, dt: float, rhs):
    """One classical RK4 step of d_t u = rhs(u, stage), stage = 0..3.

    Returns the four stage states (state first), the stage-0 tendency and
    the state at t + dt.
    """
    t = state.t
    k1 = rhs(state, 0)
    s1 = _lincomb(state, t + 0.5 * dt, (0.5 * dt, k1))
    k2 = rhs(s1, 1)
    s2 = _lincomb(state, t + 0.5 * dt, (0.5 * dt, k2))
    k3 = rhs(s2, 2)
    s3 = _lincomb(state, t + dt, (dt, k3))
    k4 = rhs(s3, 3)
    new_state = _lincomb(
        state,
        t + dt,
        (dt / 6.0, k1),
        (dt / 3.0, k2),
        (dt / 3.0, k3),
        (dt / 6.0, k4),
    )
    return (state, s1, s2, s3), k1, new_state
