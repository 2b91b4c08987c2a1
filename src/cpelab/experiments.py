"""Verification experiments.

Manufactured-solution forcing is derived symbolically from the continuous
system (not from the discrete operators), so a forced run measures both the
temporal order of the integrator and the spatial truncation of the spectral
discretization — the two error floors the convergence criteria separate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import NoContraction, UsageFault
from .fields import COS, ScalarField2D, ScalarField3D, State, VectorField3D2C
from .grid import Grid
from .integrators import RunOptions, advance, picard_solve, stable_dt
from .norms import difference_norm, sobolev_norm
from .params import PhysParams
from .spectral import ddz, laplacian3

MMS_CASES = ("constant", "A-osc")


def _case_fields(case: str):
    """The symbols (x, y, z, t) and the exact (v1, v2, sigma, p) of a case.

    sympy is imported here, not with the module, so only ``mms`` loads it."""
    import sympy as sp

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
    raise UsageFault(f"unknown manufactured case {case!r}; known: {', '.join(MMS_CASES)}")


_FORCING_CACHE: dict = {}


def _symbolic_case(case: str, params: PhysParams):
    """Lambdified (exact fields, residual forcing) for one parameter set."""
    key = (case, params.gamma, params.mu, params.lam, params.kappa, params.R, params.epsilon)
    hit = _FORCING_CACHE.get(key)
    if hit is not None:
        return hit

    import sympy as sp

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
    _FORCING_CACHE[key] = fns
    return fns


def _nodal(fn, t, mesh, shape):
    out = np.asarray(fn(*mesh, t), dtype=float)
    return np.ascontiguousarray(np.broadcast_to(out, shape))


def mms_forcing(case: str, grid: Grid, params: PhysParams):
    """(forcing(t), exact(t)) callables on the given grid."""
    fns = _symbolic_case(case, params)
    mesh3 = grid.mesh3d()
    mesh2 = grid.mesh2d()
    s3, s2 = grid.shape3d, grid.shape2d

    def exact(t: float) -> State:
        v = np.stack(
            [_nodal(fns["v1"], t, mesh3, s3), _nodal(fns["v2"], t, mesh3, s3)]
        )
        return State(
            VectorField3D2C(grid, v, COS),
            ScalarField3D(grid, _nodal(fns["sig"], t, mesh3, s3), COS),
            ScalarField2D(grid, _nodal(fns["p"], t, mesh2, s2)),
            t=t,
        )

    def forcing(t: float):
        fv = np.stack(
            [_nodal(fns["Fv1"], t, mesh3, s3), _nodal(fns["Fv2"], t, mesh3, s3)]
        )
        return fv, _nodal(fns["Fsig"], t, mesh3, s3), _nodal(fns["Fp"], t, mesh2, s2)

    return forcing, exact


@dataclass(frozen=True)
class MmsResult:
    case: str
    n: int
    dt: float
    n_steps: int
    T: float
    err_v: float
    err_sigma: float
    err_p: float
    err: float
    state: State


def mms_run(case: str, n: int, dt: float, T: float, params: PhysParams) -> MmsResult:
    grid = Grid(n, n, n)
    forcing, exact = mms_forcing(case, grid, params)
    res = advance(
        exact(0.0),
        params,
        RunOptions(t_final=T, dt=dt, record_every=10**9),
        forcing=forcing,
    )
    if res.fault is not None:
        raise res.fault
    ref = exact(T)
    err_v = float(np.abs(res.state.v.data - ref.v.data).max())
    err_s = float(np.abs(res.state.sigma.data - ref.sigma.data).max())
    err_p = float(np.abs(res.state.p.data - ref.p.data).max())
    return MmsResult(
        case=case,
        n=n,
        dt=res.dt,
        n_steps=res.n_steps,
        T=T,
        err_v=err_v,
        err_sigma=err_s,
        err_p=err_p,
        err=max(err_v, err_s, err_p),
        state=res.state,
    )


def _state_gap(a: State, b: State) -> float:
    return max(
        float(np.abs(a.v.data - b.v.data).max()),
        float(np.abs(a.sigma.data - b.sigma.data).max()),
        float(np.abs(a.p.data - b.p.data).max()),
    )


@dataclass(frozen=True)
class MmsTemporalResult:
    case: str
    n: int
    T: float
    dts: tuple[float, ...]
    errors: tuple[float, ...]
    diffs: tuple[float, ...]
    orders: tuple[float, ...]

    @property
    def order(self) -> float:
        return self.orders[-1]


def mms_temporal(
    case: str,
    dts: tuple[float, ...],
    n: int,
    T: float,
    params: PhysParams,
) -> MmsTemporalResult:
    """Observed temporal order from successive-dt solution differences.

    Differencing the final states of consecutive-dt runs cancels both the
    exact solution and the (dt-independent) spatial truncation, isolating
    the integrator's O(dt^4) term even when it sits far below the spatial
    error.
    """
    if len(dts) < 3:
        raise UsageFault("need at least three dt values for an order estimate")
    runs = [mms_run(case, n, dt, T, params) for dt in dts]
    diffs = [
        _state_gap(a.state, b.state) for a, b in zip(runs[:-1], runs[1:])
    ]
    orders = []
    for i in range(len(diffs) - 1):
        num, den = diffs[i], diffs[i + 1]
        ratio_dt = dts[i] / dts[i + 1]
        if den == 0.0:
            orders.append(float("inf"))
            continue
        # for geometric dt sequences, diffs scale like dt^p exactly
        orders.append(math.log(num / den) / math.log(ratio_dt))
    return MmsTemporalResult(
        case=case,
        n=n,
        T=T,
        dts=tuple(dts),
        errors=tuple(r.err for r in runs),
        diffs=tuple(diffs),
        orders=tuple(orders),
    )


@dataclass(frozen=True)
class MmsSpatialResult:
    case: str
    dt: float
    T: float
    ns: tuple[int, ...]
    errors: tuple[float, ...]
    ratios: tuple[float, ...]
    floor: float
    converged: tuple[bool, ...]


def mms_spatial(
    case: str,
    ns: tuple[int, ...],
    dt: float,
    T: float,
    params: PhysParams,
    floor: float = 1e-12,
) -> MmsSpatialResult:
    """Fixed-dt refinement study; a step counts as converged when the error
    drops 10x or the coarser error already sits at the temporal/roundoff
    floor."""
    runs = [mms_run(case, n, dt, T, params) for n in ns]
    errors = [r.err for r in runs]
    ratios = [
        errors[i] / errors[i + 1] if errors[i + 1] > 0 else float("inf")
        for i in range(len(errors) - 1)
    ]
    converged = [
        ratios[i] >= 10.0 or errors[i] <= floor for i in range(len(ratios))
    ]
    return MmsSpatialResult(
        case=case,
        dt=dt,
        T=T,
        ns=tuple(ns),
        errors=tuple(errors),
        ratios=tuple(ratios),
        floor=floor,
        converged=tuple(converged),
    )


# ---------------------------------------------------------------------------
# epsilon sweep and continuous dependence
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EpsSweepResult:
    eps: tuple[float, ...]
    deltas: tuple[float, ...]
    dt: float
    T: float

    @property
    def strictly_decreasing(self) -> bool:
        return all(a > b for a, b in zip(self.deltas, self.deltas[1:]))


def epsilon_sweep(
    initial: State,
    params: PhysParams,
    T: float,
    eps_list: tuple[float, ...],
    dt: float | None = None,
) -> EpsSweepResult:
    """Distance at time T to the eps=0 reference, one run per eps.

    The step is frozen from the stiffest (largest-eps) member so every
    member sees identical time discretization and the distances reflect the
    regularization alone.
    """
    eps_sorted = tuple(sorted(eps_list, reverse=True))
    if dt is None:
        dt = stable_dt(initial, replace(params, epsilon=eps_sorted[0]))
    opts = RunOptions(t_final=T, dt=dt, record_every=10**9)

    def run(eps: float) -> State:
        res = advance(initial, replace(params, epsilon=eps), opts)
        if res.fault is not None:
            raise res.fault
        return res.state

    reference = run(0.0)
    deltas = tuple(difference_norm(run(e), reference) for e in eps_sorted)
    return EpsSweepResult(eps=eps_sorted, deltas=deltas, dt=dt, T=T)


@dataclass(frozen=True)
class DependenceRow:
    delta: float
    response: float  # difference norm at T divided by delta
    dissipation: float  # int_0^T (|lap v_d|_2^2 + |dz sigma_d|_2^2) dt


@dataclass(frozen=True)
class DependenceResult:
    rows: tuple[DependenceRow, ...]
    slope: float
    dt: float
    T: float

    @property
    def max_response_variation(self) -> float:
        rs = [r.response for r in self.rows]
        return max(rs) / min(rs)


def continuous_dependence(
    initial: State,
    direction: State,
    deltas: tuple[float, ...],
    params: PhysParams,
    T: float,
    dt: float | None = None,
) -> DependenceResult:
    from .initial import perturbed

    if dt is None:
        dt = stable_dt(initial, params)
    opts = RunOptions(t_final=T, dt=dt, record_every=10**9, keep_states=True)

    base = advance(initial, params, opts)
    if base.fault is not None:
        raise base.fault

    rows = []
    for delta in deltas:
        res = advance(perturbed(initial, direction, delta), params, opts)
        if res.fault is not None:
            raise res.fault
        response = difference_norm(res.state, base.state) / delta
        dissip = 0.0
        for sa, sb in zip(res.states[:-1], base.states[:-1]):
            dv = sa.v.data - sb.v.data
            lap = np.stack(
                [
                    laplacian3(
                        ScalarField3D(sa.grid, dv[i], COS)
                    ).data
                    for i in range(2)
                ]
            )
            dz_ds = ddz(
                ScalarField3D(sa.grid, sa.sigma.data - sb.sigma.data, COS)
            )
            dissip += res.dt * (
                sobolev_norm(VectorField3D2C(sa.grid, lap, COS), 0) ** 2
                + sobolev_norm(dz_ds, 0) ** 2
            )
        rows.append(DependenceRow(delta=delta, response=response, dissipation=dissip))

    logs = np.log([r.delta for r in rows])
    slope = float(np.polyfit(logs, np.log([r.dissipation for r in rows]), 1)[0])
    return DependenceResult(rows=tuple(rows), slope=slope, dt=dt, T=T)


# ---------------------------------------------------------------------------
# Picard horizon escalation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EscalationLevel:
    T: float
    outcome: str  # "converged" | "no-contraction"
    iterations: int
    max_ratio: float
    detail: str = ""


@dataclass(frozen=True)
class EscalationResult:
    levels: tuple[EscalationLevel, ...]
    found: bool
    found_T: float | None


def picard_escalation(
    initial: State,
    params: PhysParams,
    T0: float,
    *,
    factor: float = 8.0,
    max_levels: int = 4,
    tol: float = 1e-9,
    max_iter: int = 30,
    ratio_bar: float = 0.5,
) -> EscalationResult:
    """Grow the horizon geometrically until the contraction mechanism fails
    (NoContraction) or visibly degrades (some ratio above ratio_bar)."""
    levels: list[EscalationLevel] = []
    T = T0
    for _ in range(max_levels):
        try:
            result = picard_solve(initial, params, T, tol=tol, max_iter=max_iter)
        except NoContraction as exc:
            rep = exc.report
            ratios = rep.ratios if rep is not None else []
            levels.append(
                EscalationLevel(
                    T=T,
                    outcome="no-contraction",
                    iterations=rep.iterations if rep is not None else 0,
                    max_ratio=max(ratios) if ratios else float("nan"),
                    detail=str(exc),
                )
            )
            return EscalationResult(tuple(levels), True, T)
        rep = result.report
        # ignore ratios computed after deltas fell to the roundoff floor
        meaningful = [
            r
            for r, d_prev in zip(rep.ratios, rep.deltas[:-1])
            if d_prev > 10.0 * tol
        ]
        max_ratio = max(meaningful) if meaningful else 0.0
        levels.append(
            EscalationLevel(
                T=T,
                outcome="converged",
                iterations=rep.iterations,
                max_ratio=max_ratio,
            )
        )
        if max_ratio > ratio_bar:
            return EscalationResult(tuple(levels), True, T)
        T *= factor
    return EscalationResult(tuple(levels), False, None)
