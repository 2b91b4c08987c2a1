"""Verification experiments.

Manufactured-solution forcing is written in closed form from the continuous
system (not from the discrete operators), so a forced run measures both the
temporal order of the integrator and the spatial truncation of the spectral
discretization — the two error floors the convergence criteria separate.
The tests check the closed form against a symbolic derivation.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .diagnostics import DEFAULT_TOL_BC, compute_diagnostics
from .errors import ConstraintFault, NoContraction, UsageFault
from .fields import COS, ScalarField2D, ScalarField3D, State, VectorField3D2C
from .grid import Grid
from .integrators import RunOptions, advance, picard_solve, stable_dt
from .norms import difference_norm, gap_dissipation
from .params import PhysParams


def _constant(t, x, z, params: PhysParams):
    """v = 0, sigma = p = 1: an equilibrium, so the forcing is zero."""
    return (0.0, 0.0, 1.0, 1.0), (0.0, 0.0, 0.0, 0.0)


def _a_osc(t, x, z, params: PhysParams):
    """v1 = E cz C, v2 = 0, sigma = 1 + a E cz, p = 1 + a E C, with
    E = exp(-t), C, S = cos x, sin x, cz, sz = cos pi z, sin pi z, a = 1/10.

    The forcing is F = dt u - rhs(u), term by term. cz and cos 2 pi z have
    zero vertical mean, so the mean velocity and mean divergence vanish and
    only the heating Q has a mean.
    """
    g, mu, lam, nu, eps = params.gamma, params.mu, params.lam, params.nu, params.epsilon
    pi, a, E = math.pi, 0.1, math.exp(-t)
    C, S = np.cos(x), np.sin(x)
    cz, sz = np.cos(pi * z), np.sin(pi * z)
    c2z, s2z = np.cos(2.0 * pi * z), np.sin(2.0 * pi * z)

    v1 = E * cz * C
    sig = 1.0 + a * E * cz
    p = 1.0 + a * E * C
    v1_x, v1_z = -E * cz * S, -pi * E * sz * C  # v1_x is div_h v
    sig_z, sig_zz = -pi * a * E * sz, -(pi**2) * a * E * cz
    p_x, p_xx = -a * E * S, -a * E * C

    # Q = (2 mu + lam) v1_x^2 + mu v1_z^2, with cz^2, sz^2 = (1 +- cos 2 pi z)/2
    stretch, shear = (2.0 * mu + lam) * S**2, mu * pi**2 * C**2
    q_bar = 0.5 * E**2 * (stretch + shear)
    q_wave = 0.5 * E**2 * (stretch - shear)  # Q - q_bar = q_wave cos 2 pi z

    # phi = v1_x + (v1 p_x - (gamma - 1)(Q - q_bar)) / (gamma p)
    #     = phi1 cz + phi2 cos 2 pi z, integrated from 0 to z in closed form
    phi1 = -E * S + E * C * p_x / (g * p)
    phi2 = -(g - 1.0) * q_wave / (g * p)
    phi = phi1 * cz + phi2 * c2z
    w = nu * sig_z - (phi1 * sz / pi + phi2 * s2z / (2.0 * pi))

    # Lap v1 = -(1 + pi^2) v1 and dx div_h v = v1_xx = -v1
    rhs_v1 = (
        -v1 * v1_x
        - w * v1_z
        - sig * p_x
        - mu * sig * (1.0 + pi**2) * v1
        - (mu + lam) * sig * v1
    )
    rhs_sig = -w * sig_z + sig * (v1_x - phi) + nu * sig * sig_zz
    rhs_p = (g - 1.0) * q_bar + eps * p_xx
    f_v1 = -v1 - rhs_v1
    f_sig = -a * E * cz - rhs_sig
    f_p = -a * E * C - rhs_p
    # p and its forcing depend on x alone: drop the z axis for the 2D layout
    return (v1, 0.0, sig, p[..., 0]), (f_v1, 0.0, f_sig, f_p[..., 0])


MMS_CASES = {"constant": _constant, "A-osc": _a_osc}


def _nodal(term, shape) -> np.ndarray:
    return np.ascontiguousarray(np.broadcast_to(term, shape), dtype=float)


def mms_forcing(case: str, grid: Grid, params: PhysParams):
    """(forcing(t), exact(t)) callables on the given grid.

    Both evaluate on sparse meshes, so a term of (x, z) alone is computed
    on (nx, 1, nz+1) nodes and broadcast along y."""
    solution = MMS_CASES.get(case)
    if solution is None:
        known = ", ".join(MMS_CASES)
        raise UsageFault(f"unknown manufactured case {case!r}; known: {known}")
    x, _, z = np.meshgrid(
        grid.x_nodes, grid.y_nodes, grid.z_nodes, indexing="ij", sparse=True
    )
    s3, s2 = grid.shape3d, grid.shape2d

    def pair(v1, v2) -> np.ndarray:
        return np.stack([np.broadcast_to(v1, s3), np.broadcast_to(v2, s3)])

    def exact(t: float) -> State:
        v1, v2, sig, p = solution(t, x, z, params)[0]
        return State(
            VectorField3D2C(grid, pair(v1, v2), COS),
            ScalarField3D(grid, _nodal(sig, s3), COS),
            ScalarField2D(grid, _nodal(p, s2)),
            t=t,
        )

    def forcing(t: float):
        fv1, fv2, fsig, fp = solution(t, x, z, params)[1]
        return pair(fv1, fv2), _nodal(fsig, s3), _nodal(fp, s2)

    return forcing, exact


@dataclass(frozen=True)
class MmsResult:
    case: str
    n: int
    dt: float
    n_steps: int
    T: float
    err: float  # max abs gap of v, sigma and p to the exact state at T
    state: State


def _state_gap(a: State, b: State) -> float:
    return max(
        float(np.abs(a.v.data - b.v.data).max()),
        float(np.abs(a.sigma.data - b.sigma.data).max()),
        float(np.abs(a.p.data - b.p.data).max()),
    )


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
    return MmsResult(
        case=case,
        n=n,
        dt=res.dt,
        n_steps=res.n_steps,
        T=T,
        err=_state_gap(res.state, exact(T)),
        state=res.state,
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


def _initial_dt(initial: State, params: PhysParams, tol_bc: float):
    """stable_dt of the initial state, its diagnostics evaluated with tol_bc,
    and the message texts of the warnings they raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        diag = compute_diagnostics(initial, params, tol_bc=tol_bc)
        dt = stable_dt(initial, params, diag=diag)
    return dt, [str(w.message) for w in caught]


@dataclass(frozen=True)
class EpsSweepResult:
    eps: tuple[float, ...]
    deltas: tuple[float, ...]
    dt: float
    T: float
    warnings: tuple[str, ...] = ()  # each message text once

    @property
    def strictly_decreasing(self) -> bool:
        return all(a > b for a, b in zip(self.deltas, self.deltas[1:]))


def epsilon_sweep(
    initial: State,
    params: PhysParams,
    T: float,
    eps_list: tuple[float, ...],
    tol_bc: float = DEFAULT_TOL_BC,
) -> EpsSweepResult:
    """Distance at time T to the eps=0 reference, one run per eps.

    The step is frozen from the stiffest (largest-eps) member so every
    member sees identical time discretization and the distances reflect the
    regularization alone. Every diagnostics evaluation uses ``tol_bc``; the
    warnings of the step bound and of the runs are kept in the result.
    """
    eps_sorted = tuple(sorted(eps_list, reverse=True))
    dt, seen = _initial_dt(initial, replace(params, epsilon=eps_sorted[0]), tol_bc)
    opts = RunOptions(t_final=T, dt=dt, record_every=10**9, tol_bc=tol_bc)

    def run(eps: float) -> State:
        res = advance(initial, replace(params, epsilon=eps), opts)
        seen.extend(res.warnings)
        if res.fault is not None:
            raise res.fault
        return res.state

    reference = run(0.0)
    deltas = tuple(difference_norm(run(e), reference) for e in eps_sorted)
    return EpsSweepResult(
        eps=eps_sorted, deltas=deltas, dt=dt, T=T, warnings=tuple(dict.fromkeys(seen))
    )


@dataclass(frozen=True)
class DependenceRow:
    delta: float
    response: float  # difference norm at T divided by delta
    # int_0^T (|lap v_d|_2^2 + |dz sigma_d|_2^2) dt as a left-rectangle sum
    # over the steps, each integrand a weighted sum of the gap's spectrum
    dissipation: float


@dataclass(frozen=True)
class DependenceResult:
    rows: tuple[DependenceRow, ...]
    slope: float
    dt: float
    T: float
    warnings: tuple[str, ...] = ()  # each message text once

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
    tol_bc: float = DEFAULT_TOL_BC,
) -> DependenceResult:
    """Response and dissipation of the gap to the base run, per delta, with
    the step ``stable_dt`` of the initial state. The dissipation is a
    left-rectangle sum over the steps of ``gap_dissipation``, a weighted sum
    of the gap's power spectrum.

    Every diagnostics evaluation uses ``tol_bc``; the warnings of the step
    bound and of the runs are kept in the result."""
    from .initial import perturbed

    dt, seen = _initial_dt(initial, params, tol_bc)
    opts = RunOptions(
        t_final=T, dt=dt, record_every=10**9, tol_bc=tol_bc, keep_states=True
    )

    base = advance(initial, params, opts)
    seen.extend(base.warnings)
    if base.fault is not None:
        raise base.fault

    rows = []
    for delta in deltas:
        res = advance(perturbed(initial, direction, delta), params, opts)
        seen.extend(res.warnings)
        if res.fault is not None:
            raise res.fault
        response = difference_norm(res.state, base.state) / delta
        dissip = sum(
            res.dt * gap_dissipation(sa, sb)
            for sa, sb in zip(res.states[:-1], base.states[:-1])
        )
        rows.append(DependenceRow(delta=delta, response=response, dissipation=dissip))

    logs = np.log([r.delta for r in rows])
    slope = float(np.polyfit(logs, np.log([r.dissipation for r in rows]), 1)[0])
    return DependenceResult(
        rows=tuple(rows), slope=slope, dt=dt, T=T, warnings=tuple(dict.fromkeys(seen))
    )


# ---------------------------------------------------------------------------
# Picard horizon escalation
# ---------------------------------------------------------------------------


# a converged level with a meaningful ratio above this has visibly degraded
RATIO_BAR = 0.5


@dataclass(frozen=True)
class EscalationLevel:
    T: float
    outcome: str  # "converged" | "no-contraction" | "over-budget"
    iterations: int
    max_ratio: float
    detail: str = ""
    warnings: tuple[str, ...] = ()  # the level's PicardReport.warnings


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
    tol_bc: float = DEFAULT_TOL_BC,
) -> EscalationResult:
    """Grow the horizon geometrically until the contraction mechanism fails
    (NoContraction) or visibly degrades (some ratio above RATIO_BAR). A
    horizon whose stage records exceed the Picard memory budget ends the
    escalation as "over-budget", with nothing found."""
    levels: list[EscalationLevel] = []
    T = T0
    for _ in range(max_levels):
        try:
            result = picard_solve(
                initial, params, T, tol=tol, max_iter=max_iter, tol_bc=tol_bc
            )
        except ConstraintFault as exc:
            levels.append(
                EscalationLevel(
                    T=T,
                    outcome="over-budget",
                    iterations=0,
                    max_ratio=float("nan"),
                    detail=str(exc),
                )
            )
            return EscalationResult(tuple(levels), False, None)
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
                    warnings=tuple(rep.warnings) if rep is not None else (),
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
                warnings=tuple(rep.warnings),
            )
        )
        if max_ratio > RATIO_BAR:
            return EscalationResult(tuple(levels), True, T)
        T *= factor
    return EscalationResult(tuple(levels), False, None)
