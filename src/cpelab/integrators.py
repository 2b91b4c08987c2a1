"""Time integration: direct RK4 of the full nonlinear system, and the
fixed-point (Picard) solver built on frozen-coefficient linear sweeps.

The Picard map records every RK4 stage state of the current iterate; the
next sweep's linear problems sample coefficients and sources at exactly
those (step, stage) points. A fixed point of that map therefore reproduces
the nonlinear RK4 trajectory stage for stage, which is what makes the
cross-method comparison between the two integration paths meaningful.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .diagnostics import (
    DEFAULT_TOL_BC,
    DiagnosticFields,
    boundary_defects,
    compute_diagnostics,
    total_mass,
)
from .errors import ConstraintFault, CpeError, NoContraction, StabilityFault
from .fields import ScalarField2D, ScalarField3D, State, VectorField3D2C
from .norms import EnergyReport, _state_sq_norm, energy_report, nodal_l2
from .params import PhysParams
from .parabolic import advance_coupled_linear
from .spectral import ProductWorkspace
from .tendencies import (
    StateTendency,
    check_positivity,
    frozen_sources,
    regularized_tendency,
    rk4_step,
)


@dataclass(frozen=True)
class RunOptions:
    t_final: float
    dt: float | None = None  # None -> stable_dt at the initial state
    record_every: int = 1
    cfl: float = 1.0
    fault_floor: float = 1e-8
    tol_bc: float = DEFAULT_TOL_BC
    keep_states: bool = False

    def __post_init__(self):
        if not self.t_final > 0.0:
            raise ConstraintFault("t_final", "must be positive")
        if self.dt is not None and not self.dt > 0.0:
            raise ConstraintFault("dt", "must be positive")
        if self.record_every < 1:
            raise ConstraintFault("record_every", "must be >= 1")
        if not (math.isfinite(self.cfl) and self.cfl > 0.0):
            raise ConstraintFault("cfl", "must be finite and positive")


@dataclass(frozen=True)
class AdvanceResult:
    state: State
    reports: list[EnergyReport]
    fault: CpeError | None
    dt: float
    n_steps: int
    warnings: list[str] = field(default_factory=list)
    states: list[State] | None = None


def stable_dt(
    state: State,
    params: PhysParams,
    cfl: float = 1.0,
    diag: DiagnosticFields | None = None,
) -> float:
    """Explicit step bound from the stiffest retained modes.

    Diffusive rates use the grid's retained-mode cutoffs ``kh_max_sq``,
    ``kz_max_sq`` and ``k_max_sq``; advective rates use the sup of |v| and
    of the diagnosed |w| (from ``diag`` when given, else evaluated here).
    """
    g = state.grid
    if diag is None:
        diag = compute_diagnostics(state, params)
    kh2, kz2, k2 = g.kh_max_sq, g.kz_max_sq, g.k_max_sq
    sig_max = float(state.sigma.data.max())
    v_inf = float(np.abs(state.v.data).max())
    w_inf = float(np.abs(diag.w.data).max())
    denom = (
        params.mu * sig_max * k2
        + (params.mu + params.lam) * sig_max * kh2
        + params.nu * sig_max * kz2
        + params.epsilon * kh2
        + v_inf * math.sqrt(k2)
        + w_inf * np.pi * g.nz
    )
    return cfl / denom


def _divide(T: float, dt: float) -> tuple[int, float]:
    """The fewest equal steps, no longer than dt up to roundoff, that make up
    T: their number and length."""
    n_steps = max(1, math.ceil(T / dt - 1e-12))
    return n_steps, T / n_steps


def _with_forcing(tend: StateTendency, forcing, t: float, grid) -> StateTendency:
    if forcing is None:
        return tend
    fv, fs, fp = forcing(t)
    return StateTendency(
        dv=VectorField3D2C(grid, tend.dv.data + fv, tend.dv.parity),
        dsigma=ScalarField3D(grid, tend.dsigma.data + fs, tend.dsigma.parity),
        dp=ScalarField2D(grid, tend.dp.data + fp),
    )


def advance(
    state: State,
    params: PhysParams,
    opts: RunOptions,
    forcing=None,
) -> AdvanceResult:
    """RK4 to t_final with the energy monitor; partial results survive faults.

    ``forcing``: optional callable t -> (fv, fsigma, fp) nodal arrays added
    to the tendency (used by manufactured-solution runs).

    Each accepted state's diagnostics are evaluated once, in one workspace,
    for ``stable_dt`` (initial state only), its record and the next stage-0
    RHS; stages 1-3 evaluate their own.
    """
    reports: list[EnergyReport] = []
    states: list[State] | None = [state] if opts.keep_states else None
    fault: CpeError | None = None

    # a helper, so that no local of advance holds a workspace past stage 0
    def evaluate(s: State):
        ws = ProductWorkspace(s.grid)
        return ws, compute_diagnostics(s, params, ws, opts.tol_bc)

    def rhs(s: State, stage: int) -> StateTendency:
        nonlocal start
        ws, diag = start if stage == 0 else (None, None)
        start = None  # free the workspace's fine-grid memo before stage 1
        tend = regularized_tendency(
            s, params, diag, ws, fault_floor=opts.fault_floor, tol_bc=opts.tol_bc
        )
        return _with_forcing(tend, forcing, s.t, s.grid)

    def record(s: State, diag: DiagnosticFields):
        w_def, phi_def = boundary_defects(diag)
        reports.append(
            energy_report(
                s, mass=total_mass(s.sigma), w_defect=w_def, phi_defect=phi_def
            )
        )

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        # (workspace, diagnostics) of the state the next step starts from
        start = evaluate(state)
        dt = opts.dt or stable_dt(state, params, opts.cfl, start[1])
        n_steps, dt = _divide(opts.t_final, dt)
        record(state, start[1])
        for n in range(n_steps):
            try:
                _, _, new_state = rk4_step(state, dt, rhs)
                before = nodal_l2(state.v, state.sigma, state.p)
                after = nodal_l2(new_state.v, new_state.sigma, new_state.p)
                if not np.isfinite(after) or after > 10.0 * max(before, 1e-300):
                    raise StabilityFault(
                        f"norm grew {before:.3e} -> {after:.3e} in step {n}"
                    )
                # the growth detector can miss a sign flip at modest norm,
                # so do not accept states the tendency would reject anyway
                check_positivity(new_state, params, opts.fault_floor)
                state = new_state
                if states is not None:
                    states.append(state)
                start = evaluate(state)
                if (n + 1) % opts.record_every == 0 or n + 1 == n_steps:
                    record(state, start[1])
            except CpeError as exc:
                fault = exc
                break
        # each message text once, in order of first appearance
        warn_log = list(dict.fromkeys(str(w.message) for w in caught))

    return AdvanceResult(
        state=state,
        reports=reports,
        fault=fault,
        dt=dt,
        n_steps=n_steps,
        warnings=warn_log,
        states=states,
    )


# ---------------------------------------------------------------------------
# Picard iteration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PicardReport:
    deltas: list[float]
    ratios: list[float]
    converged: bool
    iterations: int
    dt: float
    n_steps: int
    warnings: list[str] = field(default_factory=list)


@dataclass(frozen=True)
class PicardResult:
    state: State
    states: list[State]
    report: PicardReport


def _trajectory_delta(a: list[State], b: list[State]) -> float:
    return max(math.sqrt(_state_sq_norm(sa, (3, 3, 3), sb)) for sa, sb in zip(a, b))


MEMORY_BUDGET_BYTES = 8e8


def picard_solve(
    initial: State,
    params: PhysParams,
    T: float,
    tol: float = 1e-9,
    max_iter: int = 30,
    tol_bc: float = DEFAULT_TOL_BC,
) -> PicardResult:
    """Iterate the frozen-coefficient solution map to its fixed point, with
    steps of ``stable_dt`` (at cfl 1) of the initial state shortened to
    divide T.

    Raises NoContraction (with the partial report attached) when three
    consecutive contraction ratios reach 1, when a linear sweep goes
    unstable, or when max_iter sweeps do not reach tol — all signatures of
    a horizon T too large for the contraction mechanism. Warnings raised on
    the way are kept in the report, each message text once. Raises
    ConstraintFault("picard.t") before the first sweep when the stage
    records of one sweep would exceed MEMORY_BUDGET_BYTES.
    """
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        ws = ProductWorkspace(initial.grid)
        diag = compute_diagnostics(initial, params, ws, tol_bc)
        dt = stable_dt(initial, params, diag=diag)
        n_steps, dt = _divide(T, dt)

        state_bytes = (
            initial.v.data.nbytes + initial.sigma.data.nbytes + initial.p.data.nbytes
        )
        record_bytes = 4 * n_steps * state_bytes
        if record_bytes > MEMORY_BUDGET_BYTES:
            raise ConstraintFault(
                "picard.t",
                f"{n_steps} steps need {record_bytes:.3g} bytes of stage records, "
                f"over the {MEMORY_BUDGET_BYTES:.3g}-byte budget",
            )
        # the initial state is every record of sweep 0 and records[0][0] of
        # every later sweep; its sources share the diagnostics above
        initial_sources = (initial.sigma, *frozen_sources(initial, params, diag, ws))
        del ws, diag  # free the fine-grid memo before the sweeps

        # sweep 0: the constant-in-time trajectory at the initial data
        records: list[list[State]] = [[initial] * 4 for _ in range(n_steps)]
        prev_states: list[State] = [initial] * (n_steps + 1)

        deltas: list[float] = []
        ratios: list[float] = []

        def make_report(converged: bool, iterations: int) -> PicardReport:
            return PicardReport(
                deltas=list(deltas),
                ratios=list(ratios),
                converged=converged,
                iterations=iterations,
                dt=dt,
                n_steps=n_steps,
                warnings=list(dict.fromkeys(str(w.message) for w in caught)),
            )

        def sampler(step: int, stage: int, t: float):
            rec = records[step][stage]
            if rec is initial:
                return initial_sources
            return (rec.sigma, *frozen_sources(rec, params, tol_bc=tol_bc))

        for sweep in range(1, max_iter + 1):
            try:
                new_records, new_states = advance_coupled_linear(
                    initial, params, dt, n_steps, sampler
                )
            except CpeError as exc:
                raise NoContraction(
                    f"linear sweep {sweep} failed: {exc}", make_report(False, sweep)
                ) from exc

            d = _trajectory_delta(new_states, prev_states)
            deltas.append(d)
            if len(deltas) >= 2:
                prev = deltas[-2]
                ratios.append(d / prev if prev > 0 else 0.0)
            records = new_records
            prev_states = new_states

            if d <= tol:
                return PicardResult(
                    state=new_states[-1],
                    states=new_states,
                    report=make_report(True, sweep),
                )
            if len(ratios) >= 3 and all(r >= 1.0 for r in ratios[-3:]):
                raise NoContraction(
                    f"ratios {ratios[-3:]} show no contraction at T={T:g}",
                    make_report(False, sweep),
                )

        raise NoContraction(
            f"no convergence to {tol:g} within {max_iter} sweeps at T={T:g}",
            make_report(False, max_iter),
        )
