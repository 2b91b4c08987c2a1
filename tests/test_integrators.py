"""Time stepping: stable_dt, RK4 advance, Picard sweeps."""

import math
import sys
import warnings

import numpy as np
import pytest

import cpelab.diagnostics
import cpelab.integrators
from cpelab import (
    ConstraintFault,
    Grid,
    NoContraction,
    PhysParams,
    QNegativityWarning,
    RunOptions,
    StabilityFault,
    advance,
    compute_diagnostics,
    make_initial,
    picard_solve,
    stable_dt,
)
from cpelab.experiments import picard_escalation
from cpelab.fields import constant_state
from cpelab.norms import difference_norm

PHI_AMP = 1.4099434858699084  # pi^2/7


def test_stable_dt_scalings(grid16, params):
    st = constant_state(grid16)
    dt16 = stable_dt(st, params)
    assert dt16 > 0.0
    dt24 = stable_dt(constant_state(Grid(24, 24, 24)), params)
    assert dt24 < dt16
    stiff = stable_dt(st, PhysParams(mu=4.0))
    assert stiff < dt16
    # advection shortens the step
    moving = make_initial("example-A", grid16, params, amplitude=5.0)
    assert stable_dt(moving, params) < dt16


def test_stable_dt_from_given_diagnostics(grid16, params):
    st = make_initial("smooth-random", grid16, params, amplitude=0.3, seed=5)
    diag = compute_diagnostics(st, params)
    assert stable_dt(st, params, diag=diag) == stable_dt(st, params)


@pytest.mark.parametrize("record_every", [1, 3])
def test_advance_evaluates_each_state_once(
    grid16, weak_params, monkeypatch, record_every
):
    """N steps make 4N + 1 diagnostics evaluations: one per accepted state
    (shared by stable_dt, its record and the next stage-0 RHS) plus one in
    each of stages 1-3."""
    original = cpelab.diagnostics.compute_diagnostics
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        bound = getattr(module, "compute_diagnostics", None)
        if name.startswith("cpelab") and bound is original:
            monkeypatch.setattr(module, "compute_diagnostics", counted)
    st = make_initial("smooth-random", grid16, weak_params, amplitude=0.1, seed=1)
    t_final = 3.5 * stable_dt(st, weak_params)
    calls.clear()
    opts = RunOptions(t_final=t_final, record_every=record_every)
    res = advance(st, weak_params, opts)
    assert res.fault is None and res.n_steps == 4
    assert len(calls) == 4 * res.n_steps + 1


@pytest.mark.parametrize("tol_bc, warned", [(10.0, False), (1e-30, True)])
def test_advance_passes_tol_bc(grid16, params, tol_bc, warned):
    """run.tol_bc reaches every diagnostics evaluation of advance, stable_dt's
    included, and the heating warning never escapes advance."""
    # band 5 squares past the retained modes: the nodal Q dips to about -2
    st = make_initial(
        "smooth-random", grid16, params, amplitude=0.5, band=(5, 5, 5), seed=2
    )
    with warnings.catch_warnings(record=True) as leaked:
        warnings.simplefilter("always")
        res = advance(st, params, RunOptions(t_final=1e-4, tol_bc=tol_bc))
    assert res.fault is None
    assert not [w for w in leaked if issubclass(w.category, QNegativityWarning)]
    dip = "nodal heating dipped below -tol_bc (dealiasing truncation)"
    assert (dip in res.warnings) == warned


@pytest.mark.parametrize("tol_bc, warned", [(10.0, False), (1e-30, True)])
def test_picard_passes_tol_bc(grid16, params, tol_bc, warned):
    """run.tol_bc reaches picard_solve's stable_dt and frozen sources, and the
    heating warning is kept in the report instead of escaping."""
    st = make_initial(
        "smooth-random", grid16, params, amplitude=0.5, band=(5, 5, 5), seed=2
    )
    with warnings.catch_warnings(record=True) as leaked:
        warnings.simplefilter("always")
        try:
            report = picard_solve(st, params, T=1e-4, max_iter=1, tol_bc=tol_bc).report
        except NoContraction as exc:
            report = exc.report
    assert report.iterations == 1
    assert not [w for w in leaked if issubclass(w.category, QNegativityWarning)]
    dip = "nodal heating dipped below -tol_bc (dealiasing truncation)"
    assert (dip in report.warnings) == warned


def test_growth_detector_watches_p(grid16, params):
    """A step that grows only p tenfold is a StabilityFault."""
    st = constant_state(grid16)

    def forcing(t):
        return 0.0, 0.0, 1e5  # p: 1 -> 101 in one step; v and sigma stay put

    res = advance(st, params, RunOptions(t_final=1e-3, dt=1e-3), forcing=forcing)
    assert isinstance(res.fault, StabilityFault)
    assert res.n_steps == 1 and res.state is st


def test_run_options_validation():
    with pytest.raises(ConstraintFault):
        RunOptions(t_final=0.0)
    with pytest.raises(ConstraintFault):
        RunOptions(t_final=1.0, dt=-1e-3)
    with pytest.raises(ConstraintFault):
        RunOptions(t_final=1.0, record_every=0)


def test_equilibrium_is_fixed_point(grid16, params):
    st = constant_state(grid16)
    res = advance(st, params, RunOptions(t_final=0.05))
    assert res.fault is None
    assert np.array_equal(res.state.v.data, st.v.data)
    assert np.array_equal(res.state.sigma.data, st.sigma.data)
    assert np.array_equal(res.state.p.data, st.p.data)
    energies = {r.energy for r in res.reports}
    assert len(energies) == 1


def test_report_layout(grid16, params):
    st = make_initial("smooth-random", grid16, params, amplitude=0.05, seed=1)
    opts = RunOptions(t_final=0.01, record_every=4, keep_states=True)
    res = advance(st, params, opts)
    assert res.fault is None
    assert len(res.reports) == math.ceil(res.n_steps / 4) + 1
    # keep_states retains the full trajectory, reports only sampled steps
    assert len(res.states) == res.n_steps + 1
    assert res.reports[0].t == 0.0
    np.testing.assert_allclose(res.reports[-1].t, 0.01, atol=1e-15)
    # recorded times are strictly increasing
    ts = [r.t for r in res.reports]
    assert all(b > a for a, b in zip(ts, ts[1:]))


def test_example_a_taylor_step(grid16, params):
    """For one tiny step, sigma(T) = 1 - T (pi^2/7) cos(2 pi z) + O(T^2)."""
    st = make_initial("example-A", grid16, params, amplitude=1.0)
    _, _, Z = grid16.mesh3d()
    errs = {}
    for T in (4e-4, 2e-4):
        res = advance(st, params, RunOptions(t_final=T))
        taylor = 1.0 - T * PHI_AMP * np.cos(2 * np.pi * Z)
        errs[T] = np.abs(res.state.sigma.data - taylor).max()
    assert errs[4e-4] <= 1e-5
    # remainder is quadratic in the horizon
    assert 3.2 <= errs[4e-4] / errs[2e-4] <= 4.8


def test_forced_advance_exact_linear_growth(grid16, params):
    """Constant sigma-forcing on an equilibrium integrates exactly."""
    st = constant_state(grid16)
    shape = st.sigma.data.shape
    c = 0.35

    def forcing(t):
        return (
            np.zeros((2,) + shape),
            np.full(shape, c),
            np.zeros(st.p.data.shape),
        )

    res = advance(st, params, RunOptions(t_final=0.02, dt=2e-3), forcing=forcing)
    assert res.fault is None
    np.testing.assert_allclose(res.state.sigma.data, 1.0 + c * 0.02, rtol=1e-13)
    np.testing.assert_allclose(res.state.v.data, 0.0, atol=1e-14)


def test_linear_solver_raises_stability_fault(grid16, params, linear_run):
    """Past the RK4 limit the frozen-coefficient sweep trips the norm
    detector (nothing thermodynamic can fault first there)."""
    X, _, Z = grid16.mesh3d()
    v0 = np.stack([np.cos(3 * X) * np.cos(2 * np.pi * Z), np.zeros_like(X)])
    with pytest.raises(StabilityFault):
        linear_run(grid16, params, 0.05, 5e-3, v=v0)


def test_blowup_fault_captured(grid16, params):
    """In the nonlinear advance an unstable dt surfaces as a captured
    fault: the oscillating stiff sigma mode flips sign before the total
    norm can grow tenfold, so positivity is the detector that fires."""
    from cpelab import SigmaPositivityLost

    st = make_initial("smooth-random", grid16, params, amplitude=0.3, seed=7)
    res = advance(st, params, RunOptions(t_final=1.0, dt=0.05))
    assert isinstance(res.fault, SigmaPositivityLost)
    assert len(res.reports) >= 1  # partial records survive the fault
    assert np.isfinite(res.state.sigma.data).all()


def test_picard_constant_data(grid16, params):
    st = constant_state(grid16)
    out = picard_solve(st, params, T=1e-3)
    assert out.report.converged
    assert out.report.iterations <= 2
    assert out.report.deltas[-1] <= 1e-12


def test_picard_small_data_contracts(grid16, weak_params):
    st = make_initial("smooth-random", grid16, weak_params, amplitude=0.1, seed=2)
    out = picard_solve(st, weak_params, T=1e-3, tol=1e-9)
    assert out.report.converged
    assert out.report.iterations <= 10
    assert all(r <= 0.5 for r in out.report.ratios[1:])


@pytest.mark.parametrize(
    "shape", [(12, 12, 12), (12, 16, 9), (8, 12, 11)], ids=lambda s: "x".join(map(str, s))
)
def test_picard_matches_rk4(shape, weak_params):
    """The fixed point reproduces RK4 to roundoff, odd nz and non-cubic too."""
    st = make_initial("smooth-random", Grid(*shape), weak_params, amplitude=0.1, seed=4)
    out = picard_solve(st, weak_params, T=1e-3, tol=1e-9)
    rk = advance(st, weak_params, RunOptions(t_final=1e-3, dt=out.report.dt))
    assert rk.fault is None
    assert difference_norm(out.state, rk.state) <= 1e-12


def test_picard_over_memory_budget_faults(grid12, params, monkeypatch):
    """Stage records past the budget fault before the first sweep, naming
    the config key; the escalation records that horizon and finds nothing."""
    st = constant_state(grid12)
    monkeypatch.setattr(cpelab.integrators, "MEMORY_BUDGET_BYTES", 1e5)
    with pytest.raises(ConstraintFault) as info:
        picard_solve(st, params, T=1e-3)
    assert info.value.key == "picard.t"
    assert "steps need" in info.value.reason
    esc = picard_escalation(st, params, 1e-3)
    assert (esc.found, esc.found_T) == (False, None)
    assert [lv.outcome for lv in esc.levels] == ["over-budget"]


def test_picard_iteration_budget(grid16, weak_params):
    st = make_initial("smooth-random", grid16, weak_params, amplitude=0.1, seed=2)
    with pytest.raises(NoContraction):
        picard_solve(st, weak_params, T=1e-3, tol=1e-14, max_iter=2)
