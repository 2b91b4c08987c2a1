"""Acceptance gate: one test per guaranteed behavior, at the stated scales.

Each test prints the measured quantities so a failure line carries its
evidence. Several of these run full trajectories at 24^3/32^3 and take
seconds to a minute each; run this module with `-v` to get the per-item
pass/fail lines.
"""

import csv
import math

import numpy as np
import pytest

from cpelab import (
    Grid,
    PhysParams,
    RunOptions,
    advance,
    make_initial,
    picard_solve,
)
from cpelab.cli import main as cli_main
from cpelab.diagnostics import compute_diagnostics, continuity_residual, total_mass
from cpelab.experiments import (
    continuous_dependence,
    epsilon_sweep,
    mms_spatial,
    mms_temporal,
    picard_escalation,
)
from cpelab.fields import constant_state
from cpelab.ineq import constant_commutator_sample, run_trials
from cpelab.initial import perturbation_direction
from cpelab.norms import difference_norm
from cpelab.spectral import ProductWorkspace, vertical_average
from cpelab.tendencies import frozen_sources, regularized_tendency


@pytest.fixture(scope="module")
def grid24():
    return Grid(24, 24, 24)


@pytest.fixture(scope="module")
def grid32():
    return Grid(32, 32, 32)


def sup(arr) -> float:
    return float(np.abs(arr).max())


def test_c01_diagnosed_w_and_phi_satisfy_wall_conditions(grid24, params):
    """100 seeded smooth states: vertical mean of phi and w at the walls."""
    ws = ProductWorkspace(grid24)
    worst_phi = worst_w_top = worst_w_bot = 0.0
    for seed in range(100):
        st = make_initial(
            "smooth-random", grid24, params, amplitude=0.1, seed=seed
        )
        diag = compute_diagnostics(st, params, ws)
        worst_phi = max(worst_phi, sup(vertical_average(diag.phi).data))
        worst_w_bot = max(worst_w_bot, sup(diag.w.data[..., 0]))
        worst_w_top = max(worst_w_top, sup(diag.w.data[..., -1]))
    print(
        f"phi-average defect {worst_phi:.3e}, w(0) {worst_w_bot:.3e}, "
        f"w(1) {worst_w_top:.3e} over 100 seeds"
    )
    assert worst_w_bot == 0.0
    assert worst_w_top <= 1e-11
    assert worst_phi <= 1e-11


@pytest.mark.parametrize("eps", [0.0, 1e-3, 1.0])
def test_c02_constant_states_are_equilibria(grid24, grid12, eps):
    params = PhysParams(epsilon=eps)
    tend = regularized_tendency(constant_state(grid24), params)
    resid = max(sup(tend.dv.data), sup(tend.dsigma.data), sup(tend.dp.data))
    res = advance(
        constant_state(grid12), params, RunOptions(t_final=1.0, record_every=10**9)
    )
    assert res.fault is None
    drift = max(
        sup(res.state.v.data),
        sup(res.state.sigma.data - 1.0),
        sup(res.state.p.data - 1.0),
    )
    print(f"eps={eps:g}: tendency {resid:.3e}, drift over T=1 {drift:.3e}")
    assert resid <= 1e-12
    assert drift <= 1e-12


def test_c03_cosine_column_closed_form_diagnostics(grid32, params):
    st = make_initial("example-A", grid32, params, amplitude=1.0)
    diag = compute_diagnostics(st, params)
    z = grid32.mesh3d()[2]
    phi_exact = (np.pi**2 / 7.0) * np.cos(2.0 * np.pi * z)
    w_exact = -(np.pi / 14.0) * np.sin(2.0 * np.pi * z)
    scale_phi = sup(phi_exact)
    scale_w = sup(w_exact)
    err_phi = sup(diag.phi.data - phi_exact) / scale_phi
    err_w = sup(diag.w.data - w_exact) / scale_w
    # N_3 is Phi_3 here: p is constant, so vbar . grad_h p vanishes exactly
    _, _, p3 = frozen_sources(st, params, diag)
    err_p3 = sup(p3.data - 0.2 * np.pi**2) / (0.2 * np.pi**2)
    print(f"rel errors: phi {err_phi:.3e}, w {err_w:.3e}, Phi3 {err_p3:.3e}")
    assert err_phi <= 1e-9
    assert err_w <= 1e-9
    assert err_p3 <= 1e-9


def test_c04_mass_drift_vanishes_with_regularization(grid16):
    base = PhysParams()
    st = make_initial("smooth-random", grid16, base, amplitude=0.1, seed=12)
    mass0 = total_mass(st.sigma)
    opts = RunOptions(t_final=0.1, record_every=10**9)

    def drift(eps: float) -> float:
        res = advance(st, PhysParams(epsilon=eps), opts)
        assert res.fault is None
        return abs(total_mass(res.state.sigma) - mass0) / abs(mass0)

    d0 = drift(0.0)
    deps = [drift(e) for e in (1e-2, 1e-3, 1e-4)]
    print(f"rel mass drift: eps=0 {d0:.3e}; eps sweep {[f'{d:.3e}' for d in deps]}")
    assert d0 <= 1e-8
    assert all(d > 0.0 for d in deps)
    assert deps[0] / deps[1] >= 5.0
    assert deps[1] / deps[2] >= 5.0


def test_c05_continuity_residual_along_trajectory(grid32, params):
    st = make_initial("smooth-random", grid32, params, amplitude=0.05, seed=5)
    opts = RunOptions(t_final=0.01, record_every=20, keep_states=True)
    res = advance(st, params, opts)
    assert res.fault is None
    samples = res.states[:: opts.record_every]
    if (len(res.states) - 1) % opts.record_every:
        samples.append(res.states[-1])
    ws = ProductWorkspace(grid32)
    worst = 0.0
    for s in samples:
        tend = regularized_tendency(s, params, ws=ws)
        worst = max(worst, continuity_residual(s, tend.dsigma, params, ws=ws))
    print(f"max continuity residual over {len(samples)} recorded states: {worst:.3e}")
    assert worst <= 1e-7


def test_c06_manufactured_solution_orders(grid16, params):
    stiff = PhysParams(mu=4.0)
    rt = mms_temporal("A-osc", (4e-4, 2e-4, 1e-4), 8, 0.05, stiff)
    rs = mms_spatial("A-osc", (16, 24, 32), 1e-4, 0.01, params)
    print(
        f"temporal order {rt.orders[-1]:.4f}; spatial errors "
        f"{[f'{e:.3e}' for e in rs.errors]} ratios {[f'{r:.3g}' for r in rs.ratios]}"
    )
    assert abs(rt.orders[-1] - 4.0) <= 0.3
    assert rs.ratios[0] >= 10.0
    assert all(rs.converged)


def test_c07_epsilon_sweep_converges_monotonically(grid16, params):
    st = make_initial("smooth-random", grid16, params, amplitude=0.1, seed=7)
    sw = epsilon_sweep(st, params, 0.05, (1e-2, 1e-3, 1e-4))
    print(f"eps {sw.eps} -> deltas {[f'{d:.4e}' for d in sw.deltas]}")
    assert sw.eps == (1e-2, 1e-3, 1e-4)
    assert sw.strictly_decreasing


def test_c08_linear_response_and_quadratic_dissipation(grid16, params):
    st = make_initial("smooth-random", grid16, params, amplitude=0.1, seed=3)
    direction = perturbation_direction(grid16, seed=4)
    dep = continuous_dependence(st, direction, (1e-3, 1e-4, 1e-5), params, 0.02)
    responses = [r.response for r in dep.rows]
    print(
        f"normalized responses {[f'{r:.4f}' for r in responses]} "
        f"(variation {dep.max_response_variation:.3f}x), "
        f"dissipation slope {dep.slope:.4f}"
    )
    assert dep.max_response_variation <= 2.0
    assert abs(dep.slope - 2.0) <= 0.3


def test_c09_positivity_floors_hold_on_half_background(grid24, params):
    st = make_initial("smooth-random", grid24, params, amplitude=0.1, seed=9)
    assert st.sigma.data.min() == pytest.approx(params.sigma_floor)
    res = advance(st, params, RunOptions(t_final=0.05, record_every=10))
    assert res.fault is None
    ts = np.array([r.t for r in res.reports[1:]])
    min_sig = np.array([r.min_sigma for r in res.reports[1:]])
    min_p = np.array([r.min_p for r in res.reports[1:]])
    slope_sig = float(np.polyfit(ts, np.log(min_sig), 1)[0])
    slope_p = float(np.polyfit(ts, np.log(min_p), 1)[0])
    print(
        f"min sigma {min_sig.min():.4f}, min p {min_p.min():.4f}; "
        f"log-min slopes {slope_sig:.4f}, {slope_p:.4f}"
    )
    assert min_sig.min() >= 0.25
    assert min_p.min() >= 0.25
    assert math.isfinite(slope_sig) and math.isfinite(slope_p)


def test_c10_picard_contracts_and_escalation_finds_breakdown(grid16):
    weak = PhysParams(mu=0.02, lam=0.02, kappa=0.02)
    st = make_initial("smooth-random", grid16, weak, amplitude=0.1, seed=10)
    tol = 1e-9
    out = picard_solve(st, weak, 1e-3, tol=tol)
    rk = advance(st, weak, RunOptions(t_final=1e-3, dt=out.report.dt))
    gap = difference_norm(out.state, rk.state)
    esc = picard_escalation(st, weak, 1e-3, factor=8.0, max_levels=4, tol=tol)
    last = esc.levels[-1]
    print(
        f"{out.report.iterations} sweeps, ratios "
        f"{[f'{r:.3f}' for r in out.report.ratios]}, RK4 gap {gap:.3e}; "
        f"escalation found_T={esc.found_T} ({last.outcome}, "
        f"max_ratio {last.max_ratio:.3f})"
    )
    assert out.report.iterations <= 10
    assert all(r <= 0.5 for r in out.report.ratios[1:])
    assert gap <= 10.0 * tol
    assert esc.found
    assert last.outcome == "no-contraction" or last.max_ratio > 0.5


def test_c11_inequality_constants_saturate_across_bands():
    exps = (2.0, math.inf, 2.0, math.inf, 2.0)
    worst = {}
    for kind in ("CAL", "COME"):
        for band in (8, 12):
            stats = run_trials(kind, 2, exps, 200, band, 42)
            assert math.isfinite(stats.max_ratio)
            worst[kind, band] = stats.max_ratio
    const = constant_commutator_sample(seed=42)
    print(
        f"max ratios {[f'{k[0]}@{k[1]}: {v:.4f}' for k, v in worst.items()]}; "
        f"constant commutator lhs {const.lhs}"
    )
    for kind in ("CAL", "COME"):
        assert worst[kind, 12] <= 1.5 * worst[kind, 8]
    assert const.lhs == 0.0
    assert const.ratio == 0.0


def test_c12_same_seed_reruns_are_byte_identical(tmp_path):
    cfg = tmp_path / "case.ini"
    cfg.write_text(
        "[grid]\nnx = 16\nny = 16\nnz = 16\n\n"
        "[initial]\nfamily = smooth-random\namplitude = 0.1\n\n"
        "[run]\nt_final = 0.005\ndt = 5e-4\nrecord_every = 2\nseed = 6\n"
    )
    blobs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        code = cli_main(
            ["run", "--config", str(cfg), "--out", str(out), "--quiet"]
        )
        assert code == 0
        blobs.append((out / "run.csv").read_bytes())
        with open(out / "run.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 6  # 10 steps at record_every=2, plus t=0
    assert blobs[0] == blobs[1]
    print(f"run.csv identical across reruns ({len(blobs[0])} bytes)")
