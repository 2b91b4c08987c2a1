"""Manufactured solutions, sweeps, dependence, Picard escalation."""

import warnings

import numpy as np
import pytest

from cpelab import (
    Grid,
    PhysParams,
    QNegativityWarning,
    UsageFault,
    make_initial,
    perturbation_direction,
)
from cpelab.experiments import (
    continuous_dependence,
    epsilon_sweep,
    mms_forcing,
    mms_run,
    mms_spatial,
    mms_temporal,
    picard_escalation,
)

STIFF = PhysParams(mu=4.0)  # hardens the temporal error signal above roundoff


def test_mms_constant_case_is_exact(params):
    out = mms_run("constant", 8, 1e-3, 0.01, params)
    assert out.err <= 1e-13


def test_mms_requires_known_case(params):
    with pytest.raises(UsageFault):
        mms_run("vortex", 8, 1e-3, 0.01, params)


def test_mms_a_osc_small_error(params):
    out = mms_run("A-osc", 8, 2e-4, 0.004, params)
    assert 0.0 < out.err < 1e-2
    assert out.n_steps == 20
    _, exact = mms_forcing("A-osc", Grid(8, 8, 8), params)
    ref = exact(0.004)
    gaps = [
        np.abs(out.state.v.data - ref.v.data).max(),
        np.abs(out.state.sigma.data - ref.sigma.data).max(),
        np.abs(out.state.p.data - ref.p.data).max(),
    ]
    assert out.err == max(gaps)


def test_mms_temporal_fourth_order():
    out = mms_temporal("A-osc", (8e-4, 4e-4, 2e-4), 8, 0.01, STIFF)
    assert 3.5 <= out.order <= 4.5
    assert len(out.orders) == 1  # successive-difference estimates


def test_mms_temporal_needs_three_dts():
    with pytest.raises(UsageFault):
        mms_temporal("A-osc", (8e-4, 4e-4), 8, 0.01, STIFF)


def test_mms_spatial_refinement():
    out = mms_spatial("A-osc", (8, 12), 2e-4, 0.004, STIFF)
    assert out.errors[0] / out.errors[1] >= 10.0
    assert all(out.converged)


def test_epsilon_sweep_monotone(weak_params):
    grid = Grid(12, 12, 12)
    st = make_initial("smooth-random", grid, weak_params, amplitude=0.1, seed=12)
    out = epsilon_sweep(st, weak_params, 0.02, (1e-2, 1e-3, 1e-4))
    assert out.strictly_decreasing
    assert all(d > 0 for d in out.deltas)
    # the reference and every regularized run share one dt
    assert out.dt > 0.0


def test_epsilon_sweep_zero_entry_is_reference(weak_params):
    """An eps=0 member reruns the reference and lands exactly on it."""
    grid = Grid(12, 12, 12)
    st = make_initial("smooth-random", grid, weak_params, amplitude=0.1, seed=12)
    out = epsilon_sweep(st, weak_params, 0.02, (0.0, 1e-2))
    assert out.eps == (1e-2, 0.0)  # sorted stiffest-first
    assert out.deltas[-1] == 0.0
    assert out.deltas[0] > 0.0


def test_continuous_dependence_quadratic_dissipation(weak_params):
    grid = Grid(12, 12, 12)
    st = make_initial("smooth-random", grid, weak_params, amplitude=0.1, seed=3)
    direction = perturbation_direction(grid, seed=4)
    out = continuous_dependence(st, direction, (1e-3, 1e-4), weak_params, 0.01)
    assert out.max_response_variation <= 1.5
    assert 1.7 <= out.slope <= 2.3
    for row in out.rows:
        assert row.dissipation > 0.0


@pytest.mark.parametrize("tol_bc, warned", [(10.0, False), (1e-30, True)])
def test_sweeps_pass_tol_bc(grid16, params, tol_bc, warned):
    """run.tol_bc reaches the step bound and every run of epsilon_sweep and
    continuous_dependence, and the heating warning is kept in the result
    instead of escaping."""
    # band 5 squares past the retained modes: the nodal Q dips to about -2
    st = make_initial(
        "smooth-random", grid16, params, amplitude=0.5, band=(5, 5, 5), seed=2
    )
    direction = perturbation_direction(grid16, seed=4)
    with warnings.catch_warnings(record=True) as leaked:
        warnings.simplefilter("always")
        sweep = epsilon_sweep(st, params, 1e-4, (1e-2,), tol_bc=tol_bc)
        dep = continuous_dependence(
            st, direction, (1e-3, 1e-4), params, 1e-4, tol_bc=tol_bc
        )
    assert not [w for w in leaked if issubclass(w.category, QNegativityWarning)]
    dip = "nodal heating dipped below -tol_bc (dealiasing truncation)"
    for result in (sweep, dep):
        assert (dip in result.warnings) == warned
        assert len(set(result.warnings)) == len(result.warnings)


def test_picard_escalation_small_horizon_converges(grid16, weak_params):
    st = make_initial("smooth-random", grid16, weak_params, amplitude=0.1, seed=2)
    out = picard_escalation(st, weak_params, 1e-3, max_levels=1)
    assert not out.found
    assert out.levels[0].outcome == "converged"
    assert out.levels[0].max_ratio <= 0.5
