"""The frozen-coefficient linear sweep behind the Picard solution map.

The three linear problems share RK4 and the channel parity products with
the nonlinear tendency, so a sweep driven by frozen samples of a nonlinear
RK4 trajectory reproduces that trajectory's stepping at the fixed point.
"""

from __future__ import annotations

import numpy as np

from .errors import StabilityFault
from .fields import State
from .norms import nodal_l2
from .params import PhysParams
from .tendencies import frozen_tendency, rk4_step

STABILITY_GROWTH = 10.0


def advance_coupled_linear(
    initial: State,
    params: PhysParams,
    dt: float,
    n_steps: int,
    sampler,
):
    """Advance the three frozen-coefficient problems in lockstep.

    ``sampler(step, stage, t)`` returns (sigma_k, N1, N2, N3) channel fields
    frozen from the previous sweep's trajectory. Returns (records, states)
    where records[n][j] is the stage-j State of step n (what the next sweep
    samples) and states[n] is the step-n State (for trajectory norms),
    including the initial state at index 0.

    Growth is measured against both the previous norm and the forced scale
    dt*||k1||, so a legitimate jump out of a near-zero state does not trip
    the detector while sustained geometric growth does.
    """
    records: list[list[State]] = []
    states: list[State] = [initial]
    state = initial
    for n in range(n_steps):

        def rhs(s: State, stage: int):
            sigma_k, *sources = sampler(n, stage, s.t)
            return frozen_tendency(s, params, sigma_k, sources)

        stages, k1, new_state = rk4_step(state, dt, rhs)
        before = nodal_l2(state.v, state.sigma, state.p)
        after = nodal_l2(new_state.v, new_state.sigma, new_state.p)
        floor = max(before, dt * nodal_l2(k1.dv, k1.dsigma, k1.dp), 1e-300)
        if not np.isfinite(after) or after > STABILITY_GROWTH * floor:
            raise StabilityFault(
                f"linear sweep norm grew {before:.3e} -> {after:.3e} in step {n}"
            )
        records.append(list(stages))
        states.append(new_state)
        state = new_state
    return records, states
