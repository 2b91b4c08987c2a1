"""The benchmark's three workloads: seeded inputs, round checks, references.

Each workload writes an INI config (and, where it needs one, an initial
snapshot) from the seed, names the `cpelab` subcommand one round runs, and
checks a round's output directory with the cpelab-free code in `checks`.
The once-per-run reference states come from library calls made here,
outside the timed rounds.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

import checks

# Seeded smooth-random states: cpelab's own family, with sigma and p
# stretched to span exactly [floor, floor + 0.2]. The stable step depends
# on max sigma, so pinning the range makes the step count the same on
# every seed.
AMPLITUDE = 0.1
BAND = (3, 3, 3)
SPAN = 0.2

RUN_N = 24
RUN_STEPS = 10

PICARD_N = 16
PICARD_T = 4e-3
PICARD_TOL = 1e-9

MMS_MU = 4.0
MMS_DTS = (4e-4, 2e-4, 1e-4)
MMS_N_TEMPORAL = 8
MMS_T_TEMPORAL = 0.0032
MMS_NS = (8, 12, 16)
MMS_DT_SPATIAL = 2e-4
MMS_T_SPATIAL = 0.002
MMS_FLOOR = 1e-12


def _g(x: float) -> str:
    return f"{x:.17g}"


def _seeded_state(n: int, seed: int):
    from cpelab import COS, Grid, PhysParams, ScalarField2D, ScalarField3D, State
    from cpelab import make_initial

    params = PhysParams()
    s = make_initial(
        "smooth-random", Grid(n, n, n), params, amplitude=AMPLITUDE, band=BAND, seed=seed
    )

    def stretch(data, floor):
        return floor + SPAN * (data - floor) / (data.max() - floor)

    return State(
        s.v,
        ScalarField3D(s.grid, stretch(s.sigma.data, params.sigma_floor), COS),
        ScalarField2D(s.grid, stretch(s.p.data, params.p_floor)),
    ), params


def _write_state(path: Path, state, params) -> None:
    from cpelab.snapshot import Snapshot, write_snapshot

    write_snapshot(path, Snapshot(state, params))


def _load(config: Path):
    """Validate the written config with cpelab's own loader."""
    from cpelab.config import load_config

    return load_config(config)


class RunWorkload:
    name = "run-24"
    subcommand = "run"
    outputs = ("run.csv", "final.cpe")

    def setup(self, inputs: Path, seed: int) -> Path:
        from cpelab.integrators import stable_dt

        state, params = _seeded_state(RUN_N, seed)
        self.initial = inputs / "initial.cpe"
        _write_state(self.initial, state, params)
        # half a step short of RUN_STEPS auto steps, so ceil() gives RUN_STEPS
        t_final = (RUN_STEPS - 0.5) * stable_dt(state, params)
        config = inputs / "run.ini"
        config.write_text(
            f"[grid]\nnx = {RUN_N}\nny = {RUN_N}\nnz = {RUN_N}\n"
            "[params]\nepsilon = 0\n"
            f"[initial]\nsnapshot = {self.initial}\n"
            f"[run]\nt_final = {_g(t_final)}\ndt = auto\nrecord_every = 1\nseed = {seed}\n"
        )
        _load(config)
        return config

    def check(self, out: Path) -> list[str]:
        return checks.check_run(
            self.initial.read_bytes(),
            (out / "final.cpe").read_bytes(),
            (out / "run.csv").read_text(),
            RUN_STEPS,
        )

    def reference(self, out: Path) -> list[str]:
        return []


class PicardWorkload:
    name = "picard-16"
    subcommand = "picard"
    outputs = ("picard.csv",)

    def setup(self, inputs: Path, seed: int) -> Path:
        state, params = _seeded_state(PICARD_N, seed)
        self.initial = inputs / "initial.cpe"
        _write_state(self.initial, state, params)
        self.config = inputs / "picard.ini"
        self.config.write_text(
            f"[grid]\nnx = {PICARD_N}\nny = {PICARD_N}\nnz = {PICARD_N}\n"
            f"[initial]\nsnapshot = {self.initial}\n"
            f"[run]\nseed = {seed}\n"
            f"[picard]\nt = {_g(PICARD_T)}\ntol = {_g(PICARD_TOL)}\nmax_iter = 30\n"
        )
        _load(self.config)
        return self.config

    def check(self, out: Path) -> list[str]:
        return checks.check_picard((out / "picard.csv").read_text(), PICARD_TOL)

    def reference(self, out: Path) -> list[str]:
        """Picard fixed point against RK4 at the same dt, and against the CSV."""
        from cpelab.integrators import RunOptions, advance, picard_solve
        from cpelab.snapshot import read_snapshot

        cfg = _load(self.config)
        initial = read_snapshot(self.initial).state
        fixed = picard_solve(initial, cfg.params, PICARD_T, tol=PICARD_TOL, max_iter=30)
        rk4 = advance(initial, cfg.params, RunOptions(t_final=PICARD_T, dt=fixed.report.dt))
        problems = checks.check_fixed_point(_arrays(fixed.state), _arrays(rk4.state), PICARD_TOL)
        deltas = [float(r["delta"]) for r in checks.read_table((out / "picard.csv").read_text())]
        if deltas != fixed.report.deltas:
            problems.append(f"picard.csv deltas {deltas} != library deltas {fixed.report.deltas}")
        return problems


class MmsWorkload:
    name = "mms-8"
    subcommand = "mms"
    outputs = ("mms_temporal.csv", "mms_spatial.csv")

    def setup(self, inputs: Path, seed: int) -> Path:
        # the manufactured case fixes every input; the seed only lands in
        # the config's seed key, which the mms study does not read
        config = inputs / "mms.ini"
        config.write_text(
            f"[params]\nmu = {_g(MMS_MU)}\n"
            f"[run]\nseed = {seed}\n"
            "[mms]\ncase = A-osc\n"
            f"dts = {', '.join(_g(d) for d in MMS_DTS)}\n"
            f"n_temporal = {MMS_N_TEMPORAL}\nt_temporal = {_g(MMS_T_TEMPORAL)}\n"
            f"ns = {', '.join(str(n) for n in MMS_NS)}\n"
            f"dt_spatial = {_g(MMS_DT_SPATIAL)}\nt_spatial = {_g(MMS_T_SPATIAL)}\n"
            f"floor = {_g(MMS_FLOOR)}\n"
        )
        self.config = config
        _load(config)
        return config

    def check(self, out: Path) -> list[str]:
        return checks.check_mms(
            (out / "mms_temporal.csv").read_text(),
            (out / "mms_spatial.csv").read_text(),
            MMS_FLOOR,
        )

    def reference(self, out: Path) -> list[str]:
        """The coarsest temporal run's final state against the closed form."""
        from cpelab.experiments import mms_run

        cfg = _load(self.config)
        run = mms_run("A-osc", MMS_N_TEMPORAL, MMS_DTS[0], MMS_T_TEMPORAL, cfg.params)
        rows = checks.read_table((out / "mms_temporal.csv").read_text())
        return checks.check_mms_exact(
            _arrays(run.state), MMS_N_TEMPORAL, MMS_T_TEMPORAL, float(rows[0]["error"])
        )


def _arrays(state) -> tuple[np.ndarray, ...]:
    return state.v.data[0], state.v.data[1], state.sigma.data, state.p.data


WORKLOADS = {w.name: w for w in (RunWorkload, PicardWorkload, MmsWorkload)}
