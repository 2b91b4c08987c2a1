"""End-to-end checks of the command-line surface (in-process main())."""

import csv
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cpelab
from cpelab.cli import main
from cpelab.snapshot import describe, read_snapshot

GRID12 = "[grid]\nnx = 12\nny = 12\nnz = 12\n"

CONSTANT_RUN = GRID12 + """
[initial]
family = constant

[run]
t_final = 0.02
dt = 1e-3
record_every = 5
"""

SMOOTH_RUN = GRID12 + """
[initial]
family = smooth-random
amplitude = 0.05
band = 3, 3, 3

[run]
t_final = 0.005
dt = 5e-4
record_every = 2
seed = 3
"""


def launch(tmp_path, text, command="run", extra=(), name="case.ini", out="out"):
    cfg = tmp_path / name
    cfg.write_text(text)
    outdir = tmp_path / out
    code = main(
        [command, "--config", str(cfg), "--out", str(outdir), "--quiet", *extra]
    )
    return code, outdir


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_run_constant_exit_and_csv(tmp_path):
    code, out = launch(tmp_path, CONSTANT_RUN)
    assert code == 0
    rows = read_rows(out / "run.csv")
    # 20 steps at record_every=5 -> 5 reports (incl. t=0 and the final step)
    assert len(rows) == 5
    masses = [float(r["mass"]) for r in rows]
    assert max(masses) - min(masses) <= 1e-12 * abs(masses[0])
    assert float(rows[0]["t"]) == 0.0
    assert float(rows[-1]["t"]) == pytest.approx(0.02, rel=1e-12)
    assert (out / "final.cpe").exists()


def test_run_same_seed_is_byte_identical(tmp_path):
    _, out_a = launch(tmp_path, SMOOTH_RUN, out="a")
    _, out_b = launch(tmp_path, SMOOTH_RUN, out="b")
    assert (out_a / "run.csv").read_bytes() == (out_b / "run.csv").read_bytes()
    assert (out_a / "final.cpe").read_bytes() == (out_b / "final.cpe").read_bytes()


def test_run_seed_flag_overrides_config(tmp_path):
    _, out_a = launch(tmp_path, SMOOTH_RUN, out="a")
    _, out_b = launch(tmp_path, SMOOTH_RUN, extra=("--seed", "4"), out="b")
    assert (out_a / "run.csv").read_bytes() != (out_b / "run.csv").read_bytes()


def test_inspect_matches_writer(tmp_path, capsys):
    _, out = launch(tmp_path, SMOOTH_RUN)
    snap_path = out / "final.cpe"
    assert main(["inspect", str(snap_path)]) == 0
    printed = capsys.readouterr().out.strip()
    assert printed == describe(read_snapshot(snap_path)).strip()
    assert "12x12x12" in printed


def test_bad_config_exits_2(tmp_path, capsys):
    code, _ = launch(tmp_path, "[params]\ngamma = 1.0\n")
    assert code == 2
    assert "gamma" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, message",
    [
        ("[run]\nt_final = 0\n", "error: run.t_final: must be positive"),
        ("[run]\nrecord_every = 0\n", "error: run.record_every: must be >= 1"),
        ("[grid]\nnx = 7\n", "error: grid.nx: "),
        ("[grid]\nnz = 6\n", "error: grid.nz: "),
        ("[params]\ngamma = 1.0\n", "error: params.gamma: "),
        ("[params]\nr = 0\n", "error: params.r: "),
        ("[params]\nlambda = inf\n", "error: params.lambda: must be finite"),
        ("[run]\ndt = 0\n", "error: run.dt: must be positive"),
        ("[run]\ncfl = 0\n", "error: run.cfl: must be finite and positive"),
        ("[run]\ncfl = -1\n", "error: run.cfl: must be finite and positive"),
        ("[ineq]\ntrials = 0\n", "error: ineq.trials: must be >= 1"),
        ("[picard]\nmax_iter = 0\n", "error: picard.max_iter: must be >= 1"),
        ("[picard]\nfactor = 0\n", "error: picard.factor: must be finite and > 1"),
        ("[picard]\nfactor = 1\n", "error: picard.factor: must be finite and > 1"),
        ("[picard]\nmax_levels = 0\n", "error: picard.max_levels: must be >= 1"),
        ("[mms]\nn_temporal = 0\n", "error: mms.n_temporal: "),
        ("[mms]\nns = 7, 8\n", "error: mms.ns: "),
        ("[picard]\nt = -1e-3\n", "error: picard.t: must be finite and positive"),
        ("[picard]\nt = 0\n", "error: picard.t: must be finite and positive"),
        ("[perturb]\ndeltas = 1e-3, -1e-4\n", "error: perturb.deltas: "),
        ("[perturb]\ndeltas = 1e-3\n", "error: perturb.deltas: "),
        ("[perturb]\ndeltas = 1e-3, 1e-3\n", "error: perturb.deltas: "),
        ("[perturb]\nt = 0\n", "error: perturb.t: must be finite and positive"),
        ("[mms]\ndts = 4e-4, 2e-4\n", "error: mms.dts: "),
        ("[mms]\ndts = 4e-4, 2e-4, 0\n", "error: mms.dts: "),
        ("[mms]\ndt_spatial = 0\n", "error: mms.dt_spatial: must be finite"),
        ("[mms]\nt_temporal = 0\n", "error: mms.t_temporal: must be finite"),
        ("[mms]\nt_spatial = -1\n", "error: mms.t_spatial: must be finite"),
        ("[eps_sweep]\nt = 0\n", "error: eps_sweep.t: must be finite and positive"),
        ("[eps_sweep]\neps = 1e-2, -1e-3\n", "error: eps_sweep.eps: "),
        ("[mms]\ncase = B\n", "error: mms.case: unknown case 'B'; known: "),
        ("[ineq]\nkinds = CAL, FOO\n", "error: ineq.kinds: unknown kind 'FOO'; "),
        ("[ineq]\nm = -1\n", "error: ineq.m: must be >= 0"),
    ],
    ids=[
        "t_final",
        "record_every",
        "nx",
        "nz",
        "gamma",
        "r",
        "lambda",
        "dt",
        "cfl0",
        "cfl-1",
        "trials",
        "max_iter",
        "factor0",
        "factor1",
        "max_levels",
        "n_temporal",
        "ns",
        "picard_t-",
        "picard_t0",
        "deltas-",
        "deltas1",
        "deltas_equal",
        "perturb_t0",
        "dts2",
        "dts0",
        "dt_spatial",
        "t_temporal",
        "t_spatial",
        "eps_sweep_t0",
        "eps-",
        "mms_case",
        "ineq_kinds",
        "ineq_m",
    ],
)
def test_constraint_faults_name_the_full_key(tmp_path, capsys, text, message):
    code, _ = launch(tmp_path, text)
    assert code == 2
    assert capsys.readouterr().err.startswith(message)


def test_cli_import_leaves_sympy_unloaded():
    """The library never imports sympy or scipy: not with the CLI, not in a
    manufactured-solution run, whose forcing is written in closed form, and
    not in a run or an inequality trial, whose transforms are numpy.fft's."""
    probe = (
        "import sys, cpelab.cli\n"
        "from cpelab import Grid, PhysParams, RunOptions, advance, make_initial\n"
        "from cpelab.experiments import mms_run\n"
        "from cpelab.ineq import run_trials\n"
        "mms_run('A-osc', 8, 1e-4, 2e-4, PhysParams())\n"
        "s = make_initial('smooth-random', Grid(12, 12, 12), PhysParams(), amplitude=0.05)\n"
        "advance(s, PhysParams(), RunOptions(t_final=2e-3, dt=1e-3))\n"
        "run_trials('CAL', 2, (2.0, float('inf'), 2.0, float('inf'), 2.0), 1, 2, 0)\n"
        "print('sympy' in sys.modules, 'scipy' in sys.modules)"
    )
    src = str(Path(cpelab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True, env=env
    )
    assert out.stdout.strip() == "False False"


def test_picard_constant_converges_fast(tmp_path, capsys):
    text = GRID12 + "[initial]\nfamily = constant\n\n[picard]\nt = 1e-3\n"
    cfg = tmp_path / "p.ini"
    cfg.write_text(text)
    out = tmp_path / "out"
    assert main(["picard", "--config", str(cfg), "--out", str(out)]) == 0
    line = capsys.readouterr().out
    assert "converged" in line
    sweeps = int(line.split("converged in ")[1].split(" ")[0])
    assert sweeps <= 2
    rows = read_rows(out / "picard.csv")
    assert len(rows) == sweeps
    assert float(rows[-1]["delta"]) <= 1e-9


@pytest.mark.parametrize("escalate", ["false", "true"])
def test_picard_prints_warnings_under_run_tol_bc(tmp_path, capsys, escalate):
    """cpelab picard, escalating or not, evaluates with run.tol_bc and prints
    each warning text once (band 5 squares past the retained modes, so the
    nodal heating dips below zero)."""
    text = (
        "[grid]\nnx = 16\nny = 16\nnz = 16\n"
        "[initial]\nfamily = smooth-random\namplitude = 0.5\nband = 5, 5, 5\n"
        "[run]\ntol_bc = 1e-30\nseed = 2\n"
        f"[picard]\nt = 1e-4\nmax_iter = 1\nmax_levels = 1\nescalate = {escalate}\n"
    )
    launch(tmp_path, text, command="picard")
    err = capsys.readouterr().err
    assert err.count("warning: nodal heating dipped below -tol_bc") == 1


def test_picard_budget_exhausted_exits_3_with_partial_csv(tmp_path, capsys):
    text = SMOOTH_RUN + "\n[picard]\nt = 1e-3\ntol = 1e-14\nmax_iter = 2\n"
    code, out = launch(tmp_path, text, command="picard")
    assert code == 3
    assert "no contraction" in capsys.readouterr().err
    rows = read_rows(out / "picard.csv")
    assert len(rows) == 2  # the sweeps that did run are flushed


def test_mms_needs_three_dts(tmp_path, capsys):
    text = "[mms]\ndts = 8e-4, 4e-4\n"
    code, _ = launch(tmp_path, text, command="mms")
    assert code == 2
    assert "three dt" in capsys.readouterr().err
