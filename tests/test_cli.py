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
    ],
    ids=["t_final", "record_every", "nx", "nz", "gamma"],
)
def test_constraint_faults_name_the_full_key(tmp_path, capsys, text, message):
    code, _ = launch(tmp_path, text)
    assert code == 2
    assert capsys.readouterr().err.startswith(message)


def test_cli_import_leaves_sympy_unloaded():
    """Only the manufactured-solution forcing needs sympy; run and picard
    must not pay for importing it."""
    probe = "import sys, cpelab.cli; print('sympy' in sys.modules)"
    src = str(Path(cpelab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True, env=env
    )
    assert out.stdout.strip() == "False"


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
