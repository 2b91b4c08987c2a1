"""Run every cpelab subcommand from two source trees and compare the outputs.

    python3 tools/compare_outputs.py PARENT_TREE CHILD_TREE

Each tree is a checkout of this repository. Its package is imported from
``<tree>/src`` (``PYTHONPATH``) in a subprocess, so the two trees never
share an interpreter and this script imports nothing from cpelab. Every
subcommand runs once per tree on the fixed small configs below (``picard``
twice: plain and escalating; ``inspect`` reads the snapshot ``run`` wrote),
with the same relative paths, in a fresh temporary folder per tree.

For every output file, and for stdout, stderr and the exit code, one line
says ``identical``; a CSV that differs gets the worst relative deviation of
each column, and for a column that differs by finite amounts also its worst
absolute deviation and largest magnitude (``w_defect 0.906 (abs 2.6e-18, max
5.7e-18)``); any other file or stream that differs is reported as such.
The exit code is 1 if anything differs and 0 otherwise.
"""

from __future__ import annotations

import csv
import io
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

GRID12 = "[grid]\nnx = 12\nny = 12\nnz = 12\n"
SMOOTH = GRID12 + (
    "[initial]\nfamily = smooth-random\namplitude = 0.05\nband = 3, 3, 3\n"
)
PICARD = SMOOTH + "[picard]\nt = 2e-3\nfactor = 4\nmax_levels = 3\n"

# (name, subcommand, config text); every config-reading run writes to "out"
CASES = (
    ("run", "run", SMOOTH + "[run]\nt_final = 0.004\nrecord_every = 1\nseed = 3\n"),
    (
        "mms",
        "mms",
        "[mms]\ncase = A-osc\ndts = 4e-4, 2e-4, 1e-4\nn_temporal = 8\n"
        "t_temporal = 0.002\nns = 8, 12\ndt_spatial = 1e-4\nt_spatial = 0.002\n",
    ),
    ("eps-sweep", "eps-sweep", SMOOTH + "[eps_sweep]\nt = 2e-3\n"),
    ("perturb", "perturb", SMOOTH + "[perturb]\nt = 0.004\n"),
    ("picard", "picard", PICARD),
    ("picard-escalate", "picard", PICARD + "escalate = true\n"),
    (
        "ineq-lab",
        "ineq-lab",
        "[ineq]\nkinds = CAL, COME, ALG\nbands = 4, 6\ntrials = 20\n",
    ),
    ("inspect", "inspect", None),
)


def _deviation(x: str, y: str) -> tuple[float, float]:
    """|x - y| / max(|x|, |y|) and |x - y| of two CSV cells; each is inf if
    either cell is not a number or the deviation is not finite."""
    try:
        a, b = float(x), float(y)
    except ValueError:
        return math.inf, math.inf
    if a == b:
        return 0.0, 0.0
    dev = abs(a - b)
    if not math.isfinite(dev):
        return math.inf, math.inf
    return dev / max(abs(a), abs(b)), dev


def _magnitude(x: str) -> float:
    """|x| of a CSV cell; 0.0 for text and non-finite numbers."""
    try:
        value = abs(float(x))
    except ValueError:
        return 0.0
    return value if math.isfinite(value) else 0.0


def column_stats(a: str, b: str) -> dict[str, tuple[float, float, float]]:
    """Per column of two CSV texts: the worst relative deviation, the worst
    absolute deviation (both 0.0 for a column whose cells are all the same
    text), and the largest finite magnitude in either table. Tables whose
    headers or row lengths differ map the single key "(shape)" to
    (inf, inf, 0.0)."""
    rows_a = list(csv.reader(io.StringIO(a)))
    rows_b = list(csv.reader(io.StringIO(b)))
    header = rows_a[0] if rows_a else []
    same_shape = (
        bool(header)
        and rows_b[:1] == [header]
        and len(rows_a) == len(rows_b)
        and all(len(ra) == len(rb) == len(header) for ra, rb in zip(rows_a, rows_b))
    )
    if not same_shape:
        return {"(shape)": (math.inf, math.inf, 0.0)}
    stats = {name: [0.0, 0.0, 0.0] for name in header}
    for ra, rb in zip(rows_a[1:], rows_b[1:]):
        for name, x, y in zip(header, ra, rb):
            worst = stats[name]
            worst[2] = max(worst[2], _magnitude(x), _magnitude(y))
            if x != y:
                rel, dev = _deviation(x, y)
                worst[0] = max(worst[0], rel)
                worst[1] = max(worst[1], dev)
    return {name: tuple(worst) for name, worst in stats.items()}


def describe_column(name: str, stats: tuple[float, float, float]) -> str:
    """``name rel``, and for a column that differs by finite amounts also
    its worst absolute deviation and largest magnitude, so a roundoff-floor
    column reads apart from a real change: ``w 0.906 (abs 2.6e-18, max
    5.7e-18)``."""
    rel, dev, peak = stats
    if rel == 0.0 or not math.isfinite(dev):
        return f"{name} {rel:.3g}"
    return f"{name} {rel:.3g} (abs {dev:.2g}, max {peak:.2g})"


def _run_all(tree: Path, work: Path) -> dict[str, dict[str, bytes]]:
    """Every case run from ``tree`` inside ``work``: per case, its exit
    code, stdout, stderr and output files as bytes."""
    env = {**os.environ, "PYTHONPATH": str(tree.resolve() / "src")}
    results = {}
    for name, command, text in CASES:
        case_dir = work / name
        case_dir.mkdir(parents=True)
        if text is None:  # inspect the run's snapshot
            args = [command, str(Path("..", "run", "out", "final.cpe"))]
        else:
            (case_dir / "case.ini").write_text(text)
            args = [command, "--config", "case.ini", "--out", "out"]
        proc = subprocess.run(
            [sys.executable, "-m", "cpelab.cli", *args],
            cwd=case_dir,
            env=env,
            capture_output=True,
        )
        got = {
            "exit code": str(proc.returncode).encode(),
            "stdout": proc.stdout,
            "stderr": proc.stderr,
        }
        out = case_dir / "out"
        if out.is_dir():
            for path in sorted(out.rglob("*")):
                if path.is_file():
                    got[str(path.relative_to(out))] = path.read_bytes()
        results[name] = got
    return results


def _compare(name: str, a: dict[str, bytes], b: dict[str, bytes]) -> bool:
    """Print one line per output of one case; True if all are identical."""
    same = True
    for item in list(a) + [k for k in b if k not in a]:
        if item not in a or item not in b:
            line = f"only in {'child' if item in b else 'parent'}"
        elif a[item] == b[item]:
            line = "identical"
        elif item.endswith(".csv"):
            stats = column_stats(a[item].decode(), b[item].decode())
            line = "differs: " + ", ".join(describe_column(*s) for s in stats.items())
        else:
            line = "differs"
        same = same and line == "identical"
        print(f"{name}: {item}: {line}")
    return same


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: compare_outputs.py PARENT_TREE CHILD_TREE", file=sys.stderr)
        return 2
    parent, child = (Path(p) for p in argv)
    with tempfile.TemporaryDirectory() as tmp:
        before = _run_all(parent, Path(tmp, "parent"))
        after = _run_all(child, Path(tmp, "child"))
    same = [_compare(name, before[name], after[name]) for name, _, _ in CASES]
    return 0 if all(same) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
