"""Agreement of two sets of benchmark runs of the same code.

    python3 perfbench/agree.py

Run from the repository root. Reads BENCHMARK.json, then makes two sets
of ten runs per workload, one set after the other, each on its own seeds,
with the workloads interleaved inside a set (run i of every workload
before run i+1 of any). For every end-to-end metric and workload it prints
each set's median and quartile spread (Q3 - Q1 over the median) and the
second median's shift from the first. It exits 1 when the medians differ,
in either direction, by more than the metric's bound, when a spread
exceeds the bound (except ``setup_s``'s: that metric is one cold set-up
per run, so its spread is that of single samples), when the share of
failed rounds differs between the sets, or when a run reports wrong
outputs. All results go to ``perfbench-out/agree.json``.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

RUNS = 10  # per workload per set
SEED_BASE = 1000  # set k uses seeds SEED_BASE * (k + 1) + i


def run_once(command, workload, seed, seconds) -> dict:
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def compare(spec: dict, first: dict[str, list[dict]], second: dict[str, list[dict]]) -> list[str]:
    """Print the table; return the disagreements."""
    failures = []
    for workload in first:
        shares = [sum(r["failed"] for r in s[workload]) / sum(r["attempted"] for r in s[workload])
                  for s in (first, second)]
        if shares[0] != shares[1]:
            failures.append(f"{workload}: failed shares differ between sets: {shares}")
        if not all(r["correct"] for s in (first, second) for r in s[workload]):
            failures.append(f"{workload}: a run reported incorrect outputs")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            cells, medians = [], []
            for k, s in enumerate((first, second)):
                values = [r["metrics"][name]["value"] for r in s[workload]]
                med, sp = statistics.median(values), spread(values)
                medians.append(med)
                cells.append(f"{med:10.4f} {100 * sp:5.1f}%")
                # setup_s is one cold set-up per run, not a median over
                # rounds: only its median is held to the bound
                if name != "setup_s" and sp > bound:
                    failures.append(f"{workload} {name}: set {k} spread {sp:.3f} > {bound}")
            shift = medians[1] / medians[0] - 1.0
            if abs(shift) > bound:
                failures.append(
                    f"{workload} {name}: set 1 median {medians[1]:.4g} vs {medians[0]:.4g} "
                    f"differs by {shift:+.3f}, more than {bound}")
            print(f"{workload:10s} {name:12s} bound {bound:4.2f}  " + "  ".join(cells)
                  + f"  {100 * shift:+6.1f}%")
    return failures


def main() -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    sets: list[dict[str, list[dict]]] = []
    for k in range(2):
        results: dict[str, list[dict]] = {w: [] for w in workloads}
        for i in range(RUNS):
            for w in workloads:
                seed = SEED_BASE * (k + 1) + i
                r = run_once(spec["command"], w, seed, spec["run_seconds"])
                results[w].append(r)
                line = " ".join(f"{m}={v['value']:.4f}" for m, v in r["metrics"].items())
                print(f"set {k} run {i} {w} seed {seed}: {line}", file=sys.stderr, flush=True)
        sets.append(results)

    out = Path("perfbench-out")
    out.mkdir(exist_ok=True)
    (out / "agree.json").write_text(json.dumps(sets, indent=1))
    print(f"{'workload':10s} {'metric':12s} {'':10s}  "
          "set 0 median  IQR/med  set 1 median  IQR/med   shift")
    failures = compare(spec, *sets)
    for f in failures:
        print(f"DISAGREE: {f}")
    print("agree" if not failures else f"{len(failures)} disagreements")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
