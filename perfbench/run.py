"""cpelab benchmark: one workload, timed per command in fresh processes.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a cpelab source tree. The script builds the
workload's inputs from the seed, then runs rounds: each round is one
``cpelab <subcommand>`` process, spawned with ``src`` on PYTHONPATH, timed
from spawn to exit, and its outputs checked. With ``--trace 0`` the
machine-speed probe (``probe.py``) runs before the first round and after
every round, and each round's times are divided by the mean time of the
two probes around it. A round (with ``--trace 1``, a pair of rounds)
starts only if, at the mean pace so far, it ends within S seconds; at
least one always runs. The last line of standard output is one JSON
object with the end-to-end metrics (``--trace 0``) or the per-layer
metrics from traced rounds (``--trace 1``). Inputs and outputs go to
``perfbench-out/NAME``.
"""

import time

_START = time.perf_counter()  # set-up time counts from here

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
OUT_DIR = "perfbench-out"
# a round that has not ended by then is killed and counted as failed
COMMAND_TIMEOUT_S = 120.0
# command_s and cpu_s are scaled to a host on which the probe takes this
# long; the probe takes 0.8-1.4 s on the 2-CPU reference machine
PROBE_REF_S = 1.0


@dataclass(frozen=True)
class Round:
    traced: bool
    exit_code: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float


def spawn(argv: list[str], env: dict, out: Path, traced: bool) -> Round:
    """Run one command to its end; wall, CPU and peak RSS from wait4."""
    with open(out / "stdout.txt", "wb") as so, open(out / "stderr.txt", "wb") as se:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdout=so, stderr=se)
        timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Round(
        traced,
        proc.returncode,
        wall,
        usage.ru_utime + usage.ru_stime,
        usage.ru_maxrss / 1024.0,  # KiB on Linux
    )


def digest(out: Path, names: tuple[str, ...]) -> str:
    h = hashlib.sha256()
    for name in names:
        h.update((out / name).read_bytes())
    return h.hexdigest()


def parse_args(argv, spec: dict):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    args = parse_args(argv, spec)
    root = Path.cwd()
    src = root / "src"
    if not (src / "cpelab" / "cli.py").is_file():
        print(f"error: no cpelab sources under {src}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]()
    out = root / OUT_DIR / args.workload
    shutil.rmtree(out, ignore_errors=True)
    (out / "inputs").mkdir(parents=True)
    config = workload.setup(out / "inputs", args.seed)
    setup_s = time.perf_counter() - _START

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(src), env.get("PYTHONPATH"))))
    cli_args = [workload.subcommand, "--config", str(config), "--quiet", "--out"]

    rounds: list[Round] = []
    probes: list[Round] = []  # probes[i] and probes[i + 1] bracket rounds[i]
    problems: list[str] = []
    traces: list[dict] = []
    first_digest = None
    last_ok = None
    probe_dir = out / "probe"
    begin = time.perf_counter()

    def probe() -> None:
        p = spawn([sys.executable, str(HERE / "probe.py")], env, probe_dir, False)
        probes.append(p)
        if p.exit_code != 0:
            problems.append(f"probe {len(probes) - 1}: exit {p.exit_code}")

    if not args.trace:
        probe_dir.mkdir()
        probe()
    while True:
        # trace mode alternates untraced and traced rounds, in pairs
        traced = bool(args.trace) and len(rounds) % 2 == 1
        rd = out / f"round-{len(rounds)}"
        rd.mkdir()
        if traced:
            argv_ = [sys.executable, str(HERE / "tracer.py"), str(rd / "trace.json"), "--"]
        else:
            argv_ = [sys.executable, "-m", "cpelab.cli"]
        r = spawn(argv_ + cli_args + [str(rd)], env, rd, traced)
        rounds.append(r)
        tag = f"round {len(rounds) - 1}{' traced' if traced else ''}"
        if r.exit_code != 0:
            # no workload has a round that is meant to fail
            err = (rd / "stderr.txt").read_text(errors="replace").strip().splitlines()
            problems.append(f"{tag}: exit {r.exit_code}: {err[-1] if err else ''}")
        else:
            found = [f"{tag}: {p}" for p in workload.check(rd)]
            d = digest(rd, workload.outputs)
            first_digest = first_digest or d
            if d != first_digest:
                found.append(f"{tag}: outputs differ from the first round's")
            problems += found
            last_ok = rd
            if traced:
                traces.append(json.loads((rd / "trace.json").read_text()))
            print(f"{tag}: {r.wall_s:.3f} s wall, {r.cpu_s:.3f} s cpu, "
                  f"{r.peak_rss_mb:.1f} MB, {len(found)} problems", file=sys.stderr)
        if not args.trace:
            probe()
        elif len(rounds) % 2:
            continue  # finish the pair
        # start another round (or pair) only if it should end in time
        elapsed = time.perf_counter() - begin
        if elapsed * (1 + (1 + args.trace) / len(rounds)) > args.seconds:
            break

    if last_ok is not None:
        problems += [f"reference: {p}" for p in workload.reference(last_ok)]
    for p in problems:
        print(f"problem: {p}", file=sys.stderr)

    ok = [r for r in rounds if r.exit_code == 0] or rounds
    plain = [r for r in ok if not r.traced] or ok
    if args.trace:
        from tracer import layer_metrics, self_time_table

        if not traces:
            print("error: no traced round succeeded", file=sys.stderr)
            return 1
        per_round = [layer_metrics(t) for t in traces]
        print(self_time_table(traces[-1]), file=sys.stderr)
        untraced = statistics.median(r.wall_s for r in plain)
        traced_wall = statistics.median(r.wall_s for r in ok if r.traced)
        values = {k: statistics.median(m[k] for m in per_round) for k in per_round[0]}
        values["tracing.overhead_pct"] = 100.0 * (traced_wall / untraced - 1.0)
    else:
        # The host's speed swings by up to 1.8x over seconds to minutes.
        # A round's time over the mean of the probes just before and after
        # it cancels most of that; the median over rounds does the rest.
        pairs = [(r, probes[i], probes[i + 1]) for i, r in enumerate(rounds)]
        pairs = [p for p in pairs if p[0].exit_code == 0] or pairs
        print("unscaled medians: command %.3f s wall, %.3f s cpu; probe %.3f s wall, %.3f s cpu"
              % tuple(statistics.median(getattr(x, k) for x in xs) for xs, k in (
                  (plain, "wall_s"), (plain, "cpu_s"), (probes, "wall_s"), (probes, "cpu_s"))),
              file=sys.stderr)
        values = {
            "setup_s": setup_s,
            "command_s": PROBE_REF_S * statistics.median(
                2 * r.wall_s / (a.wall_s + b.wall_s) for r, a, b in pairs),
            "cpu_s": PROBE_REF_S * statistics.median(
                2 * r.cpu_s / (a.cpu_s + b.cpu_s) for r, a, b in pairs),
            "peak_rss_mb": statistics.median(r.peak_rss_mb for r in plain),
        }
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in spec["per_layer" if args.trace else "end_to_end"]
    }
    result = {
        "correct": not problems,
        "attempted": len(rounds),
        "failed": sum(r.exit_code != 0 for r in rounds),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
