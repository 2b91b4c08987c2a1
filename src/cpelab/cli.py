"""Command-line surface.

Every subcommand reads one INI config, runs the matching operation, and
writes CSV tables with 17-significant-digit floats (lossless round trip,
byte-identical across repeat runs with the same seed). Exit codes: 0 on
success, 2 on faults, 3 when a run stops by instability or loss of
contraction.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .config import RunConfig, load_config
from .errors import (
    EXIT_FAULT,
    EXIT_OK,
    EXIT_UNSTABLE,
    CpeError,
    NoContraction,
    StabilityFault,
)
from .experiments import (
    continuous_dependence,
    epsilon_sweep,
    mms_spatial,
    mms_temporal,
    picard_escalation,
)
from .initial import make_initial, perturbation_direction
from .integrators import advance, picard_solve
from .ineq import constant_commutator_sample, run_trials
from .snapshot import Snapshot, describe, read_snapshot, write_snapshot


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _write_csv(path: Path, header: tuple[str, ...], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _report_rows(reports):
    return [
        (r.t, r.energy, r.min_sigma, r.min_p, r.mass, r.w_defect, r.phi_defect)
        for r in reports
    ]


_REPORT_HEADER = ("t", "E", "min_sigma", "min_p", "mass", "w_defect", "phi_defect")


def _initial_state(cfg: RunConfig):
    if cfg.initial.snapshot is not None:
        return read_snapshot(cfg.initial.snapshot).state
    return make_initial(
        cfg.initial.family,
        cfg.grid,
        cfg.params,
        amplitude=cfg.initial.amplitude,
        band=cfg.initial.band,
        seed=cfg.seed,
    )


def _say(args, text: str) -> None:
    if not args.quiet:
        print(text)


def _print_warnings(messages) -> None:
    for w in messages:
        print(f"warning: {w}", file=sys.stderr)


def _cmd_run(cfg: RunConfig, out: Path, args) -> int:
    state = _initial_state(cfg)
    result = advance(state, cfg.params, cfg.run)
    _write_csv(out / "run.csv", _REPORT_HEADER, _report_rows(result.reports))
    write_snapshot(out / "final.cpe", Snapshot(result.state, cfg.params))
    _print_warnings(result.warnings)
    last = result.reports[-1]
    _say(
        args,
        f"run: steps={result.n_steps} dt={result.dt:.6g} t={last.t:.6g} "
        f"E={last.energy:.10g} min_sigma={last.min_sigma:.6g} min_p={last.min_p:.6g}",
    )
    if result.fault is not None:
        print(f"fault: {result.fault}", file=sys.stderr)
        return EXIT_UNSTABLE if isinstance(result.fault, StabilityFault) else EXIT_FAULT
    return EXIT_OK


def _cmd_mms(cfg: RunConfig, out: Path, args) -> int:
    m = cfg.mms
    rt = mms_temporal(m.case, m.dts, m.n_temporal, m.T_temporal, cfg.params)
    rows = []
    for i, dt in enumerate(rt.dts):
        diff = rt.diffs[i] if i < len(rt.diffs) else ""
        order = rt.orders[i] if i < len(rt.orders) else ""
        rows.append((dt, rt.errors[i], diff, order))
    _write_csv(out / "mms_temporal.csv", ("dt", "error", "diff", "order"), rows)

    rs = mms_spatial(m.case, m.ns, m.dt_spatial, m.T_spatial, cfg.params, m.floor)
    rows = []
    for i, n in enumerate(rs.ns):
        ratio = rs.ratios[i] if i < len(rs.ratios) else ""
        conv = rs.converged[i] if i < len(rs.converged) else ""
        rows.append((n, rs.errors[i], ratio, conv))
    _write_csv(out / "mms_spatial.csv", ("n", "error", "ratio", "converged"), rows)

    _say(
        args,
        f"mms: temporal order={rt.orders[-1]:.4f} "
        f"spatial errors={[f'{e:.3e}' for e in rs.errors]}",
    )
    return EXIT_OK


def _cmd_eps_sweep(cfg: RunConfig, out: Path, args) -> int:
    initial = _initial_state(cfg)
    sw = epsilon_sweep(
        initial, cfg.params, cfg.eps_sweep.T, cfg.eps_sweep.eps, tol_bc=cfg.run.tol_bc
    )
    _write_csv(
        out / "eps_sweep.csv",
        ("epsilon", "delta"),
        list(zip(sw.eps, sw.deltas)),
    )
    _print_warnings(sw.warnings)
    _say(
        args,
        f"eps-sweep: T={sw.T:g} dt={sw.dt:.6g} "
        f"strictly_decreasing={sw.strictly_decreasing}",
    )
    return EXIT_OK


def _cmd_perturb(cfg: RunConfig, out: Path, args) -> int:
    initial = _initial_state(cfg)
    direction = perturbation_direction(
        cfg.grid, band=cfg.perturb.direction_band, seed=cfg.perturb.direction_seed
    )
    dep = continuous_dependence(
        initial,
        direction,
        cfg.perturb.deltas,
        cfg.params,
        cfg.perturb.T,
        tol_bc=cfg.run.tol_bc,
    )
    _write_csv(
        out / "perturb.csv",
        ("delta", "response", "dissipation"),
        [(r.delta, r.response, r.dissipation) for r in dep.rows],
    )
    _print_warnings(dep.warnings)
    _say(
        args,
        f"perturb: responses vary {dep.max_response_variation:.4f}x, "
        f"dissipation slope={dep.slope:.4f}",
    )
    return EXIT_OK


def _picard_rows(report):
    rows = []
    for i, delta in enumerate(report.deltas):
        ratio = report.ratios[i - 1] if 1 <= i <= len(report.ratios) else ""
        rows.append((i + 1, delta, ratio))
    return rows


def _cmd_picard(cfg: RunConfig, out: Path, args) -> int:
    initial = _initial_state(cfg)
    pc = cfg.picard
    if pc.escalate:
        esc = picard_escalation(
            initial,
            cfg.params,
            pc.T,
            factor=pc.factor,
            max_levels=pc.max_levels,
            tol=pc.tol,
            max_iter=pc.max_iter,
            tol_bc=cfg.run.tol_bc,
        )
        _print_warnings(dict.fromkeys(w for lv in esc.levels for w in lv.warnings))
        _write_csv(
            out / "picard_escalation.csv",
            ("T", "outcome", "iterations", "max_ratio"),
            [(lv.T, lv.outcome, lv.iterations, lv.max_ratio) for lv in esc.levels],
        )
        _say(args, f"picard escalation: found={esc.found} found_T={esc.found_T}")
        return EXIT_OK
    try:
        result = picard_solve(
            initial,
            cfg.params,
            pc.T,
            tol=pc.tol,
            max_iter=pc.max_iter,
            tol_bc=cfg.run.tol_bc,
        )
    except NoContraction as exc:
        if exc.report is not None:
            _write_csv(
                out / "picard.csv",
                ("sweep", "delta", "ratio"),
                _picard_rows(exc.report),
            )
            _print_warnings(exc.report.warnings)
        print(f"no contraction: {exc}", file=sys.stderr)
        return EXIT_UNSTABLE
    _write_csv(
        out / "picard.csv", ("sweep", "delta", "ratio"), _picard_rows(result.report)
    )
    _print_warnings(result.report.warnings)
    _say(
        args,
        f"picard: converged in {result.report.iterations} sweeps "
        f"(dt={result.report.dt:.6g}, {result.report.n_steps} steps)",
    )
    return EXIT_OK


def _cmd_ineq_lab(cfg: RunConfig, out: Path, args) -> int:
    iq = cfg.ineq
    rows = []
    for kind in iq.kinds:
        exponents = (iq.q,) if kind == "ALG" else (iq.q, iq.r1, iq.s1, iq.r2, iq.s2)
        for band in iq.bands:
            st = run_trials(kind, iq.m, exponents, iq.trials, band, iq.seed)
            rows.append(
                (kind, band, st.n, st.trials, st.max_ratio, st.mean_ratio)
            )
            _say(
                args,
                f"ineq {kind} band={band}: max={st.max_ratio:.6g} "
                f"mean={st.mean_ratio:.6g}",
            )
    const = constant_commutator_sample(seed=iq.seed)
    rows.append(("COME-const", "", "", 1, const.lhs, const.ratio))
    _write_csv(
        out / "ineq.csv",
        ("kind", "band", "n", "trials", "max_ratio", "mean_ratio"),
        rows,
    )
    return EXIT_OK


def _cmd_inspect(args) -> int:
    print(describe(read_snapshot(args.snapshot)))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cpelab",
        description="Pseudo-spectral channel-flow laboratory",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, needs_config: bool = True):
        p = sub.add_parser(name)
        if needs_config:
            p.add_argument("--config", required=True, help="INI config path")
            p.add_argument("--out", default=".", help="output directory")
            p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument("--quiet", action="store_true")
        return p

    add("run")
    add("mms")
    add("eps-sweep")
    add("perturb")
    add("picard")
    add("ineq-lab")
    p_inspect = sub.add_parser("inspect")
    p_inspect.add_argument("snapshot", help="snapshot path")
    p_inspect.add_argument("--quiet", action="store_true")
    return parser


_DISPATCH = {
    "run": _cmd_run,
    "mms": _cmd_mms,
    "eps-sweep": _cmd_eps_sweep,
    "perturb": _cmd_perturb,
    "picard": _cmd_picard,
    "ineq-lab": _cmd_ineq_lab,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "inspect":
            return _cmd_inspect(args)
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg = replace(cfg, seed=args.seed)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        return _DISPATCH[args.command](cfg, out, args)
    except (StabilityFault, NoContraction) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNSTABLE
    except CpeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAULT


if __name__ == "__main__":
    sys.exit(main())
