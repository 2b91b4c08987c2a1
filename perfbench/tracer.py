"""Trace one cpelab command from outside the package.

Run as ``python3 perfbench/tracer.py TRACE_JSON -- <cpelab arguments>``
with cpelab importable. The script wraps cpelab's public functions and the
scipy.fft entry points that ``spectral`` and ``parabolic`` call, runs
``cpelab.cli.main`` with the arguments, and writes every span (name,
start, end, parent) and count to TRACE_JSON. ``layer_metrics`` turns such
a file into the benchmark's per-layer metrics; it imports nothing from
cpelab, so the benchmark can read traces without the package.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

# scipy.fft entry points called by cpelab's spectral and parabolic modules
FFT_ENTRY_POINTS = ("dct", "dst", "rfft2", "irfft2", "rfftn", "irfftn")
TRANSFORM_LAYERS = {"cpelab.spectral": "spectral", "cpelab.parabolic": "parabolic"}


class Tracer:
    """Spans kept in memory as [name, start, end, parent index]."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}
        self.transform_bytes = {layer: 0 for layer in TRANSFORM_LAYERS.values()}
        self.transform_calls = 0

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def wrap(self, name: str, fn, on_return=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            if on_return is not None:
                on_return(args, kwargs, out)
            return out

        return traced

    def wrap_transform(self, fn):
        """A scipy.fft entry point, attributed to the cpelab module calling it."""
        traced = {
            layer: self.wrap(f"{layer}.transform", fn)
            for layer in TRANSFORM_LAYERS.values()
        }

        @functools.wraps(fn)
        def dispatch(a, *args, **kwargs):
            layer = TRANSFORM_LAYERS.get(sys._getframe(1).f_globals.get("__name__"))
            if layer is None:
                return fn(a, *args, **kwargs)
            out = traced[layer](a, *args, **kwargs)
            self.transform_calls += 1
            self.transform_bytes[layer] += a.nbytes + out.nbytes
            return out

        return dispatch

    def dump(self, path: str, exit_code: int) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "exit_code": exit_code,
                    "names": names,
                    "spans": [[index[n], a, b, p] for n, a, b, p in self.spans],
                    "counts": self.counts,
                    "transform_bytes": self.transform_bytes,
                },
                fh,
                separators=(",", ":"),
            )


def _replace_everywhere(original, replacement) -> None:
    """Rebind `original` in every cpelab module that imported it by name."""
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "cpelab" or mod_name.startswith("cpelab."):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)


def install(tracer: Tracer) -> None:
    """Wrap the layer boundaries the benchmark reports on."""
    import scipy.fft

    import cpelab.cli  # noqa: F401  (imports every layer)
    from cpelab import (
        diagnostics,
        experiments,
        fields,
        integrators,
        norms,
        parabolic,
        snapshot,
        spectral,
        tendencies,
    )

    for entry in FFT_ENTRY_POINTS:
        setattr(scipy.fft, entry, tracer.wrap_transform(getattr(scipy.fft, entry)))

    def plain(module, attr, name, on_return=None):
        fn = getattr(module, attr)
        _replace_everywhere(fn, tracer.wrap(name, fn, on_return))

    def steps_taken(args, kwargs, result):
        tracer.count("integrators.rk4_steps", result.n_steps)

    linear_sig = inspect.signature(parabolic.advance_coupled_linear)

    def linear_steps(args, kwargs, result):
        bound = linear_sig.bind(*args, **kwargs)
        tracer.count("parabolic.linear_steps", bound.arguments["n_steps"])

    plain(spectral, "dealiased_sum", "spectral.dealiased_sum")
    plain(diagnostics, "compute_diagnostics", "diagnostics.compute")
    plain(tendencies, "regularized_tendency", "tendencies.rhs")
    plain(tendencies, "frozen_sources", "tendencies.frozen_sources")
    plain(norms, "sobolev_norm", "norms.sobolev")
    plain(norms, "energy_report", "norms.energy_report")
    plain(integrators, "advance", "integrators.advance", steps_taken)
    plain(integrators, "picard_solve", "integrators.picard")
    plain(parabolic, "advance_coupled_linear", "parabolic.linear", linear_steps)
    plain(snapshot, "read_snapshot", "snapshot.io")
    plain(snapshot, "write_snapshot", "snapshot.io")

    # mms_forcing builds the symbolic forcing; the closure it returns is
    # what advance calls at every stage
    mms_forcing = experiments.mms_forcing
    symbolic = tracer.wrap("experiments.symbolic", mms_forcing)

    def forcing_factory(*args, **kwargs):
        forcing, exact = symbolic(*args, **kwargs)
        return tracer.wrap("experiments.forcing", forcing), exact

    _replace_everywhere(mms_forcing, forcing_factory)

    # a memo hit is a fine3 call that made no transform
    traced_fine3 = tracer.wrap("spectral.fine3", spectral.ProductWorkspace.fine3)

    def fine3_counted(ws, f):
        before = tracer.transform_calls
        out = traced_fine3(ws, f)
        tracer.count("spectral.fine3_calls")
        if tracer.transform_calls == before:
            tracer.count("spectral.fine3_hits")
        return out

    spectral.ProductWorkspace.fine3 = fine3_counted

    for cls in (fields.ScalarField3D, fields.VectorField3D2C, fields.ScalarField2D):
        cls.__post_init__ = tracer.wrap("fields.construct", cls.__post_init__)


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py TRACE_JSON -- <cpelab arguments>", file=sys.stderr)
        return 2
    trace_path, cli_args = argv[0], argv[2:]
    tracer = Tracer()
    install(tracer)
    import cpelab.cli

    command = tracer.wrap("cli.command", cpelab.cli.main)
    code = 1
    try:
        code = command(cli_args)
    finally:
        tracer.dump(trace_path, code)
    return code


# ---------------------------------------------------------------------------
# per-layer metrics from a trace file
# ---------------------------------------------------------------------------


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def self_time_table(trace: dict) -> str:
    """Calls and self milliseconds per span name, largest self time first."""
    names, spans = trace["names"], trace["spans"]
    calls = [0] * len(names)
    own_ms = [0.0] * len(names)
    for (ni, *_), own in zip(spans, self_times(spans)):
        calls[ni] += 1
        own_ms[ni] += 1000.0 * own
    rows = sorted(range(len(names)), key=lambda i: -own_ms[i])
    return "\n".join(
        f"{names[i]:28s} {calls[i]:8d} calls {own_ms[i]:10.1f} ms self" for i in rows
    )


def layer_metrics(trace: dict) -> dict[str, float]:
    names, spans, counts = trace["names"], trace["spans"], trace["counts"]
    index = {name: i for i, name in enumerate(names)}
    rhs = index.get("tendencies.rhs", -1)
    transform = index.get("spectral.transform", -1)
    calls = dict.fromkeys(names, 0)
    total = dict.fromkeys(names, 0.0)
    advance_self = 0.0
    transforms_in_rhs = 0
    for (ni, start, end, parent), own in zip(spans, self_times(spans)):
        name = names[ni]
        calls[name] += 1
        if not _has_ancestor(spans, parent, ni):  # count recursion once
            total[name] += end - start
        if name == "integrators.advance":
            advance_self += own
        if ni == transform and rhs >= 0 and _has_ancestor(spans, parent, rhs):
            transforms_in_rhs += 1

    def n(name):
        return calls.get(name, 0)

    def ms(name):
        return 1000.0 * total.get(name, 0.0)

    def per(a, b):
        return a / b if b else 0.0

    steps = counts.get("integrators.rk4_steps", 0)
    sweeps = n("parabolic.linear") if n("integrators.picard") else 0
    linear_steps = counts.get("parabolic.linear_steps", 0)
    return {
        "spectral.transform_calls": n("spectral.transform"),
        "spectral.transform_ms": ms("spectral.transform"),
        "spectral.transform_mb": trace["transform_bytes"]["spectral"] / 1e6,
        "spectral.transforms_per_rhs": per(transforms_in_rhs, n("tendencies.rhs")),
        "spectral.dealiased_sum_calls": n("spectral.dealiased_sum"),
        "spectral.dealiased_sum_ms": ms("spectral.dealiased_sum"),
        "spectral.fine3_hit_ratio": per(
            counts.get("spectral.fine3_hits", 0), counts.get("spectral.fine3_calls", 0)
        ),
        "fields.constructions": n("fields.construct"),
        "fields.construct_ms": ms("fields.construct"),
        "diagnostics.compute_calls": n("diagnostics.compute"),
        "diagnostics.compute_ms": ms("diagnostics.compute"),
        "diagnostics.calls_per_step": per(n("diagnostics.compute"), steps),
        "tendencies.rhs_calls": n("tendencies.rhs"),
        "tendencies.rhs_ms": ms("tendencies.rhs"),
        "tendencies.frozen_sources_calls": n("tendencies.frozen_sources"),
        "tendencies.frozen_sources_ms": ms("tendencies.frozen_sources"),
        "norms.sobolev_calls": n("norms.sobolev"),
        "norms.sobolev_ms": ms("norms.sobolev"),
        "norms.energy_report_ms": ms("norms.energy_report"),
        "integrators.rk4_steps": steps,
        "integrators.rk4_step_ms": per(ms("integrators.advance"), steps),
        "integrators.advance_self_ms": 1000.0 * advance_self,
        "integrators.picard_sweeps": sweeps,
        "integrators.picard_sweep_ms": per(ms("integrators.picard"), sweeps),
        "parabolic.linear_steps": linear_steps,
        "parabolic.linear_step_ms": per(ms("parabolic.linear"), linear_steps),
        "parabolic.transform_calls": n("parabolic.transform"),
        "parabolic.transform_ms": ms("parabolic.transform"),
        "experiments.forcing_calls": n("experiments.forcing"),
        "experiments.forcing_ms": ms("experiments.forcing"),
        "experiments.symbolic_ms": ms("experiments.symbolic"),
        "snapshot.io_ms": ms("snapshot.io"),
        "cli.command_ms": ms("cli.command"),
    }


def _has_ancestor(spans, parent: int, target_name: int) -> bool:
    while parent >= 0:
        if spans[parent][0] == target_name:
            return True
        parent = spans[parent][3]
    return False


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
