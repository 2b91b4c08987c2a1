"""Output checks for the benchmark workloads.

Pure numpy: nothing here imports cpelab, so a fault in the program cannot
hide in the code that judges its outputs. Every check returns a list of
problems; an empty list means the output is accepted.
"""

from __future__ import annotations

import csv
import io
import math
import struct
from dataclasses import dataclass

import numpy as np

# CPE1 snapshot header: magic, version, nx, ny, nz, then seven doubles
# (time, gamma, mu, lambda, kappa, R, epsilon).
HEADER = struct.Struct("<4s4I7d")
MAGIC = b"CPE1"


@dataclass(frozen=True)
class Snapshot:
    nx: int
    ny: int
    nz: int
    t: float
    params: tuple[float, ...]
    v1: np.ndarray  # (nx, ny, nz+1)
    v2: np.ndarray
    sigma: np.ndarray
    p: np.ndarray  # (nx, ny)


def _x_fastest(flat: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    return flat.reshape(shape[::-1]).transpose(range(len(shape) - 1, -1, -1))


def read_cpe1(data: bytes) -> Snapshot:
    """Parse a CPE1 snapshot: header, then v1, v2, sigma and p, x-fastest."""
    if len(data) < HEADER.size:
        raise ValueError(f"snapshot shorter than its {HEADER.size}-byte header")
    magic, version, nx, ny, nz, t, *params = HEADER.unpack_from(data)
    if magic != MAGIC or version != 1:
        raise ValueError(f"not a CPE1 v1 snapshot: {magic!r} v{version}")
    n3, n2 = nx * ny * (nz + 1), nx * ny
    if len(data) != HEADER.size + 8 * (3 * n3 + n2):
        raise ValueError(f"snapshot payload has the wrong length {len(data)}")
    flat = np.frombuffer(data, dtype="<f8", offset=HEADER.size)
    s3 = (nx, ny, nz + 1)
    return Snapshot(
        nx, ny, nz, t, tuple(params),
        _x_fastest(flat[:n3], s3),
        _x_fastest(flat[n3 : 2 * n3], s3),
        _x_fastest(flat[2 * n3 : 3 * n3], s3),
        _x_fastest(flat[3 * n3 :], (nx, ny)),
    )


def mass(snap: Snapshot) -> float:
    """Integral of 1/sigma over T^2 x (0, 1).

    Horizontal nodes are equispaced on the period, so their mean is exact
    for the trigonometric interpolant; in z the mode-0 cosine coefficient
    of the interpolant is the trapezoid rule on the nodes.
    """
    recip = 1.0 / snap.sigma
    column = (recip[..., 1:-1].sum(axis=-1) + 0.5 * (recip[..., 0] + recip[..., -1])) / snap.nz
    return float((2.0 * math.pi) ** 2 * column.mean())


def read_table(text: str) -> list[dict[str, str]]:
    return list(csv.DictReader(io.StringIO(text)))


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


# ---------------------------------------------------------------------------
# run-24
# ---------------------------------------------------------------------------


def check_run(initial: bytes, final: bytes, run_csv: str, steps: int) -> list[str]:
    """`cpelab run` with eps = 0 from the initial snapshot for `steps` steps."""
    problems = []
    a, b = read_cpe1(initial), read_cpe1(final)
    rows = read_table(run_csv)
    if len(rows) != steps + 1:
        problems.append(f"run.csv has {len(rows)} rows, expected {steps + 1}")
    if not rows:
        return problems + ["run.csv has no rows"]
    if (a.nx, a.ny, a.nz) != (b.nx, b.ny, b.nz):
        problems.append("final snapshot grid differs from the initial one")
        return problems
    if float(rows[-1]["t"]) != b.t:
        problems.append(f"final snapshot t={b.t!r} but run.csv ends at t={rows[-1]['t']}")
    m0, m1 = mass(a), mass(b)
    if not _close(m0, m1, 1e-8):
        problems.append(f"mass not conserved: {m0!r} -> {m1!r}")
    if not _close(float(rows[0]["mass"]), m0, 1e-8):
        problems.append(f"run.csv first mass {rows[0]['mass']} != {m0!r}")
    if not _close(float(rows[-1]["mass"]), m1, 1e-8):
        problems.append(f"run.csv last mass {rows[-1]['mass']} != {m1!r}")
    for name, field in (("sigma", b.sigma), ("p", b.p)):
        low = float(field.min())
        if not low > 0.25:
            problems.append(f"final min {name} = {low!r} is not above 0.25")
        if float(rows[-1][f"min_{name}"]) != low:
            problems.append(
                f"run.csv last min_{name} {rows[-1][f'min_{name}']} != snapshot {low!r}"
            )
    return problems


# ---------------------------------------------------------------------------
# picard-16
# ---------------------------------------------------------------------------


def check_picard(picard_csv: str, tol: float) -> list[str]:
    """Contraction ratios below 1 and a converged last sweep."""
    problems = []
    rows = read_table(picard_csv)
    if not rows:
        return ["picard.csv has no rows"]
    deltas = [float(r["delta"]) for r in rows]
    for i, row in enumerate(rows[1:], start=1):
        ratio = float(row["ratio"])
        if not ratio < 1.0:
            problems.append(f"sweep {row['sweep']}: ratio {ratio!r} is not below 1")
        if not _close(ratio, deltas[i] / deltas[i - 1], 1e-12):
            problems.append(f"sweep {row['sweep']}: ratio {ratio!r} != delta quotient")
    if not deltas[-1] <= tol:
        problems.append(f"last delta {deltas[-1]!r} exceeds tol {tol!r}")
    return problems


def max_gap(a: tuple[np.ndarray, ...], b: tuple[np.ndarray, ...]) -> float:
    return max(float(np.abs(x - y).max()) for x, y in zip(a, b, strict=True))


def check_fixed_point(
    picard_fields: tuple[np.ndarray, ...], rk4_fields: tuple[np.ndarray, ...], tol: float
) -> list[str]:
    """The Picard fixed point reproduces RK4 at the same dt to 10 tol."""
    gap = max_gap(picard_fields, rk4_fields)
    if not gap <= 10.0 * tol:
        return [f"Picard fixed point and RK4 differ by {gap!r} > {10.0 * tol!r}"]
    return []


# ---------------------------------------------------------------------------
# mms-8
# ---------------------------------------------------------------------------


def check_mms(temporal_csv: str, spatial_csv: str, floor: float) -> list[str]:
    """Temporal order 4 +- 0.3 from (dt, diff); spatial errors fall >= 10x."""
    problems = []
    trows = read_table(temporal_csv)
    dts = [float(r["dt"]) for r in trows]
    diffs = [float(r["diff"]) for r in trows if r["diff"] != ""]
    if len(diffs) != len(dts) - 1 or len(diffs) < 2:
        return [f"mms_temporal.csv has {len(diffs)} diffs for {len(dts)} dts"]
    for i in range(len(diffs) - 1):
        order = math.log(diffs[i] / diffs[i + 1]) / math.log(dts[i] / dts[i + 1])
        if not abs(order - 4.0) <= 0.3:
            problems.append(f"temporal order {order!r} at dt={dts[i]!r} is not 4 +- 0.3")
        if not abs(float(trows[i]["order"]) - order) <= 1e-9:
            problems.append(f"mms_temporal.csv order {trows[i]['order']} != {order!r}")
    srows = read_table(spatial_csv)
    errors = [float(r["error"]) for r in srows]
    for i in range(len(errors) - 1):
        ok = errors[i] >= 10.0 * errors[i + 1] or errors[i] <= floor
        if not ok:
            problems.append(
                f"spatial error {errors[i]!r} -> {errors[i + 1]!r} at n={srows[i]['n']}"
                " falls less than 10x above the floor"
            )
        if srows[i]["converged"] != ("true" if ok else "false"):
            problems.append(f"mms_spatial.csv converged flag wrong at n={srows[i]['n']}")
    return problems


def a_osc_fields(n: int, t: float) -> tuple[np.ndarray, ...]:
    """Closed-form A-osc manufactured solution on the n^3 channel grid."""
    x = np.arange(n) * (2.0 * math.pi / n)
    z = np.arange(n + 1) / n
    X, _, Z = np.meshgrid(x, x, z, indexing="ij")
    decay = math.exp(-t)
    v1 = decay * np.cos(math.pi * Z) * np.cos(X)
    sigma = 1.0 + 0.1 * decay * np.cos(math.pi * Z)
    p = 1.0 + 0.1 * decay * np.cos(X[..., 0])
    return v1, np.zeros_like(v1), sigma, p


def check_mms_exact(
    fields: tuple[np.ndarray, ...], n: int, t: float, csv_error: float
) -> list[str]:
    """A forced final state sits near the closed form, at the error the CSV reports."""
    err = max_gap(fields, a_osc_fields(n, t))
    problems = []
    if not err < 1e-3:
        problems.append(f"A-osc final state is {err!r} from the closed form")
    if not _close(err, csv_error, 1e-9):
        problems.append(f"closed-form error {err!r} != mms_temporal.csv error {csv_error!r}")
    return problems
