"""Each output check accepts a correct output and rejects one wrong value.

Run with ``python3 -m pytest perfbench/test_checks.py``. The outputs here
are built by hand; nothing imports cpelab.
"""

import math

import numpy as np
import pytest

import checks

N = 8


def cpe1(t, v1, v2, sigma, p, params=(1.4, 1.0, 0.0, 1.0, 1.0, 0.0)):
    nx, ny, nz1 = sigma.shape
    header = checks.HEADER.pack(b"CPE1", 1, nx, ny, nz1 - 1, t, *params)
    # Fortran order over (x, y, z) is the x-fastest stream
    body = b"".join(a.ravel(order="F").astype("<f8").tobytes() for a in (v1, v2, sigma, p))
    return header + body


def smooth_state(seed=0):
    rng = np.random.default_rng(seed)
    x = np.arange(N) * (2 * math.pi / N)
    z = np.arange(N + 1) / N
    X, Y, Z = np.meshgrid(x, x, z, indexing="ij")
    a, b = rng.uniform(0.05, 0.1, 2)
    v1 = a * np.cos(X) * np.cos(math.pi * Z)
    v2 = b * np.sin(Y) * np.cos(2 * math.pi * Z)
    sigma = 0.6 + 0.1 * np.cos(X + Y) * np.cos(math.pi * Z)
    p = 0.7 + 0.1 * np.sin(X[..., 0])
    return v1, v2, sigma, p


def run_csv(rows):
    head = "t,E,min_sigma,min_p,mass,w_defect,phi_defect\n"
    return head + "".join(
        f"{float(t)!r},1.0,{float(ms)!r},{float(mp)!r},{float(m)!r},0,0\n"
        for t, ms, mp, m in rows
    )


def test_reader_layout_and_mass():
    v1, v2, sigma, p = smooth_state()
    snap = checks.read_cpe1(cpe1(0.5, v1, v2, sigma, p))
    assert (snap.nx, snap.ny, snap.nz, snap.t) == (N, N, N, 0.5)
    for got, want in zip((snap.v1, snap.v2, snap.sigma, snap.p), (v1, v2, sigma, p)):
        np.testing.assert_array_equal(got, want)
    const = checks.read_cpe1(cpe1(0.0, v1, v2, np.full_like(sigma, 2.0), p))
    assert checks.mass(const) == pytest.approx((2 * math.pi) ** 2 / 2, rel=1e-15)


def test_reader_rejects_truncation_and_bad_magic():
    data = cpe1(0.0, *smooth_state())
    with pytest.raises(ValueError):
        checks.read_cpe1(data[:-8])
    with pytest.raises(ValueError):
        checks.read_cpe1(b"CPE2" + data[4:])


@pytest.fixture
def run_outputs():
    v1, v2, sigma, p = smooth_state()
    initial = cpe1(0.0, v1, v2, sigma, p)
    final = cpe1(0.25, 0.9 * v1, 0.9 * v2, sigma, p)
    m = checks.mass(checks.read_cpe1(initial))
    rows = [(0.0, sigma.min(), p.min(), m), (0.25, sigma.min(), p.min(), m)]
    return initial, final, rows, (v1, v2, sigma, p)


def test_run_accepts(run_outputs):
    initial, final, rows, _ = run_outputs
    assert checks.check_run(initial, final, run_csv(rows), steps=1) == []


def test_run_rejects_changed_mass(run_outputs):
    initial, _, rows, (v1, v2, sigma, p) = run_outputs
    bumped = sigma.copy()
    bumped[3, 4, 5] *= 1.001
    final = cpe1(0.25, v1, v2, bumped, p)
    problems = checks.check_run(initial, final, run_csv(rows), steps=1)
    assert any("mass not conserved" in s for s in problems)


def test_run_rejects_wrong_min_p(run_outputs):
    initial, final, rows, _ = run_outputs
    rows[-1] = rows[-1][:2] + (rows[-1][2] + 1e-9,) + rows[-1][3:]
    problems = checks.check_run(initial, final, run_csv(rows), steps=1)
    assert problems == [problems[0]] and "min_p" in problems[0]


def test_run_rejects_wrong_row_count(run_outputs):
    initial, final, rows, _ = run_outputs
    assert checks.check_run(initial, final, run_csv(rows), steps=2) != []


def picard_csv(deltas):
    lines = ["sweep,delta,ratio"]
    for i, d in enumerate(deltas):
        ratio = "" if i == 0 else repr(d / deltas[i - 1])
        lines.append(f"{i + 1},{d!r},{ratio}")
    return "\n".join(lines) + "\n"


def test_picard_accepts():
    assert checks.check_picard(picard_csv([20.0, 0.2, 1e-3, 4e-10]), 1e-9) == []


def test_picard_rejects_ratio_above_one():
    problems = checks.check_picard(picard_csv([20.0, 0.2, 0.3, 4e-10]), 1e-9)
    assert len(problems) == 1 and "not below 1" in problems[0]


def test_picard_rejects_unconverged_last_delta():
    problems = checks.check_picard(picard_csv([20.0, 0.2, 1e-3, 4e-9]), 1e-9)
    assert len(problems) == 1 and "exceeds tol" in problems[0]


def test_fixed_point_accepts_and_rejects():
    a = smooth_state()
    near = tuple(x.copy() for x in a)
    near[2][1, 2, 3] += 9e-9
    assert checks.check_fixed_point(a, near, 1e-9) == []
    near[2][1, 2, 3] += 2e-9
    assert checks.check_fixed_point(a, near, 1e-9) != []


DTS = (4e-4, 2e-4, 1e-4)


def mms_temporal_csv(diffs, order=None):
    if order is None:
        order = math.log(diffs[0] / diffs[1]) / math.log(2.0)
    return (
        "dt,error,diff,order\n"
        f"{DTS[0]!r},2e-4,{diffs[0]!r},{order!r}\n"
        f"{DTS[1]!r},2e-4,{diffs[1]!r},\n"
        f"{DTS[2]!r},2e-4,,\n"
    )


def mms_spatial_csv(errors):
    rows = ["n,error,ratio,converged"]
    for i, (n, e) in enumerate(zip((8, 12, 16), errors)):
        if i + 1 < len(errors):
            ok = e >= 10 * errors[i + 1] or e <= 1e-12
            rows.append(f"{n},{e!r},{e / errors[i + 1]!r},{'true' if ok else 'false'}")
        else:
            rows.append(f"{n},{e!r},,")
    return "\n".join(rows) + "\n"


def test_mms_accepts():
    diffs = [7e-12 * 16.0, 7e-12]
    spatial = mms_spatial_csv([6e-5, 2e-7, 4e-13])
    assert checks.check_mms(mms_temporal_csv(diffs), spatial, 1e-12) == []


def test_mms_rejects_wrong_order():
    diffs = [7e-12 * 8.0, 7e-12]
    problems = checks.check_mms(mms_temporal_csv(diffs), mms_spatial_csv([6e-5, 2e-7, 4e-13]), 1e-12)
    assert len(problems) == 1 and "not 4" in problems[0]


def test_mms_rejects_slow_spatial_fall():
    spatial = mms_spatial_csv([6e-5, 2e-5, 4e-13])
    problems = checks.check_mms(mms_temporal_csv([7e-12 * 16.0, 7e-12]), spatial, 1e-12)
    assert len(problems) == 1 and "less than 10x" in problems[0]


def test_mms_exact_accepts_and_rejects():
    t = 0.0032
    fields = tuple(x.copy() for x in checks.a_osc_fields(N, t))
    fields[0][2, 3, 4] += 1e-5
    assert checks.check_mms_exact(fields, N, t, 1e-5) == []
    problems = checks.check_mms_exact(fields, N, t, 2e-5)
    assert len(problems) == 1 and "mms_temporal.csv error" in problems[0]


def test_a_osc_closed_form():
    v1, v2, sigma, p = checks.a_osc_fields(N, 0.0)
    assert v1[0, 0, 0] == 1.0 and v1[0, 0, N] == -1.0
    assert np.all(v2 == 0.0)
    assert sigma[0, 0, 0] == pytest.approx(1.1) and p[0, 0] == pytest.approx(1.1)
