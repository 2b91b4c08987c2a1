"""Spectral derivatives, transforms, dealiased products."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cpelab import COS, SIN, ZLIN, Grid, UsageFault, make_initial, regularized_tendency
from cpelab.fields import ScalarField2D, ScalarField3D, VectorField3D2C
from cpelab.spectral import (
    ProductWorkspace,
    band_project,
    dealiased_sum,
    divergence,
    factor,
    field_from_spectrum,
    random_band_limited_3d,
    spectrum,
    vertical_average,
)

TOL = 1e-13


def ev(f):
    """Nodal values of a lazy factor: a derivative on the coarse grid."""
    return ProductWorkspace(f.grid).field(f)


def trig(grid, kx=0, ky=0, m=0):
    X, Y, Z = grid.mesh3d()
    return ScalarField3D(
        grid, np.cos(kx * X) * np.cos(ky * Y) * np.cos(m * np.pi * Z), COS
    )


def test_ddx_ddy_exact(grid16):
    X, Y, _ = grid16.mesh3d()
    f = trig(grid16, kx=3, ky=2)
    np.testing.assert_allclose(
        ev(factor(f).dx()).data, -3 * np.sin(3 * X) * np.cos(2 * Y), atol=TOL
    )
    np.testing.assert_allclose(
        ev(factor(f).dy()).data, -2 * np.cos(3 * X) * np.sin(2 * Y), atol=TOL
    )


def test_ddz_parity_and_value(grid16):
    _, _, Z = grid16.mesh3d()
    f = trig(grid16, m=2)
    g = ev(factor(f).dz())
    assert g.parity == SIN
    np.testing.assert_allclose(g.data, -2 * np.pi * np.sin(2 * np.pi * Z), atol=TOL)
    back = ev(factor(g).dz())
    assert back.parity == COS
    np.testing.assert_allclose(back.data, -((2 * np.pi) ** 2) * f.data, atol=1e-12)


def test_dzz_matches_double_ddz(grid16):
    f = trig(grid16, kx=1, m=3)
    twice = ev(factor(ev(factor(f).dz())).dz())
    np.testing.assert_allclose(ev(factor(f).dzz()).data, twice.data, atol=1e-11)


def test_laplacians(grid16):
    f = trig(grid16, kx=2, ky=1, m=1)
    lam_h = -(2**2 + 1**2)
    np.testing.assert_allclose(ev(factor(f).lap_h()).data, lam_h * f.data, atol=1e-12)
    lam3 = lam_h - np.pi**2
    np.testing.assert_allclose(ev(factor(f).lap3()).data, lam3 * f.data, atol=1e-11)


def test_laplacian_h_2d(grid16):
    x, y = grid16.mesh2d()
    p = ScalarField2D(grid16, np.cos(2 * x + 0 * y))
    np.testing.assert_allclose(ev(factor(p).lap_h()).data, -4 * p.data, atol=TOL)
    px, py = ev(factor(p).dx()), ev(factor(p).dy())
    np.testing.assert_allclose(px.data, -2 * np.sin(2 * x), atol=TOL)
    np.testing.assert_allclose(py.data, 0.0, atol=TOL)


def test_div_h(grid16):
    X, Y, _ = grid16.mesh3d()
    data = np.stack([np.cos(2 * X), np.cos(Y)])
    v = VectorField3D2C(grid16, data, COS)
    np.testing.assert_allclose(
        ev(divergence(v)).data, -2 * np.sin(2 * X) - np.sin(Y), atol=TOL
    )


def test_vertical_average_and_fluctuation(grid16):
    f = trig(grid16, kx=1, m=2)
    fb = vertical_average(f)
    np.testing.assert_allclose(fb.data, 0.0, atol=TOL)
    g = trig(grid16, kx=1, m=0)
    np.testing.assert_allclose(vertical_average(g).data, g.data[..., 0], atol=TOL)
    tilde = ev(factor(f).fluct())
    np.testing.assert_allclose(tilde.data, f.data, atol=TOL)
    np.testing.assert_allclose(vertical_average(tilde).data, 0.0, atol=TOL)


def test_cumulative_integral_modes(grid16):
    """Mode m integrates to sin(m pi z)/(m pi); mean integrates to a0*z."""
    _, _, Z = grid16.mesh3d()
    f = trig(grid16, m=1)
    F = ev(factor(f).cumint())
    np.testing.assert_allclose(F.data, np.sin(np.pi * Z) / np.pi, atol=TOL)
    assert F.data[..., 0].max() == 0.0
    const = trig(grid16)
    G = ev(factor(const).cumint())
    assert G.parity == ZLIN
    np.testing.assert_allclose(G.data, Z, atol=TOL)
    # fundamental theorem: ddz of the integral returns the integrand
    np.testing.assert_allclose(ev(factor(F).dz()).data, f.data, atol=1e-12)
    np.testing.assert_allclose(ev(factor(G).dz()).data, const.data, atol=1e-12)


def test_product_exact_when_band_fits(grid16):
    """With band sums below the dealias cut the padded product is the
    plain nodal product."""
    rng = np.random.default_rng(7)
    a = random_band_limited_3d(grid16, rng, (3, 3, 3))
    b = random_band_limited_3d(grid16, rng, (3, 3, 3))
    prod = dealiased_sum([(a, b)])
    np.testing.assert_allclose(prod.data, a.data * b.data, atol=1e-13)
    assert prod.parity == COS


def test_product_parity_rules(grid16):
    _, _, Z = grid16.mesh3d()
    s = ScalarField3D(grid16, np.sin(np.pi * Z), SIN)
    c = trig(grid16, m=1)
    assert dealiased_sum([(s, c)]).parity == SIN
    assert dealiased_sum([(s, s)]).parity == COS


def test_band_project_idempotent(grid16):
    rng = np.random.default_rng(11)
    f = random_band_limited_3d(grid16, rng, (7, 7, 7))
    once = band_project(f, (2, 3, 4))
    twice = band_project(once, (2, 3, 4))
    np.testing.assert_allclose(once.data, twice.data, atol=1e-14)
    # projection onto the field's own band changes nothing
    same = band_project(f, (7, 7, 7))
    np.testing.assert_allclose(same.data, f.data, atol=1e-13)


def test_spectrum_roundtrip(grid16):
    rng = np.random.default_rng(3)
    f = random_band_limited_3d(grid16, rng, (4, 4, 4))
    spec = spectrum(f)
    back = field_from_spectrum(grid16, spec, f.parity)
    np.testing.assert_allclose(back.data, f.data, atol=1e-13)


@given(seed=st.integers(0, 2**32 - 1))
def test_random_fields_are_band_limited(grid12, seed):
    rng = np.random.default_rng(seed)
    f = random_band_limited_3d(grid12, rng, (2, 2, 2))
    proj = band_project(f, (2, 2, 2))
    np.testing.assert_allclose(proj.data, f.data, atol=1e-13)


def test_random_fields_seeded(grid16):
    a = random_band_limited_3d(grid16, np.random.default_rng(5), (3, 3, 3))
    b = random_band_limited_3d(grid16, np.random.default_rng(5), (3, 3, 3))
    assert np.array_equal(a.data, b.data)


def test_workspace_reuse_matches(grid16):
    rng = np.random.default_rng(1)
    a = random_band_limited_3d(grid16, rng, (5, 5, 5))
    b = random_band_limited_3d(grid16, rng, (5, 5, 5))
    ws = ProductWorkspace(grid16)
    p1 = dealiased_sum([(a, b)], ws)
    p2 = dealiased_sum([(a, b)])
    np.testing.assert_allclose(p1.data, p2.data, atol=0)


# ---------------------------------------------------------------------------
# coefficient-first factors
# ---------------------------------------------------------------------------

SHAPES = [(12, 12, 12), (12, 16, 9), (8, 12, 11)]
SHAPE_IDS = ["x".join(map(str, s)) for s in SHAPES]


def trig_sum(grid, seed, zbasis):
    """A seeded sum of modes a cos(kx x + ky y + t) Z_m(z) and the exact
    results of every factor operator on it, as nodal arrays."""
    rng = np.random.default_rng(seed)
    X, Y, Z = grid.mesh3d()
    keys = ("f", "x", "y", "z", "zz", "h", "fluct", "mean", "cumint", "cumint_mean")
    parts = dict.fromkeys(keys, 0.0)
    for j in range(6):
        a = rng.uniform(-1.0, 1.0)
        kx, ky, m = (int(rng.integers(0, 4)) for _ in range(3))
        if zbasis == SIN:
            m += 1
        elif j == 0:
            m = 0  # a z-mean, so the cumulative integral has a slope
        t = rng.uniform(0.0, 2.0 * np.pi)
        c, s = np.cos(kx * X + ky * Y + t), np.sin(kx * X + ky * Y + t)
        mp = m * np.pi
        if zbasis == COS:
            zf, dz = np.cos(mp * Z), -mp * np.sin(mp * Z)
            zmean = 1.0 if m == 0 else 0.0
            parts["cumint"] += a * c * (Z if m == 0 else np.sin(mp * Z) / mp)
            cm = 0.5 if m == 0 else (1.0 - (-1.0) ** m) / mp**2
            parts["cumint_mean"] += a * cm * c[..., 0]
            parts["fluct"] += 0.0 if m == 0 else a * c * zf
        else:
            zf, dz = np.sin(mp * Z), mp * np.cos(mp * Z)
            zmean = (1.0 - (-1.0) ** m) / mp
        parts["f"] += a * c * zf
        parts["x"] += -a * kx * s * zf
        parts["y"] += -a * ky * s * zf
        parts["z"] += a * c * dz
        parts["zz"] += -(mp**2) * a * c * zf
        parts["h"] += -(kx**2 + ky**2) * a * c * zf
        parts["mean"] += a * zmean * c[..., 0]
    return ScalarField3D(grid, parts.pop("f"), zbasis), parts


def assert_close(actual, expected, tol=TOL):
    scale = max(1.0, float(np.abs(expected).max()))
    np.testing.assert_allclose(actual, expected, rtol=0, atol=tol * scale)


@pytest.mark.parametrize("shape", SHAPES, ids=SHAPE_IDS)
@pytest.mark.parametrize("zbasis", [COS, SIN])
def test_coefficient_operators_match_exact(shape, zbasis):
    grid = Grid(*shape)
    f, exact = trig_sum(grid, sum(shape), zbasis)
    exact["lap3"] = exact["h"] + exact["zz"]
    ops = {"dx": "x", "dy": "y", "dz": "z", "lap_h": "h", "mean": "mean"}
    if zbasis == COS:
        ops.update(dzz="zz", lap3="lap3", fluct="fluct", cumint="cumint")
    ws = ProductWorkspace(grid)
    for method, key in ops.items():
        out = ws.field(getattr(factor(f), method)())
        assert_close(out.data, exact[key])
    if zbasis == COS:
        assert_close(ws.field(factor(f).cumint().mean()).data, exact["cumint_mean"])
        # the same through the nodal zlin field
        zlin = ev(factor(f).cumint())
        assert_close(vertical_average(zlin).data, exact["cumint_mean"])
        assert_close(ev(factor(zlin).dz()).data, f.data)


@pytest.mark.parametrize("shape", SHAPES, ids=SHAPE_IDS)
def test_vector_operators_match_exact(shape):
    grid = Grid(*shape)
    f1, e1 = trig_sum(grid, 1, COS)
    f2, e2 = trig_sum(grid, 2, COS)
    v = VectorField3D2C(grid, np.stack([f1.data, f2.data]), COS)
    ws = ProductWorkspace(grid)
    div = divergence(v)
    assert_close(ws.field(div).data, e1["x"] + e2["y"])
    # d/dx div_h v from the exact first derivatives, taken spectrally
    dx_div = ev(factor(ScalarField3D(grid, e1["x"] + e2["y"], COS)).dx())
    assert_close(ws.field(div.dx()).data, dx_div.data)


@pytest.mark.parametrize("shape", SHAPES, ids=SHAPE_IDS)
def test_lazy_factor_fine_samples_match_materialized(shape):
    grid = Grid(*shape)
    f, _ = trig_sum(grid, 5, COS)
    s, _ = trig_sum(grid, 6, SIN)
    p = ScalarField2D(grid, f.data[..., 3].copy())
    F, S, P = factor(f), factor(s), factor(p)
    lazy3 = [F.dx(), F.dy(), F.dz(), F.dzz(), F.lap3(), F.fluct(), F.cumint(),
             S.dz(), S.dx() - 0.5 * F.dz(), 2.0 * F.dx() + F.dy() - f]
    lazy2 = [F.mean(), S.mean(), P.dx(), P.lap_h(), F.mean().dy() + P]
    ws = ProductWorkspace(grid)
    for lazy in lazy3:
        nodal = ws.field(lazy)
        assert nodal.parity == lazy.kind
        assert_close(ws.fine3(lazy), ProductWorkspace(grid).fine3(nodal))
    for lazy in lazy2:
        nodal = ws.field(lazy)
        assert isinstance(nodal, ScalarField2D)
        assert_close(ws.fine3(lazy), ProductWorkspace(grid).fine3(nodal))
    # a zlin factor is sampled as the sine series through its interior nodes
    zlin = ws.field(F.cumint())
    interior = zlin.data.copy()
    interior[..., [0, -1]] = 0.0
    sine = ScalarField3D(grid, interior, SIN)
    assert_close(ws.fine3(F.cumint())[..., 1:-1], ws.fine3(sine)[..., 1:-1])
    # products seed their coefficients; a fresh workspace re-analyses them
    for prod in (
        dealiased_sum([(f, s), (F.dz(), F)], ws),
        dealiased_sum([(f, F.dx())], ws),
        dealiased_sum([(P, P.dy())], ws),
    ):
        assert_close(ws.fine3(prod), ProductWorkspace(grid).fine3(prod))


def test_factor_rejects_mixed_kinds(grid12):
    f = trig(grid12, kx=1, m=1)
    with pytest.raises(UsageFault):
        factor(f).mean() + factor(f)
    with pytest.raises(UsageFault):
        factor(f).dz() + factor(f)
    with pytest.raises(UsageFault):
        factor(f).dz().dzz()


@pytest.mark.filterwarnings("ignore::cpelab.QNegativityWarning")
def test_rhs_transform_budget(grid12, params, monkeypatch):
    """One 12^3 RHS (with its diagnostics) makes at most 41 numpy.fft calls,
    all of them horizontal (rfft2/irfft2): the z transforms are matrix
    products. The initial state is built before the count starts."""
    state = make_initial("smooth-random", grid12, params, amplitude=0.1, seed=0)
    calls = []
    for name in ("fft", "ifft", "rfft", "irfft", "rfft2", "irfft2"):
        fn = getattr(np.fft, name)

        def counted(*args, _fn=fn, _name=name, **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    regularized_tendency(state, params)
    assert 0 < len(calls) <= 41
    assert set(calls) == {"rfft2", "irfft2"}
