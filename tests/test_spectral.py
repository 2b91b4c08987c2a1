"""Spectral derivatives, transforms, dealiased products."""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from cpelab import COS, SIN, ZLIN
from cpelab.fields import ScalarField2D, ScalarField3D, VectorField3D2C
from cpelab.spectral import (
    ProductWorkspace,
    band_project,
    ddx,
    ddy,
    ddz,
    div_h,
    dzz,
    field_from_spectrum,
    fluctuation,
    grad_h_2d,
    laplacian3,
    laplacian_h,
    multiply_dealiased,
    random_band_limited_3d,
    spectrum,
    vertical_average,
    vertical_cumulative_integral,
)

TOL = 1e-13


def trig(grid, kx=0, ky=0, m=0):
    X, Y, Z = grid.mesh3d()
    return ScalarField3D(
        grid, np.cos(kx * X) * np.cos(ky * Y) * np.cos(m * np.pi * Z), COS
    )


def test_ddx_ddy_exact(grid16):
    X, Y, _ = grid16.mesh3d()
    f = trig(grid16, kx=3, ky=2)
    np.testing.assert_allclose(
        ddx(f).data, -3 * np.sin(3 * X) * np.cos(2 * Y), atol=TOL
    )
    np.testing.assert_allclose(
        ddy(f).data, -2 * np.cos(3 * X) * np.sin(2 * Y), atol=TOL
    )


def test_ddz_parity_and_value(grid16):
    _, _, Z = grid16.mesh3d()
    f = trig(grid16, m=2)
    g = ddz(f)
    assert g.parity == SIN
    np.testing.assert_allclose(g.data, -2 * np.pi * np.sin(2 * np.pi * Z), atol=TOL)
    back = ddz(g)
    assert back.parity == COS
    np.testing.assert_allclose(back.data, -((2 * np.pi) ** 2) * f.data, atol=1e-12)


def test_dzz_matches_double_ddz(grid16):
    f = trig(grid16, kx=1, m=3)
    np.testing.assert_allclose(dzz(f).data, ddz(ddz(f)).data, atol=1e-11)


def test_laplacians(grid16):
    f = trig(grid16, kx=2, ky=1, m=1)
    lam_h = -(2**2 + 1**2)
    np.testing.assert_allclose(laplacian_h(f).data, lam_h * f.data, atol=1e-12)
    lam3 = lam_h - np.pi**2
    np.testing.assert_allclose(laplacian3(f).data, lam3 * f.data, atol=1e-11)


def test_laplacian_h_2d(grid16):
    x, y = grid16.mesh2d()
    p = ScalarField2D(grid16, np.cos(2 * x + 0 * y))
    np.testing.assert_allclose(laplacian_h(p).data, -4 * p.data, atol=TOL)
    px, py = grad_h_2d(p)
    np.testing.assert_allclose(px.data, -2 * np.sin(2 * x), atol=TOL)
    np.testing.assert_allclose(py.data, 0.0, atol=TOL)


def test_div_h(grid16):
    X, Y, _ = grid16.mesh3d()
    data = np.stack([np.cos(2 * X), np.cos(Y)])
    v = VectorField3D2C(grid16, data, COS)
    np.testing.assert_allclose(
        div_h(v).data, -2 * np.sin(2 * X) - np.sin(Y), atol=TOL
    )


def test_vertical_average_and_fluctuation(grid16):
    f = trig(grid16, kx=1, m=2)
    fb = vertical_average(f)
    np.testing.assert_allclose(fb.data, 0.0, atol=TOL)
    g = trig(grid16, kx=1, m=0)
    np.testing.assert_allclose(vertical_average(g).data, g.data[..., 0], atol=TOL)
    tilde = fluctuation(f)
    np.testing.assert_allclose(tilde.data, f.data, atol=TOL)
    np.testing.assert_allclose(vertical_average(tilde).data, 0.0, atol=TOL)


def test_cumulative_integral_modes(grid16):
    """Mode m integrates to sin(m pi z)/(m pi); mean integrates to a0*z."""
    _, _, Z = grid16.mesh3d()
    f = trig(grid16, m=1)
    F = vertical_cumulative_integral(f)
    np.testing.assert_allclose(F.data, np.sin(np.pi * Z) / np.pi, atol=TOL)
    assert F.data[..., 0].max() == 0.0
    const = trig(grid16)
    G = vertical_cumulative_integral(const)
    assert G.parity == ZLIN
    np.testing.assert_allclose(G.data, Z, atol=TOL)
    # fundamental theorem: ddz of the integral returns the integrand
    np.testing.assert_allclose(ddz(F).data, f.data, atol=1e-12)
    np.testing.assert_allclose(ddz(G).data, const.data, atol=1e-12)


def test_product_exact_when_band_fits(grid16):
    """With band sums below the dealias cut the padded product is the
    plain nodal product."""
    rng = np.random.default_rng(7)
    a = random_band_limited_3d(grid16, rng, (3, 3, 3))
    b = random_band_limited_3d(grid16, rng, (3, 3, 3))
    prod = multiply_dealiased(a, b)
    np.testing.assert_allclose(prod.data, a.data * b.data, atol=1e-13)
    assert prod.parity == COS


def test_product_parity_rules(grid16):
    _, _, Z = grid16.mesh3d()
    s = ScalarField3D(grid16, np.sin(np.pi * Z), SIN)
    c = trig(grid16, m=1)
    assert multiply_dealiased(s, c).parity == SIN
    assert multiply_dealiased(s, s).parity == COS


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
    p1 = multiply_dealiased(a, b, ws)
    p2 = multiply_dealiased(a, b)
    np.testing.assert_allclose(p1.data, p2.data, atol=0)
