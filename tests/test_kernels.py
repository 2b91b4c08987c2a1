"""The transform kernels of ``spectral`` against scipy.fft.

The library takes each vertical transform as one product against a cached
matrix (DCT-I or DST-I, with the 1/(2n) scaling, the zeroed mode nz, and on
the 3/2 grid the zero padding or the truncation folded in), and analyses a
fine-grid product horizontally first. The oracle here is scipy.fft's own
DCT-I, DST-I and real 2D FFTs, applied to the full, zero-padded or
truncated line, and the product analysis in the old order: the z analysis on
every fine line, then the horizontal analysis.
"""

import numpy as np
import pytest
import scipy.fft as sfft

from cpelab import Grid, PhysParams
from cpelab.fields import COS, ScalarField3D, constant_state
from cpelab.spectral import (
    ProductWorkspace,
    _along_z,
    _cos_amplitudes,
    _cos_analysis,
    _cos_synthesis,
    _irfft2,
    _rfft2,
    _sin_analysis,
    _sin_synthesis,
    _trunc_h,
    cos_coeffs,
    cos_nodal,
    sin_coeffs,
    sin_nodal,
)
from cpelab.tendencies import regularized_tendency

TOL = 1e-14
GRIDS = [Grid(12, 12, 12), Grid(12, 16, 9), Grid(8, 12, 11)]
GRID_IDS = ["12^3", "12x16x9", "8x12x11"]


def _assert_rel(got, want):
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= TOL * np.max(np.abs(want))


def _lines(rng, shape, complex_input):
    a = rng.standard_normal(shape)
    return a + 1j * rng.standard_normal(shape) if complex_input else a


def _dst1_nodal(s: np.ndarray, n: int) -> np.ndarray:
    """scipy's DST-I of s, zero-padded to n-1 modes, on the n+1 nodes."""
    padded = np.zeros(s.shape[:-1] + (n - 1,), dtype=s.dtype)
    padded[..., : s.shape[-1]] = s
    out = np.zeros(s.shape[:-1] + (n + 1,), dtype=s.dtype)
    out[..., 1:-1] = sfft.dst(padded, type=1, axis=-1)
    return out


@pytest.mark.parametrize("n", range(9, 39))
@pytest.mark.parametrize("complex_input", [False, True], ids=["real", "complex"])
def test_dct1_dst1_match_scipy(n, complex_input):
    """cos_coeffs/cos_nodal/sin_coeffs/sin_nodal on lines of n values."""
    a = _lines(np.random.default_rng(n), (3, 4, n), complex_input)
    nz = n - 1  # a line of n nodes spans n - 1 intervals
    want = sfft.dct(a, type=1, axis=-1) / (2.0 * nz)
    want[..., nz] = 0.0
    _assert_rel(cos_coeffs(a, nz), want)
    _assert_rel(cos_nodal(a), sfft.dct(a, type=1, axis=-1))
    _assert_rel(sin_coeffs(a, nz), sfft.dst(a[..., 1:-1], type=1, axis=-1) / (2.0 * nz))
    _assert_rel(sin_nodal(a), _dst1_nodal(a, n + 1))


@pytest.mark.parametrize("grid", GRIDS, ids=GRID_IDS)
@pytest.mark.parametrize("complex_input", [False, True], ids=["real", "complex"])
def test_padded_synthesis_and_truncating_analysis_match_scipy(grid, complex_input):
    """The 3/2-grid matrices of fine3 and reduce3 against scipy on the
    zero-padded coarse line and on the full fine line."""
    nz, fz = grid.nz, grid.fine_nz
    rng = np.random.default_rng(2)
    lines = (grid.nx, grid.ny // 2 + 1)
    c = _lines(rng, lines + (nz,), complex_input)
    padded = np.zeros(lines + (fz + 1,), dtype=c.dtype)
    padded[..., :nz] = c
    _assert_rel(_along_z(c, _cos_synthesis(fz, nz)), sfft.dct(padded, type=1, axis=-1))
    s = _lines(rng, lines + (nz - 1,), complex_input)
    sine = _along_z(s, _sin_synthesis(fz, nz - 1))
    _assert_rel(sine, _dst1_nodal(s, fz))
    assert np.all(sine[..., [0, -1]] == 0.0)

    fine = _lines(rng, lines + (fz + 1,), complex_input)
    want = sfft.dct(fine, type=1, axis=-1)[..., : nz + 1] / (2.0 * fz)
    want[..., nz] = 0.0
    _assert_rel(_cos_amplitudes(fine, fz, nz + 1), want)
    want = sfft.dst(fine[..., 1:-1], type=1, axis=-1)[..., : nz - 1] / (2.0 * fz)
    _assert_rel(_along_z(fine, _sin_analysis(fz, nz - 1)), want)


def test_z_matrices_are_cached_and_read_only():
    for build in (_cos_analysis, _cos_synthesis, _sin_analysis, _sin_synthesis):
        mat = build(18, 11)
        assert build(18, 11) is mat
        assert not mat.flags.writeable


@pytest.mark.parametrize("grid", GRIDS, ids=GRID_IDS)
def test_constant_in_z_analyses_to_exact_zeros(grid):
    """A field random in (x, y) and constant in z has exactly zero cosine
    amplitudes above mode 0, on the coarse nodes and through reduce3."""
    rng = np.random.default_rng(3)
    column = rng.standard_normal(grid.shape2d)[..., None]
    f = ScalarField3D(grid, np.repeat(column, grid.nz + 1, axis=-1), COS)
    zc = ProductWorkspace(grid).coeffs(f).zc
    assert np.all(zc[..., 1:] == 0.0)
    assert np.array_equal(zc[..., 0], column[..., 0])
    plane = rng.standard_normal((grid.fine_nx, grid.fine_ny, 1))
    fine = np.repeat(plane, grid.fine_nz + 1, axis=-1)
    ws = ProductWorkspace(grid)
    spec = ws.coeffs(ws.reduce3(fine, odd=False)).spec()
    assert np.all(spec[..., 1:] == 0.0)


def test_constant_state_tendency_is_exactly_zero():
    tend = regularized_tendency(constant_state(Grid(12, 12, 12)), PhysParams())
    for out in (tend.dv, tend.dsigma, tend.dp):
        assert np.all(out.data == 0.0)


@pytest.mark.parametrize("grid", GRIDS, ids=GRID_IDS)
def test_rfft2_irfft2_match_scipy(grid):
    rng = np.random.default_rng(0)
    s = (grid.nx, grid.ny)
    for shape in (grid.shape2d, grid.shape3d):
        a = rng.standard_normal(shape)
        spec = _rfft2(a)
        _assert_rel(spec, sfft.rfft2(a, axes=(0, 1), norm="forward"))
        _assert_rel(_irfft2(spec, s), sfft.irfft2(spec, s=s, axes=(0, 1), norm="forward"))


def _reduce3_z_first(grid: Grid, fine: np.ndarray, odd: bool) -> np.ndarray:
    """Nodal values of a fine product's coarse projection, analysed in z first."""
    nz, fz = grid.nz, grid.fine_nz
    if odd:
        zc = sfft.dst(fine[..., 1:-1], type=1, axis=-1)[..., : nz - 1] / (2.0 * fz)
    else:
        zc = sfft.dct(fine, type=1, axis=-1)[..., : nz + 1] / (2.0 * fz)
        zc[..., nz] = 0.0
    spec = sfft.rfft2(zc, axes=(0, 1), norm="forward")
    coarse = _trunc_h(spec, grid, (grid.nx, grid.ny // 2 + 1, zc.shape[-1]))
    zc = sfft.irfft2(coarse, s=grid.shape2d, axes=(0, 1), norm="forward")
    if not odd:
        return sfft.dct(zc, type=1, axis=-1)
    out = np.zeros(grid.shape3d)
    out[..., 1:-1] = sfft.dst(zc, type=1, axis=-1)
    return out


@pytest.mark.parametrize("grid", GRIDS, ids=GRID_IDS)
@pytest.mark.parametrize("odd", [False, True], ids=["cos", "sin"])
def test_reduce3_horizontal_first_matches_z_first(grid, odd):
    rng = np.random.default_rng(1)
    fine = rng.standard_normal((grid.fine_nx, grid.fine_ny, grid.fine_nz + 1))
    if odd:
        fine[..., [0, -1]] = 0.0
    got = ProductWorkspace(grid).reduce3(fine, odd).data
    _assert_rel(got, _reduce3_z_first(grid, fine, odd))
