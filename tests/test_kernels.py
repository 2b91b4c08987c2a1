"""The numpy.fft kernels of ``spectral`` against scipy.fft.

The library builds DCT-I and DST-I from the FFT of the even and odd
extensions, and analyses a fine-grid product horizontally first. The oracle
here is scipy.fft's own DCT-I, DST-I and real 2D FFTs, and the product
analysis in the old order: the z analysis on every fine line, then the
horizontal analysis.
"""

import numpy as np
import pytest
import scipy.fft as sfft

from cpelab import Grid
from cpelab.spectral import ProductWorkspace, _dct1, _dst1, _irfft2, _rfft2, _trunc_h

TOL = 1e-14
GRIDS = [Grid(12, 12, 12), Grid(12, 16, 9), Grid(8, 12, 11)]
GRID_IDS = ["12^3", "12x16x9", "8x12x11"]


def _assert_rel(got, want):
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= TOL * np.max(np.abs(want))


@pytest.mark.parametrize("n", range(9, 39))
@pytest.mark.parametrize("complex_input", [False, True], ids=["real", "complex"])
def test_dct1_dst1_match_scipy(n, complex_input):
    rng = np.random.default_rng(n)
    a = rng.standard_normal((3, 4, n))
    if complex_input:
        a = a + 1j * rng.standard_normal(a.shape)
    _assert_rel(_dct1(a), sfft.dct(a, type=1, axis=-1))
    _assert_rel(_dst1(a), sfft.dst(a, type=1, axis=-1))


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
