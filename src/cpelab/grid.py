"""Collocation grid for the horizontally periodic channel T^2 x (0, 1).

Horizontal directions are 2pi-periodic with unit integer wavenumbers
(Fourier); the vertical uses endpoint-inclusive cosine collocation nodes
z_j = j/nz, which makes the Neumann conditions at z in {0, 1} termwise
properties of the basis. Products of band-limited fields are dealiased by
3/2 zero padding in all three directions.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConstraintFault


def _fine_size(n: int) -> int:
    """Smallest even size >= 3n/2 (even keeps rfft padding uniform)."""
    m = (3 * n + 1) // 2
    return m + (m % 2)


@dataclass(frozen=True)
class Grid:
    """Spectral collocation descriptor; geometry only, no field data."""

    nx: int
    ny: int
    nz: int

    def __post_init__(self):
        for key, n in (("nx", self.nx), ("ny", self.ny)):
            if n < 8 or n % 2:
                raise ConstraintFault(key, "horizontal sizes must be even and >= 8")
        if self.nz < 8:
            raise ConstraintFault("nz", "vertical interval count must be >= 8")

    # --- node coordinates -------------------------------------------------

    @cached_property
    def x_nodes(self) -> np.ndarray:
        return np.arange(self.nx) * (2.0 * np.pi / self.nx)

    @cached_property
    def y_nodes(self) -> np.ndarray:
        return np.arange(self.ny) * (2.0 * np.pi / self.ny)

    @cached_property
    def z_nodes(self) -> np.ndarray:
        return np.arange(self.nz + 1) / self.nz

    def mesh3d(self):
        """X, Y, Z broadcastable to the (nx, ny, nz+1) field shape."""
        return np.meshgrid(self.x_nodes, self.y_nodes, self.z_nodes, indexing="ij")

    def mesh2d(self):
        return np.meshgrid(self.x_nodes, self.y_nodes, indexing="ij")

    # --- shapes -----------------------------------------------------------

    @property
    def shape3d(self):
        return (self.nx, self.ny, self.nz + 1)

    @property
    def shape2d(self):
        return (self.nx, self.ny)

    # --- wavenumbers (coarse grid, Nyquist rows/cols zeroed in use) --------

    @cached_property
    def kx(self) -> np.ndarray:
        """Signed integer wavenumbers along x (fft layout, length nx)."""
        return np.fft.fftfreq(self.nx, d=1.0 / self.nx)

    @cached_property
    def ky_half(self) -> np.ndarray:
        """Nonnegative wavenumbers along y (rfft layout, length ny//2+1)."""
        return np.fft.rfftfreq(self.ny, d=1.0 / self.ny)

    @cached_property
    def mz(self) -> np.ndarray:
        """Vertical cosine/sine mode indices 0..nz (wavenumber = mz*pi)."""
        return np.arange(self.nz + 1, dtype=float)

    # --- dealiasing: fine-grid sizes ---------------------------------------

    @property
    def fine_nx(self) -> int:
        return _fine_size(self.nx)

    @property
    def fine_ny(self) -> int:
        return _fine_size(self.ny)

    @property
    def fine_nz(self) -> int:
        # vertical interval count of the padded cosine grid
        return (3 * self.nz + 1) // 2

    # --- retained-mode cutoffs (horizontal Nyquist and z mode nz zeroed) ---

    @property
    def kh_max_sq(self) -> float:
        return float((self.nx // 2 - 1) ** 2 + (self.ny // 2 - 1) ** 2)

    @property
    def kz_max_sq(self) -> float:
        """Vertical cutoff, counted as (pi*nz)^2."""
        return (np.pi * self.nz) ** 2

    @property
    def k_max_sq(self) -> float:
        """max |k|^2 over retained modes."""
        return self.kh_max_sq + self.kz_max_sq
