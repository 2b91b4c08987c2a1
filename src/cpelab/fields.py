"""Field containers: nodal real values plus a vertical-parity tag.

The parity tag records how a 3D field extends across z = 0:

* ``"cos"``  — even extension; a cosine series in z (v, sigma, Q, phi, ...).
* ``"sin"``  — odd extension; a sine series, zero at z in {0, 1} (w, ddz of
  cosine fields). Stored nodally including the boundary planes.
* ``"zlin"`` — a0(x, y) * z plus a sine series (cumulative z-integrals).
  Sines vanish at z = 1, so the slope a0 is recoverable from the nodal data.

Operations that transform in z dispatch on the tag; scalar ``+``, the one
field operator, rejects "cos" plus an odd tag (no equation term needs it).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import NumericalFault, UsageFault
from .grid import Grid

COS = "cos"
SIN = "sin"
ZLIN = "zlin"

_PARITIES = (COS, SIN, ZLIN)


def _check(data: np.ndarray, shape: tuple, what: str) -> np.ndarray:
    data = np.asarray(data, dtype=np.float64)
    if data.shape != shape:
        raise UsageFault(f"{what}: expected shape {shape}, got {data.shape}")
    if not np.all(np.isfinite(data)):
        raise NumericalFault(f"{what}: non-finite values")
    return data


def _buffer_key(data: np.ndarray, kind: str | None) -> tuple:
    return (data.__array_interface__["data"][0], data.strides, data.shape, kind)


def _add_parity(a: str, b: str) -> str:
    if a == b:
        return a
    if {a, b} == {SIN, ZLIN}:
        return ZLIN
    raise UsageFault(f"cannot combine parities {a!r} and {b!r}")


@dataclass(frozen=True)
class ScalarField3D:
    grid: Grid
    data: np.ndarray
    parity: str = COS

    def __post_init__(self):
        if self.parity not in _PARITIES:
            raise UsageFault(f"unknown parity {self.parity!r}")
        object.__setattr__(
            self, "data", _check(self.data, self.grid.shape3d, "ScalarField3D")
        )

    @cached_property
    def buffer_key(self) -> tuple:
        """Identity of the nodal buffer and parity, equal for every view of
        it (``v.component(i)`` makes a new view on each call); built once per
        view."""
        return _buffer_key(self.data, self.parity)

    def __add__(self, other: "ScalarField3D") -> "ScalarField3D":
        _same_grid(self, other)
        return ScalarField3D(
            self.grid, self.data + other.data, _add_parity(self.parity, other.parity)
        )


@dataclass(frozen=True)
class VectorField3D2C:
    """Two horizontal components of a 3D velocity field."""

    grid: Grid
    data: np.ndarray  # (2, nx, ny, nz+1)
    parity: str = COS

    def __post_init__(self):
        if self.parity not in _PARITIES:
            raise UsageFault(f"unknown parity {self.parity!r}")
        object.__setattr__(
            self, "data", _check(self.data, (2, *self.grid.shape3d), "VectorField3D2C")
        )

    def component(self, i: int) -> ScalarField3D:
        return ScalarField3D(self.grid, self.data[i], self.parity)


@dataclass(frozen=True)
class ScalarField2D:
    """A field on T^2 only (pressure, vertical averages)."""

    grid: Grid
    data: np.ndarray  # (nx, ny)

    def __post_init__(self):
        object.__setattr__(
            self, "data", _check(self.data, self.grid.shape2d, "ScalarField2D")
        )

    @cached_property
    def buffer_key(self) -> tuple:
        """Identity of the nodal buffer, built once per view."""
        return _buffer_key(self.data, None)

    def __add__(self, other: "ScalarField2D") -> "ScalarField2D":
        _same_grid(self, other)
        return ScalarField2D(self.grid, self.data + other.data)


def _same_grid(a, b) -> None:
    if a.grid != b.grid:
        raise UsageFault("fields live on different grids")


@dataclass(frozen=True)
class State:
    """The unknowns (v, sigma, p) at one instant."""

    v: VectorField3D2C
    sigma: ScalarField3D
    p: ScalarField2D
    t: float = 0.0

    def __post_init__(self):
        if not (self.v.grid == self.sigma.grid == self.p.grid):
            raise UsageFault("state components live on different grids")
        if self.v.parity != COS or self.sigma.parity != COS:
            raise UsageFault("state fields must be cosine-parity (Neumann)")

    @property
    def grid(self) -> Grid:
        return self.v.grid


def constant_state(grid: Grid, v=(0.0, 0.0), sigma=1.0, p=1.0, t=0.0) -> State:
    vdata = np.empty((2, *grid.shape3d))
    vdata[0] = v[0]
    vdata[1] = v[1]
    return State(
        VectorField3D2C(grid, vdata),
        ScalarField3D(grid, np.full(grid.shape3d, float(sigma))),
        ScalarField2D(grid, np.full(grid.shape2d, float(p))),
        t=t,
    )
