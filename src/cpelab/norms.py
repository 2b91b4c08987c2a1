"""Sobolev norms and the per-record energy monitor.

H^k is the derivative-sum form ||f||^2 = sum_{|alpha|<=k} ||D^alpha f||_2^2
with spectral derivatives and exact quadrature of the band-limited
integrands (Parseval in all three directions).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import product as iproduct

import numpy as np

from .errors import UsageFault
from .fields import COS, ScalarField2D, ScalarField3D, VectorField3D2C
from .spectral import spectrum


def _parseval_weight_2d(grid) -> np.ndarray:
    wy = np.full(grid.ny // 2 + 1, 2.0)
    wy[0] = 1.0
    return (2.0 * np.pi) ** 2 * wy[None, :]


@lru_cache(maxsize=64)
def _sobolev_weight(grid, parity: str | None, k: int) -> np.ndarray:
    """sum_{a+b+c<=k} kx^2a ky^2b (pi m)^2c times the Parseval weights, laid
    out like the spectrum of a field of the given parity (None: a 2D field),
    so that ||f||_{H^k}^2 is one weighted sum of its power spectrum."""
    kx2 = (grid.kx**2)[:, None, None]
    ky2 = (grid.ky_half**2)[None, :, None]
    weight = _parseval_weight_2d(grid)[..., None]
    if parity is None:
        mz2 = np.zeros(1)  # only the terms with c = 0 count
    else:
        nz = grid.nz
        m = np.arange(nz + 1) if parity == COS else np.arange(1, nz)
        mz2 = (np.pi * m) ** 2
        # cosine mode 0 counts once, every other mode twice
        wz = np.full(m.shape, 2.0)
        if parity == COS:
            wz[0] = 1.0
        weight = weight * wz
    total = sum(
        kx2**a * ky2**b * mz2**c
        for a, b, c in iproduct(range(k + 1), repeat=3)
        if a + b + c <= k
    )
    out = weight * total
    if parity is None:
        out = out[..., 0]
    out.setflags(write=False)
    return out


def _scalar_sq_norm(field, k: int) -> float:
    spec = spectrum(field)
    parity = field.parity if isinstance(field, ScalarField3D) else None
    power = spec.real**2 + spec.imag**2
    power *= _sobolev_weight(field.grid, parity, k)
    return float(power.sum())


def sobolev_norm(field, k: int) -> float:
    """||f||_{H^k} over the field's own domain (channel for 3D, torus for 2D)."""
    if not 0 <= k <= 4:
        raise UsageFault(f"sobolev_norm supports k in 0..4, got {k}")
    if isinstance(field, VectorField3D2C):
        return float(
            np.sqrt(sum(_scalar_sq_norm(field.component(i), k) for i in range(2)))
        )
    if isinstance(field, (ScalarField3D, ScalarField2D)):
        return float(np.sqrt(_scalar_sq_norm(field, k)))
    raise UsageFault(f"sobolev_norm: unsupported field type {type(field).__name__}")


@dataclass(frozen=True)
class EnergyReport:
    """One row of the energy monitor, one ``run.csv`` row: the time, the
    energy ||v||_{H3}^2 + ||sigma||_{H2}^2 + ||p||_{H3}^2, the minima of
    sigma and p, the mass and the two wall defects."""

    t: float
    energy: float
    min_sigma: float
    min_p: float
    mass: float
    w_defect: float
    phi_defect: float


def energy_report(
    state, *, mass: float, w_defect: float, phi_defect: float
) -> EnergyReport:
    return EnergyReport(
        t=state.t,
        energy=_state_sq_norm(state, (3, 2, 3)),
        min_sigma=float(state.sigma.data.min()),
        min_p=float(state.p.data.min()),
        mass=mass,
        w_defect=w_defect,
        phi_defect=phi_defect,
    )


def nodal_l2(*fields) -> float:
    """Sum of the Euclidean norms of the fields' nodal values: the size the
    step growth detectors compare. np.linalg.norm would go through BLAS and
    wake its thread pool inside the transform-bound stepping loops."""
    return sum(math.sqrt(float(np.square(f.data).sum())) for f in fields)


def _state_sq_norm(a, orders: tuple[int, int, int], b=None) -> float:
    """||v||_{H^kv}^2 + ||sigma||_{H^ks}^2 + ||p||_{H^kp}^2 of the state ``a``,
    or of the gap a - b, for orders (kv, ks, kp)."""
    fields = (a.v, a.sigma, a.p)
    if b is not None:
        g = a.grid
        fields = (
            VectorField3D2C(g, a.v.data - b.v.data, a.v.parity),
            ScalarField3D(g, a.sigma.data - b.sigma.data, a.sigma.parity),
            ScalarField2D(g, a.p.data - b.p.data),
        )
    return sum(sobolev_norm(f, k) ** 2 for f, k in zip(fields, orders))


def difference_norm(a, b) -> float:
    """H1 x L2 x H1 size of the gap between two states (the norm the
    uniqueness/continuous-dependence estimates are phrased in)."""
    return math.sqrt(_state_sq_norm(a, (1, 0, 1), b))


@lru_cache(maxsize=64)
def _dissipation_weight(grid) -> np.ndarray:
    """|k|^4 on each velocity component and (pi m)^2 on sigma, times the L2
    weights of a cosine spectrum, stacked as ``gap_dissipation`` stacks."""
    mz2 = (np.pi * grid.mz) ** 2
    k4 = ((grid.kx**2)[:, None, None] + (grid.ky_half**2)[None, :, None] + mz2) ** 2
    out = np.stack([k4, k4, np.broadcast_to(mz2, k4.shape)])
    out *= _sobolev_weight(grid, COS, 0)
    out.setflags(write=False)
    return out


def gap_dissipation(a, b) -> float:
    """||lap v_d||_2^2 + ||dz sigma_d||_2^2 of the gap (v_d, sigma_d) = a - b,
    one weighted sum of the gap's power spectrum (Parseval)."""
    dv = a.v.data - b.v.data
    gaps = (dv[0], dv[1], a.sigma.data - b.sigma.data)
    spec = np.stack([spectrum(ScalarField3D(a.grid, d, COS)) for d in gaps])
    power = spec.real**2 + spec.imag**2
    power *= _dissipation_weight(a.grid)
    return float(power.sum())
