"""Derived fields: strain heating, the compressibility source phi, the
diagnostic vertical velocity, thermodynamic reconstruction, mass, and the
residual tying the evolved mass-equation form back to the original one.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    PressurePositivityLost,
    QNegativityWarning,
    SigmaPositivityLost,
)
from .fields import COS, ScalarField2D, ScalarField3D, VectorField3D2C
from .params import PhysParams
from .spectral import (
    ProductWorkspace,
    dealiased_sum,
    divergence,
    factor,
    vertical_average,
)

DEFAULT_TOL_BC = 1e-11


@dataclass(frozen=True)
class DiagnosticFields:
    """The fields every RHS, energy record and step bound of one (v, sigma, p)
    snapshot reads: the diagnosed w, the source phi and the heating Q."""

    w: ScalarField3D
    phi: ScalarField3D
    Q: ScalarField3D


def _check_sigma(sigma: ScalarField3D) -> None:
    if float(sigma.data.min()) <= 0.0:
        raise SigmaPositivityLost(f"min sigma = {sigma.data.min():.3e}")


def heating(
    v: VectorField3D2C,
    params: PhysParams,
    ws: ProductWorkspace | None = None,
    tol_bc: float = DEFAULT_TOL_BC,
) -> ScalarField3D:
    """Q = S_h : grad_h v + mu |dz v|^2, S_h the horizontal stress.

    With a = d1v1, b = d2v1, c = d1v2, d = d2v2 the contraction
    mu (2a^2 + 2d^2 + (b+c)^2) + lambda (a+d)^2 is summed expanded,

        (2mu+lambda) (a^2 + d^2) + mu (b^2 + 2bc + c^2) + 2 lambda ad
        + mu (|dz v1|^2 + |dz v2|^2),

    all products dealiased, so that only the six factors a, b, c, d, dz v1,
    dz v2 are synthesized (b and c are Phi_1's again). Q can dip negative
    when lambda < 0; that is reported as a warning, not an error, since
    only mu + lambda > 0 is guaranteed.
    """
    ws = ws or ProductWorkspace(v.grid)
    mu, lam = params.mu, params.lam
    v1, v2 = factor(v.component(0)), factor(v.component(1))
    a, b = v1.dx(), v1.dy()
    c, d = v2.dx(), v2.dy()
    vz1, vz2 = v1.dz(), v2.dz()
    Q = dealiased_sum(
        [
            (a, a, 2.0 * mu + lam),
            (d, d, 2.0 * mu + lam),
            (b, b, mu),
            (b, c, 2.0 * mu),
            (c, c, mu),
            (a, d, 2.0 * lam),
            (vz1, vz1, mu),
            (vz2, vz2, mu),
        ],
        ws,
    )
    qmin = float(Q.data.min())
    if qmin < -tol_bc:
        # fixed message text so repeated emissions collapse under the
        # default warning filter; magnitude rides along as an attribute
        warning = QNegativityWarning(
            "nodal heating dipped below -tol_bc (dealiasing truncation)"
        )
        warning.qmin = qmin
        warnings.warn(warning, stacklevel=2)
    return Q


def phi_field(
    v: VectorField3D2C,
    p: ScalarField2D,
    params: PhysParams,
    Q: ScalarField3D | None = None,
    ws: ProductWorkspace | None = None,
) -> ScalarField3D:
    """phi = div_h vtilde + (vtilde . grad_h p - (gamma-1) Qtilde) / (gamma p).

    Every term is a z-fluctuation scaled by z-independent factors, so the
    vertical average vanishes to rounding by construction.
    """
    if float(p.data.min()) <= 0.0:
        raise PressurePositivityLost(f"min p = {p.data.min():.3e}")
    ws = ws or ProductWorkspace(v.grid)
    if Q is None:
        Q = heating(v, params, ws)
    gamma = params.gamma
    v1, v2 = factor(v.component(0)), factor(v.component(1))
    px, py = factor(p).dx(), factor(p).dy()
    # vtilde . grad_h p = v . grad_h p - vbar . grad_h p: v and vbar are
    # factors of Phi_1 and of the p transport, vtilde of nothing else
    transport = dealiased_sum(
        [(v1, px), (v2, py), (v1.mean(), px, -1.0), (v2.mean(), py, -1.0)], ws
    )
    qt = ws.field(factor(Q).fluct())
    numer = transport.data - (gamma - 1.0) * qt.data
    core = ws.field(divergence(v).fluct())
    return ScalarField3D(v.grid, core.data + numer / (gamma * p.data[..., None]), COS)


def vertical_velocity(
    sigma: ScalarField3D,
    v: VectorField3D2C,
    p: ScalarField2D,
    params: PhysParams,
    phi: ScalarField3D | None = None,
    ws: ProductWorkspace | None = None,
) -> ScalarField3D:
    """w = nu dz sigma - int_0^z phi dz'; exactly zero at z=0, ~rounding at z=1."""
    ws = ws or ProductWorkspace(v.grid)
    if phi is None:
        phi = phi_field(v, p, params, ws=ws)
    return ws.field(params.nu * factor(sigma).dz() - factor(phi).cumint())


def reconstruct_thermo(sigma: ScalarField3D, p: ScalarField2D, params: PhysParams):
    """rho = 1/sigma and theta = sigma p / R, formed nodally so that the
    constitutive identity R rho theta = p holds at the nodes by construction."""
    _check_sigma(sigma)
    if float(p.data.min()) <= 0.0:
        raise PressurePositivityLost(f"min p = {p.data.min():.3e}")
    rho = ScalarField3D(sigma.grid, 1.0 / sigma.data, COS)
    theta = ScalarField3D(
        sigma.grid, sigma.data * p.data[..., None] / params.R, COS
    )
    return rho, theta


def total_mass(sigma: ScalarField3D) -> float:
    """M = integral of 1/sigma over the channel (mode-0 spectral quadrature)."""
    _check_sigma(sigma)
    recip = ScalarField3D(sigma.grid, 1.0 / sigma.data, COS)
    column = vertical_average(recip)
    return float((2.0 * np.pi) ** 2 * column.data.mean())


def compute_diagnostics(
    state,
    params: PhysParams,
    ws: ProductWorkspace | None = None,
    tol_bc: float = DEFAULT_TOL_BC,
) -> DiagnosticFields:
    """Q, then phi (raises PressurePositivityLost for p <= 0), then w
    (SigmaPositivityLost for sigma <= 0), all in the one workspace."""
    ws = ws or ProductWorkspace(state.grid)
    Q = heating(state.v, params, ws, tol_bc)
    phi = phi_field(state.v, state.p, params, Q, ws)
    _check_sigma(state.sigma)
    w = vertical_velocity(state.sigma, state.v, state.p, params, phi, ws)
    return DiagnosticFields(w=w, phi=phi, Q=Q)


def boundary_defects(diag: DiagnosticFields) -> tuple[float, float]:
    """(max |w| on z in {0,1}, max |vertical_average(phi)|)."""
    w_defect = float(
        max(np.abs(diag.w.data[..., 0]).max(), np.abs(diag.w.data[..., -1]).max())
    )
    phi_defect = float(np.abs(vertical_average(diag.phi).data).max())
    return w_defect, phi_defect


def continuity_residual(
    state,
    sigma_tendency: ScalarField3D,
    params: PhysParams,
    diag: DiagnosticFields | None = None,
    ws: ProductWorkspace | None = None,
) -> float:
    """Max abs residual of d_t rho + div_h(rho v) + dz(rho w), with
    d_t rho = -dsigma/sigma^2 from the given sigma tendency."""
    ws = ws or ProductWorkspace(state.grid)
    if diag is None:
        diag = compute_diagnostics(state, params, ws)
    _check_sigma(state.sigma)
    sig = state.sigma.data
    drho_dt = -sigma_tendency.data / sig**2
    rho = ScalarField3D(state.grid, 1.0 / sig, COS)
    v1, v2 = state.v.component(0), state.v.component(1)
    flux = [factor(dealiased_sum([(rho, f)], ws)) for f in (v1, v2, diag.w)]
    flux_h = ws.field(flux[0].dx() + flux[1].dy())
    flux_z = ws.field(flux[2].dz())
    return float(np.abs(drho_dt + flux_h.data + flux_z.data).max())
