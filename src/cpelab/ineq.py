"""Sampling lab for the calculus/commutator/algebra inequalities on the
2pi-periodic 3-torus.

All norms are computed nodally on a lab grid with n >= 4*band + 2, which
makes the rectangle rule exact for every quadratic-in-(f,g) integrand that
appears (products and commutators have band <= 2*band). L^q for q in
{3,4,6} on single fields is high-order quadrature of the same kind.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iproduct

import numpy as np

from .errors import UsageFault

ALLOWED_EXPONENTS = (2.0, 3.0, 4.0, 6.0, math.inf)
KINDS = ("CAL", "COME", "ALG")


def lab_size(band: int) -> int:
    """Smallest multiple of 6 with alias-free quadrature for band-2B data."""
    return 6 * math.ceil((4 * band + 2) / 6)


class TorusLab:
    def __init__(self, n: int):
        self.n = n
        k = np.fft.fftfreq(n, d=1.0 / n)
        self.kx = k[:, None, None]
        self.ky = k[None, :, None]
        self.kz = np.arange(n // 2 + 1)[None, None, :]
        self.cell = (2.0 * np.pi / n) ** 3

    def forward(self, u: np.ndarray) -> np.ndarray:
        return np.fft.rfftn(u, axes=(0, 1, 2))

    def inverse(self, spec: np.ndarray) -> np.ndarray:
        return np.fft.irfftn(spec, s=(self.n,) * 3, axes=(0, 1, 2))

    def band_mask(self, band: int) -> np.ndarray:
        return (
            (np.abs(self.kx) <= band)
            & (np.abs(self.ky) <= band)
            & (self.kz <= band)
        )

    def random_field(self, rng: np.random.Generator, band: int) -> "LabField":
        noise = rng.standard_normal((self.n,) * 3)
        spec = self.forward(noise) * self.band_mask(band)
        return LabField(self, self.inverse(spec))


class LabField:
    """Nodal field with a cached spectrum and derivative memo."""

    def __init__(self, lab: TorusLab, data: np.ndarray):
        self.lab = lab
        self.data = data
        self._spec = None
        self._derivs: dict[tuple[int, int, int], np.ndarray] = {}

    @property
    def spec(self) -> np.ndarray:
        if self._spec is None:
            self._spec = self.lab.forward(self.data)
        return self._spec

    def deriv(self, alpha: tuple[int, int, int]) -> np.ndarray:
        if alpha == (0, 0, 0):
            return self.data
        hit = self._derivs.get(alpha)
        if hit is None:
            lab = self.lab
            w = (
                (1j * lab.kx) ** alpha[0]
                * (1j * lab.ky) ** alpha[1]
                * (1j * lab.kz) ** alpha[2]
            )
            hit = lab.inverse(self.spec * w)
            self._derivs[alpha] = hit
        return hit


def _multi_indices(order: int):
    return [
        (a, b, c)
        for a, b, c in iproduct(range(order + 1), repeat=3)
        if a + b + c == order
    ]


def lebesgue_norm(lab: TorusLab, u: np.ndarray, q: float) -> float:
    if q == math.inf:
        return float(np.abs(u).max())
    return float((lab.cell * np.sum(np.abs(u) ** q)) ** (1.0 / q))


def w_norm(field: LabField, m: int, s: float) -> float:
    """W^{m,s} norm: ell^s aggregation over all |alpha| <= m (max for inf)."""
    lab = field.lab
    vals = [
        lebesgue_norm(lab, field.deriv(alpha), s)
        for order in range(m + 1)
        for alpha in _multi_indices(order)
    ]
    if s == math.inf:
        return max(vals)
    return float(sum(v**s for v in vals) ** (1.0 / s))


def _inv(e: float) -> Fraction:
    return Fraction(0) if e == math.inf else Fraction(1, int(e))


def check_exponents(m: int, q: float, r1: float, s1: float, r2: float, s2: float):
    for e in (q, r1, s1, r2, s2):
        if e not in ALLOWED_EXPONENTS:
            raise UsageFault(
                f"exponent {e} outside quadrature-supported set {ALLOWED_EXPONENTS}"
            )
    if m < 0:
        raise UsageFault("derivative order m must be nonnegative")
    if _inv(q) != _inv(r1) + _inv(s1) or _inv(q) != _inv(r2) + _inv(s2):
        raise UsageFault(
            f"exponents (q={q}, r1={r1}, s1={s1}, r2={r2}, s2={s2}) "
            "violate 1/q = 1/r1 + 1/s1 = 1/r2 + 1/s2"
        )


@dataclass(frozen=True)
class InequalitySample:
    exponents: tuple
    lhs: float
    rhs: float
    ratio: float


def _sample(lhs: float, rhs: float, exponents: tuple) -> InequalitySample:
    ratio = lhs / rhs if rhs > 0 else (0.0 if lhs == 0.0 else math.inf)
    return InequalitySample(exponents=exponents, lhs=lhs, rhs=rhs, ratio=ratio)


def cal_sample(
    f: LabField, g: LabField, m: int, q: float, r1: float, s1: float, r2: float, s2: float
) -> InequalitySample:
    check_exponents(m, q, r1, s1, r2, s2)
    lab = f.lab
    fg = LabField(lab, f.data * g.data)
    lhs = max(lebesgue_norm(lab, fg.deriv(a), q) for a in _multi_indices(m))
    rhs = lebesgue_norm(lab, f.data, r1) * w_norm(g, m, s1) + lebesgue_norm(
        lab, g.data, r2
    ) * w_norm(f, m, s2)
    return _sample(lhs, rhs, (m, q, r1, s1, r2, s2))


def come_sample(
    f: LabField, g: LabField, m: int, q: float, r1: float, s1: float, r2: float, s2: float
) -> InequalitySample:
    check_exponents(m, q, r1, s1, r2, s2)
    if m < 1:
        raise UsageFault("commutator estimate needs m >= 1")
    lab = f.lab
    fg = LabField(lab, f.data * g.data)
    lhs = max(
        lebesgue_norm(lab, fg.deriv(a) - f.data * g.deriv(a), q)
        for a in _multi_indices(m)
    )
    grad_f = max(lebesgue_norm(lab, f.deriv(a), r1) for a in _multi_indices(1))
    rhs = grad_f * w_norm(g, m - 1, s1) + lebesgue_norm(
        lab, g.data, r2
    ) * w_norm(f, m, s2)
    return _sample(lhs, rhs, (m, q, r1, s1, r2, s2))


def alg_sample(f: LabField, g: LabField, m: int, q: float) -> InequalitySample:
    if q not in ALLOWED_EXPONENTS or q == math.inf:
        raise UsageFault(f"algebra-property exponent q={q} must be finite, in {ALLOWED_EXPONENTS[:-1]}")
    lab = f.lab
    fg = LabField(lab, f.data * g.data)
    lhs = w_norm(fg, m, q)
    rhs = lebesgue_norm(lab, f.data, math.inf) * w_norm(g, m, q) + lebesgue_norm(
        lab, g.data, math.inf
    ) * w_norm(f, m, q)
    return _sample(lhs, rhs, (m, q, math.inf, q, math.inf, q))


@dataclass(frozen=True)
class TrialStats:
    kind: str
    band: int
    n: int
    trials: int
    seed: int
    exponents: tuple
    max_ratio: float
    mean_ratio: float
    ratios: tuple[float, ...]


def run_trials(
    kind: str,
    m: int,
    exponents: tuple,
    trials: int,
    band: int,
    seed: int,
) -> TrialStats:
    """Seeded ratio statistics for one inequality kind at one band limit.

    ``exponents`` is (q, r1, s1, r2, s2) for CAL/COME and (q,) for ALG.
    """
    if kind not in KINDS:
        raise UsageFault(f"unknown inequality kind {kind!r}; known: {', '.join(KINDS)}")
    lab = TorusLab(lab_size(band))
    rng = np.random.default_rng(seed)
    ratios = []
    for _ in range(trials):
        f = lab.random_field(rng, band)
        g = lab.random_field(rng, band)
        if kind == "CAL":
            s = cal_sample(f, g, m, *exponents)
        elif kind == "COME":
            s = come_sample(f, g, m, *exponents)
        else:
            s = alg_sample(f, g, m, exponents[0])
        ratios.append(s.ratio)
    arr = np.asarray(ratios)
    exp_tuple = (m, *exponents) if kind != "ALG" else (m, exponents[0])
    return TrialStats(
        kind=kind,
        band=band,
        n=lab.n,
        trials=trials,
        seed=seed,
        exponents=exp_tuple,
        max_ratio=float(arr.max()),
        mean_ratio=float(arr.mean()),
        ratios=tuple(float(r) for r in arr),
    )


def constant_commutator_sample(seed: int = 0) -> InequalitySample:
    """The m = 2 commutator with f = 2 and a seeded band-6 g, at exponents
    (2, inf, 2, inf, 2); the discrete lhs vanishes identically (scaling by
    a power of two commutes with every FFT butterfly), so the returned
    ratio is exactly zero."""
    lab = TorusLab(lab_size(6))
    rng = np.random.default_rng(seed)
    g = lab.random_field(rng, 6)
    f = LabField(lab, np.full((lab.n,) * 3, 2.0))
    return come_sample(f, g, 2, 2.0, math.inf, 2.0, math.inf, 2.0)
