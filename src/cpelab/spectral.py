"""Spectral transforms, derivatives, vertical calculus, dealiased products.

Conventions
-----------
Horizontal: real FFT over (x, y), ``norm="forward"`` so spectral entries are
mode amplitudes (padding-invariant). Vertical: DCT-I over the nz+1 nodes for
cosine-parity data, DST-I over the nz-1 interior nodes for sine-parity data,
both scaled by 1/(2 nz) on analysis so synthesis is the bare kernel (again
padding-invariant). Horizontal Nyquist rows/columns and the vertical mode
m = nz are zeroed by every analysis.

Products are formed on a 3/2 zero-padded grid in all directions and
truncated back. Factors are padded in their own parity basis: sine-type
fields resampled through a cosine transform would pick up O(1/nz) Gibbs
error from the corner of their even extension, which is far above the
accuracy this module promises.

Products are coefficient-first. A ``ProductWorkspace`` analyses each field
once, and a derivative factor (a ``Factor``: d/dx, d/dz, Laplacians, div_h,
fluctuation, vertical average, ...) is the parent's coefficients times a
multiplier, synthesized straight onto the fine grid: one z synthesis on the
coarse horizontal spectrum, one fine inverse rfft2. The public derivatives
are one trip through the same coefficients.
"""

from __future__ import annotations

import numpy as np
from scipy import fft as sfft

from .errors import NumericalFault, UsageFault
from .fields import (
    COS,
    SIN,
    ZLIN,
    ScalarField2D,
    ScalarField3D,
    VectorField3D2C,
    _add_parity,
)
from .grid import Grid, fft_workers

# ---------------------------------------------------------------------------
# low-level kernels
# ---------------------------------------------------------------------------


def _dct1(a: np.ndarray) -> np.ndarray:
    return sfft.dct(a, type=1, axis=-1, workers=fft_workers())


def _dst1(a: np.ndarray) -> np.ndarray:
    return sfft.dst(a, type=1, axis=-1, workers=fft_workers())


def _rfft2(a: np.ndarray) -> np.ndarray:
    return sfft.rfft2(a, axes=(0, 1), norm="forward", workers=fft_workers())


def _irfft2(a: np.ndarray, s: tuple[int, int]) -> np.ndarray:
    return sfft.irfft2(a, s=s, axes=(0, 1), norm="forward", workers=fft_workers())


def _zero_h_nyquist(spec: np.ndarray, nx: int, ny: int) -> np.ndarray:
    spec[nx // 2] = 0.0
    spec[:, ny // 2] = 0.0
    return spec


def cos_coeffs(a: np.ndarray, nz: int) -> np.ndarray:
    """Cosine-mode amplitudes c[..., m], f_j = c_0 + 2 sum c_m cos + (-1)^j c_nz."""
    c = _dct1(a) / (2.0 * nz)
    c[..., nz] = 0.0  # vertical Nyquist
    return c


def cos_nodal(c: np.ndarray) -> np.ndarray:
    return _dct1(c)


def sin_coeffs(a: np.ndarray, nz: int) -> np.ndarray:
    """Sine-mode amplitudes s[..., m-1] for modes m = 1..nz-1 (interior data)."""
    return _dst1(a[..., 1:-1]) / (2.0 * nz)


def sin_nodal(s: np.ndarray) -> np.ndarray:
    out = np.zeros(s.shape[:-1] + (s.shape[-1] + 2,))
    out[..., 1:-1] = _dst1(s)
    return out


# ---------------------------------------------------------------------------
# z amplitudes and horizontal spectra
# ---------------------------------------------------------------------------

_2D = "2d"  # kind of a horizontal-only field or factor


def _kind(f) -> str:
    if isinstance(f, Factor):
        return f.kind
    if isinstance(f, ScalarField3D):
        return f.parity
    if isinstance(f, ScalarField2D):
        return _2D
    raise UsageFault(f"cannot multiply a {type(f).__name__}")


def _z_amplitudes(f) -> np.ndarray:
    """Vertical amplitudes on the coarse horizontal nodes.

    Cosine fields give nz+1 cosine amplitudes (mode nz zeroed), sine fields
    nz-1 sine amplitudes. A zlin field a0 z + sine part gives the nz-1 sine
    amplitudes of its sine part followed by the slope a0. A 2D field is its
    own amplitude.
    """
    g = f.grid
    if isinstance(f, ScalarField2D):
        return f.data
    if f.parity == COS:
        return cos_coeffs(f.data, g.nz)
    if f.parity == SIN:
        return sin_coeffs(f.data, g.nz)
    slope = f.data[..., -1] - f.data[..., 0]
    sine = sin_coeffs(f.data - slope[..., None] * g.z_nodes, g.nz)
    return np.concatenate([sine, slope[..., None]], axis=-1)


def _from_z_amplitudes(grid: Grid, zc: np.ndarray, kind: str):
    """The field whose z amplitudes (in the layout of ``_z_amplitudes``) are zc."""
    if kind == _2D:
        return ScalarField2D(grid, zc)
    if kind == COS:
        return ScalarField3D(grid, cos_nodal(zc), COS)
    if kind == SIN:
        return ScalarField3D(grid, sin_nodal(zc), SIN)
    data = sin_nodal(zc[..., :-1]) + zc[..., -1:] * grid.z_nodes
    return ScalarField3D(grid, data, ZLIN)


def _h_spectrum(zc: np.ndarray) -> np.ndarray:
    return _zero_h_nyquist(_rfft2(zc), zc.shape[0], zc.shape[1])


def spectrum(field) -> np.ndarray:
    """Complex mode amplitudes; z axis holds cosine or sine coefficients."""
    if isinstance(field, ScalarField3D) and field.parity == ZLIN:
        raise UsageFault("spectrum of a zlin field is not single-basis")
    if not isinstance(field, (ScalarField3D, ScalarField2D)):
        raise UsageFault(f"spectrum: unsupported field type {type(field).__name__}")
    return _h_spectrum(_z_amplitudes(field))


def field_from_spectrum(grid: Grid, spec: np.ndarray, parity: str = COS):
    if parity not in (COS, SIN):
        raise UsageFault(f"cannot synthesize parity {parity!r}")
    kind = _2D if spec.ndim == 2 else parity
    return _from_z_amplitudes(grid, _irfft2(spec, (grid.nx, grid.ny)), kind)


# ---------------------------------------------------------------------------
# lazy factors: linear operators taken in coefficient space
# ---------------------------------------------------------------------------

# operators acting along z only; they commute with the horizontal transform
_Z_OPS = frozenset({"z", "zz", "fluct", "mean", "cumint"})


def _op_kind(op: str, kind: str) -> str:
    if op in ("x", "y", "h"):
        return kind
    if kind == _2D:
        raise UsageFault(f"operator {op!r} needs a 3D field")
    if op == "z":
        return SIN if kind == COS else COS
    if op == "mean":
        return _2D
    if kind != COS:
        raise UsageFault(f"operator {op!r} expects a cosine-parity field")
    return ZLIN if op == "cumint" else COS


class Factor:
    """A product factor sum_j coef_j * ops_j(field_j), evaluated lazily.

    Each term is (coef, ops, field), ``ops`` a tuple of operator names
    applied left to right: "x", "y" (d/dx, d/dy), "h" (horizontal
    Laplacian), "z" (d/dz: cos <-> sin, zlin -> cos), "zz" (d^2/dz^2),
    "fluct" (the z-fluctuation), "mean" (the vertical average, 3D -> 2D)
    and "cumint" (int_0^z, cos -> zlin). ``ProductWorkspace`` applies them
    to the parents' memoized coefficients, so a derivative factor costs no
    coarse nodal copy. A plain field is the identity factor.
    """

    __slots__ = ("terms", "kind")

    def __init__(self, terms):
        self.terms = tuple(terms)
        kind = None
        for _, ops, f in self.terms:
            k = _kind(f)
            for op in ops:
                k = _op_kind(op, k)
            kind = k if kind is None else _add_parity(kind, k)
        self.kind = kind

    @property
    def grid(self) -> Grid:
        return self.terms[0][2].grid

    @property
    def z_only(self) -> bool:
        return all(op in _Z_OPS for _, ops, _ in self.terms for op in ops)

    def _then(self, op: str) -> "Factor":
        return Factor((c, ops + (op,), f) for c, ops, f in self.terms)

    def dx(self) -> "Factor":
        return self._then("x")

    def dy(self) -> "Factor":
        return self._then("y")

    def dz(self) -> "Factor":
        return self._then("z")

    def dzz(self) -> "Factor":
        return self._then("zz")

    def lap_h(self) -> "Factor":
        return self._then("h")

    def lap3(self) -> "Factor":
        return self.lap_h() + self.dzz()

    def fluct(self) -> "Factor":
        return self._then("fluct")

    def mean(self) -> "Factor":
        return self._then("mean")

    def cumint(self) -> "Factor":
        return self._then("cumint")

    def __add__(self, other) -> "Factor":
        return Factor(self.terms + factor(other).terms)

    def __sub__(self, other) -> "Factor":
        return self + -factor(other)

    def __mul__(self, c: float) -> "Factor":
        return Factor((float(c) * k, ops, f) for k, ops, f in self.terms)

    __rmul__ = __mul__

    def __neg__(self) -> "Factor":
        return self * -1.0


def factor(f) -> Factor:
    """``f`` as a lazy factor (a field becomes the identity factor)."""
    return f if isinstance(f, Factor) else Factor(((1.0, (), f),))


def divergence(v: VectorField3D2C) -> Factor:
    """div_h v as a lazy factor."""
    return factor(v.component(0)).dx() + factor(v.component(1)).dy()


# ---------------------------------------------------------------------------
# public derivatives and vertical calculus: one trip through coefficients
# ---------------------------------------------------------------------------


def _evaluate(f: Factor):
    return ProductWorkspace(f.grid).field(f)


def ddx(f):
    """Spectral d/dx; works for 2D and 3D scalar fields, preserves parity."""
    return _evaluate(factor(f).dx())


def ddy(f):
    return _evaluate(factor(f).dy())


def ddz(f: ScalarField3D) -> ScalarField3D:
    """Spectral d/dz: cosine -> sine, sine -> cosine, zlin -> cosine (exact)."""
    return _evaluate(factor(f).dz())


def dzz(f: ScalarField3D) -> ScalarField3D:
    """Second z-derivative of a cosine-parity field (stays cosine)."""
    return _evaluate(factor(f).dzz())


def laplacian_h(f):
    """Horizontal Laplacian for 2D or 3D scalar fields."""
    return _evaluate(factor(f).lap_h())


def laplacian3(f: ScalarField3D) -> ScalarField3D:
    """Full Laplacian (horizontal + vertical) of a cosine-parity field."""
    return _evaluate(factor(f).lap3())


def div_h(v: VectorField3D2C) -> ScalarField3D:
    return _evaluate(divergence(v))


def grad_h_2d(p: ScalarField2D) -> tuple[ScalarField2D, ScalarField2D]:
    ws = ProductWorkspace(p.grid)
    return ws.field(factor(p).dx()), ws.field(factor(p).dy())


def vertical_average(f: ScalarField3D) -> ScalarField2D:
    r"""\bar f = \int_0^1 f dz, exact for the field's own interpolant."""
    return _evaluate(factor(f).mean())


def fluctuation(f: ScalarField3D) -> ScalarField3D:
    r"""\tilde f = f - \bar f (cosine parity only; others never need it)."""
    return _evaluate(factor(f).fluct())


def vertical_cumulative_integral(f: ScalarField3D) -> ScalarField3D:
    """F(z) = int_0^z f dz' per cosine mode: mode 0 -> a0*z, mode m -> sin/(m pi)."""
    return _evaluate(factor(f).cumint())


# ---------------------------------------------------------------------------
# dealiased products
# ---------------------------------------------------------------------------


def _pad_h(spec: np.ndarray, g: Grid, out: np.ndarray) -> np.ndarray:
    """Place a coarse horizontal spectrum into a fine one (Nyquist dropped)."""
    hx = g.nx // 2
    hy = g.ny // 2
    out[:hx, :hy] = spec[:hx, :hy]
    out[-(hx - 1):, :hy] = spec[-(hx - 1):, :hy]
    return out


def _trunc_h(fine: np.ndarray, g: Grid, coarse_shape) -> np.ndarray:
    out = np.zeros(coarse_shape, dtype=complex)
    hx = g.nx // 2
    hy = g.ny // 2
    out[:hx, :hy] = fine[:hx, :hy]
    out[-(hx - 1):, :hy] = fine[-(hx - 1):, :hy]
    return out


def _buffer_key(f) -> tuple:
    """Identity of a field's nodal buffer; equal for every view of it
    (``v.component(i)`` makes a new view on each call)."""
    a = f.data
    return (a.__array_interface__["data"][0], a.strides, a.shape, _kind(f))


class _Coeffs:
    """A field's z amplitudes and, once asked for, their horizontal spectrum."""

    __slots__ = ("zc", "_spec")

    def __init__(self, zc: np.ndarray, spec: np.ndarray | None = None):
        self.zc = zc
        self._spec = spec

    def spec(self) -> np.ndarray:
        if self._spec is None:
            self._spec = _h_spectrum(self.zc)
        return self._spec


class ProductWorkspace:
    """Coefficients and fine-grid factor samples within one RHS assembly.

    Each field is analysed once: its z amplitudes, then on demand their
    horizontal spectrum. Both are memoized by the field's nodal buffer, and
    ``reduce3``/``reduce2``/``field`` seed the memo with what they make.
    Factors are synthesized on the 3/2 grid straight from the coefficients
    and memoized by their terms. Every memo entry keeps a reference to its
    buffer, so the workspace must not outlive the fields it has seen; the
    fine-sample keys name only buffers the coefficient memo holds. All
    methods are read-only with respect to inputs.
    """

    def __init__(self, grid: Grid):
        self.grid = grid
        self._coeffs: dict[tuple, tuple[np.ndarray, _Coeffs]] = {}
        self._fine: dict[tuple, np.ndarray] = {}
        kx = grid.kx[:, None]
        ky = grid.ky_half[None, :]
        self._h_mult = {"x": 1j * kx, "y": 1j * ky, "h": -(kx**2 + ky**2)}
        self._pim = np.pi * np.arange(1, grid.nz, dtype=float)

    # -- coefficients --

    def coeffs(self, f) -> _Coeffs:
        key = _buffer_key(f)
        hit = self._coeffs.get(key)
        if hit is not None:
            return hit[1]
        c = _Coeffs(_z_amplitudes(f))
        self._coeffs[key] = (f.data, c)
        return c

    def _seed(self, f, zc: np.ndarray, spec: np.ndarray | None = None):
        self._coeffs[_buffer_key(f)] = (f.data, _Coeffs(zc, spec))
        return f

    def _apply(self, op: str, a: np.ndarray, kind: str) -> np.ndarray:
        """One operator on z amplitudes or spectra ``a`` of the given kind."""
        if op in self._h_mult:
            mult = self._h_mult[op]
            return a * (mult if a.ndim == 2 else mult[..., None])
        nz, pim = self.grid.nz, self._pim
        if op == "z":
            if kind == COS:
                return -pim * a[..., 1:nz]
            out = np.zeros(a.shape[:-1] + (nz + 1,), dtype=a.dtype)
            out[..., 1:nz] = pim * a[..., : nz - 1]
            if kind == ZLIN:
                out[..., 0] = a[..., -1]
            return out
        if op == "zz":
            return a * -((np.pi * self.grid.mz) ** 2)
        if op == "fluct":
            out = a.copy()
            out[..., 0] = 0.0
            return out
        if op == "cumint":
            return np.concatenate([a[..., 1:nz] / pim, a[..., :1]], axis=-1)
        # mean: int_0^1 of 2 s_m sin(m pi z) is 2 s_m (1 - (-1)^m) / (m pi)
        if kind == COS:
            return a[..., 0]
        weights = 2.0 * (1.0 - (-1.0) ** np.arange(1, nz)) / pim
        out = a[..., : nz - 1] @ weights
        return out + 0.5 * a[..., -1] if kind == ZLIN else out

    def _combine(self, f: Factor, spectral: bool) -> np.ndarray:
        """The factor's spectrum, or its z amplitudes if ``spectral`` is off."""
        out = None
        for c, ops, g in f.terms:
            coeffs = self.coeffs(g)
            a = coeffs.spec() if spectral else coeffs.zc
            kind = _kind(g)
            for op in ops:
                a = self._apply(op, a, kind)
                kind = _op_kind(op, kind)
            if kind == SIN and f.kind == ZLIN:  # a sine term has zero slope
                a = np.concatenate([a, np.zeros_like(a[..., :1])], axis=-1)
            a = c * a
            out = a if out is None else out + a
        return out

    def field(self, f):
        """Nodal values of a factor; z-only factors skip the horizontal
        transforms, so like the nodal operators they keep horizontal content."""
        f = factor(f)
        g = self.grid
        if f.z_only:
            zc, spec = self._combine(f, spectral=False), None
        else:
            spec = self._combine(f, spectral=True)
            zc = _irfft2(spec, (g.nx, g.ny))
        return self._seed(_from_z_amplitudes(g, zc, f.kind), zc, spec)

    # -- factor synthesis on the fine grid --

    def fine3(self, f) -> np.ndarray:
        """Samples of a field or factor on the 3/2 grid; a memo hit makes
        no transform."""
        f = factor(f)
        key = tuple((c, ops, _buffer_key(g)) for c, ops, g in f.terms)
        hit = self._fine.get(key)
        if hit is not None:
            return hit
        g = self.grid
        fx, fy, fz = g.fine_nx, g.fine_ny, g.fine_nz
        spec = self._combine(f, spectral=True)
        if f.kind == _2D:
            fine = _pad_h(spec, g, np.zeros((fx, fy // 2 + 1), dtype=complex))
            nodal = _irfft2(fine, (fx, fy))
        elif f.kind == COS:
            # z synthesis on the coarse horizontal spectrum, then one
            # horizontal synthesis on the fine grid
            zfine = np.zeros(spec.shape[:2] + (fz + 1,), dtype=complex)
            zfine[..., : g.nz] = spec[..., : g.nz]
            fine = np.zeros((fx, fy // 2 + 1, fz + 1), dtype=complex)
            nodal = _irfft2(_pad_h(_dct1(zfine), g, fine), (fx, fy))
        else:
            if f.kind == ZLIN:  # analysed in sine space, like its nodal data
                spec = spec[..., :-1] + spec[..., -1:] * _ramp_sine(g.nz)
            zfine = np.zeros(spec.shape[:2] + (fz - 1,), dtype=complex)
            zfine[..., : g.nz - 1] = spec
            fine = np.zeros((fx, fy // 2 + 1, fz + 1), dtype=complex)
            _pad_h(_dst1(zfine), g, fine[..., 1:-1])
            nodal = _irfft2(fine, (fx, fy))
        self._fine[key] = nodal
        return nodal

    fine2 = fine3  # 2D factors take the same path


    # -- product analysis back to the coarse grid --

    def reduce3(self, fine_nodal: np.ndarray, odd: bool) -> ScalarField3D:
        g = self.grid
        fz = g.fine_nz
        if odd:
            zc = sin_coeffs(fine_nodal, fz)[..., : g.nz - 1]
        else:
            zc = cos_coeffs(fine_nodal, fz)[..., : g.nz + 1]
            zc[..., g.nz] = 0.0
        spec = _rfft2(zc)
        coarse = _trunc_h(spec, g, (g.nx, g.ny // 2 + 1, zc.shape[-1]))
        zc = _irfft2(coarse, (g.nx, g.ny))
        return self._seed(_from_z_amplitudes(g, zc, SIN if odd else COS), zc, coarse)

    def reduce2(self, fine_nodal: np.ndarray) -> ScalarField2D:
        g = self.grid
        spec = _rfft2(fine_nodal)
        coarse = _trunc_h(spec, g, (g.nx, g.ny // 2 + 1))
        nodal = _irfft2(coarse, (g.nx, g.ny))
        return self._seed(ScalarField2D(g, nodal), nodal, coarse)


def _ramp_sine(nz: int) -> np.ndarray:
    """Sine amplitudes of z sampled on the interior nodes (closed-form DST-I)."""
    m = np.arange(1, nz)
    return (-1.0) ** (m + 1) / (2.0 * nz * np.tan(np.pi * m / (2.0 * nz)))


def _is_odd(f) -> bool:
    return _kind(f) in (SIN, ZLIN)


def _fine_factor(ws: ProductWorkspace, f):
    if _kind(f) == _2D:
        return ws.fine2(f)[..., None]
    return ws.fine3(f)


def dealiased_sum(terms, ws: ProductWorkspace | None = None):
    """Sum of pointwise products sharing one output basis, one reduction.

    ``terms`` is an iterable of (f, g) or (f, g, coef) entries, each factor
    a field or a lazy ``Factor``; every term must produce the same output
    kind (all 3D with one parity, or all 2D). 2D factors broadcast along z,
    and the output parity follows the sine/cosine product table. "zlin"
    factors are analyzed in sine space (exact up to their linear-slope
    content, which for the vertical velocity is the roundoff-sized integral
    of phi). Scalar coefficients multiply exactly and keep the factors
    memoizable across terms.
    """
    terms = [t if len(t) == 3 else (t[0], t[1], 1.0) for t in terms]
    if not terms:
        raise UsageFault("dealiased_sum needs at least one term")
    ws = ws or ProductWorkspace(terms[0][0].grid)
    if all(_kind(f) == _2D and _kind(g) == _2D for f, g, _ in terms):
        acc = None
        for f, g, c in terms:
            prod = c * (ws.fine2(f) * ws.fine2(g))
            acc = prod if acc is None else acc + prod
        return ws.reduce2(acc)
    odd_flags = {_is_odd(f) != _is_odd(g) for f, g, _ in terms}
    if len(odd_flags) != 1:
        raise UsageFault("dealiased_sum terms have mixed output parity")
    acc = None
    for f, g, c in terms:
        prod = c * (_fine_factor(ws, f) * _fine_factor(ws, g))
        acc = prod if acc is None else acc + prod
    return ws.reduce3(acc, odd=odd_flags.pop())


# ---------------------------------------------------------------------------
# band-limited random fields and projections
# ---------------------------------------------------------------------------


def band_project(f, band: tuple[int, int, int]):
    """Zero all modes with |kx| > bx, ky > by, or m > bz (and Nyquists)."""
    bx, by, bz = band
    g = f.grid
    spec = spectrum(f)
    kx = np.abs(g.kx)
    mask_x = kx <= bx
    mask_y = g.ky_half <= by
    if spec.ndim == 2:
        spec *= mask_x[:, None] * mask_y[None, :]
        return field_from_spectrum(g, spec)
    nzmodes = spec.shape[-1]
    mz = np.arange(nzmodes) if f.parity == COS else np.arange(1, nzmodes + 1)
    mask_z = mz <= bz
    spec *= mask_x[:, None, None] * mask_y[None, :, None] * mask_z[None, None, :]
    return field_from_spectrum(g, spec, f.parity)


def random_band_limited_3d(
    grid: Grid, rng: np.random.Generator, band: tuple[int, int, int]
) -> ScalarField3D:
    """Seeded, Neumann-compatible (cosine-basis) random field, unit-ish scale."""
    noise = ScalarField3D(grid, rng.standard_normal(grid.shape3d), COS)
    f = band_project(noise, band)
    peak = float(np.max(np.abs(f.data)))
    if peak == 0.0:
        raise NumericalFault("degenerate random field")
    return ScalarField3D(grid, f.data / peak, COS)


def random_band_limited_2d(
    grid: Grid, rng: np.random.Generator, band: tuple[int, int]
) -> ScalarField2D:
    noise = ScalarField2D(grid, rng.standard_normal(grid.shape2d))
    f = band_project(noise, (band[0], band[1], 0))
    peak = float(np.max(np.abs(f.data)))
    if peak == 0.0:
        raise NumericalFault("degenerate random field")
    return ScalarField2D(grid, f.data / peak)
