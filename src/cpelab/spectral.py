"""Spectral transforms, lazy derivative factors, dealiased products.

Conventions
-----------
Horizontal: real FFT over (x, y), ``norm="forward"`` so spectral entries are
mode amplitudes (padding-invariant). Vertical: DCT-I over the nz+1 nodes for
cosine-parity data, DST-I over the nz-1 interior nodes for sine-parity data,
both scaled by 1/(2 nz) on analysis so synthesis is the bare kernel (again
padding-invariant). Horizontal Nyquist rows/columns and the vertical mode
m = nz are zeroed by every analysis.

numpy.fft is used only horizontally (``rfft2``/``irfft2``). The vertical
lines are short (nz+1 nodes, about 3nz/2 on the padded grid), so each z
transform is one small product against a cached, read-only real matrix:
cosine or sine, analysis or synthesis, keyed by the interval count and the
number of modes. The matrices carry the 1/(2 nz) scaling, the zeroed mode
nz, and, on the 3/2 grid, the zero padding of a synthesis and the truncation
of an analysis. Complex lines (coarse horizontal spectra) go through them as
(re, im) pairs. Cosine analysis is taken relative to a line's first node,
so a line constant in z has exactly zero amplitudes above mode 0.

Products are formed on a 3/2 zero-padded grid in all directions and
truncated back. Factors are padded in their own parity basis: sine-type
fields resampled through a cosine transform would pick up O(1/nz) Gibbs
error from the corner of their even extension, which is far above the
accuracy this module promises.

Products are coefficient-first. A ``ProductWorkspace`` analyses each field
once, and a derivative factor (a ``Factor``: d/dx, d/dz, Laplacians, div_h,
fluctuation, vertical average, ...) is the parent's coefficients times a
multiplier, synthesized straight onto the fine grid: one z synthesis on the
coarse horizontal spectrum, one fine inverse rfft2. A derivative on the
coarse grid is the same factor made nodal,
``ProductWorkspace(grid).field(factor(f).dx())``.

A product is analysed back to the coarse grid horizontal-first: one fine
rfft2, truncation to the coarse horizontal modes, and only then the z
analysis, so it runs on the coarse lines rather than on every fine line.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

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
from .grid import Grid

# ---------------------------------------------------------------------------
# low-level kernels
# ---------------------------------------------------------------------------


def _phase(nodes: int, modes: np.ndarray, n: int) -> np.ndarray:
    """pi j m / n for nodes j (rows) and modes m (columns), with j m reduced
    mod 2n in integers, so the table is symmetric in j and m."""
    j = np.arange(nodes)[:, None]
    return np.pi * ((j * modes[None, :]) % (2 * n)) / n


def _frozen(mat: np.ndarray) -> np.ndarray:
    mat.flags.writeable = False
    return mat


@lru_cache(maxsize=64)
def _cos_analysis(n: int, k: int) -> np.ndarray:
    """Nodes 0..n to cosine amplitudes of modes 0..k-1: the DCT-I over n
    intervals scaled by 1/(2n). The last mode, the coarse vertical Nyquist,
    is zeroed."""
    w = np.full(n + 1, 2.0)
    w[[0, n]] = 1.0
    mat = np.cos(_phase(n + 1, np.arange(k), n)) * (w / (2.0 * n))[:, None]
    mat[:, k - 1] = 0.0
    return _frozen(mat)


@lru_cache(maxsize=64)
def _cos_synthesis(n: int, k: int) -> np.ndarray:
    """Cosine amplitudes of modes 0..k-1 to nodes 0..n (the bare DCT-I)."""
    w = np.full(k, 2.0)
    w[0] = 1.0
    if k > n:
        w[n] = 1.0
    return _frozen(np.cos(_phase(k, np.arange(n + 1), n)) * w[:, None])


@lru_cache(maxsize=64)
def _sin_analysis(n: int, k: int) -> np.ndarray:
    """Nodes 0..n to sine amplitudes of modes 1..k: the DST-I of the interior
    nodes scaled by 1/(2n); the wall rows are exactly zero."""
    mat = np.sin(_phase(n + 1, np.arange(1, k + 1), n)) / n
    mat[[0, n]] = 0.0
    return _frozen(mat)


@lru_cache(maxsize=64)
def _sin_synthesis(n: int, k: int) -> np.ndarray:
    """Sine amplitudes of modes 1..k to nodes 0..n (the bare DST-I on the
    interior); the wall columns are exactly zero."""
    mat = 2.0 * np.sin(_phase(n + 1, np.arange(1, k + 1), n).T)
    mat[:, [0, n]] = 0.0
    return _frozen(mat)


def _along_z(a: np.ndarray, mat: np.ndarray) -> np.ndarray:
    """``a @ mat`` along the last axis. Complex lines go through the real
    matrix as (re, im) pairs. Either way numpy makes one small product per
    line batch, which OpenBLAS keeps on one thread."""
    if np.iscomplexobj(a):
        pairs = a.view(float).reshape(a.shape + (2,))
        out = np.matmul(mat.T, pairs).view(complex)
        return out.reshape(a.shape[:-1] + (mat.shape[1],))
    return a @ mat


def _cos_amplitudes(a: np.ndarray, n: int, k: int) -> np.ndarray:
    """Cosine analysis relative to the first node, so that a line constant in
    z gives exact zeros above mode 0."""
    out = _along_z(a - a[..., :1], _cos_analysis(n, k))
    out[..., 0] += a[..., 0]
    return out


def _rfft2(a: np.ndarray) -> np.ndarray:
    return np.fft.rfft2(a, axes=(0, 1), norm="forward")


def _irfft2(a: np.ndarray, s: tuple[int, int]) -> np.ndarray:
    return np.fft.irfft2(a, s=s, axes=(0, 1), norm="forward")


def _zero_h_nyquist(spec: np.ndarray, nx: int, ny: int) -> np.ndarray:
    spec[nx // 2] = 0.0
    spec[:, ny // 2] = 0.0
    return spec


def cos_coeffs(a: np.ndarray, nz: int) -> np.ndarray:
    """Cosine-mode amplitudes c[..., m], f_j = c_0 + 2 sum c_m cos + (-1)^j c_nz;
    the vertical Nyquist c_nz is zeroed."""
    return _cos_amplitudes(a, nz, nz + 1)


def cos_nodal(c: np.ndarray) -> np.ndarray:
    n = c.shape[-1] - 1
    return _along_z(c, _cos_synthesis(n, n + 1))


def sin_coeffs(a: np.ndarray, nz: int) -> np.ndarray:
    """Sine-mode amplitudes s[..., m-1] for modes m = 1..nz-1 (interior data)."""
    return _along_z(a, _sin_analysis(nz, nz - 1))


def sin_nodal(s: np.ndarray) -> np.ndarray:
    n = s.shape[-1] + 1
    return _along_z(s, _sin_synthesis(n, n - 1))


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
    coarse nodal copy. A plain field is the identity factor. The kind is
    carried from factor to factor and the memo key is built once.
    """

    __slots__ = ("terms", "kind", "_key")

    def __init__(self, terms, kind: str | None = None):
        self.terms = tuple(terms)
        self._key = None
        if kind is None:
            for _, ops, f in self.terms:
                k = _kind(f)
                for op in ops:
                    k = _op_kind(op, k)
                kind = k if kind is None else _add_parity(kind, k)
        self.kind = kind

    @property
    def key(self) -> tuple:
        """Memo key of the fine samples: the terms, fields by buffer."""
        if self._key is None:
            self._key = tuple((c, ops, f.buffer_key) for c, ops, f in self.terms)
        return self._key

    @property
    def grid(self) -> Grid:
        return self.terms[0][2].grid

    @property
    def z_only(self) -> bool:
        return all(op in _Z_OPS for _, ops, _ in self.terms for op in ops)

    def _then(self, op: str) -> "Factor":
        # an operator maps the kind of a sum as it maps each term's kind
        return Factor(
            ((c, ops + (op,), f) for c, ops, f in self.terms), _op_kind(op, self.kind)
        )

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
        other = factor(other)
        return Factor(self.terms + other.terms, _add_parity(self.kind, other.kind))

    def __sub__(self, other) -> "Factor":
        return self + -factor(other)

    def __mul__(self, c: float) -> "Factor":
        return Factor(((float(c) * k, ops, f) for k, ops, f in self.terms), self.kind)

    __rmul__ = __mul__

    def __neg__(self) -> "Factor":
        return self * -1.0


def factor(f) -> Factor:
    """``f`` as a lazy factor (a field becomes the identity factor)."""
    return f if isinstance(f, Factor) else Factor(((1.0, (), f),))


def divergence(v: VectorField3D2C) -> Factor:
    """div_h v as a lazy factor."""
    return factor(v.component(0)).dx() + factor(v.component(1)).dy()


def vertical_average(f: ScalarField3D) -> ScalarField2D:
    r"""\bar f = \int_0^1 f dz, exact for the field's own interpolant."""
    return ProductWorkspace(f.grid).field(factor(f).mean())


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
        key = f.buffer_key
        hit = self._coeffs.get(key)
        if hit is not None:
            return hit[1]
        c = _Coeffs(_z_amplitudes(f))
        self._coeffs[key] = (f.data, c)
        return c

    def _seed(self, f, zc: np.ndarray, spec: np.ndarray | None = None):
        self._coeffs[f.buffer_key] = (f.data, _Coeffs(zc, spec))
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
        key = f.key
        hit = self._fine.get(key)
        if hit is not None:
            return hit
        g = self.grid
        fx, fy, fz = g.fine_nx, g.fine_ny, g.fine_nz
        spec = self._combine(f, spectral=True)
        if f.kind == _2D:
            fine = _pad_h(spec, g, np.zeros((fx, fy // 2 + 1), dtype=complex))
            nodal = _irfft2(fine, (fx, fy))
        else:
            # z synthesis on the coarse horizontal spectrum, onto the fine z
            # nodes (mode nz dropped), then one horizontal synthesis on the
            # fine grid
            if f.kind == COS:
                zfine = _along_z(spec[..., : g.nz], _cos_synthesis(fz, g.nz))
            else:
                if f.kind == ZLIN:  # analysed in sine space, like its nodal data
                    spec = spec[..., :-1] + spec[..., -1:] * _ramp_sine(g.nz)
                zfine = _along_z(spec, _sin_synthesis(fz, g.nz - 1))
            fine = np.zeros((fx, fy // 2 + 1, fz + 1), dtype=complex)
            nodal = _irfft2(_pad_h(zfine, g, fine), (fx, fy))
        self._fine[key] = nodal
        return nodal

    # -- product analysis back to the coarse grid --

    def reduce3(self, fine_nodal: np.ndarray, odd: bool) -> ScalarField3D:
        # horizontal analysis first: the z analysis then runs on the coarse
        # horizontal modes only
        g = self.grid
        fz = g.fine_nz
        spec = _rfft2(fine_nodal)
        coarse = _trunc_h(spec, g, (g.nx, g.ny // 2 + 1, fz + 1))
        if odd:
            coarse = _along_z(coarse, _sin_analysis(fz, g.nz - 1))
        else:  # truncated to the coarse modes, mode nz zeroed
            coarse = _cos_amplitudes(coarse, fz, g.nz + 1)
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
    fine = ws.fine3(f)
    return fine[..., None] if _kind(f) == _2D else fine


def _accumulate(products, shape) -> np.ndarray:
    """sum c * (F * G) over the fine factor pairs, in order, into one new
    array; full-size products go through one scratch array. Factor arrays
    are memo entries (a 2D one a view), so they are never written."""
    acc = np.empty(shape)
    scratch = None
    for i, (F, G, c) in enumerate(products):
        if i == 0:
            prod = np.multiply(F, G, out=acc)
        elif F.shape == shape or G.shape == shape:
            if scratch is None:
                scratch = np.empty(shape)
            prod = np.multiply(F, G, out=scratch)
        else:  # a 2D x 2D term of a 3D sum: broadcast along z when added
            prod = F * G
        if c != 1.0:
            prod *= c
        if i:
            acc += prod
    return acc


def dealiased_sum(terms, ws: ProductWorkspace | None = None):
    """Sum of pointwise products sharing one output basis, one reduction.

    ``terms`` is an iterable of (f, g) or (f, g, coef) entries, each factor
    a field or a lazy ``Factor``; every term must produce the same output
    kind (all 3D with one parity, or all 2D). 2D factors broadcast along z,
    and the output parity follows the sine/cosine product table. "zlin"
    factors are analyzed in sine space (exact up to their linear-slope
    content, which for the vertical velocity is the roundoff-sized integral
    of phi). Scalar coefficients multiply exactly and keep the factors
    memoizable across terms; a factor shared by several terms is
    synthesized once.
    """
    terms = [t if len(t) == 3 else (t[0], t[1], 1.0) for t in terms]
    if not terms:
        raise UsageFault("dealiased_sum needs at least one term")
    ws = ws or ProductWorkspace(terms[0][0].grid)
    g = ws.grid
    if all(_kind(f) == _2D and _kind(h) == _2D for f, h, _ in terms):
        products = [(ws.fine3(f), ws.fine3(h), c) for f, h, c in terms]
        return ws.reduce2(_accumulate(products, (g.fine_nx, g.fine_ny)))
    odd_flags = {_is_odd(f) != _is_odd(h) for f, h, _ in terms}
    if len(odd_flags) != 1:
        raise UsageFault("dealiased_sum terms have mixed output parity")
    products = [(_fine_factor(ws, f), _fine_factor(ws, h), c) for f, h, c in terms]
    shape = (g.fine_nx, g.fine_ny, g.fine_nz + 1)
    return ws.reduce3(_accumulate(products, shape), odd=odd_flags.pop())


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
