"""INI-style run configuration.

Every key is optional (a minimal file — even an empty one — parses to the
documented defaults); unknown sections or keys fault loudly, as do
physically inadmissible values.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field

from .errors import ConstraintFault, ParseFault
from .grid import Grid
from .integrators import RunOptions
from .params import PhysParams


@dataclass(frozen=True)
class InitialSpec:
    family: str = "constant"
    amplitude: float = 0.1
    band: tuple[int, int, int] = (3, 3, 3)
    snapshot: str | None = None  # overrides the family when set


@dataclass(frozen=True)
class EpsSweepSpec:
    eps: tuple[float, ...] = (1e-2, 1e-3, 1e-4)
    T: float = 0.05


@dataclass(frozen=True)
class PerturbSpec:
    deltas: tuple[float, ...] = (1e-3, 1e-4, 1e-5)
    T: float = 0.02
    direction_seed: int = 1
    direction_band: tuple[int, int, int] = (2, 2, 2)


@dataclass(frozen=True)
class MmsSpec:
    case: str = "A-osc"
    dts: tuple[float, ...] = (4e-4, 2e-4, 1e-4)
    n_temporal: int = 8
    T_temporal: float = 0.05
    ns: tuple[int, ...] = (16, 24, 32)
    dt_spatial: float = 1e-4
    T_spatial: float = 0.01
    floor: float = 1e-12


@dataclass(frozen=True)
class PicardSpec:
    T: float = 1e-3
    tol: float = 1e-9
    max_iter: int = 30
    escalate: bool = False
    factor: float = 8.0
    max_levels: int = 4


@dataclass(frozen=True)
class IneqSpec:
    kinds: tuple[str, ...] = ("CAL", "COME")
    m: int = 2
    q: float = 2.0
    r1: float = math.inf
    s1: float = 2.0
    r2: float = math.inf
    s2: float = 2.0
    trials: int = 200
    bands: tuple[int, ...] = (8, 12)
    seed: int = 42


@dataclass(frozen=True)
class RunConfig:
    grid: Grid = field(default_factory=lambda: Grid(16, 16, 16))
    params: PhysParams = field(default_factory=PhysParams)
    initial: InitialSpec = field(default_factory=InitialSpec)
    run: RunOptions = field(default_factory=lambda: RunOptions(t_final=0.1))
    eps_sweep: EpsSweepSpec = field(default_factory=EpsSweepSpec)
    perturb: PerturbSpec = field(default_factory=PerturbSpec)
    mms: MmsSpec = field(default_factory=MmsSpec)
    picard: PicardSpec = field(default_factory=PicardSpec)
    ineq: IneqSpec = field(default_factory=IneqSpec)
    seed: int = 0


_SCHEMA: dict[str, tuple[str, ...]] = {
    "grid": ("nx", "ny", "nz"),
    "params": (
        "gamma",
        "mu",
        "lambda",
        "kappa",
        "r",
        "epsilon",
        "sigma_floor",
        "p_floor",
    ),
    "initial": ("family", "amplitude", "band", "snapshot"),
    "run": (
        "t_final",
        "dt",
        "record_every",
        "cfl",
        "tol_bc",
        "fault_floor",
        "seed",
    ),
    "eps_sweep": ("eps", "t"),
    "perturb": ("deltas", "t", "direction_seed", "direction_band"),
    "mms": (
        "case",
        "dts",
        "n_temporal",
        "t_temporal",
        "ns",
        "dt_spatial",
        "t_spatial",
        "floor",
    ),
    "picard": ("t", "tol", "max_iter", "escalate", "factor", "max_levels"),
    "ineq": ("kinds", "m", "q", "r1", "s1", "r2", "s2", "trials", "bands", "seed"),
}


class _Section:
    """Typed access to one section with ParseFault-ed conversions."""

    def __init__(self, name: str, proxy):
        self.name = name
        self.proxy = proxy

    def _raw(self, key: str):
        return self.proxy.get(key) if self.proxy is not None else None

    def _convert(self, key: str, conv, default):
        raw = self._raw(key)
        if raw is None:
            return default
        try:
            return conv(raw)
        except (ValueError, TypeError) as exc:
            raise ParseFault(f"{self.name}.{key}", str(exc)) from exc

    def flt(self, key: str, default):
        return self._convert(key, _float, default)

    def intg(self, key: str, default):
        return self._convert(key, _int, default)

    def text(self, key: str, default):
        raw = self._raw(key)
        return default if raw is None else raw.strip()

    def boolean(self, key: str, default):
        def conv(raw: str) -> bool:
            low = raw.strip().lower()
            if low in ("1", "true", "yes", "on"):
                return True
            if low in ("0", "false", "no", "off"):
                return False
            raise ValueError(f"not a boolean: {raw!r}")

        return self._convert(key, conv, default)

    def floats(self, key: str, default):
        return self._convert(
            key, lambda raw: tuple(_float(tok) for tok in _tokens(raw)), default
        )

    def ints(self, key: str, default):
        return self._convert(
            key, lambda raw: tuple(_int(tok) for tok in _tokens(raw)), default
        )

    def texts(self, key: str, default):
        raw = self._raw(key)
        return default if raw is None else tuple(_tokens(raw))


def _tokens(raw: str) -> list[str]:
    toks = [t.strip() for t in raw.replace(",", " ").split()]
    if not toks:
        raise ValueError("empty list")
    return toks


def _float(raw: str) -> float:
    low = raw.strip().lower()
    if low in ("inf", "infinity"):
        return math.inf
    val = float(raw)
    if math.isnan(val):
        raise ValueError("NaN not allowed")
    return val


def _int(raw: str) -> int:
    val = int(raw, 0)
    return val


def _in_section(section: str, build, *args, **kwargs):
    """build(*args, **kwargs), naming the full config key in a ConstraintFault."""
    try:
        return build(*args, **kwargs)
    except ConstraintFault as exc:
        raise ConstraintFault(f"{section}.{exc.key}", exc.reason) from exc


def load_config(path) -> RunConfig:
    parser = configparser.ConfigParser(
        delimiters=("=",), inline_comment_prefixes=("#", ";"), interpolation=None
    )
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ParseFault(str(path), f"cannot read: {exc}") from exc
    except configparser.Error as exc:
        raise ParseFault(str(path), f"malformed config: {exc}") from exc

    for section in parser.sections():
        low = section.lower()
        if low not in _SCHEMA:
            raise ParseFault(section, "unknown section")
        for key in parser[section]:
            if key.lower() not in _SCHEMA[low]:
                raise ParseFault(f"{section}.{key}", "unknown key")

    def sec(name: str) -> _Section:
        for cand in parser.sections():
            if cand.lower() == name:
                return _Section(name, parser[cand])
        return _Section(name, None)

    g = sec("grid")
    grid = _in_section(
        "grid", Grid, g.intg("nx", 16), g.intg("ny", 16), g.intg("nz", 16)
    )

    pr = sec("params")
    params = _in_section(
        "params",
        PhysParams,
        gamma=pr.flt("gamma", 1.4),
        mu=pr.flt("mu", 1.0),
        lam=pr.flt("lambda", 0.0),
        kappa=pr.flt("kappa", 1.0),
        R=pr.flt("r", 1.0),
        epsilon=pr.flt("epsilon", 0.0),
        sigma_floor=pr.flt("sigma_floor", 0.5),
        p_floor=pr.flt("p_floor", 0.5),
    )

    ini = sec("initial")
    band = ini.ints("band", (3, 3, 3))
    if len(band) != 3:
        raise ParseFault("initial.band", "need exactly three integers")
    initial = InitialSpec(
        family=ini.text("family", "constant"),
        amplitude=ini.flt("amplitude", 0.1),
        band=band,
        snapshot=ini.text("snapshot", None),
    )
    from .initial import FAMILIES

    if initial.snapshot is None and initial.family not in FAMILIES:
        raise ParseFault(
            "initial.family", f"unknown family; known: {', '.join(FAMILIES)}"
        )

    rn = sec("run")
    dt_raw = rn.text("dt", "auto")
    if dt_raw.lower() == "auto":
        dt = None
    else:
        dt = rn.flt("dt", None)
        if dt is not None and dt <= 0:
            raise ConstraintFault("run.dt", "dt must be positive or 'auto'")
    run = _in_section(
        "run",
        RunOptions,
        t_final=rn.flt("t_final", 0.1),
        dt=dt,
        record_every=rn.intg("record_every", 1),
        cfl=rn.flt("cfl", 1.0),
        tol_bc=rn.flt("tol_bc", 1e-11),
        fault_floor=rn.flt("fault_floor", 1e-8),
    )

    es = sec("eps_sweep")
    eps_sweep = EpsSweepSpec(
        eps=es.floats("eps", (1e-2, 1e-3, 1e-4)), T=es.flt("t", 0.05)
    )

    pb = sec("perturb")
    dband = pb.ints("direction_band", (2, 2, 2))
    if len(dband) != 3:
        raise ParseFault("perturb.direction_band", "need exactly three integers")
    perturb = PerturbSpec(
        deltas=pb.floats("deltas", (1e-3, 1e-4, 1e-5)),
        T=pb.flt("t", 0.02),
        direction_seed=pb.intg("direction_seed", 1),
        direction_band=dband,
    )

    mm = sec("mms")
    mms = MmsSpec(
        case=mm.text("case", "A-osc"),
        dts=mm.floats("dts", (4e-4, 2e-4, 1e-4)),
        n_temporal=mm.intg("n_temporal", 8),
        T_temporal=mm.flt("t_temporal", 0.05),
        ns=mm.ints("ns", (16, 24, 32)),
        dt_spatial=mm.flt("dt_spatial", 1e-4),
        T_spatial=mm.flt("t_spatial", 0.01),
        floor=mm.flt("floor", 1e-12),
    )

    pc = sec("picard")
    picard = PicardSpec(
        T=pc.flt("t", 1e-3),
        tol=pc.flt("tol", 1e-9),
        max_iter=pc.intg("max_iter", 30),
        escalate=pc.boolean("escalate", False),
        factor=pc.flt("factor", 8.0),
        max_levels=pc.intg("max_levels", 4),
    )

    iq = sec("ineq")
    ineq = IneqSpec(
        kinds=tuple(k.upper() for k in iq.texts("kinds", ("CAL", "COME"))),
        m=iq.intg("m", 2),
        q=iq.flt("q", 2.0),
        r1=iq.flt("r1", math.inf),
        s1=iq.flt("s1", 2.0),
        r2=iq.flt("r2", math.inf),
        s2=iq.flt("s2", 2.0),
        trials=iq.intg("trials", 200),
        bands=iq.ints("bands", (8, 12)),
        seed=iq.intg("seed", 42),
    )

    return RunConfig(
        grid=grid,
        params=params,
        initial=initial,
        run=run,
        eps_sweep=eps_sweep,
        perturb=perturb,
        mms=mms,
        picard=picard,
        ineq=ineq,
        seed=rn.intg("seed", 0),
    )
