"""INI-style run configuration.

Every key is optional (a minimal file — even an empty one — parses to the
documented defaults); unknown sections or keys fault loudly, as do
physically inadmissible values. ``_KEYS`` names each key once, with the
field it sets and its converter; the defaults live only in the dataclasses,
whose ``__post_init__`` checks every value.
"""

from __future__ import annotations

import configparser
import math
from collections.abc import Callable
from dataclasses import dataclass, field, replace

from .errors import ConstraintFault, ParseFault
from .experiments import MMS_CASES
from .grid import Grid
from .ineq import KINDS
from .initial import FAMILIES
from .integrators import RunOptions
from .params import PhysParams


def _positive(*values: float) -> bool:
    return all(math.isfinite(v) and v > 0.0 for v in values)


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

    def __post_init__(self):
        if not all(math.isfinite(e) and e >= 0.0 for e in self.eps):
            raise ConstraintFault("eps", "each must be finite and >= 0")
        if not _positive(self.T):
            raise ConstraintFault("T", "must be finite and positive")


@dataclass(frozen=True)
class PerturbSpec:
    deltas: tuple[float, ...] = (1e-3, 1e-4, 1e-5)
    T: float = 0.02
    direction_seed: int = 1
    direction_band: tuple[int, int, int] = (2, 2, 2)

    def __post_init__(self):
        # the dissipation slope is a fit over log(delta)
        if len(set(self.deltas)) < 2 or not _positive(*self.deltas):
            raise ConstraintFault("deltas", "need 2+ distinct values, finite and > 0")
        if not _positive(self.T):
            raise ConstraintFault("T", "must be finite and positive")


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

    def __post_init__(self):
        if self.case not in MMS_CASES:
            raise ConstraintFault(
                "case", f"unknown case {self.case!r}; known: {', '.join(MMS_CASES)}"
            )
        # three or more, distinct: the order estimate divides by log(dt ratios)
        if len(set(self.dts)) < max(3, len(self.dts)) or not _positive(*self.dts):
            raise ConstraintFault(
                "dts", "need three dt values or more, distinct, finite and > 0"
            )
        for key in ("T_temporal", "dt_spatial", "T_spatial"):
            if not _positive(getattr(self, key)):
                raise ConstraintFault(key, "must be finite and positive")
        # each size n makes a Grid(n, n, n)
        for key, sizes in (("n_temporal", (self.n_temporal,)), ("ns", self.ns)):
            if any(n < 8 or n % 2 for n in sizes):
                raise ConstraintFault(key, "grid sizes must be even and >= 8")


@dataclass(frozen=True)
class PicardSpec:
    T: float = 1e-3
    tol: float = 1e-9
    max_iter: int = 30
    escalate: bool = False
    factor: float = 8.0
    max_levels: int = 4

    def __post_init__(self):
        if not _positive(self.T):
            raise ConstraintFault("T", "must be finite and positive")
        if self.max_iter < 1:
            raise ConstraintFault("max_iter", "must be >= 1")
        if not (math.isfinite(self.factor) and self.factor > 1.0):
            raise ConstraintFault("factor", "must be finite and > 1")
        if self.max_levels < 1:
            raise ConstraintFault("max_levels", "must be >= 1")


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

    def __post_init__(self):
        unknown = [k for k in self.kinds if k not in KINDS]
        if unknown:
            raise ConstraintFault(
                "kinds", f"unknown kind {unknown[0]!r}; known: {', '.join(KINDS)}"
            )
        if self.m < 0:
            raise ConstraintFault("m", "must be >= 0")
        if self.trials < 1:
            raise ConstraintFault("trials", "must be >= 1")


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
    return int(raw, 0)


def _bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def _floats(raw: str) -> tuple[float, ...]:
    return tuple(_float(tok) for tok in _tokens(raw))


def _ints(raw: str) -> tuple[int, ...]:
    return tuple(_int(tok) for tok in _tokens(raw))


def _three_ints(raw: str) -> tuple[int, int, int]:
    vals = _ints(raw)
    if len(vals) != 3:
        raise ValueError("need exactly three integers")
    return vals


def _upper_texts(raw: str) -> tuple[str, ...]:
    return tuple(tok.upper() for tok in _tokens(raw))


def _dt(raw: str) -> float | None:
    return None if raw.strip().lower() == "auto" else _float(raw)


def _path(raw: str) -> str | None:
    return raw.strip() or None  # empty: no snapshot


# section -> key -> (field of RunConfig.<section>, converter); the one
# dotted field, "RunConfig.seed", is a field of RunConfig itself
_KEYS: dict[str, dict[str, tuple[str, Callable[[str], object]]]] = {
    "grid": {"nx": ("nx", _int), "ny": ("ny", _int), "nz": ("nz", _int)},
    "params": {
        "gamma": ("gamma", _float),
        "mu": ("mu", _float),
        "lambda": ("lam", _float),
        "kappa": ("kappa", _float),
        "r": ("R", _float),
        "epsilon": ("epsilon", _float),
        "sigma_floor": ("sigma_floor", _float),
        "p_floor": ("p_floor", _float),
    },
    "initial": {
        "family": ("family", str.strip),
        "amplitude": ("amplitude", _float),
        "band": ("band", _three_ints),
        "snapshot": ("snapshot", _path),
    },
    "run": {
        "t_final": ("t_final", _float),
        "dt": ("dt", _dt),
        "record_every": ("record_every", _int),
        "cfl": ("cfl", _float),
        "tol_bc": ("tol_bc", _float),
        "fault_floor": ("fault_floor", _float),
        "seed": ("RunConfig.seed", _int),
    },
    "eps_sweep": {"eps": ("eps", _floats), "t": ("T", _float)},
    "perturb": {
        "deltas": ("deltas", _floats),
        "t": ("T", _float),
        "direction_seed": ("direction_seed", _int),
        "direction_band": ("direction_band", _three_ints),
    },
    "mms": {
        "case": ("case", str.strip),
        "dts": ("dts", _floats),
        "n_temporal": ("n_temporal", _int),
        "t_temporal": ("T_temporal", _float),
        "ns": ("ns", _ints),
        "dt_spatial": ("dt_spatial", _float),
        "t_spatial": ("T_spatial", _float),
        "floor": ("floor", _float),
    },
    "picard": {
        "t": ("T", _float),
        "tol": ("tol", _float),
        "max_iter": ("max_iter", _int),
        "escalate": ("escalate", _bool),
        "factor": ("factor", _float),
        "max_levels": ("max_levels", _int),
    },
    "ineq": {
        "kinds": ("kinds", _upper_texts),
        "m": ("m", _int),
        "q": ("q", _float),
        "r1": ("r1", _float),
        "s1": ("s1", _float),
        "r2": ("r2", _float),
        "s2": ("s2", _float),
        "trials": ("trials", _int),
        "bands": ("bands", _ints),
        "seed": ("seed", _int),
    },
}


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

    spelled: dict[str, str] = {}  # table section -> its first header in the file
    for name in parser.sections():
        section = name.lower()
        if section not in _KEYS:
            raise ParseFault(name, "unknown section")
        for key in parser[name]:
            if key not in _KEYS[section]:
                raise ParseFault(f"{name}.{key}", "unknown key")
        spelled.setdefault(section, name)

    # each part is the default part with the given fields replaced, so its
    # __post_init__ validates the result; parts are built in table order
    base = RunConfig()
    parts: dict[str, object] = {}
    own: dict[str, object] = {}  # fields of RunConfig itself
    for section, keys in _KEYS.items():
        if section not in spelled:
            continue
        given = {}
        for key, raw in parser[spelled[section]].items():
            field_name, conv = keys[key]
            try:
                value = conv(raw)
            except (ValueError, TypeError) as exc:
                raise ParseFault(f"{section}.{key}", str(exc)) from exc
            owner, _, attr = field_name.rpartition(".")
            (own if owner else given)[attr] = value
        try:
            parts[section] = replace(getattr(base, section), **given)
        except ConstraintFault as exc:
            names = {f: k for k, (f, _) in keys.items()}
            key = names.get(exc.key, exc.key)
            raise ConstraintFault(f"{section}.{key}", exc.reason) from exc
    cfg = replace(base, **parts, **own)
    if cfg.initial.snapshot is None and cfg.initial.family not in FAMILIES:
        raise ParseFault(
            "initial.family", f"unknown family; known: {', '.join(FAMILIES)}"
        )
    return cfg
