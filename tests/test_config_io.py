"""Config parsing and the binary snapshot format."""

import math
import re
import struct
from pathlib import Path

import numpy as np
import pytest

from cpelab import ConstraintFault, FormatFault, IoFault, ParseFault, make_initial
from cpelab.config import _KEYS, RunConfig, load_config
from cpelab.snapshot import (
    Snapshot,
    describe,
    parse_snapshot,
    read_snapshot,
    snapshot_bytes,
    write_snapshot,
)

MINIMAL = """
[run]
t_final = 0.5
"""


def write_cfg(tmp_path, text, name="case.ini"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_minimal_config_defaults(tmp_path):
    cfg = load_config(write_cfg(tmp_path, MINIMAL))
    assert (cfg.grid.nx, cfg.grid.ny, cfg.grid.nz) == (16, 16, 16)
    assert cfg.params.epsilon == 0.0
    assert cfg.params.gamma == 1.4
    assert cfg.run.t_final == 0.5
    assert cfg.run.cfl == 1.0
    assert cfg.run.tol_bc == 1e-11
    assert cfg.run.dt is None
    assert cfg.initial.family == "constant"
    assert cfg.seed == 0


# every key set away from its default, with the RunConfig value it must give
EVERY_KEY = {
    "grid": {"nx": ("12", 12), "ny": ("10", 10), "nz": ("9", 9)},
    "params": {
        "gamma": ("1.67", 1.67),
        "mu": ("0.5", 0.5),
        "lambda": ("0.25", 0.25),
        "kappa": ("2", 2.0),
        "r": ("0.75", 0.75),
        "epsilon": ("1e-3", 1e-3),
        "sigma_floor": ("0.25", 0.25),
        "p_floor": ("0.125", 0.125),
    },
    "initial": {
        "family": ("smooth-random", "smooth-random"),
        "amplitude": ("0.05", 0.05),
        "band": ("4, 5, 6", (4, 5, 6)),
        "snapshot": ("start.cpe", "start.cpe"),
    },
    "run": {
        "t_final": ("0.5", 0.5),
        "dt": ("1e-4", 1e-4),
        "record_every": ("3", 3),
        "cfl": ("0.5", 0.5),
        "tol_bc": ("1e-9", 1e-9),
        "fault_floor": ("1e-6", 1e-6),
        "seed": ("7", 7),
    },
    "eps_sweep": {"eps": ("1e-1, 1e-2", (1e-1, 1e-2)), "t": ("0.01", 0.01)},
    "perturb": {
        "deltas": ("1e-2 1e-3", (1e-2, 1e-3)),
        "t": ("0.03", 0.03),
        "direction_seed": ("5", 5),
        "direction_band": ("1, 2, 3", (1, 2, 3)),
    },
    "mms": {
        "case": ("constant", "constant"),
        "dts": ("1e-3, 5e-4, 2.5e-4", (1e-3, 5e-4, 2.5e-4)),
        "n_temporal": ("10", 10),
        "t_temporal": ("0.02", 0.02),
        "ns": ("8, 12", (8, 12)),
        "dt_spatial": ("2e-4", 2e-4),
        "t_spatial": ("0.02", 0.02),
        "floor": ("1e-10", 1e-10),
    },
    "picard": {
        "t": ("2e-3", 2e-3),
        "tol": ("1e-8", 1e-8),
        "max_iter": ("12", 12),
        "escalate": ("yes", True),
        "factor": ("4", 4.0),
        "max_levels": ("2", 2),
    },
    "ineq": {
        "kinds": ("alg, cal", ("ALG", "CAL")),
        "m": ("3", 3),
        "q": ("4", 4.0),
        "r1": ("6", 6.0),
        "s1": ("3", 3.0),
        "r2": ("4", 4.0),
        "s2": ("inf", math.inf),
        "trials": ("5", 5),
        "bands": ("4", (4,)),
        "seed": ("0x10", 16),
    },
}


def test_every_key_reaches_its_field(tmp_path):
    assert {s: set(keys) for s, keys in EVERY_KEY.items()} == {
        s: set(keys) for s, keys in _KEYS.items()
    }
    text = "".join(
        f"[{section}]\n" + "".join(f"{k} = {raw}\n" for k, (raw, _) in keys.items())
        for section, keys in EVERY_KEY.items()
    )
    cfg = load_config(write_cfg(tmp_path, text))
    default = RunConfig()
    assert cfg.seed == 7
    for section, keys in EVERY_KEY.items():
        for key, (_, want) in keys.items():
            field_name = _KEYS[section][key][0]
            if field_name == "RunConfig.seed":
                continue
            got = getattr(getattr(cfg, section), field_name)
            assert got == want, f"{section}.{key}"
            assert got != getattr(getattr(default, section), field_name)


def test_readme_config_block_is_the_defaults(tmp_path):
    """The README's "defaults shown" block loads to RunConfig()."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Config format", 1)[1]
    block = re.search(r"```ini\n(.*?)```", section, re.S).group(1)
    assert load_config(write_cfg(tmp_path, block)) == RunConfig()


def test_config_empty_list_is_a_parse_fault(tmp_path):
    path = write_cfg(tmp_path, "[ineq]\nkinds =\n")
    with pytest.raises(ParseFault) as info:
        load_config(path)
    assert info.value.key == "ineq.kinds"


def test_config_gamma_constraint(tmp_path):
    path = write_cfg(tmp_path, "[params]\ngamma = 1.0\n")
    with pytest.raises(ConstraintFault) as info:
        load_config(path)
    assert "gamma" in str(info.value)


def test_config_lame_constraint(tmp_path):
    path = write_cfg(tmp_path, "[params]\nmu = 1.0\nlambda = -1.0\n")
    with pytest.raises(ConstraintFault):
        load_config(path)


def test_config_unknown_key(tmp_path):
    path = write_cfg(tmp_path, "[run]\nt_final = 1\nwarp = 9\n")
    with pytest.raises(ParseFault) as info:
        load_config(path)
    assert "warp" in str(info.value)


def test_config_unknown_section(tmp_path):
    path = write_cfg(tmp_path, "[turbo]\nx = 1\n")
    with pytest.raises(ParseFault):
        load_config(path)


def test_config_bad_number(tmp_path):
    path = write_cfg(tmp_path, "[params]\nmu = fast\n")
    with pytest.raises(ParseFault) as info:
        load_config(path)
    assert "mu" in str(info.value)


def test_config_dt_auto_and_explicit(tmp_path):
    cfg = load_config(write_cfg(tmp_path, "[run]\nt_final = 1\ndt = auto\n"))
    assert cfg.run.dt is None
    cfg2 = load_config(write_cfg(tmp_path, "[run]\nt_final = 1\ndt = 1e-3\n", "b.ini"))
    assert cfg2.run.dt == 1e-3


def test_config_bad_family(tmp_path):
    path = write_cfg(tmp_path, "[initial]\nfamily = checkerboard\n")
    with pytest.raises(ParseFault):
        load_config(path)


def test_config_inf_exponents(tmp_path):
    text = "[ineq]\nr1 = inf\ns1 = 2\nq = 2\n"
    cfg = load_config(write_cfg(tmp_path, text))
    assert cfg.ineq.r1 == math.inf
    assert cfg.ineq.s1 == 2.0


def test_config_missing_file(tmp_path):
    with pytest.raises(ParseFault) as info:
        load_config(tmp_path / "nope.ini")
    assert "cannot read" in str(info.value)


# --- snapshots ---------------------------------------------------------


def sample_snapshot(grid16, params):
    st = make_initial("smooth-random", grid16, params, amplitude=0.2, seed=21)
    return Snapshot(st, params)


def test_snapshot_roundtrip_bytes(grid16, params):
    snap = sample_snapshot(grid16, params)
    blob = snapshot_bytes(snap)
    assert len(blob) == 76 + 8 * (3 * 16 * 16 * 17 + 16 * 16)
    back = parse_snapshot(blob)
    assert np.array_equal(back.state.v.data, snap.state.v.data)
    assert np.array_equal(back.state.sigma.data, snap.state.sigma.data)
    assert np.array_equal(back.state.p.data, snap.state.p.data)
    assert back.params == snap.params
    assert snapshot_bytes(back) == blob


def test_snapshot_file_roundtrip(tmp_path, grid16, params):
    snap = sample_snapshot(grid16, params)
    path = tmp_path / "state.cpe"
    write_snapshot(path, snap)
    back = read_snapshot(path)
    assert np.array_equal(back.state.sigma.data, snap.state.sigma.data)
    assert back.state.t == snap.state.t


def test_snapshot_x_fastest_layout(grid16, params):
    """First doubles after the header walk v1 along x at y = z = 0."""
    snap = sample_snapshot(grid16, params)
    blob = snapshot_bytes(snap)
    head = struct.unpack("<16d", blob[76 : 76 + 128])
    np.testing.assert_array_equal(head, snap.state.v.data[0, :, 0, 0])


def test_snapshot_truncation(grid16, params):
    blob = snapshot_bytes(sample_snapshot(grid16, params))
    with pytest.raises(FormatFault) as info:
        parse_snapshot(blob[:40])
    assert info.value.offset == 40
    with pytest.raises(FormatFault):
        parse_snapshot(blob[:-8])


def test_snapshot_bad_magic(grid16, params):
    blob = bytearray(snapshot_bytes(sample_snapshot(grid16, params)))
    blob[:4] = b"XXXX"
    with pytest.raises(FormatFault) as info:
        parse_snapshot(bytes(blob))
    assert "magic" in str(info.value)


def test_snapshot_bad_version(grid16, params):
    blob = bytearray(snapshot_bytes(sample_snapshot(grid16, params)))
    blob[4:8] = struct.pack("<I", 99)
    with pytest.raises(FormatFault) as info:
        parse_snapshot(bytes(blob))
    assert "version" in str(info.value)


def test_snapshot_read_missing(tmp_path):
    with pytest.raises(IoFault):
        read_snapshot(tmp_path / "ghost.cpe")


def test_describe_mentions_grid_and_params(grid16, params):
    text = describe(sample_snapshot(grid16, params))
    assert "16x16x16" in text
    assert "gamma" in text
