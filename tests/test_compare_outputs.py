"""The CSV comparison of tools/compare_outputs.py, on in-memory tables."""

import importlib.util
import math
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "compare_outputs.py"
_SPEC = importlib.util.spec_from_file_location("compare_outputs", _PATH)
compare_outputs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(compare_outputs)

TABLE = "delta,response,ratio,kind\n1e-3,2.0,,x\n1e-4,4.0,0.5,y\n"


def deviations(a: str, b: str) -> dict[str, float]:
    """The worst relative deviation of each column."""
    return {name: s[0] for name, s in compare_outputs.column_stats(a, b).items()}


def test_column_deviations():
    assert deviations(TABLE, TABLE) == dict.fromkeys(
        ["delta", "response", "ratio", "kind"], 0.0
    )
    other = "delta,response,ratio,kind\n0.001,2.0000000000000004,,x\n1e-4,3.0,1,z\n"
    got = deviations(TABLE, other)
    assert got["delta"] == 0.0  # the same number, spelled differently
    assert got["response"] == 0.25  # |4 - 3| / 4 outweighs the roundoff row
    assert got["ratio"] == 0.5
    assert got["kind"] == math.inf  # text cells that differ
    blank = "delta,response,ratio,kind\n1e-3,2.0,,x\n1e-4,,0.5,y\n"
    assert deviations(TABLE, blank)["response"] == math.inf  # a number vs a blank
    shape = {"(shape)": math.inf}
    assert deviations(TABLE, TABLE + "1e-5,8.0,0.5,z\n") == shape
    assert deviations(TABLE, TABLE.replace("kind", "name")) == shape
    assert deviations(TABLE, "") == shape


def test_column_stats_report_absolute_deviations():
    stats = compare_outputs.column_stats
    other = "delta,response,ratio,kind\n0.001,2.0000000000000004,,x\n1e-4,3.0,1,z\n"
    got = stats(TABLE, other)
    assert got["delta"] == (0.0, 0.0, 1e-3)
    assert got["response"] == (0.25, 1.0, 4.0)
    assert got["ratio"] == (0.5, 0.5, 1.0)
    assert got["kind"] == (math.inf, math.inf, 0.0)
    assert stats(TABLE, "") == {"(shape)": (math.inf, math.inf, 0.0)}
    floor = "defect\n2e-18\n-5e-18\n"
    near = "defect\n2e-18\n-5.7e-18\n"
    line = compare_outputs.describe_column("defect", stats(floor, near)["defect"])
    assert line == "defect 0.123 (abs 7e-19, max 5.7e-18)"
    assert compare_outputs.describe_column("kind", got["kind"]) == "kind inf"
    assert compare_outputs.describe_column("delta", got["delta"]) == "delta 0"
