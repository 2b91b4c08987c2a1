"""The CSV comparison of tools/compare_outputs.py, on in-memory tables."""

import importlib.util
import math
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "compare_outputs.py"
_SPEC = importlib.util.spec_from_file_location("compare_outputs", _PATH)
compare_outputs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(compare_outputs)

TABLE = "delta,response,ratio,kind\n1e-3,2.0,,x\n1e-4,4.0,0.5,y\n"


def test_column_deviations():
    deviations = compare_outputs.column_deviations
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
