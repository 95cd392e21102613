"""tools/cell_profile.py: the stages of one scan cell."""

import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "cell_profile", Path(__file__).resolve().parents[1] / "tools" / "cell_profile.py")
cell_profile = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(cell_profile)


def test_cell_profile_prints_each_stage_and_the_widths(capsys):
    assert cell_profile.main(["2000"]) == 0
    lines = capsys.readouterr().out.splitlines()
    stages = [line.split()[0] for line in lines[2:7]]
    assert stages == ["terms", "dilate", "build", "widths", "total"]
    assert lines[7].startswith("state: ") and lines[7].endswith(" bytes per point in the "
                                                                 "accumulator's arrays")
    assert 8 <= float(lines[7].split()[1]) <= 16
    assert [line.split(":")[0] for line in lines[8:]] == [f"S = 1/{1 << v}" for v in range(5, 13)]
    with pytest.raises(SystemExit):
        cell_profile.main(["0"])
