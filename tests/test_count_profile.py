"""tools/count_profile.py: the stages of the difference counting path."""

import importlib.util
from pathlib import Path

import pytest

from numvar import arithmetic
from numvar.arithmetic import additive_energy, energy_direct, rep_table
from numvar.points import SequenceSpec, generate_terms

_SPEC = importlib.util.spec_from_file_location(
    "count_profile", Path(__file__).resolve().parents[1] / "tools" / "count_profile.py")
count_profile = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(count_profile)


def test_count_profile_prints_each_stage_and_checks_the_values(capsys):
    assert count_profile.main(["60", "--direct", "300"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "squares, COUNT = 60, D = 300"
    stages = [line.split()[0] for line in lines[2:-1]]
    assert stages == [*count_profile.STAGES, "total"]
    assert all(len(line.split()) == 6 for line in lines[2:-1])
    terms = generate_terms(SequenceSpec.poly((0, 0, 1)), 300)
    assert lines[-1] == (f"check: ok: {rep_table(terms, 1, 60).gaps.size} distinct gaps, "
                         f"E(60) = {additive_energy(terms, 60)}, "
                         f"E_window(1, 300) = {energy_direct(terms, 1, 300)}")
    with pytest.raises(SystemExit):
        count_profile.main(["1"])


def test_count_profile_checks_the_walk_against_rep_table(monkeypatch, capsys):
    # a walker that miscounts the runs of length 1 fools energy_direct and
    # additive_energy alike, but not rep_table's histogram
    real = arithmetic._run_stats
    monkeypatch.setattr(arithmetic, "_run_stats",
                        lambda keys: (lambda r, o, m, q: (r, o + 1, m, q))(*real(keys)))
    assert count_profile.main(["60", "--direct", "300"]) == 1
    assert capsys.readouterr().out.splitlines()[-1].startswith("check: MISMATCH: ")
