"""The public surface: every name numvar re-exports has a caller outside tests/.

A name counts as reached when it occurs, as a whole word, at least twice in
the library modules, the benchmark and the acceptance criteria together:
its definition plus one real use.  A name only tests/ call belongs in tests/.
"""

import re
import types
from pathlib import Path

import numvar

ROOT = Path(__file__).resolve().parents[1]


def _caller_sources() -> str:
    files = [p for p in sorted((ROOT / "src" / "numvar").glob("*.py"))
             if p.name != "__init__.py"]
    files += sorted((ROOT / "perfbench").glob("*.py"))
    files.append(ROOT / "tests" / "test_acceptance.py")
    return "\n".join(p.read_text(encoding="utf-8") for p in files)


def test_every_public_name_has_a_caller():
    text = _caller_sources()
    names = [name for name, value in vars(numvar).items()
             if not name.startswith("_") and not isinstance(value, types.ModuleType)]
    assert names
    unreached = [name for name in names
                 if len(re.findall(rf"\b{re.escape(name)}\b", text)) < 2]
    assert unreached == []


def test_test_only_names_are_gone():
    for name in ("counting_function", "tau_sieve", "tau_moment_sum",
                 "prop2_exceedance_scan", "DifferenceSet"):
        assert not hasattr(numvar, name)
