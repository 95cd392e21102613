"""The benchmark's own tests, on the tiny input sizes.

They check that every workload prints every metric BENCHMARK.json names with
its unit, that the report names the per-workload metrics with a sample count,
and that a corrupted output is caught as a failed check.
"""

import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [p for p in (os.path.join(ROOT, "src"), BENCH) if p not in sys.path]

import run  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)
NAMES = [w["name"] for w in SPEC["workloads"]]

REPORTED = {
    "scan-mt": ["scan.cells_per_s"],
    "arith-baseline": ["arith.count_pairs_per_s", "arith.pairstat_s",
                       "baseline.replicates_per_s", "baseline.oracle_checks_per_s",
                       "baseline.paths_per_s"],
}


def bench(capsys, workload, trace=0):
    code = run.main(["--workload", workload, "--seed", "1", "--seconds", "0.05",
                     "--trace", str(trace), "--size", "tiny"])
    lines = capsys.readouterr().out.strip().splitlines()
    return code, lines[:-1], json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", NAMES)
def test_every_metric_printed_with_unit(capsys, workload, trace):
    code, report, result = bench(capsys, workload, trace)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted}
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
        named = {line.split()[1]: line for line in report if line.startswith("metric ")}
        for name in ["setup_s", "wall_s", "peak_rss_mb", "error_rate", *REPORTED[workload]]:
            assert name in named and " n=" in named[name]


def _flip_last_digit(emit):
    def corrupted(result, fmt="csv"):
        data = emit(result, fmt)
        return data[:-2] + bytes([data[-2] ^ 1]) + data[-1:]
    return corrupted


# (workload, corruption): one output of each kind of job the workloads run.
CORRUPTIONS = [
    pytest.param("scan-mt", lambda mp: mp.setattr(workloads.cli, "emit",
                                                  _flip_last_digit(workloads.cli.emit)),
                 id="scan-mt-emit"),
    pytest.param("arith-baseline", lambda mp: mp.setattr(
        workloads.arithmetic, "energy_direct",
        lambda *a, f=workloads.arithmetic.energy_direct: f(*a) + 1),
        id="arith-baseline-energy_direct"),
    pytest.param("arith-baseline", lambda mp: mp.setattr(
        workloads.variance, "variance_sweep",
        lambda *a, f=workloads.variance.variance_sweep, **k: f(*a, **k) + Fraction(1, 2 ** 128)),
        id="arith-baseline-variance_sweep"),
]


@pytest.mark.parametrize("workload,corrupt", CORRUPTIONS)
def test_corrupted_output_raises_error_rate(capsys, monkeypatch, workload, corrupt):
    corrupt(monkeypatch)
    code, report, result = bench(capsys, workload)
    assert code == 1
    assert not result["correct"] and result["failed"] >= 1
    error_rate = [line for line in report if line.startswith("metric error_rate")]
    assert error_rate and float(error_rate[0].split()[2]) > 0


def test_fails_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", "results"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(SPEC["command"] + ["--workload", "scan-mt", "--seed", "1",
                                             "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
