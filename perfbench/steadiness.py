"""Repeat the benchmark over seeds and report how much each metric spreads.

    python3 perfbench/steadiness.py --seeds 1-10 --out perfbench/results/run.json

Runs `run.py` once per (workload, seed), one process at a time, with the
command and run length from BENCHMARK.json.  For every end-to-end metric it
reports the ten values, their median and the distance between the first and
third quartiles (`statistics.quantiles(values, n=4)`) as a share of the
median, next to the metric's bound.  With `--trace` it instead makes one
traced run per workload and records its per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(spec: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    elapsed = time.monotonic() - t0
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["elapsed_s"] = elapsed
    return result


def spread(values: list) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def parse_seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--trace", action="store_true",
                        help="one traced run per workload at the first seed")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    seeds = parse_seeds(args.seeds)
    report: dict = {"run_seconds": spec["run_seconds"], "seeds": seeds, "workloads": {}}
    for name in names:
        if args.trace:
            res = run_once(spec, name, seeds[0], 1)
            report["workloads"][name] = res
            print(name, json.dumps(res["metrics"]), flush=True)
            continue
        runs = []
        for seed in seeds:
            runs.append(run_once(spec, name, seed, 0))
            print(name, seed, json.dumps({k: round(v["value"], 6)
                                          for k, v in runs[-1]["metrics"].items()}),
                  f"elapsed={runs[-1]['elapsed_s']:.1f}", flush=True)
        metrics = {}
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            s = spread(values)
            metrics[m["name"]] = {"unit": m["unit"], "bound": m["bound"],
                                  "values": values, **s}
            print(f"  {m['name']:12s} median={s['median']:.6g} spread={s['spread']:.4f} "
                  f"bound={m['bound']}", flush=True)
        report["workloads"][name] = {
            "metrics": metrics,
            "all_correct": all(r["correct"] for r in runs),
            "elapsed_s": [r["elapsed_s"] for r in runs],
        }
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
