"""A/B benchmark of two revisions: alternating pairs of perfbench runs.

    python3 tools/ab.py PARENT CHANGE --name NAME --what "what the change does" \
        --seeds 4 5 6 7

Each revision is exported with `git archive` into its own temporary directory,
so both sides run from committed files in fresh copies that write no bytecode
cache (PYTHONDONTWRITEBYTECODE=1).  For every seed, each workload runs once on
each side, one run at a time, with the side that goes first swapping from one
pair to the next.  The runs use the command, every workload, the run length
(run_seconds) and the end-to-end metrics with their bounds that the change's
BENCHMARK.json declares, and `--trace 0`.  The result is
written to BENCH_<NAME>.json at the repository root: per workload and metric,
each side's median and quartiles (statistics.quantiles, n=4), every run,
the pairs the change won (ties count for neither side), the change's median
relative to the parent's, and a verdict against the metric's bound (see
verdict).
"""

from __future__ import annotations

import argparse
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def git(*args: str) -> bytes:
    return subprocess.run(["git", "-C", ROOT, *args], check=True, capture_output=True).stdout


def export(rev: str, dest: str) -> str:
    """The committed files of `rev` under `dest`; returns its short hash."""
    with tarfile.open(fileobj=io.BytesIO(git("archive", rev))) as tar:
        tar.extractall(dest, filter="data")
    return git("rev-parse", "--short", rev).decode().strip()


def run_once(copy: str, command: list, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in `copy`: its environment and its result line."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([*command, "--workload", workload, "--seed", str(seed),
                           "--seconds", f"{seconds:g}", "--trace", "0"],
                          cwd=copy, env=env, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode not in (0, 1) or not lines:  # 1: some check failed
        raise RuntimeError(f"{workload} seed {seed} in {copy} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    run_env = next(json.loads(x[4:]) for x in lines if x.startswith("env "))
    return {"env": run_env, "result": json.loads(lines[-1])}


def verdict(parent: dict, change: dict, wins: int, pairs: int, better: str,
            bound: float) -> str:
    """One metric's verdict from both sides' spreads and the change's pair wins.

    worse: the change's median is worse than the parent's by more than the
    bound (a share of the parent's median).  gain: the change wins at least 9
    of 10 pairs and its median is better by more than the parent's
    interquartile range.  unresolved: the parent's interquartile range exceeds
    the bound as a share of its median, and the change does not win every
    pair.  same: anything else.
    """
    sign = 1 if better == "higher" else -1
    gained = sign * (change["median"] - parent["median"])
    iqr = parent["q3"] - parent["q1"]
    if -gained > bound * abs(parent["median"]):
        return "worse"
    if 10 * wins >= 9 * pairs and gained > iqr:
        return "gain"
    if iqr > bound * abs(parent["median"]) and wins < pairs:
        return "unresolved"
    return "same"


def summarize(parent: list, change: list, better: str, bound: float) -> dict:
    """Medians, quartiles, pair wins and the verdict of one metric over paired runs."""
    def spread(runs):
        q1, median, q3 = statistics.quantiles(runs, n=4) if len(runs) > 1 else runs * 3
        return {"median": median, "q1": q1, "q3": q3}

    sign = 1 if better == "higher" else -1
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    p, c = spread(parent), spread(change)
    return {"better": better, "bound": bound, "parent": p, "change": c,
            "change_wins": f"{wins}/{len(parent)}",
            "verdict": verdict(p, c, wins, len(parent), better, bound),
            "median_change": c["median"] / p["median"] - 1 if p["median"] else None,
            "parent_runs": parent, "change_runs": change}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", help="revision measured as the parent")
    parser.add_argument("change", help="revision measured as the change")
    parser.add_argument("--name", required=True, help="writes BENCH_<name>.json")
    parser.add_argument("--what", required=True, help="what the change does")
    parser.add_argument("--seeds", type=int, nargs="+", required=True,
                        help="one pair of runs per seed and workload")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="numvar-ab-") as tmp:
        copies = {side: os.path.join(tmp, side) for side in ("parent", "change")}
        revs = {side: export(getattr(args, side), copies[side]) for side in copies}
        with open(os.path.join(copies["change"], "BENCHMARK.json")) as fh:
            bench = json.load(fh)
        seconds = bench["run_seconds"]
        workloads = [w["name"] for w in bench["workloads"]]
        runs = {w: {"parent": [], "change": []} for w in workloads}
        environment = None
        for i, seed in enumerate(args.seeds):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for workload in workloads:
                for side in order:
                    out = run_once(copies[side], bench["command"], workload, seed, seconds)
                    environment = environment or out["env"]
                    runs[workload][side].append(out["result"])
                    metrics = {k: round(v["value"], 6)
                               for k, v in out["result"]["metrics"].items()}
                    print(f"{workload} seed={seed} {side} failed={out['result']['failed']} "
                          f"{json.dumps(metrics)}", file=sys.stderr)

    report = {
        "name": args.name,
        "what": args.what,
        "parent": revs["parent"],
        "method": (f"{' '.join(bench['command'])} --workload W --seed S --seconds {seconds:g} "
                   f"--trace 0 in git-archive copies of the parent ({revs['parent']}) and "
                   f"the change ({revs['change']}), PYTHONDONTWRITEBYTECODE=1, one run at "
                   "a time; one pair per seed and workload, the parent first in the 1st, "
                   "3rd, ... pair; median and quartiles (statistics.quantiles, n=4) over "
                   "the pairs; change_wins counts pairs where the change is better; "
                   "median_change is change median / parent median - 1; verdict is "
                   "tools/ab.py's verdict() against the metric's bound; written by "
                   "tools/ab.py"),
        "environment": dict(environment, PYTHONDONTWRITEBYTECODE="1"),
        "workloads": {},
    }
    for workload, sides in runs.items():
        report["workloads"][workload] = {
            "seeds": args.seeds,
            "pairs": len(args.seeds),
            "run_seconds": seconds,
            "parent_first_seeds": args.seeds[::2],
            "failed_checks": {s: sum(r["failed"] for r in sides[s]) for s in sides},
            "attempted_checks": {s: sum(r["attempted"] for r in sides[s]) for s in sides},
            "metrics": {m["name"]: summarize([r["metrics"][m["name"]]["value"] for r in sides["parent"]],
                                             [r["metrics"][m["name"]]["value"] for r in sides["change"]],
                                             m["better"], m["bound"])
                        for m in bench["end_to_end"]},
        }
    path = os.path.join(ROOT, f"BENCH_{args.name}.json")
    with open(path, "w") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    print(f"wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
