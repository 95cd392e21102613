"""numvar benchmark: one workload per process, metrics as JSON on the last line.

    python3 perfbench/run.py --workload scan-mt --seed 1 --seconds 45 --trace 0

Run from a checkout of the repository: the package is imported from the
checkout's `src/`, and nothing is installed.  With `--trace 0` the run times
the workload's iterations for `--seconds` and prints the end-to-end metrics.
With `--trace 1` it times a pass untraced, replays the same iterations with
span wrappers around numvar's public functions, and prints the per-layer
metrics.  Every run checks the outputs it produced; a failed check is counted
in `failed` and makes the exit code 1.  Report lines go to stdout before the
result; the result, the environment and (traced runs) the spans are also
written under perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "work_per_s": "1/s",
                    "peak_rss_mb": "MB"}

# Child process for one set-up: a fresh interpreter imports numvar and builds
# the workload's inputs, which is what a user waits for before the first job.
# It prints the system-wide monotonic clock when done; timing the wait in the
# parent instead would add the child's teardown and the 50 ms polling steps
# of subprocess's wait with a timeout.
SETUP_CHILD = ("import sys, time; sys.path[:0] = sys.argv[1:3]; import workloads; "
               "workloads.build(sys.argv[3], int(sys.argv[4]), sys.argv[5]); "
               "print(time.monotonic())")


def tail(samples: list):
    """(label, value) of the highest percentile with >= 10 samples beyond it."""
    n = len(samples)
    if n < 11:
        return None, None
    return f"p{100 * (n - 10) // n}", sorted(samples)[n - 11]


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        # Reported as found and never set here: pinning BLAS threads would
        # hide the bridge_functional spin that the arith-baseline workload shows.
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


def measure_setup(name: str, seed: int, size: str, reps: int) -> list:
    """Seconds of `reps` set-ups, run STREAMS children at a time like the
    timed streams, so the sibling vCPU's load is the benchmark's own."""
    from workloads import STREAMS

    cmd = [sys.executable, "-c", SETUP_CHILD, SRC, BENCH_DIR, name, str(seed), size]
    out = []
    while len(out) < reps:
        children = []
        try:
            for _ in range(min(STREAMS, reps - len(out))):
                t0 = time.monotonic()
                children.append((t0, subprocess.Popen(cmd, cwd=ROOT, text=True,
                                                      stdout=subprocess.PIPE,
                                                      stderr=subprocess.PIPE)))
            for t0, child in children:
                stdout, stderr = child.communicate(timeout=120)
                if child.returncode != 0:
                    raise RuntimeError(f"set-up child exited {child.returncode}: {stderr}")
                out.append(float(stdout.split()[-1]) - t0)
        finally:
            for _, child in children:
                if child.poll() is None:
                    child.kill()
                    child.wait()
    return out


def peak_rss_mb() -> float:
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib * 1024 / 1e6


# ---------------------------------------------------------------------------
# untraced run: end-to-end metrics


def end_to_end(wl, samples: list, setups: list, rss: float, checks: list) -> tuple:
    """(BENCHMARK.json metrics, report rows).  A report row is
    (name, unit, median, tail label, tail value, sample count)."""
    walls = [s["wall"] for s in samples]
    rows = [("setup_s", "s", statistics.median(setups), *tail(setups), len(setups)),
            ("wall_s", "s", statistics.median(walls), *tail(walls), len(walls))]

    def rate(name: str, job: str, work: float, runs: list = samples,
             streams: int = wl.streams) -> float:
        # Work of all streams at once per second of one stream's job.  The
        # tail of a rate is its slow side: the rate at the time's tail.
        times = [s[job] for s in runs]
        label, slow = tail(times)
        work *= streams
        rows.append((name, "1/s", work / statistics.median(times),
                     label and f"{label}_time", slow and work / slow, len(times)))
        return work / statistics.median(times)

    if wl.name == "scan-mt":
        work = rate("scan.cells_per_s", "scan", wl.work)
    else:
        work = rate("arith.count_pairs_per_s", "count", wl.work)
        t = [s["pairstat"] for s in samples]
        rows.append(("arith.pairstat_s", "s", statistics.median(t), *tail(t), len(t)))
        rate("baseline.replicates_per_s", "replicates", wl.p["base_reps"])
        rate("baseline.oracle_checks_per_s", "oracle", wl.p["base_reps"])
        rate("baseline.paths_per_s", "paths", wl.p["bridge_paths"], wl.bridge_samples, 1)
    failed = sum(1 for _, ok in checks if not ok)
    rows.append(("peak_rss_mb", "MB", rss, None, None, 1))
    rows.append(("error_rate", "ratio", failed / len(checks), None, None, len(checks)))
    metrics = {"setup_s": rows[0][2], "wall_s": rows[1][2], "work_per_s": work,
               "peak_rss_mb": rss}
    return metrics, rows


# ---------------------------------------------------------------------------
# traced run: per-layer metrics

# (metric, unit, module, function, how): "ms"/"s" are per-call medians at
# the largest input size; anything else names a count summed over iteration
# 0, whose inputs depend only on the seed, so it repeats exactly for a seed.
LAYER_SPANS = (
    ("points.generate_terms_ms", "ms", "points", "generate_terms", "ms"),
    ("points.dilate_mod1_ms", "ms", "points", "dilate_mod1", "ms"),
    ("points.points_dilated", "count", "points", "dilate_mod1", "points_dilated"),
    ("variance.accumulator_build_ms", "ms", "variance", "WindowAccumulator.__init__", "ms"),
    ("variance.tent_pair_sum_ms", "ms", "variance", "WindowAccumulator.tent_pair_sum", "ms"),
    ("variance.widths_evaluated", "count", "variance", "WindowAccumulator.tent_pair_sum",
     "widths_evaluated"),
    ("variance.sweep_ms", "ms", "variance", "variance_sweep", "ms"),
    ("cli.run_scan_s", "s", "cli", "run_scan", "s"),
    ("cli.emit_ms", "ms", "cli", "emit", "ms"),
    ("cli.csv_bytes", "bytes", "cli", "emit", "csv_bytes"),
    ("arithmetic.rep_table_s", "s", "arithmetic", "rep_table", "s"),
    ("arithmetic.rep_table_pairs", "count", "arithmetic", "rep_table", "rep_table_pairs"),
    ("arithmetic.additive_energy_s", "s", "arithmetic", "additive_energy", "s"),
    ("arithmetic.energy_direct_s", "s", "arithmetic", "energy_direct", "s"),
    ("arithmetic.sparse_u2_mass_s", "s", "arithmetic", "sparse_u2_mass", "s"),
    ("arithmetic.gcd_sum_s", "s", "arithmetic", "gcd_sum", "s"),
    ("dyadic.y_window_sum_ms", "ms", "dyadic", "y_window_sum", "ms"),
    ("dyadic.distinct_gaps", "count", "dyadic", "y_window_sum", "distinct_gaps"),
    ("baselines.sample_uniform_ms", "ms", "baselines", "sample_uniform", "ms"),
    ("baselines.bridge_path_ms", "ms", "baselines", "bridge_path", "ms"),
    ("baselines.bridge_functional_ms", "ms", "baselines", "bridge_functional", "ms"),
)


def per_layer(spans: list, k: int, untraced_s: float, traced_s: float,
              compute_1t: float, threads: int) -> dict:
    """Per-layer metrics from the spans of a traced pass.

    `untraced_s` and `traced_s` are the wall times of the two passes over the
    same k iterations; per-iteration values divide by k.
    """
    import tracing

    m: dict = {}
    for metric, unit, module, fn, how in LAYER_SPANS:
        mine = [s for s in spans if s.module == module and s.name == fn]
        if how in ("ms", "s"):
            largest = max((s.counts.get("size", 0) for s in mine), default=0)
            calls = [s.duration for s in mine if s.counts.get("size", 0) == largest]
            value = statistics.median(calls) * (1e3 if how == "ms" else 1.0) if calls else 0.0
        else:
            value = sum(s.counts[how] for s in mine if s.iteration == 0)
        m[metric] = (value, unit)

    ywin = [s for s in spans if s.name == "y_window_sum" and s.iteration == 0]
    pairs = sum(s.counts["gap_pairs"] for s in ywin)
    m["dyadic.gap_compression"] = (
        sum(s.counts["distinct_gaps"] for s in ywin) / pairs if pairs else 0.0, "ratio")

    scanning = any(s.name == "run_scan" for s in spans)
    m["cli.pool_efficiency"] = (
        compute_1t / (threads * traced_s / k) if scanning else 0.0, "ratio")
    own = [s for s in spans if not s.worker]
    m["cli.overhead_s"] = (sum(s.self_time for s in own if s.name == "main") / k, "s")
    selfs = {mod: sum(s.self_time for s in own if s.module == mod) / k
             for mod in tracing.MODULES}
    for mod, value in selfs.items():
        m[f"{mod}.self_s"] = (value, "s")
    m["trace.overhead_s"] = ((traced_s - untraced_s) / k, "s")
    m["trace.unattributed_s"] = (traced_s / k - sum(selfs.values()), "s")
    return m


def compute_time(spans: list, k: int) -> float:
    """Seconds per iteration spent in the points and variance layers."""
    return sum(s.self_time for s in spans
               if s.module in ("points", "variance")) / k


def replay(tracer, fn, count: int) -> list:
    """fn(0..count-1) with spans tagged by iteration; returns the outputs."""
    outputs = []
    for i in range(count):
        tracer.iteration = i
        outputs.append(fn(i)[1])
    return outputs


def traced_run(wl, seconds: float, worker_dir: str) -> tuple:
    """(metrics, units, checks, k) from an untraced and a traced pass over
    the same iterations (and, on arith-baseline, the same bridge iterations)."""
    import tracing
    import workloads

    # One stream, like the traced replay below, so the two passes compare.
    t0 = time.perf_counter()
    _, outputs = wl.run(seconds / 2, streams=1)
    untraced_s = time.perf_counter() - t0
    k = len(outputs)
    bridge = getattr(wl, "bridge_outputs", [])
    with tracing.Tracer(worker_dir) as tracer:
        t0 = time.perf_counter()
        replayed = replay(tracer, wl.iteration, k)
        replayed_bridge = replay(tracer, wl.bridge, len(bridge)) if bridge else []
        traced_s = time.perf_counter() - t0
    tracer.collect_worker_spans()
    threads = getattr(wl, "threads", 1)
    compute_1t = 0.0
    if threads > 1:
        single = workloads.Scan(wl.seed, wl.size, threads=1)
        with tracing.Tracer(worker_dir) as tracer_1t:
            replay(tracer_1t, single.iteration, k)
        compute_1t = compute_time(tracer_1t.spans, k)

    checks = wl.checks(outputs)
    checks += [(f"traced output == untraced, iteration {i}", out == outputs[i])
               for i, out in enumerate(replayed)]
    checks += [(f"traced output == untraced, bridge {i}", out == bridge[i])
               for i, out in enumerate(replayed_bridge)]
    layer = per_layer(tracer.spans, k, untraced_s, traced_s, compute_1t, threads)
    with open(os.path.join(OUT_DIR, f"spans-{wl.name}-seed{wl.seed}.json"), "w") as fh:
        json.dump([s.__dict__ for s in tracer.spans], fh)
    return ({name: v for name, (v, _) in layer.items()},
            {name: u for name, (_, u) in layer.items()}, checks, k)


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("scan-mt", "arith-baseline"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: small inputs for the benchmark's own tests")
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    if not os.path.isfile(os.path.join(SRC, "numvar", "__init__.py")):
        print(f"perfbench: no numvar package under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    for path in (SRC, BENCH_DIR):
        if path not in sys.path:
            sys.path.insert(0, path)
    import workloads

    os.makedirs(OUT_DIR, exist_ok=True)
    env = environment()
    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} size={args.size}")
    print("env " + json.dumps(env, sort_keys=True))

    wl = workloads.build(args.workload, args.seed, args.size)
    if args.trace:
        worker_dir = os.path.join(OUT_DIR, f"spans-{os.getpid()}")
        try:
            metrics, units, checks, k = traced_run(wl, args.seconds, worker_dir)
        finally:
            shutil.rmtree(worker_dir, ignore_errors=True)
        rows = [(name, units[name], value, None, None, k) for name, value in metrics.items()]
    else:
        samples, outputs = wl.run(args.seconds)
        # Read before the set-up children and the checks, which rerun jobs:
        # either would add memory that is not the run's.
        rss = peak_rss_mb()
        setups = measure_setup(args.workload, args.seed, args.size, wl.p["setup_reps"])
        checks = wl.checks(outputs)
        metrics, rows = end_to_end(wl, samples, setups, rss, checks)
        units = END_TO_END_UNITS
    failed = sum(1 for _, ok in checks if not ok)
    attempted = len(checks)

    for name, unit, value, label, tail_value, n in rows:
        extra = f"  {label}={tail_value:.6g}" if label else ""
        print(f"metric {name:34s} {value:.6g} {unit}{extra}  n={n}")
    for name, ok in checks:
        if not ok:
            print(f"FAILED check: {name}")
    print(f"checks attempted={attempted} failed={failed} "
          f"error_rate={failed / attempted:.6g}")

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, value in metrics.items()}}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "size": args.size, "env": env,
              "report": [dict(zip(("name", "unit", "median", "tail", "tail_value", "n"), r))
                         for r in rows],
              "result": result}
    with open(os.path.join(OUT_DIR, f"result-{args.workload}-seed{args.seed}"
                           f"-trace{args.trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
