"""The benchmark's workloads: inputs from a seed, timed jobs, output checks.

Every workload repeats one *iteration* of jobs until the run's time is up.
Iteration i draws its inputs from (seed, i), so the same seed replays the same
inputs, and a traced pass over iterations 0..k-1 sees exactly what the
untraced pass saw.  The jobs call numvar through module attributes
(`cli.run_scan`, `arithmetic.gcd_sum`, ...) so that the tracer's wrappers see
every call.

Checks run on the collected outputs after the timed loop.  Each returns
(name, ok); failed / attempted is the run's error rate.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import multiprocessing
import statistics
import time
from fractions import Fraction

import numpy as np

from numvar import arithmetic, baselines, cli, dyadic, points, variance

SQUARES = "poly:0,0,1"
REF_SEED = 1  # the reference digests below are for iteration 0 of this seed

# Sizes are scaled so one iteration takes one to two seconds at "full" and a
# few milliseconds at "tiny", the mode the benchmark's own tests use.
SIZES = {
    "full": {
        "scan_n_grid": "10000, 100000", "scan_alphas": 2,
        "count_n": 600, "direct_n": 3000, "pair_n": 80, "pair_alphas": 16,
        "base_n": 10_000, "base_reps": 10, "bridge_m": 1 << 14, "bridge_paths": 20,
        "setup_reps": 10,
    },
    "tiny": {
        "scan_n_grid": "50, 300", "scan_alphas": 2,
        "count_n": 40, "direct_n": 80, "pair_n": 20, "pair_alphas": 2,
        "base_n": 200, "base_reps": 3, "bridge_m": 1 << 8, "bridge_paths": 4,
        "setup_reps": 1,
    },
}

# sha256 of the CSV that the scan emits for iteration 0 of REF_SEED, recorded
# from the seed code.  Any change to a V digit, a row or the order shows here.
REF_CSV_SHA256 = {
    "full": "df9b04e3bcedaa2141c02296d735038932706b9838d12b67f22cd7b60b514c06",
    "tiny": "3cd964d12da9163f226136781e8acbffd6dfdd9251c12287ca06eb25750ad86e",
}

KERNELS = (dyadic.PlateauKernel(4, 1), dyadic.PlateauKernel(6, 10))
BASE_S = Fraction(1, 128)
BRIDGE_S = Fraction(1, 8)
BRIDGE_N = 1000


def iteration_seed(seed: int, i: int) -> int:
    return int(np.random.SeedSequence([seed, i]).generate_state(1, np.uint64)[0])


def replicate_seeds(seed: int, count: int) -> list:
    """The per-replicate seeds numvar.baselines derives from a root seed."""
    state = np.random.SeedSequence(seed).generate_state(count, dtype=np.uint64)
    return [int(s) for s in state]


def run_cli(argv) -> dict:
    """`numvar <argv>` in-process; returns its JSON output."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main([str(a) for a in argv])
    if code != 0:
        raise RuntimeError(f"numvar {' '.join(map(str, argv))} exited {code}")
    return json.loads(buf.getvalue())


def _close(a: float, b: float, rel: float = 1e-9) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


MIN_ITERATIONS = 3

# Iteration streams a workload runs at once: one per vCPU of the 2-vCPU
# machine the benchmark was tuned on.  Its two vCPUs share a physical core,
# so a single stream runs 40-60% faster or slower as the sibling is idle or
# busy with other tenants' work; with both busy with the benchmark's own
# streams, the speed holds.
STREAMS = 2


def run_iterations(fn, deadline: float, first: int = 0, step: int = 1):
    """fn(first), fn(first + step), ... until time.monotonic() passes
    `deadline`, at least MIN_ITERATIONS calls.
    Returns [(i, {job: s, "wall": s}, output)]."""
    runs = []
    i = first
    while len(runs) < MIN_ITERATIONS or time.monotonic() < deadline:
        t0 = time.perf_counter()
        times, output = fn(i)
        times["wall"] = time.perf_counter() - t0
        runs.append((i, times, output))
        i += step
    return runs


_streaming = None  # (workload, method name) the forked stream workers run


def _stream(first: int, step: int, deadline: float):
    wl, method = _streaming
    return run_iterations(getattr(wl, method), deadline, first, step)


def run_streams(wl, method: str, seconds: float, streams: int):
    """`wl.<method>` over iterations 0, 1, ... for `seconds`, split over
    `streams` forked processes that run at once (stream w takes iterations
    w, w + streams, ...).  Returns ([{job: s, "wall": s}], [output]) in
    iteration order."""
    deadline = time.monotonic() + seconds
    if streams == 1:
        runs = run_iterations(getattr(wl, method), deadline)
    else:
        global _streaming
        _streaming = (wl, method)
        pool = multiprocessing.get_context("fork").Pool(streams)
        try:
            parts = pool.starmap(_stream, [(w, streams, deadline) for w in range(streams)])
            pool.close()
        except BaseException:
            pool.terminate()
            raise
        finally:
            pool.join()
            _streaming = None
        runs = sorted((r for part in parts for r in part), key=lambda r: r[0])
    return [times for _, times, _ in runs], [output for _, _, output in runs]


class Workload:
    """Iterations of jobs; `work` units of the headline job per iteration."""

    name = ""
    streams = STREAMS

    def __init__(self, seed: int, size: str):
        self.seed = seed
        self.size = size
        self.p = SIZES[size]

    def iteration(self, i: int):
        """Run iteration i; returns ({job: seconds}, output)."""
        raise NotImplementedError

    def run(self, seconds: float, streams: int = 0):
        """Iterations for `seconds` in `streams` processes (default: the
        workload's own); see run_streams."""
        return run_streams(self, "iteration", seconds, streams or self.streams)

    def checks(self, outputs: list) -> list:
        """(name, ok) pairs on the outputs of the run's iterations."""
        raise NotImplementedError

    def _timed(self, times: dict, job: str, fn, *args):
        t0 = time.perf_counter()
        result = fn(*args)
        times[job] = times.get(job, 0.0) + time.perf_counter() - t0
        return result


# ---------------------------------------------------------------------------
# scan-mt


class Scan(Workload):
    """thm1-quadratic shape: squares, S = 2^-5..2^-12, seeded random alphas,
    one worker process per core (threads = 1 for the reference passes).
    The scan's own pool keeps both cores busy, so it runs one stream."""

    name = "scan-mt"
    streams = 1

    def __init__(self, seed: int, size: str, threads: int = 2):
        super().__init__(seed, size)
        self.threads = threads
        self.base = cli.parse_config(
            f"sequence = {SQUARES}\n"
            "alpha_mode = uniform-random\n"
            f"alpha_count = {self.p['scan_alphas']}\n"
            f"n_grid = {self.p['scan_n_grid']}\n"
            "s_grid = logspace:5..12\n"
            "seed = 0\n")
        self.work = (len(self.base.n_grid) * len(self.base.s_grid)
                     * self.base.alpha_count)

    def config(self, seed: int):
        return dataclasses.replace(self.base, seed=seed)

    def scan_csv(self, seed: int, threads: int) -> bytes:
        return cli.emit(cli.run_scan(self.config(seed), threads=threads), "csv")

    def iteration(self, i: int):
        times: dict = {}
        seed = iteration_seed(self.seed, i)
        data = self._timed(times, "scan", self.scan_csv, seed, self.threads)
        return times, (seed, data)

    def checks(self, outputs: list) -> list:
        out = []
        for seed, data in outputs:
            rows = cli.parse(data, "csv").rows
            out.append(("csv rows", len(rows) == self.work))
        seed0, data0 = outputs[0]
        ref_seed = iteration_seed(REF_SEED, 0)
        ref = data0 if seed0 == ref_seed else self.scan_csv(ref_seed, self.threads)
        out.append(("csv sha256 matches seed code",
                    hashlib.sha256(ref).hexdigest() == REF_CSV_SHA256[self.size]))
        out.append(("csv bytes equal threads=1", self.scan_csv(seed0, 1) == data0))
        out.extend(self._dual_route(seed0, data0))
        return out

    def _dual_route(self, seed: int, data: bytes) -> list:
        """Exact pairwise == sweep on a subset of cells, and the CSV holds it."""
        rows = {(r.n, r.s, r.alpha.hex): r.v for r in cli.parse(data, "csv").rows}
        grid, widths = self.base.n_grid, self.base.s_grid
        terms = points.generate_terms(self.base.sequence, grid[-1])
        alphas = points.Alpha.random_stream(self.base.alpha_count, seed)
        cells = [(grid[0], s, a) for a in alphas for s in (widths[0], widths[-1])]
        cells.append((grid[-1], widths[-1], alphas[0]))
        cells += [(grid[0], s, points.Alpha.parse("rat:3/1024"))
                  for s in (widths[0], widths[-1])]
        out = []
        for n, s, alpha in cells:
            pts = points.dilate_mod1(terms[:n], alpha)
            exact = variance.variance_pairwise(pts, s, exact=True)
            ok = exact == variance.variance_sweep(pts, s, exact=True)
            if (n, s, alpha.hex) in rows:
                ok = ok and rows[(n, s, alpha.hex)] == float(exact)
            out.append((f"pairwise == sweep N={n} S={s} alpha={alpha.hex[:8]}", ok))
        return out


# ---------------------------------------------------------------------------
# arith-baseline


class ArithBaseline(Workload):
    """The jobs that bypass the scan, one after another in each iteration:
    squares difference counting and the criterion-9 pair statistic (the
    arith jobs), then many fresh uniform point sets with one width each (the
    baseline jobs); bridge paths after the iterations."""

    name = "arith-baseline"

    def __init__(self, seed: int, size: str):
        super().__init__(seed, size)
        p = self.p
        self.terms = points.generate_terms(points.SequenceSpec.parse(SQUARES),
                                           max(p["direct_n"], p["pair_n"]))
        c, d = p["count_n"], p["direct_n"]
        # energy: rep_table + additive_energy; repstats: rep_table twice
        # (once directly, once inside sparse_u2_mass); then energy_direct.
        self.work = 3 * c * (c - 1) // 2 + c * c + d * (d - 1) // 2
        self.bridge_samples: list = []
        self.bridge_outputs: list = []

    def run(self, seconds: float, streams: int = 0):
        # OpenBLAS threads keep spinning after bridge_functional's np.dot and
        # slow whatever runs next, by a varying amount; run after the other
        # iterations, in the last tenth, the paths do not blur their timings.
        # A tenth is still dozens of bridge iterations, and the gated metrics
        # come from the other iterations.  The bridge runs in this process
        # alone: two processes of OpenBLAS threads would oversubscribe the cores.
        samples, outputs = super().run(0.9 * seconds, streams)
        self.bridge_samples, self.bridge_outputs = run_streams(
            self, "bridge", 0.1 * seconds, 1)
        return samples, outputs

    def iteration(self, i: int):
        p = self.p
        times: dict = {}
        seed = iteration_seed(self.seed, i)
        alphas = points.Alpha.random_stream(p["pair_alphas"], seed)
        counting = ["--sequence", SQUARES, "--count", p["count_n"]]
        energy = self._timed(times, "count", run_cli, ["energy", *counting])
        rep = self._timed(times, "count", run_cli, ["repstats", *counting])
        direct = self._timed(times, "count", arithmetic.energy_direct,
                             self.terms, 1, p["direct_n"])
        pair = self._timed(times, "pairstat", self.pairstat, alphas)
        rb = self._timed(times, "replicates", run_cli,
                         ["random-baseline", "--n", p["base_n"], "--s", BASE_S,
                          "--replicates", p["base_reps"], "--seed", seed])
        routes = self._timed(times, "oracle", self.oracle, seed)
        return times, {"energy": energy, "repstats": rep, "direct": direct,
                       "alphas": alphas, **pair, "random": rb, "routes": routes}

    def pairstat(self, alphas) -> dict:
        table = arithmetic.rep_table(self.terms, 1, self.p["pair_n"])
        gsum = arithmetic.gcd_sum(table, "one_over_max")
        ys = [dyadic.y_window_sum(table.counts, table.pair_count, k, a)
              for a in alphas for k in KERNELS]
        return {"gcd_sum": gsum, "y": ys}

    def oracle(self, seed: int) -> list:
        """Both exact routes on every replicate's point set."""
        out = []
        for sub in replicate_seeds(seed, self.p["base_reps"]):
            pts = baselines.sample_uniform(self.p["base_n"], sub).points
            out.append((variance.variance_pairwise(pts, BASE_S, exact=True),
                        variance.variance_sweep(pts, BASE_S, exact=True)))
        return out

    def bridge(self, i: int):
        p = self.p
        times: dict = {}
        seed = iteration_seed(self.seed, i)
        out = self._timed(times, "paths", run_cli,
                          ["bridge-sim", "--m", p["bridge_m"], "--s", BRIDGE_S,
                           "--n", BRIDGE_N, "--paths", p["bridge_paths"], "--seed", seed])
        return times, (seed, out)

    def checks(self, outputs: list) -> list:
        return self._arith_checks(outputs) + self._baseline_checks(outputs)

    def _arith_checks(self, outputs: list) -> list:
        p = self.p
        c, n = p["count_n"], p["pair_n"]
        first = outputs[0]
        energy, rep = first["energy"], first["repstats"]
        ew = energy["energy_window"]
        out = [
            ("additive_energy == N^2 + 2 energy_window",
             energy["additive_energy"] == c * c + 2 * ew),
            ("energy_direct == energy_window(rep_table) on 1..N",
             arithmetic.energy_direct(self.terms, 1, c) == ew),
            ("repstats energy_window == energy energy_window", rep["energy_window"] == ew),
            ("repstats pair_count", rep["pair_count"] == c * (c - 1) // 2),
        ]
        for o in outputs[1:]:
            out.append(("counting outputs repeat",
                        (o["energy"], o["repstats"], o["direct"], o["gcd_sum"])
                        == (energy, rep, first["direct"], first["gcd_sum"])))
        table = arithmetic.rep_table(self.terms, 1, n)
        dense = arithmetic.gcd_sum(table, "one_over_max", threshold=12, strategy="dense")
        classes = arithmetic.gcd_sum(table, "one_over_max", threshold=12, strategy="classes")
        out.append(("gcd_sum dense == classes at threshold 12", _close(dense, classes)))
        out.append(("gcd_sum positive", first["gcd_sum"] > 0))
        alpha = first["alphas"][0]
        for j, kernel in enumerate(KERNELS):
            by_row = sum(dyadic.y_statistic(self.terms, m, kernel, alpha)
                         for m in range(1, n + 1))
            out.append((f"y_window_sum == sum of y_statistic, kernel {j}",
                        _close(first["y"][j], by_row)))
        return out

    def _baseline_checks(self, outputs: list) -> list:
        out = []
        for o in outputs:
            for k, (pairwise, sweep) in enumerate(o["routes"]):
                out.append((f"replicate {k}: pairwise == sweep", pairwise == sweep))
            mean = float(np.array([float(pw) for pw, _ in o["routes"]]).mean())
            out.append(("random-baseline mean == mean of oracle values",
                        o["random"]["mean"] == mean))
        seed, bridge = self.bridge_outputs[0]
        p = self.p
        values = [baselines.bridge_functional(baselines.bridge_path(p["bridge_m"], s),
                                              BRIDGE_S, BRIDGE_N)
                  for s in replicate_seeds(seed, p["bridge_paths"])]
        out.append(("bridge-sim mean == mean of its paths",
                    _close(bridge["mean"], statistics.fmean(values), 1e-12)))
        return out


WORKLOADS = {w.name: w for w in (Scan, ArithBaseline)}


def build(name: str, seed: int, size: str) -> Workload:
    return WORKLOADS[name](seed, size)
