"""Stage-by-stage cost of the difference counting that `arith-baseline` times.

    python3 tools/count_profile.py COUNT [--direct D]

Runs, in this process and one after another, the stages of the counting
path: the CLI parser build (`build_parser`, which `main` does once per
process) and the squares (`generate_terms`); `rep_table` over 1..COUNT as
its gap keys, their sort and their runs; `additive_energy` over the first
COUNT squares as its ordered sums, their sort and the walk over their runs;
and `energy_direct` over 1..D (default 3000) as its keys, their sort and the
walk, one value range at a time, each range's keys in the one key buffer
that the library reuses across a call's ranges.  For each stage it prints
the wall seconds, the user and system seconds and the minor page faults that
`getrusage` reports for this process, and the process's peak RSS so far; a
stage run once per value range is summed over the ranges.  Then come the total, and a
check that each staged value `==` the library call's.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import resource
import sys
import time

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "src"))

from numvar import arithmetic, cli  # noqa: E402
from numvar.points import SequenceSpec, generate_terms, term_array  # noqa: E402

STAGES = ("parser", "terms", "rep.keys", "rep.sort", "rep.runs", "sums.add", "sums.sort",
          "sums.walk", "direct.keys", "direct.sort", "direct.walk")


def _usage():
    return time.perf_counter(), resource.getrusage(resource.RUSAGE_SELF)


def _delta(start, end) -> list:
    (t0, r0), (t1, r1) = start, end
    return [t1 - t0, r1.ru_utime - r0.ru_utime, r1.ru_stime - r0.ru_stime,
            r1.ru_minflt - r0.ru_minflt]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("count", type=int, help="window 1..COUNT of rep_table and additive_energy")
    parser.add_argument("--direct", type=int, default=3000, help="window 1..D of energy_direct")
    args = parser.parse_args(argv)
    if args.count < 2 or args.direct < 2:
        parser.error("COUNT and D must be at least 2")
    count, direct = args.count, args.direct
    print(f"squares, COUNT = {count}, D = {direct}")
    print(f"{'stage':<12} {'wall_s':>8} {'user_s':>8} {'sys_s':>8} {'minflt':>9} {'peak_mb':>8}")
    costs = {name: [0.0, 0.0, 0.0, 0] for name in STAGES}
    peak = {}

    @contextlib.contextmanager
    def stage(name):
        start = _usage()
        yield
        end = _usage()
        costs[name] = [a + b for a, b in zip(costs[name], _delta(start, end))]
        peak[name] = end[1].ru_maxrss / 1024

    begin = _usage()
    with stage("parser"):
        cli.build_parser()
    with stage("terms"):
        terms = generate_terms(SequenceSpec.poly((0, 0, 1)), max(count, direct))

    def timed(name, steps):  # the steps of an iterator, each timed as stage `name`
        while True:
            with stage(name):
                item = next(steps, None)
            if item is None:
                return
            yield item

    gaps, reps = [], []
    for keys in timed("rep.keys", arithmetic._gap_key_ranges(terms, 1, count)):
        with stage("rep.sort"):
            keys.sort()
        with stage("rep.runs"):
            g, r = arithmetic._runs(keys)
        gaps.append(g)
        reps.append(r)
    del keys

    with stage("sums.add"):
        sums = arithmetic._ordered_sums(term_array(terms[:count], arithmetic.PAIR_LIMIT))
    with stage("sums.sort"):
        sums.sort()
    with stage("sums.walk"):
        energy = arithmetic._run_square_sum(sums)
    del sums

    direct_energy = 0
    for keys in timed("direct.keys", arithmetic._gap_key_ranges(terms, 1, direct)):
        with stage("direct.sort"):
            keys.sort()
        with stage("direct.walk"):
            direct_energy += arithmetic._run_square_sum(keys)
    del keys
    end = _usage()

    for name in STAGES:
        wall, user, sys_s, minflt = costs[name]
        print(f"{name:<12} {wall:8.3f} {user:8.3f} {sys_s:8.3f} {minflt:9d} {peak[name]:8.1f}")
    wall, user, sys_s, minflt = _delta(begin, end)
    print(f"{'total':<12} {wall:8.3f} {user:8.3f} {sys_s:8.3f} {minflt:9d} "
          f"{end[1].ru_maxrss / 1024:8.1f}")

    table = arithmetic.rep_table(terms, 1, count, pair_budget=count * count)
    ok = (np.array_equal(np.concatenate(gaps), table.gaps)
          and np.array_equal(np.concatenate(reps), table.reps)
          and energy == arithmetic.additive_energy(terms, count, pair_budget=count * count)
          and direct_energy == arithmetic.energy_direct(terms, 1, direct))
    print(f"check: {'ok' if ok else 'MISMATCH'}: {table.gaps.size} distinct gaps, "
          f"E({count}) = {energy}, E_window(1, {direct}) = {direct_energy}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
