"""Stage-by-stage cost of one scan cell: squares dilated by one random alpha.

    python3 tools/cell_profile.py N [--seed 5]

Runs the stages of one `run_scan` cell in this process, one after another:
the first N squares (`generate_terms`), their dilation by the first alpha of
`Alpha.random_stream(1, seed)` in two stages, the words (`dilate_words`) and
their sort (`PointSet.from_words`), the `WindowAccumulator` build, and the
scan's 8 widths S = 2^-5 .. 2^-12.  For each stage it prints
the wall seconds, the minor page faults and the user and system seconds that
`getrusage` reports for this process, and the process's peak RSS so far.
Then come the total and the accumulator's state after the widths: the bytes
of its ndarray attributes per point.
"""

from __future__ import annotations

import argparse
import os
import resource
import sys
import time
from fractions import Fraction

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "src"))

from numvar.points import Alpha, PointSet, SequenceSpec, dilate_words, generate_terms  # noqa: E402
from numvar.variance import WindowAccumulator  # noqa: E402

WIDTHS = [Fraction(1, 1 << v) for v in range(5, 13)]


def _usage():
    return time.perf_counter(), resource.getrusage(resource.RUSAGE_SELF)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("n", type=int, help="the number of squares")
    parser.add_argument("--seed", type=int, default=5, help="seed of Alpha.random_stream")
    args = parser.parse_args(argv)
    if args.n < 1:
        parser.error("N must be at least 1")
    alpha = Alpha.random_stream(1, args.seed)[0]
    print(f"N = {args.n}, alpha {alpha.hex}")
    print(f"{'stage':<8} {'wall_s':>8} {'user_s':>8} {'sys_s':>8} {'minflt':>9} {'peak_mb':>8}")

    def row(name, start, end):
        t0, r0 = start
        t1, r1 = end
        print(f"{name:<8} {t1 - t0:8.3f} {r1.ru_utime - r0.ru_utime:8.3f} "
              f"{r1.ru_stime - r0.ru_stime:8.3f} {r1.ru_minflt - r0.ru_minflt:9d} "
              f"{r1.ru_maxrss / 1024:8.1f}")

    begin = mark = _usage()

    def stage(name, fn):
        nonlocal mark
        result = fn()
        now = _usage()
        row(name, mark, now)
        mark = now
        return result

    terms = stage("terms", lambda: generate_terms(SequenceSpec.poly((0, 0, 1)), args.n))
    words = stage("words", lambda: dilate_words(terms, alpha))
    points = stage("sort", lambda: PointSet.from_words(*words))
    del words  # a scan cell keeps only the sorted points
    acc = stage("build", lambda: WindowAccumulator(points))
    values = stage("widths", lambda: [acc.variance(s) for s in WIDTHS])
    row("total", begin, mark)
    state = sum(v.nbytes for v in vars(acc).values() if isinstance(v, np.ndarray))
    print(f"state: {state / args.n:.1f} bytes per point in the accumulator's arrays")
    for s, v in zip(WIDTHS, values):
        scale = args.n * float(s) * (1 - float(s))
        print(f"S = {s}: V = {v:.6g}, V/(NS(1-S)) = {v / scale:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
