"""Stage-by-stage cost of one scan cell: squares dilated by one random alpha.

    python3 tools/cell_profile.py N [--seed 5]

Runs the stages of one `run_scan` cell in this process, one after another:
the first N squares (`generate_terms`), their dilation by the first alpha of
`Alpha.random_stream(1, seed)` in two stages, the words (`dilate_words`) and
their sort (`PointSet(...)`), the `WindowAccumulator` build, and the scan's
8 widths S = 2^-5 .. 2^-12.  tools/stage_timer.py prints each stage's cost
and the total.  Then come the accumulator's state after the widths, the
bytes of its ndarray attributes per point, and the variances.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction

import numpy as np

_TOOLS = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [_TOOLS, os.path.join(os.path.dirname(_TOOLS), "src")]

from numvar.points import Alpha, PointSet, SequenceSpec, dilate_words, generate_terms  # noqa: E402
from numvar.variance import WindowAccumulator  # noqa: E402
from stage_timer import StageTimer  # noqa: E402

WIDTHS = [Fraction(1, 1 << v) for v in range(5, 13)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("n", type=int, help="the number of squares")
    parser.add_argument("--seed", type=int, default=5, help="seed of Alpha.random_stream")
    args = parser.parse_args(argv)
    if args.n < 1:
        parser.error("N must be at least 1")
    alpha = Alpha.random_stream(1, args.seed)[0]
    print(f"N = {args.n}, alpha {alpha.hex}")
    stage = StageTimer(("terms", "words", "sort", "build", "widths"), 8)
    with stage("terms"):
        terms = generate_terms(SequenceSpec.poly((0, 0, 1)), args.n)
    with stage("words"):
        words = dilate_words(terms, alpha)
    with stage("sort"):
        points = PointSet(*words)
    del words  # a scan cell keeps only the sorted points
    with stage("build"):
        acc = WindowAccumulator(points)
    with stage("widths"):
        values = [acc.variance(s) for s in WIDTHS]
    stage.report()
    state = sum(v.nbytes for v in vars(acc).values() if isinstance(v, np.ndarray))
    print(f"state: {state / args.n:.1f} bytes per point in the accumulator's arrays")
    for s, v in zip(WIDTHS, values):
        scale = args.n * float(s) * (1 - float(s))
        print(f"S = {s}: V = {v:.6g}, V/(NS(1-S)) = {v / scale:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
