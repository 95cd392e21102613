"""Stage-by-stage cost of the difference counting that `arith-baseline` times.

    python3 tools/count_profile.py COUNT [--direct D]

Runs, in this process and one after another, the stages of the counting
path: the CLI parser build (`build_parser`, once per process in `main`); the
squares (`generate_terms`); `additive_energy` over 1..COUNT as its ordered
sums, their sort and their walk; and, in one loop, the gap run walk over
1..COUNT that `energy` and `repstats` run (`count.*`) and over 1..D, default
3000, that `energy_direct` runs (`direct.*`), each as its keys, their sort
and their walk, one value range at a time in the library's one key buffer.
tools/stage_timer.py times the stages, summing those run per value range.
Then comes a check of the staged values against `rep_table`'s histogram,
`additive_energy` and `energy_direct`.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

_TOOLS = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [_TOOLS, os.path.join(os.path.dirname(_TOOLS), "src")]

from numvar import arithmetic, cli  # noqa: E402
from numvar.points import SequenceSpec, generate_terms, term_array  # noqa: E402
from stage_timer import StageTimer  # noqa: E402

STAGES = ("parser", "terms", "sums.add", "sums.sort", "sums.walk", "count.keys", "count.sort",
          "count.walk", "direct.keys", "direct.sort", "direct.walk")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("count", type=int, help="window 1..COUNT of rep_table and additive_energy")
    parser.add_argument("--direct", type=int, default=3000, help="window 1..D of energy_direct")
    args = parser.parse_args(argv)
    if args.count < 2 or args.direct < 2:
        parser.error("COUNT and D must be at least 2")
    count, direct = args.count, args.direct
    print(f"squares, COUNT = {count}, D = {direct}")
    stage = StageTimer(STAGES, 12)
    with stage("parser"):
        cli.build_parser()
    with stage("terms"):
        terms = generate_terms(SequenceSpec.poly((0, 0, 1)), max(count, direct))

    with stage("sums.add"):
        sums = arithmetic._ordered_sums(term_array(terms[:count], arithmetic.PAIR_LIMIT))
    with stage("sums.sort"):
        sums.sort()
    with stage("sums.walk"):
        energy = arithmetic._run_stats(sums)[3]
    del sums

    walks = {}  # arithmetic._gap_run_stats over 1..COUNT and 1..D, stage by stage
    for name, n in (("count", count), ("direct", direct)):
        per_range = []
        for keys in stage.steps(f"{name}.keys", arithmetic._gap_key_ranges(terms, 1, n)):
            with stage(f"{name}.sort"):
                keys.sort()
            with stage(f"{name}.walk"):
                per_range.append(arithmetic._run_stats(keys))
        del keys
        runs, ones, longest, squares = zip(*per_range)
        walks[name] = sum(runs), sum(ones), max(longest), sum(squares)
    stage.report()

    table = arithmetic.rep_table(terms, 1, count, pair_budget=count * count)
    reps = table.reps
    ok = (walks["count"] == (reps.size, int(np.count_nonzero(reps == 1)), int(reps.max()),
                             arithmetic.energy_window(table))
          and energy == arithmetic.additive_energy(terms, count, pair_budget=count * count)
          and walks["direct"][3] == arithmetic.energy_direct(terms, 1, direct))
    print(f"check: {'ok' if ok else 'MISMATCH'}: {reps.size} distinct gaps, "
          f"E({count}) = {energy}, E_window(1, {direct}) = {walks['direct'][3]}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
