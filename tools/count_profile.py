"""Stage-by-stage cost of the difference counting that `arith-baseline` times.

    python3 tools/count_profile.py COUNT [--direct D]

Runs, in this process and one after another, the stages of the counting
path: the CLI parser build (`build_parser`, once per process in `main`), the
squares (`generate_terms`); `rep_table` over 1..COUNT as its gap keys, their
sort and their runs (the `rep.*` stages: only `repstats` builds this table,
as `energy` takes its window energy from `energy_direct`); `additive_energy`
over the first COUNT squares as its ordered sums, their sort and their walk;
and `energy_direct` over 1..D (default 3000) as its keys, their sort and
their walk, one value range at a time in the one key buffer the library
reuses.  tools/stage_timer.py times the stages, summing those run per value
range.  Then comes a check that each staged value `==` the library call's.
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

STAGES = ("parser", "terms", "rep.keys", "rep.sort", "rep.runs", "sums.add", "sums.sort",
          "sums.walk", "direct.keys", "direct.sort", "direct.walk")


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

    gaps, reps = [], []
    for keys in stage.steps("rep.keys", arithmetic._gap_key_ranges(terms, 1, count)):
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
    for keys in stage.steps("direct.keys", arithmetic._gap_key_ranges(terms, 1, direct)):
        with stage("direct.sort"):
            keys.sort()
        with stage("direct.walk"):
            direct_energy += arithmetic._run_square_sum(keys)
    del keys
    stage.report()

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
