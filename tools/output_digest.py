"""A digest of what the CLI writes, to compare two checkouts byte for byte.

    python3 tools/output_digest.py

Runs a fixed list of `numvar` commands (COMMANDS) in this process, with the
package imported from the checkout this script sits in, in a fresh temporary
directory that holds the scan configs (SCAN_CONFIGS).  For each command it prints
one line, `sha256  command`: the sha256 of its exit code, its stdout, its
stderr and the file its --out names, if any, with the value of every
`"wall_time"` replaced by a fixed string.  The list covers every subcommand;
scan's CSV and JSON at --threads 1 and 2, over random alphas (to stdout and to
--out) and over rational and explicit ones; a preset with --out; `repstats`
on inner and whole windows, int64 keys and repeated terms; and `gcdsum`'s
divisor route in each variant.  It ends with
refusals (_REFUSALS): counting commands over their --pair-budget (exit 3),
terms or a threshold too large for the exact paths and a window past
--count (exit 2), and the gcd sum routes at their edges.  Each of them
allocates at most a few MB.  Run it in a `git archive` copy of each revision
and compare the lines: equal lines mean byte-identical output.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import re
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "src"))

from numvar import cli  # noqa: E402

# Random alphas practically never leave equal high words with their low words
# out of order; rat:1/3's squares do, so that scan takes the points' lexsort.
SCAN_CONFIGS = {
    "scan.conf": ("sequence = poly:0,0,1\nalpha_mode = uniform-random\nalpha_count = 5\n"
                  "n_grid = 1000, 4000\ns_grid = logspace:5..8\nseed = 7\n"),
    "rational.conf": ("sequence = poly:0,0,1\nalphas = rat:3/1024, rat:1/3, golden\n"
                      "n_grid = 1000, 4000\ns_grid = logspace:5..8\n"),
}

_SCANS = tuple(
    ("scan", "--config", "scan.conf", "--threads", threads, *fmt, *out)
    for threads in ("1", "2")
    for fmt, out in (((), ()), (("--format", "json"), ()),
                     ((), ("--out", "rows.csv")), (("--format", "json"), ("--out", "rows.json"))))

_RATIONAL_SCANS = tuple(("scan", "--config", "rational.conf", "--threads", threads, *fmt)
                        for threads in ("1", "2") for fmt in ((), ("--format", "json")))

_SQUARES, _LACUNARY = ("--sequence", "poly:0,0,1"), ("--sequence", "lacunary:2")
_GCD_EDGE = ("gcdsum", *_SQUARES, "--count", "100", "--pair-budget", "20000")
_REFUSALS = (
    ("energy", *_SQUARES, "--count", "300", "--pair-budget", "1000"),
    ("repstats", *_SQUARES, "--count", "300", "--pair-budget", "1000"),
    ("divcheck", "--poly", "0,1,1", "--count", "50", "--pair-budget", "1000"),
    ("gcdsum", *_LACUNARY, "--count", "40", "--threshold", "1000"),  # only the classes fit
    ("energy", *_LACUNARY, "--count", "62"),  # terms past 2^62
    (*_GCD_EDGE, "--threshold", "40"),  # the classes' cells top the budget
    (*_GCD_EDGE, "--threshold", "0.5"),  # no coprime class: 0.0 by the classes
    ("gcdsum", *_LACUNARY, "--count", "40", "--threshold", "1e15", "--pair-budget", "1000"),
    ("repstats", *_SQUARES, "--count", "50000", "--n1", "60000"),  # the window past --count
)

COMMANDS = (
    *_SCANS,
    *_RATIONAL_SCANS,
    ("preset", "thm1-quadratic", "--threads", "2", "--out", "preset.csv"),
    ("decompose", "15/64"),
    ("decompose", "15/64", "--out", "decompose.json"),
    ("energy", "--sequence", "poly:0,0,1", "--count", "300"),
    ("repstats", "--sequence", "poly:0,0,1", "--count", "300", "--n1", "50", "--n2", "200"),
    ("repstats", "--sequence", "poly:0,0,1", "--count", "300"),
    ("repstats", "--sequence", "lacunary:3", "--count", "30"),
    ("repstats", "--sequence", "poly:0,-3,1", "--count", "20"),
    ("gcdsum", "--sequence", "poly:0,0,1", "--count", "100", "--variant", "one_over_max",
     "--threshold", "40"),
    # no threshold: the divisor route, through J_1 or J_2 by the variant
    *(("gcdsum", *_SQUARES, "--count", "100", "--variant", variant)
      for variant in ("half", "one_over_max", "squared")),
    ("divcheck", "--poly", "0,1,1", "--count", "50"),
    ("random-baseline", "--n", "100", "--s", "1/8", "--replicates", "20", "--seed", "5"),
    ("bridge-sim", "--m", "256", "--s", "1/4", "--n", "100", "--paths", "20", "--seed", "3"),
    ("kronecker", "--alpha", "golden", "--s-grid", "1/4,1/8", "--n-max", "1000"),
    *_REFUSALS,
)

_WALL_TIME = re.compile(rb'("wall_time": )[^,\n}]+')


def digest(command) -> str:
    """The sha256 of what `numvar command` writes, run in the current directory."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(command))
    parts = [str(code).encode(), out.getvalue().encode(), err.getvalue().encode()]
    if "--out" in command:
        with open(command[command.index("--out") + 1], "rb") as fh:
            parts.append(fh.read())
    h = hashlib.sha256()
    for part in parts:
        part = _WALL_TIME.sub(rb'\1"stripped"', part)
        h.update(b"%d:" % len(part) + part)
    return h.hexdigest()


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__.split("\n")[0]).parse_args(argv)
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)  # not contextlib.chdir, which needs Python 3.11
        try:
            for name, text in SCAN_CONFIGS.items():
                with open(name, "w", encoding="utf-8") as fh:
                    fh.write(text)
            for command in COMMANDS:
                print(f"{digest(command)}  numvar {' '.join(command)}", flush=True)
        finally:
            os.chdir(cwd)
    return 0


if __name__ == "__main__":
    sys.exit(main())
