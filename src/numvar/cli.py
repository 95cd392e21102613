"""Experiment orchestration: config files, grid scans, CSV/JSON output.

A scan walks a grid over (N, S, alpha), computing the number variance for
each cell via the pairwise route.  Rows always appear in deterministic order
(N outer, S middle, alpha inner) and CSV output is byte-identical across
re-runs with the same config and seed.  Subcommands expose the analysis
modules for one-off runs.

Config files are flat `key = value` text with `#` comments:

    sequence    = poly:0,0,1
    alpha_mode  = uniform-random
    alpha_count = 100
    n_grid      = 100000
    s_grid      = logspace:5..12
    seed        = 24036583
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import hashlib
import json
import math
import multiprocessing
import statistics
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from . import __version__ as CODE_VERSION
from . import arithmetic, baselines, dyadic
from .arithmetic import DEFAULT_PAIR_BUDGET, BudgetExceeded
from .points import Alpha, SequenceSpec, dilate_mod1, generate_terms
from .variance import S_DEN_BITS, VarianceRecord, WindowAccumulator, as_dyadic

CSV_HEADER = "N,S_num,S_den,alpha_hex,V,ratio"
_COLUMNS = tuple(CSV_HEADER.split(","))

# Fixed seed for named presets so a bare re-run is reproducible.
PRESET_SEED = 1

# Named experiments as config text, without the seed.
_PRESETS = {
    "thm1-quadratic": ("sequence = poly:0,0,1\nalpha_mode = uniform-random\nalpha_count = 100\n"
                       "n_grid = 100000\ns_grid = logspace:5..12\n"),
}


class ConfigError(ValueError):
    """Invalid configuration or command-line input (exit code 2)."""


@contextlib.contextmanager
def _input_error(what: str):
    """Re-raise the errors that parsing or checking an input raises as ConfigError."""
    try:
        yield
    except (ValueError, OverflowError, ZeroDivisionError) as exc:
        raise ConfigError(f"{what}: {exc}") from None


@dataclass(frozen=True)
class ExperimentConfig:
    sequence: SequenceSpec
    alpha_mode: str  # "uniform-random" | "explicit"
    alpha_count: int
    alphas: tuple
    n_grid: tuple
    s_grid: tuple
    seed: Optional[int]


@dataclass(frozen=True)
class ScanResult:
    rows: tuple
    metadata: dict


def _parse_int(text: str, key: str) -> int:
    try:
        return int(text, 0)
    except ValueError:
        raise ConfigError(f"{key}: expected an integer, got {text!r}") from None


def parse_s_grid(text: str) -> tuple:
    """Either a comma list of dyadic fractions or `logspace:v_min..v_max`."""
    text = text.strip()
    if text.startswith("logspace:"):
        spec = text[len("logspace:"):]
        lo_s, sep, hi_s = spec.partition("..")
        if not sep:
            raise ConfigError(f"s_grid: expected logspace:v_min..v_max, got {text!r}")
        lo = _parse_int(lo_s, "s_grid")
        hi = _parse_int(hi_s, "s_grid")
        if not 0 <= lo <= hi <= S_DEN_BITS:
            raise ConfigError(f"s_grid: logspace exponents must satisfy 0 <= v_min <= v_max <= {S_DEN_BITS}")
        return tuple(Fraction(1, 1 << v) for v in range(lo, hi + 1))
    if text == "k/64":
        return tuple(Fraction(k, 64) for k in range(1, 64))
    out = []
    for tok in text.split(","):
        try:
            out.append(as_dyadic(Fraction(tok.strip())))
        except (ValueError, ZeroDivisionError) as exc:
            raise ConfigError(f"s_grid: bad entry {tok.strip()!r}: {exc}") from None
    if len(set(out)) < len(out):
        raise ConfigError(f"s_grid: repeated entry in {text!r}")
    return tuple(out)


_CONFIG_KEYS = {"sequence", "alpha_mode", "alpha_count", "alphas", "n_grid",
                "s_grid", "seed"}


def parse_config(text: str) -> ExperimentConfig:
    data = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"config line {lineno}: expected key = value")
        key = key.strip()
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"config line {lineno}: unknown key {key!r}")
        if key in data:
            raise ConfigError(f"config line {lineno}: repeated key {key!r}")
        data[key] = value.strip()

    with _input_error("sequence"):
        sequence = SequenceSpec.parse(data.get("sequence", "linear"))

    mode = data.get("alpha_mode", "explicit" if "alphas" in data else "uniform-random")
    unused = {"explicit": ("alpha_count", "seed"), "uniform-random": ("alphas",)}
    if mode not in unused:
        raise ConfigError(f"alpha_mode: expected uniform-random or explicit, got {mode!r}")
    for key in unused[mode]:
        if key in data:
            raise ConfigError(f"{key} has no effect when alpha_mode is {mode}")
    alphas: tuple = ()
    if mode == "explicit":
        if "alphas" not in data:
            raise ConfigError("alpha_mode=explicit requires an alphas list")
        with _input_error("alphas"):
            alphas = tuple(Alpha.parse(tok.strip()) for tok in data["alphas"].split(","))
        if len(set(alphas)) < len(alphas):
            raise ConfigError(f"alphas: repeated entry in {data['alphas']!r}")
        count = len(alphas)
    else:
        count = _parse_int(data.get("alpha_count", "1"), "alpha_count")
        if count < 1:
            raise ConfigError("alpha_count must be >= 1")

    if "n_grid" not in data:
        raise ConfigError("n_grid is required")
    n_grid = tuple(_parse_int(tok.strip(), "n_grid") for tok in data["n_grid"].split(","))
    if any(n < 0 for n in n_grid):
        raise ConfigError("n_grid entries must be nonnegative")
    if any(b <= a for a, b in zip(n_grid, n_grid[1:])):
        raise ConfigError("n_grid must be strictly ascending")

    if "s_grid" not in data:
        raise ConfigError("s_grid is required")
    s_grid = parse_s_grid(data["s_grid"])

    seed = _parse_int(data["seed"], "seed") if "seed" in data else None
    if mode == "uniform-random" and seed is None:
        raise ConfigError("seed is required when alpha_mode is uniform-random")
    if seed is not None and seed < 0:
        raise ConfigError("seed must be >= 0")

    return ExperimentConfig(
        sequence=sequence,
        alpha_mode=mode,
        alpha_count=count,
        alphas=alphas,
        n_grid=n_grid,
        s_grid=s_grid,
        seed=seed,
    )


def config_hash(config: ExperimentConfig) -> str:
    """sha256 over the canonical JSON of the config's fields, an explicit
    sequence's values included: its label names only their count.  Where the
    rows go is set by the command-line flags alone, so it is not hashed."""
    payload = {
        "sequence": config.sequence.label(),
        "alpha_mode": config.alpha_mode,
        "alpha_count": config.alpha_count,
        "alphas": [a.hex for a in config.alphas],
        "n_grid": list(config.n_grid),
        "s_grid": [f"{s.numerator}/{s.denominator}" for s in config.s_grid],
        "seed": config.seed,
    }
    if config.sequence.kind == "explicit":
        payload["values"] = list(config.sequence.values)
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def _alpha_cells(n, alphas, s_grid, terms) -> list:
    """Per alpha, the variances of the first n terms dilated by it over a list of
    widths; a failing cell ends the list with its exception, renamed for the cell."""
    cells = []
    for alpha in alphas:
        try:
            acc = WindowAccumulator(dilate_mod1(terms[:n], alpha))
            cells.append([acc.variance(s) for s in s_grid])
            del acc  # freed before the next cell's dilation, not after it
        except Exception as exc:
            try:
                named = type(exc)(f"N = {n}, alpha {alpha.hex}: {exc}")
            except Exception:
                named = exc
            return cells + [named.with_traceback(exc.__traceback__)]
    return cells


def _scan_worker(conn, n_grid, alphas, s_grid, terms) -> None:
    """A scan worker process: sends its cells of each N block as soon as they are done."""
    with conn:
        for n in n_grid:
            conn.send(_alpha_cells(n, alphas, s_grid, terms))


def _row_values(rec: VarianceRecord) -> tuple:
    """The values of a row, in CSV_HEADER order."""
    return (rec.n, rec.s.numerator, rec.s.denominator, rec.alpha.hex, rec.v, rec.ratio)


def _csv_field(value) -> str:
    if value is None:
        return ""
    return format(value, ".17g") if isinstance(value, float) else str(value)


def _csv_rows(records) -> str:
    """The CSV lines of the records, each ended by a newline."""
    return "".join(",".join(map(_csv_field, _row_values(rec))) + "\n" for rec in records)


def run_scan(config: ExperimentConfig, *, threads: int = 1, out=None) -> ScanResult:
    """Execute the (N, S, alpha) grid; rows N outer, S middle, alpha inner.

    Each N block is split over w = min(threads, alphas) processes: this one
    takes alphas 0, w, 2w, .., worker r of w - 1 (started once) r, r + w, ...
    The first failing cell in row order is raised.  Given a text stream `out`
    (the caller's to open and close), the CSV header and each finished N block
    are written to it and flushed, so a failed scan leaves a valid row prefix;
    without one there is no I/O.
    """
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
    t0 = time.monotonic()
    alphas = (list(config.alphas) if config.alpha_mode == "explicit"
              else Alpha.random_stream(config.alpha_count, config.seed))
    with _input_error("sequence"):
        terms = generate_terms(config.sequence, max(config.n_grid, default=0))
    w = max(min(threads, len(alphas)), 1)  # a block holds one cell per alpha
    ctx = multiprocessing.get_context()
    rows, workers = [], []  # a worker is (process, receiving end of its pipe)
    try:
        for r in range(1, w):  # started before the header is written: nothing buffered forks
            conn, send = ctx.Pipe(duplex=False)
            proc = ctx.Process(target=_scan_worker, daemon=True,
                               args=(send, config.n_grid, alphas[r::w], config.s_grid, terms))
            proc.start()
            workers.append((proc, conn))
            send.close()
        if out is not None:
            out.write(CSV_HEADER + "\n")
            out.flush()
        for n in config.n_grid:
            shares = [_alpha_cells(n, alphas[::w], config.s_grid, terms)]
            for r, (proc, conn) in enumerate(workers, 1):
                try:
                    shares.append(conn.recv())
                except EOFError:  # the worker died: it fails at its first alpha
                    proc.join()
                    shares.append([RuntimeError(f"scan worker for alpha {alphas[r].hex} exited "
                                                f"with code {proc.exitcode} before N = {n}")])
            cells = []
            for k in range(len(alphas)):  # in row order, so the first failure is raised
                cells.append(shares[k % w][k // w])
                if isinstance(cells[-1], Exception):
                    raise cells[-1]
            block = [VarianceRecord(n, s, alpha, values[k]) for k, s in enumerate(config.s_grid)
                     for alpha, values in zip(alphas, cells)]
            rows.extend(block)
            if out is not None:
                out.write(_csv_rows(block))
                out.flush()
        for proc, _ in workers:  # all sent: each exits by itself
            proc.join()
    finally:
        for proc, conn in workers:
            proc.terminate()  # no signal once joined
            proc.join()
            conn.close()
    metadata = {
        "config_hash": config_hash(config),
        "code_version": CODE_VERSION,
        "wall_time": time.monotonic() - t0,
    }
    return ScanResult(rows=tuple(rows), metadata=metadata)


def emit(result: ScanResult, fmt: str = "csv") -> bytes:
    """CSV (header + rows) or JSON (metadata + rows); both parse back losslessly."""
    if fmt == "csv":
        return (CSV_HEADER + "\n" + _csv_rows(result.rows)).encode()
    if fmt == "json":
        doc = {
            "metadata": result.metadata,
            "rows": [dict(zip(_COLUMNS, _row_values(r))) for r in result.rows],
        }
        return (json.dumps(doc, indent=2) + "\n").encode()
    raise ConfigError(f"format: expected csv or json, got {fmt!r}")


def _record(where: str, n, s_num, s_den, alpha_hex, v, _ratio) -> VarianceRecord:
    """The record of a row given in CSV_HEADER order; the record derives the ratio."""
    with _input_error(where):
        return VarianceRecord(n=int(n), s=as_dyadic(Fraction(int(s_num), int(s_den))),
                              alpha=Alpha.from_hex(alpha_hex), v=float(v))


def parse(data: bytes, fmt: str = "csv") -> ScanResult:
    """Inverse of emit.  CSV carries no metadata; JSON restores it."""
    text = data.decode()
    if fmt == "csv":
        lines = [(k, ln) for k, ln in enumerate(text.splitlines(), 1) if ln]
        if not lines or lines[0][1] != CSV_HEADER:
            raise ConfigError("csv: missing or malformed header")
        rows = []
        for lineno, ln in lines[1:]:
            parts = ln.split(",")
            if len(parts) != len(_COLUMNS):
                raise ConfigError(f"csv line {lineno}: expected 6 fields, got {len(parts)}")
            rows.append(_record(f"csv line {lineno}", *parts))
        return ScanResult(rows=tuple(rows), metadata={})
    if fmt == "json":
        with _input_error("json"):
            doc = json.loads(text)
        if not (isinstance(doc, dict) and isinstance(doc.get("rows"), list)
                and all(isinstance(row, dict) for row in doc["rows"])):
            raise ConfigError("json: expected an object whose rows are a list of objects")
        # fields go through str as CSV fields do, so that null or a list fails to convert
        rows = tuple(_record(f"json row {k}", *(str(row.get(c)) for c in _COLUMNS))
                     for k, row in enumerate(doc["rows"], 1))
        return ScanResult(rows=rows, metadata=doc.get("metadata", {}))
    raise ConfigError(f"format: expected csv or json, got {fmt!r}")


# ---------------------------------------------------------------------------
# presets


def preset_config(name: str) -> ExperimentConfig:
    if name not in _PRESETS:
        raise ConfigError(f"unknown preset {name!r}")
    return parse_config(f"{_PRESETS[name]}seed = {PRESET_SEED}\n")


def preset_verdict(name: str, result: ScanResult) -> dict:
    """Pass rule for thm1-quadratic: per-S median of V/(NS(1-S)) in [0.85, 1.15]."""
    if name not in _PRESETS:
        raise ConfigError(f"unknown preset {name!r}")
    by_s = defaultdict(list)
    for rec in result.rows:
        scale = rec.n * float(rec.s) * (1.0 - float(rec.s))
        by_s[rec.s].append(rec.v / scale)
    medians = {f"{s.numerator}/{s.denominator}": statistics.median(vals)
               for s, vals in sorted(by_s.items(), reverse=True)}
    ok = all(0.85 <= m <= 1.15 for m in medians.values())
    return {"preset": name, "band": [0.85, 1.15], "medians": medians, "pass": ok}


# ---------------------------------------------------------------------------
# command line


@contextlib.contextmanager
def _output(path: Optional[str]):
    """The text stream a command writes to: the file at --out, or stdout."""
    if path is None:
        yield sys.stdout
        return
    if path == "":
        raise ConfigError("--out: empty path")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        yield fh


def _sequence_terms(args):
    with _input_error("--sequence"):
        return generate_terms(SequenceSpec.parse(args.sequence), args.count)


def _dyadic_s(text: str) -> Fraction:
    with _input_error("window length"):
        return as_dyadic(Fraction(text))


def _window(args) -> tuple:
    """(--n1, --n2), checked against --count; by default the whole window 1..--count."""
    n2 = args.count if args.n2 is None else args.n2
    if not args.n1 <= n2 <= args.count:
        raise ConfigError(f"window --n1 {args.n1} --n2 {n2} outside 1..--count {args.count}")
    return args.n1, n2


def _scan_and_write(config: ExperimentConfig, args, *, stdout: bool) -> ScanResult:
    """run_scan with --seed; its rows go to --out, else to stdout if `stdout` is set.

    The stream is opened before any cell is computed, so a bad --out fails
    first.  CSV streams there block by block; JSON is written once the scan
    is done, so a failed JSON scan leaves an empty file.
    """
    if args.seed is not None and config.alpha_mode == "explicit":
        raise ConfigError("--seed has no effect when alpha_mode is explicit")
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    routed = args.rows_out is not None or stdout
    with _output(args.rows_out) if routed else contextlib.nullcontext() as out:
        csv = args.format != "json"
        result = run_scan(config, threads=args.threads, out=out if csv else None)
        if out is not None and not csv:
            out.write(emit(result, "json").decode())
    return result


# Each _cmd_* handler returns the JSON document main writes, or None when it
# wrote its own output.


def _cmd_scan(args) -> None:
    with open(args.config, "r", encoding="utf-8") as fh:
        config = parse_config(fh.read())
    _scan_and_write(config, args, stdout=True)


def _cmd_decompose(args) -> dict:
    expansion = dyadic.decompose(_dyadic_s(args.s))
    return {
        "S": f"{expansion.s.numerator}/{expansion.s.denominator}",
        "levels": [{"v": v, "c": c} for v, c in expansion.levels],
        "scalar_sum": str(expansion.scalar_sum()),
        "s_squared": str(expansion.s ** 2),
    }


def _cmd_energy(args) -> dict:
    terms = _sequence_terms(args)
    n1, n2 = _window(args)
    out = {"sequence": args.sequence, "window": [n1, n2],
           "pair_count": arithmetic._budgeted_pairs(n1, n2, args.pair_budget)}
    whole = (n1, n2) == (1, args.count)
    if whole:  # first, so that its count^2 budget fails before any pair is built
        energy = arithmetic.additive_energy(terms, args.count, pair_budget=args.pair_budget)
    out["energy_window"] = arithmetic.energy_direct(terms, n1, n2)
    if whole:
        out["additive_energy"] = energy
    return out


def _cmd_repstats(args) -> dict:
    terms = _sequence_terms(args)
    pairs = args.count * (args.count - 1) // 2  # repeated_mass reads every pair of 1..--count
    if pairs > args.pair_budget:
        raise BudgetExceeded(f"repeated_mass reads every pair of 1..--count {args.count}",
                             pairs, args.pair_budget)
    table = arithmetic.rep_table(terms, *_window(args), pair_budget=args.pair_budget)
    full = table if table.window == (1, args.count) else arithmetic.rep_table(
        terms, 1, args.count, pair_budget=args.pair_budget)
    mass, exponent = arithmetic.sparse_u2_mass(full)
    return {
        "sequence": args.sequence,
        "window": list(table.window),
        "pair_count": table.pair_count,
        "distinct_differences": table.gaps.size,
        "max_rep": int(table.reps.max(initial=0)),
        "energy_window": arithmetic.energy_window(table),
        "repeated_mass": mass,
        "repeated_mass_exponent": None if math.isnan(exponent) else exponent,
    }


def _cmd_gcdsum(args) -> dict:
    terms = _sequence_terms(args)
    table = arithmetic.rep_table(terms, 1, args.count, pair_budget=args.pair_budget)
    value = arithmetic.gcd_sum(table, args.variant, threshold=args.threshold,
                               pair_budget=args.pair_budget)
    return {
        "sequence": args.sequence,
        "count": args.count,
        "variant": args.variant,
        "threshold": args.threshold,
        "value": value,
    }


def _cmd_divcheck(args) -> dict:
    with _input_error("--poly"):
        normalized = arithmetic.normalize_polynomial(
            [int(tok) for tok in args.poly.split(",")])
    degree = len(normalized) - 1
    if args.ell_max < args.ell_min:
        raise ConfigError(f"--ell-max {args.ell_max} is below the first modulus {args.ell_min}")
    diffs = arithmetic.difference_set(normalized, args.count,
                                      pair_budget=args.pair_budget)
    cost = (args.ell_max - args.ell_min + 1) * len(diffs)
    if cost > args.pair_budget:
        raise BudgetExceeded("modulus scan too large: moduli times differences",
                             cost, args.pair_budget)
    failures = []
    for ell in range(args.ell_min, args.ell_max + 1):
        hits, bound, ok = arithmetic.divisibility_bound_check(
            diffs, ell, degree, args.count)
        if not ok:
            failures.append({"ell": ell, "hits": hits, "bound": bound})
    return {
        "poly": normalized,
        "count": args.count,
        "ell_range": [args.ell_min, args.ell_max],
        "failures": failures,
        "all_ok": not failures,
    }


def _cmd_random_baseline(args) -> dict:
    res = baselines.random_variance_experiment(args.n, _dyadic_s(args.s),
                                               args.replicates, args.seed)
    return {
        "N": res.n,
        "S": f"{res.s.numerator}/{res.s.denominator}",
        "replicates": args.replicates,
        "mean": res.mean,
        "stddev": res.stddev,
        "stderr": res.stderr,
        "expected": res.expected,
    }


def _cmd_bridge_sim(args) -> dict:
    s = _dyadic_s(args.s)
    values = []
    with _input_error("bridge-sim"):  # --m off the powers of two, S off the 1/--m grid
        for sub_seed in baselines._derived_seeds(args.seed, args.paths):
            path = baselines.bridge_path(args.m, sub_seed)
            values.append(baselines.bridge_functional(path, s, args.n))
    mean = statistics.fmean(values)
    stddev = statistics.stdev(values) if len(values) > 1 else 0.0
    return {
        "paths": args.paths,
        "M": args.m,
        "S": f"{s.numerator}/{s.denominator}",
        "N": args.n,
        "mean": mean,
        "stddev": stddev,
        "stderr": stddev / math.sqrt(len(values)),
        "expected": args.n * float(s) * (1.0 - float(s)),
    }


def _cmd_kronecker(args) -> dict:
    with _input_error("--alpha"):
        alpha = Alpha.parse(args.alpha)
    grid = parse_s_grid(args.s_grid)
    rows = baselines.kronecker_experiment(alpha, grid, n_max=args.n_max)
    return {
        "alpha": alpha.hex,
        "s_grid_size": len(grid),
        "rows": [{"p": r.p, "q": r.q, "max_v": r.max_v} for r in rows],
        "max_v": max((r.max_v for r in rows), default=0.0),
    }


def _cmd_preset(args) -> dict:
    if args.format is not None and args.rows_out is None:
        raise ConfigError("preset --format needs --out: stdout carries the verdict")
    result = _scan_and_write(preset_config(args.name), args, stdout=False)
    return preset_verdict(args.name, result)


def _at_least(low: int, text: str) -> int:
    value = int(text)
    if value < low:
        raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {text}")
    return value


def _positive_int(text: str) -> int:
    return _at_least(1, text)


def _nonnegative_int(text: str) -> int:
    return _at_least(0, text)


def _modulus(text: str) -> int:
    return _at_least(2, text)


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text}")
    return value


def _arg(*names, **kwargs):
    return names, kwargs


_OUT = _arg("--out", default=None, help="output path (default stdout)")
_PAIR_BUDGET = _arg("--pair-budget", type=_nonnegative_int, default=DEFAULT_PAIR_BUDGET)
_SEED = _arg("--seed", type=_nonnegative_int, default=None)
_REQUIRED_SEED = _arg("--seed", type=_nonnegative_int, required=True)
_SEQUENCE = (_arg("--sequence", required=True),
             _arg("--count", type=_positive_int, required=True))
_WINDOW = (_arg("--n1", type=_positive_int, default=1),
           _arg("--n2", type=_positive_int, default=None, help="default: --count"))
_SCAN = (_SEED,
         _arg("--threads", type=_positive_int, default=1),
         _arg("--out", dest="rows_out", default=None,
              help="path for the rows (scan: default stdout); CSV streams block by block"),
         _arg("--format", choices=("csv", "json"), default=None))

# subcommand: (handler, help, arguments).  A subcommand takes only the flags
# its handler reads, so any other flag is an argparse error (exit 2).
_COMMANDS = {
    "scan": (_cmd_scan, "run the (N, S, alpha) grid from --config",
             (_arg("--config", required=True, help="flat key=value config file"), *_SCAN)),
    "decompose": (_cmd_decompose, "dyadic plateau decomposition of S",
                  (_arg("s", help="dyadic fraction, e.g. 15/64"), _OUT)),
    "energy": (_cmd_energy, None, (*_SEQUENCE, *_WINDOW, _PAIR_BUDGET, _OUT)),
    "repstats": (_cmd_repstats, None, (*_SEQUENCE, *_WINDOW, _PAIR_BUDGET, _OUT)),
    "gcdsum": (_cmd_gcdsum, None, (
        *_SEQUENCE,
        _arg("--variant", choices=sorted(arithmetic.GCD_VARIANTS), default="half"),
        _arg("--threshold", type=_finite_float, default=None),
        _PAIR_BUDGET, _OUT)),
    "divcheck": (_cmd_divcheck, "difference divisibility bound over a range of moduli", (
        _arg("--poly", required=True, help="coefficients c0,c1,..., ascending"),
        _arg("--count", type=_positive_int, required=True),
        _arg("--ell-min", type=_modulus, default=2),
        _arg("--ell-max", type=int, default=200),
        _PAIR_BUDGET, _OUT)),
    "random-baseline": (_cmd_random_baseline, "variance of i.i.d. uniform samples", (
        _arg("--n", type=_nonnegative_int, required=True),
        _arg("--s", required=True),
        _arg("--replicates", type=_positive_int, default=200),
        _REQUIRED_SEED, _OUT)),
    "bridge-sim": (_cmd_bridge_sim, "Brownian-bridge functional simulation", (
        _arg("--m", type=int, default=baselines.DEFAULT_BRIDGE_GRID),
        _arg("--s", required=True),
        _arg("--n", type=_nonnegative_int, required=True),
        _arg("--paths", type=_positive_int, default=1000),
        _REQUIRED_SEED, _OUT)),
    "kronecker": (_cmd_kronecker, "variance at convergent denominators of alpha", (
        _arg("--alpha", required=True),
        _arg("--s-grid", default="k/64"),
        _arg("--n-max", type=_positive_int, default=10 ** 5),
        _OUT)),
    "preset": (_cmd_preset, "run a named experiment", (_arg("name"), *_SCAN)),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="numvar",
        description="Number-variance experiments for dilated integer sequences.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (fn, help_text, arguments) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for names, kwargs in arguments:
            p.add_argument(*names, **kwargs)
        p.set_defaults(fn=fn)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """build_parser(), built on main's first call and kept for the process:
    parsing leaves the parser as it was, so every call parses afresh."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        doc = args.fn(args)
        if doc is not None:
            # scan and preset take --out for their rows; a preset's verdict
            # always goes to stdout
            text = json.dumps(doc, indent=2, allow_nan=False) + "\n"
            with _output(getattr(args, "out", None)) as out:
                out.write(text)
    except BudgetExceeded as exc:
        print(f"budget error: {exc}", file=sys.stderr)
        return 3
    except (ConfigError, OverflowError) as exc:
        # an OverflowError comes from inputs too large for the 64-bit paths
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2
    return 4 if args.command == "preset" and not doc["pass"] else 0


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
