import builtins
import dataclasses
import io
import json
import math
import multiprocessing
import os
import re
import signal
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction

import pytest

import numvar
import numvar.cli as cli
from numvar.arithmetic import additive_energy, energy_window, gcd_sum, rep_table
from numvar.cli import (CSV_HEADER, ConfigError, ExperimentConfig, ScanResult,
                        config_hash, emit, main, parse, parse_config,
                        parse_s_grid, preset_config, preset_verdict, run_scan)
from numvar.points import Alpha, SequenceSpec, dilate_mod1, generate_terms
from numvar.variance import VarianceRecord, variance_sweep

BASE_CONFIG = """
# quadratic scan, small
sequence = poly:0,0,1
alpha_mode = uniform-random
alpha_count = 10
n_grid = 1000
s_grid = 1/64
seed = 7
"""


def test_parse_config_full_and_defaults():
    cfg = parse_config(BASE_CONFIG)
    assert cfg.sequence.label() == "poly:0,0,1"
    assert cfg.alpha_mode == "uniform-random" and cfg.alpha_count == 10
    assert cfg.n_grid == (1000,) and cfg.s_grid == (Fraction(1, 64),)
    assert cfg.seed == 7
    # the config holds the experiment only: the command-line flags route its rows
    assert [f.name for f in dataclasses.fields(ExperimentConfig)] == [
        "sequence", "alpha_mode", "alpha_count", "alphas", "n_grid", "s_grid", "seed"]
    bare = parse_config("alphas = golden\nn_grid = 10\ns_grid = 1/4\n")
    assert bare.sequence.label() == "linear"
    assert bare.alpha_mode == "explicit" and bare.alphas == (Alpha.golden(),)
    assert bare.seed is None


_REJECTED_CONFIGS = [
    ("bogus = 1\nn_grid = 10\ns_grid = 1/4\nseed = 1", "line 1: unknown key 'bogus'"),
    ("s_grid = 1/4\nseed = 1", "n_grid is required"),
    ("n_grid = 10\nseed = 1", "s_grid is required"),
    ("n_grid = 10,10\ns_grid = 1/4\nseed = 1", "n_grid must be strictly ascending"),
    ("n_grid = 10,5\ns_grid = 1/4\nseed = 1", "n_grid must be strictly ascending"),
    ("n_grid = 10\ns_grid = 1/3\nseed = 1", "bad entry '1/3': S = 1/3 is not a dyadic"),
    ("n_grid = 10\ns_grid = 1/4", "seed is required when alpha_mode is uniform-random"),
    ("alpha_mode = explicit\nn_grid = 10\ns_grid = 1/4", "explicit requires an alphas list"),
    ("alpha_mode = sobol\nn_grid = 10\ns_grid = 1/4\nseed = 1", "got 'sobol'"),
    ("n_grid\ns_grid = 1/4\nseed = 1", "line 1: expected key = value"),
    # removed keys
    ("n_grid = 10\ns_grid = 1/4\nseed = 1\nmemory_budget = 1", "unknown key 'memory_budget'"),
    ("n_grid = 10\ns_grid = 1/4\nseed = 1\npair_budget = 10", "unknown key 'pair_budget'"),
    ("n_grid = 10\ns_grid = 1/4\nseed = 1\nformat = yaml", "unknown key 'format'"),
    ("n_grid = 10\ns_grid = 1/4\nseed = 1\nout =", "unknown key 'out'"),
    # keys the alpha mode does not read
    ("alpha_mode = uniform-random\nalphas = golden\nn_grid = 10\ns_grid = 1/4\nseed = 1",
     "alphas has no effect when alpha_mode is uniform-random"),
    ("alphas = golden\nalpha_count = 5\nn_grid = 10\ns_grid = 1/4",
     "alpha_count has no effect when alpha_mode is explicit"),
    ("alphas = golden\nn_grid = 10\ns_grid = 1/4\nseed = 8",
     "seed has no effect when alpha_mode is explicit"),
    ("alpha_mode = explicit\nalphas = golden\nn_grid = 10\ns_grid = 1/4\nseed = 9",
     "seed has no effect when alpha_mode is explicit"),
    # input that would repeat or drop rows
    ("n_grid = 10\ns_grid = 1/4\nseed = 1\nseed = 2", "line 4: repeated key 'seed'"),
    ("n_grid = 10\nn_grid = 20\ns_grid = 1/4\nseed = 1", "line 2: repeated key 'n_grid'"),
    ("n_grid = 10\ns_grid = 1/4, 1/4\nseed = 1", "s_grid: repeated entry in '1/4, 1/4'"),
    ("n_grid = 10\ns_grid = 1/4, 2/8\nseed = 1", "s_grid: repeated entry in '1/4, 2/8'"),
    ("alphas = golden, golden\nn_grid = 10\ns_grid = 1/4",
     "alphas: repeated entry in 'golden, golden'"),
    ("alphas = rat:1/4, rat:5/4\nn_grid = 10\ns_grid = 1/4",
     "alphas: repeated entry in 'rat:1/4, rat:5/4'"),
    # values out of their domain
    ("n_grid = 1x\ns_grid = 1/4\nseed = 1", "n_grid: expected an integer, got '1x'"),
    ("alpha_count = 0\nn_grid = 10\ns_grid = 1/4\nseed = 1", "alpha_count must be >= 1"),
    ("n_grid = -1\ns_grid = 1/4\nseed = 1", "n_grid entries must be nonnegative"),
    ("n_grid = 10\ns_grid = 1/4\nseed = -1", "seed must be >= 0"),
    ("n_grid = 10\ns_grid =\nseed = 1", "s_grid: bad entry ''"),
]


@pytest.mark.parametrize("text, match", _REJECTED_CONFIGS, ids=[t for t, _ in _REJECTED_CONFIGS])
def test_parse_config_rejects(text, match):
    with pytest.raises(ConfigError, match=re.escape(match)):
        parse_config(text)


def test_parse_s_grid_forms():
    assert parse_s_grid("1/4, 3/8") == (Fraction(1, 4), Fraction(3, 8))
    assert parse_s_grid("logspace:2..4") == (
        Fraction(1, 4), Fraction(1, 8), Fraction(1, 16))
    grid = parse_s_grid("k/64")
    assert len(grid) == 63 and grid[0] == Fraction(1, 64) and grid[-1] == Fraction(63, 64)
    for bad in ("logspace:4..2", "logspace:0..65", "logspace:3", "", "2/6", "1/4,1/4"):
        with pytest.raises(ConfigError):
            parse_s_grid(bad)


def test_config_hash_ignores_presentation():
    a = parse_config(BASE_CONFIG)
    reordered = parse_config(
        "seed = 7\ns_grid = 1/64\nn_grid = 1000\nalpha_count = 10\n"
        "alpha_mode = uniform-random\nsequence = poly:0,0,1\n")
    assert config_hash(a) == config_hash(reordered)
    commented = parse_config(BASE_CONFIG.replace("seed = 7", "seed = 7  # the scan's seed"))
    assert config_hash(a) == config_hash(commented)
    reseeded = parse_config(BASE_CONFIG.replace("seed = 7", "seed = 8"))
    assert config_hash(a) != config_hash(reseeded)


def test_config_hash_covers_explicit_values_only(tmp_path):
    def explicit(name, values):
        path = tmp_path / name
        path.write_text("".join(f"{v}\n" for v in values))
        return parse_config(f"sequence = explicit:@{path}\nalphas = golden\n"
                            "n_grid = 3\ns_grid = 1/4\n")

    a, b = explicit("a.txt", (1, 2, 3)), explicit("b.txt", (5, 7, 11))
    assert a.sequence.label() == b.sequence.label()
    assert config_hash(a) != config_hash(b)
    assert config_hash(explicit("c.txt", (1, 2, 3))) == config_hash(a)  # not the path
    # every other sequence keeps the hash it had before the values were added
    assert config_hash(parse_config(BASE_CONFIG)) == (
        "ee0580e07924c2fa7af6c0de183b3dc51be224007754e300f50d7ad500c0938f")
    assert config_hash(parse_config(
        "sequence = linear\nalpha_mode = explicit\nalphas = golden, rat:3/1024\n"
        "n_grid = 10, 100\ns_grid = 1/4, 1/64\n")) == (
        "f7ebc30ad7380c1a3ed3dfdc8fdff4c7d31b765ede0559397cb5ceaa1d68ff45")


def test_run_scan_examples_and_determinism():
    cfg = parse_config(BASE_CONFIG)
    result = run_scan(cfg)
    assert len(result.rows) == 10
    for rec in result.rows:
        assert rec.n == 1000 and rec.s == Fraction(1, 64)
        assert math.isfinite(rec.v) and rec.ratio == rec.v / (1000 / 64)
    assert emit(run_scan(cfg)) == emit(result)
    assert result.metadata["config_hash"] == config_hash(cfg)
    assert result.metadata["code_version"] == cli.CODE_VERSION


def test_run_scan_single_point_ratio():
    cfg = parse_config("alphas = golden\nn_grid = 1\ns_grid = 1/4\n")
    rec = run_scan(cfg).rows[0]
    assert rec.v == pytest.approx(3 / 16)
    assert rec.ratio == pytest.approx(1 - 1 / 4)


def test_run_scan_known_rational_row():
    cfg = parse_config("alphas = rat:1/2\nn_grid = 100\ns_grid = 1/4\n")
    result = run_scan(cfg)
    line = emit(result).decode().splitlines()[1]
    assert line == "100,1,4,80000000000000000000000000000000,625,25"


def test_run_scan_row_order():
    cfg = parse_config(
        "alphas = golden, sqrt2m1\nn_grid = 10,20\ns_grid = 1/4,1/8\n")
    rows = run_scan(cfg).rows
    key = [(r.n, r.s, r.alpha) for r in rows]
    # N outer, S middle (config order), alpha inner
    expect = [(n, s, a)
              for n in (10, 20)
              for s in (Fraction(1, 4), Fraction(1, 8))
              for a in (Alpha.golden(), Alpha.sqrt2m1())]
    assert key == expect


def test_run_scan_large_n_is_not_screened():
    # N^2 S is 1.25e9 here; a scan cell costs O(N log N) per width whatever
    # N^2 S is, so the scan runs it
    cfg = parse_config("sequence = poly:0,0,1\nalphas = golden\n"
                       "n_grid = 200000\ns_grid = 1/32\n")
    (rec,) = run_scan(cfg).rows
    terms = generate_terms(SequenceSpec.poly((0, 0, 1)), 200000)
    assert rec.v == float(variance_sweep(dilate_mod1(terms, Alpha.golden()), Fraction(1, 32)))


def test_run_scan_incremental_csv(tmp_path):
    out = tmp_path / "rows.csv"
    cfg = parse_config(BASE_CONFIG)
    with open(out, "w", encoding="utf-8", newline="") as stream:
        result = run_scan(cfg, out=stream)
        assert not stream.closed  # the caller's stream, left open
    assert out.read_bytes() == emit(result, "csv")


def test_run_scan_threads_match_serial():
    cfg = parse_config("alphas = golden, sqrt2m1\nn_grid = 30, 60\ns_grid = 1/8,1/16\n")
    assert emit(run_scan(cfg, threads=2)) == emit(run_scan(cfg))


def test_run_scan_splits_uneven_blocks_between_this_process_and_workers():
    # threads = 3 over 5 alphas: this process takes alphas 0 and 3, two
    # workers take 1, 2 and 4
    cfg = parse_config("alphas = golden, sqrt2m1, rat:1/3, rat:3/1024, "
                       "hex:0123456789abcdef0123456789abcdef\n"
                       "n_grid = 30, 61\ns_grid = 1/8,1/16\n")
    assert emit(run_scan(cfg, threads=3)) == emit(run_scan(cfg))


@pytest.mark.parametrize("threads", (0, -3))
def test_run_scan_rejects_threads_below_one(threads):
    cfg = parse_config("alphas = golden\nn_grid = 10\ns_grid = 1/4\n")
    with pytest.raises(ValueError, match="threads"):
        run_scan(cfg, threads=threads)
    assert run_scan(dataclasses.replace(cfg, alphas=()), threads=2).rows == ()


@pytest.fixture
def started(monkeypatch):
    """The worker processes run_scan starts, counted by wrapping the context's
    Process; no process may outlive the test's scans."""
    ctx = multiprocessing.get_context()
    starts = []

    class Counted(ctx.Process):
        def start(self):
            starts.append(self)
            super().start()

    monkeypatch.setattr(ctx, "Process", Counted)
    yield starts
    assert multiprocessing.active_children() == []


def test_run_scan_starts_one_worker_per_alpha_at_most(started):
    two = parse_config("alphas = golden, sqrt2m1\nn_grid = 30, 60\ns_grid = 1/8,1/16\n")
    assert emit(run_scan(two, threads=64)) == emit(run_scan(two))
    assert len(started) == 1  # this process computes a share of every block
    assert started[0].exitcode == 0
    one = dataclasses.replace(two, alphas=(Alpha.golden(),))
    assert emit(run_scan(one, threads=64)) == emit(run_scan(one))
    assert len(started) == 1  # one alpha: no worker


def test_run_scan_without_a_seed_raises_before_any_worker_starts(started):
    # no seed would draw the alphas from OS entropy: another CSV on each call
    # under one config_hash
    cfg = dataclasses.replace(parse_config(BASE_CONFIG), seed=None)
    out = io.StringIO()
    with pytest.raises(ValueError, match="seed is required"):
        run_scan(cfg, threads=2, out=out)
    assert started == [] and out.getvalue() == ""


def test_cells_of_a_block_hold_one_cell_at_a_time():
    # a process's share of a block frees each cell's points and accumulator
    # before it dilates the next alpha
    n = 1 << 15
    terms = generate_terms(SequenceSpec.poly((0, 0, 1)), n)
    widths = parse_s_grid("logspace:5..12")

    def peak(alphas):
        tracemalloc.start()
        try:
            cli._alpha_cells(n, alphas, widths, terms)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    alphas = Alpha.random_stream(3, 5)
    assert peak(alphas) <= 1.15 * peak(alphas[:1])


def test_emit_parse_roundtrip():
    # N = 0 and S = 0 rows have no ratio; S = 1 is the whole circle
    cfg = parse_config("alphas = golden, rat:1/2\nn_grid = 0,1,10\ns_grid = 1/4,1/32,0,1\n")
    result = run_scan(cfg)
    ratios = [r.ratio for r in result.rows]
    assert None in ratios and all(r is None for r in ratios[:8])
    assert all(r.ratio == r.v / r.n for r in result.rows if r.s == 1 and r.n)
    for fmt in ("csv", "json"):
        data = emit(result, fmt)
        back = parse(data, fmt)
        assert back.rows == result.rows
        assert [r.ratio for r in back.rows] == ratios
        assert emit(back, fmt) == data
    assert parse(emit(result, "csv"), "csv").metadata == {}
    assert parse(emit(result, "json"), "json").metadata == result.metadata
    with pytest.raises(ConfigError):
        emit(result, "yaml")
    with pytest.raises(ConfigError):
        parse(b"", "yaml")


def test_parse_csv_edge_cases():
    empty = ScanResult(rows=(), metadata={})
    assert emit(empty) == (CSV_HEADER + "\n").encode()
    assert parse(emit(empty)).rows == ()
    with pytest.raises(ConfigError, match="header"):
        parse(b"not,a,header\n")
    with pytest.raises(ConfigError, match="6 fields"):
        parse((CSV_HEADER + "\n1,2\n").encode())
    # a row names its line when a field does not parse, the alpha included
    good = "3,1,2," + "0" * 32 + ",1,0.66666666666666663"
    assert parse(f"{CSV_HEADER}\n{good}\n".encode()).rows[0].alpha == Alpha(0)
    for bad in ("3,1,2,random:9/0,1,", "3,1,2," + "0" * 31 + ",1,", "x,1,2," + "0" * 32 + ",1,",
                "3,1,3," + "0" * 32 + ",1,"):
        with pytest.raises(ConfigError, match="csv line 3"):
            parse(f"{CSV_HEADER}\n{good}\n{bad}\n".encode())


_GOOD_JSON_ROW = {"N": 3, "S_num": 1, "S_den": 2, "alpha_hex": "0" * 32, "V": 1.0,
                  "ratio": 0.6666666666666666}


@pytest.mark.parametrize("data, match", [
    (b"{not json", "json: "),
    (b"[1, 2]", "json: expected an object"),
    (b'{"rows": {"N": 3}}', "json: expected an object"),
    (b'{"rows": [5]}', "json: expected an object"),
    (json.dumps({"rows": [_GOOD_JSON_ROW, {k: v for k, v in _GOOD_JSON_ROW.items()
                                           if k != "S_num"}]}).encode(), "json row 2: "),
    (json.dumps({"rows": [_GOOD_JSON_ROW, dict(_GOOD_JSON_ROW, N=None)]}).encode(),
     "json row 2: "),
    (json.dumps({"rows": [_GOOD_JSON_ROW, dict(_GOOD_JSON_ROW, N=3.5)]}).encode(),
     "json row 2: "),
    (json.dumps({"rows": [_GOOD_JSON_ROW, dict(_GOOD_JSON_ROW, V=[1.0])]}).encode(),
     "json row 2: "),
], ids=["not-json", "top-level-list", "rows-not-list", "row-not-object", "missing-column",
        "null-field", "float-N", "list-V"])
def test_parse_json_errors_are_config_errors(data, match):
    assert parse(json.dumps({"rows": [_GOOD_JSON_ROW]}).encode(), "json").rows[0].n == 3
    with pytest.raises(ConfigError, match=match):
        parse(data, "json")


def _fail_for_alphas(monkeypatch, bad, fail, n=None):
    """dilate_mod1 calls fail() for the alphas in `bad`, at N = n if given; a
    forked worker inherits the patch."""
    real = cli.dilate_mod1

    def dilate(terms, alpha):
        if alpha in bad and n in (None, len(terms)):
            fail()
        return real(terms, alpha)

    monkeypatch.setattr(cli, "dilate_mod1", dilate)


def _fail_for_one_alpha(monkeypatch, bad: Alpha, exc_type):
    def fail():
        raise exc_type("dilation failed")

    _fail_for_alphas(monkeypatch, (bad,), fail)


class _TwoPartError(Exception):
    """An exception that cannot be rebuilt from one message."""

    def __init__(self, what, where):
        super().__init__(what, where)


@pytest.mark.parametrize("threads", (1, 2))
def test_scan_failure_that_cannot_be_renamed_keeps_its_type(monkeypatch, started, threads):
    # at threads = 2 the failing alpha is the worker's share
    def fail():
        raise _TwoPartError("dilation failed", "here")

    _fail_for_alphas(monkeypatch, (Alpha.parse("sqrt2m1"),), fail)
    cfg = parse_config("alphas = golden, sqrt2m1\nn_grid = 20, 40\ns_grid = 1/8\n")
    with pytest.raises(_TwoPartError) as info:
        run_scan(cfg, threads=threads)
    assert info.value.args == ("dilation failed", "here")
    assert len(started) == threads - 1


@pytest.mark.parametrize("threads", (1, 2))
def test_scan_failure_names_the_cell(monkeypatch, threads):
    bad = Alpha.parse("sqrt2m1")
    _fail_for_one_alpha(monkeypatch, bad, RuntimeError)
    cfg = parse_config("alphas = golden, sqrt2m1\nn_grid = 20, 40\ns_grid = 1/8\n")
    with pytest.raises(RuntimeError, match=f"N = 20, alpha {bad.hex}: dilation failed"):
        run_scan(cfg, threads=threads)


@pytest.mark.parametrize("bad", ("golden", "sqrt2m1"), ids=("this-process", "worker"))
def test_scan_failure_names_the_cell_where_it_runs(monkeypatch, started, bad):
    bad = Alpha.parse(bad)
    _fail_for_one_alpha(monkeypatch, bad, RuntimeError)
    cfg = parse_config("alphas = golden, sqrt2m1\nn_grid = 20, 40\ns_grid = 1/8\n")
    with pytest.raises(RuntimeError, match=f"N = 20, alpha {bad.hex}: dilation failed"):
        run_scan(cfg, threads=2)
    assert len(started) == 1


_FIVE_ALPHAS = ("alphas = golden, sqrt2m1, rat:1/3, rat:3/1024, "
                "hex:0123456789abcdef0123456789abcdef\nn_grid = 20, 40\ns_grid = 1/8\n")


@pytest.mark.parametrize("bad", ((2, 3), (3, 4), (1, 4)))
def test_scan_reports_the_first_failing_cell_at_any_thread_count(monkeypatch, started, bad):
    # two cells of the N = 40 block fail; whichever processes run them, the
    # failure reported is the first in row order, as at threads = 1
    cfg = parse_config(_FIVE_ALPHAS)
    first = cfg.alphas[bad[0]]

    def fail():
        raise ValueError("dilation failed")

    _fail_for_alphas(monkeypatch, [cfg.alphas[k] for k in bad], fail, n=40)
    messages = []
    for threads in (1, 2, 3):
        with pytest.raises(ValueError) as info:
            run_scan(cfg, threads=threads)
        messages.append(str(info.value))
    assert messages == [f"N = 40, alpha {first.hex}: dilation failed"] * 3
    assert len(started) == 1 + 2


def test_scan_worker_that_dies_is_named_by_its_alpha(monkeypatch, started):
    cfg = parse_config(_FIVE_ALPHAS)
    parent = os.getpid()

    def die():
        if os.getpid() != parent:
            os._exit(3)

    _fail_for_alphas(monkeypatch, [cfg.alphas[3]], die, n=40)
    with pytest.raises(RuntimeError, match=f"alpha {cfg.alphas[1].hex} exited with code 3 "
                                           "before N = 40"):
        run_scan(cfg, threads=2)  # the worker's share: alphas 1 and 3


@pytest.mark.parametrize("stop, at", [(KeyboardInterrupt, 40), (RuntimeError, 20)],
                         ids=["interrupt", "failure"])
def test_scan_stops_workers_still_running(monkeypatch, started, stop, at):
    # this process stops at alpha 2 while its worker (alphas 1 and 3) sleeps
    # in the N = 40 block
    cfg = parse_config(_FIVE_ALPHAS)
    parent = os.getpid()
    real = cli.dilate_mod1

    def dilate(terms, alpha):
        if os.getpid() == parent and alpha == cfg.alphas[2] and len(terms) == at:
            raise stop("stopped")
        if os.getpid() != parent and len(terms) == 40:
            time.sleep(60)
        return real(terms, alpha)

    monkeypatch.setattr(cli, "dilate_mod1", dilate)
    t0 = time.monotonic()
    with pytest.raises(stop):
        run_scan(cfg, threads=2)
    assert time.monotonic() - t0 < 30
    assert [p.exitcode for p in started] == [-signal.SIGTERM]


@pytest.mark.parametrize("threads", ("1", "2"))
def test_main_scan_failure_keeps_its_exit_code(tmp_path, capsys, monkeypatch, threads):
    bad = Alpha.golden()
    _fail_for_one_alpha(monkeypatch, bad, OverflowError)
    conf = tmp_path / "scan.conf"
    conf.write_text("alphas = rat:1/2, golden\nn_grid = 10\ns_grid = 1/4\n")
    assert main(["scan", "--config", str(conf), "--threads", threads]) == 2
    assert f"N = 10, alpha {bad.hex}: dilation failed" in capsys.readouterr().err


_TWO_BLOCKS = "alphas = golden, sqrt2m1\nn_grid = 20, 40\ns_grid = 1/8, 1/16\n"


def _first_block_then_failure(monkeypatch) -> str:
    """The CSV of _TWO_BLOCKS' N = 20 block; then patches _alpha_cells so that
    the N = 40 block fails at its first cell (a forked worker inherits it)."""
    first = emit(run_scan(dataclasses.replace(parse_config(_TWO_BLOCKS), n_grid=(20,))))
    real = cli._alpha_cells

    def cells(n, alphas, s_grid, terms):
        if n == 40:
            return [OverflowError("cell failed")]
        return real(n, alphas, s_grid, terms)

    monkeypatch.setattr(cli, "_alpha_cells", cells)
    return first.decode()


@pytest.mark.parametrize("threads", (1, 2))
def test_run_scan_failure_leaves_the_header_and_finished_blocks(monkeypatch, started, threads):
    first = _first_block_then_failure(monkeypatch)
    stream = io.StringIO()
    with pytest.raises(OverflowError, match="cell failed"):
        run_scan(parse_config(_TWO_BLOCKS), threads=threads, out=stream)
    assert stream.getvalue() == first
    assert len(started) == threads - 1


@pytest.mark.parametrize("threads", (1, 2))
def test_run_scan_without_a_stream_does_no_io(monkeypatch, capsys, threads):
    opened = []  # in this process; a forked worker appends to its own copy
    real_open = builtins.open
    monkeypatch.setattr(builtins, "open", lambda *a, **k: opened.append(a) or real_open(*a, **k))
    result = run_scan(parse_config(_TWO_BLOCKS), threads=threads)
    assert len(result.rows) == 8
    assert opened == [] and capsys.readouterr() == ("", "")


@pytest.mark.parametrize("threads", ("1", "2"))
def test_main_scan_streams_finished_blocks_to_stdout(tmp_path, capsys, monkeypatch, threads):
    # without --out the CSV reaches stdout block by block: a failed scan has
    # printed the header and the N = 20 block, and exits with its cell's code
    conf = tmp_path / "scan.conf"
    conf.write_text(_TWO_BLOCKS)
    first = _first_block_then_failure(monkeypatch)
    assert main(["scan", "--config", str(conf), "--threads", threads]) == 2
    captured = capsys.readouterr()
    assert captured.out == first
    assert "cell failed" in captured.err


def test_main_scan_opens_out_before_the_scan(tmp_path, capsys, monkeypatch):
    conf = tmp_path / "scan.conf"
    conf.write_text(_TWO_BLOCKS)
    with monkeypatch.context() as patched:
        patched.setattr(cli, "run_scan", lambda *a, **k: pytest.fail("scan ran"))
        for fmt in ("csv", "json"):
            missing = tmp_path / "missing" / f"rows.{fmt}"
            assert main(["scan", "--config", str(conf), "--format", fmt,
                         "--out", str(missing)]) == 2
            assert "io error" in capsys.readouterr().err
    # a JSON scan that fails leaves its file empty, a CSV scan its finished blocks
    first = _first_block_then_failure(monkeypatch)
    for fmt, want in (("json", ""), ("csv", first)):
        out = tmp_path / f"rows.{fmt}"
        assert main(["scan", "--config", str(conf), "--format", fmt, "--out", str(out)]) == 2
        assert out.read_text() == want


def test_preset_config_and_verdict():
    cfg = preset_config("thm1-quadratic")
    assert cfg.seed == cli.PRESET_SEED
    assert cfg.n_grid == (10 ** 5,) and len(cfg.s_grid) == 8
    with pytest.raises(ConfigError, match="unknown preset 'thm2-cubic'"):
        preset_config("thm2-cubic")

    def rows_at(level):
        n, s = 1000, Fraction(1, 64)
        scale = n * float(s) * (1 - float(s))
        return tuple(
            VarianceRecord(n, s, Alpha.golden(), scale * level * f)
            for f in (0.99, 1.0, 1.01))

    good = preset_verdict("thm1-quadratic", ScanResult(rows_at(1.0), {}))
    assert good["pass"] and good["medians"] == {"1/64": pytest.approx(1.0)}
    bad = preset_verdict("thm1-quadratic", ScanResult(rows_at(1.3), {}))
    assert not bad["pass"]
    with pytest.raises(ConfigError, match="unknown preset 'thm2-cubic'"):
        preset_verdict("thm2-cubic", ScanResult(rows_at(1.0), {}))


def test_preset_seed_is_overridden_by_the_command_line(monkeypatch, capsys):
    seeds = []

    def fake_scan(config, **kwargs):
        seeds.append(config.seed)
        return ScanResult(rows=(VarianceRecord(1000, Fraction(1, 64), Alpha.golden(), 15.0),),
                          metadata={})

    monkeypatch.setattr(cli, "run_scan", fake_scan)
    main(["preset", "thm1-quadratic"])
    main(["preset", "thm1-quadratic", "--seed", "9"])
    assert seeds == [cli.PRESET_SEED, 9]


def test_preset_config_equals_hand_built_config():
    want = ExperimentConfig(
        sequence=SequenceSpec.poly((0, 0, 1)), alpha_mode="uniform-random",
        alpha_count=100, alphas=(), n_grid=(10 ** 5,),
        s_grid=tuple(Fraction(1, 1 << v) for v in range(5, 13)),
        seed=cli.PRESET_SEED)
    got = preset_config("thm1-quadratic")
    for field in dataclasses.fields(ExperimentConfig):
        assert getattr(got, field.name) == getattr(want, field.name), field.name
    assert config_hash(got) == config_hash(want)


def test_main_decompose(capsys):
    assert main(["decompose", "15/64"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["levels"] == [{"v": 3, "c": 0}, {"v": 4, "c": 2},
                             {"v": 5, "c": 6}, {"v": 6, "c": 14}]
    assert doc["scalar_sum"] == doc["s_squared"] == "225/4096"


def test_main_scan_end_to_end(tmp_path, capsys):
    conf = tmp_path / "scan.conf"
    conf.write_text("alphas = rat:1/2\nn_grid = 100\ns_grid = 1/4\n")
    out = tmp_path / "rows.csv"
    assert main(["scan", "--config", str(conf), "--out", str(out)]) == 0
    assert out.read_text().splitlines()[1].endswith(",625,25")
    assert main(["scan", "--config", str(conf), "--format", "json",
                 "--out", str(tmp_path / "rows.json")]) == 0
    doc = json.loads((tmp_path / "rows.json").read_text())
    assert doc["rows"][0]["V"] == 625.0 and doc["rows"][0]["ratio"] == 25.0


def test_main_scan_prints_csv_without_out(tmp_path, capsys):
    conf = tmp_path / "scan.conf"
    conf.write_text(BASE_CONFIG)
    assert main(["scan", "--config", str(conf)]) == 0
    assert capsys.readouterr().out.encode() == emit(run_scan(parse_config(BASE_CONFIG)))


def test_main_scan_refuses_empty_out(tmp_path, capsys, monkeypatch):
    conf = tmp_path / "scan.conf"
    conf.write_text("alphas = golden\nn_grid = 10\ns_grid = 1/4\n")
    monkeypatch.setattr(cli, "run_scan", lambda *a, **k: pytest.fail("scan ran"))
    assert main(["scan", "--config", str(conf), "--out", ""]) == 2
    assert "--out" in capsys.readouterr().err
    # the flags alone route the rows: the config keys are refused by name
    for line in ("out =", "out = rows.csv", "format = json"):
        conf.write_text(f"alphas = golden\nn_grid = 10\ns_grid = 1/4\n{line}\n")
        assert main(["scan", "--config", str(conf)]) == 2
        assert f"unknown key {line.split()[0]!r}" in capsys.readouterr().err


def test_main_scan_refuses_seed_for_explicit_alphas(tmp_path, capsys):
    conf = tmp_path / "scan.conf"
    conf.write_text("alphas = golden\nn_grid = 10\ns_grid = 1/4\n")
    assert main(["scan", "--config", str(conf), "--seed", "3"]) == 2
    assert "--seed" in capsys.readouterr().err


def test_main_exit_codes(tmp_path, capsys, monkeypatch):
    with pytest.raises(SystemExit) as exc:
        main(["scan"])  # --config required
    assert exc.value.code == 2
    assert main(["scan", "--config", str(tmp_path / "missing.conf")]) == 2
    bad = tmp_path / "bad.conf"
    bad.write_text("n_grid = 10\n")
    assert main(["scan", "--config", str(bad)]) == 2
    over = tmp_path / "over.conf"
    over.write_text("alphas = golden\nn_grid = 100\ns_grid = 1/4\n"
                    "pair_budget = 10\n")
    assert main(["scan", "--config", str(over)]) == 2  # pair_budget is not a key
    assert main(["decompose", "1/3"]) == 2  # not dyadic
    assert main(["decompose", "1/0"]) == 2
    capsys.readouterr()
    assert main(["preset", "nope"]) == 2
    assert "unknown preset 'nope'" in capsys.readouterr().err

    def fake_scan(config, **kwargs):
        n, s = 1000, Fraction(1, 64)
        scale = n * float(s) * (1 - float(s))
        return ScanResult(
            rows=tuple(VarianceRecord(n, s, Alpha.golden(), scale * f)
                       for f in (0.2, 0.25, 0.3)),
            metadata={})

    monkeypatch.setattr(cli, "run_scan", fake_scan)
    assert main(["preset", "thm1-quadratic"]) == 4
    verdict = json.loads(capsys.readouterr().out)
    assert not verdict["pass"] and verdict["band"] == [0.85, 1.15]


def test_main_energy_and_repstats(capsys):
    assert main(["energy", "--sequence", "linear", "--count", "10"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["additive_energy"] == 670 and doc["energy_window"] == 285
    assert main(["repstats", "--sequence", "poly:0,0,1", "--count", "20"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["max_rep"] >= 2 and doc["pair_count"] == 190


@pytest.mark.parametrize("argv", (
    ["--sequence", "poly:0,0,1", "--count", "40"],
    ["--sequence", "poly:0,0,1", "--count", "40", "--n1", "7", "--n2", "31"],
    ["--sequence", "poly:0,0,1", "--count", "1"],
    ["--sequence", "poly:0,-3,1", "--count", "20"],  # p(1) = p(2): a pair with no gap
    ["--sequence", "lacunary:3", "--count", "30"],  # a span past 2^32: int64 keys
), ids=("whole", "inner", "count-1", "repeated-terms", "int64-keys"))
def test_main_energy_window_equals_rep_tables(capsys, argv):
    assert main(["energy", *argv]) == 0
    doc = json.loads(capsys.readouterr().out)
    args = cli._parser().parse_args(["energy", *argv])
    terms = generate_terms(SequenceSpec.parse(args.sequence), args.count)
    table = rep_table(terms, args.n1, args.n2 or args.count)
    assert doc["window"] == list(table.window)
    assert doc["pair_count"] == table.pair_count
    assert doc["energy_window"] == energy_window(table)
    assert ("additive_energy" in doc) == (table.window == (1, args.count))


def test_main_energy_builds_no_table(monkeypatch, capsys):
    terms = generate_terms(SequenceSpec.poly((0, 0, 1)), 50)
    expected = [energy_window(rep_table(terms, n1, 50)) for n1 in (1, 20)]

    def refuse(*args, **kwargs):
        pytest.fail("energy built a RepTable")

    monkeypatch.setattr(cli.arithmetic, "rep_table", refuse)
    monkeypatch.setattr(cli.arithmetic, "energy_window", refuse)
    for n1, energy in zip((1, 20), expected):
        assert main(["energy", "--sequence", "poly:0,0,1", "--count", "50",
                     "--n1", str(n1)]) == 0
        assert json.loads(capsys.readouterr().out)["energy_window"] == energy


@pytest.mark.parametrize("command", ("energy", "repstats"))
@pytest.mark.parametrize("window", (["--n2", "11"], ["--n1", "11"], ["--n1", "5", "--n2", "3"]))
def test_main_window_outside_count_is_refused(capsys, command, window):
    argv = [command, "--sequence", "linear", "--count", "10", *window]
    assert main(argv) == 2
    n1 = window[window.index("--n1") + 1] if "--n1" in window else "1"
    n2 = window[window.index("--n2") + 1] if "--n2" in window else "10"
    assert f"window --n1 {n1} --n2 {n2} outside 1..--count 10" in capsys.readouterr().err


def test_main_gcdsum(capsys):
    assert main(["gcdsum", "--sequence", "linear", "--count", "3",
                 "--variant", "half"]) == 0
    doc = json.loads(capsys.readouterr().out)
    # gaps {1: 2, 2: 1}: 4 + 1 + 2*2/sqrt(2)
    assert doc["value"] == pytest.approx(5 + 2 * math.sqrt(2))


def test_main_gcdsum_threshold_and_budget(capsys):
    argv = ["gcdsum", "--sequence", "poly:0,0,1", "--count", "30", "--variant", "one_over_max"]
    assert main([*argv, "--threshold", "12"]) == 0
    table = rep_table(generate_terms(SequenceSpec.poly((0, 0, 1)), 30), 1, 30)
    assert json.loads(capsys.readouterr().out)["value"] == gcd_sum(table, "one_over_max", 12)
    # the 435 pairs of x at count 30 fit the budget; the 29^2 cells of the
    # dense gcd grid do not
    linear = ["gcdsum", "--sequence", "linear", "--count", "30", "--threshold", "1000"]
    assert main([*linear, "--pair-budget", "841"]) == 0
    assert main([*linear, "--pair-budget", "840"]) == 3
    assert "estimated 841, budget 840" in capsys.readouterr().err


def test_main_divcheck(capsys):
    assert main(["divcheck", "--poly", "0,1,1", "--count", "20",
                 "--ell-min", "2", "--ell-max", "50"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["all_ok"] and doc["poly"] == [0, 1, 1]
    assert main(["divcheck", "--poly", "0,1,1,0", "--count", "20",
                 "--ell-min", "2", "--ell-max", "50"]) == 0
    assert json.loads(capsys.readouterr().out)["poly"] == [0, 1, 1]
    # a range with no modulus in it checks nothing, so it is refused
    assert main(["divcheck", "--poly", "0,1", "--count", "5",
                 "--ell-min", "5", "--ell-max", "1"]) == 2
    # a first modulus below 2 is refused by the parser, not raised to 2
    for ell in (["--ell-min", "-4", "--ell-max", "1"], ["--ell-min", "1"]):
        with pytest.raises(SystemExit) as exc:
            main(["divcheck", "--poly", "0,1", "--count", "5", *ell])
        assert exc.value.code == 2
        assert f"expected an integer >= 2, got {ell[1]}" in capsys.readouterr().err


def test_main_divcheck_reports_a_failing_modulus(monkeypatch, capsys):
    real = cli.arithmetic.divisibility_bound_check

    def check(diffs, ell, degree, count):
        hits, bound, ok = real(diffs, ell, degree, count)
        return hits, bound, ok and ell != 7

    monkeypatch.setattr(cli.arithmetic, "divisibility_bound_check", check)
    assert main(["divcheck", "--poly", "0,1,1", "--count", "20", "--ell-max", "10"]) == 0
    doc = json.loads(capsys.readouterr().out)
    hits, bound, _ = real(cli.arithmetic.difference_set([0, 1, 1], 20), 7, 2, 20)
    assert doc["failures"] == [{"ell": 7, "hits": hits, "bound": bound}]
    assert doc["all_ok"] is False


def test_main_divcheck_cost_budget(capsys):
    # moduli times differences is charged against --pair-budget before any
    # modulus is tried, so a huge range is refused at once
    assert main(["divcheck", "--poly", "0,1,1", "--count", "20",
                 "--ell-max", str(10 ** 7)]) == 3
    assert "estimated" in capsys.readouterr().err
    # x at count 5 has 8 differences; moduli 2..50 cost 49 * 8 = 392
    linear = ["divcheck", "--poly", "0,1", "--count", "5", "--ell-max", "50"]
    assert main([*linear, "--pair-budget", "391"]) == 3
    assert "estimated 392, budget 391" in capsys.readouterr().err
    assert main([*linear, "--pair-budget", "392"]) == 0
    capsys.readouterr()
    # the difference set is charged its count(count - 1)/2 pairs, not count^2
    one = ["divcheck", "--poly", "0,1", "--count", "100", "--ell-max", "2"]
    assert main([*one, "--pair-budget", "4950"]) == 0
    assert main([*one, "--pair-budget", "4949"]) == 3
    assert "estimated 4950, budget 4949" in capsys.readouterr().err
    # the default range 2..200 fits the default budget
    assert main(["divcheck", "--poly", "0,1,0,1", "--count", "500"]) == 0
    assert json.loads(capsys.readouterr().out)["all_ok"]


def test_main_random_baseline(capsys):
    assert main(["random-baseline", "--n", "1", "--s", "3/8",
                 "--replicates", "3", "--seed", "5"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["mean"] == doc["expected"] == pytest.approx(0.234375)
    with pytest.raises(SystemExit) as exc:
        main(["random-baseline", "--n", "1", "--s", "3/8", "--replicates", "3"])  # seed required
    assert exc.value.code == 2


def test_main_bridge_sim(capsys):
    assert main(["bridge-sim", "--m", "64", "--s", "1/4", "--n", "8",
                 "--paths", "50", "--seed", "1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["expected"] == pytest.approx(1.5)
    assert doc["stddev"] > 0 and math.isfinite(doc["mean"])


@pytest.mark.parametrize("m, s", [("48", "1/4"), ("1", "1/4"), ("64", "1/128")])
def test_main_bridge_sim_refuses_off_grid_input(m, s, capsys):
    # --m must be a power of two >= 2, and S a multiple of 1/--m
    assert main(["bridge-sim", "--m", m, "--s", s, "--n", "8", "--paths", "3",
                 "--seed", "1"]) == 2
    assert "config error" in capsys.readouterr().err


def test_main_kronecker(capsys):
    assert main(["kronecker", "--alpha", "rat:1/3", "--s-grid", "1/4"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert [r["q"] for r in doc["rows"]] == [1, 3]
    assert doc["max_v"] == pytest.approx(0.1875)


@pytest.mark.parametrize("argv", [
    ["scan", "--config", "scan.conf", "--pair-budget", "10"],
    ["decompose", "15/64", "--threads", "4"],
    ["kronecker", "--alpha", "golden", "--seed", "3"],
    ["energy", "--sequence", "linear", "--count", "10", "--config", "x.conf"],
    ["preset", "thm1-quadratic", "--config", "x.conf"],
    ["scan", "--config", "scan.conf", "--skip-over-budget"],
    ["preset", "thm1-quadratic", "--skip-over-budget"],
    ["gcdsum", "--sequence", "linear", "--count", "10", "--strategy", "dense"],
])
def test_main_refuses_flags_a_subcommand_does_not_take(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["scan", "--config", "scan.conf", "--threads", "0"],
    ["preset", "thm1-quadratic", "--threads", "-3"],
    ["energy", "--sequence", "linear", "--count", "10", "--n1", "0"],
    ["repstats", "--sequence", "linear", "--count", "10", "--n2", "0"],
    ["bridge-sim", "--m", "64", "--s", "1/4", "--n", "8", "--paths", "0", "--seed", "1"],
    ["bridge-sim", "--m", "64", "--s", "1/4", "--n", "8", "--paths", "-2", "--seed", "1"],
    ["random-baseline", "--n", "4", "--s", "1/4", "--replicates", "0", "--seed", "1"],
    ["random-baseline", "--n", "4", "--s", "1/4", "--seed", "-1"],
    ["gcdsum", "--sequence", "linear", "--count", "10", "--threshold", "nan"],
    ["bridge-sim", "--m", "64", "--s", "1/4", "--n", "-5", "--seed", "1"],
    ["kronecker", "--alpha", "golden", "--n-max", "-3"],
    ["kronecker", "--alpha", "golden", "--n-max", "0"],
    ["energy", "--sequence", "linear", "--count", "10", "--pair-budget", "-1"],
    ["divcheck", "--poly", "0,1", "--count", "5", "--pair-budget", "-1"],
    ["bridge-sim", "--m", "64", "--s", "1/4", "--n", "8"],  # --seed required
])
def test_main_refuses_nonpositive_threads_and_window(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def test_main_internal_value_error_is_not_a_config_error(monkeypatch):
    def broken(s):
        raise ValueError("internal")

    monkeypatch.setattr(cli.dyadic, "decompose", broken)
    with pytest.raises(ValueError, match="internal"):
        main(["decompose", "1/4"])


def test_main_preset_format_needs_out(monkeypatch):
    monkeypatch.setattr(cli, "run_scan", lambda *a, **k: pytest.fail("scan ran"))
    assert main(["preset", "thm1-quadratic", "--format", "json"]) == 2


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize("argv", [["--sequence", "lacunary:2", "--count", "30"],
                                  ["--sequence", "linear", "--count", "1"]])
def test_main_repstats_undefined_exponent_is_null(capsys, argv):
    # no gap repeats (or N = 1), so log(mass) / log(N) is undefined
    assert main(["repstats", *argv]) == 0
    doc = json.loads(capsys.readouterr().out, parse_constant=_refuse_constant)
    assert doc["repeated_mass"] == 0 and doc["repeated_mass_exponent"] is None


def test_main_writes_no_nonfinite_json(monkeypatch, capsys):
    monkeypatch.setattr(cli.arithmetic, "sparse_u2_mass", lambda table: (1, math.inf))
    with pytest.raises(ValueError):
        main(["repstats", "--sequence", "linear", "--count", "5"])
    assert capsys.readouterr().out == ""


def test_main_repstats_narrow_window(capsys):
    assert main(["repstats", "--sequence", "linear", "--count", "10",
                 "--n1", "4", "--n2", "6"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["window"] == [4, 6] and doc["pair_count"] == 12
    # the repeated mass stays that of the whole window 1..10
    assert doc["repeated_mass"] == 284


def test_main_repstats_budget_names_the_pairs_repeated_mass_reads(monkeypatch, capsys):
    # the window holds 49 999 pairs, but repeated_mass reads every pair of
    # 1..--count: that is refused before any table is built
    monkeypatch.setattr(cli.arithmetic, "rep_table", lambda *a, **k: pytest.fail("table built"))
    assert main(["repstats", "--sequence", "poly:0,0,1", "--count", "50000", "--n1", "50000",
                 "--pair-budget", "100000"]) == 3
    err = capsys.readouterr().err
    assert "repeated_mass reads every pair of 1..--count 50000" in err
    assert "estimated 1249975000, budget 100000" in err


def test_main_energy_checks_the_sum_budget_before_any_table(monkeypatch, capsys):
    # the window's 199 990 000 pairs fit the budget, but additive_energy's
    # count^2 ordered sums do not: that is refused before any pair is built
    with monkeypatch.context() as patched:
        patched.setattr(cli.arithmetic, "rep_table", lambda *a, **k: pytest.fail("table built"))
        patched.setattr(cli.arithmetic, "energy_direct",
                        lambda *a, **k: pytest.fail("pairs built"))
        assert main(["energy", "--sequence", "poly:0,0,1", "--count", "20000",
                     "--pair-budget", "300000000"]) == 3
    err = capsys.readouterr().err
    assert "ordered-sum enumeration too large (estimated 400000000, budget 300000000)" in err
    # a table over its own budget still fails with its own message
    assert main(["energy", "--sequence", "poly:0,0,1", "--count", "100",
                 "--pair-budget", "4949"]) == 3
    err = capsys.readouterr().err
    assert "pair enumeration too large" in err and "estimated 4950, budget 4949" in err


_ENERGY = ["energy", "--sequence", "poly:0,0,1", "--count", "300"]
_REPSTATS = ["repstats", "--sequence", "poly:0,0,1", "--count", "300", "--n1", "50", "--n2", "200"]


def _run_module(*argv):
    """`python -m numvar.cli argv` in a fresh interpreter, as a finished process."""
    src = os.path.dirname(os.path.dirname(numvar.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    return subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "numvar.cli",
                           *argv], env=env, capture_output=True, text=True, timeout=60)


@pytest.fixture
def parser_builds(monkeypatch):
    """Drops main's parser and counts the builds of the next one."""
    builds = []
    build = cli.build_parser
    cli._parser.cache_clear()
    monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build())
    yield builds
    cli._parser.cache_clear()


def test_main_builds_its_parser_once(parser_builds, capsys):
    out = []
    for argv in (_ENERGY, _REPSTATS, _ENERGY):
        assert main(argv) == 0
        out.append(capsys.readouterr().out)
    assert parser_builds == [1]
    # the repstats window's flags do not reach the second energy call
    assert out[0] == out[2]
    for argv, text in zip((_ENERGY, _REPSTATS), out):
        proc = _run_module(*argv)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(text) == json.loads(proc.stdout)


@pytest.mark.parametrize("first,code", [
    ([*_ENERGY, "--bogus"], 2),  # a flag energy does not take
    (["energy", "--sequence", "poly:0,0,1", "--count", "0"], 2),  # a value its type refuses
    (["energy", "--help"], 0),
    ([*_ENERGY, "--pair-budget", "10"], 3),  # a command that fails
])
def test_main_after_an_early_exit_is_a_fresh_call(parser_builds, capsys, first, code):
    try:
        got = main(first)
    except SystemExit as exc:
        got = exc.code
    assert got == code
    if first[-1] == "--help":
        assert capsys.readouterr().out.startswith("usage: numvar energy")
    assert main(_ENERGY) == 0
    terms = generate_terms(SequenceSpec.poly((0, 0, 1)), 300)
    assert json.loads(capsys.readouterr().out) == {
        "sequence": "poly:0,0,1", "window": [1, 300], "pair_count": 44850,
        "energy_window": energy_window(rep_table(terms, 1, 300)),
        "additive_energy": additive_energy(terms, 300)}
    assert parser_builds == [1]


def test_module_runs_as_script():
    proc = _run_module("decompose", "1/4")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["levels"] == [{"v": 2, "c": 0}]
