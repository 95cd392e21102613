import math
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from numvar import arithmetic
from numvar.arithmetic import (_ROW_BLOCK, BudgetExceeded, RepTable, _gap_key_ranges,
                               _run_stats, _runs, additive_energy,
                               congruence_solution_count, difference_set,
                               divisibility_bound_check, energy_direct,
                               energy_window, gcd_average, gcd_sum,
                               normalize_polynomial, rep_quadratic_divisor,
                               rep_table, sparse_u2_mass)
from numvar.points import SequenceSpec, generate_terms
from divisors import divisor_lists

SQUARES = [k * k for k in range(1, 201)]
LINEAR = list(range(1, 201))


def reference_additive_energy(terms, count):
    """The hash loop additive_energy replaced: every ordered difference
    x - y, zero included, counted in a dict; E is the sum of squared counts."""
    d: dict = {}
    head = terms[:count]
    for x in head:
        for y in head:
            k = x - y
            d[k] = d.get(k, 0) + 1
    return sum(v * v for v in d.values())


def reference_rep_counts(terms, n1, n2):
    """Rep(u) over pairs m < n, N1 <= n <= N2, by a plain loop over all pairs."""
    counts: dict = {}
    for n in range(n1, n2 + 1):
        xn = terms[n - 1]
        for m in range(n - 1):
            u = xn - terms[m]
            if u < 0:
                u = -u
            if u:
                counts[u] = counts.get(u, 0) + 1
    return counts


def _with_span(span, size, seed):
    """size terms in shuffled order spanning exactly 0..span."""
    rng = np.random.default_rng(seed)
    inner = rng.integers(0, span, size=size - 2, endpoint=True).tolist()
    return [int(v) for v in rng.permutation([0, span, *inner])]


def _differential_inputs():
    cubic = (3, -7, 0, 2)
    noisy = np.random.default_rng(8).integers(-50, 50, size=60)
    top = (1 << 62) - 1
    return [
        pytest.param(SQUARES[:60], (0, 0, 1), id="squares"),
        pytest.param(generate_terms(SequenceSpec.poly(cubic), 60), cubic, id="poly:3,-7,0,2"),
        pytest.param(noisy.tolist(), None, id="random-with-duplicates"),
        pytest.param(np.array(SQUARES[:60], dtype=np.int64), None, id="int64-squares"),
        pytest.param(noisy, None, id="int64-random"),
        # uint32 keys up to a span of 2^32 - 1, int64 keys from 2^32 on
        pytest.param(_with_span((1 << 32) - 1, 60, 9), None, id="span-2^32-1"),
        pytest.param(_with_span(1 << 32, 60, 10), None, id="span-2^32"),
        # a length that is not a multiple of the kernel's row block
        pytest.param(SQUARES[: 2 * _ROW_BLOCK + 45], (0, 0, 1), id="squares-ragged-blocks"),
        pytest.param(SQUARES[:60][::-1], None, id="decreasing"),
        pytest.param((noisy[:40] * 1000 - 7).tolist() * 2, None, id="unsorted-repeated"),
        pytest.param([top - k for k in range(0, 40, 3)] + [0, 1, -1]
                     + [k - top for k in range(0, 40, 4)], None, id="near-2^62"),
    ]


@pytest.mark.parametrize("terms,coeffs", _differential_inputs())
def test_gap_counters_match_reference_loop(monkeypatch, terms, coeffs):
    n = len(terms)
    inside_block = min(n, _ROW_BLOCK + 7)
    for n1, n2 in ((1, n), (3, n), (n // 2, n), (inside_block, n), (1, 1), (2, 2)):
        ref = reference_rep_counts(terms, n1, n2)
        energy = sum(r * r for r in ref.values())
        assert rep_table(terms, n1, n2).counts == ref
        assert energy_direct(terms, n1, n2) == energy
        # a small budget splits the gaps into several value ranges
        with monkeypatch.context() as small:
            small.setattr(arithmetic, "DEFAULT_MEM_BUDGET", 256)
            assert energy_direct(terms, n1, n2) == energy
            parts = []
            for keys in _gap_key_ranges(terms, n1, n2):
                keys.sort()
                parts.append(_runs(keys))
        assert [u for gaps, _ in parts for u in gaps.tolist()] == sorted(ref)
        assert [r for _, reps in parts for r in reps.tolist()] == [ref[u] for u in sorted(ref)]
        if n1 in (1, 3) and n2 == n and n > 2:
            assert len(parts) > 1
        if coeffs is not None and (n1, n2) == (1, n):
            gaps = sorted(ref)
            values = difference_set(coeffs, n).tolist()
            assert values == [-u for u in reversed(gaps)] + gaps


def test_rep_table_examples():
    table = rep_table(SQUARES, 1, 5)
    assert table.counts == {u: 1 for u in (3, 5, 7, 8, 9, 12, 15, 16, 21, 24)}
    assert table.pair_count == 10
    lin = rep_table(LINEAR, 1, 6)
    assert lin.counts == {1: 5, 2: 4, 3: 3, 4: 2, 5: 1}
    assert rep_table(SQUARES, 1, 1).counts == {}
    assert rep_table(SQUARES, 1, 1).pair_count == 0


def test_rep_table_arrays_and_counts_view():
    terms = generate_terms(SequenceSpec.poly((3, -7, 0, 2)), 80)
    for n1, n2 in ((1, 80), (30, 70), (1, 1)):
        table = rep_table(terms, n1, n2)
        ref = reference_rep_counts(terms, n1, n2)
        assert table.gaps.dtype == table.reps.dtype == np.int64
        assert table.gaps.tolist() == sorted(ref)
        assert table.reps.tolist() == [ref[u] for u in sorted(ref)]
        assert table.counts == ref and table.counts is table.counts
        # the sums energy_window and sparse_u2_mass took over the dict
        assert energy_window(table) == sum(r * r for r in table.counts.values())
        assert sparse_u2_mass(table)[0] == sum(r * r for r in table.counts.values() if r >= 2)
    table = rep_table(terms, 1, 80)
    with pytest.raises(TypeError):
        table.counts[1] = 5
    with pytest.raises(ValueError):
        table.reps[0] = 1
    # squares past 2^63 leave the int64 dot for exact Python ints
    huge = _table({1: 3 << 31, 2: 3 << 31})
    assert energy_window(huge) == 2 * (3 << 31) ** 2
    assert sparse_u2_mass(huge)[0] == 2 * (3 << 31) ** 2


def test_rep_table_owns_its_arrays():
    gaps = np.array([1, 2, 3], dtype=np.int64)
    reps = np.array([1, 1, 2], dtype=np.int64)
    table = RepTable(window=(1, 3), gaps=gaps, reps=reps)
    assert energy_window(table) == 6
    reps[2] = 5  # a write through the caller's array leaves the table as it was
    assert energy_window(table) == 6 and table.reps.tolist() == [1, 1, 2]
    assert not np.shares_memory(table.gaps, gaps) and not np.shares_memory(table.reps, reps)
    assert not table.gaps.flags.writeable and not table.reps.flags.writeable


def test_value_ranges_reuse_one_key_buffer(monkeypatch):
    # each range's keys are held here, so ranges allocated one by one could
    # not overlap; only keys written into one buffer share memory
    terms = generate_terms(SequenceSpec.poly((0, 0, 1)), 100)
    expect = rep_table(terms, 1, 100)
    monkeypatch.setattr(arithmetic, "DEFAULT_MEM_BUDGET", 4096)
    held, real = [], arithmetic._gap_key_ranges

    def holding(*args):
        for keys in real(*args):
            held.append(keys)
            yield keys

    monkeypatch.setattr(arithmetic, "_gap_key_ranges", holding)
    for call, want in ((lambda: energy_direct(terms, 1, 100), energy_window(expect)),
                       (lambda: rep_table(terms, 1, 100).counts, expect.counts)):
        held.clear()
        assert call() == want
        assert len(held) >= 3
        assert all(np.shares_memory(a, b) for a, b in zip(held, held[1:]))


def test_narrow_late_window_builds_only_its_pairs(monkeypatch):
    # the window (N - 1, N) holds 2 N - 3 pairs; a difference of prefix
    # histograms would build about N^2 = 4 * 10^10 gaps here
    n = 2 * 10 ** 5
    terms = generate_terms(SequenceSpec.poly((0, 0, 1)), n)
    x = np.asarray(terms, dtype=np.int64)
    u, r = np.unique(np.abs(np.concatenate((x[n - 2] - x[:n - 2], x[n - 1] - x[:n - 1]))),
                     return_counts=True)
    table = rep_table(terms, n - 1, n, pair_budget=2 * n)
    assert table.pair_count == 2 * n - 3
    assert table.gaps.tolist() == u.tolist() and table.reps.tolist() == r.tolist()
    monkeypatch.setattr(arithmetic, "DEFAULT_MEM_BUDGET", 4096)
    assert energy_direct(terms, n - 1, n) == int(np.dot(r, r))


def test_rep_table_validation_and_budget():
    with pytest.raises(ValueError):
        rep_table(SQUARES, 0, 5)
    with pytest.raises(ValueError):
        rep_table(SQUARES, 5, 3)
    with pytest.raises(BudgetExceeded, match="divisor"):
        rep_table(SQUARES, 1, 200, pair_budget=100)


def test_rep_table_merge_law():
    # the tables of adjacent windows (1, k) and (k + 1, N) add up to (1, N)
    rng = np.random.default_rng(2)
    full = rep_table(SQUARES, 1, 100)
    for _ in range(100):
        k = int(rng.integers(1, 100))
        left = rep_table(SQUARES, 1, k)
        right = rep_table(SQUARES, k + 1, 100)
        assert Counter(left.counts) + Counter(right.counts) == Counter(full.counts)
        assert left.pair_count + right.pair_count == full.pair_count


def test_additive_energy_examples():
    assert additive_energy(LINEAR, 2) == 6
    assert additive_energy(LINEAR, 10) == 670
    # closed form for consecutive integers: N(2N^2 + 1)/3
    for n in (1, 5, 37):
        assert additive_energy(LINEAR, n) == n * (2 * n * n + 1) // 3
    with pytest.raises(BudgetExceeded):
        additive_energy(LINEAR, 100, pair_budget=50)


_ENERGY_SEQUENCES = {
    "squares": [k * k for k in range(1, 601)],
    "linear": list(range(1, 601)),
    "cubic": [k ** 3 - 7 * k for k in range(1, 601)],
    "negative": [-(k * k) + 250 * k for k in range(1, 601)],
    "repeated": [int(v) for v in np.random.default_rng(8).integers(-30, 30, 600)],
    "explicit": [5, 5, -2, 5, 0, -2, 1 << 61, -(1 << 61)] * 75,
    # twice the span is 2^32 - 2, whose sums of offsets are uint32 keys, or
    # 2^32, whose sums stay int64; negative terms, the span's ends repeated
    "span-2^31-1": [v - (1 << 40) for v in _with_span((1 << 31) - 1, 300, 5)] * 2,
    "span-2^31": [v - (1 << 31) for v in _with_span(1 << 31, 300, 6)] * 2,
}


@pytest.mark.parametrize("name", list(_ENERGY_SEQUENCES))
def test_additive_energy_matches_hash_reference(name):
    terms = _ENERGY_SEQUENCES[name]
    for count in (0, 1, 2, 600):
        assert additive_energy(terms, count) == reference_additive_energy(terms, count)


def test_ordered_sums_are_uint32_offsets_below_a_span_of_2_31():
    for name, dtype in (("span-2^31-1", np.uint32), ("span-2^31", np.int64)):
        x = np.array(_ENERGY_SEQUENCES[name], dtype=np.int64)
        assert arithmetic._ordered_sums(x).dtype == dtype


def test_additive_energy_refuses_terms_of_2_62():
    with pytest.raises(OverflowError):
        additive_energy([3, 1 << 62], 2)
    with pytest.raises(OverflowError):
        additive_energy([-(1 << 62)], 1)
    assert additive_energy([3, 1 << 62], 1) == 1  # only the first `count` terms are read


def test_energy_counts_refuse_windows_past_the_terms():
    with pytest.raises(ValueError, match="count 6 outside 0..5"):
        additive_energy(SQUARES[:5], 6)
    for n1, n2 in ((0, 3), (2, 6), (4, 3)):
        with pytest.raises(ValueError, match=rf"window \({n1}, {n2}\) outside 1..5"):
            energy_direct(SQUARES[:5], n1, n2)


def test_energy_identity_with_rep_table():
    # for distinct terms, E(N) = N^2 + 2 sum Rep(u)^2
    for terms, n in ((SQUARES, 40), (LINEAR, 25)):
        table = rep_table(terms, 1, n)
        assert additive_energy(terms, n) == n * n + 2 * energy_window(table)


def test_energy_window_examples():
    assert energy_window(rep_table(SQUARES, 1, 5)) == 10
    assert energy_window(rep_table(SQUARES, 1, 1)) == 0
    assert energy_window(rep_table(LINEAR, 1, 4)) == 14


def test_energy_direct_matches_window(monkeypatch):
    rng = np.random.default_rng(4)
    for _ in range(20):
        n2 = int(rng.integers(2, 150))
        n1 = int(rng.integers(1, n2 + 1))
        expect = sum(r * r for r in reference_rep_counts(SQUARES, n1, n2).values())
        assert energy_direct(SQUARES, n1, n2) == expect
        # tiny budget forces the multi-bucket path
        with monkeypatch.context() as small:
            small.setattr(arithmetic, "DEFAULT_MEM_BUDGET", 256)
            assert energy_direct(SQUARES, n1, n2) == expect
    assert energy_direct(SQUARES, 1, 1) == 0
    for terms in ([0, 1 << 62], [-(1 << 62), 0], [5, -(1 << 62) - 3]):
        with pytest.raises(OverflowError):
            energy_direct(terms, 1, 2)
        with pytest.raises(OverflowError):
            rep_table(terms, 1, 2)


def _check_runs(keys, label):
    """_run_stats and _runs of sorted keys against a Counter of them."""
    counts = Counter(keys.tolist())  # in the keys' (sorted) order
    lengths = list(counts.values())
    stats = (len(lengths), lengths.count(1), max(lengths, default=0),
             sum(c * c for c in lengths))
    assert _run_stats(keys) == stats, label
    assert all(type(v) is int for v in _run_stats(keys)), label
    gaps, reps = _runs(keys)
    assert gaps.dtype == keys.dtype and reps.dtype == np.int64, label
    assert gaps.tolist() == list(counts) and reps.tolist() == list(counts.values()), label


@pytest.mark.parametrize("dtype", [np.uint32, np.int64])
def test_run_square_sum_chunk_edges(monkeypatch, dtype):
    keys = {
        # a run longer than a chunk, at the start and after it
        "long-run": [4, 4, 4, 4, 4, 4, 4, 9, 9, 9, 9, 9, 9, 12, 15, 15, 15, 15, 15],
        # every chunk of 2 or 3 ends exactly where a run starts
        "aligned": [1, 1, 2, 2, 3, 3, 5, 5, 7, 7, 7, 8, 8, 8],
        "all-equal": [6] * 11,
        "distinct": list(range(0, 40, 3)),
        "single": [2],
        "empty": [],
        # a run over three or more chunks at every chunk size up to 4
        "spanning": [0, *[3] * 14, 5, 7, 7],
        # a run longer than a chunk, and a run of one key, ending on the last key
        "long-tail": [1, *[2] * 13],
        "last-single": [*[3] * 9, 4],
    }
    if dtype is np.int64:  # keys of a span of 2^32 and more
        keys["wide"] = [1, 1, 1 << 32, 1 << 32, 1 << 32, (1 << 62) - 1]
    # _runs takes its keys as one chunk, whatever _RUN_CHUNK is
    for chunk in (1, 2, 3, 4, arithmetic._RUN_CHUNK):
        monkeypatch.setattr(arithmetic, "_RUN_CHUNK", chunk)
        for name, values in keys.items():
            _check_runs(np.array(values, dtype=dtype), (name, chunk))
    # at the default chunk of 2^16 keys, which holds keys 0..2^16 - 1: the
    # longest run that closes inside one chunk (keys 0..2^16 - 2), a run that
    # fills exactly the first chunk, a run that ends on the chunk's last key
    # (keys 1..2^16 - 1), one that crosses into the next chunk (keys 1..2^16),
    # and all-equal keys of length 2^16 - 1, 2^16 and 2^16 + 1
    c = 1 << 16
    assert arithmetic._RUN_CHUNK == c
    edges = {"closes-inside": [*[5] * (c - 1), 7], "fills-one-chunk": [*[5] * c, 7],
             "ends-on-chunk-end": [0, *[5] * (c - 1), 7], "crosses": [0, *[5] * c, 7],
             **{f"all-equal-{n}": [3] * n for n in (c - 1, c, c + 1)}}
    for name, values in edges.items():
        _check_runs(np.array(values, dtype=dtype), name)


@pytest.mark.parametrize("chunk", [1, 2, 3])
@pytest.mark.parametrize("terms,coeffs", _differential_inputs())
def test_energy_direct_in_small_chunks(monkeypatch, chunk, terms, coeffs):
    # runs cross chunk ends at every size, and repeated terms' zero gaps stay out
    monkeypatch.setattr(arithmetic, "_RUN_CHUNK", chunk)
    n = len(terms)
    for n1, n2 in ((1, n), (n // 2, n), (1, 1)):
        energy = sum(r * r for r in reference_rep_counts(terms, n1, n2).values())
        assert energy_direct(terms, n1, n2) == energy
        with monkeypatch.context() as small:
            small.setattr(arithmetic, "DEFAULT_MEM_BUDGET", 256)
            assert energy_direct(terms, n1, n2) == energy
    repeated = [5, 5, 5, 1, 5, 1]  # gap 4 eight times; the 7 pairs of equal terms have none
    assert energy_direct(repeated, 1, 6) == 64


def _traced_peak(call):
    """(call(), tracemalloc's peak of traced bytes during the call)."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_energy_direct_holds_little_beyond_its_keys(monkeypatch):
    # the keys of 1..3000 squares are uint32, 4 bytes for each of the C(3000, 2)
    # gaps; the reduction adds chunk-sized scratch, no distinct gaps or run arrays
    n = 3000
    terms = generate_terms(SequenceSpec.poly((0, 0, 1)), n)
    expect = energy_window(rep_table(terms, 1, n, pair_budget=n * n))
    energy, peak = _traced_peak(lambda: energy_direct(terms, 1, n))
    assert energy == expect and peak < 1.5 * 4 * n * (n - 1) // 2
    # a budget of 2 * 10^6 gaps a range (25 bytes each to the histogram) splits
    # the 4.5 * 10^6 gaps into three ranges, and one range's keys are held at a time
    cap = 2 * 10 ** 6
    monkeypatch.setattr(arithmetic, "DEFAULT_MEM_BUDGET", 25 * cap)
    energy, peak = _traced_peak(lambda: energy_direct(terms, 1, n))
    assert energy == expect and peak < 1.5 * 4 * cap


def test_additive_energy_holds_its_sums_alone():
    # the count^2 sums, sorted in place, and chunk-sized scratch for the runs;
    # the sums of squares are mostly distinct, so a run per sum would show.
    # The squares 1..2000 span under 2^31, so their sums are uint32 keys
    count = 2000
    terms = generate_terms(SequenceSpec.poly((0, 0, 1)), count)
    expect = count * count + 2 * energy_direct(terms, 1, count)
    energy, peak = _traced_peak(lambda: additive_energy(terms, count))
    assert energy == expect and peak <= 1.1 * 4 * count * count
    # scaled by 2^20 they span over 2^31, and their sums are int64
    wide = [t << 20 for t in terms]
    energy, peak = _traced_peak(lambda: additive_energy(wide, count))
    assert energy == expect and peak <= 1.15 * 8 * count * count


def test_rep_quadratic_divisor_examples():
    p = (1, 0)  # x^2, coefficients (a, b) of a x^2 + b x
    assert rep_quadratic_divisor(p, 15, 10) == 2
    assert rep_quadratic_divisor(p, 2) == 0
    assert rep_quadratic_divisor(p, 24) == 2
    assert rep_quadratic_divisor(p, 24, 6) == 1  # drops 7^2 - 5^2
    with pytest.raises(ValueError):
        rep_quadratic_divisor((0, 1), 5)
    with pytest.raises(ValueError):
        rep_quadratic_divisor(p, 0)


def test_rep_quadratic_divisor_exhaustive():
    table = rep_table(SQUARES, 1, 200)
    for u in range(1, 10 ** 4 + 1):
        assert rep_quadratic_divisor((1, 0), u, 200) == table.counts.get(u, 0)
    # above a leading 1, a divisor e of u solves a(x + y) + b = u / e only
    # where a divides u / e - b
    n = 60
    for a, b in ((2, 3), (3, -1)):
        terms = [a * k * k + b * k for k in range(1, n + 1)]
        table = rep_table(terms, 1, n)
        top = terms[-1] - terms[0]
        lists = divisor_lists(top)
        for u in range(1, top + 1):
            assert rep_quadratic_divisor((a, b), u, n, divisors=lists[u]) == table.counts.get(u, 0)


def test_rep_bounded_by_tau():
    lists = divisor_lists(10 ** 5)
    for u in range(1, 10 ** 5 + 1):
        r = rep_quadratic_divisor((1, 0), u, divisors=lists[u])
        assert r <= len(lists[u])


def _table(counts):
    gaps = sorted(counts)
    return RepTable(window=(1, 2), gaps=np.array(gaps, dtype=np.int64),
                    reps=np.array([counts[u] for u in gaps], dtype=np.int64))


def test_gcd_sum_examples():
    assert gcd_sum(_table({1: 1, 2: 1}), "one_over_max") == pytest.approx(3.0)
    assert gcd_sum(_table({7: 3}), "squared") == pytest.approx(9.0)
    assert gcd_sum(_table({2: 1, 3: 1}), "half") == pytest.approx(2 + 2 / math.sqrt(6))
    assert gcd_sum(_table({}), "half") == 0.0
    with pytest.raises(ValueError):
        gcd_sum(_table({1: 1}), "cubed")


def brute_gcd_sum(counts, variant, threshold):
    total = 0.0
    for u1, r1 in counts.items():
        for u2, r2 in counts.items():
            g = math.gcd(u1, u2)
            if threshold is not None and not (u1 // g) * (u2 // g) <= threshold:
                continue  # a nan threshold keeps no pair
            if variant == "half":
                w = g / math.sqrt(u1 * u2)
            elif variant == "one_over_max":
                w = g / max(u1, u2)
            else:
                w = g * g / (u1 * u2)
            total += w * r1 * r2
    return total


def test_gcd_sum_strategies_agree_with_brute_force():
    rng = np.random.default_rng(6)
    for _ in range(15):
        k = int(rng.integers(1, 40))
        us = rng.choice(np.arange(1, 60), size=k, replace=False)
        counts = {int(u): int(rng.integers(1, 9)) for u in us}
        table = _table(counts)
        for variant in ("half", "one_over_max", "squared"):
            ref = brute_gcd_sum(counts, variant, None)
            assert gcd_sum(table, variant) == pytest.approx(ref, rel=1e-12)
            for t in (1, 6, 50, 4000):
                ref_t = brute_gcd_sum(counts, variant, t)
                dense = gcd_sum(table, variant, t, strategy="dense")
                classes = gcd_sum(table, variant, t, strategy="classes")
                assert dense == pytest.approx(ref_t, rel=1e-12)
                assert classes == pytest.approx(ref_t, rel=1e-12)


def test_gcd_sum_auto_matches_brute_force_on_either_route():
    squares = [rep_table(SQUARES, 1, 30), rep_table(SQUARES, 10, 30)]
    lacunary = [rep_table(generate_terms(SequenceSpec.lacunary(2), 25), 1, 25),
                rep_table(generate_terms(SequenceSpec.lacunary(3), 18), 4, 18)]
    for table in squares + lacunary:
        k, top = len(table.counts), max(table.counts)
        # squares take the divisor-sum route, lacunary gaps the dense grid
        assert (math.isqrt(top) < k) == (table in squares)
        for variant in ("half", "one_over_max", "squared"):
            ref = brute_gcd_sum(table.counts, variant, None)
            assert gcd_sum(table, variant) == pytest.approx(ref, rel=1e-12)


def test_gcd_sum_blocks_agree_with_one_block(monkeypatch):
    table = rep_table(SQUARES, 1, 40)
    whole = [gcd_sum(table, v, strategy=s) for v in ("half", "one_over_max", "squared")
             for s in ("auto", "dense")]
    monkeypatch.setattr(arithmetic, "_BLOCK_CELLS", 3000)  # a few rows per block
    blocked = [gcd_sum(table, v, strategy=s) for v in ("half", "one_over_max", "squared")
               for s in ("auto", "dense")]
    assert blocked == pytest.approx(whole, rel=1e-12)


def test_gcd_sum_threshold_monotone():
    counts = {3: 2, 4: 1, 9: 1, 10: 3, 14: 1}
    table = _table(counts)
    prev = 0.0
    for t in (1, 2, 5, 12, 40, 200):
        cur = gcd_sum(table, "half", t)
        assert cur >= prev - 1e-12
        prev = cur
    # a threshold past every coprime product recovers the unfiltered sum
    assert gcd_sum(table, "half", 14 * 14) == pytest.approx(gcd_sum(table, "half"))
    assert gcd_sum(table, "half", math.inf) == pytest.approx(gcd_sum(table, "half"))


def test_gcd_sum_guards():
    with pytest.raises(ValueError):
        gcd_sum(_table({1: 1}), "half", strategy="classes")
    with pytest.raises(ValueError):
        gcd_sum(_table({1: 1}), "half", strategy="sparse")
    with pytest.raises(BudgetExceeded):
        gcd_sum(_table({u: 1 for u in range(1, 100)}), "half", pair_budget=10)
    with pytest.raises(OverflowError):
        gcd_sum(_table({1 << 32: 1}), "half", 1, strategy="dense")
    with pytest.raises(OverflowError):
        gcd_sum(_table({1 << 32: 1}), "half", 1 << 30, strategy="classes")
    assert gcd_sum(_table({5: 1}), "half", 0, strategy="classes") == 0.0
    # the strategy and its threshold are checked before an empty table returns
    with pytest.raises(ValueError, match="unknown strategy"):
        gcd_sum(_table({}), "half", strategy="sparse")
    with pytest.raises(ValueError, match="requires a threshold"):
        gcd_sum(_table({}), "half", strategy="classes")
    # forced classes are charged their cells; forced dense refuses an inexact
    # filter before it charges its K^2 cells
    with pytest.raises(BudgetExceeded, match="gcd class sum too large"):
        gcd_sum(_table({u: 1 for u in range(1, 100)}), "half", 40, strategy="classes",
                pair_budget=10)
    with pytest.raises(OverflowError):
        gcd_sum(_table({1 << 32: 1, 3 << 32: 1}), "half", 1, strategy="dense", pair_budget=1)


def test_gcd_sum_takes_the_cheapest_exact_route(monkeypatch):
    # K = 40 gaps up to 40: isqrt(40) K = 240 divisor cells, K^2 = 1600 dense
    # cells, and T ln(T + 2) K class cells: 43 at T = 1, 1266 at 12, 5979 at 40
    small = _table({u: 1 + u % 3 for u in range(1, 41)})
    tie = _table({1: 1, 2: 1, 9: 1})  # isqrt(max u) = K: the dense grid wins the tie
    # K = 46341 > isqrt(max u) = 46340, with max u on either side of 2^31
    below, at = (_table({**dict.fromkeys(range(1, 46341), 1), top: 1})
                 for top in ((1 << 31) - 1, 1 << 31))
    # max u^2 >= 2^62, and max u * T < 2^62 up to T = 2^27
    wide = _table({1 << 32: 2, 3 << 32: 1, 5 << 32: 3, (7 << 32) + 1: 1})
    ran = []
    for name in ("_gcd_sum_divisors", "_gcd_sum_dense", "_gcd_sum_classes"):
        monkeypatch.setattr(arithmetic, name, lambda *a, _f=getattr(arithmetic, name),
                            _name=name[9:]: ran.append(_name) or _f(*a))
    nan, inf, big = math.nan, math.inf, 10 ** 7
    cells12 = int(12 * math.log(14) * 40)
    cases = [  # (table, threshold, strategy, pair_budget, route, what it raises)
        *((small, t, "auto", None, route, None) for t, route in (
            (None, "divisors"), (-3, "classes"), (0, "classes"), (0.5, "classes"),
            (1, "classes"), (12, "classes"), (40, "dense"), (1 << 28, "dense"),
            (nan, "dense"), (inf, "dense"))),
        (tie, None, "auto", None, "dense", None),
        (small, 12, "auto", cells12, "classes", None),
        (small, 12, "auto", cells12 - 1, "classes", BudgetExceeded),
        *((small, t, "dense", None, "dense", None) for t in (None, -3, 0.5, 12, 40, nan, inf)),
        (small, 12, "dense", 1599, "dense", BudgetExceeded),
        *((small, t, "classes", None, "classes", None) for t in (-3, 0, 1, 12, 40)),
        (small, None, "classes", None, None, ValueError),
        (small, 1 << 28, "classes", None, "classes", BudgetExceeded),
        (small, nan, "classes", None, "classes", OverflowError),
        (small, inf, "classes", None, "classes", OverflowError),
        (below, None, "auto", big, "divisors", BudgetExceeded),
        (below, 40, "auto", big, "classes", None),
        (below, 1 << 28, "auto", big, "dense", BudgetExceeded),
        (at, None, "auto", big, "dense", BudgetExceeded),
        (at, 40, "auto", big, "classes", None),
        (at, 1 << 28, "auto", big, "classes", BudgetExceeded),
        *((wide, t, "auto", None, route, None) for t, route in (
            (None, "dense"), (-3, "classes"), (0.5, "classes"), (40, "classes"))),
        (wide, 1 << 27, "auto", None, "classes", BudgetExceeded),
        *((wide, t, "auto", None, "dense", OverflowError) for t in (1 << 28, nan, inf)),
        (wide, None, "dense", None, "dense", None),
        (wide, 40, "dense", None, "dense", OverflowError),
        (wide, 40, "classes", None, "classes", None),
        (wide, 1 << 28, "classes", None, "classes", OverflowError),
    ]
    refusals = {  # a route refused or over budget is named by its message, and never runs
        "dense": "support too large for the filtered dense path|gcd double sum too large",
        "classes": "threshold too large for the class strategy|gcd class sum too large",
        "divisors": "gcd divisor sum too large",
        None: "requires a threshold",
    }
    for table, t, strategy, budget, route, raises in cases:
        ran.clear()
        kwargs = {"strategy": strategy, **({} if budget is None else {"pair_budget": budget})}
        if raises:
            with pytest.raises(raises, match=refusals[route]):
                gcd_sum(table, "half", t, **kwargs)
            assert ran == [], (t, strategy, budget)
        else:
            value = gcd_sum(table, "half", t, **kwargs)
            if table.gaps.size < 100:
                assert value == pytest.approx(brute_gcd_sum(table.counts, "half", t), rel=1e-12)
            if route != "divisors":
                assert value == gcd_sum(table, "half", t, strategy=route, pair_budget=budget or big)
            assert ran[:1] == [route], (t, strategy, budget)


def test_gcd_sum_auto_takes_classes_where_dense_overflows():
    # max u^2 >= 2^62 overflows the filtered dense path; max u * T < 2^62 fits
    # the classes, whose T ln(T + 2) K cells are charged against the budget
    counts = {1 << 32: 2, 3 << 32: 1, 5 << 32: 3, (7 << 32) + 1: 1}
    table = _table(counts)
    for t in (1, 3, 15, 40):
        for variant in ("half", "one_over_max", "squared"):
            ref = brute_gcd_sum(counts, variant, t)
            assert gcd_sum(table, variant, t) == pytest.approx(ref, rel=1e-12)
    assert gcd_sum(table, "half", -3) == 0.0  # no coprime class a b <= T < 1
    cells = int(40 * math.log(42) * len(counts))
    assert gcd_sum(table, "half", 40, pair_budget=cells) == gcd_sum(table, "half", 40)
    with pytest.raises(BudgetExceeded, match=f"estimated {cells}, budget {cells - 1}"):
        gcd_sum(table, "half", 40, pair_budget=cells - 1)
    with pytest.raises(OverflowError):  # max u * T >= 2^62: neither route fits
        gcd_sum(table, "half", 1 << 28)


def test_gcd_average_examples():
    assert gcd_average(2) == pytest.approx(0.5)
    assert gcd_average(3) == pytest.approx(7 / 6)
    for x in (1, 10, 50):
        brute = sum(math.gcd(m, n) / n for n in range(1, x + 1) for m in range(1, n))
        assert gcd_average(x) == pytest.approx(brute, rel=1e-12)
    with pytest.raises(ValueError):
        gcd_average(0)
    with pytest.raises(ValueError):
        gcd_average(10 ** 7 + 1)


def reference_primes(limit: int) -> list:
    """The primes up to limit, by a plain-Python sieve."""
    composite = bytearray(limit + 1)
    for p in range(2, math.isqrt(limit) + 1):
        if not composite[p]:
            composite[p * p::p] = b"\1" * len(range(p * p, limit + 1, p))
    return [p for p in range(2, limit + 1) if not composite[p]]


_SMALL_PRIMES = reference_primes(1 << 16)


def reference_factorisation(u: int) -> dict:
    """{p: e} with u = prod p^e, in Python ints, by the primes p with p^2 <= the rest (u < 2^32)."""
    powers: dict = {}
    for p in _SMALL_PRIMES:
        if p * p > u:
            break
        while u % p == 0:
            u //= p
            powers[p] = powers.get(p, 0) + 1
    if u > 1:
        powers[u] = 1
    return powers


def reference_gcd_average(x: int) -> float:
    """gcd_average as it was before the sieve: phi by testing phi[p] == p for every p <= x."""
    phi = np.arange(x + 1, dtype=np.int64)
    for p in range(2, x + 1):
        if phi[p] == p:  # p prime
            phi[p::p] -= phi[p::p] // p
    return math.fsum(int(phi[d]) * (x // d) / d for d in range(1, x + 1)) - x


def _factor_cases():
    """1..2*10^4, 2000 random d < 2^31, and 1, primes, prime squares and powers of 2."""
    rng = np.random.default_rng(20170222)
    primes = [2, 3, 5, 46337, 65521, 65537, (1 << 31) - 1]
    special = [1, *primes, *(p * p for p in primes[:4]), *(1 << i for i in range(31))]  # all < 2^31
    return [*range(1, 20001), *rng.integers(1, 1 << 31, 2000).tolist(), *special]


def test_primes_match_a_plain_sieve():
    for limit in (*range(0, 100), 46341, 1 << 16):
        assert arithmetic._primes(limit).tolist() == reference_primes(limit)


def test_factor_divisors_radical_and_jordan_totient_match_their_definitions():
    lists = divisor_lists(20000)
    cases = sorted(set(_factor_cases()))
    factorisations = [reference_factorisation(u) for u in cases]
    for u, powers in zip(cases, factorisations):
        assert math.prod(p ** e for p, e in powers.items()) == u
        assert arithmetic._factor(u) == sorted(powers.items())
        divs = arithmetic._divisors(u)
        if u <= 20000:
            assert divs == lists[u]
        # tau(u) = prod (e + 1) distinct divisors, ascending
        assert len(divs) == math.prod(e + 1 for e in powers.values())
        assert divs == sorted(set(divs)) and all(u % d == 0 for d in divs)
        assert arithmetic._radical(u) == (math.prod(powers), len(powers))
    for k in (1, 2):
        # J_k(p^e) = p^(k e) - p^(k (e - 1)), and J_k is multiplicative
        want = [math.prod(p ** (k * e) - p ** (k * (e - 1)) for p, e in powers.items())
                for powers in factorisations]
        assert arithmetic._jordan_totient(np.array(cases, dtype=np.int64), k).tolist() == want
    assert arithmetic._divisors(2 ** 40) == [1 << i for i in range(41)]
    assert arithmetic._divisors(10 ** 12 + 39) == [1, 10 ** 12 + 39]  # a prime
    assert arithmetic._radical(2 ** 40 * 3 ** 5) == (6, 2)


def test_gcd_average_matches_the_totient_loop_it_replaced():
    for x in (*range(1, 60), 97, 1000, 4096, 9973, 10 ** 4):
        assert gcd_average(x) == reference_gcd_average(x)


def test_difference_set_examples():
    d = difference_set((0, 0, 1), 3)
    assert d.dtype == np.int64
    assert d.tolist() == [-8, -5, -3, 3, 5, 8]
    assert len(d) == 6
    assert difference_set((0, 1), 3).tolist() == [-2, -1, 1, 2]
    assert difference_set((0, 0, 0, 1), 3).tolist() == [-26, -19, -7, 7, 19, 26]
    with pytest.raises(ValueError):
        difference_set((0, 1), 0)
    with pytest.raises(OverflowError):
        difference_set((0, 1 << 62), 2)
    with pytest.raises(BudgetExceeded):
        difference_set((0, 1), 100, pair_budget=10)
    # count 100 enumerates 100 * 99 / 2 = 4950 pairs, within a budget that
    # count^2 = 10^4 would exceed
    full = difference_set((0, 0, 1), 100)
    assert np.array_equal(difference_set((0, 0, 1), 100, pair_budget=4950), full)
    with pytest.raises(BudgetExceeded, match="estimated 4950, budget 4949"):
        difference_set((0, 0, 1), 100, pair_budget=4949)
    # a fractional coefficient is refused, not truncated to n^2's differences
    with pytest.raises(TypeError, match="coefficients must be integers, got float"):
        difference_set([0, 0, 1.5], 10)


def test_divisibility_bound_check():
    d = difference_set((0, 0, 1), 3)
    hits, bound, ok = divisibility_bound_check(d, 2, 2, 3)
    assert hits == 2 and bound == 25.0 and ok
    hits, _, ok = divisibility_bound_check(d, 11, 2, 3)
    assert hits == 0 and ok
    with pytest.raises(ValueError):
        divisibility_bound_check(d, 1, 2, 3)


def test_normalize_polynomial():
    assert normalize_polynomial((0, 0, 2)) == (0, 0, 1)
    assert normalize_polynomial((5, 2, 4)) == (0, 1, 2)
    assert normalize_polynomial((3, 1)) == (0, 1)
    assert normalize_polynomial((0, 1, 0)) == (0, 1)
    with pytest.raises(ValueError):
        normalize_polynomial((7,))


def test_congruence_solution_count():
    assert congruence_solution_count((0, 0, 1), 5) == 1
    assert congruence_solution_count((-1, 0, 1), 5) == 2
    assert congruence_solution_count((0, -1, 0, 1), 7) == 3
    with pytest.raises(ValueError):
        congruence_solution_count((5, 10), 5)
    with pytest.raises(ValueError):
        congruence_solution_count((0, 1), 6)


def test_sparse_u2_mass():
    mass, exponent = sparse_u2_mass(rep_table(LINEAR, 1, 10))
    assert mass == 284
    assert exponent == pytest.approx(math.log(284) / math.log(10))
    mass, exponent = sparse_u2_mass(rep_table(LINEAR, 1, 1))
    assert mass == 0 and math.isnan(exponent)
    cubes = generate_terms(SequenceSpec.poly((0, 0, 0, 1)), 50)
    table = rep_table(cubes, 1, 50)
    mass, exponent = sparse_u2_mass(table)
    assert mass == sum(r * r for r in table.counts.values() if r >= 2)
    assert exponent < 2
