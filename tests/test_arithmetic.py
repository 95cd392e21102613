import math
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from numvar import arithmetic
from numvar.arithmetic import (_ROW_BLOCK, BudgetExceeded, RepTable, _gap_ranges,
                               _range_keys, _run_square_sum, _runs, additive_energy,
                               congruence_solution_count, difference_set,
                               divisibility_bound_check, divisor_lists,
                               energy_direct, energy_window, gcd_average,
                               gcd_sum, normalize_polynomial, rep_quadratic_divisor,
                               rep_table, sparse_u2_mass)
from numvar.points import SequenceSpec, generate_terms

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
            pairs, ranges = _gap_ranges(terms, n1, n2)
        parts = [_runs(_range_keys(pairs, lo, hi)) for lo, hi in ranges]
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
}


@pytest.mark.parametrize("name", list(_ENERGY_SEQUENCES))
def test_additive_energy_matches_hash_reference(name):
    terms = _ENERGY_SEQUENCES[name]
    for count in (0, 1, 2, 600):
        assert additive_energy(terms, count) == reference_additive_energy(terms, count)


def test_additive_energy_refuses_terms_of_2_62():
    with pytest.raises(OverflowError):
        additive_energy([3, 1 << 62], 2)
    with pytest.raises(OverflowError):
        additive_energy([-(1 << 62)], 1)
    assert additive_energy([3, 1 << 62], 1) == 1  # only the first `count` terms are read


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


def _squared_runs(keys):
    return sum(c * c for c in Counter(keys.tolist()).values())


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
    }
    if dtype is np.int64:  # keys of a span of 2^32 and more
        keys["wide"] = [1, 1, 1 << 32, 1 << 32, 1 << 32, (1 << 62) - 1]
    for chunk in (1, 2, 3, 4, arithmetic._RUN_CHUNK):
        monkeypatch.setattr(arithmetic, "_RUN_CHUNK", chunk)
        for name, values in keys.items():
            k = np.array(values, dtype=dtype)
            assert _run_square_sum(k) == _squared_runs(k), (name, chunk)


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
            if threshold is not None and (u1 // g) * (u2 // g) > threshold:
                continue
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
