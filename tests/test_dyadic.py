import math
from fractions import Fraction

import numpy as np
import pytest

from numvar.arithmetic import rep_table
from numvar.dyadic import (PlateauKernel, _grid_floats, decompose, verify_decomposition,
                           y_statistic, y_window_sum)
from numvar.points import GRID_ONE, Alpha, SequenceSpec, dilate_words, generate_terms

BENCH_KERNELS = (PlateauKernel(4, 1), PlateauKernel(6, 10))


def reference_y_window_sum(counts, pair_count, kernel, alpha):
    """The per-gap loop that y_window_sum replaced, kept as its reference."""
    a = alpha.a
    acc = 0.0
    for u, rep in counts.items():
        t = ((a * u) % GRID_ONE) / GRID_ONE
        acc += rep * kernel.periodized(t)
    return 2.0 * acc - 2.0 * pair_count * float(kernel.mean())


def test_decompose_example():
    exp = decompose(Fraction(15, 64))
    assert exp.levels == ((3, 0), (4, 2), (5, 6), (6, 14))
    assert exp.scalar_sum() == Fraction(225, 4096)
    assert exp.s == Fraction(15, 64)


def test_decompose_half_and_scalar_identity():
    exp = decompose(Fraction(1, 2))
    assert exp.levels == ((1, 0),)
    assert exp.scalar_sum() == Fraction(1, 4)
    rng = np.random.default_rng(3)
    for _ in range(200):
        v = int(rng.integers(1, 30))
        s = Fraction(int(rng.integers(1, 1 << v)), 1 << v)
        assert decompose(s).scalar_sum() == s * s


def test_decompose_residual_rejected():
    with pytest.raises(ValueError):
        decompose(Fraction(1, 3))


def test_plateau_validation():
    with pytest.raises(ValueError):
        PlateauKernel(-1, 0)
    with pytest.raises(ValueError):
        PlateauKernel(2, 4)
    PlateauKernel(2, 3)


def test_plateau_values():
    k = PlateauKernel(1, 0)
    assert k.value(Fraction(0)) == Fraction(1, 2)
    assert k.value(Fraction(1, 4)) == Fraction(1, 4)
    assert k.value(Fraction(1, 2)) == 0
    assert k.value(-0.25) == 0.25
    wide = PlateauKernel(3, 2)
    assert wide.value(Fraction(1, 4)) == Fraction(1, 8)  # on the flat top
    assert wide.value(Fraction(5, 16)) == Fraction(1, 16)  # mid-ramp
    assert wide.value(Fraction(3, 8)) == 0
    assert wide.mean() == Fraction(5, 64)
    # 15/16 wraps to -1/16, inside the flat top
    assert wide.periodized(Fraction(15, 16)) == Fraction(1, 8)
    # 11/16 wraps to -5/16, on the ramp
    assert wide.periodized(Fraction(11, 16)) == Fraction(1, 16)


def _branch_value(kern, x):
    """f_{v,c} by cases: the flat top, the ramp, zero."""
    t = abs(x)
    h = Fraction(1, 1 << kern.v)
    inner, outer = kern.c * h, (kern.c + 1) * h
    return h if t <= inner else outer - t if t < outer else Fraction(0)


def test_plateau_value_on_arrays_matches_the_scalar_path():
    rng = np.random.default_rng(59)
    for v, c in ((4, 1), (6, 10), (0, 0), (1, 1), (10, 1000), (3, 7)):
        kern = PlateauKernel(v, c)
        h = 2.0 ** -v
        inner, outer = c * h, (c + 1) * h
        edges = [inner, -inner, outer, -outer, 0.0, -0.0, 1.0, -1.0, np.nextafter(outer, 0.0)]
        t = np.concatenate([rng.uniform(-1.0, 1.0, 2000), edges])
        for x in (t, t - 1, t + 1):
            got = kern.value(x)
            want = np.array([kern.value(float(e)) for e in x])
            assert got.dtype == np.float64 and not np.signbit(got).any()
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
            # every float is a rational: the exact path agrees wherever the
            # float difference is exact, and is a Fraction
            exact = [kern.value(Fraction(e)) for e in x[-len(edges):]]
            assert all(type(f) is Fraction for f in exact)
            assert exact == [_branch_value(kern, Fraction(e)) for e in x[-len(edges):]]
            assert exact == [Fraction(float(g)) for g in got[-len(edges):]]
        periodized = kern.periodized(t)
        assert np.array_equal(periodized, [kern.periodized(float(e)) for e in t])
        for x in (Fraction(1, 3), Fraction(-2, 7), Fraction(5, 1 << (v + 2)), 0, 1, -1):
            assert kern.value(x) == _branch_value(kern, Fraction(x))
            assert type(kern.value(x)) is Fraction
            assert type(kern.value(float(x))) is float


def test_pointwise_reconstruction():
    rng = np.random.default_rng(5)
    for _ in range(1000):
        v = int(rng.integers(1, 53))
        s = Fraction(int(rng.integers(1, min(1 << v, 1 << 30))), 1 << v)
        x = float(rng.uniform(-1.0, 1.0))
        lhs, rhs = verify_decomposition(s, x)
        assert abs(lhs - rhs) <= 1e-12
    # exact equality on the rational path
    for x in (Fraction(0), Fraction(1, 7), Fraction(-3, 11), Fraction(1, 2)):
        lhs, rhs = verify_decomposition(Fraction(15, 64), x)
        assert lhs == rhs


def test_plateau_mean_against_quadrature():
    m = 1 << 16
    ts = np.arange(m) / m
    for v, c in ((0, 0), (3, 0), (4, 2), (5, 6), (6, 14)):
        kern = PlateauKernel(v, c)
        vals = np.array([kern.periodized(float(t)) for t in ts])
        assert abs(vals.mean() - float(kern.mean())) < 1e-9


def test_y_statistic_examples():
    kern = PlateauKernel(1, 0)
    assert y_statistic([1, 2], 1, kern, Alpha.parse("rat:1/4")) == 0.0
    # f_{1,0}(1/4) = 1/4 equals the mean, so the centered value is 0
    assert y_statistic([1, 2], 2, kern, Alpha.parse("rat:1/4")) == 0.0
    # f_{1,0}(1/8) = 3/8; Y = 2(3/8) - 2(1/4) = 1/4
    assert y_statistic([1, 2], 2, kern, Alpha.parse("rat:1/8")) == pytest.approx(0.25)
    with pytest.raises(ValueError):
        y_statistic([1, 2], 3, kern, Alpha.golden())


def test_y_statistic_takes_int64_arrays():
    # numpy terms are read as Python ints, so the grid products stay exact
    kern = PlateauKernel(4, 1)
    assert y_statistic(np.array([1, 4, 9, 16]), 4, kern, Alpha.golden()) == -0.0703125
    terms = generate_terms(SequenceSpec.poly((0, -3, 1)), 40)
    for alpha in (Alpha.golden(), Alpha.sqrt2m1()):
        for n in (1, 2, 17, 40):
            assert (y_statistic(np.array(terms, dtype=np.int64), n, kern, alpha)
                    == y_statistic(terms, n, kern, alpha))


def test_y_statistic_mean_zero_over_alpha():
    terms = [k * k for k in range(1, 51)]
    kern = PlateauKernel(5, 3)
    alphas = Alpha.random_stream(10 ** 4, seed=29)
    ys = np.array([y_statistic(terms, 50, kern, a) for a in alphas])
    se = ys.std(ddof=1) / math.sqrt(len(ys))
    assert abs(ys.mean()) <= 3 * se


def test_window_sum_matches_per_term_sum():
    terms = [k * k for k in range(1, 21)]
    kern = PlateauKernel(4, 5)
    table = rep_table(terms, 2, 20)
    for tag in ("golden", "sqrt2m1", "rat:3/7"):
        alpha = Alpha.parse(tag)
        direct = sum(y_statistic(terms, n, kern, alpha) for n in range(1, 21))
        grouped = y_window_sum(table.counts, table.pair_count, kern, alpha)
        assert grouped == pytest.approx(direct, abs=1e-9)


def test_window_sum_counts_pairs_of_equal_terms():
    # x^2 - 3x takes -2 at both 1 and 2; rep_table stores no zero gap, but
    # the pair is in pair_count and in y_statistic's sum
    terms = generate_terms(SequenceSpec.parse("poly:0,-3,1"), 20)
    table = rep_table(terms, 1, 20)
    assert table.pair_count - int(table.reps.sum()) == 1
    kern = PlateauKernel(4, 5)
    for alpha in (Alpha.golden(), Alpha.sqrt2m1()):
        direct = sum(y_statistic(terms, n, kern, alpha) for n in range(1, 21))
        grouped = y_window_sum(table.counts, table.pair_count, kern, alpha)
        assert grouped == pytest.approx(direct, abs=1e-9)


def test_window_sum_bit_identical_to_reference_loop():
    squares = [k * k for k in range(1, 81)]
    tables = [rep_table(squares, 1, 80), rep_table(squares, 30, 70), rep_table(squares, 2, 2)]
    rng = np.random.default_rng(41)
    near_top = [(1 << 62) - int(d) for d in rng.integers(1, 1 << 40, size=100)]
    tables.append(rep_table([0] + near_top + [(1 << 62) - 1], 1, 102))
    tables.append(rep_table([5], 1, 1))  # no pairs
    alphas = [Alpha(0), Alpha.parse("rat:1/2"), Alpha.parse("rat:3/1024"), Alpha.golden(),
              Alpha(12345), *Alpha.random_stream(3, seed=43)]
    kernels = (*BENCH_KERNELS, PlateauKernel(0, 0), PlateauKernel(20, 700000))
    for table in tables:
        for alpha in alphas:
            for kern in kernels:
                want = reference_y_window_sum(table.counts, table.pair_count, kern, alpha)
                got = y_window_sum(table.counts, table.pair_count, kern, alpha)
                assert got == want, (table.window, alpha, kern)
    with pytest.raises(OverflowError):
        y_window_sum({1 << 63: 1}, 1, BENCH_KERNELS[0], Alpha.golden())


def test_grid_floats_round_like_python_division():
    rng = np.random.default_rng(47)
    gaps = rng.integers(1, 1 << 62, size=10 ** 5)
    gaps[:1000] = rng.integers(1, 1 << 12, size=1000)
    # small alphas leave the high word 0 for small gaps: the value is the low word alone
    for alpha in (*Alpha.random_stream(2, seed=53), Alpha(987654321), Alpha((1 << 64) + 3)):
        got = _grid_floats(*dilate_words(gaps, alpha))
        want = np.array([((alpha.a * int(u)) % GRID_ONE) / GRID_ONE for u in gaps])
        assert np.array_equal(got, want)
    # crafted words: high words just below a power of two (the float
    # exponent overshoots the bit length), and values halfway between two
    # doubles, where one low bit decides the rounding
    words = [(0, 0), (0, 1), (0, (1 << 64) - 1), (1, 0), ((1 << 64) - 1, (1 << 64) - 1)]
    words += [((1 << b) - d, lo) for b in (54, 60, 64) for d in (1, 3, 1 << 9)
              for lo in (0, 1, (1 << 64) - 1)]
    for mantissa, shift in (((1 << 52) + 1, 75), ((1 << 53) - 2, 22), (5 << 50, 12)):
        tie = (2 * mantissa + 1) << (shift - 1)  # halfway above mantissa * 2^shift
        for w in (tie - 1, tie, tie + 1):
            words.append((w >> 64, w & ((1 << 64) - 1)))
    hi, lo = (np.array(col, dtype=np.uint64) for col in zip(*words))
    want = np.array([((h << 64) | l) / GRID_ONE for h, l in words])
    assert np.array_equal(_grid_floats(hi, lo), want)
