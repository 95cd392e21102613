import bisect
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from numvar.arithmetic import additive_energy, energy_direct, rep_table
from numvar.points import (GRID_ONE, Alpha, PointSet, SequenceSpec,
                           continued_fraction_convergents, dilate_mod1,
                           dilate_words, generate_terms, philox_words)
from pointsets import from_ints


def test_alpha_from_rational_quarter():
    a = Alpha.from_rational(1, 4)
    assert a.a == 1 << 126
    assert a.hex == "40000000000000000000000000000000"


def test_alpha_rational_reduces_mod_one():
    assert Alpha.from_rational(5, 4).a == Alpha.from_rational(1, 4).a
    assert Alpha.from_rational(-1, 4).a == Alpha.from_rational(3, 4).a


def test_alpha_golden_ulp():
    a = Alpha.golden().a
    # (2a+2^128)^2 <= 5*2^256 < (2a+2+2^128)^2 pins a to the floor value
    assert (2 * a + GRID_ONE) ** 2 <= 5 << 256
    assert (2 * (a + 1) + GRID_ONE) ** 2 > 5 << 256
    assert abs(Alpha.golden().a / GRID_ONE - (math.sqrt(5) - 1) / 2) < 1e-15


def test_alpha_sqrt2m1_ulp():
    a = Alpha.sqrt2m1().a
    assert (a + GRID_ONE) ** 2 <= 2 << 256
    assert (a + 1 + GRID_ONE) ** 2 > 2 << 256


def test_alpha_parse_forms():
    assert Alpha.parse("golden") == Alpha.golden()
    assert Alpha.parse("sqrt2m1") == Alpha.sqrt2m1()
    assert Alpha.parse("rat:3/8") == Alpha.from_rational(3, 8)
    assert Alpha.parse("hex:" + "0" * 31 + "1").a == 1
    for bad in ("rat:1/0", "rat:x", "hex:12", "hex:" + "g" * 32, "pi"):
        with pytest.raises(ValueError):
            Alpha.parse(bad)


def test_alpha_range_validation():
    with pytest.raises(ValueError):
        Alpha(GRID_ONE)
    with pytest.raises(ValueError):
        Alpha(-1)


def test_alpha_random_stream_reproducible():
    xs = Alpha.random_stream(5, seed=42)
    ys = Alpha.random_stream(5, seed=42)
    assert xs == ys
    assert len(set(a.a for a in xs)) == 5
    assert all(0 <= a.a < GRID_ONE for a in xs)
    assert Alpha.random_stream(0, seed=1) == []


def test_pointset_validation():
    with pytest.raises(ValueError):
        from_ints((2, 1))
    with pytest.raises(ValueError):
        from_ints((GRID_ONE,))
    ps = PointSet.from_words(np.array([1 << 63, 1 << 62], dtype=np.uint64),
                             np.zeros(2, dtype=np.uint64))
    assert ps.points == (GRID_ONE // 4, GRID_ONE // 2)
    assert ps.n == 2
    assert ps == from_ints((GRID_ONE // 4, GRID_ONE // 2))
    assert ps != from_ints((GRID_ONE // 4, GRID_ONE // 2 + 1))
    # words in any order; equal high words are ordered by the low word
    for his in ((5, 1, 5), (5, 1, 7)):
        words = PointSet.from_words(np.array(his, dtype=np.uint64),
                                    np.array([2, 9, 1], dtype=np.uint64))
        assert words.points == tuple(sorted((h << 64) | lo for h, lo in zip(his, (2, 9, 1))))
    with pytest.raises(ValueError):
        PointSet(np.array([2, 1], dtype=np.uint64), np.array([0, 0], dtype=np.uint64))


def _check_below(points, xs):
    for x in xs:
        assert points.below(x) == bisect.bisect_left(points.points, x), x


def test_pointset_below_counts_points_under_a_value():
    _check_below(from_ints([]), (0, 1, 1 << 64, GRID_ONE - 1))
    h = 5 << 64  # a high word with points on both sides of x and in it
    values = [3, (1 << 64) - 1, h - 1, h, h + 7, h + 7, h + (1 << 63), h + (1 << 64) - 1,
              h + (1 << 64), GRID_ONE - 2]
    points = from_ints(values)
    _check_below(points, [0, 1, 4, h + 6, h + 8, h + (1 << 62), h + (1 << 64) - 2,
                          GRID_ONE - 1, *values])
    assert points.below(h + 7) == 4 and points.below(GRID_ONE - 1) == len(values)
    one_word = from_ints([h + lo for lo in (0, 0, 9, 1 << 40, (1 << 64) - 1)])
    _check_below(one_word, [0, h - 1, h, h + 1, h + 9, h + 10, h + (1 << 64) - 1,
                            h + (1 << 64), GRID_ONE - 1])
    for bad in (-1, GRID_ONE):
        with pytest.raises(OverflowError):
            points.below(bad)


@pytest.mark.parametrize("seed", (0, 1, 5, (1 << 63) + 7, [3, 4], 24036583))
def test_philox_words_equal_the_generators_full_range_integers(seed):
    for shape in (1, 7, (5, 2), (0, 2), 1 << 14, (3,)):
        gen = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
        want = gen.integers(0, 1 << 64, size=shape, dtype=np.uint64)
        got = philox_words(seed, shape)
        assert got.dtype == np.uint64 and got.shape == want.shape
        assert np.array_equal(got, want)


def test_sequence_spec_validation():
    with pytest.raises(ValueError):
        SequenceSpec.poly([1])  # degree 0
    with pytest.raises(ValueError):
        SequenceSpec.poly([1, 2, 0])  # zero leading coefficient
    with pytest.raises(ValueError):
        SequenceSpec.lacunary(1)
    with pytest.raises(ValueError):
        SequenceSpec.explicit([])
    with pytest.raises(ValueError):
        SequenceSpec.parse("cubic")


def test_sequence_parse_and_labels():
    assert SequenceSpec.parse("linear").label() == "linear"
    assert SequenceSpec.parse("poly:0,0,1").coeffs == (0, 0, 1)
    assert SequenceSpec.parse("lacunary:3").base == 3
    assert SequenceSpec.parse("poly:0,0,1").label() == "poly:0,0,1"


def test_sequence_parse_explicit_file(tmp_path):
    f = tmp_path / "terms.txt"
    f.write_text("1\n4\n# comment\n9\n16  # trailing\n")
    spec = SequenceSpec.parse(f"explicit:@{f}")
    assert spec.values == (1, 4, 9, 16)
    assert generate_terms(spec, 3).tolist() == [1, 4, 9]
    with pytest.raises(ValueError):
        generate_terms(spec, 5)


def test_generate_terms_examples():
    cases = [(SequenceSpec.poly([0, 0, 1]), 4, [1, 4, 9, 16]),
             (SequenceSpec.poly([0, 0, 1 << 40]), 3, [1 << 40, 4 << 40, 9 << 40]),  # exact loop
             (SequenceSpec.linear(), 3, [1, 2, 3]),
             (SequenceSpec.lacunary(2), 5, [2, 4, 8, 16, 32]),
             (SequenceSpec.explicit([7, -3, 7]), 2, [7, -3]),
             (SequenceSpec.linear(), 0, [])]
    for spec, count, want in cases:
        got = generate_terms(spec, count)
        assert isinstance(got, np.ndarray) and got.dtype == np.int64
        assert got.tolist() == want


def test_generate_terms_int64_path_matches_python_loop():
    def loop(coeffs, count):
        out = []
        for n in range(1, count + 1):
            acc = 0
            for c in reversed(coeffs):
                acc = acc * n + c
            out.append(acc)
        return out

    edge = (1 << 62) // 10 ** 6
    cases = [((0, 0, 1), 1000), ((3, -7, 0, 2), 500), ((5, 3, -(1 << 40)), 700),
             ((0, 0, edge - 1), 1000),  # just under the 2^62 bound: int64 path
             ((0, 0, edge + 1), 1000),  # just over it, terms still fit: exact loop
             ((1, 1), 0)]
    for coeffs, count in cases:
        spec = SequenceSpec.poly(coeffs)
        got = generate_terms(spec, count)
        assert got.dtype == np.int64 and got.tolist() == loop(coeffs, count)


def test_generate_terms_overflow_names_index():
    # 2^63 first exceeds the signed 64-bit range at n = 63
    with pytest.raises(OverflowError, match="term 63"):
        generate_terms(SequenceSpec.lacunary(2), 70)
    with pytest.raises(OverflowError, match="term 2"):
        generate_terms(SequenceSpec.poly([0, 1 << 62]), 5)


def test_dilate_examples():
    quarter = Alpha.from_rational(1, 4)
    ps = dilate_mod1([1, 2, 3], quarter)
    assert ps.points == (GRID_ONE // 4, GRID_ONE // 2, 3 * GRID_ONE // 4)
    assert dilate_mod1([3], Alpha(1 << 126)).points == (3 << 126,)
    assert dilate_mod1([-1], quarter).points == (3 * GRID_ONE // 4,)


def test_dilate_matches_bignum_products():
    big = (1 << 63) - 1
    rng = np.random.default_rng(5)
    limb = (1 << 32) - 1  # terms and alpha words at the 32-bit limb edges
    terms = [big, -big, -1, 0, 1, -(1 << 40) - 7, limb, -limb, limb + 1, -limb - 1, limb + 2,
             *rng.integers(-big, big, 200).tolist()]
    alphas = (Alpha(0), Alpha(GRID_ONE - 1), Alpha.parse("rat:3/1024"),
              Alpha((1 << 64) - 1), Alpha((1 << 64) | limb), *Alpha.random_stream(3, 8))
    for alpha in alphas:
        want = tuple(sorted((alpha.a * x) % GRID_ONE for x in terms))
        assert dilate_mod1(terms, alpha).points == want
        assert dilate_mod1(np.array(terms, dtype=np.int64), alpha).points == want
    for bad in (1 << 63, -(1 << 63)):
        with pytest.raises(OverflowError):
            dilate_mod1([1, bad], Alpha.golden())


def test_dilate_words_holds_at_most_36_bytes_per_point():
    # the product's high words take four N-sized uint64 arrays, updated in place
    n = 1 << 16
    terms = generate_terms(SequenceSpec.poly((0, 0, 1)), n)
    tracemalloc.start()
    try:
        dilate_words(terms, Alpha.random_stream(1, 5)[0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 36 * n


_PAIR_TOP = (1 << 62) - 1  # x + y and x - y of two terms stay in int64
_TERM_TOP = (1 << 63) - 1


def _rep_arrays(terms):
    table = rep_table(terms, 1, len(terms))
    return table.gaps.tolist(), table.reps.tolist()


# each function that takes caller terms: (call, largest magnitude it accepts)
_TERM_PATHS = {
    "dilate_mod1": (lambda t: dilate_mod1(t, Alpha.golden()).points, _TERM_TOP),
    "rep_table": (_rep_arrays, _PAIR_TOP),
    "energy_direct": (lambda t: energy_direct(t, 1, len(t)), _PAIR_TOP),
    "additive_energy": (lambda t: additive_energy(t, len(t)), _PAIR_TOP),
}


@pytest.mark.parametrize("name", list(_TERM_PATHS))
def test_caller_terms_as_list_or_array_within_the_bound(name):
    call, top = _TERM_PATHS[name]
    for terms in ([3, -7, 3, 12, 0], [top, 0, -top, 5, top], [-top, 1, 2, -top + 1]):
        assert call(terms) == call(np.array(terms, dtype=np.int64))
    for bad in sorted({top + 1, -top - 1, -(1 << 63)}):
        with pytest.raises(OverflowError):
            call([1, bad, 0])
        if -(1 << 63) <= bad <= _TERM_TOP:  # representable as an int64 array too
            with pytest.raises(OverflowError):
                call(np.array([1, bad, 0], dtype=np.int64))


@pytest.mark.parametrize("name", list(_TERM_PATHS))
def test_caller_terms_are_integers_checked_before_conversion(name):
    call, top = _TERM_PATHS[name]
    # an unsigned word past the bound would wrap to a negative int64
    with pytest.raises(OverflowError):
        call(np.array([1, (1 << 63) + 1, 0], dtype=np.uint64))
    assert call(np.array([1, top, 0], dtype=np.uint64)) == call([1, top, 0])
    assert call(np.array([3, 1, 2], dtype=np.uint8)) == call([3, 1, 2])
    # [1.5, 2.7, 4.2] would truncate to the terms 1, 2, 4, and numpy promotes
    # [True, 2, 4] to the int64 terms 1, 2, 4
    for bad in ([1.5, 2.7, 4.2], np.array([1.0, 2.0, 4.0]), np.array([True, False, True]),
                ["1", "2", "4"], [True, 2, 4], [3, np.True_, 4]):
        with pytest.raises(TypeError):
            call(bad)
    # Python ints past the int64/uint64 range, which numpy reads as object or float
    for bad in ([1, 1 << 64, 0], [-1, 1 << 63, 0]):
        with pytest.raises(OverflowError):
            call(bad)


def test_additive_energy_refuses_minus_2_63():
    # np.abs(-2^63) is -2^63 in int64, so a bound taken through np.abs misses it
    with pytest.raises(OverflowError):
        additive_energy([-(1 << 63), 0, 5], 3)


def test_dilate_sorted_and_permutation_invariant():
    a = Alpha.golden()
    terms = [5, 1, 3, 2, 4]
    ps1 = dilate_mod1(terms, a)
    ps2 = dilate_mod1(sorted(terms), a)
    assert ps1 == ps2
    assert list(ps1.points) == sorted(ps1.points)


def test_dilate_matches_exact_rationals():
    # against arbitrary-precision rational arithmetic on small cases
    for p, q in ((1, 3), (2, 7), (5, 11), (13, 64)):
        a = Alpha.from_rational(p, q)
        for x in (-5, -1, 1, 2, 9, 100):
            got = dilate_mod1([x], a).points[0]
            want = Fraction(p * x, q) % 1
            diff = abs(Fraction(got, GRID_ONE) - want)
            dist = min(diff, 1 - diff)  # circle distance: a*x can wrap past 0
            assert dist <= Fraction(abs(x), GRID_ONE)


def test_convergents_golden_fibonacci():
    convs = continued_fraction_convergents(Alpha.golden(), 6)
    assert [q for _, q in convs] == [1, 2, 3, 5, 8, 13]


def test_convergents_rational_truncates():
    convs = continued_fraction_convergents(Alpha.from_rational(1, 3), 10)
    assert convs == [(0, 1), (1, 3)]


def test_convergents_sqrt2m1():
    convs = continued_fraction_convergents(Alpha.sqrt2m1(), 4)
    assert [q for _, q in convs] == [1, 2, 5, 12]


def test_convergents_dirichlet_property():
    for alpha in (Alpha.golden(), Alpha.sqrt2m1(), Alpha.from_rational(355, 1130)):
        convs = continued_fraction_convergents(alpha, 20)
        qs = [q for _, q in convs]
        assert all(b > a for a, b in zip(qs, qs[1:]))
        for p, q in convs:
            # q|q alpha - p| < 1 in exact grid arithmetic
            assert q * abs(q * alpha.a - p * GRID_ONE) < GRID_ONE
            assert abs(Fraction(alpha.a, GRID_ONE) - Fraction(p, q)) < Fraction(1, q * q)


def test_convergents_respect_count():
    convs = continued_fraction_convergents(Alpha.golden(), 3)
    assert len(convs) == 3
