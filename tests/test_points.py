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
from numvar.variance import variance_pairwise, variance_sweep
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
    with pytest.raises(TypeError, match="alpha numerator must be an int"):
        Alpha(1.0)


def test_alpha_random_stream_reproducible():
    xs = Alpha.random_stream(5, seed=42)
    ys = Alpha.random_stream(5, seed=42)
    assert xs == ys
    assert len(set(a.a for a in xs)) == 5
    assert all(0 <= a.a < GRID_ONE for a in xs)
    assert Alpha.random_stream(0, seed=1) == []
    with pytest.raises(ValueError, match="count must be nonnegative"):
        Alpha.random_stream(-1, 0)
    for draw in (lambda: Alpha.random_stream(1, None), lambda: philox_words(None, 2)):
        with pytest.raises(ValueError, match="seed is required"):
            draw()


def test_pointset_validation():
    with pytest.raises(ValueError):
        from_ints((GRID_ONE,))
    ps = PointSet(np.array([1 << 63, 1 << 62], dtype=np.uint64), np.zeros(2, dtype=np.uint64))
    assert ps.points == (GRID_ONE // 4, GRID_ONE // 2)
    assert ps.n == 2
    assert ps == from_ints((GRID_ONE // 2, GRID_ONE // 4))
    assert ps != from_ints((GRID_ONE // 4, GRID_ONE // 2 + 1))
    assert (ps == object()) is False and ps != object()
    words = np.zeros(2, dtype=np.uint64)
    for hi, lo in ((words.astype(np.int64), words), (words, words.astype(np.float64)),
                   ([0, 0], [0, 0]), (words.reshape(1, 2), words.reshape(1, 2)),
                   (words[0], words[0]), (words, words[:1])):
        with pytest.raises(ValueError, match="two uint64 arrays of one length"):
            PointSet(hi, lo)


def test_pointset_owns_sorted_copies_of_its_words():
    # a set that kept views of the caller's sorted words was unsorted by a write
    # through them, and the pairwise and sweep routes then disagreed
    hi, lo = dilate_words(generate_terms(SequenceSpec.poly((0, 0, 1)), 1000), Alpha.golden())
    order = np.lexsort((lo, hi))
    hi, lo = hi[order], lo[order]
    points = PointSet(hi, lo)
    assert not np.shares_memory(points.hi, hi) and not np.shares_memory(points.lo, lo)
    assert not points.hi.flags.writeable and not points.lo.flags.writeable
    assert points.hi.flags.c_contiguous and points.lo.flags.c_contiguous
    hi_before, lo_before = points.hi.copy(), points.lo.copy()
    hi[0], lo[-1] = np.uint64((1 << 64) - 1), np.uint64(0)
    assert np.array_equal(points.hi, hi_before) and np.array_equal(points.lo, lo_before)
    s = Fraction(1, 64)
    assert variance_pairwise(points, s, exact=True) == variance_sweep(points, s, exact=True)


@pytest.fixture
def lexsorts(monkeypatch):
    """Counts the calls of np.lexsort."""
    calls = []
    real = np.lexsort
    monkeypatch.setattr(np, "lexsort", lambda keys: calls.append(1) or real(keys))
    return calls


def test_pointset_lexsorts_only_low_words_out_of_order(lexsorts):
    # a dyadic rational alpha's squares repeat their high words, all with low
    # word 0, so the argsort of the high words orders them
    terms = generate_terms(SequenceSpec.poly((0, 0, 1)), 5000)
    for name in ("rat:3/1024", "rat:1/2", "rat:5/64"):
        hi, lo = dilate_words(terms, Alpha.parse(name))
        assert len(np.unique(hi)) < len(hi)
        order = np.argsort(hi, kind="stable")
        assert PointSet(hi, lo) == PointSet(hi[order], lo[order]), name
    assert lexsorts == []
    # words in any order build the set their sorted words build; equal high
    # words are ordered by the low word: (5, 2) and (5, 1) come out of argsort
    # with their low words out of order
    for his, calls in (((5, 1, 7), 0), ((5, 1, 5), 1)):
        values = sorted((h << 64) | lo for h, lo in zip(his, (2, 9, 1)))
        words = PointSet(np.array(his, dtype=np.uint64), np.array([2, 9, 1], dtype=np.uint64))
        assert len(lexsorts) == calls
        assert words.points == tuple(values) and words == from_ints(values)


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
    with pytest.raises(ValueError, match="unknown sequence kind 'bogus'"):
        SequenceSpec("bogus")
    with pytest.raises(ValueError, match="bad polynomial spec 'poly:1,x'"):
        SequenceSpec.parse("poly:1,x")


def test_sequence_constructors_refuse_non_integers():
    # int() would truncate each of these to an integer spec without a word
    with pytest.raises(TypeError, match="coefficients must be integers, got float"):
        SequenceSpec.poly([0, 0, 1.5])
    with pytest.raises(TypeError, match="lacunary base must be an integer, got float"):
        SequenceSpec.lacunary(2.9)
    for values, name in (([1.7, 2], "float"), ([1, True], "bool"), ([np.float64(3.9)], "float64"),
                         ([np.bool_(True), 2], "bool"), (["3"], "str")):
        with pytest.raises(TypeError, match=f"explicit values must be integers, got {name}$"):
            SequenceSpec.explicit(values)
    with pytest.raises(TypeError, match="got bool"):
        SequenceSpec.poly([0, True])
    # numpy integers of any width are read as the Python ints they hold
    spec = SequenceSpec.poly([np.int8(-3), np.uint64((1 << 64) - 1), 1])
    assert spec.coeffs == (-3, (1 << 64) - 1, 1) and all(type(c) is int for c in spec.coeffs)
    assert SequenceSpec.lacunary(np.int64(3)).base == 3
    assert SequenceSpec.explicit(np.arange(1, 4)).values == (1, 2, 3)


def test_sequence_parse_and_labels():
    assert SequenceSpec.parse("linear").label() == "linear"
    assert SequenceSpec.parse("poly:0,0,1").coeffs == (0, 0, 1)
    assert SequenceSpec.parse("lacunary:3").base == 3
    assert SequenceSpec.parse("lacunary:3").label() == "lacunary:3"
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


def reference_terms(spec, count):
    """The terms one at a time on Python ints, each checked as it is made:
    the exact loop generate_terms once ran, with its OverflowError message."""
    if spec.kind == "explicit" and count > len(spec.values):
        raise ValueError(f"explicit sequence has {len(spec.values)} terms, {count} requested")
    out = []
    for n in range(1, count + 1):
        if spec.kind == "poly":
            acc = 0
            for c in reversed(spec.coeffs):
                acc = acc * n + c
        else:
            acc = spec.base ** n if spec.kind == "lacunary" else spec.values[n - 1]
        if abs(acc) > (1 << 63) - 1:
            raise OverflowError(
                f"term {n} has magnitude {abs(acc)} exceeding the signed 64-bit range")
        out.append(acc)
    return out


def outcome(build, spec, count):
    """The terms as a list, or the type and message of what building raised."""
    try:
        terms = build(spec, count)
    except (OverflowError, ValueError) as exc:
        return type(exc), str(exc)
    if build is generate_terms:
        assert isinstance(terms, np.ndarray) and terms.dtype == np.int64
        terms = terms.tolist()
    return terms


def test_generate_terms_int64_path_matches_python_loop():
    edge = (1 << 62) // 10 ** 6
    cases = [((0, 0, 1), 1000), ((3, -7, 0, 2), 500), ((5, 3, -(1 << 40)), 700),
             ((0, 0, edge - 1), 1000),  # just under the 2^62 bound: int64 path
             ((0, 0, edge + 1), 1000),  # just over it, terms still fit: Python ints
             ((1, 1), 0), ((5, 0, -(1 << 70)), 0),  # count 0, a coefficient past int64
             # partial sums pass the bound while every term fits
             ((-4611686018427387904, 0, 1), 2000)]
    rng = np.random.default_rng(59)
    for bits in (62, 63, 64, 65):  # coefficients past 2^62 and 2^64
        for _ in range(20):
            coeffs = [int(c) << (bits - 40) for c in rng.integers(-(1 << 40), 1 << 40, 4)]
            coeffs[-1] = coeffs[-1] or 1
            cases.append((tuple(coeffs[:int(rng.integers(2, 5))]), int(rng.integers(0, 50))))
    specs = [(SequenceSpec.poly(coeffs), count) for coeffs, count in cases]
    specs += [(SequenceSpec.lacunary(3), 0), (SequenceSpec.explicit([1 << 63]), 0)]
    for spec, count in specs:
        assert outcome(generate_terms, spec, count) == outcome(reference_terms, spec, count)


def test_generate_terms_holds_two_arrays_of_terms():
    # the index array and the Horner accumulator, 8 bytes a term each,
    # updated in place: no temporary per coefficient
    count = 1 << 16
    tracemalloc.start()
    try:
        terms = generate_terms(SequenceSpec.poly((0, 0, 1)), count)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert terms.tolist() == [n * n for n in range(1, count + 1)]
    assert peak <= 17 * count


def test_generate_terms_on_python_ints_holds_56_bytes_a_term():
    # past the size bound Horner runs on Python ints in place, the index
    # array is freed before the range check, and the check compares with
    # the bounds instead of copying the terms' magnitudes
    count = 1 << 17
    tracemalloc.start()
    try:
        terms = generate_terms(SequenceSpec.poly((-4611686018427387904, 0, 1)), count)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert terms[-1] == count * count - (1 << 62)
    assert peak <= 56 * count


def test_generate_terms_overflow_names_index():
    # 2^63 first exceeds the signed 64-bit range at n = 63
    with pytest.raises(OverflowError, match="term 63"):
        generate_terms(SequenceSpec.lacunary(2), 70)
    with pytest.raises(OverflowError, match="term 2"):
        generate_terms(SequenceSpec.poly([0, 1 << 62]), 5)
    with pytest.raises(ValueError, match="count must be nonnegative"):
        generate_terms(SequenceSpec.linear(), -1)
    # the linear term 2^63 is refused by its bound before any array is
    # asked for: np.arange(1, 2^63 + 1) returns an empty array, not an error
    with pytest.raises(OverflowError, match=f"term {1 << 63} exceeds the signed 64-bit range"):
        generate_terms(SequenceSpec.linear(), 1 << 63)
    specs = [(SequenceSpec.linear(), 0)]
    for base in range(2, 13):  # around each base's first term past the range
        first = next(n for n in range(1, 64) if base ** n > (1 << 63) - 1)
        specs += [(SequenceSpec.lacunary(base), count)
                  for count in (first - 1, first, first + 1, 100)]
    big = 1 << 63  # one past the range, either sign, at index 1, 2 and 3
    for at in range(3):
        for value in (big, -big, big - 1, -big + 1):
            values = [5, -7, 11]
            values[at] = value
            specs += [(SequenceSpec.explicit(values), count) for count in range(5)]
    for spec, count in specs:
        assert outcome(generate_terms, spec, count) == outcome(reference_terms, spec, count)
    assert outcome(generate_terms, SequenceSpec.lacunary(3), 45) == (
        OverflowError, f"term 40 has magnitude {3 ** 40} exceeding the signed 64-bit range")


def test_generate_terms_coefficient_past_int64_names_term_1():
    # a coefficient beyond +-(2^63 - 1) fails the size bound, and the first
    # term on Python ints is already out of range
    for coeffs in ((0, 1 << 63), (-(1 << 63) - 1, 1), (0, 0, -(1 << 64))):
        with pytest.raises(OverflowError, match="term 1 "):
            generate_terms(SequenceSpec.poly(coeffs), 3)


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
    with pytest.raises(ValueError, match="count must be nonnegative"):
        continued_fraction_convergents(Alpha.golden(), -1)
