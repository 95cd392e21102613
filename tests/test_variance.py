import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate

import numpy as np
import pytest

from numvar.baselines import sample_uniform
from numvar.points import GRID_ONE, Alpha, PointSet, dilate_mod1
import numvar.variance
from pointsets import from_ints
from numvar.variance import (VarianceRecord, WindowAccumulator, _add128, _grid_width,
                             _keys128, _limb_dot, _limbs, _sub128, _weighted_sum128,
                             as_dyadic, variance_pairwise, variance_sweep)


def from_values(values) -> PointSet:
    """PointSet of exact fractions/floats in [0, 1), floored to the grid."""
    grid = []
    for v in values:
        f = Fraction(v)
        if not 0 <= f < 1:
            raise ValueError("point values must lie in [0, 1)")
        grid.append((f.numerator * GRID_ONE) // f.denominator)
    return from_ints(sorted(grid))


def counting_function(points: PointSet, s, y) -> int:
    """S_N(y): points in the circular half-open arc [y - S/2, y + S/2).

    y may be a float or Fraction; the boundary is resolved exactly by a
    search over the 128-bit keys.  The Monte Carlo oracle for the sweep.
    """
    width = _grid_width(s)
    if width == 0 or points.n == 0:
        return 0
    yf = Fraction(y) % 1
    # Integer grid positions in [y - S/2, y + S/2) are [ceil(Y - w/2), ceil(Y + w/2))
    # with Y = y * 2^128; w is even so the two bounds differ by exactly w.
    lo = math.ceil(yf * GRID_ONE - (width >> 1)) % GRID_ONE
    hi = lo + width
    keys = _keys128(points.hi, points.lo)

    def below(x: int) -> int:  # points < x, for x in [0, 2^128]
        if x == GRID_ONE:
            return points.n
        return int(np.searchsorted(keys, x.to_bytes(16, "big"), side="left"))

    if hi <= GRID_ONE:
        return below(hi) - below(lo)
    return (points.n - below(lo)) + below(hi - GRID_ONE)


@dataclass(frozen=True)
class TentKernel:
    """The triangle psi_{S/2} = indicator[-S/2,S/2) * indicator[-S/2,S/2).

    Peak value S at 0, support [-S, S], unit slopes: psi(t) = max(S - |t|, 0).
    The pairwise route sums its periodization over point pairs.
    """

    s: Fraction

    def __post_init__(self):
        object.__setattr__(self, "s", as_dyadic(self.s))

    def value(self, t):
        """psi_{S/2}(t); exact when t is a Fraction or int."""
        s = float(self.s) if isinstance(t, float) else self.s
        mag = s - abs(t)
        return mag if mag > 0 else 0 * mag

    def periodized(self, t):
        """sum_j psi_{S/2}(t + j) for t in [0, 1); only j in {-1, 0} contribute."""
        return self.value(t) + self.value(t - 1)

    @property
    def l1(self) -> Fraction:
        return self.s * self.s

    @property
    def l2_squared(self) -> Fraction:
        return 2 * self.s ** 3 / 3

    @property
    def peak(self) -> Fraction:
        return self.s


def periodized_tent(s, t):
    """sum_j psi_{S/2}(t + j) for t reduced mod 1."""
    return TentKernel(as_dyadic(s)).periodized(t % 1)


def brute_count(points: PointSet, s, y) -> int:
    """Independent oracle: -S/2 <= x - y + j < S/2 over j in {-1, 0, 1}."""
    sf = Fraction(s)
    half = sf / 2
    yf = Fraction(y)
    total = 0
    for p in points.points:
        x = Fraction(p, GRID_ONE)
        if any(-half <= x - yf + j < half for j in (-1, 0, 1)):
            total += 1
    return total


def brute_variance(points: PointSet, s) -> Fraction:
    """Integrate S_N^2 segment by segment with brute counting per segment."""
    sf = Fraction(s)
    half = sf / 2
    cuts = {Fraction(0), Fraction(1)}
    for p in points.points:
        x = Fraction(p, GRID_ONE)
        cuts.add((x - half) % 1)
        cuts.add((x + half) % 1)
    cuts = sorted(cuts)
    integral = Fraction(0)
    for a, b in zip(cuts, cuts[1:]):
        integral += brute_count(points, sf, (a + b) / 2) ** 2 * (b - a)
    n = points.n
    return integral - (n * sf) ** 2


def reference_tent_pair_sum(points: PointSet, width: int) -> int:
    """The bignum loop WindowAccumulator.tent_pair_sum replaced: a sliding
    window over the doubled point list with Python-int prefix sums."""
    pts = points.points
    n = len(pts)
    if n < 2 or width == 0:
        return 0
    doubled = list(pts) + [p + GRID_ONE for p in pts]
    prefix = [0] + list(accumulate(doubled))
    coincident = 0
    run = 1
    for i in range(1, n):
        if pts[i] == pts[i - 1]:
            run += 1
        else:
            coincident += run * (run - 1)
            run = 1
    coincident += run * (run - 1)
    total = 0
    lo_i = hi_i = 0
    for p in pts:
        v = p + GRID_ONE
        while hi_i < 2 * n and doubled[hi_i] <= v:
            hi_i += 1
        while doubled[lo_i] <= v - width:
            lo_i += 1
        total += (hi_i - lo_i) * (width - v) + (prefix[hi_i] - prefix[lo_i])
    total -= n * width
    return 2 * total - coincident * width


def reference_sweep(points: PointSet, s, *, exact: bool = False):
    """The event loop variance_sweep replaced: a dict of Python-int arc
    endpoints, walked in sorted order with the running count squared."""
    width = int(as_dyadic(s) * GRID_ONE)
    n = points.n
    if n == 0 or width == 0:
        return Fraction(0) if exact else 0.0
    half = width >> 1
    events = {}
    base = 0
    for p in points.points:
        start = (p - half) % GRID_ONE
        end = start + width
        if end >= GRID_ONE:
            base += 1
            end -= GRID_ONE
        events[start] = events.get(start, 0) + 1
        events[end] = events.get(end, 0) - 1
    integral = 0
    level = base
    prev = 0
    for pos in sorted(events):
        integral += level * level * (pos - prev)
        level += events[pos]
        prev = pos
    integral += level * level * (GRID_ONE - prev)
    assert level == base
    v = Fraction(integral * GRID_ONE - (n * width) ** 2, GRID_ONE * GRID_ONE)
    return v if exact else float(v)


def _squares_dilated(alpha: Alpha, n: int) -> PointSet:
    return dilate_mod1([k * k for k in range(1, n + 1)], alpha)


_ALPHAS = dict(zip(("random0", "random1"), Alpha.random_stream(2, 2024)),
               rat3_1024=Alpha.parse("rat:3/1024"))
_POINT_SETS = {f"{name}-N{n}": _squares_dilated(alpha, n)
               for name, alpha in _ALPHAS.items() for n in (0, 1, 2, 10 ** 4)}
_POINT_SETS["piled-at-0-and-max"] = from_ints(
    (0,) * 40 + (1, GRID_ONE // 2) + (GRID_ONE - 1,) * 40)
_POINT_SETS["piled-at-max"] = from_ints((GRID_ONE - 1,) * 7)
# at S = 2^-64 the arc end of 1 (2^63 + 1) and the arc start of 2^64 + 2
# (2^63 + 2) share a high word, so the sweep's merge must read the low words
_POINT_SETS["shared-high-word"] = from_ints(
    (1, (1 << 64) + 2, (1 << 64) + 3, GRID_ONE - 1))


@pytest.mark.parametrize("name", list(_POINT_SETS))
def test_tent_pair_sum_matches_reference_loop(name):
    points = _POINT_SETS[name]
    acc = WindowAccumulator(points)
    for s in (Fraction(1, 1 << 64), Fraction(1, 1 << 12), Fraction(1, 2), 1):
        width = int(s * GRID_ONE)
        assert acc.tent_pair_sum(width) == reference_tent_pair_sum(points, width)
    for width in (1, 3 * (1 << 64) + 5, GRID_ONE - 1):  # off the 2^-64 lattice
        assert acc.tent_pair_sum(width) == reference_tent_pair_sum(points, width)


def test_limb_dot_chunks_or_refuses_large_weights():
    points = from_ints((GRID_ONE - 3, GRID_ONE - 2, GRID_ONE - 1))
    limbs = _limbs(points)
    # 2^30 * (2^32 - 1) * 3 > 2^63: one unchunked int64 dot would wrap, and at
    # |weight| = 2^31 a chunk holds one entry
    for top in (1 << 30, 1 << 31, -(1 << 30), -(1 << 31)):
        weights = np.array([top, top - np.sign(top), top], dtype=np.int64)
        want = sum(int(w) * p for w, p in zip(weights, points.points))
        assert _limb_dot(weights, limbs) == want
    with pytest.raises(OverflowError):
        _limb_dot(np.array([1, (1 << 31) + 1, 1], dtype=np.int64), limbs)


_LATTICE_WIDTHS = [GRID_ONE >> v for v in range(1, 13)] + [1 << 64]


def test_search_keys_are_built_at_the_first_tie():
    sample = list(sample_uniform(1000, 31).points.points)
    step = GRID_ONE >> 7
    # q = p + 2^-7 puts q's target at width 2^-7 on p itself; q + 1's target
    # shares p's high word and lies above p by its low word
    p = next(x for x in sample if x < GRID_ONE - 2 * step)
    points = from_ints(sorted(sample + [p + step, p + step + 1]))
    acc = WindowAccumulator(points)
    first = acc.tent_pair_sum(GRID_ONE >> 5)
    assert acc._keys is None
    assert first == reference_tent_pair_sum(points, GRID_ONE >> 5)
    assert acc.tent_pair_sum(step) == reference_tent_pair_sum(points, step)
    assert acc._keys is not None
    assert acc.tent_pair_sum(GRID_ONE >> 5) == first
    for width in _LATTICE_WIDTHS:
        assert acc.variance(Fraction(width, GRID_ONE), exact=True) == variance_sweep(
            points, Fraction(width, GRID_ONE), exact=True)


@pytest.mark.parametrize("alpha", ["rat:1/2", "rat:3/1024", "0"])
def test_tent_pair_sum_on_clustered_sets(alpha):
    points = _squares_dilated(Alpha(0) if alpha == "0" else Alpha.parse(alpha), 2000)
    acc = WindowAccumulator(points)
    for width in _LATTICE_WIDTHS:
        assert acc.tent_pair_sum(width) == reference_tent_pair_sum(points, width)


def test_tent_pair_sum_with_chunked_limb_dot(monkeypatch):
    # N distinct points spread over 2^32 consecutive high words, an arc far
    # shorter than S: point k's weight is about N - 2k and its second limb
    # about k 2^32 / N, so that limb's sum is about -N^2 2^32 / 6, past -2^63;
    # an unchunked int64 dot would wrap
    n = 200_000
    hi = (1 << 62) + np.arange(n, dtype=np.uint64) * np.uint64((1 << 32) // n)
    points = PointSet(hi, np.zeros(n, dtype=np.uint64))
    chunks = []
    real = numvar.variance._limb_dot

    def counting_dot(weights, limbs):
        per_entry = int(np.abs(weights).max()) * numvar.variance._LIMB_MAX
        chunks.append(-(-len(weights) // ((1 << 63) // per_entry)))
        return real(weights, limbs)

    monkeypatch.setattr(numvar.variance, "_limb_dot", counting_dot)
    s = Fraction(1, 32)
    assert variance_pairwise(points, s, exact=True) == variance_sweep(points, s, exact=True)
    assert chunks[0] > 1


def test_widths_in_any_order_give_the_same_values():
    for points in (_POINT_SETS["random0-N10000"], _POINT_SETS["rat3_1024-N10000"]):
        acc = WindowAccumulator(points)
        widths = [Fraction(w, GRID_ONE) for w in sorted(_LATTICE_WIDTHS)]
        up = [acc.variance(s, exact=True) for s in widths]
        down = [acc.variance(s, exact=True) for s in reversed(widths)]
        assert up == down[::-1] == [variance_sweep(points, s, exact=True) for s in widths]


def test_accumulator_memory_per_point():
    points = _POINT_SETS["random0-N10000"]
    acc = WindowAccumulator(points)
    for width in _LATTICE_WIDTHS[4:12]:  # 2^-5 .. 2^-12, the scan's widths
        acc.tent_pair_sum(width)
    assert acc._keys is None
    owned = sum(v.nbytes for v in vars(acc).values() if isinstance(v, np.ndarray))
    assert owned <= 48 * points.n
    tied = WindowAccumulator(_POINT_SETS["rat3_1024-N10000"])
    tied.tent_pair_sum(GRID_ONE >> 5)
    assert tied._keys is not None


_SWEEP_WIDTHS = (Fraction(1, 32), Fraction(15, 64), Fraction(1, 2), Fraction(1, 1 << 64),
                 Fraction(3, 1 << 40), 1)


@pytest.mark.parametrize("n", (1, 2, 7, 100, 10 ** 4))
@pytest.mark.parametrize("kind", ("uniform", "rat3_1024", "alpha0"))
def test_sweep_matches_reference_loop(n, kind):
    if kind == "uniform":
        pts = sample_uniform(n, 1000 + n).points
    else:
        alpha = Alpha.parse("rat:3/1024") if kind == "rat3_1024" else Alpha(0)
        pts = _squares_dilated(alpha, n)  # alpha = 0 puts every point at 0
    for s in _SWEEP_WIDTHS:
        assert variance_sweep(pts, s, exact=True) == reference_sweep(pts, s, exact=True)


@pytest.mark.parametrize("name", ["piled-at-0-and-max", "piled-at-max", "shared-high-word",
                                  "random0-N10000"])
def test_sweep_matches_reference_on_crafted_points(name):
    points = _POINT_SETS[name]
    for s in _SWEEP_WIDTHS:
        assert variance_sweep(points, s, exact=True) == reference_sweep(points, s, exact=True)


def test_sweep_is_independent_of_the_pairwise_engine(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("variance_sweep reached the pairwise engine")

    pts = sample_uniform(500, 77).points
    want = reference_sweep(pts, Fraction(3, 64), exact=True)
    for name in ("WindowAccumulator", "_limb_dot", "_limbs"):
        monkeypatch.setattr(numvar.variance, name, refuse)
    assert variance_sweep(pts, Fraction(3, 64), exact=True) == want


_WORD_EDGES = (0, 1, (1 << 64) - 1, 1 << 64, (1 << 64) + 1, (1 << 127) - 1, 1 << 127,
               GRID_ONE - (1 << 64), GRID_ONE - (1 << 64) + 1, GRID_ONE - 2, GRID_ONE - 1)


def _words(values):
    return (np.array([v >> 64 for v in values], dtype=np.uint64),
            np.array([v & ((1 << 64) - 1) for v in values], dtype=np.uint64))


def test_sweep_word_helpers_match_python_ints():
    hi, lo = _words(_WORD_EDGES)
    for c in _WORD_EDGES:
        for op, want in ((_add128, lambda v: (v + c) % GRID_ONE),
                         (_sub128, lambda v: (v - c) % GRID_ONE)):
            got_hi, got_lo = op(hi, lo, c)
            got = [(int(h) << 64) | int(l) for h, l in zip(got_hi, got_lo)]
            assert got == [want(v) for v in _WORD_EDGES]
    keys = _keys128(hi, lo)
    assert keys.tobytes() == b"".join(v.to_bytes(16, "big") for v in _WORD_EDGES)
    shuffled = np.random.default_rng(5).permutation(len(_WORD_EDGES))
    assert list(np.argsort(keys[shuffled], kind="stable")) == list(np.argsort(shuffled))
    for v in _WORD_EDGES:  # the searches variance_sweep makes for its rotations
        assert np.searchsorted(keys, v.to_bytes(16, "big")) == _WORD_EDGES.index(v)


def test_sweep_weighted_sum_chunks_or_refuses_large_weights():
    hi, lo = _words(_WORD_EDGES)
    rng = np.random.default_rng(3)
    for bound in (1, 5, 1 << 20, (1 << 31) - 2):  # the largest needs one product per run
        weights = rng.integers(-bound, bound + 1, len(_WORD_EDGES))
        want = sum(int(w) * v for w, v in zip(weights, _WORD_EDGES))
        assert _weighted_sum128(weights, hi, lo) == want
    assert _weighted_sum128(np.zeros(0, np.int64), hi[:0], lo[:0]) == 0
    with pytest.raises(OverflowError):
        _weighted_sum128(np.full(len(_WORD_EDGES), 1 << 31), hi, lo)


def test_as_dyadic_validation():
    assert as_dyadic(Fraction(3, 8)) == Fraction(3, 8)
    assert as_dyadic(0.25) == Fraction(1, 4)
    assert as_dyadic(1) == 1
    with pytest.raises(ValueError):
        as_dyadic(Fraction(1, 3))
    with pytest.raises(ValueError):
        as_dyadic(Fraction(1, 1 << 65))
    with pytest.raises(ValueError):
        as_dyadic(Fraction(9, 8))
    with pytest.raises(ValueError):
        as_dyadic(-0.5)


def test_periodized_tent_examples():
    assert periodized_tent(Fraction(1, 2), 0) == Fraction(1, 2)
    assert periodized_tent(Fraction(1, 4), Fraction(1, 4)) == 0
    assert periodized_tent(Fraction(1, 2), Fraction(1, 4)) == Fraction(1, 4)
    # wraparound side: t just below 1 sits close to the peak
    assert periodized_tent(Fraction(1, 2), Fraction(7, 8)) == Fraction(3, 8)
    with pytest.raises(ValueError):
        periodized_tent(Fraction(3, 2), 0)


def test_tent_norms_by_quadrature():
    kern = TentKernel(Fraction(3, 16))
    s = float(kern.s)
    xs = np.linspace(-1.0, 1.0, 200001)
    vals = np.array([kern.value(float(x)) for x in xs])
    dx = xs[1] - xs[0]
    assert abs(np.trapezoid(vals, dx=dx) - s * s) < 1e-6
    assert abs(np.trapezoid(vals ** 2, dx=dx) - 2 * s ** 3 / 3) < 1e-6
    assert abs(vals.max() - s) < 1e-12
    assert kern.l1 == Fraction(3, 16) ** 2
    assert kern.l2_squared == 2 * Fraction(3, 16) ** 3 / 3
    assert kern.peak == Fraction(3, 16)


def test_counting_examples():
    pts = from_values([0.1, 0.2, 0.9])
    assert counting_function(pts, 0.4, 0) == 2
    assert counting_function(from_values([0.5]), 1, 0.37) == 1
    assert counting_function(from_ints(()), Fraction(1, 2), 0) == 0


def test_counting_boundary_convention():
    pts = from_values([Fraction(1, 4), Fraction(3, 4)])
    s = Fraction(1, 2)
    # arc [0, 1/2): 1/4 in, 3/4 out; arc [1/4, 3/4): 1/4 in, 3/4 out
    assert counting_function(pts, s, Fraction(1, 4)) == 1
    assert counting_function(pts, s, Fraction(1, 2)) == 1
    # y = 0 wraps: [3/4, 1) u [0, 1/4) contains 3/4 only
    assert counting_function(pts, s, 0) == 1
    # the arc [1/2, 1) ends exactly at 1, so the last grid point is inside
    edge = from_ints((GRID_ONE // 2 - 1, GRID_ONE // 2, GRID_ONE - 1))
    assert counting_function(edge, s, Fraction(3, 4)) == 2


def test_counting_against_brute_force():
    rng = np.random.default_rng(7)
    for _ in range(25):
        n = int(rng.integers(0, 12))
        pts = from_ints(tuple(sorted(int(rng.integers(0, 1 << 63)) << 65
                                              for _ in range(n))))
        v = int(rng.integers(1, 17))
        s = Fraction(int(rng.integers(1, 1 << v)), 1 << v)
        for _ in range(8):
            y = Fraction(int(rng.integers(0, 1024)), 1024)
            assert counting_function(pts, s, y) == brute_count(pts, s, y)


def test_variance_pairwise_examples():
    single = from_values([Fraction(2, 5)])
    assert variance_pairwise(single, Fraction(1, 4), exact=True) == Fraction(3, 16)
    spaced = from_values([0, Fraction(1, 2)])
    assert variance_pairwise(spaced, Fraction(1, 2), exact=True) == 0
    coincident = from_ints((0, 0))
    assert variance_pairwise(coincident, Fraction(1, 2), exact=True) == 1


def test_variance_sweep_examples():
    single = from_values([Fraction(2, 5)])
    assert variance_sweep(single, Fraction(1, 4), exact=True) == Fraction(3, 16)
    spaced = from_values([0, Fraction(1, 2)])
    assert variance_sweep(spaced, Fraction(1, 2), exact=True) == 0
    # 100 points at 0 and 100 at 1/2: S_N = 100 on measure 1/2, so the
    # integral is 5000 and V = 5000 - (200/4)^2 = 2500
    piled = from_ints((0,) * 100 + (GRID_ONE // 2,) * 100)
    assert variance_sweep(piled, Fraction(1, 4), exact=True) == 2500
    assert variance_pairwise(piled, Fraction(1, 4), exact=True) == 2500


def test_variance_degenerate_ends():
    pts = dilate_mod1([1, 2, 3, 5, 8], Alpha.golden())
    assert variance_pairwise(pts, 0, exact=True) == 0
    assert variance_pairwise(pts, 1, exact=True) == 0
    assert variance_sweep(pts, 0, exact=True) == 0
    assert variance_sweep(pts, 1, exact=True) == 0


def test_variance_shift_invariance():
    pts = dilate_mod1([k * k for k in range(1, 60)], Alpha.golden())
    s = Fraction(3, 32)
    base = variance_pairwise(pts, s, exact=True)
    for shift in (123456789, GRID_ONE // 3, GRID_ONE - 1):
        moved = from_ints(tuple(sorted((p + shift) % GRID_ONE for p in pts.points)))
        assert variance_pairwise(moved, s, exact=True) == base


def test_variance_lower_bound_invariant():
    rng = np.random.default_rng(21)
    for _ in range(20):
        n = int(rng.integers(1, 50))
        pts = sample_uniform(n, int(rng.integers(0, 2 ** 63))).points
        s = Fraction(int(rng.integers(1, 64)), 64)
        v = variance_pairwise(pts, s, exact=True)
        assert v >= -(n * s) ** 2


def test_routes_agree_exactly_on_random_instances():
    rng = np.random.default_rng(11)
    for i in range(60):
        n = int(rng.integers(1, 400))
        if i % 2:
            pts = sample_uniform(n, int(rng.integers(0, 2 ** 63))).points
        else:
            alpha = Alpha.random_stream(1, int(rng.integers(0, 2 ** 63)))[0]
            pts = dilate_mod1([k * k for k in range(1, n + 1)], alpha)
        v = int(rng.integers(1, 65))
        s = Fraction(int(rng.integers(1, 1 << min(v, 20))), 1 << v) % 1
        if s == 0:
            s = Fraction(1, 1 << v)
        a = variance_pairwise(pts, s, exact=True)
        b = variance_sweep(pts, s, exact=True)
        assert a == b
        fa, fb = variance_pairwise(pts, s), variance_sweep(pts, s)
        assert abs(fa - fb) <= 1e-9 * max(1.0, abs(fa))


def test_routes_match_brute_force_oracle():
    rng = np.random.default_rng(13)
    for _ in range(12):
        n = int(rng.integers(1, 40))
        pts = sample_uniform(n, int(rng.integers(0, 2 ** 63))).points
        s = Fraction(int(rng.integers(1, 256)), 256)
        assert variance_sweep(pts, s, exact=True) == brute_variance(pts, s)


def test_sweep_consistent_with_counting_mc():
    pts = dilate_mod1([k * k for k in range(1, 150)], Alpha.sqrt2m1())
    s = Fraction(5, 64)
    exact = variance_sweep(pts, s)
    n, ns = pts.n, pts.n * float(s)
    rng = np.random.default_rng(17)
    ys = rng.random(10 ** 5)
    samples = np.array([(counting_function(pts, s, float(y)) - ns) ** 2 for y in ys])
    se = samples.std(ddof=1) / math.sqrt(len(samples))
    assert abs(samples.mean() - exact) <= 3 * se


def test_window_accumulator_reuse_matches_single_shot():
    pts = dilate_mod1(range(1, 200), Alpha.golden())
    acc = WindowAccumulator(pts)
    for v in range(1, 9):
        s = Fraction(1, 1 << v)
        assert acc.variance(s, exact=True) == variance_pairwise(pts, s, exact=True)


def test_variance_record_build():
    rec = VarianceRecord(100, Fraction(1, 4), Alpha.golden(), 625.0)
    assert rec.ratio == 25.0
    assert VarianceRecord(100, Fraction(0), Alpha.golden(), 0.0).ratio is None
    assert VarianceRecord(0, Fraction(1, 4), Alpha.golden(), 0.0).ratio is None
    assert rec.s == Fraction(1, 4)
