import math
import tracemalloc
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate

import numpy as np
import pytest

from numvar.baselines import sample_uniform
from numvar.points import GRID_ONE, Alpha, PointSet, SequenceSpec, dilate_mod1, generate_terms
import numvar.variance
from pointsets import from_ints
from numvar.variance import (VarianceRecord, WindowAccumulator, _grid_width, _limb_dot,
                             _sub128, _weighted_sum128, as_dyadic, variance_pairwise,
                             variance_sweep)


def from_values(values) -> PointSet:
    """PointSet of exact fractions/floats in [0, 1), floored to the grid."""
    grid = []
    for v in values:
        f = Fraction(v)
        if not 0 <= f < 1:
            raise ValueError("point values must lie in [0, 1)")
        grid.append((f.numerator * GRID_ONE) // f.denominator)
    return from_ints(sorted(grid))


def _keys128(hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """128-bit values as 16-byte big-endian strings, whose order is numeric."""
    words = np.empty((len(hi), 2), dtype=">u8")
    words[:, 0], words[:, 1] = hi, lo
    return words.view("S16").ravel()


def counting_function(points: PointSet, s, y) -> int:
    """S_N(y): points in the circular half-open arc [y - S/2, y + S/2).

    y may be a float or Fraction; the boundary is resolved exactly by a
    search over the 128-bit keys, built here so that the oracle shares no
    search with the sweep's PointSet.below.  The Monte Carlo oracle for the
    sweep.
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
# at N = 2^k + 1 the bucket table doubles against N = 2^k
_POINT_SETS = {f"{name}-N{n}": _squares_dilated(alpha, n) for name, alpha in _ALPHAS.items()
               for n in (0, 1, 2, 1 << 10, (1 << 10) + 1, 10 ** 4)}
_POINT_SETS["piled-at-0-and-max"] = from_ints(
    (0,) * 40 + (1, GRID_ONE // 2) + (GRID_ONE - 1,) * 40)
# every point in the last bucket, so a rank runs past N - 1
_POINT_SETS["piled-at-max"] = from_ints((GRID_ONE - 1,) * 7)
_POINT_SETS["two-at-max"] = from_ints((GRID_ONE - 1,) * 2)
# every target below 0 wraps into buckets past the last point, which start at N
_POINT_SETS["piled-at-0"] = from_ints((0,) * 5 + (1,))
# at S = 2^-64 the arc end of 1 (2^63 + 1) and the arc start of 2^64 + 2
# (2^63 + 2) share a high word, so the sweep's merge must read the low words
_POINT_SETS["shared-high-word"] = from_ints(
    (1, (1 << 64) + 2, (1 << 64) + 3, GRID_ONE - 1))


def _assert_width(acc: WindowAccumulator, width: int):
    """tent_pair_sum against the reference loop, and the bucket rank of the
    width's targets (the high words of t_k - width) against a binary search."""
    points = acc.points
    if points.n >= 2:  # fewer points need no ranks
        t_hi = _sub128(points.hi, points.lo, width % GRID_ONE)[0]
        assert np.array_equal(acc._rank(t_hi), np.searchsorted(points.hi, t_hi, side="right"))
    assert acc.tent_pair_sum(width) == reference_tent_pair_sum(points, width)


_OFF_LATTICE_WIDTHS = (1, 3 * (1 << 64) + 5, GRID_ONE - 1)  # off the 2^-64 lattice


@pytest.mark.parametrize("name", list(_POINT_SETS))
def test_tent_pair_sum_matches_reference_loop(name):
    points = _POINT_SETS[name]
    acc = WindowAccumulator(points)
    for s in (Fraction(1, 1 << 64), Fraction(1, 1 << 12), Fraction(1, 2), 1):
        _assert_width(acc, int(s * GRID_ONE))
    for width in _OFF_LATTICE_WIDTHS:
        _assert_width(acc, width)
    if points.n >= 2:
        hi = points.hi
        edges = np.array([0, 1, 1 << 63, (1 << 64) - 2, (1 << 64) - 1], dtype=np.uint64)
        for targets in (hi, hi - np.uint64(1), hi + np.uint64(1), edges):
            assert np.array_equal(acc._rank(targets), np.searchsorted(hi, targets, side="right"))


@pytest.mark.parametrize("points", [_squares_dilated(Alpha(0), 10 ** 4),
                                    _POINT_SETS["piled-at-max"]],
                         ids=["alpha0-squares", "piled-at-max"])
def test_rank_past_the_last_point_is_not_searched(monkeypatch, points):
    # every target here ranks at N or reads a point above it: no binary search
    acc = WindowAccumulator(points)
    targets = [_sub128(points.hi, points.lo, int(s * GRID_ONE))[0]
               for s in (Fraction(1, 1 << v) for v in range(5, 13))]
    want = [np.searchsorted(points.hi, t, side="right") for t in targets]
    searches = []
    real = np.searchsorted

    def counted(*args, **kwargs):
        searches.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(np, "searchsorted", counted)
    ranks = [acc._rank(t) for t in targets]
    assert searches == []
    assert all(np.array_equal(r, w) for r, w in zip(ranks, want))


def test_limb_dot_chunks_or_refuses_large_weights():
    points = from_ints((GRID_ONE - 3, GRID_ONE - 2, GRID_ONE - 1))
    # 2^30 * (2^32 - 1) * 3 > 2^63: one unchunked int64 dot would wrap, and at
    # |weight| = 2^31 a chunk holds one entry
    for top in (1 << 30, 1 << 31, -(1 << 30), -(1 << 31)):
        weights = np.array([top, top - np.sign(top), top], dtype=np.int64)
        want = sum(int(w) * p for w, p in zip(weights, points.points))
        assert _limb_dot(weights, points) == want
    with pytest.raises(OverflowError):
        _limb_dot(np.array([1, (1 << 31) + 1, 1], dtype=np.int64), points)


_LATTICE_WIDTHS = [GRID_ONE >> v for v in range(1, 13)] + [1 << 64]


def test_targets_that_tie_a_high_word_are_settled_by_low_words():
    sample = list(sample_uniform(1000, 31).points.points)
    step = GRID_ONE >> 7
    # q = p + 2^-7 puts q's target at width 2^-7 on p itself; q + 1's target
    # shares p's high word and lies above p by its low word
    p = next(x for x in sample if x < GRID_ONE - 2 * step)
    points = from_ints(sorted(sample + [p + step, p + step + 1]))
    acc = WindowAccumulator(points)
    first = acc.tent_pair_sum(GRID_ONE >> 5)
    assert first == reference_tent_pair_sum(points, GRID_ONE >> 5)
    assert acc.tent_pair_sum(step) == reference_tent_pair_sum(points, step)
    assert acc.tent_pair_sum(GRID_ONE >> 5) == first
    for width in _LATTICE_WIDTHS:
        assert acc.variance(Fraction(width, GRID_ONE), exact=True) == variance_sweep(
            points, Fraction(width, GRID_ONE), exact=True)


_RUN_LENGTHS = (1, 2, 3, 4, 7, 8, 9, 255, 256, 257)


def _tied_runs() -> PointSet:
    """Runs of points that share a high word, each with a copy one high word up.

    At S = 2^-64 the targets of a copy are the run's own points, so every one
    ties the run's high word and equals a point.  Low words are all 0 (a run of
    equal points), random and sorted, or random with 2^64 - 1.  The first run
    sits at high word 0, so it starts at index 0 and its copy's targets settle
    there, and its own targets wrap (the wrap prefix) to high word 2^64 - 1,
    where the last run's copy ends at N.
    """
    rng = np.random.default_rng(18)
    runs = []
    for length in _RUN_LENGTHS:
        runs.append([0] * length)
        runs.append(sorted(int(x) for x in rng.integers(0, 1 << 64, length, dtype=np.uint64)))
        runs.append(sorted(int(x) for x in rng.integers(0, 1 << 64, length - 1,
                                                        dtype=np.uint64)) + [(1 << 64) - 1])
    rng.shuffle(runs)
    highs = [0] + [3 * k for k in range(1, len(runs) - 1)] + [(1 << 64) - 2]
    values = [((h + up) << 64) | low for h, run in zip(highs, runs) for up in (0, 1)
              for low in run]
    return from_ints(sorted(values))


def test_tie_search_at_run_length_edges():
    points = _tied_runs()
    assert np.count_nonzero(np.isin(points.hi - np.uint64(1), points.hi)) >= points.n // 2
    acc = WindowAccumulator(points)
    for width in (1 << 64, (1 << 64) - 1, (1 << 64) + 1, 3 << 64, GRID_ONE >> 12):
        _assert_width(acc, width)
    for k in (1, 2, 3):  # S = k / 2^64
        s = Fraction(k, 1 << 64)
        assert acc.variance(s, exact=True) == variance_sweep(points, s, exact=True)


def test_tie_search_over_many_blocks_of_targets():
    # the high words of rat:5/65536 with random low words: more than 2^14 targets
    # tie at S = 1/256, so the tie search takes them in blocks
    hi = _squares_dilated(Alpha.parse("rat:5/65536"), 40_000).hi
    points = PointSet(hi, np.random.default_rng(7).integers(0, 1 << 64, len(hi),
                                                            dtype=np.uint64))
    t_hi = points.hi - np.uint64(1 << 56)
    tied = points.hi[np.searchsorted(points.hi, t_hi, side="right") - 1] == t_hi
    assert np.count_nonzero(tied) > 2 << 14
    acc = WindowAccumulator(points)
    for s in (Fraction(1, 256), Fraction(3, 1024), Fraction(1, 1 << 16)):
        assert acc.variance(s, exact=True) == variance_sweep(points, s, exact=True)


@pytest.mark.parametrize("alpha", ["rat:1/2", "rat:3/1024", "0"])
def test_tent_pair_sum_on_clustered_sets(alpha):
    points = _squares_dilated(Alpha(0) if alpha == "0" else Alpha.parse(alpha), 2000)
    acc = WindowAccumulator(points)
    for width in _LATTICE_WIDTHS + list(_OFF_LATTICE_WIDTHS):
        _assert_width(acc, width)


def test_tent_pair_sum_refuses_widths_off_the_circle():
    acc = WindowAccumulator(_squares_dilated(Alpha.golden(), 50))
    for width in (-1, GRID_ONE + 1):
        with pytest.raises(ValueError, match="outside"):
            acc.tent_pair_sum(width)
    assert acc.tent_pair_sum(GRID_ONE) == 50 * 49 * GRID_ONE


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

    def counting_dot(weights, points):
        per_entry = int(np.abs(weights).max()) * numvar.variance._LIMB_MAX
        chunks.append(-(-len(weights) // ((1 << 63) // per_entry)))
        return real(weights, points)

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
    # the bucket table doubles from N = 2^14 to 2^14 + 1, to nearly 8 bytes per
    # point; a rational alpha ties targets to high words at every width
    sets = [_squares_dilated(_ALPHAS["random0"], n) for n in (10 ** 4, 1 << 14, (1 << 14) + 1)]
    for points in sets + [_POINT_SETS["rat3_1024-N10000"]]:
        acc = WindowAccumulator(points)

        def owned():
            return sum(v.nbytes for v in vars(acc).values() if isinstance(v, np.ndarray))

        built = owned()
        for width in _LATTICE_WIDTHS[4:12]:  # 2^-5 .. 2^-12, the scan's widths
            acc.tent_pair_sum(width)
        assert owned() == built <= 16 * points.n  # upper's weights 8, the bucket table at most 8


def test_scan_cell_peak_memory_per_point():
    # one scan cell: the dilation, the build and the scan's 8 widths; the 16
    # bytes of point words and 16 of accumulator state leave the width kernel
    # and the dilation's sort room for their own temporaries
    n = 1 << 16
    terms = np.arange(1, n + 1, dtype=np.int64) ** 2
    tracemalloc.start()
    try:
        acc = WindowAccumulator(dilate_mod1(terms, _ALPHAS["random1"]))
        for width in _LATTICE_WIDTHS[4:12]:
            acc.tent_pair_sum(width)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 72 * n


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


_NEAR_0 = (0, 1, 5, 1 << 62, (1 << 63) - 1, 1 << 63, (1 << 63) + 3, (1 << 64) - 1)
_NEAR_1 = tuple(GRID_ONE - (1 << 64) + x for x in _NEAR_0)


@pytest.mark.parametrize("points", [_NEAR_0 + _NEAR_1, _NEAR_0[:3] * 2 + _NEAR_1[4:] * 3,
                                    _NEAR_0 + (1 << 127, (1 << 127) + 1) + _NEAR_1],
                         ids=["both-ends", "piled-both-ends", "both-ends-and-middle"])
def test_sweep_merges_wrapped_and_unwrapped_events_in_one_high_word(monkeypatch, points):
    """Points within 2^-64 of 0 and of 1.  Where S/2 has a low word of 2^63,
    an arc start that wraps below 0 shares its high word with one that does
    not (and so do the arc ends past 1), and its run comes first although its
    low words are larger, so the stable argsort leaves them out of order."""
    pts = from_ints(sorted(points))
    lexsorts = []
    real_lexsort = np.lexsort
    monkeypatch.setattr(numvar.variance.np, "lexsort",
                        lambda keys: lexsorts.append(1) or real_lexsort(keys))
    for k in (1, 3, (1 << 62) + 1, (1 << 63) + 1, (1 << 64) - 1):  # S = k/2^64, k odd
        s = Fraction(k, 1 << 64)
        before = len(lexsorts)
        assert variance_sweep(pts, s, exact=True) == variance_pairwise(pts, s, exact=True)
        assert len(lexsorts) == before + 1, k  # the fall-back was taken
    for s in (Fraction(1, 4), Fraction(1, 2), 1):
        assert variance_sweep(pts, s, exact=True) == variance_pairwise(pts, s, exact=True)


def test_sweep_of_a_dyadic_rational_alpha_needs_no_lexsort(monkeypatch):
    """A dyadic rational alpha's squares repeat their high words, with low word
    0, and so do their arc ends: the stable argsort of the high words orders
    the events."""
    lexsorts = []
    real_lexsort = np.lexsort
    monkeypatch.setattr(numvar.variance.np, "lexsort",
                        lambda keys: lexsorts.append(1) or real_lexsort(keys))
    terms = generate_terms(SequenceSpec.poly((0, 0, 1)), 3000)
    pts = dilate_mod1(terms, Alpha.parse("rat:3/1024"))
    for s in (Fraction(1, 64), Fraction(3, 8), Fraction(1, 4096)):
        assert variance_sweep(pts, s, exact=True) == variance_pairwise(pts, s, exact=True)
    assert lexsorts == []


def test_sweep_is_independent_of_the_pairwise_engine(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("variance_sweep reached the pairwise engine")

    pts = sample_uniform(500, 77).points
    want = reference_sweep(pts, Fraction(3, 64), exact=True)
    for name in ("WindowAccumulator", "_limb_dot"):
        monkeypatch.setattr(numvar.variance, name, refuse)
    assert variance_sweep(pts, Fraction(3, 64), exact=True) == want


_WORD_EDGES = (0, 1, (1 << 64) - 1, 1 << 64, (1 << 64) + 1, (1 << 127) - 1, 1 << 127,
               GRID_ONE - (1 << 64), GRID_ONE - (1 << 64) + 1, GRID_ONE - 2, GRID_ONE - 1)


def _words(values):
    return (np.array([v >> 64 for v in values], dtype=np.uint64),
            np.array([v & ((1 << 64) - 1) for v in values], dtype=np.uint64))


def test_sweep_word_helpers_match_python_ints():
    hi, lo = _words(_WORD_EDGES)
    for c in _WORD_EDGES:  # the sweep's arc ends subtract 2^128 - c to add c
        got_hi, got_lo = _sub128(hi, lo, c)
        got = [(int(h) << 64) | int(l) for h, l in zip(got_hi, got_lo)]
        assert got == [(v - c) % GRID_ONE for v in _WORD_EDGES]


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
