"""Number variance of a circle point set, by two independent exact routes.

For window length S and points t_1..t_N on the circle, the variance is

    V = integral_0^1 S_N(y)^2 dy - N^2 S^2,

where S_N(y) counts points in the half-open arc [y - S/2, y + S/2).  The
pairwise route expands the square into periodized tent kernels summed over
point pairs; the sweep route integrates the step function S_N directly.  Both
are computed in exact integer arithmetic on the 2^-128 grid (S is restricted
to dyadic rationals k/2^64, so arc endpoints land on the grid), and the two
results agree as exact rationals.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

import numpy as np

from .points import _LOW32, _WORD, GRID_ONE, Alpha, PointSet, _sort_words

SBin = Union[Fraction, int, float]

S_DEN_BITS = 64


def as_dyadic(s: SBin) -> Fraction:
    """Validate S as a dyadic rational k/2^64 in [0, 1] and return it exactly."""
    f = Fraction(s)
    if not 0 <= f <= 1:
        raise ValueError(f"S = {f} outside [0, 1]")
    if (f * (1 << S_DEN_BITS)).denominator != 1:
        raise ValueError(f"S = {f} is not a dyadic rational with denominator 2^{S_DEN_BITS}")
    return f


def _grid_width(s: SBin) -> int:
    """S scaled to the 2^-128 grid (an integer in [0, 2^128], always even)."""
    f = as_dyadic(s)
    return (f.numerator * GRID_ONE) // f.denominator


@dataclass(frozen=True)
class VarianceRecord:
    """One computed variance cell V(N, S, alpha)."""

    n: int
    s: Fraction
    alpha: Alpha
    v: float

    @property
    def ratio(self) -> Optional[float]:
        """V/(NS), or None where NS = 0."""
        return self.v / (self.n * float(self.s)) if self.n > 0 and self.s > 0 else None


_LIMB_BITS = 32
_LIMB_MAX = (1 << _LIMB_BITS) - 1
_INT64_MAX = (1 << 63) - 1


def _limb_dot(weights: np.ndarray, points: PointSet) -> int:
    """sum_k weights[k] * (point k) exactly, from int64 dot products over the
    points' 32-bit limbs, which are uint32 views of the words.

    A dot product over L entries stays below 2^63 when max|weight| * (2^32 -
    1) * L does, so the sum is taken in chunks of that length (a buffered
    einsum, with no N-sized cast); a weight above 2^31 raises OverflowError.
    """
    low = int(not np.little_endian)  # where a word's low half lies
    limbs = [word.view(np.uint32)[low ^ k::2]
             for word in (points.lo, points.hi) for k in (0, 1)]
    per_entry = max(int(weights.max(initial=0)), -int(weights.min(initial=0))) * _LIMB_MAX
    if per_entry > _INT64_MAX:
        raise OverflowError("tent weight too large for the int64 limb products")
    step = _INT64_MAX // max(per_entry, 1)
    total = 0
    for start in range(0, len(weights), step):
        part = slice(start, start + step)
        total += sum(int(np.einsum("i,i", weights[part], limb[part], dtype=np.int64))
                     << (_LIMB_BITS * j) for j, limb in enumerate(limbs))
    return total


class WindowAccumulator:
    """Reusable exact engine for pairwise tent sums over one sorted point set.

    Take the doubled sequence d_0..d_{2N-1} = t_0..t_{N-1}, t_0 + 1, ..,
    t_{N-1} + 1 of the sorted points.  The partners of point k at clockwise
    distance < S are the entries lower[k] <= j < upper[k], those with d_j in
    (t_k + 1 - S, t_k + 1].  upper depends only on the points, so __init__
    builds once all that comes from it, read off the runs of equal points:
    upper's share of the tent weights as one int64 array (8 bytes per point)
    and the sum of the run starts.  It also sorts the points into fewer than
    2N buckets by the top bits of their high words and keeps where each bucket
    starts (int32, at most 8 bytes per point).  A width then ranks its targets
    among the high words through that table (see _rank), bisects the low
    words of the points that share a target's high word, and costs one
    bincount and cumsum of lower, one dot over uint32 views of the points'
    limbs and O(1) scalars.  The state is fixed at build: these two arrays,
    a few scalars and the point words.
    """

    def __init__(self, points: PointSet):
        n = self.n = points.n
        self.points = points
        # runs of equal points: point k's run is [start, end), upper[k] = N + end,
        # and a run of r points holds r(r - 1) coincident ordered pairs
        hi, lo = points.hi, points.lo
        new_run = np.ones(n, dtype=bool)
        new_run[1:] = (hi[1:] != hi[:-1]) | (lo[1:] != lo[:-1])
        starts = np.flatnonzero(new_run)
        runs = np.diff(starts, append=n)
        # upper's share of point k's weight (see tent_pair_sum), less N:
        # #{i: upper[i] <= k} (= 0) + #{i: upper[i] <= N + k} (= start) + upper[k] - N
        self._upper_weight = np.repeat(2 * starts + runs, runs)
        self.coincident_pairs = int(np.dot(runs, runs - 1))
        self._start_sum = int(np.dot(starts, runs))  # the starts summed over the points
        del new_run, starts, runs
        # bucket v holds the points whose high words start with the bits of v;
        # first[v] points lie in the buckets below it
        bits = max((n - 1).bit_length(), 1)
        self._shift = np.uint64(64 - bits)
        sizes = np.bincount((hi >> self._shift).view(np.intp), minlength=1 << bits)
        self._first = np.zeros(1 << bits, dtype=np.int32 if n < 1 << 31 else np.int64)
        np.cumsum(sizes[:-1], out=self._first[1:])

    def _rank(self, t_hi: np.ndarray) -> np.ndarray:
        """#{j: hi[j] <= t} for each target t, as np.searchsorted(hi, t_hi,
        side="right") gives it.

        A bucket is sorted, so the first two points of the target's bucket
        settle its rank unless both are <= t and the next point is too; only
        those targets, about 1 % on a random alpha, are searched.  A rank that
        runs past N - 1 has read hi[N - 1] <= t, so it is N, with no search.
        """
        hi = self.points.hi
        found = self._first[(t_hi >> self._shift).view(np.intp)].astype(np.intp)
        for _ in range(2):
            found += hi.take(found, mode="clip") <= t_hi
        deep = np.flatnonzero(hi.take(found, mode="clip") <= t_hi)
        past = found[deep] >= self.n
        found[deep[past]] = self.n
        deep = deep[~past]
        if deep.size:
            found[deep] = np.searchsorted(hi, t_hi[deep], side="right")
        return found

    def tent_pair_sum(self, width: int) -> int:
        """sum over ordered pairs m != n of the periodized tent at their gap.

        width and the result are in grid units (multiples of 2^-128), with
        0 <= width <= 2^128.  Entry j of point k's window adds width minus
        its distance, width - (t_k + 1 - d_j).  Summed over all windows, d_j
        counts once per window covering j; folding that coverage onto the N
        points leaves one exact weighted sum of the points.
        """
        if not 0 <= width <= GRID_ONE:
            raise ValueError(f"width {width} outside [0, 2^128]")
        n = self.n
        if n < 2 or width == 0:
            return 0
        if width == GRID_ONE:  # every window is the whole circle, and V = 0
            return n * (n - 1) * GRID_ONE
        # found[k] points are <= t_k - width mod 1; the first `wraps` points
        # (t_k < width, a prefix) have lower = found, the rest N + found
        hi, lo = self.points.hi, self.points.lo
        w_hi, w_lo = np.uint64(width >> 64), np.uint64(width & _WORD)
        t_hi = hi - w_hi
        if w_lo:
            t_hi -= lo < w_lo
        wraps = self.points.below(width)
        found = self._rank(t_hi)
        # where points share the target's high word, they are [start, found) and
        # their low words, sorted, decide: halve the tied runs together, 2^14 at
        # a time, so that each temporary (128 KB) reuses freed heap, not fresh
        # pages (found - 1 = -1 reads the largest high word, then > t_hi)
        tied = np.flatnonzero(hi[found - 1] == t_hi)
        for first in range(0, len(tied), 1 << 14):
            part = tied[first:first + (1 << 14)]
            t_lo = lo[part] - w_lo
            start = np.searchsorted(hi, t_hi[part])
            size = found[part] - start
            while size.max() > 1:
                half = size >> 1
                np.add(start, half, out=start, where=lo[start + half] <= t_lo)
                size -= half
            found[part] = start + (lo[start] <= t_lo)
        # Point k's weight is cover[k] + cover[N + k] - count[k], where cover[j]
        # counts the windows holding entry j and count = upper - lower; lower's
        # share, #{i: lower[i] <= k} + #{i: lower[i] <= N + k} + lower[k], is
        # #{i: found[i] <= k} + wraps + found[k] + N [k >= wraps]
        weights = np.bincount(found, minlength=n + 1)[:n]
        weights[0] += wraps
        np.cumsum(weights, out=weights)
        weights += found
        weights -= self._upper_weight
        weights[:wraps] -= n
        # upper[k] - N summed is the starts' sum + coincident_pairs + N
        count_sum = self._start_sum + self.coincident_pairs + n - int(found.sum()) + n * wraps
        cover_sum = n * n - int(found[wraps:].sum()) - self._start_sum  # over entries >= N
        total = (_limb_dot(weights, self.points)
                 + (width - GRID_ONE) * count_sum
                 + GRID_ONE * cover_sum
                 - n * width)  # each point saw itself at distance zero
        return 2 * total - self.coincident_pairs * width

    def variance(self, s: SBin, *, exact: bool = False):
        width = _grid_width(s)
        n = self.n
        off = self.tent_pair_sum(width)
        v = Fraction(n * width * GRID_ONE - (n * width) ** 2 + off * GRID_ONE,
                     GRID_ONE * GRID_ONE)
        return v if exact else float(v)


def variance_pairwise(points: PointSet, s: SBin, *, exact: bool = False):
    """V(N, S) via the pairwise tent expansion: NS - N^2 S^2 + off-diagonal sum."""
    return WindowAccumulator(points).variance(s, exact=exact)


def _sub128(hi, lo, c: int):
    """(hi, lo) - c mod 2^128 for 0 <= c < 2^128, as uint64 words."""
    c_lo = np.uint64(c & _WORD)
    return hi - np.uint64(c >> 64) - (lo < c_lo), lo - c_lo


def _weighted_sum128(weights: np.ndarray, hi: np.ndarray, lo: np.ndarray) -> int:
    """sum_j weights[j] * ((hi[j] << 64) | lo[j]) exactly, for |weights| < 2^31.

    Each word is cut into 32-bit halves, so one product stays below 2^63; the
    products are summed in int64 over runs short enough not to wrap.
    """
    bound = (int(np.abs(weights).max(initial=0)) + 1) << 32
    if bound > _INT64_MAX:
        raise OverflowError("sweep weight too large for the int64 products")
    cuts = np.arange(0, len(weights), _INT64_MAX // bound)
    total = 0
    for shift, word in ((0, lo), (64, hi)):
        for half in (0, 32):
            part = ((word >> np.uint64(half)) & _LOW32).astype(np.int64) * weights
            total += sum(np.add.reduceat(part, cuts).tolist()) << (shift + half)
    return total


def variance_sweep(points: PointSet, s: SBin, *, exact: bool = False):
    """V(N, S) by integrating the counting step function over arc endpoints.

    Point p covers the arc [p - S/2, p + S/2) mod 1.  The arc starts, p - S/2
    mod 1, and the arc ends, p + S/2 = p - (1 - S/2) mod 1, come from two
    _sub128 calls.  Each is the sorted points moved round the circle, so the
    2N events form four sorted runs, which _sort_words merges with a stable
    argsort by high word (and a lexsort when equal high words come out with
    their low words out of order).  The count after each event
    is a cumulative sum of the +1/-1 deltas.  With base the count on the arc
    just below 1 (the arcs that wrap past 0, counted by PointSet.below) and
    levels L_0 = base, L_1, .., L_2N at the event positions q_j, summation by
    parts gives

        integral S_N^2 = base^2 * 2^128 + sum_j q_j (L_{j-1}^2 - L_j^2)

    on the 2^-128 grid, one exact weighted sum of the positions.  Events at a
    shared position may come in any order: the segment between them is empty.
    The sweep shares only PointSet (with its below and the _sort_words that
    builds it) and _grid_width with WindowAccumulator.
    """
    width = _grid_width(s)
    n = points.n
    if n == 0 or width == 0:
        return Fraction(0) if exact else 0.0
    half = width >> 1
    base = points.below(half) + n - points.below(GRID_ONE - half)  # p < S/2, p >= 1 - S/2
    hi, lo = points.hi, points.lo
    # the events, starts before ends: each pair of word arrays is freed once joined
    q_hi, q_lo = map(np.concatenate, zip(_sub128(hi, lo, half), _sub128(hi, lo, GRID_ONE - half)))
    order, q_hi, q_lo = _sort_words(q_hi, q_lo, kind="stable")  # merges the four sorted runs
    levels = base + np.concatenate(([0], np.cumsum(np.where(order < n, 1, -1))))
    if levels[-1] != base:
        raise RuntimeError("event deltas must cancel around the circle")
    weights = levels[:-1] ** 2 - levels[1:] ** 2
    integral = base * base * GRID_ONE + _weighted_sum128(weights, q_hi, q_lo)
    v = Fraction(integral * GRID_ONE - (n * width) ** 2, GRID_ONE * GRID_ONE)
    return v if exact else float(v)
