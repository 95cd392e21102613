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

from .points import _LOW32, _WORD, GRID_ONE, Alpha, PointSet

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


def _limbs(points: PointSet) -> np.ndarray:
    """(4, N) int64 array of the points' 32-bit limbs, least significant first."""
    return np.stack([(word >> np.uint64(shift)) & _LOW32 for word in (points.lo, points.hi)
                     for shift in (0, _LIMB_BITS)]).astype(np.int64)


def _limb_dot(weights: np.ndarray, limbs: np.ndarray) -> int:
    """sum_k weights[k] * (point k) exactly, from int64 dot products over limbs.

    A dot product over L entries stays below 2^63 when max|weight| *
    (2^32 - 1) * L does, so the sum is taken in chunks of that length; a
    weight too large for even one entry (above 2^31) raises OverflowError.
    """
    per_entry = int(np.abs(weights).max(initial=0)) * _LIMB_MAX
    if per_entry > _INT64_MAX:
        raise OverflowError("tent weight too large for the int64 limb products")
    step = _INT64_MAX // max(per_entry, 1)
    total = 0
    for start in range(0, len(weights), step):
        sums = limbs[:, start:start + step] @ weights[start:start + step]
        total += sum(int(s) << (_LIMB_BITS * j) for j, s in enumerate(sums))
    return total


def _keys128(hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """128-bit values as 16-byte big-endian strings, whose order is numeric."""
    words = np.empty((len(hi), 2), dtype=">u8")
    words[:, 0], words[:, 1] = hi, lo
    return words.view("S16").ravel()


class WindowAccumulator:
    """Reusable exact engine for pairwise tent sums over one sorted point set.

    Take the doubled sequence d_0..d_{2N-1} = t_0..t_{N-1}, t_0 + 1, ..,
    t_{N-1} + 1 of the sorted points.  The partners of point k at clockwise
    distance < S are the entries lower[k] <= j < upper[k], those with d_j in
    (t_k + 1 - S, t_k + 1].  upper depends only on the points, so __init__
    builds once all that comes from it: upper's share of the tent weights as
    one int64 array and its scalar sums, beside the points' 32-bit limbs, 40
    bytes per point in all.  A width then costs one searchsorted of the high
    words, one bincount and cumsum of lower, one limb dot and O(1) scalars.
    The 128-bit keys (16 bytes per point) are built when a target first shares
    its high word with a point: at once for rational alphas, rarely otherwise.
    """

    def __init__(self, points: PointSet):
        n = self.n = points.n
        self.points = points
        self._keys = None
        self._limbs = _limbs(points)
        # runs of equal points: upper = N + the end of the point's run, and a run
        # of r points holds r(r - 1) coincident ordered pairs
        hi, lo = points.hi, points.lo
        new_run = np.ones(n, dtype=bool)
        new_run[1:] = (hi[1:] != hi[:-1]) | (lo[1:] != lo[:-1])
        starts = np.flatnonzero(new_run)
        runs = np.diff(starts, append=n)
        run_end = np.repeat(starts + runs, runs)
        self.coincident_pairs = int(np.dot(runs, runs - 1))
        # upper's share of point k's weight (see tent_pair_sum), less N:
        # #{i: upper[i] <= k} (= 0) + #{i: upper[i] <= N + k} + upper[k] - N
        cover = np.cumsum(np.bincount(run_end, minlength=n + 1)[:n])
        self._upper_weight = cover + run_end
        self._upper_sums = int(run_end.sum()), int(cover.sum())

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
        first, last = np.searchsorted(hi, w_hi), np.searchsorted(hi, w_hi, side="right")
        wraps = int(first + np.searchsorted(lo[first:last], w_lo))
        found = np.searchsorted(hi, t_hi, side="right")
        # where a point shares the target's high word, the low words decide
        # (found - 1 = -1 reads the largest high word, which is then > t_hi)
        tied = np.flatnonzero(hi[found - 1] == t_hi)
        if len(tied):
            if self._keys is None:
                self._keys = _keys128(hi, lo)
            found[tied] = np.searchsorted(self._keys, _keys128(t_hi[tied], lo[tied] - w_lo),
                                          side="right")
        # Point k's weight is cover[k] + cover[N + k] - count[k], where cover[j]
        # counts the windows holding entry j and count = upper - lower; lower's
        # share, #{i: lower[i] <= k} + #{i: lower[i] <= N + k} + lower[k], is
        # #{i: found[i] <= k} + wraps + found[k] + N [k >= wraps]
        bins = np.bincount(found, minlength=n + 1)
        bins[0] += wraps
        weights = np.cumsum(bins[:n])
        weights += found
        weights -= self._upper_weight
        weights[:wraps] -= n
        end_sum, end_cover_sum = self._upper_sums
        count_sum = end_sum - int(found.sum()) + n * wraps
        cover_sum = n * n - int(found[wraps:].sum()) - end_cover_sum  # over entries >= N
        total = (_limb_dot(weights, self._limbs)
                 + (width - GRID_ONE) * count_sum
                 + GRID_ONE * cover_sum
                 - n * width)  # each point saw itself at distance zero
        return 2 * total - self.coincident_pairs * width

    def variance(self, s: SBin, *, exact: bool = False):
        width = _grid_width(s)
        n = self.n
        if n == 0 or width == 0:
            return Fraction(0) if exact else 0.0
        off = self.tent_pair_sum(width)
        v = Fraction(n * width * GRID_ONE - (n * width) ** 2 + off * GRID_ONE,
                     GRID_ONE * GRID_ONE)
        return v if exact else float(v)


def variance_pairwise(points: PointSet, s: SBin, *, exact: bool = False):
    """V(N, S) via the pairwise tent expansion: NS - N^2 S^2 + off-diagonal sum."""
    return WindowAccumulator(points).variance(s, exact=exact)


def _add128(hi, lo, c: int):
    """(hi, lo) + c mod 2^128 for 0 <= c < 2^128, as uint64 words."""
    c_lo = np.uint64(c & _WORD)
    s_lo = lo + c_lo
    return hi + np.uint64(c >> 64) + (s_lo < c_lo), s_lo


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

    Point p covers the arc [p - S/2, p + S/2) mod 1.  The arc starts and the
    arc ends are rotations of the sorted points; undone, they are two sorted
    runs, and one stable merge by (high, low) word orders all 2N events.  The
    count after each event is a cumulative sum of the +1/-1 deltas.  With
    base the count on the arc just below 1 and levels L_0 = base, L_1, ..,
    L_2N at the event positions q_j, summation by parts gives

        integral S_N^2 = base^2 * 2^128 + sum_j q_j (L_{j-1}^2 - L_j^2)

    on the 2^-128 grid, one exact weighted sum of the positions.  Events at a
    shared position may come in any order: the segment between them is empty.
    The sweep shares no code with WindowAccumulator.
    """
    width = _grid_width(s)
    n = points.n
    if n == 0 or width == 0:
        return Fraction(0) if exact else 0.0
    half = width >> 1
    hi, lo = points.hi, points.lo
    keys = _keys128(hi, lo)

    def below(x: int) -> int:  # points < x, for 0 <= x < 2^128
        return int(np.searchsorted(keys, x.to_bytes(16, "big"), side="left"))

    wrap_start = below(half)  # p - S/2 < 0
    wrap_end = n - below(GRID_ONE - half)  # p + S/2 >= 1
    base = wrap_start + wrap_end
    starts = [np.roll(w, -wrap_start) for w in _sub128(hi, lo, half)]
    ends = [np.roll(w, wrap_end) for w in _add128(hi, lo, half)]
    q_hi, q_lo = np.concatenate((starts[0], ends[0])), np.concatenate((starts[1], ends[1]))
    order = np.argsort(q_hi, kind="stable")  # merges the two sorted runs
    if np.any((q_hi[order[1:]] == q_hi[order[:-1]]) & (q_lo[order[1:]] < q_lo[order[:-1]])):
        order = np.lexsort((q_lo, q_hi))  # equal high words, low words out of order
    levels = base + np.concatenate(([0], np.cumsum(np.where(order < n, 1, -1))))
    if levels[-1] != base:
        raise RuntimeError("event deltas must cancel around the circle")
    weights = levels[:-1] ** 2 - levels[1:] ** 2
    integral = base * base * GRID_ONE + _weighted_sum128(weights, q_hi[order], q_lo[order])
    v = Fraction(integral * GRID_ONE - (n * width) ** 2, GRID_ONE * GRID_ONE)
    return v if exact else float(v)
