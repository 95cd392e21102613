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


_LIMB_BITS = 16
_LIMB_MAX = (1 << _LIMB_BITS) - 1
_INT64_MAX = (1 << 63) - 1


def _limbs(points: PointSet) -> np.ndarray:
    """(8, N) int64 array of the points' 16-bit limbs, least significant first."""
    return np.stack([((word >> np.uint64(shift)) & np.uint64(_LIMB_MAX)).astype(np.int64)
                     for word in (points.lo, points.hi) for shift in range(0, 64, _LIMB_BITS)])


def _limb_dot(weights: np.ndarray, limbs: np.ndarray) -> int:
    """sum_k weights[k] * (point k) exactly, from int64 dot products over limbs.

    A dot product over L entries stays below 2^63 when max|weight| *
    (2^16 - 1) * L does, so the sum is taken in chunks of that length; a
    weight too large for even one entry raises OverflowError.
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
    (t_k + 1 - S, t_k + 1].  upper depends only on the points and is built
    once; lower takes a searchsorted over the high words per window length, and
    one over 128-bit keys for the targets whose high word a point shares.
    """

    def __init__(self, points: PointSet):
        n = self.n = points.n
        self.points = points
        self._keys = _keys128(points.hi, points.lo)
        self._limbs = _limbs(points)
        # runs of equal points: the last index of a point's run bounds its window
        # from above, and a run of r points holds r(r - 1) coincident ordered pairs
        hi, lo = points.hi, points.lo
        new_run = np.ones(n, dtype=bool)
        new_run[1:] = (hi[1:] != hi[:-1]) | (lo[1:] != lo[:-1])
        starts = np.flatnonzero(new_run)
        runs = np.diff(starts, append=n)
        self._upper = n + np.repeat(starts + runs, runs)
        self.coincident_pairs = int(np.dot(runs, runs - 1))

    def _lower(self, width: int) -> np.ndarray:
        """Per point, the number of doubled entries <= t_k + 1 - width."""
        n = self.n
        if width == GRID_ONE:  # no 64-bit high word; the window is (t_k, t_k + 1]
            return self._upper - n
        hi, lo = self.points.hi, self.points.lo
        w_hi, w_lo = np.uint64(width >> 64), np.uint64(width & ((1 << 64) - 1))
        carry = lo < w_lo
        t_hi, t_lo = hi - w_hi - carry, lo - w_lo
        wraps = (hi < w_hi) | ((hi == w_hi) & carry)  # t_k - width < 0
        lower = np.searchsorted(hi, t_hi, side="right")
        # where a point shares the target's high word, the low words decide
        # (lower - 1 = -1 reads the largest high word, which is then > t_hi)
        tied = np.flatnonzero(hi[lower - 1] == t_hi)
        lower[tied] = np.searchsorted(self._keys, _keys128(t_hi[tied], t_lo[tied]), side="right")
        lower[~wraps] += n
        return lower

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
        lower, upper = self._lower(width), self._upper
        edges = (np.bincount(lower, minlength=2 * n + 1)
                 - np.bincount(upper, minlength=2 * n + 1))
        cover = np.cumsum(edges[:2 * n])
        count = upper - lower
        total = (_limb_dot(cover[:n] + cover[n:] - count, self._limbs)
                 + (width - GRID_ONE) * int(count.sum())
                 + GRID_ONE * int(cover[n:].sum())
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
