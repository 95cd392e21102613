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

import bisect
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import ceil
from typing import Union

from .points import GRID_ONE, Alpha, PointSet

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
class TentKernel:
    """The triangle psi_{S/2} = indicator[-S/2,S/2) * indicator[-S/2,S/2).

    Peak value S at 0, support [-S, S], unit slopes: psi(t) = max(S - |t|, 0).
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


def periodized_tent(s: SBin, t):
    """sum_j psi_{S/2}(t + j) for t reduced mod 1."""
    return TentKernel(as_dyadic(s)).periodized(t % 1)


@dataclass(frozen=True)
class VarianceRecord:
    """One computed variance cell.  alpha is an Alpha, or a tag for random draws."""

    n: int
    s: Fraction
    alpha: Union[Alpha, str]
    v: float
    ratio: Union[float, None]

    @classmethod
    def build(cls, n: int, s, alpha, v: float) -> "VarianceRecord":
        s = as_dyadic(s)
        ratio = v / (n * float(s)) if n > 0 and s > 0 else None
        return cls(n=n, s=s, alpha=alpha, v=v, ratio=ratio)


def counting_function(points: PointSet, s: SBin, y) -> int:
    """S_N(y): points with alpha*x - y + j in [-S/2, S/2) for some integer j.

    Equivalently, points in the circular half-open arc [y - S/2, y + S/2).
    y may be a float or Fraction; the boundary is resolved exactly.
    """
    width = _grid_width(s)
    if width == 0 or points.n == 0:
        return 0
    yf = Fraction(y) % 1
    # Integer grid positions in [y - S/2, y + S/2) are [ceil(Y - w/2), ceil(Y + w/2))
    # with Y = y * 2^128; w is even so the two bounds differ by exactly w.
    lo = ceil(yf * GRID_ONE - (width >> 1)) % GRID_ONE
    pts = points.points
    hi = lo + width
    if hi <= GRID_ONE:
        return bisect.bisect_left(pts, hi) - bisect.bisect_left(pts, lo)
    return (points.n - bisect.bisect_left(pts, lo)) + bisect.bisect_left(pts, hi - GRID_ONE)


class WindowAccumulator:
    """Reusable exact engine for pairwise tent sums over one sorted point set.

    Precomputes the doubled array and its prefix sums once, so a scan can
    evaluate many window lengths S against the same points in O(N) each.
    """

    def __init__(self, points: PointSet):
        pts = points.points
        self.n = len(pts)
        self.pts = pts
        doubled = list(pts) + [p + GRID_ONE for p in pts]
        self.doubled = doubled
        self.prefix = [0] + list(accumulate(doubled))
        # Ordered pairs at circular distance exactly zero (coincident points).
        coincident = 0
        run = 1
        for i in range(1, self.n):
            if pts[i] == pts[i - 1]:
                run += 1
            else:
                coincident += run * (run - 1)
                run = 1
        coincident += run * (run - 1)
        self.coincident_pairs = coincident

    def tent_pair_sum(self, width: int) -> int:
        """sum over ordered pairs m != n of the periodized tent at their gap.

        Returned in grid units (multiples of 2^-128).  For each point the
        window of partners at clockwise distance < width is aggregated with
        prefix sums rather than visited pair by pair.
        """
        n = self.n
        if n < 2 or width == 0:
            return 0
        doubled = self.doubled
        prefix = self.prefix
        total = 0
        lo_i = hi_i = 0
        two_n = 2 * n
        for p in self.pts:
            v = p + GRID_ONE
            floor_val = v - width
            while hi_i < two_n and doubled[hi_i] <= v:
                hi_i += 1
            while doubled[lo_i] <= floor_val:
                lo_i += 1
            cnt = hi_i - lo_i
            total += cnt * (width - v) + (prefix[hi_i] - prefix[lo_i])
        total -= n * width  # each point saw itself at distance zero
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


def variance_sweep(points: PointSet, s: SBin, *, exact: bool = False):
    """V(N, S) by integrating the counting step function over arc endpoints.

    Each point contributes the indicator of an arc of length S; the integral
    of the squared count is a sum of value^2 * segment length over segments
    between consecutive endpoints, all exact integers on the grid.
    """
    width = _grid_width(s)
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
    if level != base:
        raise RuntimeError("event deltas must cancel around the circle")
    v = Fraction(integral * GRID_ONE - (n * width) ** 2, GRID_ONE * GRID_ONE)
    return v if exact else float(v)

