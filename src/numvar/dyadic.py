"""Binary decomposition of the tent kernel into plateau pieces.

A window length S with binary digits d_v (S = sum_v d_v 2^-v) splits the tent
psi_{S/2} into a sum of plateau kernels f_{v,c}: flat top of height 2^-v on
|x| <= c 2^-v, unit-slope ramp down to zero at (c+1) 2^-v.  The offsets come
from the digit prefix, c_v = sum_{u<v} 2^(v-u) d_u, and the means add up to
the tent integral: sum_v d_v (2 c_v + 1) 2^(-2v) = S^2 exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .points import GRID_BITS, GRID_ONE, Alpha, dilate_words
from .variance import S_DEN_BITS, as_dyadic


@dataclass(frozen=True)
class PlateauKernel:
    """f_{v,c}: height 2^-v plateau of half-width c 2^-v with unit-slope ramps."""

    v: int
    c: int

    def __post_init__(self):
        if self.v < 0:
            raise ValueError("level v must be >= 0")
        if not 0 <= self.c < (1 << self.v):
            raise ValueError("offset c must satisfy 0 <= c < 2^v")

    def value(self, x):
        """f_{v,c}(x) = min(2^-v, max(0, (c + 1) 2^-v - |x|)); exact for
        Fraction/int x, float arithmetic for a float or a float array x."""
        t = abs(x)
        h = 2.0 ** -self.v if isinstance(t, (float, np.ndarray)) else Fraction(1, 1 << self.v)
        outer = (self.c + 1) * h
        if isinstance(t, np.ndarray):
            return np.clip(outer - t, 0.0, h)
        return min(h, max(0 * h, outer - t))

    def periodized(self, t):
        """sum_j f_{v,c}(t + j); j in {-1, 0, 1} is exhaustive since support <= 1."""
        return self.value(t) + self.value(t - 1) + self.value(t + 1)

    def mean(self) -> Fraction:
        """Integral of f_{v,c} over the line: (2c + 1) 2^(-2v), exact."""
        return Fraction(2 * self.c + 1, 1 << (2 * self.v))


@dataclass(frozen=True)
class DyadicExpansion:
    """The plateau levels of one dyadic window length S."""

    s: Fraction
    levels: tuple  # the (v, c_v) with d_v = 1, in increasing v

    def scalar_sum(self) -> Fraction:
        """sum_v d_v (2 c_v + 1) 2^(-2v); equals S^2 exactly."""
        return sum((PlateauKernel(v, c).mean() for v, c in self.levels), Fraction(0))


def decompose(s) -> DyadicExpansion:
    """Levels (v, c_v) of the digits d_v = 1 of S, with c_{v+1} = 2 (c_v + d_v)."""
    f = as_dyadic(s)
    k = f.numerator * (1 << S_DEN_BITS) // f.denominator  # S * 2^64, exact
    levels = []
    c = 0
    for v in range(S_DEN_BITS + 1):
        d = (k >> (S_DEN_BITS - v)) & 1
        if d:
            levels.append((v, c))
        c = 2 * (c + d)
    return DyadicExpansion(s=f, levels=tuple(levels))


def verify_decomposition(s, x):
    """(tent value, plateau-sum value) at x; the two sides agree pointwise."""
    f = as_dyadic(s)
    if isinstance(x, float):
        lhs = max(float(f) - abs(x), 0.0)
    else:
        lhs = max(f - abs(Fraction(x)), Fraction(0))
    rhs = sum(PlateauKernel(v, c).value(x) for v, c in decompose(f).levels)
    return lhs, rhs


def y_statistic(terms, n: int, kernel: PlateauKernel, alpha: Alpha) -> float:
    """Centered pair statistic of the n-th term against all earlier ones.

    Y = 2 sum_{m<n} sum_j f_{v,c}(alpha (x_n - x_m) + j) - 2 (n-1) mean(f).
    Gaps are reduced mod 1 on the exact grid before the float kernel is
    applied.  n is 1-based; n = 1 has no earlier terms and gives 0.  Terms
    may be any integers, numpy ones included; they are read as Python ints.
    """
    if not 1 <= n <= len(terms):
        raise ValueError(f"index n = {n} outside 1..{len(terms)}")
    a = alpha.a
    *earlier, xn = (int(x) for x in terms[:n])
    acc = 0.0
    for xm in earlier:
        t = ((a * (xn - xm)) % GRID_ONE) / GRID_ONE
        acc += kernel.periodized(t)
    return 2.0 * acc - 2.0 * (n - 1) * float(kernel.mean())


def _grid_floats(hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """((hi << 64) | lo) / 2^128 as float64, correctly rounded like int / int.

    A value with hi != 0 is shifted right by `top` bits, hi's bit length or
    one more, so that it keeps 63 or 64 significant bits, and the bits
    shifted out are ORed into bit 0 as a sticky bit.  Bit 0 lies below the
    rounding position, so the one uint64 -> float64 cast rounds as the full
    128-bit value would, and scaling by a power of two is then exact.
    """
    wide = hi != 0
    # the float exponent of hi is its bit length, or one more where the cast
    # rounded hi up to a power of two
    top = np.clip(np.frexp(hi.astype(np.float64))[1], 1, 64).astype(np.uint64)
    one = np.uint64(1)
    mant = (hi << (np.uint64(64) - top)) | ((lo >> (top - one)) >> one)
    mant |= ((lo << (np.uint64(64) - top)) != 0).astype(np.uint64)
    mant = np.where(wide, mant, lo)
    exp = np.where(wide, top.astype(np.int64), 0) - GRID_BITS
    return np.ldexp(mant.astype(np.float64), exp)


def y_window_sum(counts, pair_count: int, kernel: PlateauKernel, alpha: Alpha) -> float:
    """sum of y_statistic over a window, grouped by repeated gap values.

    counts maps u = |x_n - x_m| > 0 to its multiplicity over the window's
    pairs (pair_count = total pairs); the kernel is even, so each group
    contributes multiplicity * periodized(alpha u).  The pairs counts leaves
    out have equal terms (u = 0, as in rep_table) and add periodized(0) each.
    Gaps must lie in the signed 64-bit range (OverflowError otherwise).
    periodized is evaluated on the array of alpha u mod 1, with the same
    roundings and the same summation order as the loop over counts.items().
    """
    gaps = np.fromiter(counts.keys(), dtype=np.int64, count=len(counts))
    reps = np.fromiter(counts.values(), dtype=np.float64, count=len(counts))
    vals = kernel.periodized(_grid_floats(*dilate_words(gaps, alpha)))
    acc = float(np.cumsum(reps * vals)[-1]) if reps.size else 0.0
    acc += (pair_count - int(reps.sum())) * kernel.periodized(0.0)
    return 2.0 * acc - 2.0 * pair_count * float(kernel.mean())
