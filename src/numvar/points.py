"""Integer sequences, 128-bit fixed-point dilations, and rational approximants.

All circle arithmetic lives on the grid Z / 2^128: a dilation factor alpha is
stored as the integer A = floor(alpha * 2^128), and a dilated point alpha*x mod 1
is the integer (A*x) mod 2^128.  Everything downstream (window sums, sweeps,
counting) is then exact integer arithmetic.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import cached_property

import numpy as np

GRID_BITS = 128
GRID_ONE = 1 << GRID_BITS

# Terms must fit in a signed 64-bit register so that downstream numpy paths
# and the per-term rounding bound |x| * 2^-128 stay meaningful.
TERM_LIMIT = (1 << 63) - 1

_WORD = (1 << 64) - 1
_LOW32 = np.uint64(0xFFFFFFFF)

_HEX_RE = re.compile(r"^[0-9a-fA-F]{32}$")


def seed_sequence(seed) -> np.random.SeedSequence:
    """numpy's SeedSequence for `seed`, which must be given: None would draw
    from OS entropy, and the output would change from call to call."""
    if seed is None:
        raise ValueError("a seed is required")
    return np.random.SeedSequence(seed)


def philox_words(seed, shape) -> np.ndarray:
    """Uniform uint64 words of the given shape from numpy's Philox stream for `seed`.

    Every random draw in the package comes from here, so a seed reproduces
    the same bytes on any platform.  A row of two words is one point of the
    2^-128 grid, high word first.
    """
    return np.random.Philox(seed_sequence(seed)).random_raw(shape)


@dataclass(frozen=True)
class Alpha:
    """A dilation factor in [0, 1) as an unsigned 128-bit fixed-point fraction."""

    a: int

    def __post_init__(self):
        if not isinstance(self.a, int):
            raise TypeError("alpha numerator must be an int")
        if not 0 <= self.a < GRID_ONE:
            raise ValueError("alpha numerator out of [0, 2^128)")

    @classmethod
    def from_rational(cls, p: int, q: int) -> "Alpha":
        """alpha = p/q reduced mod 1, rounded down to the 2^-128 grid."""
        if q <= 0:
            raise ValueError("denominator must be positive")
        return cls(((p % q) << GRID_BITS) // q)

    @classmethod
    def golden(cls) -> "Alpha":
        """(sqrt(5) - 1) / 2, accurate to one unit in the last place."""
        return cls((math.isqrt(5 << (2 * GRID_BITS)) - GRID_ONE) // 2)

    @classmethod
    def sqrt2m1(cls) -> "Alpha":
        """sqrt(2) - 1, accurate to one unit in the last place."""
        return cls(math.isqrt(2 << (2 * GRID_BITS)) - GRID_ONE)

    @classmethod
    def from_hex(cls, digits: str) -> "Alpha":
        if not _HEX_RE.match(digits):
            raise ValueError("alpha hex form must be exactly 32 hex digits")
        return cls(int(digits, 16))

    @classmethod
    def parse(cls, text: str) -> "Alpha":
        """Parse 'rat:p/q', 'golden', 'sqrt2m1', or 'hex:<32 hex digits>'."""
        text = text.strip()
        if text == "golden":
            return cls.golden()
        if text == "sqrt2m1":
            return cls.sqrt2m1()
        if text.startswith("rat:"):
            body = text[4:]
            m = re.match(r"^(-?\d+)/(\d+)$", body)
            if not m:
                raise ValueError(f"bad rational alpha {text!r}, expected rat:p/q")
            return cls.from_rational(int(m.group(1)), int(m.group(2)))
        if text.startswith("hex:"):
            return cls.from_hex(text[4:])
        raise ValueError(f"unrecognized alpha spec {text!r}")

    @classmethod
    def random_stream(cls, count: int, seed) -> list["Alpha"]:
        """`count` alphas drawn uniformly from the 2^-128 grid (Philox stream)."""
        if count < 0:
            raise ValueError("count must be nonnegative")
        words = philox_words(seed, (count, 2))
        return [cls((int(w[0]) << 64) | int(w[1])) for w in words]

    @property
    def hex(self) -> str:
        return f"{self.a:032x}"


def _sort_words(hi, lo, kind=None):
    """(order, hi[order], lo[order]), order sorting the values (hi << 64) | lo.

    Argsorts the high words (of the given kind) and gathers each word once; a
    lexsort on (high, low) words takes over only when equal high words are left
    with their low words out of order, as a dyadic alpha's dilation never is.
    """
    order = np.argsort(hi, kind=kind)
    hi_sorted, lo_sorted = hi[order], lo[order]
    tied = hi_sorted[1:] == hi_sorted[:-1]
    if tied.any() and (tied & (lo_sorted[1:] < lo_sorted[:-1])).any():
        order = np.lexsort((lo, hi))
        hi_sorted, lo_sorted = hi[order], lo[order]
    return order, hi_sorted, lo_sorted


class PointSet:
    """Sorted multiset of circle points on the 2^-128 grid, held as 64-bit words.

    Point k is the integer (hi[k] << 64) | lo[k].  The constructor takes the
    words in any order and keeps sorted copies that no caller holds: the
    read-only, contiguous uint64 arrays `hi` and `lo`, sorted
    lexicographically, which is numeric order.
    """

    def __init__(self, hi, lo):
        hi, lo = np.asarray(hi), np.asarray(lo)
        if hi.dtype != np.uint64 or lo.dtype != np.uint64 or hi.ndim != 1 or hi.shape != lo.shape:
            raise ValueError("point words must be two uint64 arrays of one length")
        # [1:] frees the sort's order array before the words are stored: a held
        # one slowed dilate_mod1 through the allocator's heap layout
        self.hi, self.lo = _sort_words(hi, lo)[1:]
        self.hi.flags.writeable = self.lo.flags.writeable = False

    @cached_property
    def points(self) -> tuple:
        """The points as Python ints, for the exact oracles that walk them."""
        return tuple((h << 64) | l for h, l in zip(self.hi.tolist(), self.lo.tolist()))

    @property
    def n(self) -> int:
        return len(self.hi)

    def below(self, x: int) -> int:
        """The number of points < x, for 0 <= x < 2^128."""
        x_hi, x_lo = np.uint64(x >> 64), np.uint64(x & _WORD)
        first, last = np.searchsorted(self.hi, x_hi), np.searchsorted(self.hi, x_hi, side="right")
        return int(first + np.searchsorted(self.lo[first:last], x_lo))

    def __eq__(self, other) -> bool:
        if not isinstance(other, PointSet):
            return NotImplemented
        return np.array_equal(self.hi, other.hi) and np.array_equal(self.lo, other.lo)


@dataclass(frozen=True)
class SequenceSpec:
    """A named integer sequence: polynomial, linear, lacunary, or an explicit list.

    Polynomial coefficients are constant-first, so coeffs = (0, 0, 1) is n^2.
    """

    kind: str
    coeffs: tuple = ()
    base: int = 0
    values: tuple = ()

    def __post_init__(self):
        if self.kind == "poly":
            if len(self.coeffs) < 2 or self.coeffs[-1] == 0:
                raise ValueError("polynomial must have degree >= 1 (nonzero leading coefficient)")
        elif self.kind == "lacunary":
            if self.base < 2:
                raise ValueError("lacunary base must be >= 2")
        elif self.kind == "explicit":
            if not self.values:
                raise ValueError("explicit sequence must be nonempty")
        elif self.kind != "linear":
            raise ValueError(f"unknown sequence kind {self.kind!r}")

    @classmethod
    def linear(cls) -> "SequenceSpec":
        return cls("linear")

    @classmethod
    def poly(cls, coeffs) -> "SequenceSpec":
        return cls("poly", coeffs=tuple(int(c) for c in coeffs))

    @classmethod
    def lacunary(cls, base: int) -> "SequenceSpec":
        return cls("lacunary", base=int(base))

    @classmethod
    def explicit(cls, values) -> "SequenceSpec":
        return cls("explicit", values=tuple(int(v) for v in values))

    @classmethod
    def parse(cls, text: str) -> "SequenceSpec":
        """Parse 'linear', 'poly:c0,c1,...', 'lacunary:b', or 'explicit:@file'."""
        text = text.strip()
        if text == "linear":
            return cls.linear()
        if text.startswith("poly:"):
            try:
                coeffs = [int(c) for c in text[5:].split(",")]
            except ValueError as exc:
                raise ValueError(f"bad polynomial spec {text!r}") from exc
            return cls.poly(coeffs)
        if text.startswith("lacunary:"):
            return cls.lacunary(int(text[9:]))
        if text.startswith("explicit:@"):
            path = text[len("explicit:@"):]
            values = []
            with open(path, "r", encoding="utf-8") as fh:
                for line in fh:
                    line = line.split("#", 1)[0].strip()
                    if line:
                        values.append(int(line))
            return cls.explicit(values)
        raise ValueError(f"unrecognized sequence spec {text!r}")

    def label(self) -> str:
        if self.kind == "poly":
            return "poly:" + ",".join(str(c) for c in self.coeffs)
        if self.kind == "lacunary":
            return f"lacunary:{self.base}"
        if self.kind == "explicit":
            return f"explicit[{len(self.values)}]"
        return "linear"


def _check_term(value: int, index: int) -> int:
    if abs(value) > TERM_LIMIT:
        raise OverflowError(
            f"term {index} has magnitude {abs(value)} exceeding the signed 64-bit range"
        )
    return value


def _horner_fits(coeffs, count: int) -> bool:
    """True when sum |c_i| count^i < 2^62, which bounds every Horner partial
    value |acc * n| for 1 <= n <= count, so the int64 evaluation is exact.

    Computed in float64: its rounding error is far below the margin to 2^63.
    """
    if any(abs(c) > TERM_LIMIT for c in coeffs):
        return False
    return sum(abs(c) * float(count) ** i for i, c in enumerate(coeffs)) < 2.0 ** 62


def _term_loop(spec: SequenceSpec, count: int) -> list:
    """The terms of a polynomial, lacunary or explicit spec, checked one by one."""
    if spec.kind == "poly":
        terms = []
        for n in range(1, count + 1):
            acc = 0
            for c in reversed(spec.coeffs):
                acc = acc * n + c
            terms.append(_check_term(acc, n))
        return terms
    if spec.kind == "lacunary":
        terms = []
        acc = 1
        for n in range(1, count + 1):
            acc *= spec.base
            terms.append(_check_term(acc, n))
        return terms
    # explicit
    if count > len(spec.values):
        raise ValueError(
            f"explicit sequence has {len(spec.values)} terms, {count} requested"
        )
    return [_check_term(v, i + 1) for i, v in enumerate(spec.values[:count])]


def generate_terms(spec: SequenceSpec, count: int) -> np.ndarray:
    """First `count` terms x_1..x_count of the sequence, as an int64 array.

    Raises OverflowError naming the first index whose term leaves the signed
    64-bit range, and ValueError if an explicit list is shorter than `count`.
    A polynomial is evaluated in int64 when its size bound certifies it, and
    by an exact Python loop otherwise.
    """
    if count < 0:
        raise ValueError("count must be nonnegative")
    if spec.kind == "linear":
        if count > TERM_LIMIT:
            raise OverflowError(f"term {TERM_LIMIT + 1} exceeds the signed 64-bit range")
        return np.arange(1, count + 1, dtype=np.int64)
    if spec.kind == "poly" and _horner_fits(spec.coeffs, count):
        n = np.arange(1, count + 1, dtype=np.int64)
        acc = np.zeros(count, dtype=np.int64)
        for c in reversed(spec.coeffs):
            acc *= n
            acc += c
        return acc
    return np.array(_term_loop(spec, count), dtype=np.int64)


def term_array(terms, limit: int) -> np.ndarray:
    """Terms a caller passes in, as an int64 array.

    Integer arrays of any width and lists of Python ints are accepted; floats,
    bools and other non-integers raise TypeError.  Any |x| > limit (limit <=
    TERM_LIMIT) raises OverflowError, checked on the values as given, before
    the conversion could wrap them.
    """
    x = np.asarray(terms)
    if x.dtype.kind not in "iu" or not isinstance(terms, np.ndarray):
        # numpy promotes a bool among ints to int64 and reads a list holding
        # ints past the int64/uint64 range as float or object, so anything but
        # an integer array has its items' types checked; big ints are
        # range-checked below as Python ints
        items = np.asarray(terms, dtype=object)
        for kind in set(map(type, items.flat)):
            if not issubclass(kind, (int, np.integer)) or issubclass(kind, bool):
                raise TypeError(f"terms must be integers, got {kind.__name__}")
        if x.dtype.kind not in "iu":
            x = items
    if x.size and (int(x.min()) < -limit or int(x.max()) > limit):
        raise OverflowError(f"terms must lie within +-{limit}")
    return x.astype(np.int64, copy=False)


def _mulhi(x: np.ndarray, a: int) -> np.ndarray:
    """High words of the 128-bit products x * a (uint64 x, 0 <= a < 2^64).

    Schoolbook multiplication on 32-bit limbs (Knuth, TAOCP Vol. 2, 4.3.1):
    every partial product and carry sum fits in 64 bits.  With p_ij = x_i a_j,
    out = x1 a1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32), where mid =
    (p00 >> 32) + (p01 & LOW32) + (p10 & LOW32) < 3 * 2^32.  Four N-sized
    arrays hold it all, updated in place.
    """
    a0, a1, shift = np.uint64(a & _LOW32), np.uint64(a >> 32), np.uint64(32)
    x0, x1 = x & _LOW32, x >> shift
    mid, out = x0 * a0, x0 * a1  # p00, p01
    mid >>= shift
    mid += np.bitwise_and(out, _LOW32, out=x0)
    out >>= shift
    np.multiply(x1, a0, out=x0)  # p10
    out += np.multiply(x1, a1, out=x1)
    mid += np.bitwise_and(x0, _LOW32, out=x1)
    out += np.right_shift(x0, shift, out=x0)
    out += np.right_shift(mid, shift, out=mid)
    return out


def dilate_words(terms, alpha: Alpha):
    """(hi, lo) uint64 words of A*x mod 2^128 for each term x, in term order.

    Computed exactly from word products: a term is its two's-complement
    128-bit value, whose high word is 0 or 2^64 - 1, so a negative term
    subtracts A's low word from the product's high word.  Terms outside the
    signed 64-bit range raise OverflowError.
    """
    x = term_array(terms, TERM_LIMIT)
    xw = x.view(np.uint64)
    a_hi, a_lo = alpha.a >> 64, alpha.a & _WORD
    hi = _mulhi(xw, a_lo)
    hi += xw * np.uint64(a_hi)
    hi[x < 0] -= np.uint64(a_lo)
    return hi, xw * np.uint64(a_lo)


def dilate_mod1(terms, alpha: Alpha) -> PointSet:
    """The multiset {alpha * x mod 1 : x in terms} on the 2^-128 grid.

    The only rounding is the one already inside A, so each point is within
    |x| * 2^-128 of the true alpha*x mod 1.  Terms outside the signed 64-bit
    range raise OverflowError.  PointSet(...), the only constructor, keeps
    sorted copies of dilate_words' words.
    """
    return PointSet(*dilate_words(terms, alpha))


def continued_fraction_convergents(alpha: Alpha, count: int) -> list:
    """Up to `count` continued-fraction convergents (p, q) of alpha.

    Runs the Euclidean algorithm on the exact 128-bit fraction.  Denominators
    are strictly increasing (when two convergents share q = 1 the better one
    is kept), and the list stops once q would reach 2^64, past which the
    grid representation no longer pins down convergents of the underlying
    real number.
    """
    if count < 0:
        raise ValueError("count must be nonnegative")
    res = []
    hm2, hm1, km2, km1 = 0, 1, 1, 0
    num, den = alpha.a, GRID_ONE
    while den > 0 and len(res) < count:
        a = num // den
        h, k = a * hm1 + hm2, a * km1 + km2
        if k >= 1 << 64:
            break
        if res and res[-1][1] == k:
            res[-1] = (h, k)
        else:
            res.append((h, k))
        hm2, hm1, km2, km1 = hm1, h, km1, k
        num, den = den, num - a * den
    return res
