"""Arithmetic statistics of truncated integer sequences.

Representation numbers of differences, additive energy, GCD sums,
difference-set divisibility counts, and the repeated-difference mass
used for sparsity checks.  Everything here is exact integer counting; floats
appear only in the final weighted sums where the weights are irrational.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .points import SequenceSpec, generate_terms

DEFAULT_PAIR_BUDGET = 10 ** 9
DEFAULT_CELL_BUDGET = 10 ** 9
DEFAULT_MEM_BUDGET = 512 << 20  # bytes of scratch for the numpy paths

GCD_VARIANTS = ("half", "one_over_max", "squared")
_BLOCK_CELLS = 4 << 20  # cells of one numpy block in the gcd double sums


class BudgetExceeded(RuntimeError):
    """An O(N^2)-type computation would exceed its configured budget."""

    def __init__(self, message: str, estimated, budget):
        super().__init__(f"{message} (estimated {estimated}, budget {budget})")
        self.estimated = estimated
        self.budget = budget


@dataclass
class RepTable:
    """Counts Rep(u) of pairs m < n with N1 <= n <= N2 and |x_n - x_m| = u > 0."""

    window: tuple
    counts: dict
    pair_count: int = 0


def _gap_histogram(terms, n1: int, n2: int, buckets: int = 1, b: int = 0):
    """Sorted distinct gaps u = |x_n - x_m| > 0 over pairs m < n with
    N1 <= n <= N2, and their multiplicities, as int64 arrays.

    With buckets > 1 only the gaps with u % buckets == b are kept, so a
    caller can hold one residue class at a time.  Exact for |terms| < 2^62.
    """
    x = np.asarray(terms[:n2], dtype=np.int64)
    if x.size and int(np.abs(x).max()) >= 1 << 62:
        raise OverflowError("terms too large for the int64 gap path")
    chunks = []
    for n in range(max(n1, 2), n2 + 1):
        gaps = np.abs(x[n - 1] - x[: n - 1])
        chunks.append(gaps[gaps % buckets == b] if buckets > 1 else gaps)
    # Sort in place and cut the zero gaps off by position: np.unique or a
    # boolean filter would hold a second copy of every pair's gap.
    arr = np.concatenate(chunks) if chunks else np.zeros(0, dtype=np.int64)
    del chunks
    arr.sort()
    arr = arr[np.searchsorted(arr, 0, side="right"):]
    if not arr.size:
        return arr, arr
    starts = np.concatenate(([0], np.flatnonzero(arr[1:] != arr[:-1]) + 1))
    return arr[starts], np.diff(np.append(starts, arr.size))


def rep_table(terms, n1: int, n2: int, *, pair_budget: int = DEFAULT_PAIR_BUDGET) -> RepTable:
    """Exact difference counts over all pairs (m < n, N1 <= n <= N2).

    Zero gaps (duplicate term values) are not stored; u ranges over positive
    integers only, in ascending order.  Exact for |terms| < 2^62.
    """
    if not 1 <= n1 <= n2 <= len(terms):
        raise ValueError(f"window ({n1}, {n2}) outside 1..{len(terms)}")
    pairs = (n2 * (n2 - 1) - (n1 - 1) * (n1 - 2)) // 2
    if pairs > pair_budget:
        raise BudgetExceeded(
            "pair enumeration too large; for quadratics use the divisor route"
            " (rep_quadratic_divisor)",
            pairs,
            pair_budget,
        )
    gaps, reps = _gap_histogram(terms, n1, n2)
    counts = dict(zip(gaps.tolist(), reps.tolist()))
    return RepTable(window=(n1, n2), counts=counts, pair_count=pairs)


def energy_window(table: RepTable) -> int:
    """E(N1, N2) = sum of Rep(u)^2 over the table's support."""
    return sum(r * r for r in table.counts.values())


def additive_energy(terms, count: int, *, pair_budget: int = DEFAULT_PAIR_BUDGET) -> int:
    """Quadruples with x_{n1} + x_{n2} = x_{n3} + x_{n4}, indices up to `count`.

    Sorts the count^2 ordered sums in place (8 * count^2 bytes) and sums the
    squared run lengths.  Forming no difference keeps it independent of the
    gap histogram.  Terms with |x| >= 2^62 raise OverflowError.
    """
    if not 0 <= count <= len(terms):
        raise ValueError(f"count {count} outside 0..{len(terms)}")
    if count * count > pair_budget:
        raise BudgetExceeded("ordered-sum enumeration too large",
                             count * count, pair_budget)
    x = np.asarray(terms[:count], dtype=np.int64)
    if count and int(np.abs(x).max()) >= 1 << 62:
        raise OverflowError("terms too large for the int64 sums")
    sums = np.add.outer(x, x).ravel()
    sums.sort()
    runs = np.diff(np.concatenate(([0], np.flatnonzero(sums[1:] != sums[:-1]) + 1, [sums.size])))
    if int(runs.max()) * sums.size >= 1 << 63:  # sum of r^2 <= max r * count^2
        return sum(r * r for r in runs.tolist())
    return int(np.sum(runs * runs))


def energy_direct(terms, n1: int, n2: int, *, mem_budget: int = DEFAULT_MEM_BUDGET) -> int:
    """E(N1, N2) = sum Rep(u)^2 without materializing the count map.

    Takes the gap histogram one residue bucket (u mod B) at a time, so each
    pass holds about pairs * 8 / B <= mem_budget bytes of gaps.  Exact for
    |terms| < 2^62; intended for windows far beyond rep_table's reach.
    """
    if not 1 <= n1 <= n2 <= len(terms):
        raise ValueError(f"window ({n1}, {n2}) outside 1..{len(terms)}")
    pairs = (n2 * (n2 - 1) - (n1 - 1) * (n1 - 2)) // 2
    buckets = max(1, -(-pairs * 8 // mem_budget))
    total = 0
    for b in range(buckets):
        _, reps = _gap_histogram(terms, n1, n2, buckets, b)
        total += int(np.dot(reps, reps))
    return total


def _divisors(u: int) -> list:
    """All positive divisors of u, by trial division."""
    small, large = [], []
    d = 1
    while d * d <= u:
        if u % d == 0:
            small.append(d)
            if d * d != u:
                large.append(u // d)
        d += 1
    return small + large[::-1]


def divisor_lists(limit: int) -> list:
    """lists[n] = sorted divisors of n, for all n <= limit (index 0 unused)."""
    lists: list = [[] for _ in range(limit + 1)]
    for d in range(1, limit + 1):
        for m in range(d, limit + 1, d):
            lists[m].append(d)
    return lists


def rep_quadratic_divisor(p, u: int, n_limit=None, divisors=None) -> int:
    """Rep_{1,N}(u) for the quadratic a x^2 + b x (+ any constant).

    Uses u = p(x) - p(y) = (a(x+y) + b)(x-y): enumerate divisors e = x - y,
    solve for t = x + y, and keep solutions with 1 <= y < x (<= N when given).
    Pass n_limit=None for the unrestricted count r(u) <= tau(u).
    """
    a, b = p
    if a == 0:
        raise ValueError("leading quadratic coefficient must be nonzero")
    if u < 1:
        raise ValueError("u must be a positive integer")
    count = 0
    for e in divisors if divisors is not None else _divisors(u):
        rest = u // e - b
        if rest % a:  # exact division test, valid for either sign of a
            continue
        t = rest // a
        if t < e + 2 or (t - e) % 2:
            continue
        if n_limit is not None and (t + e) // 2 > n_limit:
            continue
        count += 1
    return count


def _gcd_weight_grid(variant: str, g, u1, u2):
    if variant == "half":
        return g / np.sqrt(u1 * u2)
    if variant == "one_over_max":
        return g / np.maximum(u1, u2)
    if variant == "squared":
        return (g * g) / (u1 * u2)
    raise ValueError(f"unknown gcd_sum variant {variant!r}; expected one of {GCD_VARIANTS}")


def _gcd_sum_dense(us, rs, variant, threshold, cell_budget):
    k = us.size
    if k * k > cell_budget:
        raise BudgetExceeded("gcd double sum too large", k * k, cell_budget)
    if threshold is not None and int(us[-1]) ** 2 >= 1 << 62:
        raise OverflowError(
            "support too large for the filtered dense path; use strategy='classes'")
    uf = us.astype(np.float64)
    block = max(1, min(k, _BLOCK_CELLS // max(k, 1)))
    total = 0.0
    for i0 in range(0, k, block):
        u1 = us[i0:i0 + block, None]
        g = np.gcd(u1, us[None, :])
        w = _gcd_weight_grid(variant, g.astype(np.float64), uf[i0:i0 + block, None], uf[None, :])
        if threshold is not None:
            # u1 u2 / g^2 is the exact integer (u1/g)(u2/g); compare without rounding
            ab = (u1 // g) * (us[None, :] // g)
            w = np.where(ab <= threshold, w, 0.0)
        total += float(np.sum(w * (rs[i0:i0 + block, None] * rs[None, :])))
    return total


def _gcd_weight_class(variant: str, a: int, b: int) -> float:
    # After writing u1 = g a, u2 = g b with gcd(a, b) = 1, every variant's
    # weight depends on (a, b) alone.
    if variant == "half":
        return 1.0 / math.sqrt(a * b)
    if variant == "one_over_max":
        return 1.0 / max(a, b)
    if variant == "squared":
        return 1.0 / (a * b)
    raise ValueError(f"unknown gcd_sum variant {variant!r}; expected one of {GCD_VARIANTS}")


def _gcd_sum_classes(us, rs, variant, threshold):
    # Enumerate ordered coprime (a, b) with a b <= T; for each, sum
    # Rep(g a) Rep(g b) over g via sorted lookups.
    total = 0.0
    t_cap = int(threshold)
    n = us.size
    for a in range(1, t_cap + 1):
        b_max = int(threshold // a)
        if b_max < 1:
            break
        sel = np.flatnonzero(us % a == 0)
        if not sel.size:
            continue
        g_vals = us[sel] // a
        r_a = rs[sel]
        for b in range(1, b_max + 1):
            if math.gcd(a, b) != 1:
                continue
            cand = g_vals * b
            pos = np.searchsorted(us, cand)
            pos_c = np.minimum(pos, n - 1)
            hit = us[pos_c] == cand
            if hit.any():
                total += _gcd_weight_class(variant, a, b) * float(
                    np.dot(r_a[hit], rs[pos_c[hit]])
                )
    return total


def _jordan_totient(d: np.ndarray, k: int) -> np.ndarray:
    """J_k(d) = d^k prod_{p | d} (1 - p^-k) for distinct positive int64 d, by
    vectorised trial division; exact while d^k < 2^63."""
    out = d ** k
    rest = d.copy()
    for p in range(2, math.isqrt(int(d.max())) + 1):
        hit = rest % p == 0
        if not hit.any():
            continue  # p is composite, or divides no d
        out[hit] -= out[hit] // p ** k
        while hit.any():
            rest[hit] //= p
            hit = rest % p == 0
    big = rest > 1  # one prime factor above the square root is left
    out[big] -= out[big] // rest[big] ** k
    return out


def _gcd_sum_divisors(us, rs, variant, cell_budget):
    # gcd(u1, u2) = sum of phi(d) and gcd(u1, u2)^2 = sum of J_2(d) over the
    # common divisors d, so the double sum splits into one sum per divisor d
    # over the u that d divides.  Divisor pairs (d, u) come from trial
    # division by d <= isqrt(u), each d paired with its cofactor u / d.
    k = us.size
    root = math.isqrt(int(us[-1]))
    if root * k > cell_budget:
        raise BudgetExceeded("gcd divisor sum too large", root * k, cell_budget)
    divs, cols = [], []
    block = max(1, _BLOCK_CELLS // k)
    for d0 in range(1, root + 1, block):
        d = np.arange(d0, min(d0 + block, root + 1), dtype=np.int64)[:, None]
        hit = (us[None, :] % d == 0) & (us[None, :] >= d * d)
        di, j = np.nonzero(hit)
        dv = d[di, 0]
        cofactor = us[j] // dv
        twin = cofactor > dv  # u = d^2 has one divisor there, not two
        divs.extend((dv, cofactor[twin]))
        cols.extend((j, j[twin]))
    divs, cols = np.concatenate(divs), np.concatenate(cols)
    order = np.lexsort((cols, divs))  # by divisor, then ascending u
    divs, cols = divs[order], cols[order]
    starts = np.concatenate(([0], np.flatnonzero(divs[1:] != divs[:-1]) + 1))
    u, r = us[cols].astype(np.float64), rs[cols]
    if variant == "one_over_max":
        # sum over i, j of r_i r_j / max(u_i, u_j) = sum_i r_i (r_i + 2 C_{i-1}) / u_i,
        # C the running sum of r over the smaller multiples of d
        run = np.cumsum(r)
        before = run - r
        before -= np.repeat(before[starts], np.diff(np.append(starts, r.size)))
        per_d = np.add.reduceat(r * (r + 2.0 * before) / u, starts)
        return float(np.sum(_jordan_totient(divs[starts], 1) * per_d))
    if variant == "half":
        per_d = np.add.reduceat(r / np.sqrt(u), starts)
        return float(np.sum(_jordan_totient(divs[starts], 1) * (per_d * per_d)))
    per_d = np.add.reduceat(r / u, starts)
    return float(np.sum(_jordan_totient(divs[starts], 2) * (per_d * per_d)))


def gcd_sum(table: RepTable, variant: str, threshold=None, *,
            strategy: str = "auto", cell_budget: int = DEFAULT_CELL_BUDGET) -> float:
    """Double sum over the table of Rep(u1) Rep(u2) w(u1, u2), optionally
    restricted to pairs with u1 u2 / gcd(u1, u2)^2 <= threshold.

    Weights: half = gcd/sqrt(u1 u2), one_over_max = gcd/max(u1, u2),
    squared = gcd^2/(u1 u2).  strategy 'dense' walks all K^2 cells in numpy
    blocks; 'classes' (threshold required) enumerates coprime shape classes
    (a, b) with a b <= threshold, which is far cheaper for small thresholds.
    'auto' picks between them, except that without a threshold, when
    isqrt(max u) < K, it splits the sum over common divisors d by gcd = sum
    of phi(d) (gcd^2 = sum of J_2(d)), which costs isqrt(max u) * K cells of
    trial division, charged against cell_budget.  That route needs max u <
    2^31, so that J_2(d) <= d^2 stays exact in int64.
    """
    if variant not in GCD_VARIANTS:
        raise ValueError(f"unknown gcd_sum variant {variant!r}; expected one of {GCD_VARIANTS}")
    if not table.counts:
        return 0.0
    us = np.array(sorted(table.counts), dtype=np.int64)
    rs = np.array([table.counts[int(u)] for u in us], dtype=np.float64)
    if strategy == "auto":
        k = us.size
        if threshold is None and math.isqrt(int(us[-1])) < k and int(us[-1]) < 1 << 31:
            return _gcd_sum_divisors(us, rs, variant, cell_budget)
        use_classes = (
            threshold is not None
            and threshold >= 1
            and threshold * math.log(threshold + 2) * k < k * k
            and int(us[-1]) * int(threshold) < 1 << 62
        )
        strategy = "classes" if use_classes else "dense"
    if strategy == "classes":
        if threshold is None:
            raise ValueError("the class strategy requires a threshold")
        if int(us[-1]) * int(threshold) >= 1 << 62:
            raise OverflowError("threshold too large for the class strategy")
        if threshold < 1:
            return 0.0
        return _gcd_sum_classes(us, rs, variant, threshold)
    if strategy != "dense":
        raise ValueError(f"unknown strategy {strategy!r}")
    return _gcd_sum_dense(us, rs, variant, threshold, cell_budget)


def gcd_average(x: int) -> float:
    """sum_{n<=x} sum_{m<n} gcd(m, n)/n, exactly via the totient identity.

    Swapping the divisor sum gives sum_{d<=x} (phi(d)/d) floor(x/d) - x;
    accumulated with math.fsum.
    """
    if not 1 <= x <= 10 ** 7:
        raise ValueError("x must be in 1..10^7")
    phi = np.arange(x + 1, dtype=np.int64)
    for p in range(2, x + 1):
        if phi[p] == p:  # p prime
            phi[p::p] -= phi[p::p] // p
    return math.fsum(int(phi[d]) * (x // d) / d for d in range(1, x + 1)) - x


def difference_set(coeffs, count: int, *, pair_budget: int = DEFAULT_PAIR_BUDGET) -> np.ndarray:
    """Sorted int64 array of the distinct nonzero differences p(m) - p(n),
    m != n, of polynomial values at 1..count.

    coeffs must be a valid SequenceSpec.poly, so a constant raises ValueError.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if count * count > pair_budget:
        raise BudgetExceeded("difference grid too large", count * count, pair_budget)
    gaps, _ = _gap_histogram(generate_terms(SequenceSpec.poly(coeffs), count), 1, count)
    return np.concatenate((-gaps[::-1], gaps))


def _radical(ell: int):
    """(rad(ell), omega(ell)) by trial division."""
    rad = 1
    omega = 0
    rest = ell
    p = 2
    while p * p <= rest:
        if rest % p == 0:
            rad *= p
            omega += 1
            while rest % p == 0:
                rest //= p
        p += 1 if p == 2 else 2
    if rest > 1:
        rad *= rest
        omega += 1
    return rad, omega


def divisibility_bound_check(diffs: np.ndarray, ell: int, degree: int, count: int):
    """(count of multiples of ell in the set, (N + rad)^2 d^omega / rad, ok).

    The bound assumes the generating polynomial has no constant term and
    content 1 (strip/divide before building the difference set if needed).
    """
    if ell <= 1:
        raise ValueError("ell must be an integer > 1")
    hits = int(np.count_nonzero(diffs % ell == 0))
    rad, omega = _radical(ell)
    bound_num = (count + rad) ** 2 * degree ** omega
    return hits, bound_num / rad, hits * rad <= bound_num


def normalize_polynomial(coeffs):
    """Drop the constant term and trailing zeros, and divide by the content.

    Puts a polynomial into the form the divisibility bound assumes.
    """
    body = list(coeffs)
    if body:
        body[0] = 0
    while body and body[-1] == 0:
        body.pop()
    g = 0
    for c in body:
        g = math.gcd(g, c)
    if g == 0:
        raise ValueError("polynomial must be nonconstant")
    return tuple(c // g for c in body)


def _is_prime(q: int) -> bool:
    if q < 2:
        return False
    p = 2
    while p * p <= q:
        if q % p == 0:
            return False
        p += 1 if p == 2 else 2
    return True


def congruence_solution_count(coeffs, q: int) -> int:
    """Roots of the polynomial mod a prime q, by exhaustive evaluation.

    At most deg many exist (checked); rejects moduli where every coefficient
    vanishes, since the root bound's hypothesis fails there.
    """
    if not _is_prime(q):
        raise ValueError(f"modulus {q} is not prime")
    reduced = [c % q for c in coeffs]
    if not any(reduced):
        raise ValueError("all coefficients divisible by q; the congruence is trivial")
    count = 0
    for x in range(q):
        acc = 0
        for c in reversed(reduced):
            acc = (acc * x + c) % q
        if acc == 0:
            count += 1
    degree = max(i for i, c in enumerate(coeffs) if c)
    if count > degree:
        raise RuntimeError("root count exceeded the degree bound")
    return count


def sparse_u2_mass(table: RepTable):
    """(mass, exponent) of repeated gaps: mass = sum of Rep(u)^2 over Rep >= 2.

    exponent = log(mass)/log(N) with N = N2 of the table's window, for trend
    reporting (nan when undefined).
    """
    count = table.window[1]
    mass = sum(r * r for r in table.counts.values() if r >= 2)
    if mass > 0 and count > 1:
        exponent = math.log(mass) / math.log(count)
    else:
        exponent = math.nan
    return mass, exponent
