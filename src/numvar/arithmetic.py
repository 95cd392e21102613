"""Arithmetic statistics of truncated integer sequences.

Representation numbers of differences, additive energy, GCD sums,
difference-set divisibility counts, and the repeated-difference mass
used for sparsity checks.  Everything here is exact integer counting; floats
appear only in the final weighted sums where the weights are irrational.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType

import numpy as np

from .points import SequenceSpec, generate_terms, term_array

DEFAULT_PAIR_BUDGET = 10 ** 9
DEFAULT_MEM_BUDGET = 512 << 20  # bytes of scratch for the numpy paths
PAIR_LIMIT = (1 << 62) - 1  # |x| bound that keeps sums and differences of two terms in int64

GCD_VARIANTS = ("half", "one_over_max", "squared")
_BLOCK_CELLS = 4 << 20  # cells of one numpy block in the gcd double sums


class BudgetExceeded(RuntimeError):
    """An O(N^2)-type computation would exceed its configured budget."""

    def __init__(self, message: str, estimated, budget):
        super().__init__(f"{message} (estimated {estimated}, budget {budget})")


@dataclass(frozen=True, eq=False)
class RepTable:
    """Rep(u), the number of pairs m < n with N1 <= n <= N2 and |x_n - x_m| = u > 0.

    `gaps` holds the distinct u in ascending order and `reps` their counts,
    both read-only int64 copies that the table owns; `counts` is the same
    table as a read-only dict {u: Rep(u)}, built on first access.
    """

    window: tuple
    gaps: np.ndarray
    reps: np.ndarray

    def __post_init__(self):
        for name in ("gaps", "reps"):
            arr = np.array(getattr(self, name), dtype=np.int64)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @cached_property
    def counts(self) -> MappingProxyType:
        """{u: Rep(u)} with Python int keys and values, for callers that look gaps up."""
        return MappingProxyType(dict(zip(self.gaps.tolist(), self.reps.tolist())))

    @property
    def pair_count(self) -> int:
        return _pair_count(*self.window)


def _pair_count(n1: int, n2: int) -> int:
    """Pairs m < n with N1 <= n <= N2, pairs of equal terms (no gap) included."""
    return (n2 * (n2 - 1) - (n1 - 1) * (n1 - 2)) // 2


_ROW_BLOCK = 128  # rows of the gap kernel's blocks


def _window_parts(terms, n1: int, n2: int):
    """The pairs of the window (N1, N2) as (rows, cols) parts whose pairs
    are the row-column differences r - c > 0, plus the span max - min.

    The pair multiset does not depend on term order, so the head x_1..x_{N1-1}
    and the tail x_{N1}..x_{N2} are sorted, as offsets from the window's
    minimum.  The parts are the tail against itself and the tail against the
    head from either side.  Each side is the int64 offsets for the run
    searches and the same offsets as keys: uint32 when the span is below
    2^32, int64 otherwise.
    """
    x = term_array(terms[:n2], PAIR_LIMIT)
    base, span = int(x.min()), int(x.max()) - int(x.min())
    dtype = np.uint32 if span < 1 << 32 else np.int64

    def side(v):
        t = np.sort(v) - base
        return t, t.astype(dtype, copy=False)

    head, tail = side(x[:n1 - 1]), side(x[n1 - 1:])
    return [(tail, tail)] + ([(tail, head), (head, tail)] if head[0].size else []), span


def _value_ranges(parts, span: int, cap: int) -> tuple:
    """(ranges, largest range's pair count): gap ranges [lo, hi) in ascending order that
    cover 1..span, each holding at most `cap` of the parts' pairs unless it holds one
    gap value alone; each ends at the largest hi that fits, by bisection."""
    if span < 1:
        return [], 0
    sides = [(rows, cols, cols.searchsorted(rows - 1, side="right")) for (rows, _), (cols, _) in parts]

    def below(v):  # pairs with 1 <= gap < v
        return sum(int((b - cols.searchsorted(rows - v, side="right")).sum()) for rows, cols, b in sides)

    ranges, lo, base, top, largest = [], 1, 0, below(span + 1), 0
    while top - base > cap:
        good, bad = lo + 1, span + 1  # hi >= lo + 1 even when gap lo alone tops cap
        while bad - good > 1:
            mid = (good + bad) // 2
            if below(mid) - base <= cap:
                good = mid
            else:
                bad = mid
        ranges.append((lo, good))
        pairs = below(good) - base
        lo, base, largest = good, base + pairs, max(largest, pairs)
    ranges.append((lo, span + 1))
    return ranges, max(largest, top - base)


def _write_keys(parts, lo: int, hi: int, buf: np.ndarray) -> np.ndarray:
    """The parts' gaps r - c in [lo, hi) as keys, in build order, in a prefix of buf.

    Each block of rows writes the columns every row of it partners into one
    rectangle of the key buffer; the ragged ends of the rows' runs (the
    triangle where a part meets itself, and the edges of a value range) are
    taken from small rectangles through a mask.
    """
    # sorted row r partners the run a <= i < b of the sorted cols c with lo <= r - c < hi
    bounds = [(cols.searchsorted(rows - hi, side="right"), cols.searchsorted(rows - lo, side="right"))
              for (rows, _), (cols, _) in parts]
    keys = buf[:sum(int((b - a).sum()) for a, b in bounds)]
    pos = 0
    for ((_, rk), (_, ck)), (a, b) in zip(parts, bounds):
        for j0 in range(0, rk.size, _ROW_BLOCK):
            j1 = min(j0 + _ROW_BLOCK, rk.size)
            rows, first, last = rk[j0:j1, None], a[j0:j1, None], b[j0:j1, None]
            inner_lo = int(first[-1, 0])
            inner_hi = max(int(last[0, 0]), inner_lo)  # [inner_lo, inner_hi) is in every row's run
            width = inner_hi - inner_lo
            if width:
                end = pos + (j1 - j0) * width
                np.subtract(rows, ck[inner_lo:inner_hi], out=keys[pos:end].reshape(j1 - j0, width))
                pos = end
            for c0, c1 in ((int(first[0, 0]), inner_lo), (inner_hi, int(last[-1, 0]))):
                if c1 <= c0:
                    continue
                cols = np.arange(c0, c1)
                keep = ((cols >= first) & (cols < last)).ravel()
                end = pos + int(np.count_nonzero(keep))
                np.compress(keep, (rows - ck[c0:c1]).ravel(), out=keys[pos:end])
                pos = end
    return keys


def _gap_key_ranges(terms, n1: int, n2: int):
    """The gaps u = |x_n - x_m| > 0 over pairs m < n with N1 <= n <= N2 as unsorted
    keys, one value range at a time, ranges ascending; each yielded array is a prefix
    of one key buffer sized for the largest range, valid until the next step.

    Builds each of the window's pairs once (see _window_parts), as keys of
    w = 4 bytes (uint32) or 8.  The value ranges fit DEFAULT_MEM_BUDGET for
    the histogram (_runs), which holds at most 2 w + 17 bytes per gap: the
    key, a mask byte, the run start and length, and the distinct key.  A
    range holds at least N2 pairs, as the per-row run bounds take 16 bytes a
    row anyway.  Exact for |terms| <= PAIR_LIMIT (OverflowError otherwise).
    """
    parts, span = _window_parts(terms, n1, n2)
    cap = max(n2, DEFAULT_MEM_BUDGET // (2 * parts[0][0][1].itemsize + 17))
    ranges, largest = _value_ranges(parts, span, cap)
    buf = np.empty(largest, dtype=parts[0][0][1].dtype)
    for lo, hi in ranges:
        yield _write_keys(parts, lo, hi, buf)


def _run_starts(keys: np.ndarray, chunk: int):
    """Each chunk's offset i and its run starts less i, over chunks of `chunk` sorted keys."""
    for i in range(0, keys.size, chunk):
        j = min(i + chunk, keys.size)
        edge = np.empty(j - i, dtype=bool)
        edge[0] = i == 0 or keys[i] != keys[i - 1]
        np.not_equal(keys[i + 1:j], keys[i:j - 1], out=edge[1:])
        yield i, np.flatnonzero(edge)


def _runs(keys: np.ndarray):
    """(distinct keys, int64 run lengths) of sorted keys."""
    if not keys.size:
        return keys, np.zeros(0, dtype=np.int64)
    (_, starts), = _run_starts(keys, keys.size)
    reps = np.empty_like(starts)
    np.subtract(starts[1:], starts[:-1], out=reps[:-1])
    reps[-1] = keys.size - starts[-1]
    return keys[starts], reps


def _square_sum(reps) -> int:
    """sum of r^2 over int64 counts, exactly: one int64 dot unless it could overflow."""
    if reps.size and int(reps.max()) * int(reps.sum()) >= 1 << 63:
        return sum(r * r for r in reps.tolist())
    return int(np.dot(reps, reps))


# keys per chunk of _run_square_sum; at up to 17 bytes of scratch a key, a
# chunk's 1.1 MB stays in a 2 MB L2 cache
_RUN_CHUNK = 1 << 16


def _run_square_sum(keys: np.ndarray) -> int:
    """sum of squared run lengths of sorted keys, over chunks of _RUN_CHUNK keys so
    that its scratch stays chunk-sized: each chunk adds the squares of the runs that
    close inside it, and the run still open at its end is carried into the next
    chunk by its start, and squared after the last."""
    total, start = 0, 0  # start: where the open run starts
    for i, starts in _run_starts(keys, _RUN_CHUNK):
        if starts.size:
            first = i + int(starts[0]) - start
            # the runs closed inside the chunk cover at most _RUN_CHUNK = 2^16
            # keys, so their squares sum to at most 2^32: no int64 overflow
            runs = np.diff(starts)
            total += first * first + int(np.dot(runs, runs))
            start = i + int(starts[-1])
    return total + (keys.size - start) ** 2


def _gap_arrays(terms, n1: int, n2: int):
    """The sorted distinct gaps u and their counts Rep(u), as two int64 arrays."""
    hists = [(np.zeros(0, dtype=np.int64),) * 2]
    for keys in _gap_key_ranges(terms, n1, n2):
        keys.sort()
        hists.append(_runs(keys))
    return tuple(np.concatenate(arrays) for arrays in zip(*hists))


def _budgeted_pairs(n1: int, n2: int, pair_budget: int) -> int:
    """The window's pair count (_pair_count), or BudgetExceeded when it tops pair_budget."""
    pairs = _pair_count(n1, n2)
    if pairs > pair_budget:
        raise BudgetExceeded("pair enumeration too large; for quadratics use the divisor route"
                             " (rep_quadratic_divisor)", pairs, pair_budget)
    return pairs


def rep_table(terms, n1: int, n2: int, *, pair_budget: int = DEFAULT_PAIR_BUDGET) -> RepTable:
    """Exact difference counts over all pairs (m < n, N1 <= n <= N2).

    Zero gaps (duplicate term values) are not stored; u ranges over positive
    integers only, in ascending order.  Exact for |terms| <= PAIR_LIMIT.
    """
    if not 1 <= n1 <= n2 <= len(terms):
        raise ValueError(f"window ({n1}, {n2}) outside 1..{len(terms)}")
    _budgeted_pairs(n1, n2, pair_budget)
    gaps, reps = _gap_arrays(terms, n1, n2)
    return RepTable(window=(n1, n2), gaps=gaps, reps=reps)


def energy_window(table: RepTable) -> int:
    """E(N1, N2) = sum of Rep(u)^2 over the table's support."""
    return _square_sum(table.reps)


def _ordered_sums(x: np.ndarray) -> np.ndarray:
    """The x.size^2 sums x_i + x_j of int64 terms as keys, unsorted: those of
    the offsets x - min as uint32 when twice the span is below 2^32 (shifting
    every term keeps which sums are equal), those of x as int64 otherwise."""
    if x.size and 2 * (int(x.max()) - int(x.min())) < 1 << 32:
        x = (x - x.min()).astype(np.uint32)
    return np.add.outer(x, x).ravel()


def additive_energy(terms, count: int, *, pair_budget: int = DEFAULT_PAIR_BUDGET) -> int:
    """Quadruples with x_{n1} + x_{n2} = x_{n3} + x_{n4}, indices up to `count`.

    Sorts the count^2 ordered sums in place and sums the squared run lengths
    with energy_direct's chunked walker.  When twice the span max - min is
    below 2^32, the sums are those of the offsets x - min, as uint32 keys
    (4 * count^2 bytes); otherwise they are int64 (8 * count^2 bytes).
    Forming no difference keeps it independent of the gap histogram.  Terms
    with |x| > PAIR_LIMIT raise OverflowError.
    """
    if not 0 <= count <= len(terms):
        raise ValueError(f"count {count} outside 0..{len(terms)}")
    if count * count > pair_budget:
        raise BudgetExceeded("ordered-sum enumeration too large",
                             count * count, pair_budget)
    sums = _ordered_sums(term_array(terms[:count], PAIR_LIMIT))
    sums.sort()
    return _run_square_sum(sums)


def energy_direct(terms, n1: int, n2: int) -> int:
    """E(N1, N2) = sum Rep(u)^2 without materializing the count map.

    Takes the sorted gap keys one value range at a time (the ranges
    rep_table's histogram uses) and sums the squared runs of each range
    chunk by chunk, so that it holds the range's keys and chunk-sized
    scratch, never the distinct gaps or a run per gap.  Exact for
    |terms| <= PAIR_LIMIT; `numvar energy` takes its window energy from here.
    """
    if not 1 <= n1 <= n2 <= len(terms):
        raise ValueError(f"window ({n1}, {n2}) outside 1..{len(terms)}")
    total = 0
    for keys in _gap_key_ranges(terms, n1, n2):  # each range's keys overwrite the last's
        keys.sort()
        total += _run_square_sum(keys)
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


def _gcd_weight(variant: str, g, u1, u2):
    """w(u1, u2) given g = gcd(u1, u2); with u1 = g a, u2 = g b it is also
    the weight of a coprime class (a, b) at g = 1."""
    if variant == "half":
        return g / np.sqrt(u1 * u2)
    if variant == "one_over_max":
        return g / np.maximum(u1, u2)
    return (g * g) / (u1 * u2)


def _gcd_sum_dense(us, rs, variant, threshold, pair_budget):
    k = us.size
    if k * k > pair_budget:
        raise BudgetExceeded("gcd double sum too large", k * k, pair_budget)
    if threshold is not None and int(us[-1]) ** 2 >= 1 << 62:
        raise OverflowError(
            "support too large for the filtered dense path; use strategy='classes'")
    uf = us.astype(np.float64)
    block = max(1, min(k, _BLOCK_CELLS // max(k, 1)))
    total = 0.0
    for i0 in range(0, k, block):
        u1 = us[i0:i0 + block, None]
        g = np.gcd(u1, us[None, :])
        w = _gcd_weight(variant, g.astype(np.float64), uf[i0:i0 + block, None], uf[None, :])
        if threshold is not None:
            # u1 u2 / g^2 is the exact integer (u1/g)(u2/g); compare without rounding
            ab = (u1 // g) * (us[None, :] // g)
            w = np.where(ab <= threshold, w, 0.0)
        total += float(np.sum(w * (rs[i0:i0 + block, None] * rs[None, :])))
    return total


def _gcd_sum_classes(us, rs, variant, threshold):
    # Enumerate ordered coprime (a, b) with a b <= T; for each, sum
    # Rep(g a) Rep(g b) over g via sorted lookups.
    total = 0.0
    t_cap = int(threshold)
    n = us.size
    for a in range(1, t_cap + 1):
        b_max = int(threshold // a)
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
                total += float(_gcd_weight(variant, 1.0, a, b)) * float(
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


def _gcd_sum_divisors(us, rs, variant, pair_budget):
    # gcd(u1, u2) = sum of phi(d) and gcd(u1, u2)^2 = sum of J_2(d) over the
    # common divisors d, so the double sum splits into one sum per divisor d
    # over the u that d divides.  Divisor pairs (d, u) come from trial
    # division by d <= isqrt(u), each d paired with its cofactor u / d.
    k = us.size
    root = math.isqrt(int(us[-1]))
    if root * k > pair_budget:
        raise BudgetExceeded("gcd divisor sum too large", root * k, pair_budget)
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
            strategy: str = "auto", pair_budget: int = DEFAULT_PAIR_BUDGET) -> float:
    """Double sum over the table of Rep(u1) Rep(u2) w(u1, u2), optionally
    restricted to pairs with u1 u2 / gcd(u1, u2)^2 <= threshold.

    Weights: half = gcd/sqrt(u1 u2), one_over_max = gcd/max(u1, u2),
    squared = gcd^2/(u1 u2).  strategy 'dense' walks all K^2 cells in numpy
    blocks; 'classes' (threshold required) enumerates coprime shape classes
    (a, b) with a b <= threshold, which is far cheaper for small thresholds.
    'auto' picks between them, except that without a threshold, when
    isqrt(max u) < K, it splits the sum over common divisors d by gcd = sum
    of phi(d) (gcd^2 = sum of J_2(d)), which costs isqrt(max u) * K cells of
    trial division.  That route needs max u < 2^31, so that J_2(d) <= d^2
    stays exact in int64.  The dense cells and the trial divisions are
    charged against pair_budget, like rep_table's pairs.
    """
    if variant not in GCD_VARIANTS:
        raise ValueError(f"unknown gcd_sum variant {variant!r}; expected one of {GCD_VARIANTS}")
    if not table.gaps.size:
        return 0.0
    us, rs = table.gaps, table.reps.astype(np.float64)
    auto = strategy == "auto"
    if auto:
        k = us.size
        if threshold is None and math.isqrt(int(us[-1])) < k and int(us[-1]) < 1 << 31:
            return _gcd_sum_divisors(us, rs, variant, pair_budget)
        cheap = (threshold is not None and threshold >= 1
                 and threshold * math.log(threshold + 2) * k < k * k)
        strategy = "classes" if cheap else "dense"
    if strategy == "classes":
        if threshold is None:
            raise ValueError("the class strategy requires a threshold")
        if int(us[-1]) * int(threshold) < 1 << 62:
            return _gcd_sum_classes(us, rs, variant, threshold)  # 0.0 for threshold < 1
        if not auto:
            raise OverflowError("threshold too large for the class strategy")
    elif strategy != "dense":
        raise ValueError(f"unknown strategy {strategy!r}")
    return _gcd_sum_dense(us, rs, variant, threshold, pair_budget)


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
    pairs = _pair_count(1, count)
    if pairs > pair_budget:
        raise BudgetExceeded("difference grid too large", pairs, pair_budget)
    gaps, _ = _gap_arrays(generate_terms(SequenceSpec.poly(coeffs), count), 1, count)
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


def congruence_solution_count(coeffs, q: int) -> int:
    """Roots of the polynomial mod a prime q, by exhaustive evaluation.

    At most deg many exist (checked); rejects moduli where every coefficient
    vanishes, since the root bound's hypothesis fails there.
    """
    if _radical(q) != (q, 1):  # q prime
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
    mass = _square_sum(table.reps[table.reps >= 2])
    if mass > 0 and count > 1:
        exponent = math.log(mass) / math.log(count)
    else:
        exponent = math.nan
    return mass, exponent
