"""Random and Kronecker baselines for the number variance.

Uniform i.i.d. samples (the Poissonian reference), a Brownian-bridge
simulation of the limiting integral functional, and the
convergent-denominator check for badly approximable dilations.

All randomness flows through numpy's counter-based Philox generator so that
identical seeds reproduce identical results across platforms; replicates use
seeds derived from a SeedSequence, and Gaussians come from the inverse CDF
applied to 53-bit uniforms (no rejection loops).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .points import (Alpha, PointSet, continued_fraction_convergents, dilate_mod1,
                     philox_words)
from .variance import (VarianceRecord, WindowAccumulator, as_dyadic,
                       variance_pairwise)

DEFAULT_BRIDGE_GRID = 1 << 14


def _derived_seeds(seed, count: int) -> list:
    """Deterministic 64-bit seeds for `count` replicates of a root seed."""
    state = np.random.SeedSequence(seed).generate_state(count, dtype=np.uint64)
    return [int(s) for s in state]


@dataclass(frozen=True)
class RandomSample:
    """An i.i.d. uniform point set together with the seed that produced it."""

    seed: int
    n: int
    points: PointSet


def sample_uniform(count: int, seed) -> RandomSample:
    """`count` uniform points on the 2^-128 grid, sorted; reproducible."""
    if count < 0:
        raise ValueError("count must be nonnegative")
    words = philox_words(seed, (count, 2))
    return RandomSample(seed=int(seed), n=count,
                        points=PointSet.from_words(words[:, 0], words[:, 1]))


@dataclass(frozen=True)
class BridgePath:
    """Brownian bridge values on the grid t_k = k/M, k = 0..M."""

    m: int
    seed: int
    values: np.ndarray = field(repr=False)


def bridge_path(m: int, seed) -> BridgePath:
    """Bridge from cumulative Gaussian steps of variance 1/M, pinned at 1.

    B(t_k) = W(t_k) - t_k W(1); both endpoints are exactly zero.
    """
    from scipy.special import ndtri  # loaded here: scipy costs most of `import numvar`

    if m < 2 or m & (m - 1):
        raise ValueError("grid size M must be a power of two >= 2")
    words = philox_words(seed, m)
    uniforms = ((words >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0 ** -53
    steps = ndtri(uniforms) / math.sqrt(m)
    walk = np.concatenate(([0.0], np.cumsum(steps)))
    values = walk - (np.arange(m + 1) / m) * walk[-1]
    values[-1] = 0.0
    return BridgePath(m=m, seed=int(seed), values=values)


def bridge_functional(path: BridgePath, s, count: int) -> float:
    """N * integral over [0,1) of (B(t + S mod 1) - B(t))^2, on the path's grid.

    Exact Riemann sum over the M cells; S must align to the grid.
    """
    f = as_dyadic(s)
    shift_frac = f * path.m
    if shift_frac.denominator != 1:
        raise ValueError(
            f"S = {f} is not aligned to the bridge grid; finest admissible step is 1/{path.m}"
        )
    shift = int(shift_frac) % path.m
    vals = path.values[: path.m]
    diffs = np.roll(vals, -shift) - vals
    return count * float(np.sum(diffs * diffs)) / path.m


@dataclass(frozen=True)
class RandomVarianceResult:
    """Replicate variances of i.i.d. samples plus summary statistics."""

    n: int
    s: Fraction
    records: tuple
    mean: float
    stddev: float
    stderr: float
    expected: float  # N S (1 - S), the exact expectation of V


def random_variance_experiment(count: int, s, replicates: int, seed) -> RandomVarianceResult:
    """V(N, S) over fresh uniform samples, with per-replicate derived seeds."""
    f = as_dyadic(s)
    if replicates < 1:
        raise ValueError("replicates must be >= 1")
    records = []
    for i, sub_seed in enumerate(_derived_seeds(seed, replicates)):
        sample = sample_uniform(count, sub_seed)
        v = variance_pairwise(sample.points, f)
        records.append(VarianceRecord.build(count, f, f"random:{int(seed)}/{i}", v))
    vs = np.array([r.v for r in records])
    stddev = float(vs.std(ddof=1)) if replicates > 1 else 0.0
    return RandomVarianceResult(
        n=count,
        s=f,
        records=tuple(records),
        mean=float(vs.mean()),
        stddev=stddev,
        stderr=stddev / math.sqrt(replicates),
        expected=count * float(f) * (1.0 - float(f)),
    )


@dataclass(frozen=True)
class KroneckerRow:
    """Variances of the linear sequence dilated by alpha at one convergent q."""

    p: int
    q: int
    records: tuple
    max_v: float


def kronecker_experiment(alpha: Alpha, s_grid, n_max: int = 10 ** 5) -> list:
    """V(q, S, alpha) for the linear sequence at convergent denominators q.

    One row per convergent with q <= n_max, reporting all S in the grid and
    the max V over the grid.
    """
    grid = [as_dyadic(s) for s in s_grid]
    convergents, _ = continued_fraction_convergents(alpha, 200)
    rows = []
    for p, q in convergents:
        if q > n_max:
            break
        points = dilate_mod1(range(1, q + 1), alpha)
        engine = WindowAccumulator(points)
        records = tuple(
            VarianceRecord.build(q, f, alpha, engine.variance(f)) for f in grid
        )
        rows.append(KroneckerRow(p=p, q=q, records=records,
                                 max_v=max((r.v for r in records), default=0.0)))
    return rows
