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
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .points import (Alpha, PointSet, continued_fraction_convergents, dilate_mod1,
                     philox_words, seed_sequence)
from .variance import WindowAccumulator, as_dyadic, variance_pairwise

DEFAULT_BRIDGE_GRID = 1 << 14


def _derived_seeds(seed, count: int) -> list:
    """Deterministic 64-bit seeds for `count` replicates of a root seed."""
    state = seed_sequence(seed).generate_state(count, dtype=np.uint64)
    return [int(s) for s in state]


@dataclass(frozen=True)
class RandomSample:
    """An i.i.d. uniform point set."""

    points: PointSet


def sample_uniform(count: int, seed) -> RandomSample:
    """`count` uniform points on the 2^-128 grid, sorted; reproducible."""
    if count < 0:
        raise ValueError("count must be nonnegative")
    words = philox_words(seed, (count, 2))
    return RandomSample(PointSet(words[:, 0], words[:, 1]))


def bridge_path(m: int, seed) -> np.ndarray:
    """Brownian bridge values B(t_k) on the grid t_k = k/M, k = 0..M, as float64.

    Built from cumulative Gaussian steps of variance 1/M, pinned at 1:
    B(t_k) = W(t_k) - t_k W(1); both endpoints are exactly zero.
    """
    if m < 2 or m & (m - 1):
        raise ValueError("grid size M must be a power of two >= 2")
    from scipy.special import ndtri  # loaded here: scipy costs most of `import numvar`

    words = philox_words(seed, m)
    uniforms = ((words >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0 ** -53
    steps = ndtri(uniforms) / math.sqrt(m)
    walk = np.concatenate(([0.0], np.cumsum(steps)))
    values = walk - (np.arange(m + 1) / m) * walk[-1]
    values[-1] = 0.0
    return values


def bridge_functional(path: np.ndarray, s, count: int) -> float:
    """N * integral over [0,1) of (B(t + S mod 1) - B(t))^2, on the path's grid.

    path holds the M + 1 values of bridge_path.  Exact Riemann sum over the
    M cells; S must align to the grid.
    """
    f = as_dyadic(s)
    m = len(path) - 1
    shift_frac = f * m
    if shift_frac.denominator != 1:
        raise ValueError(f"S = {f} is not aligned to the bridge grid;"
                         f" finest admissible step is 1/{m}")
    shift = int(shift_frac) % m
    vals = path[:m]
    diffs = np.roll(vals, -shift) - vals
    return count * float(np.sum(diffs * diffs)) / m


@dataclass(frozen=True)
class RandomVarianceResult:
    """Replicate variances of i.i.d. samples plus summary statistics."""

    n: int
    s: Fraction
    values: tuple  # V of each replicate, in replicate order
    mean: float
    stddev: float
    stderr: float
    expected: float  # N S (1 - S), the exact expectation of V


def random_variance_experiment(count: int, s, replicates: int, seed) -> RandomVarianceResult:
    """V(N, S) over fresh uniform samples, with per-replicate derived seeds."""
    f = as_dyadic(s)
    if replicates < 1:
        raise ValueError("replicates must be >= 1")
    values = tuple(variance_pairwise(sample_uniform(count, sub_seed).points, f)
                   for sub_seed in _derived_seeds(seed, replicates))
    vs = np.array(values)
    stddev = float(vs.std(ddof=1)) if replicates > 1 else 0.0
    return RandomVarianceResult(
        n=count,
        s=f,
        values=values,
        mean=float(vs.mean()),
        stddev=stddev,
        stderr=stddev / math.sqrt(replicates),
        expected=count * float(f) * (1.0 - float(f)),
    )


@dataclass(frozen=True)
class KroneckerRow:
    """Max over the S grid of V(q, S, alpha) for the linear sequence, at one convergent p/q."""

    p: int
    q: int
    max_v: float


def kronecker_experiment(alpha: Alpha, s_grid, n_max: int = 10 ** 5) -> list:
    """V(q, S, alpha) for the linear sequence at convergent denominators q.

    One row per convergent with q <= n_max, holding the max V over the grid.
    """
    grid = [as_dyadic(s) for s in s_grid]
    rows = []
    for p, q in continued_fraction_convergents(alpha, 200):
        if q > n_max:
            break
        engine = WindowAccumulator(dilate_mod1(np.arange(1, q + 1), alpha))
        max_v = max((engine.variance(f) for f in grid), default=0.0)
        rows.append(KroneckerRow(p=p, q=q, max_v=max_v))
    return rows
