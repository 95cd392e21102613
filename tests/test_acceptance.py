"""Acceptance suite: one test (and one pytest -v line) per criterion.

Statistical checks use fixed seeds and 3-standard-error windows; exact checks
use no tolerance at all.  Each test prints the measured numbers so a -rA run
documents the evidence behind its PASS line.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from numvar.arithmetic import (congruence_solution_count, difference_set,
                               divisibility_bound_check, divisor_lists,
                               energy_direct, energy_window, gcd_average,
                               gcd_sum, normalize_polynomial,
                               rep_quadratic_divisor, rep_table)
from numvar.baselines import (_derived_seeds, bridge_functional, bridge_path,
                              kronecker_experiment, random_variance_experiment,
                              sample_uniform)
from numvar.cli import parse_s_grid, preset_config, preset_verdict, run_scan
from numvar.dyadic import PlateauKernel, decompose, verify_decomposition, y_window_sum
from numvar.points import Alpha, SequenceSpec, dilate_mod1, generate_terms
from numvar.variance import variance_pairwise, variance_sweep


def test_criterion_01_dual_route_equivalence():
    """500 random instances: pairwise and sweep variances agree to 1e-9."""
    rng = np.random.default_rng(101)
    worst = 0.0
    for i in range(500):
        n = int(rng.integers(1, 2001))
        if i % 2:
            pts = sample_uniform(n, int(rng.integers(0, 2 ** 63))).points
        else:
            alpha = Alpha.random_stream(1, int(rng.integers(0, 2 ** 63)))[0]
            pts = dilate_mod1([k * k for k in range(1, n + 1)], alpha)
        v_exp = int(rng.integers(1, 65))
        num = int(rng.integers(1, min(1 << v_exp, 1 << 20)))
        s = Fraction(num, 1 << v_exp)
        a = variance_pairwise(pts, s)
        b = variance_sweep(pts, s)
        err = abs(a - b) / max(1.0, abs(a))
        worst = max(worst, err)
        assert err <= 1e-9
    print(f"criterion 1: worst relative gap {worst:.2e} <= 1e-9 over 500 instances")


def test_criterion_02_plateau_figure_reconstruction():
    """decompose(15/64) gives the four known levels; tent rebuilt to 1e-12."""
    levels = decompose(Fraction(15, 64)).levels
    assert levels == ((3, 0), (4, 2), (5, 6), (6, 14))
    rng = np.random.default_rng(2)
    worst = 0.0
    for x in rng.uniform(-1.0, 1.0, size=1000):
        lhs, rhs = verify_decomposition(Fraction(15, 64), float(x))
        worst = max(worst, abs(lhs - rhs))
        assert abs(lhs - rhs) <= 1e-12
    print(f"criterion 2: levels {list(levels)}, worst pointwise gap {worst:.2e} <= 1e-12")


def test_criterion_03_badly_approximable_flat_variance():
    """Linear sequence at golden-ratio convergent denominators stays below 9."""
    rows = kronecker_experiment(Alpha.golden(), parse_s_grid("k/64"), n_max=10 ** 5)
    assert rows, "no convergent denominators found"
    worst = max(r.max_v for r in rows)
    qs = [r.q for r in rows]
    assert qs[0] == 1 and all(b > a for a, b in zip(qs, qs[1:]))
    assert worst <= 9.0
    print(f"criterion 3: {len(rows)} denominators up to {qs[-1]}, "
          f"max V = {worst:.4f} <= 9")


def test_criterion_04_quadratic_preset_trend():
    """thm1-quadratic preset: per-S median of V/(NS(1-S)) within [0.85, 1.15]."""
    config = preset_config("thm1-quadratic")
    result = run_scan(config)
    verdict = preset_verdict("thm1-quadratic", result)
    for s_label, median in verdict["medians"].items():
        assert 0.85 <= median <= 1.15, f"S={s_label}: median {median}"
    assert verdict["pass"]
    shown = {k: round(v, 4) for k, v in verdict["medians"].items()}
    print(f"criterion 4: medians {shown} all in [0.85, 1.15]")


def test_criterion_05_random_baseline_mean():
    """Mean variance of i.i.d. samples matches NS(1-S) within 3 SE."""
    # the identity itself, pre-verified by brute force at N = 10
    pre = random_variance_experiment(10, Fraction(1, 8), 4000, seed=4001)
    z_pre = (pre.mean - pre.expected) / pre.stderr
    assert abs(z_pre) <= 3
    main = random_variance_experiment(10 ** 4, Fraction(1, 128), 200, seed=11)
    z = (main.mean - main.expected) / main.stderr
    assert abs(z) <= 3
    print(f"criterion 5: N=10 pre-check z = {z_pre:+.2f}; "
          f"N=10^4 mean {main.mean:.3f} vs {main.expected:.3f} (z = {z:+.2f})")


def test_criterion_06_bridge_functional_mean():
    """10^4 bridge paths at M = 2^14: functional mean hits N S(1-S)."""
    s, n, m = Fraction(1, 8), 1000, 1 << 14
    vals = np.array([
        bridge_functional(bridge_path(m, seed), s, n)
        for seed in _derived_seeds(2026, 10 ** 4)
    ])
    expected = n * float(s) * (1 - float(s))
    assert expected == 109.375
    se = vals.std(ddof=1) / math.sqrt(vals.size)
    z = (vals.mean() - expected) / se
    assert abs(z) <= 3
    print(f"criterion 6: mean {vals.mean():.3f} vs 109.375 (z = {z:+.2f})")


def test_criterion_07_arithmetic_lemma_suite():
    """Representation, gcd-average, divisibility, congruence, energy bounds."""
    # (a) quadratic representation numbers never exceed the divisor count
    lists = divisor_lists(10 ** 5)
    for u in range(1, 10 ** 5 + 1):
        assert rep_quadratic_divisor((1, 0), u, divisors=lists[u]) <= len(lists[u])

    # (b) gcd average approaches (6/pi^2) x ln x from below as x grows
    def ratio(x):
        return gcd_average(x) / ((6 / math.pi ** 2) * x * math.log(x))
    r4, r5 = ratio(10 ** 4), ratio(10 ** 5)
    assert abs(1 - r5) < abs(1 - r4)
    assert 0.75 < r4 < 1.05 and 0.75 < r5 < 1.05

    # (c) difference-set divisibility bound for x^3 + x, N = 500, ell in [2, 200]
    coeffs = normalize_polynomial((0, 1, 0, 1))
    diffs = difference_set(coeffs, 500)
    for ell in range(2, 201):
        hits, _, ok = divisibility_bound_check(diffs, ell, 3, 500)
        assert ok, f"ell = {ell}: {hits} hits exceed the bound"

    # (d) polynomial congruences mod primes have at most deg roots
    primes = [q for q in range(2, 101) if all(q % p for p in range(2, q))]
    for coeffs, degree in (((0, 0, 1), 2), ((-1, 0, 1), 2), ((0, -1, 0, 1), 3)):
        for q in primes:
            assert congruence_solution_count(coeffs, q) <= degree

    # (e) additive energy of squares grows like N^2 ln N with a stable constant
    ratios = []
    squares = [k * k for k in range(1, 2 * 10 ** 4 + 1)]
    for n in (2500, 5000, 10 ** 4, 2 * 10 ** 4):
        e = n * n + 2 * energy_direct(squares, 1, n)
        ratios.append(e / (n * n * math.log(n)))
    assert all(0.5 <= r <= 0.8 for r in ratios)
    print(f"criterion 7: gcd-average ratios {r4:.4f} -> {r5:.4f}; "
          f"energy ratios {[round(r, 4) for r in ratios]} in [0.5, 0.8]")


def test_criterion_08_exact_identities():
    """Three identities hold exactly, with no floating point involved."""
    rng = np.random.default_rng(88)
    for _ in range(10 ** 4):
        v = int(rng.integers(1, 61))
        s = Fraction(int(rng.integers(1, 1 << min(v, 40))), 1 << v)
        assert decompose(s).scalar_sum() == s * s

    rng = np.random.default_rng(89)
    for _ in range(50):
        n = int(rng.integers(2, 101))
        steps = rng.integers(1, 50, size=n)
        terms = list(np.cumsum(steps))
        table = rep_table(terms, 1, n)
        from numvar.arithmetic import additive_energy
        assert additive_energy(terms, n) == n * n + 2 * energy_window(table)

    linear = list(range(1, 101))
    from numvar.arithmetic import additive_energy
    for n in range(1, 101):
        assert additive_energy(linear, n) == n * (2 * n * n + 1) // 3
    print("criterion 8: scalar, energy-window, and linear-energy identities exact")


def test_criterion_09_centered_sum_second_moment():
    """MC second moment of the centered pair sum sits under the gcd bound."""
    K = 100  # fixed constant for the inequality's shape
    terms = [k * k for k in range(1, 201)]
    table = rep_table(terms, 1, 200)
    g = gcd_sum(table, "one_over_max")
    alphas = Alpha.random_stream(1000, seed=909)
    report = []
    for v, c in ((4, 1), (6, 10)):
        kern = PlateauKernel(v, c)
        samples = np.array([
            y_window_sum(table.counts, table.pair_count, kern, a) for a in alphas
        ])
        m2 = float(np.mean(samples ** 2))
        bound = K * 2.0 ** (-3 * v) * (v + 1) * (c + 1) * g
        assert m2 <= bound, f"kernel ({v},{c}): {m2} > {bound}"
        report.append(f"({v},{c}): m2 = {m2:.2f} <= {bound:.2f}")
    print(f"criterion 9: G = {g:.2f}; " + "; ".join(report))
