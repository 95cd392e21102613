import math
from fractions import Fraction

import numpy as np
import pytest

from numvar.arithmetic import rep_table
from numvar.dyadic import (PlateauKernel, decompose, verify_decomposition,
                           y_statistic, y_window_sum)
from numvar.points import Alpha


def test_decompose_example():
    exp = decompose(Fraction(15, 64))
    assert exp.pairs() == [(3, 0), (4, 2), (5, 6), (6, 14)]
    assert exp.scalar_sum() == Fraction(225, 4096)
    assert exp.s == Fraction(15, 64)


def test_decompose_half_and_scalar_identity():
    exp = decompose(Fraction(1, 2))
    assert exp.pairs() == [(1, 0)]
    assert exp.scalar_sum() == Fraction(1, 4)
    rng = np.random.default_rng(3)
    for _ in range(200):
        v = int(rng.integers(1, 30))
        s = Fraction(int(rng.integers(1, 1 << v)), 1 << v)
        assert decompose(s).scalar_sum() == s * s


def test_decompose_residual_rejected():
    with pytest.raises(ValueError):
        decompose(Fraction(15, 64), max_level=3)
    # prefix digits alone are fine at a tight level cap
    assert decompose(Fraction(1, 8), max_level=3).pairs() == [(3, 0)]
    with pytest.raises(ValueError):
        decompose(Fraction(1, 3))


def test_plateau_validation():
    with pytest.raises(ValueError):
        PlateauKernel(-1, 0)
    with pytest.raises(ValueError):
        PlateauKernel(2, 4)
    PlateauKernel(2, 3)


def test_plateau_values():
    k = PlateauKernel(1, 0)
    assert k.value(Fraction(0)) == Fraction(1, 2)
    assert k.value(Fraction(1, 4)) == Fraction(1, 4)
    assert k.value(Fraction(1, 2)) == 0
    assert k.value(-0.25) == 0.25
    wide = PlateauKernel(3, 2)
    assert wide.value(Fraction(1, 4)) == Fraction(1, 8)  # on the flat top
    assert wide.value(Fraction(5, 16)) == Fraction(1, 16)  # mid-ramp
    assert wide.value(Fraction(3, 8)) == 0
    assert wide.mean() == Fraction(5, 64)
    # 15/16 wraps to -1/16, inside the flat top
    assert wide.periodized(Fraction(15, 16)) == Fraction(1, 8)
    # 11/16 wraps to -5/16, on the ramp
    assert wide.periodized(Fraction(11, 16)) == Fraction(1, 16)


def test_pointwise_reconstruction():
    rng = np.random.default_rng(5)
    for _ in range(1000):
        v = int(rng.integers(1, 53))
        s = Fraction(int(rng.integers(1, min(1 << v, 1 << 30))), 1 << v)
        x = float(rng.uniform(-1.0, 1.0))
        lhs, rhs = verify_decomposition(s, x)
        assert abs(lhs - rhs) <= 1e-12
    # exact equality on the rational path
    for x in (Fraction(0), Fraction(1, 7), Fraction(-3, 11), Fraction(1, 2)):
        lhs, rhs = verify_decomposition(Fraction(15, 64), x)
        assert lhs == rhs


def test_fourier_against_quadrature():
    m = 1 << 16
    ts = np.arange(m) / m
    for v, c in ((0, 0), (3, 0), (4, 2), (5, 6), (6, 14)):
        kern = PlateauKernel(v, c)
        vals = np.array([kern.periodized(float(t)) for t in ts])
        for j in range(-32, 33):
            if j == 0:
                ref = vals.mean()
                assert abs(ref - float(kern.mean())) < 1e-9
                continue
            ref = float(np.mean(vals * np.cos(2 * math.pi * j * ts)))
            assert abs(kern.fourier(j) - ref) < 1e-6


def test_fourier_rejects_zero_frequency():
    with pytest.raises(ValueError):
        PlateauKernel(3, 0).fourier(0)


def test_y_statistic_examples():
    kern = PlateauKernel(1, 0)
    assert y_statistic([1, 2], 1, kern, Alpha.parse("rat:1/4")) == 0.0
    # f_{1,0}(1/4) = 1/4 equals the mean, so the centered value is 0
    assert y_statistic([1, 2], 2, kern, Alpha.parse("rat:1/4")) == 0.0
    # f_{1,0}(1/8) = 3/8; Y = 2(3/8) - 2(1/4) = 1/4
    assert y_statistic([1, 2], 2, kern, Alpha.parse("rat:1/8")) == pytest.approx(0.25)
    with pytest.raises(ValueError):
        y_statistic([1, 2], 3, kern, Alpha.golden())


def test_y_statistic_mean_zero_over_alpha():
    terms = [k * k for k in range(1, 51)]
    kern = PlateauKernel(5, 3)
    alphas = Alpha.random_stream(10 ** 4, seed=29)
    ys = np.array([y_statistic(terms, 50, kern, a) for a in alphas])
    se = ys.std(ddof=1) / math.sqrt(len(ys))
    assert abs(ys.mean()) <= 3 * se


def test_window_sum_matches_per_term_sum():
    terms = [k * k for k in range(1, 21)]
    kern = PlateauKernel(4, 5)
    table = rep_table(terms, 2, 20)
    for tag in ("golden", "sqrt2m1", "rat:3/7"):
        alpha = Alpha.parse(tag)
        direct = sum(y_statistic(terms, n, kern, alpha) for n in range(1, 21))
        grouped = y_window_sum(table.counts, table.pair_count, kern, alpha)
        assert grouped == pytest.approx(direct, abs=1e-9)
