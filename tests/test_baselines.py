import hashlib
import math
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

import numvar
from numvar.baselines import (bridge_functional, bridge_path, kronecker_experiment,
                              random_variance_experiment, sample_uniform)
from numvar.points import GRID_ONE, Alpha, dilate_mod1
from numvar.variance import variance_pairwise


def test_sample_uniform_basics():
    a = sample_uniform(50, 999)
    b = sample_uniform(50, 999)
    assert a.points.points == b.points.points
    assert a.points.n == 50
    c = sample_uniform(50, 1000)
    assert c.points.points != a.points.points
    assert sample_uniform(0, 1).points.points == ()
    with pytest.raises(ValueError):
        sample_uniform(-1, 0)


def test_sample_uniform_mean_clt():
    pts = sample_uniform(10 ** 4, 123).points
    mean = sum(pts.points) / (len(pts.points) * GRID_ONE)
    assert abs(mean - 0.5) <= 3 * (1 / math.sqrt(12)) / 100


def test_bridge_path_values_pinned():
    # sha256 of bridge_path(16, 42), recorded when scipy was still
    # imported with the module; the deferred import must not move a bit
    values = bridge_path(16, 42)
    assert values.dtype == np.float64
    assert hashlib.sha256(values.tobytes()).hexdigest() == (
        "2cf403342cd0e0b115b5a5ac724fb186f0cbea012c764b88000bd84c3a57e4a4")


def test_import_does_not_load_scipy():
    src = os.path.dirname(os.path.dirname(numvar.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    code = "import sys, numvar, numvar.cli; print('scipy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    assert proc.stdout.strip() == "False"


def test_bridge_path_shape():
    path = bridge_path(16, 42)
    assert path.shape == (17,)
    assert path[0] == 0.0 and path[-1] == 0.0
    again = bridge_path(16, 42)
    assert np.array_equal(path, again)
    for bad in (0, 1, 3, 24):
        with pytest.raises(ValueError):
            bridge_path(bad, 0)


def test_bridge_covariance_structure():
    # Cov[B(s), B(t)] = min(s, t) - s t holds exactly on the grid
    m, paths = 64, 10 ** 4
    idx = [m // 4, m // 2, 3 * m // 4]
    ts = [i / m for i in idx]
    samples = np.array([bridge_path(m, seed)[idx] for seed in range(paths)])
    for i, s in enumerate(ts):
        for j, t in enumerate(ts):
            exact = min(s, t) - s * t
            prods = samples[:, i] * samples[:, j]
            se = prods.std(ddof=1) / math.sqrt(paths)
            assert abs(prods.mean() - exact) <= 5 * se


def test_bridge_functional_hand_case():
    path = np.array([0.0, 1.0, 2.0, 1.0, 0.0])
    assert bridge_functional(path, Fraction(1, 4), 10) == pytest.approx(10.0)
    assert bridge_functional(path, 0, 10) == 0.0
    assert bridge_functional(path, 1, 10) == 0.0
    with pytest.raises(ValueError, match="1/4"):
        bridge_functional(path, Fraction(1, 8), 10)


def test_bridge_functional_mean():
    # E of the unit-count functional is S(1 - S) for every grid S
    s = Fraction(1, 8)
    paths = 4000
    vals = np.array([bridge_functional(bridge_path(256, seed), s, 1)
                     for seed in range(paths)])
    se = vals.std(ddof=1) / math.sqrt(paths)
    assert abs(vals.mean() - float(s) * (1 - float(s))) <= 3 * se


def test_random_variance_single_point_exact():
    res = random_variance_experiment(1, Fraction(3, 8), 12, seed=5)
    expect = 3 / 8 - (3 / 8) ** 2
    assert all(v == expect for v in res.values)
    assert res.mean == expect and res.stddev == 0.0
    assert res.expected == expect


def test_random_variance_degenerate_and_validation():
    res = random_variance_experiment(20, 0, 5, seed=7)
    assert res.mean == 0.0 and res.expected == 0.0
    with pytest.raises(ValueError):
        random_variance_experiment(10, Fraction(1, 4), 0, seed=1)


def test_random_variance_determinism_and_tags():
    a = random_variance_experiment(100, Fraction(1, 16), 8, seed=31)
    b = random_variance_experiment(100, Fraction(1, 16), 8, seed=31)
    assert a.values == b.values
    assert a.stderr == a.stddev / math.sqrt(8)
    c = random_variance_experiment(100, Fraction(1, 16), 8, seed=32)
    assert c.values != a.values


def test_random_draws_require_a_seed():
    # None would draw from OS entropy, so the values would change from call to call
    for draw in (lambda: sample_uniform(10, None), lambda: bridge_path(16, None),
                 lambda: random_variance_experiment(50, Fraction(1, 8), 2, None)):
        with pytest.raises(ValueError, match="seed is required"):
            draw()


def test_random_variance_matches_expectation():
    res = random_variance_experiment(500, Fraction(1, 32), 200, seed=11)
    assert abs(res.mean - res.expected) <= 3 * res.stderr


def test_kronecker_rational_half():
    rows = kronecker_experiment(Alpha.parse("rat:1/2"), [Fraction(1, 4)], n_max=100)
    assert [(r.p, r.q) for r in rows] == [(0, 1), (1, 2)]
    assert rows[0].max_v == pytest.approx(3 / 16)
    assert rows[1].max_v == pytest.approx(1 / 4)


def test_kronecker_golden_denominators_stay_flat():
    rows = kronecker_experiment(Alpha.golden(),
                                [Fraction(1, 4), Fraction(1, 16)], n_max=100)
    assert [r.q for r in rows] == [1, 2, 3, 5, 8, 13, 21, 34, 55, 89]
    assert max(r.max_v for r in rows) <= 9.0


def test_rational_dilation_blows_up():
    # alpha = 1/2 piles 100 points onto two spots; V = 625 >> Poissonian 25
    pts = dilate_mod1(range(1, 101), Alpha.parse("rat:1/2"))
    v = variance_pairwise(pts, Fraction(1, 4))
    assert v == 625.0
    assert v >= 100 ** 2 * (1 / 4) / 100


def test_uniform_variance_matches_bridge_functional_shape():
    # V(N, S)/N for i.i.d. samples vs the bridge functional at count 1:
    # same limit law, so mean and variance agree within 5 combined SEs
    n, s, trials = 1000, Fraction(1, 8), 500
    vs = np.array([
        variance_pairwise(sample_uniform(n, 10_000 + i).points, s) / n
        for i in range(trials)
    ])
    fs = np.array([
        bridge_functional(bridge_path(1024, 20_000 + i), s, 1)
        for i in range(trials)
    ])

    def se_mean(x):
        return x.std(ddof=1) / math.sqrt(x.size)

    assert abs(vs.mean() - fs.mean()) <= 5 * math.hypot(se_mean(vs), se_mean(fs))

    def var_and_se(x):
        m2 = x.var(ddof=1)
        m4 = np.mean((x - x.mean()) ** 4)
        return m2, math.sqrt(max(m4 - m2 ** 2, 0.0) / x.size)

    v1, e1 = var_and_se(vs)
    v2, e2 = var_and_se(fs)
    assert abs(v1 - v2) <= 5 * math.hypot(e1, e2)
