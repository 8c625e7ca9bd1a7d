"""Abscissa schemes: stratum bounds, anchoring, determinism, conditioning."""

import numpy as np
import pytest

from effdeg.basis import design_matrix
from effdeg.sampling import (
    chebyshev_nodes,
    randomized_cosine,
    sample_abscissas,
    uniform_nodes,
)


def stratum_bounds(r):
    edges = 0.5 * (1.0 - np.cos(np.arange(r + 1) * np.pi / r))
    return edges[:-1], edges[1:]


def test_chebyshev_nodes_r1():
    assert np.allclose(chebyshev_nodes(1), [0.5], atol=1e-15)


def test_chebyshev_nodes_r2():
    want = [(2.0 - np.sqrt(2.0)) / 4.0, (2.0 + np.sqrt(2.0)) / 4.0]
    assert np.allclose(chebyshev_nodes(2), want, atol=1e-15)


def test_chebyshev_nodes_symmetry():
    a = chebyshev_nodes(4)
    assert a[0] + a[3] == pytest.approx(1.0, abs=1e-15)
    assert a[1] + a[2] == pytest.approx(1.0, abs=1e-15)


def test_chebyshev_nodes_formula():
    r = 9
    a = chebyshev_nodes(r)
    i = np.arange(1, r + 1)
    want = 0.5 * (1.0 - np.cos((2 * i - 1) * np.pi / (2 * r)))
    assert np.allclose(a, want, atol=1e-15)
    assert np.all(np.diff(a) > 0)


def test_uniform_nodes():
    assert np.array_equal(uniform_nodes(2), [0.0, 1.0])
    assert np.array_equal(uniform_nodes(5), [0.0, 0.25, 0.5, 0.75, 1.0])
    assert np.array_equal(uniform_nodes(1), [0.5])


def test_randomized_cosine_respects_strata():
    # exact assertion, closed strata, no tolerance
    for r in (1, 2, 3, 5, 8):
        lo, hi = stratum_bounds(r)
        for seed in range(1000):
            a = randomized_cosine(r, seed=seed)
            assert np.all(a >= lo) and np.all(a <= hi)


def test_randomized_cosine_strictly_increasing():
    for seed in range(1000):
        a = randomized_cosine(6, seed=seed)
        assert np.all(np.diff(a) > 0)


def test_randomized_cosine_anchored_endpoints_exact():
    for seed in (0, 7, 123):
        a = randomized_cosine(4, seed=seed, anchored=True)
        assert a[0] == 0.0
        assert a[-1] == 1.0
        lo, hi = stratum_bounds(4)
        assert np.all(a >= lo) and np.all(a <= hi)


def test_randomized_cosine_r2_stratum_example():
    for seed in range(50):
        a = randomized_cosine(2, seed=seed)
        assert 0.0 <= a[0] <= 0.5 <= a[1] <= 1.0


def test_randomized_cosine_deterministic():
    a = randomized_cosine(4, seed=7)
    b = randomized_cosine(4, seed=7)
    assert a.tobytes() == b.tobytes()
    c = randomized_cosine(4, seed=8)
    assert not np.array_equal(a, c)


def test_anchored_requires_two_points():
    with pytest.raises(ValueError, match="anchoring requires resolution >= 2"):
        randomized_cosine(1, seed=0, anchored=True)
    for variant in ("chebyshev_fixed", "uniform"):
        with pytest.raises(ValueError, match="anchoring requires resolution >= 2"):
            sample_abscissas(variant, 1, anchored=True)
    for variant in ("chebyshev_fixed", "randomized_cosine", "uniform"):
        with pytest.raises(ValueError, match="resolution must be >= 1"):
            sample_abscissas(variant, 0, seed=0)


def test_sample_abscissas_dispatch():
    fixed = sample_abscissas("chebyshev_fixed", 5)
    assert np.array_equal(fixed, chebyshev_nodes(5))
    anchored = sample_abscissas("chebyshev_fixed", 5, anchored=True)
    assert anchored[0] == 0.0 and anchored[-1] == 1.0
    assert np.array_equal(sample_abscissas("uniform", 5), uniform_nodes(5))
    with pytest.raises(ValueError):
        sample_abscissas("sobol", 5)
    rc = sample_abscissas("randomized_cosine", 5, seed=3)
    assert rc.tobytes() == randomized_cosine(5, seed=3).tobytes()
    with pytest.raises(ValueError):
        sample_abscissas("randomized_cosine", 5)


def test_pooled_r1_draws_follow_arcsine_law():
    n = 100_000
    draws = np.array([randomized_cosine(1, seed=s)[0] for s in range(n)])
    draws.sort()
    cdf = (2.0 / np.pi) * np.arcsin(np.sqrt(draws))
    empirical_hi = np.arange(1, n + 1) / n
    empirical_lo = np.arange(0, n) / n
    ks = max(np.abs(empirical_hi - cdf).max(), np.abs(cdf - empirical_lo).max())
    assert ks < 0.02


def test_conditioning_chebyshev_beats_uniform():
    r, K = 15, 14
    cheb = design_matrix("chebyshev", chebyshev_nodes(r), K)
    unif = design_matrix("chebyshev", uniform_nodes(r), K)
    c1 = np.linalg.cond(cheb)
    c2 = np.linalg.cond(unif)
    assert c1 < c2
    assert c2 / c1 > 10.0
