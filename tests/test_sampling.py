"""Abscissa schemes: stratum bounds, anchoring, determinism, conditioning; the batched streams."""

import numpy as np
import pytest

import oracles
from effdeg import sampling
from effdeg.basis import design_matrix
from effdeg.sampling import (
    chebyshev_nodes,
    derive_seed,
    derive_seeds,
    pair_draws,
    randomized_cosine,
    rng,
    sample_abscissas,
    stream_words,
    uniform_nodes,
)

SEEDS = (0, 1, 2**32 - 1, 2**32, 2**63 + 5, 2**64 - 1)
KEYS = (
    [[p] for p in range(6)],
    [[0, p] for p in range(6)] + [[7, 0]],
    [[3, 0, p] for p in range(6)] + [[0, 0, 0], [2**32 - 1, 1, 0]],
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
    # exact assertion, closed strata, no tolerance; seeds 0..999, one row each
    for r in (1, 2, 3, 5, 8):
        lo, hi = stratum_bounds(r)
        a = randomized_cosine(r, seed=np.arange(1000, dtype=np.uint64))
        assert np.all(a >= lo) and np.all(a <= hi)


def test_randomized_cosine_strictly_increasing():
    a = randomized_cosine(6, seed=np.arange(1000, dtype=np.uint64))
    assert np.all(np.diff(a, axis=1) > 0)


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
    draws = randomized_cosine(1, seed=np.arange(n, dtype=np.uint64))[:, 0]
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


# The batched streams against numpy itself.


@pytest.mark.parametrize("keys", KEYS, ids=["one-word", "two-words", "three-words"])
def test_stream_words_and_derived_seeds_equal_numpy(keys):
    keys = np.array(keys, dtype=np.uint32)
    for seed in SEEDS + (2**130 + 17,):  # one seed shared by every row; five words
        words = stream_words(seed, keys, 9)
        seeds = derive_seeds(seed, keys)
        for k, key in enumerate(keys.tolist()):
            want = np.random.Philox(np.random.SeedSequence(seed, spawn_key=key)).random_raw(9)
            assert words[k].tolist() == want.tolist()
            assert int(seeds[k]) == derive_seed(seed, *key)
    per_row = np.resize(np.array(SEEDS, dtype=np.uint64), len(keys))  # a seed per row
    words = stream_words(per_row, keys, 5)
    seeds = derive_seeds(per_row, keys)
    for k, key in enumerate(keys.tolist()):
        want = np.random.Philox(np.random.SeedSequence(int(per_row[k]), spawn_key=key))
        assert words[k].tolist() == want.random_raw(5).tolist()
        assert int(seeds[k]) == derive_seed(int(per_row[k]), *key)


@pytest.mark.parametrize("n", [2**31 + 1, 3 * 2**30, 2, 1000])
def test_pair_draws_equal_generator_integers(n):
    # near 2**31 about half the 32-bit draws are rejected; exact rows must match
    keys = np.array([[p, 0] for p in range(400)], dtype=np.uint32)
    pairs, exact = pair_draws(11, keys, n)
    want = np.array([rng(11, p, 0).integers(0, n, size=2) for p in range(400)])
    assert (pairs[exact] == want[exact]).all()
    if n > 2**31:
        assert 0 < exact.sum() < exact.size
        assert (pairs[~exact] != want[~exact]).any(axis=1).any()
    else:
        assert exact.all()


def test_pair_draws_leave_out_of_range_n_to_the_generator():
    keys = np.array([[0], [1]], dtype=np.uint32)
    for n in (0, 1, 2**32, 2**40):
        assert not pair_draws(3, keys, n)[1].any()


def test_separate_equals_the_scalar_loop_row_by_row():
    r = 6
    uppers = 0.5 * (1.0 - np.cos((np.arange(r) + 1.0) * np.pi / r))
    rows = np.tile(chebyshev_nodes(r), (6, 1))
    rows[1, 2] = rows[1, 1]  # exact duplicate
    rows[2, 3] = rows[2, 2] + 1e-13  # within the tie gap
    rows[3, 1:4] = rows[3, 1]  # a run of three: nudges cascade
    rows[4, 3:5] = uppers[4] - np.array([5e-13, 4e-13])  # the nudge is capped by the stratum bound
    rows[5, -2:] = 1.0 - np.array([5e-13, 4e-13])  # and by the unit interval
    got = sampling._separate(rows, uppers)
    for k in range(rows.shape[0]):
        assert got[k].tobytes() == oracles.separate(rows[k], uppers).tobytes()
    assert got[0].tobytes() == rows[0].tobytes()
    assert all(got[k].tobytes() != rows[k].tobytes() for k in range(1, 6))


@pytest.mark.parametrize("r,anchored", [(1, False), (5, True), (8, False), (15, True)])
def test_batched_randomized_cosine_equals_the_generator(r, anchored):
    seeds = np.array([derive_seed(s, p, 1) for s in SEEDS for p in range(20)], dtype=np.uint64)
    got = randomized_cosine(r, seed=seeds, anchored=anchored)
    for k, seed in enumerate(seeds.tolist()):
        want = oracles.randomized_cosine(r, seed, anchored)
        assert got[k].tobytes() == want.tobytes()
        assert randomized_cosine(r, seed, anchored).tobytes() == want.tobytes()


def test_deterministic_schemes_ignore_seeds():
    seeds = np.arange(4, dtype=np.uint64)
    assert np.array_equal(sample_abscissas("chebyshev_fixed", 5, seed=seeds), chebyshev_nodes(5))
    assert np.array_equal(sample_abscissas("uniform", 5, seed=seeds), uniform_nodes(5))
