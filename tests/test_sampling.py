"""Abscissa schemes: stratum bounds, anchoring, determinism, conditioning; the path streams."""

import numpy as np
import pytest

import oracles
from effdeg import sampling
from effdeg.basis import design_matrix
from effdeg.sampling import (
    chebyshev_nodes,
    pair_draws,
    path_key,
    path_uniforms,
    randomized_cosine,
    sample_abscissas,
    uniform_nodes,
)

SEEDS = (0, 1, 2**32 - 1, 2**32, 2**63 + 5, 2**64 - 1)
PREFIXES = ((), (7,), (3, 2**32 - 1))
# runs of consecutive path indices, a single path, and indices out of order
PATHS = np.array([0, 1, 2, 3, 9, 2**32 - 1, 5, 6, 4, 4], dtype=np.uint64)


def uniforms(seed, shape):
    return np.random.default_rng(seed).random(shape)


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
    # closed strata at every resolution 1..64 over 1000 rows and the extreme planned
    # uniforms: all 0, all 1 - 2**-53, and the two alternations, where u_(i-1) near 1
    # and u_i = 0 meet at a shared bound.  Every abscissa is clamped into its
    # stratum's edges, so none crosses a bound at all.
    top = 1.0 - 2.0**-53
    for r in range(1, 65):
        lo, hi = stratum_bounds(r)
        odd = np.arange(r) % 2 == 1
        u = uniforms(r, (1004, r))
        u[:4] = [np.zeros(r), np.full(r, top), np.where(odd, 0.0, top), np.where(odd, top, 0.0)]
        a = randomized_cosine(r, u)
        crossing = np.maximum(lo - a, a - hi).max()
        assert crossing <= 0.0, r


def test_randomized_cosine_strictly_increasing():
    a = randomized_cosine(6, uniforms(6, (1000, 6)))
    assert np.all(np.diff(a, axis=1) > 0)


def test_randomized_cosine_anchored_endpoints_exact():
    for seed in (0, 7, 123):
        a = randomized_cosine(4, uniforms(seed, 4), anchored=True)
        assert a[0] == 0.0
        assert a[-1] == 1.0
        lo, hi = stratum_bounds(4)
        assert np.all(a >= lo) and np.all(a <= hi)


def test_randomized_cosine_r2_stratum_example():
    for u in uniforms(2, (50, 2)):
        a = randomized_cosine(2, u)
        assert 0.0 <= a[0] <= 0.5 <= a[1] <= 1.0


def test_randomized_cosine_deterministic():
    # a path's abscissas are a function of (seed, prefix, path index) alone
    def draw(seed, prefix, p):
        paths = np.array([p], dtype=np.uint64)
        return randomized_cosine(4, path_uniforms(path_key(seed, prefix), paths, 4))

    a = draw(7, (), 3)
    assert a.tobytes() == draw(7, (), 3).tobytes()
    for other in ((8, (), 3), (7, (0,), 3), (7, (), 4)):
        assert not np.array_equal(a, draw(*other))


def test_anchored_requires_two_points():
    with pytest.raises(ValueError, match="anchoring requires resolution >= 2"):
        randomized_cosine(1, [0.5], anchored=True)
    for variant in ("chebyshev_fixed", "uniform"):
        with pytest.raises(ValueError, match="anchoring requires resolution >= 2"):
            sample_abscissas(variant, 1, anchored=True)
    for variant in ("chebyshev_fixed", "randomized_cosine", "uniform"):
        with pytest.raises(ValueError, match="resolution must be >= 1"):
            sample_abscissas(variant, 0, uniforms=[])


def test_sample_abscissas_dispatch():
    fixed = sample_abscissas("chebyshev_fixed", 5)
    assert np.array_equal(fixed, chebyshev_nodes(5))
    anchored = sample_abscissas("chebyshev_fixed", 5, anchored=True)
    assert anchored[0] == 0.0 and anchored[-1] == 1.0
    assert np.array_equal(sample_abscissas("uniform", 5), uniform_nodes(5))
    with pytest.raises(ValueError):
        sample_abscissas("sobol", 5)
    u = uniforms(3, (2, 3, 5))
    rc = sample_abscissas("randomized_cosine", 5, uniforms=u)
    assert rc.shape == (2, 3, 5)
    assert rc.tobytes() == randomized_cosine(5, u).tobytes()
    assert rc[1, 2].tobytes() == randomized_cosine(5, u[1, 2]).tobytes()
    with pytest.raises(ValueError):
        sample_abscissas("randomized_cosine", 5)
    with pytest.raises(ValueError, match=r"uniforms must be \(\.\.\., 5\)"):
        sample_abscissas("randomized_cosine", 5, uniforms=u[..., :4])


def test_pooled_r1_draws_follow_arcsine_law():
    # the abscissas of 100,000 paths of one plan, through the path streams
    n = 100_000
    draws = randomized_cosine(1, path_uniforms(path_key(0, ()), np.arange(n, dtype=np.uint64), 1))
    draws = draws[:, 0]
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


# The path streams against numpy itself.


@pytest.mark.parametrize("n", [2**31 + 1, 3 * 2**30, 2, 1000])
def test_pair_draws_equal_generator_integers(n):
    # an accepted pair is numpy's integers(0, n, size=2) at the attempt's
    # counter and a rejected one (0, 0); near 2**31 about half the 32-bit
    # draws are rejected
    key = path_key(11, (4, 1))
    paths = np.arange(400, dtype=np.uint64)
    for attempt in (0, 5):
        pairs = pair_draws(key, paths, n, attempt)
        accepted = np.zeros(400, bool)
        for p in range(400):
            philox = np.random.Philox(key=key, counter=[p, 0, attempt, 1])
            want = np.random.Generator(philox).integers(0, n, size=2)
            word = int(np.random.Philox(key=key, counter=[p, 0, attempt, 1]).random_raw(4)[0])
            lemire = oracles.lemire_pair(word, n)
            accepted[p] = lemire is not None
            if accepted[p]:
                assert pairs[p].tolist() == want.tolist() == list(lemire)
            else:
                assert pairs[p].tolist() == [0, 0]
        if n > 2**31:
            assert 0 < accepted.sum() < accepted.size
        else:
            assert accepted.all()


@pytest.mark.parametrize("seed", [0, 5, 2**32 + 7])
def test_path_streams_share_no_word_with_the_rng_stream(seed):
    # rng(seed) and the paths keyed (p,) share one Philox key; counter word
    # 3 keeps an estimate's endpoint pairs off the bits a net of that seed
    # was initialised from
    words = set(sampling.rng(seed).bit_generator.random_raw(64).tolist())
    pairs = sampling._blocks(path_key(seed, ()), np.arange(16, dtype=np.uint64), 0, 0, 1)
    assert words.isdisjoint(pairs.ravel().tolist())


def test_negative_seed_is_rejected_naming_seed():
    # every stream, path key and derived seed starts from the one seed check
    for draw in (sampling.rng, sampling.derive_seed, lambda s: path_key(s, ())):
        with pytest.raises(ValueError, match=r"seed must be >= 0, got -1"):
            draw(-1)


@pytest.mark.parametrize("r,anchored", [(1, False), (5, True), (8, False), (15, True)])
def test_batched_randomized_cosine_equals_the_generator(r, anchored):
    # every path's row equals numpy's Generator.uniform at the path's counter,
    # in one batched call and path by path
    for seed in SEEDS:
        for prefix in PREFIXES:
            key = path_key(seed, prefix)
            got = randomized_cosine(r, path_uniforms(key, PATHS, r), anchored)
            for k, p in enumerate(PATHS.tolist()):
                want = oracles.randomized_cosine(r, seed, prefix + (p,), anchored)
                assert got[k].tobytes() == want.tobytes()
                alone = randomized_cosine(r, path_uniforms(key, PATHS[k : k + 1], r)[0], anchored)
                assert alone.tobytes() == want.tobytes()


def test_deterministic_schemes_ignore_seeds():
    # and the uniforms a seeded scheme would read
    u = uniforms(0, (4, 5))
    assert np.array_equal(sample_abscissas("chebyshev_fixed", 5, uniforms=u), chebyshev_nodes(5))
    assert np.array_equal(sample_abscissas("uniform", 5, uniforms=u), uniform_nodes(5))
