"""Per-path PCA against a cyclic-Jacobi eigensolver oracle and the thin-SVD form it replaced."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from effdeg.estimator import EstimatorConfig, fit_paths
from effdeg.reduce import PathProjection, pca_project
from effdeg.sampling import chebyshev_nodes

from oracles import jacobi_eigh, pca_project_svd, plans_of


def covariance(ys):
    centered = ys - ys.mean(axis=0)
    return centered.T @ centered / (ys.shape[0] - 1)


def test_identical_outputs_project_to_zero():
    ys = np.tile([1.5, -2.0, 0.25], (6, 1))
    proj = pca_project(ys, 2)
    assert np.array_equal(proj.apply(ys), np.zeros((6, 2)))
    assert np.array_equal(proj.explained_variance, np.zeros(2))


def test_rank_one_data():
    rng = np.random.default_rng(41)
    v = rng.standard_normal(5)
    v /= np.linalg.norm(v)
    s = np.array([0.3, -1.2, 2.5, 0.9])
    ys = s[:, None] * v
    proj = pca_project(ys, 1)
    total = np.trace(covariance(ys))
    assert proj.explained_variance[0] == pytest.approx(total, rel=1e-12)
    recon = proj.mean + proj.apply(ys) @ proj.components
    assert np.max(np.abs(recon - ys)) < 1e-8


def test_matches_bruteforce_eigensolver():
    rng = np.random.default_rng(42)
    ys = rng.standard_normal((6, 10))
    proj = pca_project(ys, 3)
    vals, vecs = jacobi_eigh(covariance(ys))
    assert np.allclose(proj.explained_variance, vals[:3], atol=1e-8)
    for j in range(3):
        # eigenvectors agree up to sign
        dot = abs(float(vecs[:, j] @ proj.components[j]))
        assert dot == pytest.approx(1.0, abs=1e-8)


def test_components_orthonormal_and_variances_sorted():
    rng = np.random.default_rng(43)
    ys = rng.standard_normal((8, 5))
    proj = pca_project(ys, 4)
    assert proj.components.shape == (4, 5)
    G = proj.components @ proj.components.T
    assert np.max(np.abs(G - np.eye(4))) < 1e-8
    assert np.all(np.diff(proj.explained_variance) <= 1e-12)


def test_parseval_inequality_and_rank_equality():
    rng = np.random.default_rng(44)
    ys = rng.standard_normal((7, 4))
    total = np.trace(covariance(ys))
    partial = pca_project(ys, 2)
    assert partial.explained_variance.sum() <= total + 1e-10
    full = pca_project(ys, 4)
    assert full.explained_variance.sum() == pytest.approx(total, rel=1e-10)


def test_sign_canonicalization_and_bit_stability():
    rng = np.random.default_rng(45)
    ys = rng.standard_normal((6, 6))
    a = pca_project(ys, 3)
    for row in a.components:
        assert row[np.argmax(np.abs(row))] >= 0.0
    b = pca_project(ys, 3)
    assert a.components.tobytes() == b.components.tobytes()
    assert a.apply(ys).tobytes() == b.apply(ys).tobytes()


def test_projection_is_contraction_with_rank_equality():
    rng = np.random.default_rng(46)
    ys = rng.standard_normal((6, 4))
    centered = ys - ys.mean(axis=0)
    partial = pca_project(ys, 2).apply(ys)
    for i in range(6):
        assert np.linalg.norm(partial[i]) <= np.linalg.norm(centered[i]) + 1e-12
    full = pca_project(ys, 4).apply(ys)
    for i in range(6):
        assert np.linalg.norm(full[i]) == pytest.approx(
            np.linalg.norm(centered[i]), abs=1e-10
        )


def test_degenerate_tie_flag():
    # four points at the corners of a square: both eigenvalues equal
    ys = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    proj = pca_project(ys, 2)
    assert proj.degenerate_ties
    rng = np.random.default_rng(47)
    generic = pca_project(rng.standard_normal((6, 3)), 2)
    assert not generic.degenerate_ties


def test_range_checks():
    ys = np.zeros((4, 3))
    with pytest.raises(ValueError):
        pca_project(ys, 0)
    with pytest.raises(ValueError):
        pca_project(ys, 4)  # m > min(r, dim)
    with pytest.raises(ValueError):
        pca_project(ys[:1], 1)  # r < 2


def test_apply_is_the_frozen_linear_map():
    rng = np.random.default_rng(48)
    ys = rng.standard_normal((6, 5))
    proj = pca_project(ys, 2)
    assert np.allclose(proj.apply(ys), (ys - ys.mean(axis=0)) @ proj.components.T, atol=1e-12)
    fresh = rng.standard_normal((3, 5))
    want = (fresh - proj.mean) @ proj.components.T
    assert np.allclose(proj.apply(fresh), want, atol=1e-12)


def stacked(projection):
    """A one-path PathProjection from a per-path reference's fields."""
    return PathProjection(
        mean=projection.mean[None],
        components=projection.components[None],
        explained_variance=projection.explained_variance[None],
        degenerate_ties=np.array([projection.degenerate_ties]),
    )


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    r=st.integers(2, 16),
    out=st.integers(1, 32),
    data=st.data(),
    log_scale=st.floats(-3.0, 4.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_snapshot_pca_matches_the_thin_svd_on_separated_spectra(r, out, data, log_scale, seed):
    m = data.draw(st.integers(1, min(r, out)), label="m")
    rng = np.random.default_rng(seed)
    # column weights spread the spectrum over a few decades
    ys = 10.0**log_scale * rng.standard_normal((r, out)) * 10.0 ** rng.uniform(-1, 1, out)
    want = pca_project_svd(ys, m)
    lam = np.linalg.svd(ys - ys.mean(axis=0), compute_uv=False) ** 2 / (r - 1)
    top = lam[0]
    assume(lam[m - 1] >= 1e-3 * top)
    assume(np.all(-np.diff(lam[: m + 1]) >= 1e-3 * top))

    got = pca_project(ys, m)
    assert np.allclose(got.explained_variance, want.explained_variance, rtol=1e-10, atol=0.0)
    for a, b in zip(got.components, want.components):
        mags = np.sort(np.abs(b))
        if mags.size > 1 and mags[-1] - mags[-2] <= 1e-10:
            continue  # the sign rule's pivot is a coin toss between two entries
        assert np.max(np.abs(a - b)) <= 1e-10 * np.max(np.abs(b))
    assert bool(got.degenerate_ties) == want.degenerate_ties

    config = EstimatorConfig(resolution=r, max_degree=min(r - 1, 5), pca_dim=m)
    plans = plans_of(chebyshev_nodes(r), settings=config)
    ed = fit_paths(ys[None], plans).ed[0]
    ed_svd = fit_paths(ys[None], plans, projection=stacked(want)).ed[0]
    assert ed == pytest.approx(ed_svd, rel=1e-10)


@pytest.mark.parametrize("scale", [1.0, 1e2, 1e4])
def test_dead_components_stay_dead_at_every_output_scale(scale):
    # rank-2 blocks: components 3 and 4 carry only the Gram's rounding noise
    rng = np.random.default_rng(49)
    ys = scale * rng.standard_normal((50, 8, 2)) @ rng.standard_normal((50, 2, 16))
    proj = pca_project(ys, 4)
    assert np.all(proj.explained_variance[:, :2] > 0.0)
    assert np.array_equal(proj.explained_variance[:, 2:], np.zeros((50, 2)))
    assert np.array_equal(proj.apply(ys)[..., 2:], np.zeros((50, 8, 2)))
    assert np.array_equal(proj.components[:, 2:], np.zeros((50, 2, 16)))
    assert not proj.degenerate_ties.any()

    config = EstimatorConfig(resolution=8, max_degree=5, pca_dim=4)
    plans = plans_of(np.tile(chebyshev_nodes(8), (50, 1)), settings=config)
    fits = fit_paths(ys, plans, with_gradient=True)
    assert not fits.pca_ties.any()
    assert np.all(np.isfinite(fits.ed)) and np.all(np.isfinite(fits.grad))
