"""Per-path PCA against a cyclic-Jacobi eigensolver oracle."""

import numpy as np
import pytest

from effdeg.reduce import pca_project

from oracles import jacobi_eigh


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

