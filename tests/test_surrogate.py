"""Surrogate fitting, effective degree, and the analytic ED gradient.

The damped normal equations are checked against a hand-rolled Gaussian
elimination solver (tests/oracles.py) and the gradient against central
finite differences, per the derivation they implement.
"""

import numpy as np
import pytest

from effdeg.basis import design_matrix
from effdeg.estimator import EstimatorConfig, PathPlan, fit_paths
from effdeg.sampling import chebyshev_nodes, randomized_cosine, PathAbscissas
from effdeg.surrogate import (
    COND_LIMIT,
    EDValue,
    SingularFitError,
    audit_gradients,
    central_difference,
    ed_from_coefficients,
    fit_matrix,
    mean_ed,
)

from oracles import damped_normal_solve, fd_gradient


def random_instance(rng, r=8, K=5):
    abscissas = randomized_cosine(r, seed=int(rng.integers(2**31)))
    ys = rng.standard_normal(r)
    return abscissas, ys


def fit(abscissas, ys, max_degree, damping, basis):
    """Coefficients of one sampled path: the one-column case of fit_matrix."""
    return fit_matrix(abscissas, ys[:, None], max_degree, damping, basis)[:, 0]


def ed_gradient(abscissas, ys, max_degree, damping, basis):
    """dED/dy of one sampled path: the one-column case of fit_matrix."""
    _, grad = fit_matrix(abscissas, ys[:, None], max_degree, damping, basis, with_gradient=True)
    return grad[:, 0]


def test_fit_recovers_basis_element_exactly():
    nodes = chebyshev_nodes(4)
    x = 2.0 * nodes.alphas - 1.0
    ys = 4.0 * x**3 - 3.0 * x  # T_3
    c = fit(nodes, ys, 3, 0.0, "chebyshev")
    assert np.max(np.abs(c - np.array([0, 0, 0, 1.0]))) < 1e-10


def test_fit_constant():
    nodes = chebyshev_nodes(5)
    c = fit(nodes, np.full(5, 5.0), 3, 0.0, "chebyshev")
    assert np.max(np.abs(c - np.array([5.0, 0, 0, 0]))) < 1e-10


def test_fit_matches_independent_solver():
    # the [DERIVED] oracle: hand-rolled Gaussian elimination on (T'T + eps I)
    rng = np.random.default_rng(21)
    for _ in range(25):
        abscissas, ys = random_instance(rng, r=8, K=5)
        c = fit(abscissas, ys, 5, 1e-3, "chebyshev")
        T = design_matrix("chebyshev", abscissas.alphas, 5)
        want = damped_normal_solve(T, ys, 1e-3)
        assert np.max(np.abs(c - want)) < 1e-9


def test_fit_residual_contract():
    rng = np.random.default_rng(22)
    for eps in (0.0, 1e-6, 1e-3):
        abscissas, ys = random_instance(rng, r=10, K=6)
        c = fit(abscissas, ys, 6, eps, "legendre")
        T = design_matrix("legendre", abscissas.alphas, 6)
        G = T.T @ T + eps * np.eye(7)
        b = T.T @ ys
        res = np.abs(G @ c - b).max()
        assert res < 1e-8 * (1.0 + np.abs(b).max())


def test_fit_rejects_underdetermined():
    nodes = chebyshev_nodes(3)
    with pytest.raises(ValueError):
        fit(nodes, np.zeros(3), 3, 1e-6, "chebyshev")


def test_fit_singular_without_damping():
    # nearly coincident abscissas make the Gram matrix numerically singular
    alphas = 0.5 + np.arange(6) * 1e-11
    squeezed = PathAbscissas(
        alphas=alphas, variant="uniform", anchored=False, seed=None
    )
    ys = np.sin(alphas)
    with pytest.raises(SingularFitError):
        fit(squeezed, ys, 5, 0.0, "chebyshev")
    # damping rescues the same system
    assert np.all(np.isfinite(fit(squeezed, ys, 5, 1e-6, "chebyshev")))


def test_effective_degree_examples():
    v = ed_from_coefficients(np.array([0.0, 0.0, 0.0, 1.0]))
    assert v.ed == 3.0 and v.ed_norm == 3.0
    assert ed_from_coefficients(np.array([2.0, -1.0, 3.0])).ed == 7.0
    v = ed_from_coefficients(np.array([1.0, 1.0]))
    assert v.ed == 1.0 and v.ed_norm == 0.5
    v = ed_from_coefficients(np.zeros(4))
    assert v.ed == 0.0 and v.ed_norm == 0.0


def test_effective_degree_of_surrogate():
    nodes = chebyshev_nodes(4)
    v = ed_from_coefficients(fit(nodes, np.full(4, 2.0), 3, 0.0, "chebyshev"))
    assert isinstance(v, EDValue)
    assert v.ed < 1e-9


def test_ed_lipschitz_in_coefficients():
    rng = np.random.default_rng(31)
    for _ in range(200):
        K = int(rng.integers(1, 9))
        c1 = rng.standard_normal(K + 1)
        c2 = rng.standard_normal(K + 1)
        lhs = abs(ed_from_coefficients(c1).ed - ed_from_coefficients(c2).ed)
        assert lhs <= K * np.abs(c1 - c2).sum() + 1e-12


def test_ed_positive_homogeneity():
    rng = np.random.default_rng(32)
    c = rng.standard_normal(6)
    base = ed_from_coefficients(c)
    for lam in (0.5, 2.0, 7.25):
        scaled = ed_from_coefficients(lam * c)
        assert scaled.ed == pytest.approx(lam * base.ed, rel=1e-12)
        assert scaled.ed_norm == pytest.approx(base.ed_norm, rel=1e-12)


def test_damping_shrinks_coefficients():
    rng = np.random.default_rng(33)
    for _ in range(20):
        abscissas, ys = random_instance(rng, r=9, K=6)
        norms = [
            np.linalg.norm(fit(abscissas, ys, 6, eps, "chebyshev"))
            for eps in (0.0, 1e-6, 1e-3, 1e-1)
        ]
        assert all(a >= b - 1e-12 for a, b in zip(norms, norms[1:]))


def test_gradient_zero_for_degree_zero():
    nodes = chebyshev_nodes(4)
    g = ed_gradient(nodes, np.array([1.0, -2.0, 0.5, 3.0]), 0, 1e-6, "chebyshev")
    assert np.array_equal(g, np.zeros(4))


def test_gradient_sign_flip():
    rng = np.random.default_rng(34)
    abscissas, ys = random_instance(rng, r=8, K=5)
    c = fit(abscissas, ys, 5, 1e-6, "chebyshev")
    assert np.abs(c).min() > 1e-8  # generic instance, no zero coefficient
    g_pos = ed_gradient(abscissas, ys, 5, 1e-6, "chebyshev")
    g_neg = ed_gradient(abscissas, -ys, 5, 1e-6, "chebyshev")
    assert np.allclose(g_neg, -g_pos, atol=1e-13)


def test_gradient_matches_finite_differences_single():
    rng = np.random.default_rng(35)
    abscissas, ys = random_instance(rng, r=8, K=5)

    def objective(v):
        return ed_from_coefficients(fit(abscissas, v, 5, 1e-6, "chebyshev")).ed

    analytic = ed_gradient(abscissas, ys, 5, 1e-6, "chebyshev")
    reference = fd_gradient(objective, ys, step=1e-6)
    rel = np.abs(analytic - reference).max() / max(np.abs(reference).max(), 1e-12)
    assert rel < 1e-5


def test_gradient_sweep_small():
    # the acceptance suite runs the full 100-configuration sweep; this keeps
    # a fast 30-configuration version in the unit tier
    rng = np.random.default_rng(36)
    done = 0
    while done < 30:
        r = int(rng.integers(4, 16))
        K = int(rng.integers(3, min(r, 15)))
        eps = float(rng.choice([1e-6, 1e-3]))
        basis = str(rng.choice(["chebyshev", "legendre"]))
        abscissas = randomized_cosine(r, seed=int(rng.integers(2**31)))
        ys = rng.standard_normal(r)
        c = fit(abscissas, ys, K, eps, basis)
        if np.abs(c).min() <= 1e-8:
            continue

        def objective(v):
            return ed_from_coefficients(fit(abscissas, v, K, eps, basis)).ed

        analytic = ed_gradient(abscissas, ys, K, eps, basis)
        reference = fd_gradient(objective, ys, step=1e-6)
        rel = np.abs(analytic - reference).max() / max(np.abs(reference).max(), 1e-12)
        assert rel < 1e-4, f"r={r} K={K} eps={eps} basis={basis} rel={rel}"
        done += 1


def test_central_difference_helper():
    g = central_difference(lambda v: float(v @ v), np.array([1.0, -2.0]))
    assert np.allclose(g, [2.0, -4.0], atol=1e-6)


def test_ed_vector_mean():
    # a vector-valued path's ED is the mean of its per-output EDs
    nodes = chebyshev_nodes(5)
    x = 2.0 * nodes.alphas - 1.0
    plan = PathPlan(i=0, j=1, abscissas=nodes)
    cfg = EstimatorConfig(n_paths=1, resolution=5, max_degree=3, damping=0.0)
    v = fit_paths(np.stack([2.0 * x, 4.0 * x], axis=1)[None], [plan], cfg).ed  # ed 2 and ed 4
    assert v.ed[0] == pytest.approx(3.0, abs=1e-9)
    single = fit_paths((2.0 * x)[None, :, None], [plan], cfg).ed
    direct = ed_from_coefficients(fit(nodes, 2.0 * x, 3, 0.0, "chebyshev"))
    assert single.ed[0] == direct.ed and single.ed_norm[0] == direct.ed_norm
    assert fit_paths(np.zeros((1, 5, 2)), [plan], cfg).ed.ed.tolist() == [0.0]


def test_mean_ed_over_values():
    # the mean runs over the last axis, one row per stacked path
    v = mean_ed(EDValue(np.array([2.0, 4.0]), np.array([1.0, 0.5])))
    assert v.ed == 3.0 and v.ed_norm == 0.75
    rows = mean_ed(EDValue(np.array([[2.0, 4.0], [1.0, 1.0]]), np.array([[1.0, 0.5], [0.0, 1.0]])))
    assert rows.ed.tolist() == [3.0, 1.0] and rows.ed_norm.tolist() == [0.75, 0.5]


def test_fit_matrix_matches_columns():
    rng = np.random.default_rng(37)
    abscissas = randomized_cosine(7, seed=5)
    Y = rng.standard_normal((7, 3))
    C = fit_matrix(abscissas, Y, 4, 1e-6, "chebyshev")
    for j in range(3):
        cj = fit(abscissas, Y[:, j], 4, 1e-6, "chebyshev")
        assert np.allclose(C[:, j], cj, atol=1e-14)


def test_gradient_matrix_matches_columns():
    rng = np.random.default_rng(38)
    abscissas = randomized_cosine(7, seed=6)
    Y = rng.standard_normal((7, 2))
    _, G = fit_matrix(abscissas, Y, 4, 1e-6, "chebyshev", with_gradient=True)
    for j in range(2):
        gj = ed_gradient(abscissas, Y[:, j], 4, 1e-6, "chebyshev")
        assert np.allclose(G[:, j], gj, atol=1e-14)


def test_fit_matrix_with_gradient_reuses_one_gram():
    # the gradient solve through the fit's Gram is bit-identical to solving
    # against a freshly built T^t T + eps I
    rng = np.random.default_rng(39)
    for damping in (0.0, 1e-6):
        abscissas = randomized_cosine(8, seed=7)
        Y = rng.standard_normal((8, 3))
        C, G = fit_matrix(abscissas, Y, 5, damping, "legendre", with_gradient=True)
        assert C.tobytes() == fit_matrix(abscissas, Y, 5, damping, "legendre").tobytes()
        T = design_matrix("legendre", abscissas.alphas, 5)
        gram = T.T @ T + damping * np.eye(6)
        want = T @ np.linalg.solve(gram, np.sign(C) * np.arange(6.0)[:, None])
        assert G.tobytes() == want.tobytes()


def test_cond_limit_is_the_documented_threshold():
    assert COND_LIMIT == 1e12


def test_audit_gradients_reports_each_kept_cell():
    # draw 1 is skipped; the negated gradient of cell 2 fails the audit
    def draw(attempt):
        if attempt == 1:
            return None
        sign = -1.0 if attempt == 2 else 1.0
        x = np.array([1.0, -2.0])
        return {"attempt": attempt}, sign * 2.0 * x, lambda v: float(v @ v), x

    report = audit_gradients(draw, 1, tolerance=1e-6)
    assert report["ok"] is True and report["n_checks"] == 1
    assert report["cells"][0]["rel_err"] < 1e-6
    report = audit_gradients(draw, 3, tolerance=1e-6)
    assert [c["attempt"] for c in report["cells"]] == [0, 2, 3]
    assert report["cells"][1]["rel_err"] == pytest.approx(2.0, rel=1e-6)
    assert report["max_rel_err"] == report["cells"][1]["rel_err"]
    assert report["ok"] is False
    # too few cells within 20 * n_checks attempts is a failure too
    assert audit_gradients(lambda attempt: None, 1, tolerance=1.0) == {
        "n_checks": 0, "max_rel_err": 0.0, "tolerance": 1.0, "ok": False, "cells": [],
    }



def test_stacked_fit_and_ed_equal_each_system_alone():
    rng = np.random.default_rng(41)
    alphas = np.sort(rng.uniform(0.0, 1.0, size=(5, 7)), axis=1)
    Y = rng.standard_normal((5, 7, 3))
    C, G = fit_matrix(alphas, Y, 4, 1e-6, "legendre", with_gradient=True)
    stacked = ed_from_coefficients(np.swapaxes(C, -1, -2))
    assert C.shape == (5, 5, 3) and G.shape == Y.shape and stacked.ed.shape == (5, 3)
    for k in range(5):
        c, g = fit_matrix(alphas[k], Y[k], 4, 1e-6, "legendre", with_gradient=True)
        assert C[k].tobytes() == c.tobytes() and G[k].tobytes() == g.tobytes()
        for j in range(3):
            alone = ed_from_coefficients(c[:, j])
            assert (stacked.ed[k, j], stacked.ed_norm[k, j]) == (alone.ed, alone.ed_norm)
    with pytest.raises(ValueError):
        fit_matrix(alphas, Y[:4], 4, 1e-6, "legendre")
