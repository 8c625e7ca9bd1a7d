"""Surrogate fitting, effective degree, and the analytic ED gradient.

The damped normal equations are checked against a hand-rolled Gaussian
elimination solver (tests/oracles.py) and the gradient against central
finite differences, per the derivation they implement.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from effdeg import surrogate
from effdeg.basis import design_matrix
from effdeg.estimator import EstimatorConfig, fit_paths
from effdeg.sampling import chebyshev_nodes, randomized_cosine, sample_abscissas
from effdeg.surrogate import (
    COND_LIMIT,
    SingularFitError,
    audit_gradients,
    central_difference,
    ed_from_coefficients,
    normal_system,
    solve_system,
)

from oracles import damped_normal_solve, fd_gradient, plans_of


def random_instance(rng, r=8, K=5):
    abscissas = randomized_cosine(r, rng.random(r))
    ys = rng.standard_normal(r)
    return abscissas, ys


def fit(abscissas, ys, max_degree, damping, basis):
    """Coefficients of one sampled path: the one-column case of solve_system."""
    system = normal_system(abscissas, max_degree, damping, basis)
    return solve_system(system, ys[:, None])[0][:, 0]


def ed_gradient(abscissas, ys, max_degree, damping, basis):
    """dED/dy of one sampled path: the one-column case of solve_system."""
    system = normal_system(abscissas, max_degree, damping, basis)
    return solve_system(system, ys[:, None], with_gradient=True)[1][:, 0]


def test_fit_recovers_basis_element_exactly():
    nodes = chebyshev_nodes(4)
    x = 2.0 * nodes - 1.0
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
        T = design_matrix("chebyshev", abscissas, 5)
        want = damped_normal_solve(T, ys, 1e-3)
        assert np.max(np.abs(c - want)) < 1e-9


def test_fit_residual_contract():
    rng = np.random.default_rng(22)
    for eps in (0.0, 1e-6, 1e-3):
        abscissas, ys = random_instance(rng, r=10, K=6)
        c = fit(abscissas, ys, 6, eps, "legendre")
        T = design_matrix("legendre", abscissas, 6)
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
    squeezed = 0.5 + np.arange(6) * 1e-11
    ys = np.sin(squeezed)
    with pytest.raises(SingularFitError):
        fit(squeezed, ys, 5, 0.0, "chebyshev")
    # damping rescues the same system
    assert np.all(np.isfinite(fit(squeezed, ys, 5, 1e-6, "chebyshev")))


def test_singular_fits_name_the_first_failing_path(monkeypatch):
    # the condition check and the residual check report the first failing
    # stacked system, and fit_paths names its path by key and endpoint rows
    good, squeezed = chebyshev_nodes(6), 0.5 + np.arange(6) * 1e-11
    cfg = EstimatorConfig(resolution=6, max_degree=5, damping=0.0)
    alphas, rows = [good, good, squeezed, squeezed], dict(i=[0, 1, 2, 3], j=[4, 5, 6, 7])
    plans = plans_of(alphas, **rows, settings=cfg)
    raw = np.sin(plans.alphas)[..., None]
    with pytest.raises(SingularFitError, match="COND_LIMIT") as caught:
        solve_system(normal_system(plans.alphas, 5, 0.0), raw)
    assert caught.value.system == 2
    named = r" on path {} \(endpoint rows {} and {}\)$"
    with pytest.raises(SingularFitError, match="COND_LIMIT.*" + named.format(2, 2, 6)):
        fit_paths(raw, plans)

    monkeypatch.setattr(surrogate, "_RESIDUAL_TOL", -1.0)
    damped = plans_of(alphas, **rows, settings=dataclasses.replace(cfg, damping=1e-6))
    keyed = dataclasses.replace(damped, prefix=(5,), paths=np.array([7, 9, 11, 13]))
    with pytest.raises(SingularFitError, match="residual .*" + named.format("5:7", 0, 4)):
        fit_paths(raw, keyed)


def test_a_crafted_tie_is_left_to_the_fit():
    # u_1 = 1 - 2**-53 and u_2 = 0 put alpha_1 and alpha_2 on their shared
    # stratum bound: damping 0 refuses the tie, damping absorbs it
    tied = randomized_cosine(4, [0.3, 1.0 - 2.0**-53, 0.0, 0.6])
    assert tied[1] == tied[2]
    nudged = tied + np.array([0.0, 0.0, 1e-9, 0.0])

    def ed(alphas, damping):
        return ed_from_coefficients(fit(alphas, np.exp(2.0 * alphas), 3, damping, "chebyshev"))[0]

    with pytest.raises(SingularFitError):
        ed(tied, 0.0)
    assert np.isfinite(ed(tied, 1e-6))
    assert ed(tied, 1e-6) == pytest.approx(ed(nudged, 1e-6), rel=1e-8, abs=0.0)


def test_effective_degree_examples():
    assert ed_from_coefficients(np.array([0.0, 0.0, 0.0, 1.0])) == (3.0, 3.0)
    assert ed_from_coefficients(np.array([2.0, -1.0, 3.0]))[0] == 7.0
    assert ed_from_coefficients(np.array([1.0, 1.0])) == (1.0, 0.5)
    assert ed_from_coefficients(np.zeros(4)) == (0.0, 0.0)


def test_effective_degree_of_surrogate():
    nodes = chebyshev_nodes(4)
    ed, _ = ed_from_coefficients(fit(nodes, np.full(4, 2.0), 3, 0.0, "chebyshev"))
    assert ed < 1e-9


def test_ed_lipschitz_in_coefficients():
    rng = np.random.default_rng(31)
    for _ in range(200):
        K = int(rng.integers(1, 9))
        c1 = rng.standard_normal(K + 1)
        c2 = rng.standard_normal(K + 1)
        lhs = abs(ed_from_coefficients(c1)[0] - ed_from_coefficients(c2)[0])
        assert lhs <= K * np.abs(c1 - c2).sum() + 1e-12


def test_ed_positive_homogeneity():
    rng = np.random.default_rng(32)
    c = rng.standard_normal(6)
    base_ed, base_norm = ed_from_coefficients(c)
    for lam in (0.5, 2.0, 7.25):
        ed, ed_norm = ed_from_coefficients(lam * c)
        assert ed == pytest.approx(lam * base_ed, rel=1e-12)
        assert ed_norm == pytest.approx(base_norm, rel=1e-12)


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


def test_gradient_of_the_exact_quadratic_is_stable_under_rounding_noise():
    # y = (2a - 1)^2 = (T_0 + T_2) / 2: c_1 and c_3..c_5 are rounding noise
    nodes = chebyshev_nodes(8)
    y = (2.0 * nodes - 1.0) ** 2
    base = ed_gradient(nodes, y, 5, 0.0, "chebyshev")
    noise = 1e-15 * np.random.default_rng(0).standard_normal((200, 8))
    moved = max(np.abs(ed_gradient(nodes, y + e, 5, 0.0, "chebyshev") - base).max() for e in noise)
    assert moved < 1e-6


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    max_degree=st.integers(1, 8),
    extra=st.integers(0, 6),
    basis=st.sampled_from(["chebyshev", "legendre"]),
    scheme=st.sampled_from(["chebyshev_fixed", "randomized_cosine"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_gradient_of_a_function_in_the_basis_is_stable_under_noise(
    max_degree, extra, basis, scheme, seed
):
    # a function already in the basis has exact zero coefficients; rounding
    # noise of 1e-15 in its values must not flip their signs in the gradient
    rng = np.random.default_rng(seed)
    r = max_degree + 1 + extra
    nodes = sample_abscissas(scheme, r, uniforms=rng.random(r))
    coeffs = rng.choice([-1.0, 1.0], max_degree + 1) * rng.uniform(0.1, 10.0, max_degree + 1)
    coeffs[rng.random(max_degree + 1) < 0.5] = 0.0
    coeffs[rng.integers(max_degree + 1)] = 1.0  # the zero function has no scale to compare to
    y = design_matrix(basis, nodes, max_degree) @ coeffs
    base = ed_gradient(nodes, y, max_degree, 0.0, basis)
    for e in 1e-15 * rng.standard_normal((20, r)):
        assert np.abs(ed_gradient(nodes, y + e, max_degree, 0.0, basis) - base).max() < 1e-6


def test_gradient_matches_finite_differences_single():
    rng = np.random.default_rng(35)
    abscissas, ys = random_instance(rng, r=8, K=5)

    def objective(v):
        return ed_from_coefficients(fit(abscissas, v, 5, 1e-6, "chebyshev"))[0]

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
        abscissas = randomized_cosine(r, rng.random(r))
        ys = rng.standard_normal(r)
        c = fit(abscissas, ys, K, eps, basis)
        if np.abs(c).min() <= 1e-8:
            continue

        def objective(v):
            return ed_from_coefficients(fit(abscissas, v, K, eps, basis))[0]

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
    x = 2.0 * nodes - 1.0
    cfg = EstimatorConfig(n_paths=1, resolution=5, max_degree=3, damping=0.0)
    plan = plans_of(nodes, settings=cfg)
    v = fit_paths(np.stack([2.0 * x, 4.0 * x], axis=1)[None], plan)  # ed 2 and ed 4
    assert v.ed[0] == pytest.approx(3.0, abs=1e-9)
    single = fit_paths((2.0 * x)[None, :, None], plan)
    direct = ed_from_coefficients(fit(nodes, 2.0 * x, 3, 0.0, "chebyshev"))
    assert (single.ed[0], single.ed_norm[0]) == direct
    assert fit_paths(np.zeros((1, 5, 2)), plan).ed.tolist() == [0.0]


def test_solve_system_matches_columns():
    rng = np.random.default_rng(37)
    abscissas = randomized_cosine(7, np.random.default_rng(5).random(7))
    Y = rng.standard_normal((7, 3))
    C, _ = solve_system(normal_system(abscissas, 4, 1e-6, "chebyshev"), Y)
    for j in range(3):
        cj = fit(abscissas, Y[:, j], 4, 1e-6, "chebyshev")
        assert np.allclose(C[:, j], cj, atol=1e-14)


def test_gradient_matrix_matches_columns():
    rng = np.random.default_rng(38)
    abscissas = randomized_cosine(7, np.random.default_rng(6).random(7))
    Y = rng.standard_normal((7, 2))
    _, G = solve_system(normal_system(abscissas, 4, 1e-6, "chebyshev"), Y, with_gradient=True)
    for j in range(2):
        gj = ed_gradient(abscissas, Y[:, j], 4, 1e-6, "chebyshev")
        assert np.allclose(G[:, j], gj, atol=1e-14)


def test_solve_system_with_gradient_reuses_one_gram():
    # the gradient solve through the fit's Gram is bit-identical to solving
    # against a freshly built T^t T + eps I
    rng = np.random.default_rng(39)
    for damping in (0.0, 1e-6):
        abscissas = randomized_cosine(8, np.random.default_rng(7).random(8))
        Y = rng.standard_normal((8, 3))
        system = normal_system(abscissas, 5, damping, "legendre")
        C, G = solve_system(system, Y, with_gradient=True)
        assert C.tobytes() == solve_system(system, Y)[0].tobytes()
        T = design_matrix("legendre", abscissas, 5)
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

    report = audit_gradients(draw, 1, tolerance=1e-6, skipped="gaps")
    assert report["ok"] is True and report["n_checks"] == 1 and report["gaps"] == 0
    assert report["cells"][0]["rel_err"] < 1e-6
    report = audit_gradients(draw, 3, tolerance=1e-6, skipped="gaps")
    assert [c["attempt"] for c in report["cells"]] == [0, 2, 3]
    assert report["gaps"] == 1
    assert report["cells"][1]["rel_err"] == pytest.approx(2.0, rel=1e-6)
    assert report["max_rel_err"] == report["cells"][1]["rel_err"]
    assert report["ok"] is False
    # too few cells within 20 * n_checks attempts is a failure too
    assert audit_gradients(lambda attempt: None, 1, tolerance=1.0, skipped="gaps") == {
        "n_checks": 0, "max_rel_err": 0.0, "tolerance": 1.0, "ok": False, "gaps": 20,
        "cells": [],
    }


def test_gradcheck_counts_kink_cells(monkeypatch):
    # zero one coefficient of every other fit: those cells sit on a kink of ED
    solve = surrogate.solve_system
    calls = []

    def kinked(*args, **kwargs):
        coeffs, grad = solve(*args, **kwargs)
        if grad is not None:
            calls.append(1)
            if len(calls) % 2:
                coeffs[0, 0] = 0.0
        return coeffs, grad

    monkeypatch.setattr(surrogate, "solve_system", kinked)
    report = surrogate.gradcheck(3, seed=0)
    assert report["kink_cells"] == 3 and report["n_checks"] == 3 and report["ok"] is True



def test_stacked_fit_and_ed_equal_each_system_alone():
    rng = np.random.default_rng(41)
    alphas = np.sort(rng.uniform(0.0, 1.0, size=(5, 7)), axis=1)
    Y = rng.standard_normal((5, 7, 3))
    C, G = solve_system(normal_system(alphas, 4, 1e-6, "legendre"), Y, with_gradient=True)
    eds, ed_norms = ed_from_coefficients(np.swapaxes(C, -1, -2))
    assert C.shape == (5, 5, 3) and G.shape == Y.shape and eds.shape == (5, 3)
    for k in range(5):
        system = normal_system(alphas[k], 4, 1e-6, "legendre")
        c, g = solve_system(system, Y[k], with_gradient=True)
        assert C[k].tobytes() == c.tobytes() and G[k].tobytes() == g.tobytes()
        for j in range(3):
            assert (eds[k, j], ed_norms[k, j]) == ed_from_coefficients(c[:, j])
    with pytest.raises(ValueError):
        solve_system(normal_system(alphas, 4, 1e-6, "legendre"), Y[:4])
