"""Basis recurrences checked against closed forms and numpy references."""

import numpy as np
import pytest

from effdeg.basis import design_matrix
from effdeg.sampling import chebyshev_nodes
from effdeg.surrogate import normal_system, solve_system

from oracles import chebyshev_closed_form, legendre_reference


def phi(kind, k, x):
    """phi_k at each of the points x, read off design_matrix's last column at a = (x + 1) / 2."""
    a = (np.atleast_1d(np.asarray(x, dtype=float)) + 1.0) / 2.0
    return design_matrix(kind, a, k)[:, k]


def test_chebyshev_point_values():
    # one abscissa, degrees up to 3: design_matrix tabulates past r - 1
    assert phi("chebyshev", 0, 0.37)[0] == 1.0
    assert phi("chebyshev", 2, 0.5)[0] == pytest.approx(-0.5, abs=1e-15)
    assert phi("chebyshev", 3, -1.0)[0] == pytest.approx(-1.0, abs=1e-15)
    assert phi("legendre", 2, 1.0)[0] == pytest.approx(1.0, abs=1e-15)


def test_low_orders_exact():
    # k = 0 and k = 1 are returned without arithmetic on them past x = 2 a - 1
    alphas = np.array([0.0, 0.375, 0.5, 0.85, 1.0])
    for basis in ("chebyshev", "legendre"):
        table = design_matrix(basis, alphas, 4)
        assert np.array_equal(table[:, 0], np.ones(5))
        assert np.array_equal(table[:, 1], 2.0 * alphas - 1.0)


def test_chebyshev_matches_closed_form():
    rng = np.random.default_rng(11)
    alphas = rng.uniform(0.0, 1.0, size=100)
    xs = 2.0 * alphas - 1.0
    table = design_matrix("chebyshev", alphas, 20)
    assert table.shape == (100, 21)
    for k in range(21):
        want = chebyshev_closed_form(k, xs)
        assert np.max(np.abs(table[:, k] - want)) < 1e-10


def test_legendre_matches_numpy():
    rng = np.random.default_rng(12)
    alphas = rng.uniform(0.0, 1.0, size=100)
    xs = 2.0 * alphas - 1.0
    table = design_matrix("legendre", alphas, 20)
    for k in range(21):
        want = legendre_reference(k, xs)
        assert np.max(np.abs(table[:, k] - want)) < 1e-10


def test_basis_eval_is_total_via_clamping():
    # abscissas within the rounding slack of [0, 1] are clamped, never rejected
    assert phi("chebyshev", 5, 1.0 + 1e-12)[0] == 1.0
    assert design_matrix("chebyshev", [1.0 + 5e-13], 5)[0, 5] == 1.0
    assert design_matrix("legendre", [-5e-13], 3)[0, 3] == -1.0


def test_basis_eval_rejects_bad_inputs():
    with pytest.raises(ValueError):
        design_matrix("chebyshev", [0.5], -1)
    with pytest.raises(ValueError):
        design_matrix("fourier", [0.5], 0)
    with pytest.raises(ValueError, match="sample axis"):
        design_matrix("chebyshev", 0.5, 1)


def test_design_matrix_k1_example():
    M = design_matrix("chebyshev", [0.0, 0.5, 1.0], 1)
    assert np.array_equal(M, np.array([[1.0, -1.0], [1.0, 0.0], [1.0, 1.0]]))


def test_design_matrix_k2_third_column():
    M = design_matrix("chebyshev", [0.0, 0.5, 1.0], 2)
    assert np.allclose(M[:, 2], [1.0, -1.0, 1.0], atol=1e-15)


def test_design_matrix_single_node():
    assert np.array_equal(design_matrix("legendre", [1.0], 0), np.array([[1.0]]))


def test_design_matrix_first_column_ones():
    rng = np.random.default_rng(3)
    alphas = np.sort(rng.uniform(0.0, 1.0, size=9))
    for basis in ("chebyshev", "legendre"):
        M = design_matrix(basis, alphas, 4)
        assert np.all(M[:, 0] == 1.0)
        assert M.shape == (9, 5)


def test_design_matrix_tabulates_past_r_minus_1_but_the_fit_rejects_it():
    M = design_matrix("chebyshev", [0.0, 1.0], 2)
    assert np.array_equal(M, np.array([[1.0, -1.0, 1.0], [1.0, 1.0, 1.0]]))
    with pytest.raises(ValueError, match=r"need at least max_degree \+ 1 = 3 abscissas, got 2"):
        solve_system(normal_system([0.0, 1.0], 2), np.zeros((2, 1)))


def test_design_matrix_rejects_out_of_range_alpha():
    with pytest.raises(ValueError):
        design_matrix("chebyshev", [0.0, 0.5, 1.1], 1)
    # endpoint drift inside the clamping slack is fine
    design_matrix("chebyshev", [0.0, 0.5, 1.0 + 5e-13], 1)


def test_discrete_orthogonality_at_chebyshev_nodes():
    for r in (6, 10, 15):
        alphas = chebyshev_nodes(r)
        M = design_matrix("chebyshev", alphas, r - 1)
        G = M.T @ M
        off = G - np.diag(np.diag(G))
        assert np.abs(off).sum() / np.abs(np.diag(G)).sum() < 1e-8


def test_design_matrix_deterministic():
    alphas = np.linspace(0.0, 1.0, 8)
    a = design_matrix("chebyshev", alphas, 5)
    b = design_matrix("chebyshev", alphas, 5)
    assert a.tobytes() == b.tobytes()
