"""Orthogonal polynomial bases and path design matrices.

Two families are supported, both on [-1, 1], evaluated by their stable
three-term forward recurrences:

    chebyshev:  T_0 = 1,  T_1 = x,  T_{k+1} = 2 x T_k - T_{k-1}
    legendre:   P_0 = 1,  P_1 = x,  (k+1) P_{k+1} = (2k+1) x P_k - k P_{k-1}

Path abscissas live on [0, 1] and are mapped to the basis domain through
x = 2 a - 1 when building design matrices.
"""

from __future__ import annotations

import numpy as np

__all__ = ["BASIS_KINDS", "basis_table", "design_matrix"]

BASIS_KINDS = ("chebyshev", "legendre")

# Inputs this far outside the domain are endpoint rounding noise; they are
# clamped rather than rejected so path evaluation is a total function.
_DOMAIN_SLACK = 1e-12


def _check_kind(kind: str) -> None:
    if kind not in BASIS_KINDS:
        raise ValueError(f"unknown basis kind {kind!r}, expected one of {BASIS_KINDS}")


def basis_table(kind: str, x: np.ndarray, max_degree: int) -> np.ndarray:
    """Tabulate phi_k(x) for k = 0..max_degree; returns shape (len(x), max_degree + 1)."""
    _check_kind(kind)
    if max_degree < 0:
        raise ValueError("max_degree must be >= 0")
    x = np.clip(np.asarray(x, dtype=float), -1.0, 1.0)
    if x.ndim != 1:
        raise ValueError("x must be one-dimensional")
    table = np.empty((x.size, max_degree + 1), dtype=float)
    table[:, 0] = 1.0
    if max_degree >= 1:
        table[:, 1] = x
    if kind == "chebyshev":
        for k in range(1, max_degree):
            table[:, k + 1] = 2.0 * x * table[:, k] - table[:, k - 1]
    else:
        for k in range(1, max_degree):
            table[:, k + 1] = ((2 * k + 1) * x * table[:, k] - k * table[:, k - 1]) / (k + 1)
    return table


def design_matrix(kind: str, alphas, max_degree: int) -> np.ndarray:
    """Build design matrices phi_k(2 a_i - 1) over path abscissas.

    alphas is (..., r), one row of abscissas per path; the result is
    (..., r, max_degree + 1).  Requires r >= max_degree + 1 so the
    least-squares system is not underdetermined.  Abscissas must lie in
    [0, 1] up to rounding slack.
    """
    alphas = np.asarray(alphas, dtype=float)
    if alphas.ndim < 1:
        raise ValueError("alphas must have a sample axis")
    r = alphas.shape[-1]
    if r < max_degree + 1:
        raise ValueError(
            f"need at least max_degree + 1 = {max_degree + 1} abscissas, got {r}"
        )
    if np.any(alphas < -_DOMAIN_SLACK) or np.any(alphas > 1.0 + _DOMAIN_SLACK):
        raise ValueError("abscissas must lie in [0, 1]")
    x = 2.0 * np.clip(alphas, 0.0, 1.0) - 1.0
    return basis_table(kind, x.ravel(), max_degree).reshape(x.shape + (max_degree + 1,))
