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

__all__ = ["BASIS_KINDS", "design_matrix"]

BASIS_KINDS = ("chebyshev", "legendre")

# Inputs this far outside the domain are endpoint rounding noise; they are
# clamped rather than rejected so path evaluation is a total function.
_DOMAIN_SLACK = 1e-12


def design_matrix(kind: str, alphas, max_degree: int) -> np.ndarray:
    """Tabulate phi_k(2 a_i - 1), k = 0..max_degree, over path abscissas.

    alphas is (..., r), one row of abscissas per path; the result is
    (..., r, max_degree + 1).  Abscissas must lie in [0, 1] up to rounding
    slack, and are clamped into it.
    """
    if kind not in BASIS_KINDS:
        raise ValueError(f"unknown basis kind {kind!r}, expected one of {BASIS_KINDS}")
    if max_degree < 0:
        raise ValueError("max_degree must be >= 0")
    alphas = np.asarray(alphas, dtype=float)
    if alphas.ndim < 1:
        raise ValueError("alphas must have a sample axis")
    if np.any(alphas < -_DOMAIN_SLACK) or np.any(alphas > 1.0 + _DOMAIN_SLACK):
        raise ValueError("abscissas must lie in [0, 1]")
    x = 2.0 * np.clip(alphas, 0.0, 1.0) - 1.0
    table = np.empty(x.shape + (max_degree + 1,), dtype=float)
    table[..., 0] = 1.0
    if max_degree >= 1:
        table[..., 1] = x
    if kind == "chebyshev":
        for k in range(1, max_degree):
            table[..., k + 1] = 2.0 * x * table[..., k] - table[..., k - 1]
    else:
        for k in range(1, max_degree):
            table[..., k + 1] = ((2 * k + 1) * x * table[..., k] - k * table[..., k - 1]) / (k + 1)
    return table
