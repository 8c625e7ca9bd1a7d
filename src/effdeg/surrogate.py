"""Polynomial surrogates along a path and their effective degree.

A surrogate is the damped least-squares fit of sampled values y_i at path
abscissas a_i in an orthogonal basis of maximum degree K:

    (T^t T + eps I) c = T^t y,        T_ik = phi_k(2 a_i - 1).

Its effective degree weights each coefficient magnitude by its degree,

    ED = sum_k |c_k| k,        ED_norm = ED / sum_k |c_k|,

with ED_norm defined as 0 when every coefficient vanishes.  ED is piecewise
linear in c, which makes it differentiable in the sampled values y wherever
no coefficient sits at zero:

    dED/dy = T (T^t T + eps I)^{-1} (sign(c) * [0, 1, ..., K]).

Fits are batched: fit_matrix solves a stack of P such systems, one per
path, in one call, and ed_from_coefficients reduces stacked coefficient
vectors at once; each system's result is bit-identical to solving it alone.

gradcheck audits that gradient against central differences through
audit_gradients, the loop net.gradcheck shares for the training objective.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import sampling
from .basis import design_matrix
from .sampling import PathAbscissas, sample_abscissas

__all__ = [
    "SingularFitError",
    "EDValue",
    "fit_matrix",
    "ed_from_coefficients",
    "mean_ed",
    "central_difference",
    "audit_gradients",
    "gradcheck",
]

# Undamped fits refuse normal matrices worse conditioned than this.
COND_LIMIT = 1e12

# Post-solve residual guard, relative to the right-hand side scale.
_RESIDUAL_TOL = 1e-8


class SingularFitError(RuntimeError):
    """Undamped normal system is numerically singular or the solve failed."""


@dataclass(frozen=True)
class EDValue:
    """Effective degree and its coefficient-mass-normalized companion.

    Both are floats for one coefficient vector and arrays of one shape for
    stacked vectors.
    """

    ed: float | np.ndarray
    ed_norm: float | np.ndarray


def _alpha_array(alphas) -> np.ndarray:
    if isinstance(alphas, PathAbscissas):
        return alphas.alphas
    return np.asarray(alphas, dtype=float)


def _solve(gram: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.solve(gram, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularFitError("normal system solve failed") from exc


def _normal_solve(
    design: np.ndarray, rhs: np.ndarray, damping: float
) -> tuple[np.ndarray, np.ndarray]:
    """Solve (T^t T + eps I) c = T^t rhs per stacked system; returns (c, the damped Grams)."""
    if damping < 0:
        raise ValueError("damping must be >= 0")
    design_t = np.swapaxes(design, -1, -2)
    gram = design_t @ design
    if damping > 0:
        gram = gram + damping * np.eye(gram.shape[-1])
    elif np.any(np.linalg.cond(gram) >= COND_LIMIT):
        raise SingularFitError(
            "normal matrix condition number exceeds COND_LIMIT with damping 0; "
            "increase damping or change the abscissas"
        )
    b = design_t @ rhs
    coeffs = _solve(gram, b)
    resid = np.abs(gram @ coeffs - b).max(axis=(-2, -1))
    failed = ~(resid < _RESIDUAL_TOL * (1.0 + np.abs(b).max(axis=(-2, -1))))
    if np.any(failed):
        first = np.ravel(resid[failed])[0]
        raise SingularFitError(f"normal system residual {first:.3e} above tolerance")
    return coeffs, gram


def fit_matrix(
    alphas,
    values,
    max_degree: int,
    damping: float = 1e-6,
    basis: str = "chebyshev",
    with_gradient: bool = False,
) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
    """Fit every column of stacked (..., r, m) values; returns (..., K + 1, m) coefficients.

    This is the only fit.  alphas is (..., r), one row of abscissas per
    stacked system: P paths are fitted in one call with (P, r) alphas and
    (P, r, m) values, and one sampled path y is the unstacked one-column
    case, fit_matrix(alphas, y[:, None], ...)[:, 0].  Every system is
    solved as if alone, so stacking does not change any result.  With
    with_gradient=True returns (coefficients, gradients), where column j
    of the (..., r, m) gradients is dED/dy of column j.  Both come from
    one design matrix and one damped Gram per system: the cotangent
    sign(c) * [0, 1, ..., K] is propagated back through the same normal
    matrix, using sign(0) = 0.  Only ED is differentiated; ED_norm is
    reported but never used as an objective.
    """
    a = _alpha_array(alphas)
    y = np.asarray(values, dtype=float)
    if a.ndim < 1 or y.shape[:-1] != a.shape:
        raise ValueError("values must be (..., r, m) with one row per abscissa")
    design = design_matrix(basis, a, max_degree)
    coeffs, gram = _normal_solve(design, y, damping)
    if not with_gradient:
        return coeffs
    degrees = np.arange(max_degree + 1, dtype=float)
    weighted = np.sign(coeffs) * degrees[:, None]
    return coeffs, design @ _solve(gram, weighted)


def ed_from_coefficients(coefficients: np.ndarray) -> EDValue:
    """Effective degree of coefficient vectors c_0..c_K along the last axis.

    A (K + 1,) vector gives scalars; stacked (..., K + 1) vectors give
    (...) arrays.  Each ED is one dot product over a contiguous row, so a
    vector's value does not depend on what it is stacked with.
    """
    c = np.abs(np.asarray(coefficients, dtype=float))
    if c.ndim < 1:
        raise ValueError("coefficients need a degree axis")
    c = np.ascontiguousarray(c)
    degrees = np.arange(c.shape[-1], dtype=float)
    ed = (c[..., None, :] @ degrees[:, None])[..., 0, 0]
    mass = c.sum(axis=-1)
    ed_norm = np.divide(ed, mass, out=np.zeros_like(ed), where=mass > 0.0)
    return EDValue(ed=ed[()], ed_norm=ed_norm[()])


def mean_ed(value: EDValue) -> EDValue:
    """Mean of stacked EDValue entries over their last axis (a path's outputs)."""
    return EDValue(
        ed=np.mean(value.ed, axis=-1)[()], ed_norm=np.mean(value.ed_norm, axis=-1)[()]
    )


def central_difference(f, x: np.ndarray, step: float = 1e-6) -> np.ndarray:
    """Central finite-difference gradient of a scalar function of an array."""
    x = np.asarray(x, dtype=float)
    grad = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        bumped = x.copy()
        bumped[idx] = x[idx] + step
        hi = f(bumped)
        bumped[idx] = x[idx] - step
        lo = f(bumped)
        grad[idx] = (hi - lo) / (2.0 * step)
        it.iternext()
    return grad


def audit_gradients(draw, n_checks: int, tolerance: float) -> dict:
    """Compare analytic gradients with central differences on n_checks drawn cells.

    draw(attempt) returns (cell, analytic, objective, x), or None to skip the
    attempt; each kept cell gains rel_err = max|analytic - fd| / max|fd|,
    where fd is the central difference of objective at x.  At most
    20 * n_checks attempts are drawn.  The audit is ok when n_checks cells
    were kept and every rel_err is below tolerance.
    """
    cells = []
    for attempt in range(20 * n_checks):
        if len(cells) == n_checks:
            break
        drawn = draw(attempt)
        if drawn is None:
            continue
        cell, analytic, objective, x = drawn
        reference = central_difference(objective, x, step=1e-6)
        denom = max(float(np.abs(reference).max()), 1e-12)
        cells.append({**cell, "rel_err": float(np.abs(analytic - reference).max()) / denom})
    worst = max((c["rel_err"] for c in cells), default=0.0)
    return {
        "n_checks": len(cells),
        "max_rel_err": worst,
        "tolerance": tolerance,
        "ok": bool(len(cells) == n_checks and worst < tolerance),
        "cells": cells,
    }


def gradcheck(n_checks: int, seed: int) -> dict:
    """Audit the ED gradient of fit_matrix against central differences.

    Each cell draws a resolution, degree cap, damping, basis and
    randomized_cosine abscissas from sampling.rng(seed, 1).  Cells with a
    coefficient within 1e-8 of zero sit on a kink of ED and are skipped.
    """
    rng = sampling.rng(seed, 1)

    def draw(attempt):
        r = int(rng.integers(4, 16))
        max_degree = int(rng.integers(3, min(r, 15)))
        damping = float(rng.choice([1e-6, 1e-3]))
        basis = str(rng.choice(["chebyshev", "legendre"]))
        abscissas = sample_abscissas("randomized_cosine", r, seed=int(rng.integers(2**32)))
        y = rng.standard_normal(r)
        coeffs, grad = fit_matrix(
            abscissas, y[:, None], max_degree, damping, basis, with_gradient=True
        )
        if np.abs(coeffs).min() <= 1e-8:
            return None

        def objective(values):
            coeffs = fit_matrix(abscissas, values[:, None], max_degree, damping, basis)
            return ed_from_coefficients(coeffs[:, 0]).ed

        cell = {"resolution": r, "max_degree": max_degree, "damping": damping, "basis": basis}
        return cell, grad[:, 0], objective, y

    return audit_gradients(draw, n_checks, tolerance=1e-4)
