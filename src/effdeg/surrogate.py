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

A fit is two halves: normal_system builds what depends on the abscissas
alone (T and the damped Gram), and solve_system what depends on y, so a
caller that knows its abscissas early can build the first half ahead, as
the path engine's plans do.  Fits are batched: solve_system solves a stack
of P such systems, one per path, in one call, and ed_from_coefficients
reduces stacked coefficient vectors at once; each system's result is
bit-identical to solving it alone.

gradcheck audits that gradient against central differences through
audit_gradients, the loop net.gradcheck shares for the training objective.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import sampling
from .basis import design_matrix

__all__ = [
    "SingularFitError",
    "NormalSystem",
    "normal_system",
    "solve_system",
    "ed_from_coefficients",
    "central_difference",
    "audit_gradients",
    "gradcheck",
]

# Undamped fits refuse normal matrices worse conditioned than this.
COND_LIMIT = 1e12

# Post-solve residual guard, relative to the right-hand side scale.
_RESIDUAL_TOL = 1e-8

# Central-difference step of the gradient audits.
_FD_STEP = 1e-6

# A coefficient within this fraction of its column's mass sum_k |c_k| is
# rounding noise of an exact zero (a function already in the basis): the
# gradient takes its sign as 0, the minimum-norm subgradient of |c_k|.
SIGN_DEAD_ZONE = 1e-12


class SingularFitError(RuntimeError):
    """A normal system is singular or its solve failed; system is its stacked index, or None."""

    def __init__(self, message: str, system: int | None = None):
        super().__init__(message)
        self.system = system


def _solve(gram: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.solve(gram, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularFitError("normal system solve failed") from exc


@dataclass(frozen=True)
class NormalSystem:
    """The function-independent half of stacked fits, one system per row of abscissas.

    design is (..., r, K + 1), gram the damped (..., K + 1, K + 1)
    T^t T + eps I, and illposed (...) bool marks the systems an undamped fit
    refuses (condition number at or above COND_LIMIT; all False with
    damping > 0).  Indexing a stacked system selects its rows.
    """

    design: np.ndarray
    gram: np.ndarray
    illposed: np.ndarray

    def __getitem__(self, index) -> "NormalSystem":
        return NormalSystem(self.design[index], self.gram[index], self.illposed[index])


def normal_system(
    alphas, max_degree: int, damping: float = 1e-6, basis: str = "chebyshev"
) -> NormalSystem:
    """Design matrices and damped Grams of stacked (..., r) abscissas; r must be >= max_degree + 1."""
    a = np.asarray(alphas, dtype=float)
    if a.ndim and a.shape[-1] < max_degree + 1:
        raise ValueError(
            f"need at least max_degree + 1 = {max_degree + 1} abscissas, got {a.shape[-1]}"
        )
    design = design_matrix(basis, a, max_degree)
    if not damping >= 0:
        raise ValueError("damping must be >= 0")
    gram = np.swapaxes(design, -1, -2) @ design
    if damping > 0:
        gram = gram + damping * np.eye(gram.shape[-1])
        illposed = np.zeros(gram.shape[:-2], dtype=bool)
    else:
        illposed = np.linalg.cond(gram) >= COND_LIMIT
    return NormalSystem(design, gram, illposed)


def solve_system(
    system: NormalSystem, values, with_gradient: bool = False
) -> tuple[np.ndarray, np.ndarray | None]:
    """Fit every column of stacked (..., r, m) values through their normal systems.

    Returns (coefficients, gradient): the (..., K + 1, m) coefficients and,
    with with_gradient=True, the (..., r, m) dED/dy of each column, else
    None.  Every stacked system is solved as if alone, so stacking does not
    change any result; one sampled path y is the unstacked one-column case,
    solve_system(normal_system(alphas, K), y[:, None])[0][:, 0].  The
    gradient propagates the cotangent sign(c) * [0, 1, ..., K] back through
    the same damped Gram, with sign 0 for any |c_k| <= SIGN_DEAD_ZONE *
    sum_k |c_k| of its column.  Only ED is differentiated; ED_norm is
    reported but never used as an objective.  An ill-posed system or a
    solve whose residual exceeds its tolerance raises SingularFitError
    naming the first failing stacked system.
    """
    design, gram = system.design, system.gram
    y = np.asarray(values, dtype=float)
    if y.shape[:-1] != design.shape[:-1]:
        raise ValueError("values must be (..., r, m) with one row per abscissa")
    if (illposed := np.ravel(system.illposed)).any():
        raise SingularFitError(
            "normal matrix condition number exceeds COND_LIMIT with damping 0; "
            "increase damping or change the abscissas",
            int(np.argmax(illposed)),
        )
    design_t = np.swapaxes(design, -1, -2)
    b = design_t @ y
    coeffs = _solve(gram, b)
    resid = np.ravel(np.abs(gram @ coeffs - b).max(axis=(-2, -1)))
    failed = ~(resid < _RESIDUAL_TOL * (1.0 + np.ravel(np.abs(b).max(axis=(-2, -1)))))
    if failed.any():
        first = int(np.argmax(failed))
        raise SingularFitError(f"normal system residual {resid[first]:.3e} above tolerance", first)
    if not with_gradient:
        return coeffs, None
    degrees = np.arange(design.shape[-1], dtype=float)
    magnitude = np.abs(coeffs)
    live = magnitude > SIGN_DEAD_ZONE * magnitude.sum(axis=-2, keepdims=True)
    weighted = np.where(live, np.sign(coeffs), 0.0) * degrees[:, None]
    return coeffs, design @ _solve(gram, weighted)


def ed_from_coefficients(coefficients: np.ndarray) -> tuple[float | np.ndarray, float | np.ndarray]:
    """(ED, ED_norm) of coefficient vectors c_0..c_K along the last axis.

    A (K + 1,) vector gives two scalars; stacked (..., K + 1) vectors give
    two (...) arrays.  Each ED is one dot product over a contiguous row, so a
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
    return ed[()], ed_norm[()]


def central_difference(f, x: np.ndarray) -> np.ndarray:
    """Central finite-difference gradient, with step _FD_STEP, of a scalar function of an array."""
    x = np.asarray(x, dtype=float)
    grad = np.zeros_like(x)
    for idx in np.ndindex(x.shape):
        bumped = x.copy()
        bumped[idx] = x[idx] + _FD_STEP
        hi = f(bumped)
        bumped[idx] = x[idx] - _FD_STEP
        lo = f(bumped)
        grad[idx] = (hi - lo) / (2.0 * _FD_STEP)
    return grad


def audit_gradients(draw, n_checks: int, tolerance: float, *, skipped: str) -> dict:
    """Compare analytic gradients with central differences on n_checks drawn cells.

    draw(attempt) returns (cell, analytic, objective, x), or None to skip the
    attempt; the report counts skipped attempts under the key skipped.  Each
    kept cell gains rel_err = max|analytic - fd| / max|fd|, where fd is the
    central difference of objective at x.  At most 20 * n_checks attempts
    are drawn.  The audit is ok when n_checks cells were kept and every
    rel_err is below tolerance; n_checks below 1 raises ValueError, since an
    audit of nothing would pass.
    """
    if n_checks < 1:
        raise ValueError(f"n_checks must be >= 1, got {n_checks}")
    cells = []
    n_skipped = 0
    for attempt in range(20 * n_checks):
        if len(cells) == n_checks:
            break
        drawn = draw(attempt)
        if drawn is None:
            n_skipped += 1
            continue
        cell, analytic, objective, x = drawn
        reference = central_difference(objective, x)
        denom = max(float(np.abs(reference).max()), 1e-12)
        cells.append({**cell, "rel_err": float(np.abs(analytic - reference).max()) / denom})
    worst = max((c["rel_err"] for c in cells), default=0.0)
    return {
        "n_checks": len(cells),
        "max_rel_err": worst,
        "tolerance": tolerance,
        "ok": bool(len(cells) == n_checks and worst < tolerance),
        skipped: n_skipped,
        "cells": cells,
    }


def gradcheck(n_checks: int, seed: int) -> dict:
    """Audit the ED gradient of solve_system against central differences.

    Each cell draws a resolution, degree cap, damping, basis and
    randomized_cosine abscissas from sampling.rng(seed, 1).  Cells with a
    coefficient within 1e-8 of zero sit on a kink of ED: they are skipped
    and counted as kink_cells.
    """
    rng = sampling.rng(seed, 1)

    def draw(attempt):
        r = int(rng.integers(4, 16))
        max_degree = int(rng.integers(3, min(r, 15)))
        damping = float(rng.choice([1e-6, 1e-3]))
        basis = str(rng.choice(["chebyshev", "legendre"]))
        abscissas = sampling.randomized_cosine(r, rng.random(r))
        y = rng.standard_normal(r)
        system = normal_system(abscissas, max_degree, damping, basis)
        coeffs, grad = solve_system(system, y[:, None], with_gradient=True)
        if np.abs(coeffs).min() <= 1e-8:
            return None

        def objective(values):
            return ed_from_coefficients(solve_system(system, values[:, None])[0][:, 0])[0]

        cell = {"resolution": r, "max_degree": max_degree, "damping": damping, "basis": basis}
        return cell, grad[:, 0], objective, y

    return audit_gradients(draw, n_checks, tolerance=1e-4, skipped="kink_cells")
