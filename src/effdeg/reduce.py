"""Per-path principal component projection of sampled outputs, stacked over paths.

One path gives an (r, out) matrix of function values; P paths give a
(P, r, out) stack, and every path gets its own map in one batched pass.
Fitting surrogates in the top principal directions instead of raw output
coordinates keeps the per-output work bounded when out is large.  The
projection is treated as a fixed linear map by downstream gradients: the
mean and components are constants of the path, not functions of the values
being differentiated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["PathProjection", "pca_project", "EIGENVALUE_FLOOR", "TIE_GAP"]

# Components whose variance falls below the floor carry no signal; their
# projected coordinates are zeroed so degenerate directions cannot leak
# rounding noise into surrogate fits.
EIGENVALUE_FLOOR = 1e-12

# Adjacent eigenvalues closer than this make the component choice arbitrary;
# such paths are flagged rather than silently resolved.
TIE_GAP = 1e-12


@dataclass(frozen=True)
class PathProjection:
    """Centered PCA of path outputs, deterministic up to the stated rules.

    Fields stack like the values they were fit to: for (..., r, out)
    values, mean is (..., out), components (..., m, out),
    explained_variance (..., m) and degenerate_ties (...).
    """

    mean: np.ndarray
    components: np.ndarray
    explained_variance: np.ndarray
    degenerate_ties: bool | np.ndarray

    def apply(self, values: np.ndarray) -> np.ndarray:
        """Project (..., r, out) values through the frozen means and components.

        Coordinates along dead components (variance below EIGENVALUE_FLOOR)
        come out as exact zeros.
        """
        centered = np.asarray(values, dtype=float) - self.mean[..., None, :]
        out = centered @ np.swapaxes(self.components, -1, -2)
        dead = self.explained_variance < EIGENVALUE_FLOOR
        return np.where(dead[..., None, :], 0.0, out)


def pca_project(values: np.ndarray, n_components: int) -> PathProjection:
    """PCA maps of (..., r, out) path outputs onto their top principal directions.

    Each stacked (r, out) matrix gets its own map, computed as if alone.
    The map is fit here and applied by PathProjection.apply.  The
    covariance uses divisor r - 1, eigenpairs come from a symmetric
    eigendecomposition sorted by descending eigenvalue, and each
    component's sign is fixed so its largest-magnitude entry is
    nonnegative.
    """
    y = np.asarray(values, dtype=float)
    if y.ndim < 2:
        raise ValueError("values must be (..., r, out)")
    r, out = y.shape[-2:]
    if r < 2:
        raise ValueError("PCA needs at least two path samples")
    m = int(n_components)
    if not 1 <= m <= min(r, out):
        raise ValueError(f"n_components must be in [1, {min(r, out)}], got {m}")

    mean = y.mean(axis=-2)
    centered = y - mean[..., None, :]
    cov = np.swapaxes(centered, -1, -2) @ centered
    cov /= r - 1
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals, axis=-1)[..., ::-1]
    eigvals = np.take_along_axis(eigvals, order, axis=-1)

    comps = np.swapaxes(np.take_along_axis(eigvecs, order[..., None, :m], axis=-1), -1, -2)
    pivot = np.argmax(np.abs(comps), axis=-1)[..., None]
    flip = np.take_along_axis(comps, pivot, axis=-1) < 0
    comps = np.ascontiguousarray(np.where(flip, -comps, comps))

    variance = np.clip(eigvals[..., :m], 0.0, None)

    # A tie matters when it straddles the chosen cut or reorders kept
    # components; gaps among the first m + 1 eigenvalues cover both.
    upto = min(m + 1, out)
    gaps = np.diff(eigvals[..., :upto], axis=-1)
    pairs_alive = np.maximum(eigvals[..., : upto - 1], eigvals[..., 1:upto]) >= EIGENVALUE_FLOOR
    ties = np.any((np.abs(gaps) < TIE_GAP) & pairs_alive, axis=-1)

    return PathProjection(
        mean=mean, components=comps, explained_variance=variance, degenerate_ties=ties
    )
