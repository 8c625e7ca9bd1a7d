"""Per-path principal component projection of sampled outputs.

One path gives an (r, out) matrix of function values.  Fitting surrogates in
the top principal directions instead of raw output coordinates keeps the
per-output work bounded when out is large.  The projection is treated as a
fixed linear map by downstream gradients: the mean and components are
constants of the path, not functions of the values being differentiated.
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
    """Centered PCA of one path's outputs, deterministic up to the stated rules."""

    mean: np.ndarray
    components: np.ndarray
    explained_variance: np.ndarray
    degenerate_ties: bool

    def apply(self, values: np.ndarray) -> np.ndarray:
        """Project (r, out) values through the frozen mean and components.

        Coordinates along dead components (variance below EIGENVALUE_FLOOR)
        come out as exact zeros.
        """
        out = (np.asarray(values, dtype=float) - self.mean) @ self.components.T
        out[:, self.explained_variance < EIGENVALUE_FLOOR] = 0.0
        return out


def pca_project(values: np.ndarray, n_components: int) -> PathProjection:
    """PCA map of (r, out) path outputs onto their top principal directions.

    The map is fit here and applied by PathProjection.apply.  The covariance
    uses divisor r - 1, eigenpairs come from a symmetric eigendecomposition
    sorted by descending eigenvalue, and each component's sign is fixed so
    its largest-magnitude entry is nonnegative.
    """
    y = np.asarray(values, dtype=float)
    if y.ndim != 2:
        raise ValueError("values must be (r, out)")
    r, out = y.shape
    if r < 2:
        raise ValueError("PCA needs at least two path samples")
    m = int(n_components)
    if not 1 <= m <= min(r, out):
        raise ValueError(f"n_components must be in [1, {min(r, out)}], got {m}")

    mean = y.mean(axis=0)
    centered = y - mean
    cov = centered.T @ centered / (r - 1)
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals)[::-1]
    eigvals = eigvals[order]
    eigvecs = eigvecs[:, order]

    comps = eigvecs[:, :m].T.copy()
    for row in comps:
        pivot = int(np.argmax(np.abs(row)))
        if row[pivot] < 0:
            row *= -1.0

    variance = np.clip(eigvals[:m], 0.0, None)

    # A tie matters when it straddles the chosen cut or reorders kept
    # components; gaps among the first m + 1 eigenvalues cover both.
    upto = min(m + 1, eigvals.size)
    gaps = np.diff(eigvals[:upto])
    pairs_alive = np.maximum(eigvals[: upto - 1], eigvals[1:upto]) >= EIGENVALUE_FLOOR
    ties = bool(np.any((np.abs(gaps) < TIE_GAP) & pairs_alive))

    return PathProjection(
        mean=mean, components=comps, explained_variance=variance, degenerate_ties=ties
    )
