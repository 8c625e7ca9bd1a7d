"""Abscissa schemes on the unit interval, and the package's seed derivation.

Every scheme returns one path's abscissas as an ascending (r,) float array
inside [0, 1].  The randomized scheme is counter based: every draw comes
from a Philox stream keyed by (seed, stream id), and stratum i always
consumes draw i of the stream, so results are independent of evaluation
order.

Every random stream in the package comes from rng(seed, *key) or
derive_seed(seed, *key): SeedSequence(seed, spawn_key=key), so any keyed
stream can be rebuilt on its own.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "SCHEME_VARIANTS",
    "rng",
    "derive_seed",
    "chebyshev_nodes",
    "randomized_cosine",
    "uniform_nodes",
    "sample_abscissas",
]

SCHEME_VARIANTS = ("chebyshev_fixed", "randomized_cosine", "uniform")

# Adjacent abscissas closer than this collapse the design matrix; the later
# one is nudged without leaving its stratum.
_TIE_GAP = 1e-12
_TIE_NUDGE = 1e-9


def _seed_sequence(seed: int, key: tuple) -> np.random.SeedSequence:
    return np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(k) for k in key))


def rng(seed: int, *key: int) -> np.random.Generator:
    """Philox generator of the stream keyed by (seed, key)."""
    return np.random.Generator(np.random.Philox(_seed_sequence(seed, key)))


def derive_seed(seed: int, *key: int) -> int:
    """One 64-bit integer seed derived from (seed, key), for APIs that take a seed."""
    return int(_seed_sequence(seed, key).generate_state(1, np.uint64)[0])


def _theta_to_alpha(theta: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 - np.cos(theta))


def _separate(alphas: np.ndarray, uppers: np.ndarray) -> np.ndarray:
    # ascending input; nudge later duplicates forward, keeping each inside
    # its own stratum and the unit interval
    out = alphas.copy()
    for i in range(1, out.size):
        if out[i] - out[i - 1] < _TIE_GAP:
            out[i] = min(out[i - 1] + _TIE_NUDGE, uppers[i], 1.0)
    return out


def _checked_resolution(resolution: int, anchored: bool) -> int:
    r = int(resolution)
    if r < 1:
        raise ValueError("resolution must be >= 1")
    if anchored and r < 2:
        raise ValueError("anchoring requires resolution >= 2")
    return r


def chebyshev_nodes(resolution: int, anchored: bool = False) -> np.ndarray:
    """Deterministic cosine-spaced nodes a_i = (1 - cos((2i - 1) pi / 2r)) / 2.

    With anchored=True the first and last nodes are pinned to exactly 0 and 1
    while interior nodes keep their stratum midpoints (requires r >= 2).
    """
    r = _checked_resolution(resolution, anchored)
    i = np.arange(1, r + 1, dtype=float)
    alphas = _theta_to_alpha((2.0 * i - 1.0) * np.pi / (2.0 * r))
    if anchored:
        alphas[0] = 0.0
        alphas[-1] = 1.0
    return alphas


def randomized_cosine(resolution: int, seed: int, anchored: bool = False) -> np.ndarray:
    """Stratified cosine sampling: theta_i uniform on [(i-1) pi / r, i pi / r].

    Each stratum holds exactly one point, so the abscissas are ascending by
    construction.  With anchored=True the boundary angles are pinned to 0 and
    pi, which puts a = 0 and a = 1 in the sample exactly.
    """
    r = _checked_resolution(resolution, anchored)
    lows = np.arange(r, dtype=float) * np.pi / r
    highs = lows + np.pi / r
    theta = rng(seed, 0).uniform(lows, highs)
    if anchored:
        theta[0] = 0.0
        theta[-1] = np.pi
    alphas = _theta_to_alpha(theta)
    if anchored:
        alphas[0] = 0.0
        alphas[-1] = 1.0
    return _separate(alphas, _theta_to_alpha(highs))


def uniform_nodes(resolution: int, anchored: bool = False) -> np.ndarray:
    """Evenly spaced abscissas; a single node sits at 0.5 by convention."""
    r = _checked_resolution(resolution, anchored)
    return np.array([0.5]) if r == 1 else np.linspace(0.0, 1.0, r)


def sample_abscissas(
    variant: str, resolution: int, anchored: bool = False, seed: int | None = None
) -> np.ndarray:
    """Dispatch on scheme variant name; randomized variants require a seed."""
    if variant == "chebyshev_fixed":
        return chebyshev_nodes(resolution, anchored=anchored)
    if variant == "uniform":
        return uniform_nodes(resolution, anchored=anchored)
    if variant == "randomized_cosine":
        if seed is None:
            raise ValueError("randomized_cosine needs a seed")
        return randomized_cosine(resolution, seed=seed, anchored=anchored)
    raise ValueError(f"unknown scheme variant {variant!r}, expected one of {SCHEME_VARIANTS}")
