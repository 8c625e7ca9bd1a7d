"""Abscissa schemes on the unit interval, and the package's seed derivation.

Every scheme returns one path's abscissas as an ascending (r,) float array
inside [0, 1].  The randomized scheme is a pure function of r uniforms on
[0, 1): stratum i takes uniform i, so a (..., r) array of uniforms gives the
(..., r) abscissas of every row at once.

Every random stream in the package starts from SeedSequence(seed,
spawn_key=key), built only here.  rng(seed, *key) and derive_seed(seed,
*key) give one stream or seed at a time.  The paths planned under keys
prefix + (p,) share one Philox key K, the first two 64-bit words of
SeedSequence(seed, spawn_key=prefix) (path_key), and Philox is counter
based (Salmon et al., "Parallel random numbers: as easy as 1, 2, 3",
SC'11), so path p reads its own counters:

- attempt t at its endpoint pair reads word 0 of
  Philox(key=K, counter=[p, 0, t, 1]).random_raw(4); pair_draws takes i
  from its low 32-bit half and j from its high half by Lemire's method,
  and gives a rejected attempt the degenerate pair (0, 0);
- its abscissas read the first r words of
  Philox(key=K, counter=[p * B, 1, 0, 1]) with B = ceil(r / 4), as the
  uniforms (w >> 11) * 2**-53 (path_uniforms).

Philox at state counter c yields blocks c + 1, c + 2, ..., so one
random_raw call covers a whole run of consecutive path indices, and any
single path can still be drawn on its own with the same bits.  K is also
the key of rng(seed, *prefix), whose counter starts at 0; counter word 3
is 1 on every path stream, so no path reads a word of an rng stream.

Two prefixes are in use: ed_estimate plans path p under (), and the
training penalty path p of step s under (1,) at index s * reg_paths + p,
so 2**32 caps a penalized run at n_steps * reg_paths.  Under either,
estimator.plan_paths cuts its unit (a block of an estimate's paths, one
penalty step or one replayed path) from consecutive indices drawn in one
call.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "SCHEME_VARIANTS",
    "SEEDED_VARIANTS",
    "rng",
    "derive_seed",
    "path_key",
    "pair_draws",
    "path_uniforms",
    "chebyshev_nodes",
    "randomized_cosine",
    "uniform_nodes",
    "sample_abscissas",
]

SCHEME_VARIANTS = ("chebyshev_fixed", "randomized_cosine", "uniform")
# The variants whose abscissas come from a path's uniforms.
SEEDED_VARIANTS = ("randomized_cosine",)

# Philox counter word 1: the stream a path's words belong to.
_PAIR_STREAM, _ABSCISSA_STREAM = 0, 1
# Philox counter word 3 of every path stream; rng streams keep it at 0.
_PATH_WORD = 1
_MASK32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)
_SHIFT11 = np.uint64(11)
_TWO_M53 = 1.0 / 9007199254740992.0


def _seed_sequence(seed: int, key: tuple) -> np.random.SeedSequence:
    seed = int(seed)
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    return np.random.SeedSequence(entropy=seed, spawn_key=tuple(int(k) for k in key))


def rng(seed: int, *key: int) -> np.random.Generator:
    """Philox generator of the stream keyed by (seed, key)."""
    return np.random.Generator(np.random.Philox(_seed_sequence(seed, key)))


def derive_seed(seed: int, *key: int) -> int:
    """One 64-bit integer seed derived from (seed, key), for APIs that take a seed."""
    return int(_seed_sequence(seed, key).generate_state(1, np.uint64)[0])


def path_key(seed: int, prefix: tuple) -> np.ndarray:
    """The (2,) uint64 Philox key of the paths keyed prefix + (p,)."""
    return _seed_sequence(seed, prefix).generate_state(2, np.uint64)


def _blocks(
    key: np.ndarray, paths: np.ndarray, stream: int, attempt: int, blocks: int
) -> np.ndarray:
    """Each path's Philox blocks from counter [p * blocks, stream, attempt, 1], as (P, 4 * blocks).

    paths is (P,) integer path indices below 2**32; one random_raw call per
    run of consecutive indices.
    """
    width = 4 * blocks
    out = np.empty((paths.size, width), dtype=np.uint64)
    if not paths.size:
        return out
    bounds = [0, *(np.flatnonzero(np.diff(paths) != 1) + 1).tolist(), paths.size]
    for start, stop in zip(bounds[:-1], bounds[1:]):
        counter = [int(paths[start]) * blocks, stream, attempt, _PATH_WORD]
        words = np.random.Philox(key=key, counter=counter).random_raw(width * (stop - start))
        out[start:stop] = words.reshape(stop - start, width)
    return out


def pair_draws(key: np.ndarray, paths: np.ndarray, n: int, attempt: int) -> np.ndarray:
    """Attempt `attempt` at every path's endpoint pair, as (P, 2) row indices.

    Each index below n (2 <= n < 2**32) comes from one 32-bit half of the
    attempt's word by Lemire's method, i from the low half and j from the
    high one.  A pair with a rejected half comes back as (0, 0), which,
    like any pair of equal rows, the planner takes as degenerate.
    """
    word = _blocks(key, paths, _PAIR_STREAM, attempt, 1)[:, 0]
    scaled = np.stack([word & _MASK32, word >> _SHIFT32], axis=-1) * np.uint64(n)
    pairs = (scaled >> _SHIFT32).astype(np.intp)
    pairs[((scaled & _MASK32) < np.uint64((1 << 32) % n)).any(axis=1)] = 0
    return pairs


def path_uniforms(key: np.ndarray, paths: np.ndarray, resolution: int) -> np.ndarray:
    """Every path's r abscissa uniforms on [0, 1), as (P, r)."""
    r = int(resolution)
    words = _blocks(key, paths, _ABSCISSA_STREAM, 0, -(-r // 4))[:, :r]
    return (words >> _SHIFT11).astype(np.float64) * _TWO_M53


def _theta_to_alpha(theta: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 - np.cos(theta))


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


def randomized_cosine(resolution: int, uniforms, anchored: bool = False) -> np.ndarray:
    """Stratified cosine sampling: theta_i uniform on [(i-1) pi / r, i pi / r].

    uniforms is a (..., r) array on [0, 1); theta_i = lo_i + (hi_i - lo_i) u_i,
    the result has the shape of uniforms, and anchored=True pins the first
    and last abscissas to exactly 0 and 1.  Each abscissa is clamped into
    its stratum [e_i, e_(i+1)], e_i = (1 - cos(i pi / r)) / 2, so rounding
    never carries it past an edge.  Every row plan_paths draws is strictly
    ascending.  Crafted uniforms can tie two points at a stratum edge; the
    fit's damping absorbs a tie, and at damping 0 the fit fails naming the
    path (exit 4).
    """
    r = _checked_resolution(resolution, anchored)
    u = np.asarray(uniforms, dtype=float)
    if u.ndim < 1 or u.shape[-1] != r:
        raise ValueError(f"uniforms must be (..., {r})")
    theta = np.arange(r + 1, dtype=float) * np.pi / r
    lows = theta[:-1]
    highs = lows + np.pi / r
    edges = _theta_to_alpha(theta)
    alphas = np.clip(_theta_to_alpha(lows + (highs - lows) * u), edges[:-1], edges[1:])
    if anchored:
        alphas[..., 0] = 0.0
        alphas[..., -1] = 1.0
    return alphas


def uniform_nodes(resolution: int, anchored: bool = False) -> np.ndarray:
    """Evenly spaced abscissas; a single node sits at 0.5 by convention."""
    r = _checked_resolution(resolution, anchored)
    return np.array([0.5]) if r == 1 else np.linspace(0.0, 1.0, r)


def sample_abscissas(
    variant: str, resolution: int, anchored: bool = False, uniforms=None
) -> np.ndarray:
    """Dispatch on scheme variant name; seeded variants require (..., r) uniforms.

    A seeded variant returns abscissas of the uniforms' shape; the other
    variants ignore uniforms and return their one (r,) node row.
    """
    if variant == "chebyshev_fixed":
        return chebyshev_nodes(resolution, anchored=anchored)
    if variant == "uniform":
        return uniform_nodes(resolution, anchored=anchored)
    if variant == "randomized_cosine":
        if uniforms is None:
            raise ValueError("randomized_cosine needs uniforms")
        return randomized_cosine(resolution, uniforms, anchored=anchored)
    raise ValueError(f"unknown scheme variant {variant!r}, expected one of {SCHEME_VARIANTS}")
