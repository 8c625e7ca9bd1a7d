"""Abscissa schemes on the unit interval, and the package's seed derivation.

Every scheme returns one path's abscissas as an ascending (r,) float array
inside [0, 1].  The randomized scheme is counter based: every draw comes
from a Philox stream keyed by (seed, stream id), and stratum i always
consumes draw i of the stream, so results are independent of evaluation
order.  Given a (P,) array of seeds it returns the (P, r) abscissas of P
streams at once.

Every random stream in the package is SeedSequence(seed, spawn_key=key)
feeding Philox, so any keyed stream can be rebuilt on its own.  One stream
at a time comes from rng(seed, *key) or derive_seed(seed, *key); many at
once from the batched primitive: derive_seeds and stream_words map rows of
(seed, key) to the derived seeds and the first raw Philox words of those
same streams, computed in numpy for every row together (SeedSequence's
hash and mix, then Philox4x64-10, the counter-based generator of Salmon et
al., "Parallel random numbers: as easy as 1, 2, 3", SC'11), and pair_draws
and randomized_cosine turn the words into numpy's own draws, bit for bit.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = [
    "SCHEME_VARIANTS",
    "SEEDED_VARIANTS",
    "rng",
    "derive_seed",
    "derive_seeds",
    "stream_words",
    "pair_draws",
    "chebyshev_nodes",
    "randomized_cosine",
    "uniform_nodes",
    "sample_abscissas",
]

SCHEME_VARIANTS = ("chebyshev_fixed", "randomized_cosine", "uniform")
# The variants whose abscissas come from a seeded stream.
SEEDED_VARIANTS = ("randomized_cosine",)

# Adjacent abscissas closer than this collapse the design matrix; the later
# one is nudged without leaving its stratum.
_TIE_GAP = 1e-12
_TIE_NUDGE = 1e-9

# numpy.random.SeedSequence's hash constants (pool of four 32-bit words).
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_U32_SHIFT = np.uint32(16)
# Philox4x64-10: the multipliers of counter words 0 and 2, stacked as one
# (2, 1) lane axis, split into 32-bit halves, and the key increments
# (Weyl constants) of rounds 0..9.
_ROUNDS = 10
_MASK32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)
_SHIFT11 = np.uint64(11)
_PHILOX_M = np.array([[0xD2E7470EE14C6C93], [0xCA5A826395121157]], dtype=np.uint64)
_PHILOX_M_LO = _PHILOX_M & _MASK32
_PHILOX_M_HI = _PHILOX_M >> _SHIFT32
_PHILOX_BUMPS = np.array(
    [[[(r * w) & 0xFFFFFFFFFFFFFFFF] for w in (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)]
     for r in range(_ROUNDS)],
    dtype=np.uint64,
)
_TWO_M53 = 1.0 / 9007199254740992.0


def _seed_sequence(seed: int, key: tuple) -> np.random.SeedSequence:
    return np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(k) for k in key))


def rng(seed: int, *key: int) -> np.random.Generator:
    """Philox generator of the stream keyed by (seed, key)."""
    return np.random.Generator(np.random.Philox(_seed_sequence(seed, key)))


def derive_seed(seed: int, *key: int) -> int:
    """One 64-bit integer seed derived from (seed, key), for APIs that take a seed."""
    return int(_seed_sequence(seed, key).generate_state(1, np.uint64)[0])


@lru_cache(maxsize=256)
def _hash_constants(init: int, mult: int, start: int, count: int) -> np.ndarray:
    """init * mult**s mod 2**32 for s = start .. start + count, as a read-only uint32 column."""
    column = np.array(
        [[init * pow(mult, s, 1 << 32) & 0xFFFFFFFF] for s in range(start, start + count + 1)],
        dtype=np.uint32,
    )
    column.flags.writeable = False
    return column


def _hashmix(values: np.ndarray, start: int, count: int) -> np.ndarray:
    """SeedSequence's hashmix of count rows of values (or one broadcast row), calls start on."""
    c = _hash_constants(_INIT_A, _MULT_A, start, count)
    v = (values ^ c[:-1]) * c[1:]
    return v ^ (v >> _U32_SHIFT)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    v = x * _MIX_L - y * _MIX_R
    return v ^ (v >> _U32_SHIFT)


def _seed_words(seed: int) -> int:
    """How many 32-bit words SeedSequence splits a non-negative int seed into."""
    return max(1, (int(seed).bit_length() + 31) // 32)


def _pools(seed: int | np.ndarray, keys: np.ndarray) -> np.ndarray:
    """SeedSequence(seed, spawn_key=row).pool for every row of keys, as (4, P) uint32.

    seed is one int shared by every row, or a (P,) uint64 array of per-row
    seeds; keys is (P, L) of words below 2**32.  A shared seed and the key
    columns every row shares up front are mixed once, by numpy's own
    SeedSequence; only the remaining columns are mixed as arrays.
    """
    n_rows, n_cols = keys.shape
    if isinstance(seed, np.ndarray):
        # a seed below 2**64 is two words, zero-padded to the pool's four
        seeds = seed.astype(np.uint64)
        words = np.zeros((_POOL, n_rows), dtype=np.uint32)
        words[0] = seeds & _MASK32
        words[1] = seeds >> _SHIFT32
        pool = _hashmix(words, 0, _POOL)
        calls = _POOL
        for src in range(_POOL):
            dst = [d for d in range(_POOL) if d != src]
            pool[dst] = _mix(pool[dst], _hashmix(pool[src], calls, _POOL - 1))
            calls += _POOL - 1
        first = 0
    else:
        first = 0
        while n_rows and first < n_cols and (keys[:, first] == keys[0, first]).all():
            first += 1
        prefix = tuple(int(w) for w in keys[0, :first]) if n_rows else ()
        pool = _seed_sequence(seed, prefix).pool[:, None]
        # hash calls so far: 16 for the first four (zero-padded) words and
        # their cross-mix, then four for every further seed or key word
        calls = _POOL * _POOL + _POOL * (max(_POOL, _seed_words(seed)) - _POOL + first)
    for col in keys.T[first:]:
        pool = _mix(pool, _hashmix(col.astype(np.uint32), calls, _POOL))
        calls += _POOL
    return pool if pool.shape[1] == n_rows else np.repeat(pool, n_rows, axis=1)


def _generate_state(pool: np.ndarray, n_words: int) -> np.ndarray:
    """SeedSequence.generate_state(n_words, uint32) of every pool column, as (n_words, P)."""
    c = _hash_constants(_INIT_B, _MULT_B, 0, n_words)
    v = (pool[np.arange(n_words) % _POOL] ^ c[:-1]) * c[1:]
    return v ^ (v >> _U32_SHIFT)


def _join64(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    return lo.astype(np.uint64) | (hi.astype(np.uint64) << _SHIFT32)


def derive_seeds(seed: int | np.ndarray, keys: np.ndarray) -> np.ndarray:
    """derive_seed(seed, *row) for every row of keys, as a (P,) uint64 array.

    seed is one int, or a (P,) uint64 array of per-row seeds; keys is (P, L)
    with every word below 2**32.
    """
    state = _generate_state(_pools(seed, np.asarray(keys)), 2)
    return _join64(state[0], state[1])


def _philox(key: np.ndarray, blocks: int) -> np.ndarray:
    """Philox4x64-10 under each column of the (2, P) key at counters 1 .. blocks.

    Returns the (P, 4 * blocks) output words, each row in counter order.
    """
    n_rows = key.shape[1]
    lanes = n_rows * blocks
    round_keys = np.repeat(key, blocks, axis=1) + _PHILOX_BUMPS
    # constants as whole lane arrays: same-shape operands are numpy's fastest case
    mask, shift = np.full((2, 2, lanes), [[[0xFFFFFFFF]], [[32]]], dtype=np.uint64)
    m, m_lo, m_hi = np.repeat([_PHILOX_M, _PHILOX_M_LO, _PHILOX_M_HI], lanes, axis=2)
    # x holds counter words 0 and 2 (the multiplied ones), y words 1 and 3
    x = np.zeros((2, lanes), dtype=np.uint64)
    x[0] = np.tile(np.arange(1, blocks + 1, dtype=np.uint64), n_rows)
    y = np.zeros_like(x)
    for round_key in round_keys:
        # the high 64 bits of the 128-bit product x * m, from 32-bit halves
        x_lo = x & mask
        x_hi = x >> shift
        t = x_hi * m_lo + ((x_lo * m_lo) >> shift)
        u = x_lo * m_hi + (t & mask)
        hi = x_hi * m_hi + (t >> shift) + (u >> shift)
        x, y = hi[::-1] ^ y ^ round_key, (x * m)[::-1]
    return np.stack([x[0], y[0], x[1], y[1]], axis=-1).reshape(n_rows, 4 * blocks)


def stream_words(seed: int | np.ndarray, keys: np.ndarray, n: int) -> np.ndarray:
    """The first n raw uint64 words of every row's stream, as (P, n).

    Row k is Philox(SeedSequence(seed, spawn_key=keys[k])).random_raw(n)
    (seed[k] for an array of per-row seeds); keys is (P, L) with every word
    below 2**32.
    """
    state = _generate_state(_pools(seed, np.asarray(keys)), 4)
    key = np.stack([_join64(state[0], state[1]), _join64(state[2], state[3])])
    return _philox(key, -(-int(n) // 4))[:, :n]


def pair_draws(seed: int, keys: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """First integers(0, n, size=2) draw of every row's stream: (P, 2) intp pairs and (P,) exact.

    A row is exact when its pair equals rng(seed, *row).integers(0, n,
    size=2): numpy draws each value by Lemire's method from one 32-bit half
    of the stream's first word, low half first, and a rejected half (or n
    outside [2, 2**32)) leaves the row inexact, for the caller to draw with
    rng itself.
    """
    n, n_rows = int(n), len(keys)
    if not 2 <= n < 1 << 32:
        return np.zeros((n_rows, 2), dtype=np.intp), np.zeros(n_rows, dtype=bool)
    words = stream_words(seed, keys, 1)[:, 0]
    halves = np.stack([words & _MASK32, words >> _SHIFT32], axis=-1)
    scaled = halves * np.uint64(n)
    threshold = np.uint64((1 << 32) % n)
    return (scaled >> _SHIFT32).astype(np.intp), ((scaled & _MASK32) >= threshold).all(axis=1)


def _theta_to_alpha(theta: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 - np.cos(theta))


def _separate_row(alphas: np.ndarray, uppers: np.ndarray) -> np.ndarray:
    # ascending input; nudge later duplicates forward, keeping each inside
    # its own stratum and the unit interval
    out = alphas.copy()
    for i in range(1, out.size):
        if out[i] - out[i - 1] < _TIE_GAP:
            out[i] = min(out[i - 1] + _TIE_NUDGE, uppers[i], 1.0)
    return out


def _separate(alphas: np.ndarray, uppers: np.ndarray) -> np.ndarray:
    """_separate_row on every row of (P, r) alphas; rows without a tie pass through unchanged."""
    tied = np.flatnonzero((np.diff(alphas, axis=1) < _TIE_GAP).any(axis=1))
    if tied.size:
        alphas = alphas.copy()
        for k in tied:
            alphas[k] = _separate_row(alphas[k], uppers)
    return alphas


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


def randomized_cosine(
    resolution: int, seed: int | np.ndarray, anchored: bool = False
) -> np.ndarray:
    """Stratified cosine sampling: theta_i uniform on [(i-1) pi / r, i pi / r].

    Each stratum holds exactly one point, so the abscissas are ascending by
    construction.  With anchored=True the boundary angles are pinned to 0 and
    pi, which puts a = 0 and a = 1 in the sample exactly.  The draws are
    rng(seed, 0).uniform over the strata; a (P,) uint64 array of seeds gives
    the (P, r) abscissas of every seed's stream.
    """
    r = _checked_resolution(resolution, anchored)
    lows = np.arange(r, dtype=float) * np.pi / r
    highs = lows + np.pi / r
    batched = isinstance(seed, np.ndarray)
    rows = seed.size if batched else 1
    words = stream_words(seed if batched else int(seed), np.zeros((rows, 1), dtype=np.uint32), r)
    theta = lows + (highs - lows) * ((words >> _SHIFT11).astype(np.float64) * _TWO_M53)
    if anchored:
        theta[:, 0] = 0.0
        theta[:, -1] = np.pi
    alphas = _theta_to_alpha(theta)
    if anchored:
        alphas[:, 0] = 0.0
        alphas[:, -1] = 1.0
    alphas = _separate(alphas, _theta_to_alpha(highs))
    return alphas if batched else alphas[0]


def uniform_nodes(resolution: int, anchored: bool = False) -> np.ndarray:
    """Evenly spaced abscissas; a single node sits at 0.5 by convention."""
    r = _checked_resolution(resolution, anchored)
    return np.array([0.5]) if r == 1 else np.linspace(0.0, 1.0, r)


def sample_abscissas(
    variant: str, resolution: int, anchored: bool = False, seed: int | np.ndarray | None = None
) -> np.ndarray:
    """Dispatch on scheme variant name; seeded variants require a seed.

    A (P,) uint64 array of seeds gives a seeded variant's (P, r) abscissas;
    the other variants ignore the seed and return their one (r,) node row.
    """
    if variant == "chebyshev_fixed":
        return chebyshev_nodes(resolution, anchored=anchored)
    if variant == "uniform":
        return uniform_nodes(resolution, anchored=anchored)
    if variant == "randomized_cosine":
        if seed is None:
            raise ValueError("randomized_cosine needs a seed")
        return randomized_cosine(resolution, seed=seed, anchored=anchored)
    raise ValueError(f"unknown scheme variant {variant!r}, expected one of {SCHEME_VARIANTS}")
