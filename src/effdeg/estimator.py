"""The batched path engine, and dataset-level estimation over random interpolation paths.

Every stage works on a whole stack of P paths:

- plan_paths draws, for each stream key, an endpoint pair (x_i, x_j) from a
  dataset and the abscissas a of the segment a x_i + (1 - a) x_j, and
  returns them stacked as one PathPlans: keys, (P,) row indices i and j,
  and (P, r) alphas;
- the caller evaluates its function once on the stacked segment points of
  every planned path (path_values for an oracle, one network forward pass
  over path_points for the training penalty);
- fit_paths takes the stacked (P, r, out) raw outputs, applies softmax,
  label anchoring and PCA as configured, fits every path's per-output
  surrogates in one call and returns each path's effective degree, plus
  its gradient in the raw outputs on request.

Every stacked step computes each path exactly as if it were alone, so a
path's results do not depend on the batch it was fitted in; one path is
the P = 1 case.  ed_estimate averages the per-path effective degrees over a
dataset, and net.ed_penalty averages them over a minibatch; both run this
engine.

Randomness is splittable: the path planned under key k draws its pair from
sampling.rng(seed, *k, 0) and, for a seeded scheme, its abscissa seed from
sampling.derive_seed(seed, *k, 1); deterministic schemes draw no abscissa
stream.  plan_paths computes these streams for every key in one batched
pass (sampling.pair_draws, sampling.derive_seeds and one sample_abscissas
call), with the same bits as drawing them key by key.  ed_estimate plans
path p under key (p,), so any single path can be replayed without
replaying the others: plan_paths(inputs, seed, [(p,)], ...) plans it alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field, asdict
from typing import Callable, Iterable

import numpy as np

from . import sampling
from . import surrogate as sg
from .basis import BASIS_KINDS
from .reduce import PathProjection, pca_project
from .sampling import SCHEME_VARIANTS, sample_abscissas

__all__ = [
    "FunctionOracle",
    "EstimatorConfig",
    "PathPlans",
    "PathFits",
    "PathResult",
    "EDReport",
    "PathSamplingError",
    "NonFiniteOutputError",
    "softmax",
    "plan_paths",
    "path_points",
    "path_values",
    "anchor_values",
    "fit_paths",
    "ed_estimate",
]

# Endpoints closer than this give a collapsed segment; the pair is redrawn.
DEGENERATE_NORM = 1e-12
_MAX_REDRAWS = 16


class PathSamplingError(RuntimeError):
    """Every attempted endpoint pair was degenerate."""


class NonFiniteOutputError(RuntimeError):
    """The function returned NaN or infinity on a path, or the ED statistics overflowed."""


@dataclass(frozen=True)
class FunctionOracle:
    """Vector-valued black box f: R^input_dim -> R^output_dim on batched rows."""

    input_dim: int
    output_dim: int
    fn: Callable[[np.ndarray], np.ndarray]
    name: str = "oracle"

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != self.input_dim:
            raise ValueError(f"points must be (n, {self.input_dim})")
        out = np.asarray(self.fn(pts), dtype=float)
        if out.ndim == 1:
            out = out[:, None]
        if out.shape != (pts.shape[0], self.output_dim):
            raise ValueError(
                f"oracle {self.name!r} returned shape {out.shape}, "
                f"expected {(pts.shape[0], self.output_dim)}"
            )
        return out


@dataclass(frozen=True)
class EstimatorConfig:
    """Knobs for one estimation run."""

    n_paths: int = 100
    resolution: int = 4
    max_degree: int = 3
    damping: float = 1e-6
    basis: str = "chebyshev"
    scheme: str = "randomized_cosine"
    pca_dim: int | None = None
    anchored: bool = False
    post_softmax: bool = False
    seed: int = 0

    def validate(self) -> None:
        if self.n_paths < 1:
            raise ValueError("n_paths must be >= 1")
        if self.resolution < self.max_degree + 1:
            raise ValueError("resolution must be >= max_degree + 1")
        if self.max_degree < 0:
            raise ValueError("max_degree must be >= 0")
        if self.damping < 0:
            raise ValueError("damping must be >= 0")
        if self.basis not in BASIS_KINDS:
            raise ValueError(f"basis must be one of {BASIS_KINDS}")
        if self.scheme not in SCHEME_VARIANTS:
            raise ValueError(f"scheme must be one of {SCHEME_VARIANTS}")
        if self.pca_dim is not None and self.pca_dim < 1:
            raise ValueError("pca_dim must be >= 1 when set")
        if self.anchored and self.resolution < 2:
            raise ValueError("anchoring requires resolution >= 2")

    def fingerprint(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class PathPlans:
    """Frozen randomness of P paths: path k runs from inputs[i[k]] (a = 1) to inputs[j[k]] (a = 0).

    keys[k] is the stream key path k was drawn under and names it in errors;
    alphas is (P, r); anchored means every row of alphas holds a = 0 and a = 1.
    """

    keys: tuple[tuple[int, ...], ...]
    i: np.ndarray
    j: np.ndarray
    alphas: np.ndarray
    anchored: bool

    def __len__(self) -> int:
        return len(self.keys)


@dataclass(frozen=True)
class PathFits:
    """Effective degrees of P stacked paths, the PCA maps they were fitted through, and gradients.

    ed holds (P,) arrays, pca_ties is (P,) bool, projection is the stacked
    PathProjection (None without PCA), and grad is dED/d(raw outputs),
    (P, r, out), divided by the requested divisor; None unless requested.
    """

    ed: sg.EDValue
    pca_ties: np.ndarray
    projection: PathProjection | None
    grad: np.ndarray | None = None


@dataclass(frozen=True)
class PathResult:
    """One path's endpoints, effective degree, and degeneracy notes."""

    index: int
    endpoint_indices: tuple[int, int]
    ed: float
    ed_norm: float
    pca_ties: bool


@dataclass(frozen=True)
class EDReport:
    """Aggregate of an estimation run.

    n_paths counts every attempted path, so n_paths = len(per_path) +
    n_skipped always holds.
    """

    mean_ed: float
    mean_ed_norm: float
    std_ed: float
    n_paths: int
    n_skipped: int
    per_path: tuple[PathResult, ...]
    config: dict = field(default_factory=dict)

    @property
    def tie_path_indices(self) -> tuple[int, ...]:
        return tuple(p.index for p in self.per_path if p.pca_ties)


def softmax(values: np.ndarray, axis: int = -1) -> np.ndarray:
    """Row-stable softmax."""
    z = np.asarray(values, dtype=float)
    z = z - z.max(axis=axis, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=axis, keepdims=True)


def _draw_pair(inputs: np.ndarray, seed: int, key: tuple[int, ...]) -> tuple[int, int] | None:
    """Key's endpoint pair drawn one attempt at a time from sampling.rng(seed, *key, 0).

    A pair of equal or coincident rows is redrawn, up to _MAX_REDRAWS times;
    None when every draw is degenerate.
    """
    pair_rng = sampling.rng(seed, *key, 0)
    for _ in range(_MAX_REDRAWS):
        i, j = (int(v) for v in pair_rng.integers(0, inputs.shape[0], size=2))
        if i != j and np.linalg.norm(inputs[i] - inputs[j]) > DEGENERATE_NORM:
            return i, j
    return None


def _key_words(keys: list[tuple[int, ...]]) -> tuple[np.ndarray, np.ndarray]:
    """Keys as a (P, L) uint32 array, and which rows the batched streams can take.

    A row is batchable when every word is an int below 2**32, one
    SeedSequence word; other rows are zeros in the array.  Keys of
    different lengths, or words numpy holds as no integer type, leave every
    row to the per-key draw.
    """
    try:
        words = np.array(keys)
    except ValueError:  # keys of different lengths
        words = np.zeros(0)
    if words.ndim != 2 or words.dtype.kind not in "iu":
        return np.zeros((len(keys), 0), dtype=np.uint32), np.zeros(len(keys), dtype=bool)
    fits = ((words >= 0) & (words <= 0xFFFFFFFF)).all(axis=1)
    return np.where(fits[:, None], words, 0).astype(np.uint32), fits


def plan_paths(
    inputs: np.ndarray,
    seed: int,
    keys: Iterable[tuple[int, ...]],
    scheme: str,
    resolution: int,
    anchored: bool,
) -> PathPlans:
    """Draw the endpoint pair and abscissas of the path keyed by (seed, key), for every key.

    A pair of equal or coincident rows is redrawn, up to _MAX_REDRAWS times;
    a key whose every draw is degenerate is dropped, so the plans hold the
    surviving keys in their given order.

    Every key's first pair comes from one batched draw (sampling.pair_draws);
    a key that needs more than that one attempt (a Lemire rejection, a
    degenerate pair, a key word the batch cannot take) is drawn again alone
    from its own stream, which gives the same bits.
    """
    keys = [tuple(key) for key in keys]
    n_keys, n = len(keys), inputs.shape[0]
    if not n_keys:
        return PathPlans(
            keys=(), i=np.zeros(0, dtype=np.intp), j=np.zeros(0, dtype=np.intp),
            alphas=np.zeros((0, resolution)), anchored=anchored,
        )
    words, batchable = _key_words(keys)
    stream_ids = np.zeros((n_keys, 1), dtype=np.uint32)
    pairs, exact = sampling.pair_draws(seed, np.hstack([words, stream_ids]), n)
    done = batchable & exact & (pairs[:, 0] != pairs[:, 1])
    rows = np.flatnonzero(done)
    diff = np.asarray(inputs[pairs[rows, 0]] - inputs[pairs[rows, 1]], dtype=float)
    diff = diff.reshape(rows.size, int(np.prod(inputs.shape[1:])))
    # only pairs clear of the redraw threshold pass, so none passes that
    # np.linalg.norm would redraw
    done[rows] = np.einsum("pd,pd->p", diff, diff) > (2.0 * DEGENERATE_NORM) ** 2
    kept = np.ones(n_keys, dtype=bool)
    for k in np.flatnonzero(~done):
        pair = _draw_pair(inputs, seed, keys[k])
        if pair is None:
            kept[k] = False
        else:
            pairs[k] = pair
    seeds = None
    if scheme in sampling.SEEDED_VARIANTS:
        seeds = sampling.derive_seeds(seed, np.hstack([words, stream_ids + 1]))
        for k in np.flatnonzero(~batchable):
            seeds[k] = sampling.derive_seed(seed, *keys[k], 1)
        seeds = seeds[kept]
    alphas = sample_abscissas(scheme, resolution, anchored=anchored, seed=seeds)
    pairs = pairs[kept]
    return PathPlans(
        keys=tuple(key for key, ok in zip(keys, kept.tolist()) if ok),
        i=pairs[:, 0],
        j=pairs[:, 1],
        alphas=np.tile(alphas, (len(pairs), 1)) if alphas.ndim == 1 else alphas,
        anchored=anchored,
    )


def _path_name(plans: PathPlans, k: int) -> str:
    """Path k's key (joined by ":") and endpoint rows, for error messages."""
    key = ":".join(str(part) for part in plans.keys[k])
    return f"path {key} (endpoint rows {int(plans.i[k])} and {int(plans.j[k])})"


def path_points(inputs: np.ndarray, plans: PathPlans) -> np.ndarray:
    """Segment points a x_i + (1 - a) x_j of every plan, stacked as (P * r, d) in plan order.

    a = 1 hits x_i = inputs[plans.i[k]], a = 0 hits x_j = inputs[plans.j[k]].
    """
    x = np.asarray(inputs, dtype=float)
    a = plans.alphas[:, :, None]
    x1 = x[plans.i][:, None, :]
    x2 = x[plans.j][:, None, :]
    return (a * x1 + (1.0 - a) * x2).reshape(-1, x.shape[1])


def path_values(oracle: FunctionOracle, inputs: np.ndarray, plans: PathPlans) -> np.ndarray:
    """Evaluate the oracle once on the stacked points of every plan; returns (P, r, out)."""
    points = path_points(inputs, plans)
    return oracle.evaluate(points).reshape(len(plans), -1, oracle.output_dim)


def anchor_values(values: np.ndarray, plans: PathPlans, labels: np.ndarray) -> np.ndarray:
    """Replace each path's endpoint rows with labels.

    values is (P, r, out) in plan order; the a = 0 row of path k gets
    labels[plans.j[k]] and its a = 1 row labels[plans.i[k]].  Requires
    abscissas that actually contain both endpoints (an anchored scheme);
    anchoring interior-only samples would mislabel the path.
    """
    if not plans.anchored:
        raise ValueError("label anchoring requires an anchored abscissa scheme")
    labels = np.asarray(labels, dtype=float)
    out = np.array(values, dtype=float, copy=True)
    out[:, 0, :] = labels[plans.j]
    out[:, -1, :] = labels[plans.i]
    return out


def fit_paths(
    raw: np.ndarray,
    plans: PathPlans,
    config: EstimatorConfig,
    labels: np.ndarray | None = None,
    projection: PathProjection | None = None,
    grad_divisor: float | None = None,
) -> PathFits:
    """Effective degrees of P paths from their stacked (P, r, out) raw outputs.

    Raises NonFiniteOutputError when a path's outputs hold NaN or infinity,
    naming the first such path by its key (joined by ":") and endpoint rows.
    The outputs are softmaxed (config.post_softmax), their endpoint rows
    replaced by labels[plans.i] and labels[plans.j] (config.anchored), and
    projected to config.pca_dim components before the fit.  A caller may
    pass the stacked projection of an earlier call to freeze the PCA maps;
    by default each path's map is fit to its values.

    With grad_divisor set, the result also carries the gradient of
    ed / grad_divisor in raw.  The PCA map is differentiated as a fixed
    linear map, anchored rows get zero gradient (they are labels, not
    outputs), and the softmax is backpropagated last.  The division comes
    before the anchoring and the softmax, which fixes the gradient's rounding.
    """
    raw = np.asarray(raw, dtype=float)
    finite = np.isfinite(raw).all(axis=(1, 2))
    if not finite.all():
        first = int(np.argmin(finite))
        raise NonFiniteOutputError(f"non-finite output on {_path_name(plans, first)}")
    outputs = softmax(raw, axis=-1) if config.post_softmax else raw
    values = outputs
    if config.anchored:
        if labels is None:
            raise ValueError("anchored paths need labels")
        values = anchor_values(outputs, plans, labels)
    fit_target = values
    if config.pca_dim is None:
        projection = None
    else:
        if projection is None:
            projection = pca_project(values, config.pca_dim)
        fit_target = projection.apply(values)
    fitted = sg.fit_matrix(
        plans.alphas, fit_target, config.max_degree, config.damping, config.basis,
        with_gradient=grad_divisor is not None,
    )
    coeffs = fitted if grad_divisor is None else fitted[0]
    ed = sg.mean_ed(sg.ed_from_coefficients(np.swapaxes(coeffs, -1, -2)))
    ties = np.zeros(len(plans), bool) if projection is None else projection.degenerate_ties
    if grad_divisor is None:
        return PathFits(ed=ed, pca_ties=ties, projection=projection)
    grad = fitted[1] / fit_target.shape[-1]
    if projection is not None:
        grad = grad @ projection.components
    grad = grad / grad_divisor
    if config.anchored:
        grad[:, 0, :] = 0.0
        grad[:, -1, :] = 0.0
    if config.post_softmax:
        inner = (grad * outputs).sum(axis=-1, keepdims=True)
        grad = outputs * (grad - inner)
    return PathFits(ed=ed, pca_ties=ties, projection=projection, grad=grad)


def ed_estimate(
    oracle: FunctionOracle,
    inputs: np.ndarray,
    config: EstimatorConfig,
    labels: np.ndarray | None = None,
) -> EDReport:
    """Estimate the mean effective degree of an oracle over a dataset.

    inputs is (n, input_dim) with n >= 2.  When config.anchored is set,
    labels must be (n, output_dim); endpoint rows of each path are replaced
    by the labels of the endpoints before any PCA or fitting.
    """
    config.validate()
    X = np.asarray(inputs, dtype=float)
    if X.ndim != 2 or X.shape[1] != oracle.input_dim:
        raise ValueError(f"inputs must be (n, {oracle.input_dim})")
    if X.shape[0] < 2:
        raise ValueError("need at least two dataset points to form a path")
    if config.anchored:
        if labels is None:
            raise ValueError("anchored estimation requires labels")
        labels = np.asarray(labels, dtype=float)
        if labels.ndim == 1:
            labels = labels[:, None]
        if labels.shape != (X.shape[0], oracle.output_dim):
            raise ValueError(f"labels must be (n, {oracle.output_dim})")
    if config.pca_dim is not None and config.pca_dim > min(
        config.resolution, oracle.output_dim
    ):
        raise ValueError("pca_dim exceeds min(resolution, output_dim)")

    plans = plan_paths(
        X, config.seed, [(p,) for p in range(config.n_paths)],
        config.scheme, config.resolution, config.anchored,
    )
    if not plans:
        raise PathSamplingError(
            "all sampled endpoint pairs were degenerate; the dataset has no spread"
        )
    fitted = fit_paths(path_values(oracle, X, plans), plans, config, labels=labels)
    eds = fitted.ed.ed
    results = tuple(
        PathResult(
            index=key[0],
            endpoint_indices=(i, j),
            ed=ed,
            ed_norm=ed_norm,
            pca_ties=ties,
        )
        for key, i, j, ed, ed_norm, ties in zip(
            plans.keys, plans.i.tolist(), plans.j.tolist(),
            eds.tolist(), fitted.ed.ed_norm.tolist(), fitted.pca_ties.tolist(),
        )
    )
    with np.errstate(over="ignore", invalid="ignore"):
        mean = float(eds.mean())
        std = float(eds.std(ddof=1)) if eds.size > 1 else 0.0
    if not (np.isfinite(mean) and np.isfinite(std)):
        k = int(np.argmax(eds))
        raise NonFiniteOutputError(
            f"effective-degree statistics overflow: largest ED {eds[k]:.3e} "
            f"on {_path_name(plans, k)}"
        )
    return EDReport(
        mean_ed=mean,
        mean_ed_norm=float(fitted.ed.ed_norm.mean()),
        std_ed=std,
        n_paths=config.n_paths,
        n_skipped=config.n_paths - len(plans),
        per_path=results,
        config=config.fingerprint(),
    )
