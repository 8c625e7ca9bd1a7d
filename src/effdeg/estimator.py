"""The batched path engine, and dataset-level estimation over random interpolation paths.

Paths are planned one by one, then evaluated and fitted together:

- plan_path draws an endpoint pair (x_i, x_j) from a dataset and the
  abscissas a of the segment a x_i + (1 - a) x_j, from the path's own keyed
  stream;
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

Randomness is splittable: a path planned under key k draws its pair from
sampling.rng(seed, *k, 0) and its abscissa seed from
sampling.derive_seed(seed, *k, 1).  ed_estimate plans path p under key (p,),
so any single path can be replayed without replaying the others.
"""

from __future__ import annotations

from dataclasses import dataclass, field, asdict
from typing import Callable

import numpy as np

from . import sampling
from . import surrogate as sg
from .basis import BASIS_KINDS
from .reduce import PathProjection, pca_project
from .sampling import SCHEME_VARIANTS, PathAbscissas, sample_abscissas

__all__ = [
    "FunctionOracle",
    "EstimatorConfig",
    "PathPlan",
    "PathFits",
    "PathResult",
    "EDReport",
    "PathSamplingError",
    "NonFiniteOutputError",
    "softmax",
    "plan_path",
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
    """The evaluated function returned NaN or infinity on a path."""


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
class PathPlan:
    """Frozen randomness of one path: endpoint row indices and abscissas (x1 = row i).

    key is the stream key plan_path drew it under; it names the path in errors.
    """

    i: int
    j: int
    abscissas: PathAbscissas
    key: tuple[int, ...] = ()


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


def plan_path(
    inputs: np.ndarray,
    seed: int,
    key: tuple[int, ...],
    scheme: str,
    resolution: int,
    anchored: bool,
) -> PathPlan | None:
    """Draw the endpoint pair and abscissas of the path keyed by (seed, key).

    A pair of equal or coincident rows is redrawn, up to _MAX_REDRAWS times;
    None means every draw was degenerate.
    """
    pair_rng = sampling.rng(seed, *key, 0)
    n = inputs.shape[0]
    for _ in range(_MAX_REDRAWS):
        i, j = (int(v) for v in pair_rng.integers(0, n, size=2))
        if i != j and np.linalg.norm(inputs[i] - inputs[j]) > DEGENERATE_NORM:
            abscissas = sample_abscissas(
                scheme, resolution, anchored=anchored, seed=sampling.derive_seed(seed, *key, 1)
            )
            return PathPlan(i=i, j=j, abscissas=abscissas, key=tuple(key))
    return None


def path_points(inputs: np.ndarray, plans) -> np.ndarray:
    """Segment points a x_i + (1 - a) x_j of every plan, stacked as (P * r, d) in plan order.

    a = 1 hits x_i = inputs[plan.i], a = 0 hits x_j = inputs[plan.j].
    """
    x = np.asarray(inputs, dtype=float)
    a = np.stack([plan.abscissas.alphas for plan in plans])[:, :, None]
    x1 = x[[plan.i for plan in plans]][:, None, :]
    x2 = x[[plan.j for plan in plans]][:, None, :]
    return (a * x1 + (1.0 - a) * x2).reshape(-1, x.shape[1])


def path_values(oracle: FunctionOracle, inputs: np.ndarray, plans) -> np.ndarray:
    """Evaluate the oracle once on the stacked points of every plan; returns (P, r, out)."""
    points = path_points(inputs, plans)
    return oracle.evaluate(points).reshape(len(plans), -1, oracle.output_dim)


def anchor_values(values: np.ndarray, plans, labels: np.ndarray) -> np.ndarray:
    """Replace each path's endpoint rows with labels.

    values is (P, r, out) in plan order; the a = 0 row of a path gets
    labels[plan.j] and its a = 1 row labels[plan.i].  Requires abscissas that actually
    contain both endpoints (an anchored scheme); anchoring interior-only
    samples would mislabel the path.
    """
    if not all(plan.abscissas.anchored for plan in plans):
        raise ValueError("label anchoring requires an anchored abscissa scheme")
    labels = np.asarray(labels, dtype=float)
    out = np.array(values, dtype=float, copy=True)
    out[:, 0, :] = labels[[plan.j for plan in plans]]
    out[:, -1, :] = labels[[plan.i for plan in plans]]
    return out


def fit_paths(
    raw: np.ndarray,
    plans,
    config: EstimatorConfig,
    labels: np.ndarray | None = None,
    projection: PathProjection | None = None,
    grad_divisor: float | None = None,
) -> PathFits:
    """Effective degrees of P paths from their stacked (P, r, out) raw outputs.

    Raises NonFiniteOutputError when a path's outputs hold NaN or infinity,
    naming the first such path by its key (joined by ":") and endpoint rows.
    The outputs are softmaxed (config.post_softmax), their endpoint rows
    replaced by labels[plan.i] and labels[plan.j] (config.anchored), and
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
        plan = plans[int(np.argmin(finite))]
        key = ":".join(str(k) for k in plan.key)
        raise NonFiniteOutputError(
            f"non-finite output on path {key} (endpoint rows {plan.i} and {plan.j})"
        )
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
    alphas = np.stack([plan.abscissas.alphas for plan in plans])
    fitted = sg.fit_matrix(
        alphas, fit_target, config.max_degree, config.damping, config.basis,
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

    planned = [
        plan_path(X, config.seed, (p,), config.scheme, config.resolution, config.anchored)
        for p in range(config.n_paths)
    ]
    plans = [plan for plan in planned if plan is not None]
    if not plans:
        raise PathSamplingError(
            "all sampled endpoint pairs were degenerate; the dataset has no spread"
        )
    fitted = fit_paths(path_values(oracle, X, plans), plans, config, labels=labels)
    eds = fitted.ed.ed
    results = tuple(
        PathResult(
            index=plan.key[0],
            endpoint_indices=(plan.i, plan.j),
            ed=ed,
            ed_norm=ed_norm,
            pca_ties=ties,
        )
        for plan, ed, ed_norm, ties in zip(
            plans, eds.tolist(), fitted.ed.ed_norm.tolist(), fitted.pca_ties.tolist()
        )
    )
    std = float(eds.std(ddof=1)) if eds.size > 1 else 0.0
    return EDReport(
        mean_ed=float(eds.mean()),
        mean_ed_norm=float(fitted.ed.ed_norm.mean()),
        std_ed=std,
        n_paths=config.n_paths,
        n_skipped=config.n_paths - len(plans),
        per_path=results,
        config=config.fingerprint(),
    )
