"""The per-path engine, and dataset-level estimation over random interpolation paths.

One path is planned, evaluated, then fitted:

- plan_path draws an endpoint pair (x1, x2) from a dataset and the abscissas
  a_i of the segment x(a) = a x1 + (1 - a) x2;
- the caller evaluates its function at the segment points (path_values for
  an oracle, a network forward pass for the training penalty);
- fit_path takes those raw outputs, applies softmax, label anchoring and
  PCA as configured, fits per-output surrogates and returns the path's
  effective degree, plus its gradient in the raw outputs on request.

ed_estimate averages the per-path effective degrees over a dataset, and
net.ed_penalty averages them over a minibatch; both run this engine.

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
    "PathFit",
    "PathResult",
    "EDReport",
    "PathSamplingError",
    "softmax",
    "plan_path",
    "path_values",
    "anchor_values",
    "fit_path",
    "ed_estimate",
]

# Endpoints closer than this give a collapsed segment; the pair is redrawn.
DEGENERATE_NORM = 1e-12
_MAX_REDRAWS = 16


class PathSamplingError(RuntimeError):
    """Every attempted endpoint pair was degenerate."""


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
    """Frozen randomness of one path: endpoint row indices and abscissas (x1 = row i)."""

    i: int
    j: int
    abscissas: PathAbscissas


@dataclass(frozen=True)
class PathFit:
    """One path's effective degree, the PCA map it was fitted through, and its gradient.

    grad is dED/d(raw outputs), (r, out), divided by the requested
    divisor; None unless requested.
    """

    ed: sg.EDValue
    pca_ties: bool
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
            return PathPlan(i=i, j=j, abscissas=abscissas)
    return None


def path_values(
    oracle: FunctionOracle, x1: np.ndarray, x2: np.ndarray, abscissas: PathAbscissas
) -> np.ndarray:
    """Evaluate the oracle along a x1 + (1 - a) x2; a = 1 hits x1, a = 0 hits x2."""
    a = abscissas.alphas[:, None]
    points = a * np.asarray(x1, dtype=float) + (1.0 - a) * np.asarray(x2, dtype=float)
    return oracle.evaluate(points)


def anchor_values(
    values: np.ndarray, abscissas: PathAbscissas, t1: np.ndarray, t2: np.ndarray
) -> np.ndarray:
    """Replace endpoint rows with labels: the a = 0 row gets t2, the a = 1 row t1.

    Requires abscissas that actually contain both endpoints (an anchored
    scheme); anchoring interior-only samples would mislabel the path.
    """
    if not abscissas.anchored:
        raise ValueError("label anchoring requires an anchored abscissa scheme")
    out = np.array(values, dtype=float, copy=True)
    out[0, :] = np.asarray(t2, dtype=float)
    out[-1, :] = np.asarray(t1, dtype=float)
    return out


def fit_path(
    raw: np.ndarray,
    plan: PathPlan,
    config: EstimatorConfig,
    labels: np.ndarray | None = None,
    projection: PathProjection | None = None,
    grad_divisor: float | None = None,
) -> PathFit:
    """Effective degree of one path from its raw (r, out) outputs.

    The outputs are softmaxed (config.post_softmax), their endpoint rows
    replaced by labels[plan.i] and labels[plan.j] (config.anchored), and
    projected to config.pca_dim components before the fit.  A caller may
    pass a projection to freeze the PCA map; by default it is fit to the
    path's values.

    With grad_divisor set, the result also carries the gradient of
    ed / grad_divisor in raw.  The PCA map is differentiated as a fixed
    linear map, anchored rows get zero gradient (they are labels, not
    outputs), and the softmax is backpropagated last.  The division comes
    before the anchoring and the softmax, which fixes the gradient's rounding.
    """
    outputs = softmax(raw, axis=1) if config.post_softmax else np.asarray(raw, dtype=float)
    values = outputs
    if config.anchored:
        if labels is None:
            raise ValueError("anchored paths need labels")
        values = anchor_values(outputs, plan.abscissas, labels[plan.i], labels[plan.j])
    fit_target = values
    if config.pca_dim is None:
        projection = None
    else:
        if projection is None:
            projection = pca_project(values, config.pca_dim)
        fit_target = projection.apply(values)
    fitted = sg.fit_matrix(
        plan.abscissas, fit_target, config.max_degree, config.damping, config.basis,
        with_gradient=grad_divisor is not None,
    )
    coeffs = fitted if grad_divisor is None else fitted[0]
    ed = sg.mean_ed(sg.ed_from_coefficients(coeffs[:, j]) for j in range(coeffs.shape[1]))
    ties = projection is not None and projection.degenerate_ties
    if grad_divisor is None:
        return PathFit(ed=ed, pca_ties=ties, projection=projection)
    grad = fitted[1] / fit_target.shape[1]
    if projection is not None:
        grad = grad @ projection.components
    grad = grad / grad_divisor
    if config.anchored:
        grad[0, :] = 0.0
        grad[-1, :] = 0.0
    if config.post_softmax:
        inner = (grad * outputs).sum(axis=1, keepdims=True)
        grad = outputs * (grad - inner)
    return PathFit(ed=ed, pca_ties=ties, projection=projection, grad=grad)


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

    results: list[PathResult] = []
    n_skipped = 0
    for p in range(config.n_paths):
        plan = plan_path(X, config.seed, (p,), config.scheme, config.resolution, config.anchored)
        if plan is None:
            n_skipped += 1
            continue
        raw = path_values(oracle, X[plan.i], X[plan.j], plan.abscissas)
        fitted = fit_path(raw, plan, config, labels=labels)
        results.append(
            PathResult(
                index=p,
                endpoint_indices=(plan.i, plan.j),
                ed=fitted.ed.ed,
                ed_norm=fitted.ed.ed_norm,
                pca_ties=fitted.pca_ties,
            )
        )

    if not results:
        raise PathSamplingError(
            "all sampled endpoint pairs were degenerate; the dataset has no spread"
        )
    eds = np.array([r.ed for r in results])
    norms = np.array([r.ed_norm for r in results])
    std = float(eds.std(ddof=1)) if eds.size > 1 else 0.0
    return EDReport(
        mean_ed=float(eds.mean()),
        mean_ed_norm=float(norms.mean()),
        std_ed=std,
        n_paths=len(results) + n_skipped,
        n_skipped=n_skipped,
        per_path=tuple(results),
        config=config.fingerprint(),
    )
