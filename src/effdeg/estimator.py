"""The batched path engine, and dataset-level estimation over random interpolation paths.

Every stage works on a whole stack of P paths:

- plan_paths draws, for each path index p of a unit, an endpoint pair (x_i, x_j)
  from a dataset and the abscissas a of the segment a x_i + (1 - a) x_j,
  and returns them stacked as one PathPlans, which also records the
  settings they were drawn under and the normal systems of their fits;
- the caller evaluates its function once on the stacked segment points of
  every planned path (path_values for an oracle, one network forward pass
  over path_points for the training penalty);
- fit_paths takes the stacked (P, r, out) raw outputs, applies softmax,
  label anchoring and PCA as the plans' settings say, fits every path's
  per-output surrogates in one call and returns each path's effective
  degree, plus its gradient in the raw outputs on request (with_gradient).

Every stacked step computes each path exactly as if it were alone, so a
path's results do not depend on the batch it was fitted in; one path is
the P = 1 case.  ed_estimate averages the per-path effective degrees over a
dataset, and net.ed_penalty averages them over a minibatch; both run this
engine, and a plan is always fitted under the settings it was drawn under.

Randomness is splittable: a plan names its paths by a key prefix and a
path index p, and path p's draws depend only on (seed, prefix, p), in the
stream layout the sampling module states.  plan_paths(inputs, settings,
prefix, unit, k) is the one planner: unit k of unit consecutive paths.
What needs no input values (every path's first pair attempt, its
abscissas and its normal system) is drawn in one batched call each for a
cached block of whole units (drawn_block); per call only the check of
each pair against the inputs and its redraws run (settle_paths).
A unit is a block of paths in ed_estimate, a step in the penalty
(net.plan_paths) and one path in a replay: path p of either is
plan_paths(inputs, settings, prefix, 1, p), bit for bit.  An estimate so
holds one block plus about 41 bytes of records a path.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from . import sampling
from . import surrogate as sg
from .basis import BASIS_KINDS
from .reduce import PathProjection, pca_project
from .sampling import SCHEME_VARIANTS, sample_abscissas

__all__ = [
    "FunctionOracle",
    "PathSettings",
    "EstimatorConfig",
    "PathPlans",
    "PathFits",
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
    "hold_heap",
]

# Endpoints closer than this give a collapsed segment; the pair is redrawn.
DEGENERATE_NORM = 1e-12
_MAX_REDRAWS = 16
# A block holds the most whole units (of paths) whose design matrices, r * (K + 1)
# entries a path, fit in this many entries; a larger unit is a block alone.
_BLOCK_ENTRIES = 1 << 14


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
class PathSettings:
    """How each path is planned and fitted; shared by estimation and the training penalty.

    Bare settings fit raw outputs; EstimatorConfig's field and TrainConfig's
    property override the class attribute post_softmax.
    """

    post_softmax = False
    resolution: int = 4
    max_degree: int = 3
    damping: float = 1e-6
    basis: str = "chebyshev"
    scheme: str = "randomized_cosine"
    pca_dim: int | None = None
    anchored: bool = False
    seed: int = 0

    def validate(self) -> None:
        if self.resolution < self.max_degree + 1:
            raise ValueError("resolution must be >= max_degree + 1")
        if self.max_degree < 0:
            raise ValueError("max_degree must be >= 0")
        if not self.damping >= 0:
            raise ValueError("damping must be >= 0")
        if self.basis not in BASIS_KINDS:
            raise ValueError(f"basis must be one of {BASIS_KINDS}")
        if self.scheme not in SCHEME_VARIANTS:
            raise ValueError(f"scheme must be one of {SCHEME_VARIANTS}")
        if self.pca_dim is not None and self.pca_dim < 1:
            raise ValueError("pca_dim must be >= 1 when set")
        if self.anchored and self.resolution < 2:
            raise ValueError("anchoring requires resolution >= 2")

    def check_output_dim(self, output_dim: int) -> None:
        """Reject a pca_dim that outputs of this width cannot supply on a path."""
        if self.pca_dim is not None and self.pca_dim > min(self.resolution, output_dim):
            raise ValueError("pca_dim exceeds min(resolution, output_dim)")


@dataclass(frozen=True)
class EstimatorConfig(PathSettings):
    """Knobs for one estimation run: the path settings, the path count and the output softmax."""

    n_paths: int = 100
    post_softmax: bool = False

    def validate(self) -> None:
        if not 1 <= self.n_paths <= 2**32:
            raise ValueError("n_paths must lie in 1..2**32")
        super().validate()


@dataclass(frozen=True)
class PathPlans:
    """Frozen randomness of P paths, and the settings they were drawn under.

    Path k runs from inputs[i[k]] (a = 1) to inputs[j[k]] (a = 0), the
    rows of pairs[k], and was drawn under the stream key prefix +
    (paths[k],), which names it in errors.  key is the prefix's Philox key
    (sampling.path_key), paths is (P,) int64, alphas (P, r), and system the
    stacked normal system of the fits over alphas under settings, which
    fit_paths reads.  Indexing selects paths.
    """

    settings: PathSettings
    prefix: tuple[int, ...]
    key: np.ndarray
    paths: np.ndarray
    pairs: np.ndarray
    alphas: np.ndarray
    system: sg.NormalSystem

    @property
    def i(self) -> np.ndarray:
        return self.pairs[:, 0]

    @property
    def j(self) -> np.ndarray:
        return self.pairs[:, 1]

    def __len__(self) -> int:
        return len(self.paths)

    def __getitem__(self, index) -> "PathPlans":
        return replace(
            self, paths=self.paths[index], pairs=self.pairs[index], alphas=self.alphas[index],
            system=self.system[index],
        )


@dataclass(frozen=True)
class PathFits:
    """Effective degrees of P stacked paths, the PCA maps they were fitted through, and gradients.

    ed and ed_norm are (P,) means over each path's fitted outputs, pca_ties
    is (P,) bool, projection is the stacked PathProjection (None without
    PCA), and grad is dED/d(raw outputs), (P, r, out); None unless requested.
    """

    ed: np.ndarray
    ed_norm: np.ndarray
    pca_ties: np.ndarray
    projection: PathProjection | None
    grad: np.ndarray | None = None


@dataclass(frozen=True)
class EDReport:
    """Aggregate of an estimation run.

    per_path is a record array with one record per fitted path and the
    fields index (the path index p of its key (p,)), endpoint_i,
    endpoint_j, ed, ed_norm and pca_ties (41 bytes a record), the CLI's
    estimate_paths.csv.  n_paths counts every attempted path, so n_paths =
    len(per_path) + n_skipped always holds.
    """

    mean_ed: float
    mean_ed_norm: float
    std_ed: float
    n_paths: int
    n_skipped: int
    per_path: np.recarray

    @property
    def tie_path_indices(self) -> tuple[int, ...]:
        return tuple(self.per_path.index[self.per_path.pca_ties].tolist())


def softmax(values: np.ndarray) -> np.ndarray:
    """Stable softmax over the last axis."""
    z = np.asarray(values, dtype=float)
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def draw_paths(
    n: int, settings: PathSettings, prefix: tuple[int, ...], paths: np.ndarray
) -> PathPlans:
    """The plans of paths over n rows before they read a row's values: attempt 0's pairs.

    paths is a (P,) int64 array of indices in [0, 2**32).  A pair that
    Lemire's method rejects is (0, 0); settle_paths checks and redraws the
    pairs.  Each path's abscissas are drawn once, whichever attempt its
    endpoint pair settles at, so the normal system of its fit is known here
    too.
    """
    if n >= 1 << 32:
        raise ValueError(f"cannot plan paths over {n} rows; at most 2**32 - 1 are supported")
    key = sampling.path_key(settings.seed, prefix)
    pairs = sampling.pair_draws(key, paths, n, 0) if n > 1 else np.zeros((paths.size, 2), np.intp)
    uniforms = None
    if settings.scheme in sampling.SEEDED_VARIANTS:
        uniforms = sampling.path_uniforms(key, paths, settings.resolution)
    alphas = sample_abscissas(
        settings.scheme, settings.resolution, anchored=settings.anchored, uniforms=uniforms
    )
    if alphas.ndim == 1:
        alphas = np.tile(alphas, (paths.size, 1))
    system = sg.normal_system(alphas, settings.max_degree, settings.damping, settings.basis)
    return PathPlans(settings, prefix, key, paths, pairs, alphas, system)


def block_units(settings: PathSettings, unit: int) -> int:
    """How many whole units of unit paths each make one block under settings: at least one."""
    return max(_BLOCK_ENTRIES // max(unit * settings.resolution * (settings.max_degree + 1), 1), 1)


@functools.lru_cache(maxsize=1)
def drawn_block(settings: PathSettings, n: int, prefix: tuple, start: int, stop: int) -> PathPlans:
    """draw_paths of paths [start, stop) under prefix over n rows; cached, so read-only."""
    draws = draw_paths(n, settings, prefix, np.arange(start, stop, dtype=np.int64))
    for array in (
        draws.key, draws.paths, draws.pairs, draws.alphas,
        draws.system.design, draws.system.gram, draws.system.illposed,
    ):
        array.flags.writeable = False
    return draws


@functools.cache
def hold_heap() -> None:
    """Stop glibc's heap from shrinking and regrowing on every call; once a process.

    glibc maps each block above its mmap threshold afresh, and returns the top
    of its heap to the OS once more than its trim threshold lies free there, so
    the engine's and training's temporaries page-fault afresh on every call
    (about 370 faults an estimate-pca call, 140 a study step).  Freeing one
    mmapped 2 MiB block raises the two thresholds to 2 and 4 MiB for the rest
    of the process (mallopt(3)); 1 MiB is too small.  ed_estimate and every
    training step (net.composite_objective) call it on entry, never at
    import, and forked workers inherit it.
    """
    np.empty(1 << 18)


def settle_paths(inputs: np.ndarray, draws: PathPlans) -> PathPlans:
    """The drawn paths whose endpoint pair settles on inputs, in their drawn order.

    An attempt that draws a rejected index, equal rows or rows within
    DEGENERATE_NORM of each other moves on to the path's next attempt, up
    to _MAX_REDRAWS; a path whose every attempt fails is dropped.  When
    none is, the plans share every array of draws but its pairs.
    """
    n = inputs.shape[0]
    pairs = draws.pairs.copy()
    pending = np.arange(len(draws))
    drawn = draws.pairs
    for attempt in range(_MAX_REDRAWS if n > 1 else 0):
        if not pending.size:
            break
        if attempt:
            drawn = sampling.pair_draws(draws.key, draws.paths[pending], n, attempt)
        diff = np.asarray(inputs[drawn[:, 0]] - inputs[drawn[:, 1]], dtype=float)
        diff = diff.reshape(pending.size, -1)
        ok = np.einsum("pd,pd->p", diff, diff) > DEGENERATE_NORM**2  # rejected (0, 0): i = j
        pairs[pending[ok]] = drawn[ok]
        pending = pending[~ok]
    plans = replace(draws, pairs=pairs)
    if pending.size:
        kept = np.ones(len(draws), dtype=bool)
        kept[pending] = False
        plans = plans[kept]
    return plans


def plan_paths(
    inputs: np.ndarray, settings: PathSettings, prefix: tuple, unit: int, k: int, end: int = 1 << 32
) -> PathPlans:
    """Unit k of unit consecutive paths under prefix, settled on inputs: the one planner.

    The unit is path indices [k * unit, min((k + 1) * unit, end)), path p
    keyed prefix + (p,).  Its first index must lie in [0, end), end at most
    2**32, and inputs hold at most 2**32 - 1 rows; else ValueError.  It is
    cut from the cached, read-only block of block_units(settings, unit)
    whole units that holds it (drawn_block), then settled on inputs: a
    path whose every attempt fails is dropped.  A path's bits do not depend
    on its block, so path p alone is plan_paths(inputs, settings, prefix, 1, p).
    """
    prefix, first = tuple(prefix), int(k) * unit
    if unit < 1 or end > 1 << 32:
        raise ValueError(f"unit must be >= 1 and end <= 2**32, got {unit} and {end}")
    if not 0 <= first < end:
        key = prefix + (first,)
        raise ValueError(f"path key {key}: path index {first} of unit {k} is outside [0, {end})")
    units = block_units(settings, unit)
    start = int(k) // units * units * unit
    block = drawn_block(settings, inputs.shape[0], prefix, start, min(start + units * unit, end))
    return settle_paths(inputs, block[first - start : min(first + unit, end) - start])


def _path_name(plans: PathPlans, k: int) -> str:
    """Path k's key (joined by ":") and endpoint rows, for error messages."""
    key = ":".join(str(part) for part in plans.prefix + (int(plans.paths[k]),))
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
    labels[plans.j[k]] and its a = 1 row labels[plans.i[k]].  Every row of
    plans.alphas must start at a = 0 and end at a = 1, as anchored schemes
    and uniform do; anchoring interior-only samples would mislabel the path.
    """
    if not ((plans.alphas[:, 0] == 0.0).all() and (plans.alphas[:, -1] == 1.0).all()):
        raise ValueError("label anchoring requires each path's first abscissa a = 0 and last a = 1")
    labels = np.asarray(labels, dtype=float)
    out = np.array(values, dtype=float, copy=True)
    out[:, 0, :] = labels[plans.j]
    out[:, -1, :] = labels[plans.i]
    return out


def fit_paths(
    raw: np.ndarray,
    plans: PathPlans,
    labels: np.ndarray | None = None,
    projection: PathProjection | None = None,
    with_gradient: bool = False,
) -> PathFits:
    """Effective degrees of P paths from their stacked (P, r, out) raw outputs.

    The paths are fitted as they were drawn: under config = plans.settings,
    an EstimatorConfig or the net.TrainConfig of a penalty step, through
    plans.system.  Non-finite outputs raise NonFiniteOutputError and a
    singular fit SingularFitError, naming the first failing path by key
    (joined by ":") and endpoint rows.  The outputs are softmaxed
    (config.post_softmax), their endpoint rows replaced by labels[plans.i]
    and labels[plans.j] (config.anchored), and projected to config.pca_dim
    components before the fit.  A caller may pass the stacked projection of
    an earlier call to freeze the PCA maps; by default each path's map is
    fit to its values.

    With with_gradient set, the result also carries the gradient of ed in
    raw.  The PCA map is held constant, so with pca_dim set this is the
    gradient of ED(P_sg(y) y), not of the live-map ed; anchored rows get
    zero gradient (they are labels, not outputs); the softmax comes last.
    """
    config = plans.settings
    raw = np.asarray(raw, dtype=float)
    finite = np.isfinite(raw).all(axis=(1, 2))
    if not finite.all():
        first = int(np.argmin(finite))
        raise NonFiniteOutputError(f"non-finite output on {_path_name(plans, first)}")
    outputs = softmax(raw) if config.post_softmax else raw
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
    try:
        coeffs, grad = sg.solve_system(plans.system, fit_target, with_gradient=with_gradient)
    except sg.SingularFitError as exc:
        where = "" if exc.system is None else f" on {_path_name(plans, exc.system)}"
        raise sg.SingularFitError(f"{exc}{where}", exc.system) from exc
    ed, ed_norm = (v.mean(axis=-1) for v in sg.ed_from_coefficients(np.swapaxes(coeffs, -1, -2)))
    ties = np.zeros(len(plans), bool) if projection is None else projection.degenerate_ties
    if not with_gradient:
        return PathFits(ed=ed, ed_norm=ed_norm, pca_ties=ties, projection=projection)
    grad = grad / fit_target.shape[-1]
    if projection is not None:
        grad = grad @ projection.components
    if config.anchored:
        grad[:, 0, :] = 0.0
        grad[:, -1, :] = 0.0
    if config.post_softmax:
        inner = (grad * outputs).sum(axis=-1, keepdims=True)
        grad = outputs * (grad - inner)
    return PathFits(ed=ed, ed_norm=ed_norm, pca_ties=ties, projection=projection, grad=grad)


def ed_estimate(
    oracle: FunctionOracle,
    inputs: np.ndarray,
    config: EstimatorConfig,
    labels: np.ndarray | None = None,
) -> EDReport:
    """Estimate the mean effective degree of an oracle over a dataset.

    inputs is (n, input_dim) with n >= 2 finite rows.  When config.anchored is set,
    labels must be (n, output_dim) and finite; endpoint rows of each path are
    replaced by the labels of the endpoints before any PCA or fitting.
    """
    hold_heap()
    config.validate()
    X = np.asarray(inputs, dtype=float)
    if X.ndim != 2 or X.shape[1] != oracle.input_dim:
        raise ValueError(f"inputs must be (n, {oracle.input_dim})")
    finite = np.isfinite(X).all(axis=1)
    if not finite.all():
        raise ValueError(f"inputs row {int(np.argmin(finite))} is not finite")
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
        finite = np.isfinite(labels).all(axis=1)
        if not finite.all():
            raise ValueError(f"labels row {int(np.argmin(finite))} is not finite")
    config.check_output_dim(oracle.output_dim)

    length, columns = block_units(config, 1), []
    for k in range(-(-config.n_paths // length)):
        plans = plan_paths(X, config, (), length, k, config.n_paths)
        if plans:
            fit = fit_paths(path_values(oracle, X, plans), plans, labels=labels)
            columns.append((plans.paths, plans.i, plans.j, fit.ed, fit.ed_norm, fit.pca_ties))
    if not columns:
        raise PathSamplingError(
            "all sampled endpoint pairs were degenerate; the dataset has no spread"
        )
    # contiguous columns: a sum over the strided record fields may differ in its last bit
    paths, i, j, eds, ed_norm, ties = (np.concatenate(column) for column in zip(*columns))
    with np.errstate(over="ignore", invalid="ignore"):
        mean = float(eds.mean())
        std = float(eds.std(ddof=1)) if eds.size > 1 else 0.0
    if not (np.isfinite(mean) and np.isfinite(std)):
        k = int(np.argmax(eds))
        raise NonFiniteOutputError(
            f"effective-degree statistics overflow: largest ED {eds[k]:.3e} "
            f"on path {paths[k]} (endpoint rows {i[k]} and {j[k]})"
        )
    return EDReport(
        mean_ed=mean,
        mean_ed_norm=float(ed_norm.mean()),
        std_ed=std,
        n_paths=config.n_paths,
        n_skipped=config.n_paths - eds.size,
        per_path=np.rec.fromarrays(
            [paths, i, j, eds, ed_norm, ties],
            names="index,endpoint_i,endpoint_j,ed,ed_norm,pca_ties",
        ),
    )
