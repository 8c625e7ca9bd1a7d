"""The batched path engine equals the per-path reference bit for bit.

tests/oracles.py keeps the engine as it ran one path at a time: one oracle
call, PCA, fit and ED reduction per path, and one forward and backward pass
per penalty path.  The batched engine stacks every path of an estimate or a
penalty step into one call of each; these properties require every result
to be equal (==, byte for byte on arrays), not close.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from effdeg.estimator import (
    EstimatorConfig,
    FunctionOracle,
    PathPlan,
    PathSamplingError,
    ed_estimate,
    fit_paths,
    plan_path,
)
from effdeg.net import FeedForwardNet, TrainConfig, ed_penalty, plan_paths
from effdeg.sampling import SCHEME_VARIANTS, sample_abscissas
from effdeg.surrogate import SingularFitError

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)


def same(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@st.composite
def engine_configs(draw):
    """(out, EstimatorConfig) over every engine setting."""
    max_degree = draw(st.integers(0, 6))
    resolution = draw(st.integers(max(max_degree + 1, 2), 10))
    out = draw(st.integers(1, 16))
    pca = draw(st.sampled_from([None, 1, min(resolution, out)]))
    anchored = draw(st.booleans())
    config = EstimatorConfig(
        n_paths=draw(st.integers(1, 24)),
        resolution=resolution,
        max_degree=max_degree,
        damping=draw(st.sampled_from([0.0, 1e-6])),
        basis=draw(st.sampled_from(["chebyshev", "legendre"])),
        scheme=draw(st.sampled_from(SCHEME_VARIANTS)),
        pca_dim=pca,
        anchored=anchored,
        post_softmax=draw(st.booleans()),
        seed=draw(st.integers(0, 2**32 - 1)),
    )
    return out, config


def dataset(seed: int, n: int, dim: int, distinct: int) -> np.ndarray:
    """n rows drawn from `distinct` points: few distinct points force redraws and skipped paths."""
    rng = np.random.default_rng(seed)
    points = rng.standard_normal((distinct, dim))
    return points[rng.integers(0, distinct, size=n)]


def block(rng, kind: str, r: int, out: int) -> np.ndarray:
    """One path's (r, out) raw outputs of a given structure."""
    if kind == "normal":
        return rng.standard_normal((r, out))
    if kind == "dead":  # constant columns give zero-variance PCA components
        y = rng.standard_normal((r, out))
        y[:, rng.random(out) < 0.6] = rng.standard_normal()
        return y
    if kind == "tie":  # two orthogonal directions of equal variance
        y = np.zeros((r, out))
        if out >= 2 and r >= 4:
            y[:4, :2] = [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]
        return y
    return np.round(rng.standard_normal((r, out)) * 2.0)  # small integers, exact sums


@PROPERTY
@given(
    setting=engine_configs(),
    data_seed=st.integers(0, 2**32 - 1),
    distinct=st.integers(1, 6),
    dim=st.integers(1, 4),
)
@example(
    setting=(16, EstimatorConfig(n_paths=20, resolution=8, max_degree=5, pca_dim=4, seed=3)),
    data_seed=1, distinct=6, dim=4,
)
def test_estimate_equals_per_path_reference(setting, data_seed, distinct, dim):
    out, config = setting
    X = dataset(data_seed, 20, dim, distinct)
    rng = np.random.default_rng(data_seed + 1)
    net = FeedForwardNet.create(
        (dim, 6, out), activations=(str(rng.choice(["relu", "square"])), "identity"),
        seed=data_seed,
    )
    oracle = net.as_oracle()
    labels = rng.standard_normal((20, out)) if config.anchored else None
    try:
        want, skipped = oracles.ed_estimate(oracle, X, config, labels=labels)
    except SingularFitError:
        with pytest.raises(SingularFitError):
            ed_estimate(oracle, X, config, labels=labels)
        return
    if not want:
        with pytest.raises(PathSamplingError):
            ed_estimate(oracle, X, config, labels=labels)
        return
    report = ed_estimate(oracle, X, config, labels=labels)
    assert report.n_skipped == skipped
    got = [(p.index, p.endpoint_indices, p.ed, p.ed_norm, p.pca_ties) for p in report.per_path]
    assert got == want


@PROPERTY
@given(
    setting=engine_configs(),
    seed=st.integers(0, 2**32 - 1),
    kinds=st.lists(st.sampled_from(["normal", "dead", "tie", "integer"]), min_size=1, max_size=6),
    with_grad=st.booleans(),
)
@example(
    setting=(2, EstimatorConfig(resolution=4, max_degree=3, pca_dim=2, seed=1)),
    seed=0, kinds=["tie", "dead", "normal"], with_grad=True,
)
def test_fit_paths_equals_per_path_reference(setting, seed, kinds, with_grad):
    out, config = setting
    rng = np.random.default_rng(seed)
    r = config.resolution
    plans = [
        PathPlan(i=0, j=1, key=(p,), abscissas=sample_abscissas(
            config.scheme, r, anchored=config.anchored, seed=config.seed + p))
        for p in range(len(kinds))
    ]
    raw = np.stack([block(rng, kind, r, out) for kind in kinds])
    labels = rng.standard_normal((2, out))
    divisor = 3.0 if with_grad else None
    try:
        want = [
            oracles.fit_path(raw[k], plan, config, labels=labels, grad_divisor=divisor)
            for k, plan in enumerate(plans)
        ]
    except SingularFitError:
        with pytest.raises(SingularFitError):
            fit_paths(raw, plans, config, labels=labels, grad_divisor=divisor)
        return
    got = fit_paths(raw, plans, config, labels=labels, grad_divisor=divisor)
    assert got.ed.ed.tolist() == [w[0] for w in want]
    assert got.ed.ed_norm.tolist() == [w[1] for w in want]
    assert got.pca_ties.tolist() == [w[2] for w in want]
    for k, (_, _, _, projection, grad) in enumerate(want):
        if with_grad:
            assert same(got.grad[k], grad)
        if projection is not None:
            assert same(got.projection.mean[k], projection.mean)
            assert same(got.projection.components[k], projection.components)
            assert same(got.projection.explained_variance[k], projection.explained_variance)
    # frozen maps, passed back in, applied to other values
    if config.pca_dim is not None:
        moved = raw + rng.standard_normal(raw.shape)
        again = fit_paths(
            moved, plans, config, labels=labels, projection=got.projection, grad_divisor=divisor
        )
        for k, plan in enumerate(plans):
            ed, ed_norm, _, _, grad = oracles.fit_path(
                moved[k], plan, config, labels=labels, projection=want[k][3], grad_divisor=divisor
            )
            assert (again.ed.ed[k], again.ed.ed_norm[k]) == (ed, ed_norm)
            if with_grad:
                assert same(again.grad[k], grad)


@PROPERTY
@given(
    setting=engine_configs(),
    task=st.sampled_from(["mse", "cross_entropy"]),
    reg_paths=st.integers(1, 6),
    hidden=st.sampled_from([("relu", "identity"), ("square", "identity"), ("relu", "square")]),
    seed=st.integers(0, 2**32 - 1),
    distinct=st.integers(1, 8),
)
def test_penalty_equals_per_path_reference(setting, task, reg_paths, hidden, seed, distinct):
    out, ecfg = setting
    config = TrainConfig(
        task=task, reg_strength=1.0, reg_paths=reg_paths, resolution=ecfg.resolution,
        max_degree=ecfg.max_degree, damping=ecfg.damping, basis=ecfg.basis, scheme=ecfg.scheme,
        pca_dim=ecfg.pca_dim, anchored=ecfg.anchored, seed=ecfg.seed,
    )
    rng = np.random.default_rng(seed)
    X = dataset(seed, 8, 2, distinct)
    T = rng.standard_normal((8, out))
    net = FeedForwardNet.create((2, 5, out), activations=hidden, seed=seed, scale=0.7)
    plans = plan_paths(X, config, step=int(rng.integers(0, 50)))
    try:
        want = oracles.ed_penalty(net, X, T, plans, config)
    except SingularFitError:
        with pytest.raises(SingularFitError):
            ed_penalty(net, X, T, plans, config)
        return
    got = ed_penalty(net, X, T, plans, config)
    assert got[0] == want[0]
    for g, w in zip(got[1][0] + got[1][1], want[1][0] + want[1][1]):
        assert same(g, w)
    assert ed_penalty(net, X, T, plans, config, want_grads=False)[0] == want[0]
    if config.pca_dim is None or not plans:
        return
    # frozen maps on a moved net, as the composite gradient check runs them
    moved = net.clone()
    moved.set_flat(net.get_flat() + 1e-3 * rng.standard_normal(net.n_params))
    frozen = oracles.ed_penalty(moved, X, T, plans, config, projections=want[2])
    again = ed_penalty(moved, X, T, plans, config, projections=got[2])
    assert again[0] == frozen[0]
    for g, w in zip(again[1][0] + again[1][1], frozen[1][0] + frozen[1][1]):
        assert same(g, w)


def test_reference_fixtures_reach_dead_components_and_ties():
    # the crafted blocks above do exercise the degenerate PCA branches
    rng = np.random.default_rng(0)
    cfg = EstimatorConfig(resolution=4, max_degree=3, pca_dim=2)
    plan = PathPlan(i=0, j=1, abscissas=sample_abscissas("uniform", 4))
    tie = fit_paths(block(rng, "tie", 4, 2)[None], [plan], cfg)
    assert tie.pca_ties.tolist() == [True]
    dead = fit_paths(np.zeros((1, 4, 3)), [plan], cfg)
    assert (dead.projection.explained_variance < 1e-12).all()
    assert dead.ed.ed.tolist() == [0.0]


def test_stacking_does_not_change_a_path():
    # a path fitted with others equals the same path fitted alone (P = 1)
    rng = np.random.default_rng(1)
    cfg = EstimatorConfig(resolution=6, max_degree=4, pca_dim=2, post_softmax=True)
    plans = [plan_path(rng.standard_normal((4, 2)), 5, (p,), cfg.scheme, 6, False)
             for p in range(5)]
    raw = rng.standard_normal((5, 6, 3))
    together = fit_paths(raw, plans, cfg, grad_divisor=2.0)
    for k, plan in enumerate(plans):
        alone = fit_paths(raw[k : k + 1], [plan], cfg, grad_divisor=2.0)
        assert alone.ed.ed.tolist() == together.ed.ed[k : k + 1].tolist()
        assert same(alone.grad[0], together.grad[k])


def test_estimate_evaluates_the_oracle_once_on_all_paths():
    X = np.arange(8.0).reshape(4, 2) ** 2
    seen = []
    oracle = FunctionOracle(2, 2, lambda p: seen.append(p.copy()) or p, name="identity")
    cfg = EstimatorConfig(n_paths=3, resolution=4, max_degree=2, scheme="uniform", seed=2)
    ed_estimate(oracle, X, cfg)
    plans = [plan_path(X, cfg.seed, (p,), cfg.scheme, 4, False) for p in range(3)]
    assert len(seen) == 1 and seen[0].shape == (12, 2)
    for k, plan in enumerate(plans):  # path k's rows, in plan order
        a = plan.abscissas.alphas[:, None]
        assert same(seen[0][4 * k : 4 * k + 4], a * X[plan.i] + (1.0 - a) * X[plan.j])
