"""The batched path engine equals the per-path reference bit for bit.

tests/oracles.py keeps the engine as it ran one path at a time: one oracle
call, PCA, fit and ED reduction per path, and one forward pass per penalty
path, with one backward pass over the concatenated paths.  The batched
engine stacks every path of an estimate or a penalty step into one call of
each; these properties require every result to be equal (==, byte for byte
on arrays), not close.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from effdeg import estimator, sampling
from effdeg.estimator import (
    EstimatorConfig,
    FunctionOracle,
    PathSamplingError,
    PathSettings,
    ed_estimate,
    fit_paths,
)
from effdeg.net import PENALTY_PREFIX, FeedForwardNet, TrainConfig, ed_penalty, plan_paths
from effdeg.sampling import SCHEME_VARIANTS, chebyshev_nodes, sample_abscissas
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
    block_paths=st.sampled_from([1, 3, 7, None]),
)
@example(
    setting=(16, EstimatorConfig(n_paths=20, resolution=8, max_degree=5, pca_dim=4, seed=3)),
    data_seed=1, distinct=6, dim=4, block_paths=7,
)
def test_estimate_equals_per_path_reference(setting, data_seed, distinct, dim, block_paths):
    # blocks of 1, 3 or 7 paths, or the default: redraws, dropped paths and
    # blocks with no surviving path land anywhere, and the report is the same
    out, config = setting
    with pytest.MonkeyPatch.context() as patch:
        if block_paths is not None:
            entries = block_paths * config.resolution * (config.max_degree + 1)
            patch.setattr(estimator, "_BLOCK_ENTRIES", entries)
        check_estimate(out, config, data_seed, distinct, dim)


def check_estimate(out, config, data_seed, distinct, dim):
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
    got = [
        (p.index, (p.endpoint_i, p.endpoint_j), p.ed, p.ed_norm, p.pca_ties)
        for p in report.per_path
    ]
    assert got == want
    eds, ed_norms = np.array([w[2] for w in want]), np.array([w[3] for w in want])
    std = eds.std(ddof=1) if eds.size > 1 else 0.0
    assert (report.mean_ed, report.std_ed, report.mean_ed_norm) == (
        eds.mean(), std, ed_norms.mean()
    )


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
    plans = oracles.plans_of(
        [sample_abscissas(config.scheme, r, anchored=config.anchored, uniforms=rng.random(r))
         for _ in kinds],
        settings=config,
    )
    raw = np.stack([block(rng, kind, r, out) for kind in kinds])
    labels = rng.standard_normal((2, out))
    try:
        want = [
            oracles.fit_path(raw[k], plans, k, config, labels=labels, with_gradient=with_grad)
            for k in range(len(plans))
        ]
    except SingularFitError:
        with pytest.raises(SingularFitError):
            fit_paths(raw, plans, labels=labels, with_gradient=with_grad)
        return
    got = fit_paths(raw, plans, labels=labels, with_gradient=with_grad)
    assert got.ed.tolist() == [w[0] for w in want]
    assert got.ed_norm.tolist() == [w[1] for w in want]
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
            moved, plans, labels=labels, projection=got.projection, with_gradient=with_grad
        )
        for k in range(len(plans)):
            ed, ed_norm, _, _, grad = oracles.fit_path(
                moved[k], plans, k, config, labels=labels, projection=want[k][3],
                with_gradient=with_grad,
            )
            assert (again.ed[k], again.ed_norm[k]) == (ed, ed_norm)
            if with_grad:
                assert same(again.grad[k], grad)


@pytest.mark.parametrize("task", ["mse", "cross_entropy"])
@pytest.mark.parametrize("anchored", [False, True])
@pytest.mark.parametrize("pca_dim", [None, 2])
def test_fit_paths_on_a_train_config_equals_its_estimator_config(task, anchored, pca_dim):
    # the penalty fits with its TrainConfig; post_softmax is derived from the task
    settings_ = dict(resolution=6, max_degree=4, pca_dim=pca_dim, anchored=anchored, seed=9)
    train_cfg = TrainConfig(task=task, reg_paths=4, **settings_)
    est_cfg = EstimatorConfig(post_softmax=task == "cross_entropy", **settings_)
    rng = np.random.default_rng(17)
    X = rng.standard_normal((6, 2))
    plans = plan_paths(X, train_cfg, step=3)
    assert len(plans) == 4 and plans.settings is train_cfg
    same_paths = estimator.plan_paths(X, est_cfg, PENALTY_PREFIX, 4, 3)
    assert same(same_paths.pairs, plans.pairs) and same(same_paths.alphas, plans.alphas)
    raw = rng.standard_normal((4, 6, 3))
    labels = rng.standard_normal((6, 3))
    got = fit_paths(raw, plans, labels=labels, with_gradient=True)
    want = fit_paths(raw, same_paths, labels=labels, with_gradient=True)
    for name in ("ed", "ed_norm", "pca_ties", "grad"):
        assert same(getattr(got, name), getattr(want, name))
    if pca_dim is not None:
        for name in ("mean", "components", "explained_variance", "degenerate_ties"):
            assert same(getattr(got.projection, name), getattr(want.projection, name))


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
    step = int(rng.integers(0, 50))
    plans = plan_paths(X, config, step)
    try:
        want = oracles.ed_penalty(net, X, T, plans, config)
    except SingularFitError:
        with pytest.raises(SingularFitError):
            ed_penalty(net, X, T, config, step)
        return
    got = ed_penalty(net, X, T, config, step)
    assert got[0] == want[0]
    for g, w in zip(got[1][0] + got[1][1], want[1][0] + want[1][1]):
        assert same(g, w)
    if config.pca_dim is None or not plans:
        return
    # frozen maps on a moved net, as the composite gradient check runs them
    moved = net.clone()
    moved.set_flat(net.get_flat() + 1e-3 * rng.standard_normal(net.n_params))
    frozen = oracles.ed_penalty(moved, X, T, plans, config, projections=want[2])
    again = ed_penalty(moved, X, T, config, step, projections=got[2])
    assert again[0] == frozen[0]
    for g, w in zip(again[1][0] + again[1][1], frozen[1][0] + frozen[1][1]):
        assert same(g, w)


@st.composite
def units(draw):
    """(unit, k, end): unit k of 1 to 40 paths, cut short at end or at 2**32."""
    unit = draw(st.integers(1, 40))
    last = ((1 << 32) - 1) // unit  # the last unit that starts below 2**32
    k = draw(st.sampled_from([0, last]) | st.integers(0, last))
    first = k * unit
    end = draw(st.just(1 << 32) | st.integers(first + 1, min(first + unit, 1 << 32)))
    return unit, k, end


@PROPERTY
@given(
    seed=st.integers(0, 2**32 - 1) | st.integers(2**63, 2**160),
    prefix=st.lists(st.integers(0, 2**32 - 1) | st.just(2**40 + 3), max_size=2).map(tuple),
    unit=units(),
    scheme=st.sampled_from(SCHEME_VARIANTS),
    resolution=st.integers(2, 64),
    anchored=st.booleans(),
    data_seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 30),
    distinct=st.integers(1, 6),
    dim=st.integers(1, 3),
)
@example(seed=2**64 - 1, prefix=(3, 1), unit=(20, 0, 2**32), scheme="randomized_cosine",
         resolution=15, anchored=True, data_seed=0, n=3, distinct=2, dim=2)
def test_plan_paths_equals_per_key_reference(
    seed, prefix, unit, scheme, resolution, anchored, data_seed, n, distinct, dim
):
    # few distinct rows force redraws and dropped paths; every planned row
    # ascends strictly, since no drawn uniform nears a shared stratum bound
    X = dataset(data_seed, n, dim, distinct)
    settings = PathSettings(
        resolution=resolution, max_degree=0, scheme=scheme, anchored=anchored, seed=seed
    )
    size, k, end = unit
    got = estimator.plan_paths(X, settings, prefix, size, k, end)
    want = oracles.plan_paths(X, settings, prefix, range(k * size, min((k + 1) * size, end)))
    assert got.prefix == want.prefix == prefix
    assert same(got.paths, want.paths)
    assert same(got.i, want.i) and same(got.j, want.j)
    assert same(got.alphas, want.alphas)
    assert (np.diff(got.alphas, axis=1) > 0).all()


@pytest.mark.parametrize("scheme", SCHEME_VARIANTS)
def test_every_path_replays_alone(scheme):
    # a unit of 40 paths equals each path planned as a unit of one, and
    # scattered indices replay alone as the per-key reference plans them;
    # duplicate rows force redraws
    X = dataset(4, 30, 2, 5)
    settings = PathSettings(resolution=7, scheme=scheme, anchored=True, seed=17)
    together = estimator.plan_paths(X, settings, (), 40, 0)
    alone = [estimator.plan_paths(X, settings, (), 1, p) for p in range(40)]
    alone = [plan for plan in alone if plan]
    assert together.paths.tolist() == [plan.paths[0] for plan in alone]
    for k, plan in enumerate(alone):
        assert (together.i[k], together.j[k]) == (plan.i[0], plan.j[0])
        assert same(together.alphas[k], plan.alphas[0])
    for p in (9, 10, 11, 3, 0, 1, 30, 2**32 - 1):
        got = estimator.plan_paths(X, settings, (6, 1), 1, p)
        want = oracles.plan_paths(X, settings, (6, 1), [p])
        assert same(got.paths, want.paths) and same(got.pairs, want.pairs)
        assert same(got.alphas, want.alphas)


def test_cached_blocks_hold_nothing_that_depends_on_input_values():
    # a block drawn on one dataset is reused on another of the same row count,
    # and a penalty block on every minibatch of its steps: the plans on the
    # second inputs are still the per-key reference's, redraws included
    settings = PathSettings(resolution=6, anchored=True, seed=21)
    cfg = TrainConfig(reg_paths=4, resolution=5, anchored=True, seed=22)
    spread = dataset(5, 12, 2, 12)
    clumped = spread[[0] * 10 + [1, 2]]  # most pairs are degenerate
    cases = [
        (lambda X: estimator.plan_paths(X, settings, (), 10, 2), settings, (), range(20, 30)),
        (lambda X: plan_paths(X, cfg, 5), cfg, PENALTY_PREFIX, range(20, 24)),
        (lambda X: plan_paths(X, cfg, 6), cfg, PENALTY_PREFIX, range(24, 28)),
    ]
    estimator.drawn_block.cache_clear()
    for plan, config, prefix, paths in cases:
        for X in (spread, clumped):
            got, want = plan(X), oracles.plan_paths(X, config, prefix, paths)
            assert same(got.paths, want.paths) and same(got.pairs, want.pairs)
            assert same(got.alphas, want.alphas)
        assert not same(plan(clumped).pairs, plan(spread).pairs)  # the clumped rows redrew
    # one block for the estimate's settings and one for the penalty's steps
    assert estimator.drawn_block.cache_info().misses == 2
    estimator.drawn_block.cache_clear()


def test_plan_paths_redraw_test_decides_as_linalg_norm():
    # rows 1e-12 apart sit on the redraw threshold: some pairs are redrawn, some kept
    X = np.array([[0.0, 0.0], [5e-13, 0.0], [1.2e-12, 0.0], [0.0, 1.5e-12], [3e-12, 0.0]])
    settings = PathSettings(seed=8)
    got = estimator.plan_paths(X, settings, (), 300, 0)
    want = oracles.plan_paths(X, settings, (), range(300))
    assert same(got.paths, want.paths)
    assert same(got.i, want.i) and same(got.j, want.j) and same(got.alphas, want.alphas)
    pairs = {frozenset(pair) for pair in zip(got.i.tolist(), got.j.tolist())}
    assert {0, 1} not in pairs and {1, 2} not in pairs  # 5e-13 and 7e-13 apart
    assert {0, 2} in pairs  # 1.2e-12 apart


def test_deterministic_schemes_draw_no_abscissa_stream(monkeypatch):
    X = np.random.default_rng(3).standard_normal((30, 2))
    settings = {
        s: PathSettings(resolution=6, scheme=s, anchored=True, seed=4)
        for s in ("chebyshev_fixed", "uniform")
    }
    want = {s: estimator.plan_paths(X, settings[s], (), 50, 0) for s in settings}

    def refuse(*args):
        raise AssertionError("a deterministic scheme drew abscissa uniforms")

    monkeypatch.setattr(sampling, "path_uniforms", refuse)
    for scheme, plans in want.items():
        got = estimator.plan_paths(X, settings[scheme], (), 50, 0)
        assert same(got.alphas, plans.alphas)
        assert same(got.alphas, np.tile(sample_abscissas(scheme, 6, anchored=True), (len(got), 1)))


def test_reference_fixtures_reach_dead_components_and_ties():
    # the crafted blocks above do exercise the degenerate PCA branches
    rng = np.random.default_rng(0)
    cfg = EstimatorConfig(resolution=4, max_degree=3, pca_dim=2)
    plan = oracles.plans_of(sample_abscissas("uniform", 4), settings=cfg)
    tie = fit_paths(block(rng, "tie", 4, 2)[None], plan)
    assert tie.pca_ties.tolist() == [True]
    dead = fit_paths(np.zeros((1, 4, 3)), plan)
    assert (dead.projection.explained_variance < 1e-12).all()
    assert dead.ed.tolist() == [0.0]


def test_stacking_does_not_change_a_path():
    # a path fitted with others equals the same path fitted alone (P = 1)
    rng = np.random.default_rng(1)
    cfg = EstimatorConfig(resolution=6, max_degree=4, pca_dim=2, post_softmax=True, seed=5)
    X = rng.standard_normal((4, 2))
    plans = estimator.plan_paths(X, cfg, (), 5, 0)
    assert len(plans) == 5
    raw = rng.standard_normal((5, 6, 3))
    together = fit_paths(raw, plans, with_gradient=True)
    for k in range(5):
        plan = estimator.plan_paths(X, cfg, (), 1, k)
        alone = fit_paths(raw[k : k + 1], plan, with_gradient=True)
        assert alone.ed.tolist() == together.ed[k : k + 1].tolist()
        assert same(alone.grad[0], together.grad[k])


def test_estimate_evaluates_the_oracle_once_on_all_paths():
    X = np.arange(8.0).reshape(4, 2) ** 2
    seen = []
    oracle = FunctionOracle(2, 2, lambda p: seen.append(p.copy()) or p, name="identity")
    cfg = EstimatorConfig(n_paths=3, resolution=4, max_degree=2, scheme="uniform", seed=2)
    ed_estimate(oracle, X, cfg)
    plans = estimator.plan_paths(X, cfg, (), 3, 0)
    assert len(seen) == 1 and seen[0].shape == (12, 2)
    for k in range(len(plans)):  # path k's rows, in plan order
        a = plans.alphas[k][:, None]
        want = a * X[plans.i[k]] + (1.0 - a) * X[plans.j[k]]
        assert same(seen[0][4 * k : 4 * k + 4], want)


# ED invariants on hand-built plans: no PCA, softmax or anchoring, so the
# fit sees the raw outputs.  They hold to rounding, not bit for bit.
INVARIANT = settings(max_examples=40, deadline=None, derandomize=True, database=None)


@st.composite
def plain_fits(draw):
    """(EstimatorConfig, (P, r, out) raw outputs) for a fit without PCA, softmax or anchoring."""
    max_degree = draw(st.integers(1, 6))
    config = EstimatorConfig(
        resolution=draw(st.integers(max_degree + 1, 12)),
        max_degree=max_degree,
        damping=draw(st.sampled_from([0.0, 1e-6])),
        basis=draw(st.sampled_from(["chebyshev", "legendre"])),
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (draw(st.integers(1, 5)), config.resolution, draw(st.integers(1, 4)))
    return config, rng.standard_normal(shape)


@INVARIANT
@given(
    fit=plain_fits(),
    scale=st.floats(1e-3, 1e3) | st.floats(-1e3, -1e-3),
    seed=st.integers(0, 2**32 - 1),
)
def test_ed_is_absolutely_homogeneous_and_ed_norm_scale_free(fit, scale, seed):
    config, raw = fit
    plans = oracles.plans_of(
        sample_abscissas(
            "randomized_cosine", config.resolution,
            uniforms=np.random.default_rng(seed).random((raw.shape[0], config.resolution)),
        ),
        settings=config,
    )
    base = fit_paths(raw, plans)
    scaled = fit_paths(scale * raw, plans)
    assert np.allclose(scaled.ed, abs(scale) * base.ed, rtol=1e-12, atol=0.0)
    assert np.allclose(scaled.ed_norm, base.ed_norm, rtol=1e-12, atol=0.0)


@INVARIANT
@given(fit=plain_fits())
def test_reversed_path_at_chebyshev_nodes_has_the_same_ed(fit):
    # the reversed path visits the same points from the other end: swap the
    # endpoints, map a -> 1 - a and reverse the samples
    config, raw = fit
    n = raw.shape[0]
    nodes = np.tile(chebyshev_nodes(config.resolution), (n, 1))
    rows = np.arange(n)
    forward = fit_paths(raw, oracles.plans_of(nodes, i=rows, j=rows + n, settings=config))
    reverse = oracles.plans_of(1.0 - nodes[:, ::-1], i=rows + n, j=rows, settings=config)
    backward = fit_paths(raw[:, ::-1, :], reverse)
    assert np.allclose(backward.ed, forward.ed, rtol=1e-12, atol=0.0)
    assert np.allclose(backward.ed_norm, forward.ed_norm, rtol=1e-12, atol=0.0)


@INVARIANT
@given(
    max_degree=st.integers(0, 6),
    extra=st.integers(0, 6),
    basis=st.sampled_from(["chebyshev", "legendre"]),
    scheme=st.sampled_from(SCHEME_VARIANTS),
    anchored=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    dims=st.tuples(st.integers(1, 4), st.integers(1, 4)),
    centered=st.booleans(),
)
def test_affine_oracle_caps_ed_norm_at_one(
    max_degree, extra, basis, scheme, anchored, seed, dims, centered
):
    # an affine function restricted to a segment is affine in a: all of its
    # coefficient mass sits at degrees 0 and 1, so ED_norm <= 1 up to
    # rounding.  A linear map on the rows x and -x has value 0 at every
    # path's midpoint, so c_0 = 0 and ED_norm = 1 exactly, the sharp case.
    d, out = dims
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((out, d))
    b = np.zeros(out) if centered else rng.standard_normal(out)
    oracle = FunctionOracle(d, out, lambda p: p @ A.T + b, name="affine")
    config = EstimatorConfig(
        n_paths=8, resolution=max(max_degree + 1 + extra, 2), max_degree=max_degree, damping=0.0,
        basis=basis, scheme=scheme, anchored=anchored, seed=seed,
    )
    X = rng.standard_normal((12, d))
    if centered:
        X = np.concatenate([X[:1], -X[:1]])
    labels = oracle.evaluate(X) if anchored else None
    report = ed_estimate(oracle, X, config, labels=labels)
    assert max(p.ed_norm for p in report.per_path) <= 1.0 + 1e-12
