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
from effdeg import estimator, sampling
from effdeg.estimator import (
    EstimatorConfig,
    FunctionOracle,
    PathSamplingError,
    ed_estimate,
    fit_paths,
)
from effdeg.net import FeedForwardNet, TrainConfig, ed_penalty, plan_paths
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
    plans = oracles.plans_of(
        [sample_abscissas(config.scheme, r, anchored=config.anchored, seed=config.seed + p)
         for p in range(len(kinds))],
        anchored=config.anchored,
    )
    raw = np.stack([block(rng, kind, r, out) for kind in kinds])
    labels = rng.standard_normal((2, out))
    divisor = 3.0 if with_grad else None
    try:
        want = [
            oracles.fit_path(raw[k], plans, k, config, labels=labels, grad_divisor=divisor)
            for k in range(len(plans))
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
        for k in range(len(plans)):
            ed, ed_norm, _, _, grad = oracles.fit_path(
                moved[k], plans, k, config, labels=labels, projection=want[k][3],
                grad_divisor=divisor,
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


@st.composite
def key_lists(draw):
    """1 to 40 stream keys of 1 to 3 words; now and then a ragged key or a word of 2**32 and up."""
    width = draw(st.integers(1, 3))
    words = st.integers(0, 2**32 - 1)
    prefix = tuple(draw(st.lists(words, min_size=width - 1, max_size=width - 1)))
    keys = [prefix + (p,) for p in range(draw(st.integers(1, 40)))]
    odd = draw(st.sampled_from([None, (), (2**32,), (1, 2**40 + 3, 0), (0, 0, 0, 0)]))
    if odd is not None:
        keys.insert(draw(st.integers(0, len(keys))), odd)
    return keys


@PROPERTY
@given(
    seed=st.integers(0, 2**32 - 1) | st.integers(2**63, 2**160),
    keys=key_lists(),
    scheme=st.sampled_from(SCHEME_VARIANTS),
    resolution=st.integers(2, 12),
    anchored=st.booleans(),
    data_seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 30),
    distinct=st.integers(1, 6),
    dim=st.integers(1, 3),
)
@example(seed=2**64 - 1, keys=[(3, 1, p) for p in range(20)], scheme="randomized_cosine",
         resolution=15, anchored=True, data_seed=0, n=3, distinct=2, dim=2)
def test_plan_paths_equals_per_key_reference(
    seed, keys, scheme, resolution, anchored, data_seed, n, distinct, dim
):
    # few distinct rows force redraws and dropped keys; the odd keys take the per-key draw
    X = dataset(data_seed, n, dim, distinct)
    got = estimator.plan_paths(X, seed, keys, scheme, resolution, anchored)
    want = oracles.plan_paths(X, seed, keys, scheme, resolution, anchored)
    assert got.keys == want.keys
    assert same(got.i, want.i) and same(got.j, want.j)
    assert same(got.alphas, want.alphas)
    assert got.anchored == want.anchored


def test_plan_paths_redraw_test_decides_as_linalg_norm():
    # rows 1e-12 apart sit on the redraw threshold: some pairs are redrawn, some kept
    X = np.array([[0.0, 0.0], [5e-13, 0.0], [1.2e-12, 0.0], [0.0, 1.5e-12], [3e-12, 0.0]])
    keys = [(p,) for p in range(300)]
    got = estimator.plan_paths(X, 8, keys, "randomized_cosine", 4, False)
    want = oracles.plan_paths(X, 8, keys, "randomized_cosine", 4, False)
    assert got.keys == want.keys
    assert same(got.i, want.i) and same(got.j, want.j) and same(got.alphas, want.alphas)
    pairs = {frozenset(pair) for pair in zip(got.i.tolist(), got.j.tolist())}
    assert {0, 1} not in pairs and {1, 2} not in pairs  # 5e-13 and 7e-13 apart
    assert {0, 2} in pairs  # 1.2e-12 apart


def test_plan_paths_redraws_every_pair_the_batch_marks_inexact(monkeypatch):
    # an inexact row (a Lemire rejection in the batch) must come from the
    # key's own stream, whatever pair the batch computed for it
    X = np.random.default_rng(2).standard_normal((40, 3))
    keys = [(9, p) for p in range(30)]
    want = oracles.plan_paths(X, 5, keys, "randomized_cosine", 6, True)
    batched = sampling.pair_draws

    def rejecting(seed, rows, n):
        pairs, exact = batched(seed, rows, n)
        pairs[::3] = [0, 1]
        exact[::3] = False
        return pairs, exact

    monkeypatch.setattr(sampling, "pair_draws", rejecting)
    got = estimator.plan_paths(X, 5, keys, "randomized_cosine", 6, True)
    assert got.keys == want.keys
    assert same(got.i, want.i) and same(got.j, want.j) and same(got.alphas, want.alphas)


def test_deterministic_schemes_draw_no_abscissa_stream(monkeypatch):
    X = np.random.default_rng(3).standard_normal((30, 2))
    keys = [(p,) for p in range(50)]
    schemes = ("chebyshev_fixed", "uniform")
    want = {s: estimator.plan_paths(X, 4, keys, s, 6, True) for s in schemes}

    def refuse(*args):
        raise AssertionError("a deterministic scheme derived an abscissa seed")

    monkeypatch.setattr(sampling, "derive_seed", refuse)
    monkeypatch.setattr(sampling, "derive_seeds", refuse)
    for scheme, plans in want.items():
        got = estimator.plan_paths(X, 4, keys, scheme, 6, True)
        assert same(got.alphas, plans.alphas)
        assert same(got.alphas, np.tile(sample_abscissas(scheme, 6, anchored=True), (len(got), 1)))


def test_reference_fixtures_reach_dead_components_and_ties():
    # the crafted blocks above do exercise the degenerate PCA branches
    rng = np.random.default_rng(0)
    cfg = EstimatorConfig(resolution=4, max_degree=3, pca_dim=2)
    plan = oracles.plans_of(sample_abscissas("uniform", 4))
    tie = fit_paths(block(rng, "tie", 4, 2)[None], plan, cfg)
    assert tie.pca_ties.tolist() == [True]
    dead = fit_paths(np.zeros((1, 4, 3)), plan, cfg)
    assert (dead.projection.explained_variance < 1e-12).all()
    assert dead.ed.ed.tolist() == [0.0]


def test_stacking_does_not_change_a_path():
    # a path fitted with others equals the same path fitted alone (P = 1)
    rng = np.random.default_rng(1)
    cfg = EstimatorConfig(resolution=6, max_degree=4, pca_dim=2, post_softmax=True)
    X = rng.standard_normal((4, 2))
    plans = estimator.plan_paths(X, 5, [(p,) for p in range(5)], cfg.scheme, 6, False)
    assert len(plans) == 5
    raw = rng.standard_normal((5, 6, 3))
    together = fit_paths(raw, plans, cfg, grad_divisor=2.0)
    for k in range(5):
        alone = fit_paths(
            raw[k : k + 1], estimator.plan_paths(X, 5, [(k,)], cfg.scheme, 6, False), cfg,
            grad_divisor=2.0,
        )
        assert alone.ed.ed.tolist() == together.ed.ed[k : k + 1].tolist()
        assert same(alone.grad[0], together.grad[k])


def test_estimate_evaluates_the_oracle_once_on_all_paths():
    X = np.arange(8.0).reshape(4, 2) ** 2
    seen = []
    oracle = FunctionOracle(2, 2, lambda p: seen.append(p.copy()) or p, name="identity")
    cfg = EstimatorConfig(n_paths=3, resolution=4, max_degree=2, scheme="uniform", seed=2)
    ed_estimate(oracle, X, cfg)
    plans = estimator.plan_paths(X, cfg.seed, [(p,) for p in range(3)], cfg.scheme, 4, False)
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
        [sample_abscissas("randomized_cosine", config.resolution, seed=seed + k)
         for k in range(raw.shape[0])]
    )
    base = fit_paths(raw, plans, config).ed
    scaled = fit_paths(scale * raw, plans, config).ed
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
    forward = fit_paths(raw, oracles.plans_of(nodes, i=rows, j=rows + n), config).ed
    reverse = oracles.plans_of(1.0 - nodes[:, ::-1], i=rows + n, j=rows)
    backward = fit_paths(raw[:, ::-1, :], reverse, config).ed
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
