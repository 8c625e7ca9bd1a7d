"""Network engine: forward/backward, composite objective, checkpoints, study scaffolding.

Gradient checks run on square-activation nets because central differences
are only trustworthy on smooth objectives; relu paths are covered by exact
identities instead.
"""

import json
import multiprocessing
from dataclasses import replace

import numpy as np
import pytest

from effdeg import estimator, net as nets, sampling, surrogate
from effdeg.estimator import NonFiniteOutputError
from effdeg.net import (
    ACTIVATIONS,
    FeedForwardNet,
    NonFiniteLossError,
    PNN_TASKS,
    StepRecord,
    TrainConfig,
    TrainingFailure,
    accuracy,
    build_pnn,
    composite_objective,
    ed_penalty,
    lambda_schedule,
    load_checkpoint,
    make_two_cluster_dataset,
    one_hot,
    plan_paths,
    regularized_step,
    save_checkpoint,
    task_loss_and_grad,
    train,
)

import oracles
from oracles import fd_gradient


def tiny_net(seed=0, activations=("square", "identity"), sizes=(2, 5, 3)):
    return FeedForwardNet.create(sizes, activations=activations, seed=seed, scale=0.4)


def flat_grads(net, d_w, d_b):
    parts = []
    for w, b in zip(d_w, d_b):
        parts.append(np.ravel(w))
        parts.append(np.ravel(b))
    return np.concatenate(parts)


def test_forward_hand_examples():
    net = FeedForwardNet([np.array([[2.0]])], [np.array([1.0])], ("identity",))
    assert net.forward(np.array([3.0])) == pytest.approx(7.0)

    relu_net = FeedForwardNet(
        [np.eye(2)], [np.array([-1.0, 0.0])], ("relu",)
    )
    out = relu_net.forward(np.array([[0.5, 2.0]]))
    assert np.allclose(out, [[0.0, 2.0]])

    sq = FeedForwardNet([np.array([[1.0], [1.0]])], [np.array([-1.0])], ("square",))
    assert sq.forward(np.array([2.0, 3.0]))[0] == pytest.approx(16.0)


def test_forward_single_and_batch_agree():
    net = tiny_net(1)
    x = np.random.default_rng(2).standard_normal(2)
    assert np.array_equal(net.forward(x), net.forward(x[None, :])[0])


@pytest.mark.parametrize(
    "sizes,rows",
    [((8, 64, 64, 16), 1600), ((2, 32, 32, 2), 512), (None, 3000)],
    ids=["estimate-pca", "train-penalty", "pnn"],
)
def test_forward_and_cached_forward_agree_bit_for_bit(sizes, rows):
    # forward computes in place and forward_cached keeps every layer; the
    # benchmark's relu nets and the study's square net read the same bits
    net = build_pnn() if sizes is None else FeedForwardNet.create(sizes, seed=5)
    X = np.random.default_rng(6).standard_normal((rows, net.layer_sizes[0]))
    assert net.forward(X).tobytes() == net.forward_cached(X)[0].tobytes()


def test_net_validation():
    with pytest.raises(ValueError):
        FeedForwardNet([np.zeros((2, 3))], [np.zeros(2)], ("identity",))
    with pytest.raises(ValueError):
        FeedForwardNet(
            [np.zeros((2, 3)), np.zeros((4, 1))],
            [np.zeros(3), np.zeros(1)],
            ("relu", "identity"),
        )
    with pytest.raises(ValueError):
        FeedForwardNet([np.zeros((2, 3))], [np.zeros(3)], ("tanh",))
    with pytest.raises(ValueError):
        FeedForwardNet.create((4,))
    assert set(ACTIVATIONS) == {"relu", "square", "identity"}


def test_flat_round_trip_and_clone():
    net = tiny_net(3)
    flat = net.get_flat()
    assert flat.shape == (net.n_params,)
    other = tiny_net(4)
    other.set_flat(flat)
    assert np.array_equal(other.get_flat(), flat)
    twin = net.clone()
    twin.weights[0][0, 0] += 1.0
    assert net.weights[0][0, 0] != twin.weights[0][0, 0]
    with pytest.raises(ValueError):
        net.set_flat(flat[:-1])


def test_backward_matches_fd_on_smooth_net():
    net = tiny_net(5)
    X = np.random.default_rng(6).standard_normal((7, 2))
    T = np.random.default_rng(7).standard_normal((7, 3))

    def objective(flat):
        probe = net.clone()
        probe.set_flat(flat)
        loss, _ = task_loss_and_grad(probe.forward(X), T, "mse")
        return loss

    raw, cache = net.forward_cached(X)
    _, d_raw = task_loss_and_grad(raw, T, "mse")
    analytic = flat_grads(net, *net.backward(cache, d_raw))
    fd = fd_gradient(objective, net.get_flat())
    assert np.max(np.abs(analytic - fd)) < 1e-6 * (1.0 + np.max(np.abs(fd)))


@pytest.mark.parametrize(
    "activations",
    [
        ("identity",),
        ("relu", "identity"),
        ("identity", "square"),
        ("relu", "square", "identity"),
        ("square", "identity", "relu"),
    ],
)
def test_backward_matches_central_differences(activations):
    # relu preactivations stay clear of 0 at this seed, so differences are valid there
    sizes = (3,) + (4,) * (len(activations) - 1) + (2,)
    net = FeedForwardNet.create(sizes, activations=activations, seed=17, scale=0.7)
    X = np.random.default_rng(18).standard_normal((9, 3))
    T = np.random.default_rng(19).standard_normal((9, 2))
    _, (pre, _) = net.forward_cached(X)
    assert min(np.abs(z).min() for z in pre) > 1e-4

    def objective(flat):
        probe = net.clone()
        probe.set_flat(flat)
        return task_loss_and_grad(probe.forward(X), T, "mse")[0]

    raw, cache = net.forward_cached(X)
    analytic = flat_grads(net, *net.backward(cache, task_loss_and_grad(raw, T, "mse")[1]))
    fd = fd_gradient(objective, net.get_flat())
    assert np.max(np.abs(analytic - fd)) <= 1e-6 * np.max(np.abs(fd))


def test_train_stop_rule_waits_for_a_whole_window():
    # w -> 1 under heavy momentum overshoots: the loss dips under the
    # threshold, rises again, and only later stays under it
    def fresh():
        return FeedForwardNet([np.zeros((1, 1))], [np.zeros(1)], ("identity",))

    X = np.array([[1.0], [0.5], [-0.25]])
    cfg = TrainConfig(task="mse", n_steps=400, batch_size=3, step_size=0.5, momentum=0.9)
    losses = [r.task_loss for r in train(fresh(), X, X, cfg)]
    threshold, window = 1e-3, 12
    below = [loss < threshold for loss in losses]
    first = below.index(True)
    stop = next(s for s in range(window - 1, len(below)) if all(below[s - window + 1 : s + 1]))
    assert not all(below[first:stop])  # the first dip did not last

    log = train(fresh(), X, X, cfg, stop_below=(threshold, window))
    assert len(log) == stop + 1
    assert [r.task_loss for r in log] == losses[: stop + 1]
    # n_steps stays a cap, and a window of one stops on the first dip
    capped = replace(cfg, n_steps=stop)
    assert len(train(fresh(), X, X, capped, stop_below=(threshold, window))) == stop
    assert len(train(fresh(), X, X, cfg, stop_below=(threshold, 1))) == first + 1
    with pytest.raises(ValueError, match="stop window"):
        train(fresh(), X, X, cfg, stop_below=(threshold, 0))


def test_task_loss_perfect_fit():
    raw = np.array([[1.0, -2.0], [0.0, 3.0]])
    loss, grad = task_loss_and_grad(raw, raw.copy(), "mse")
    assert loss == 0.0
    assert np.all(grad == 0.0)


def test_cross_entropy_uniform_logits():
    raw = np.zeros((4, 5))
    targets = one_hot(np.array([0, 1, 2, 3]), 5)
    loss, _ = task_loss_and_grad(raw, targets, "cross_entropy")
    assert loss == pytest.approx(np.log(5.0), rel=1e-12)


def test_cross_entropy_grad_matches_fd():
    rng = np.random.default_rng(8)
    raw = rng.standard_normal((5, 3))
    targets = one_hot(rng.integers(0, 3, size=5), 3)

    def objective(flat):
        loss, _ = task_loss_and_grad(flat.reshape(5, 3), targets, "cross_entropy")
        return loss

    _, grad = task_loss_and_grad(raw, targets, "cross_entropy")
    fd = fd_gradient(objective, raw.ravel()).reshape(5, 3)
    assert np.max(np.abs(grad - fd)) < 1e-6
    with pytest.raises(ValueError):
        task_loss_and_grad(raw, targets[:, :2], "cross_entropy")
    with pytest.raises(ValueError):
        task_loss_and_grad(raw, targets, "hinge")


def test_lambda_schedule_shape():
    cfg = TrainConfig(n_steps=100, reg_strength=2.0, ramp_fraction=0.5)
    assert lambda_schedule(0, cfg) == 0.0
    assert lambda_schedule(50, cfg) == pytest.approx(2.0)
    assert lambda_schedule(99, cfg) == pytest.approx(2.0)
    vals = [lambda_schedule(s, cfg) for s in range(100)]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    assert lambda_schedule(10, TrainConfig(reg_strength=0.0)) == 0.0
    instant = TrainConfig(n_steps=100, reg_strength=1.5, ramp_fraction=0.0)
    assert lambda_schedule(0, instant) == 1.5


def test_unregularized_step_is_plain_descent():
    net = tiny_net(9)
    manual = net.clone()
    X = np.random.default_rng(10).standard_normal((6, 2))
    T = np.random.default_rng(11).standard_normal((6, 3))
    cfg = TrainConfig(task="mse", n_steps=1, batch_size=6, step_size=0.07, reg_strength=0.0)
    velocity = ([np.zeros_like(w) for w in net.weights], [np.zeros_like(b) for b in net.biases])
    record = regularized_step(net, X, T, cfg, 0, velocity)

    raw, cache = manual.forward_cached(X)
    loss, d_raw = task_loss_and_grad(raw, T, "mse")
    d_w, d_b = manual.backward(cache, d_raw)
    for l in range(len(manual.weights)):
        manual.weights[l] += -0.07 * d_w[l]
        manual.biases[l] += -0.07 * d_b[l]

    assert record.task_loss == loss
    assert record.penalty == 0.0
    assert record.lambda_eff == 0.0
    for l in range(len(net.weights)):
        assert np.array_equal(net.weights[l], manual.weights[l])
        assert np.array_equal(net.biases[l], manual.biases[l])


def test_momentum_accumulates_velocity():
    net = tiny_net(12)
    X = np.random.default_rng(13).standard_normal((5, 2))
    T = np.random.default_rng(14).standard_normal((5, 3))
    cfg = TrainConfig(task="mse", n_steps=2, batch_size=5, step_size=0.05,
                      momentum=0.9, reg_strength=0.0)
    velocity = ([np.zeros_like(w) for w in net.weights], [np.zeros_like(b) for b in net.biases])

    shadow = net.clone()
    raw, cache = shadow.forward_cached(X)
    _, d_raw = task_loss_and_grad(raw, T, "mse")
    g0_w, g0_b = shadow.backward(cache, d_raw)
    v1_w = [-0.05 * g for g in g0_w]
    for l in range(len(shadow.weights)):
        shadow.weights[l] += v1_w[l]
        shadow.biases[l] += -0.05 * g0_b[l]
    raw, cache = shadow.forward_cached(X)
    _, d_raw = task_loss_and_grad(raw, T, "mse")
    g1_w, _ = shadow.backward(cache, d_raw)

    regularized_step(net, X, T, cfg, 0, velocity)
    regularized_step(net, X, T, cfg, 1, velocity)
    want = 0.9 * v1_w[0] + (-0.05) * g1_w[0]
    assert np.allclose(velocity[0][0], want, atol=1e-15)


def test_zero_max_degree_penalty_has_zero_gradient():
    net = tiny_net(15)
    X = np.random.default_rng(16).standard_normal((6, 2))
    T = np.random.default_rng(17).standard_normal((6, 3))
    cfg = TrainConfig(
        task="mse", n_steps=1, batch_size=6, reg_strength=1.0,
        reg_paths=4, resolution=2, max_degree=0,
    )
    penalty, grads, _ = ed_penalty(net, X, T, cfg, 0)
    assert penalty == 0.0
    assert all(np.all(g == 0.0) for g in grads[0])
    assert all(np.all(g == 0.0) for g in grads[1])


def test_penalty_of_a_batch_of_equal_rows_is_zero():
    # the penalty plans its paths on the batch it fits, so a batch whose
    # every pair is degenerate drops every path, whatever another batch keeps
    net = tiny_net(45)
    X = np.random.default_rng(46).standard_normal((8, 2))
    T = np.zeros((8, 3))
    cfg = TrainConfig(reg_strength=1.0, reg_paths=4, resolution=5, max_degree=3, seed=47)
    assert ed_penalty(net, X, T, cfg, 0)[0] > 0.0
    penalty, grads, projections = ed_penalty(net, np.repeat(X[:1], 8, axis=0), T, cfg, 0)
    assert penalty == 0.0 and projections is None
    assert all(np.all(g == 0.0) for g in grads[0] + grads[1])


@pytest.mark.parametrize(
    "task,anchored,pca_dim",
    [
        ("mse", False, None),
        ("mse", True, None),
        ("mse", False, 1),
        ("cross_entropy", False, None),
        ("cross_entropy", True, 1),
        ("cross_entropy", False, 2),
    ],
)
def test_composite_gradient_matches_fd(task, anchored, pca_dim):
    net = tiny_net(18)
    rng = np.random.default_rng(19)
    X = rng.standard_normal((8, 2))
    if task == "cross_entropy":
        T = one_hot(rng.integers(0, 3, size=8), 3)
    else:
        T = rng.standard_normal((8, 3))
    cfg = TrainConfig(
        task=task, n_steps=1, batch_size=8, reg_strength=0.7, ramp_fraction=0.0,
        reg_paths=3, resolution=4, max_degree=3, anchored=anchored, pca_dim=pca_dim,
        seed=20,
    )
    lam = lambda_schedule(0, cfg)
    plans = plan_paths(X, cfg, 0)
    assert plans
    _, _, projections = ed_penalty(net, X, T, cfg, 0)

    def objective(flat):
        probe = net.clone()
        probe.set_flat(flat)
        loss, _ = task_loss_and_grad(probe.forward(X), T, cfg.task)
        pen, _, _ = ed_penalty(probe, X, T, cfg, 0, projections=projections)
        return loss + lam * pen

    raw, cache = net.forward_cached(X)
    _, d_raw = task_loss_and_grad(raw, T, cfg.task)
    d_w, d_b = net.backward(cache, d_raw)
    _, grads, _ = ed_penalty(net, X, T, cfg, 0, projections=projections)
    analytic = flat_grads(net, d_w, d_b) + lam * flat_grads(net, *grads)
    fd = fd_gradient(objective, net.get_flat())
    rel = np.max(np.abs(analytic - fd)) / (1.0 + np.max(np.abs(fd)))
    assert rel < 1e-3


def test_pca_penalty_gradient_holds_the_maps_constant():
    # with pca_dim the analytic gradient is that of ED(P_sg(y) y): it matches
    # central differences with the maps frozen, and on this cell misses the
    # differences of the live-map penalty by far more than their error
    net = tiny_net(4)
    rng = np.random.default_rng(4)
    X, T = rng.standard_normal((8, 2)), rng.standard_normal((8, 3))
    cfg = TrainConfig(
        task="mse", reg_strength=1.0, ramp_fraction=0.0, reg_paths=3,
        resolution=6, max_degree=3, pca_dim=1, seed=4,
    )
    _, (d_w, d_b), projections = composite_objective(net, X, T, cfg, 0)
    analytic = flat_grads(net, d_w, d_b)
    probe = net.clone()

    def objective(frozen):
        def total_loss(flat):
            probe.set_flat(flat)
            return composite_objective(probe, X, T, cfg, 0, projections=frozen)[0].total_loss
        return total_loss

    def rel(fd):
        return np.max(np.abs(analytic - fd)) / (1.0 + np.max(np.abs(fd)))

    assert rel(fd_gradient(objective(projections), net.get_flat())) < 1e-3
    assert rel(fd_gradient(objective(None), net.get_flat())) > 1e-2


def test_relu_rescaling_leaves_ed_invariant():
    # relu is positively homogeneous, so (s W1, s b1, W2 / s) computes the
    # same function and must measure the same effective degree
    from effdeg.estimator import EstimatorConfig, ed_estimate

    net = FeedForwardNet.create((2, 6, 2), activations=("relu", "identity"), seed=21)
    scaled = net.clone()
    s = 3.7
    scaled.weights[0] *= s
    scaled.biases[0] *= s
    scaled.weights[1] /= s
    X = np.random.default_rng(22).standard_normal((16, 2))
    cfg = EstimatorConfig(n_paths=12, resolution=5, max_degree=3, seed=23)
    a = ed_estimate(net.as_oracle(), X, cfg)
    b = ed_estimate(scaled.as_oracle(), X, cfg)
    assert a.mean_ed == pytest.approx(b.mean_ed, abs=1e-8)


def test_pure_penalty_descent_is_monotone():
    net = tiny_net(24, sizes=(2, 4, 2))
    X = np.random.default_rng(25).standard_normal((6, 2))
    T = np.zeros((6, 2))
    cfg = TrainConfig(
        task="mse", n_steps=1, batch_size=6, reg_strength=1.0,
        reg_paths=4, resolution=5, max_degree=3, seed=26,
    )
    _, _, projections = ed_penalty(net, X, T, cfg, 0)
    lr = 1e-3
    prev = np.inf
    for _ in range(100):
        pen, grads, _ = ed_penalty(net, X, T, cfg, 0, projections=projections)
        assert pen <= prev + 1e-10
        prev = pen
        for l in range(len(net.weights)):
            net.weights[l] -= lr * grads[0][l]
            net.biases[l] -= lr * grads[1][l]


def test_plan_paths_deterministic_and_degenerate():
    X = np.random.default_rng(27).standard_normal((9, 2))
    cfg = TrainConfig(reg_paths=5, seed=28)
    a = plan_paths(X, cfg, step=3)
    b = plan_paths(X, cfg, step=3)
    assert np.array_equal(a.i, b.i) and np.array_equal(a.j, b.j)
    assert np.array_equal(a.alphas, b.alphas)
    c = plan_paths(X, cfg, step=4)
    assert not (
        np.array_equal(a.i, c.i) and np.array_equal(a.j, c.j)
        and np.array_equal(a.alphas, c.alphas)
    )
    collapsed = np.tile([1.0, 2.0], (6, 1))
    empty = plan_paths(collapsed, cfg, step=0)
    assert len(empty) == 0 and empty.alphas.shape == (0, cfg.resolution)


def test_plan_paths_are_plan_path_at_step_keys():
    X = np.random.default_rng(30).standard_normal((9, 2))
    cfg = TrainConfig(reg_paths=6, resolution=5, anchored=True, seed=31)
    plans = plan_paths(X, cfg, step=7)
    assert len(plans) == 6
    assert plans.prefix == (1,) and plans.paths.tolist() == list(range(42, 48))
    for k, p in enumerate(plans.paths):  # each path replayed alone
        alone = estimator.plan_paths(X, cfg, (1,), 1, p)
        assert (alone.i[0], alone.j[0]) == (plans.i[k], plans.j[k])
        assert alone.alphas.tobytes() == plans.alphas[k].tobytes()


def test_penalty_path_replays_alone_after_a_redraw():
    # path p of step s is estimator.plan_paths' path s * reg_paths + p under
    # prefix (1,), field for field, normal systems included
    X = np.random.default_rng(32).standard_normal((4, 2))[[0, 1, 1, 2, 3, 3, 0]]
    cfg = TrainConfig(reg_paths=5, resolution=6, max_degree=4, anchored=True, seed=33)
    key = sampling.path_key(cfg.seed, (1,))
    redrawn = 0
    for step in range(12):
        plans = plan_paths(X, cfg, step)
        for k, q in enumerate(plans.paths.tolist()):
            assert step * 5 <= q < step * 5 + 5
            alone = estimator.plan_paths(X, cfg, (1,), 1, q)
            assert alone.prefix == plans.prefix == (1,) and alone.paths.tolist() == [q]
            assert alone.settings == plans.settings == cfg
            assert alone.key.tobytes() == plans.key.tobytes() == key.tobytes()
            assert (alone.i[0], alone.j[0]) == (plans.i[k], plans.j[k])
            assert alone.alphas.tobytes() == plans.alphas[k].tobytes()
            for name in ("design", "gram", "illposed"):
                want = getattr(alone.system, name)[0]
                assert getattr(plans.system, name)[k].tobytes() == want.tobytes()
            first = sampling.pair_draws(key, np.array([q]), len(X), 0)
            redrawn += first[0].tolist() != [plans.i[k], plans.j[k]]
    assert redrawn > 0


def test_penalty_plans_reject_steps_past_the_key_range():
    X = np.random.default_rng(34).standard_normal((6, 2))
    cfg = TrainConfig(reg_paths=4, seed=35)
    assert plan_paths(X, cfg, 2**30 - 1).paths.tolist() == list(range(2**32 - 4, 2**32))
    # a step that crosses 2**32 is cut short there; TrainConfig.validate keeps runs clear of it
    crossing = replace(cfg, reg_paths=3)
    assert plan_paths(X, crossing, (2**32 - 1) // 3).paths.tolist() == [2**32 - 1]
    for step, q in ((2**30, 2**32), (-1, -4)):
        named = rf"path key \(1, {q}\): path index {q} of unit {step} is outside"
        with pytest.raises(ValueError, match=named):
            plan_paths(X, cfg, step)


def _run_steps(net, X, T, cfg, n_steps):
    """Every step's record and objective gradients, then the parameters, as bytes."""
    velocity = ([np.zeros_like(w) for w in net.weights], [np.zeros_like(b) for b in net.biases])
    log = []
    for step in range(n_steps):
        _, (d_w, d_b), _ = composite_objective(net, X, T, cfg, step)
        record = regularized_step(net, X, T, cfg, step, velocity)
        log.append((record, [g.tobytes() for g in d_w + d_b]))
    return log, net.get_flat().tobytes()


@pytest.mark.parametrize("block_paths", [1, 3, 7])
def test_penalty_blocks_change_no_step(monkeypatch, block_paths):
    # capped at 1, 3 or 7 paths, a block holds no step (each is planned on its
    # own), one or three; cold cache or warm, training is unchanged
    X = np.random.default_rng(36).standard_normal((5, 2))[[0, 1, 2, 2, 3, 4, 4, 1, 0, 3]]
    T = one_hot(np.arange(10) % 3, 3)
    cfg = TrainConfig(
        task="cross_entropy", reg_strength=0.5, ramp_fraction=0.0, reg_paths=2,
        resolution=5, max_degree=3, anchored=True, pca_dim=1, seed=37, momentum=0.5,
    )

    def planned_alone(batch, config, step):
        paths = range(step * config.reg_paths, (step + 1) * config.reg_paths)
        return oracles.plan_paths(batch, config, (1,), paths)

    with monkeypatch.context() as patch:
        patch.setattr(nets, "plan_paths", planned_alone)
        want = _run_steps(tiny_net(38), X, T, cfg, 64)
    monkeypatch.setattr(estimator, "_BLOCK_ENTRIES", block_paths * 5 * 4)
    estimator.drawn_block.cache_clear()
    assert _run_steps(tiny_net(38), X, T, cfg, 64) == want  # cold
    assert _run_steps(tiny_net(38), X, T, cfg, 64) == want  # warm: the last block is cached
    estimator.drawn_block.cache_clear()


def test_penalty_plans_draw_once_per_block(monkeypatch):
    # at the benchmark's train-penalty settings a block holds the most whole
    # steps of 8 paths that fit the block rule: one path key and one design
    # matrix per block, none per step
    X, y = make_two_cluster_dataset(n=512, seed=39)
    cfg = TrainConfig(
        task="cross_entropy", batch_size=512, reg_strength=1.0, ramp_fraction=0.0,
        reg_paths=8, resolution=8, max_degree=5, anchored=True, seed=40,
    )
    calls = {"path_key": 0, "design_matrix": 0}

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted(sampling, "path_key")
    counted(surrogate, "design_matrix")
    estimator.drawn_block.cache_clear()
    for step in range(100):
        assert len(plan_paths(X, cfg, step)) == 8
    estimator.drawn_block.cache_clear()
    steps = estimator._BLOCK_ENTRIES // (8 * 8 * 6)  # 42 at 1 << 14 entries
    assert 1 < steps < 100
    blocks = -(-100 // steps)
    assert calls == {"path_key": blocks, "design_matrix": blocks}


def test_train_logs_accuracy_only_for_classification():
    X, y = make_two_cluster_dataset(n=32, seed=29)
    T = one_hot(y, 2)
    net = FeedForwardNet.create((2, 8, 2), seed=30)
    cfg = TrainConfig(task="cross_entropy", n_steps=5, batch_size=16, step_size=0.1, seed=31)
    log = train(net, X, T, cfg)
    assert len(log) == 5
    assert all(isinstance(r, StepRecord) and r.accuracy is not None for r in log)
    assert all(0.0 <= r.accuracy <= 1.0 for r in log)

    reg_net = FeedForwardNet.create((2, 8, 1), seed=32)
    Y = X[:, :1] * X[:, 1:]
    mse_log = train(reg_net, X, Y, TrainConfig(task="mse", n_steps=3, batch_size=16, seed=33))
    assert all(r.accuracy is None for r in mse_log)


def test_train_validates_shapes():
    net = tiny_net(34)
    X = np.zeros((4, 2))
    with pytest.raises(ValueError):
        train(net, X, np.zeros((5, 3)), TrainConfig(n_steps=1, batch_size=2))
    with pytest.raises(ValueError):
        train(net, X, np.zeros((4, 3)), TrainConfig(n_steps=1, batch_size=8))


@pytest.mark.parametrize(
    "name, bad, row", [("inputs", np.nan, 3), ("targets", np.inf, 1), ("targets", np.nan, 0)]
)
def test_non_finite_training_rows_raise_naming_the_first_such_row(name, bad, row, monkeypatch):
    # checked once at entry: a NaN input row would otherwise surface as a
    # non-finite loss at step 0, after warnings from backward
    net = tiny_net(39)
    rng = np.random.default_rng(40)
    arrays = {"inputs": rng.standard_normal((6, 2)), "targets": np.ones((6, 3))}
    arrays[name][[row, 5], -1] = bad
    before = net.get_flat()
    monkeypatch.setattr(nets, "regularized_step", None)  # no step may run
    cfg = TrainConfig(task="mse", n_steps=2, batch_size=6)
    with pytest.raises(ValueError, match=f"^{name} row {row} is not finite$"):
        train(net, arrays["inputs"], arrays["targets"], cfg)
    assert np.array_equal(net.get_flat(), before)


def test_nonfinite_loss_raises_before_update():
    net = tiny_net(35, activations=("square", "square"))
    X = np.random.default_rng(36).standard_normal((8, 2)) * 3.0
    T = np.random.default_rng(37).standard_normal((8, 3))
    cfg = TrainConfig(task="mse", n_steps=50, batch_size=8, step_size=50.0, seed=38)
    before = net.get_flat()
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NonFiniteLossError):
            train(net.clone(), X, T, cfg)
    assert np.array_equal(net.get_flat(), before)


def test_train_config_validation():
    for bad in (
        TrainConfig(task="hinge"),
        TrainConfig(n_steps=0),
        TrainConfig(batch_size=1),
        TrainConfig(step_size=0.0),
        TrainConfig(momentum=1.0),
        TrainConfig(reg_strength=-0.1),
        TrainConfig(ramp_fraction=1.5),
        TrainConfig(reg_paths=-1),
        TrainConfig(resolution=2, max_degree=3),
    ):
        with pytest.raises(ValueError):
            bad.validate()
    TrainConfig(reg_paths=2**32).validate()
    for key, value in (
        ("step_size", float("nan")),
        ("reg_strength", float("nan")),
        ("damping", float("nan")),
        ("reg_paths", 0),
        ("reg_paths", 2**32 + 1),
    ):
        with pytest.raises(ValueError, match=key):
            TrainConfig(**{key: value}).validate()


@pytest.mark.parametrize(
    "setting,value",
    [("width", 0), ("n_train", 1), ("n_steps", 0), ("n_eval", 1), ("mse_target", -1.0),
     ("mse_target", 0.0), ("mse_target", float("nan"))],
)
def test_pnn_study_checks_its_arguments_before_training(monkeypatch, setting, value):
    def no_training(*args):
        raise AssertionError("pnn_study trained before checking its arguments")

    monkeypatch.setattr(nets, "_train_pnn_task", no_training)
    with pytest.raises(ValueError, match=setting):
        nets.pnn_study(**{setting: value})


@pytest.mark.parametrize("seed", [0, 5])
def test_pnn_study_rows_equal_the_tasks_run_in_process(seed):
    # the workers' rows, bit for bit, whatever process or order ran them
    report = nets.pnn_study(seed=seed, width=4, n_train=64, n_steps=30, n_eval=8)
    expected = [nets._study_row(k, seed, 4, 64, 30, 8, 1e-4) for k in range(6)]
    assert len(report.rows) == len(expected)
    for got, want in zip(report.rows, expected):
        assert got == want


def test_pnn_study_leaves_no_worker_behind(monkeypatch):
    small = dict(width=4, n_train=16, n_steps=5, n_eval=8)
    nets.pnn_study(**small)
    assert multiprocessing.active_children() == []
    # tasks 1 and 5 diverge on every rung in the forked workers; task 5
    # starts first, but the serial order names task 1
    train_task = nets._train_pnn_task

    def diverging(fn, seed, task_index, *args):
        if task_index in (1, 5):
            raise TrainingFailure(f"task {task_index}: every restart diverged")
        return train_task(fn, seed, task_index, *args)

    monkeypatch.setattr(nets, "_train_pnn_task", diverging)
    with pytest.raises(TrainingFailure, match=r"^task 1: every restart diverged$"):
        nets.pnn_study(**small)
    assert multiprocessing.active_children() == []


def test_checkpoint_round_trip_and_stability(tmp_path):
    net = tiny_net(39)
    path = str(tmp_path / "model.ckpt")
    save_checkpoint(net, path, config={"step_size": 0.05})
    loaded, header = load_checkpoint(path)
    for l in range(len(net.weights)):
        assert net.weights[l].tobytes() == loaded.weights[l].tobytes()
        assert net.biases[l].tobytes() == loaded.biases[l].tobytes()
    assert loaded.activations == net.activations
    assert header["config"] == {"step_size": 0.05}
    assert header["extra"] == {}
    assert tuple(header["layer_sizes"]) == net.layer_sizes

    other = str(tmp_path / "model2.ckpt")
    save_checkpoint(net, other, config={"step_size": 0.05})
    with open(path, "rb") as fa, open(other, "rb") as fb:
        assert fa.read() == fb.read()


def checkpoint_blob(header, payload):
    blob = json.dumps(header).encode()
    return b"EDNETCK1" + len(blob).to_bytes(8, "little") + blob + payload


def mistyped_checkpoint_headers(header):
    """Five variants of a valid checkpoint header, each with one value of the wrong type."""
    w, b = header["arrays"]
    return {
        "shape a string": {**header, "arrays": [{**w, "shape": "2,3"}, b]},
        "array with no name": {**header, "arrays": [{"shape": w["shape"]}, b]},
        "arrays a number": {**header, "arrays": 5},
        "layer_sizes a number": {**header, "layer_sizes": 3},
        "activations a number": {**header, "activations": 7},
    }


def foreign_size_checkpoints(header):
    """(header, payload) of checkpoints whose layer_sizes do not describe their arrays."""
    return {
        "no layers": ({**header, "layer_sizes": [2], "arrays": [], "activations": []}, b""),
        "layer_sizes past the arrays": (
            {**header, "layer_sizes": [2, 9]}, np.arange(9.0).astype("<f8").tobytes()
        ),
    }


def test_checkpoint_rejects_foreign_file(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"PNGJUNK" + b"\x00" * 64)
    with pytest.raises(ValueError):
        load_checkpoint(str(path))

    # malformed checkpoints: each raises ValueError naming the file
    good = str(tmp_path / "good.ckpt")
    save_checkpoint(tiny_net(40, activations=("identity",), sizes=(2, 3)), good)
    _, header = load_checkpoint(good)
    payload = np.arange(9.0).astype("<f8").tobytes()
    bad = {
        **{
            f"no {key}": checkpoint_blob({k: v for k, v in header.items() if k != key}, payload)
            for key in ("arrays", "layer_sizes", "activations")
        },
        "header past the end": b"EDNETCK1" + (1 << 20).to_bytes(8, "little") + b"{}",
        "short length word": b"EDNETCK1\x05",
        "header not an object": checkpoint_blob([1, 2], b""),
        "payload short": checkpoint_blob(header, payload[:-8]),
        "payload long": checkpoint_blob(header, payload + b"\x00" * 8),
        "array missing": checkpoint_blob({**header, "arrays": header["arrays"][:1]}, payload[:48]),
        **{
            label: checkpoint_blob(mistyped, payload)
            for label, mistyped in mistyped_checkpoint_headers(header).items()
        },
        "activation unknown": checkpoint_blob({**header, "activations": ["tanh"]}, payload),
        "weight not 2-D": checkpoint_blob(
            {**header, "arrays": [{"name": "w0", "shape": [6]}, header["arrays"][1]]}, payload
        ),
        **{
            label: checkpoint_blob(*foreign)
            for label, foreign in foreign_size_checkpoints(header).items()
        },
    }
    path = tmp_path / "bad.ckpt"
    path.write_bytes(checkpoint_blob(header, payload))
    loaded, _ = load_checkpoint(str(path))  # the unaltered header and payload load
    assert loaded.weights[0].ravel().tolist() == list(range(6))
    for blob in bad.values():
        path.write_bytes(blob)
        with pytest.raises(ValueError, match="bad.ckpt"):
            load_checkpoint(str(path))


def test_one_hot_and_accuracy():
    labels = np.array([0, 2, 1])
    enc = one_hot(labels, 3)
    assert np.array_equal(enc, np.array([[1, 0, 0], [0, 0, 1], [0, 1, 0]], dtype=float))
    net = FeedForwardNet([np.eye(2)], [np.zeros(2)], ("identity",))
    X = np.array([[2.0, 1.0], [0.0, 3.0], [5.0, -1.0]])
    assert accuracy(net, X, np.array([0, 1, 0])) == 1.0
    assert accuracy(net, X, np.array([1, 1, 0])) == pytest.approx(2.0 / 3.0)


def test_two_cluster_dataset():
    X, y = make_two_cluster_dataset(n=512, seed=7)
    assert X.shape == (512, 2) and y.shape == (512,)
    assert set(np.unique(y)) == {0, 1}
    assert abs(int((y == 0).sum()) - 256) <= 0
    X2, y2 = make_two_cluster_dataset(n=512, seed=7)
    assert np.array_equal(X, X2) and np.array_equal(y, y2)
    with pytest.raises(ValueError):
        make_two_cluster_dataset(n=3)


def test_pnn_architecture():
    net = build_pnn(width=16, seed=0)
    assert net.layer_sizes == (3, 16, 16, 16, 3)
    assert net.activations == ("square", "square", "square", "identity")


def test_pnn_tasks_scale_pairs():
    X = np.random.default_rng(40).uniform(-1.0, 1.0, size=(50, 3))
    degrees = [deg for _, _, deg in PNN_TASKS]
    assert degrees == [1, 2, 5, 1, 2, 5]
    for k in range(3):
        base = PNN_TASKS[k][1](X)
        doubled = PNN_TASKS[k + 3][1](X)
        assert np.allclose(doubled, 2.0 * base, atol=1e-13)


def test_pnn_ladder_trains_seed_3_t4():
    # t4 at seed 3 diverges on the first five rungs; the last one fits it
    mse, net, restarts, steps = nets._train_pnn_task(
        PNN_TASKS[3][1], seed=3, task_index=3, width=16, n_train=512, n_steps=3000,
        mse_target=1e-4,
    )
    assert restarts == 5
    assert mse < 1e-4
    assert 200 <= steps <= 3000
    # the reported mse is the returned net's, not the loss before the last update
    X = sampling.rng(3, 3, 0).uniform(-1.0, 1.0, size=(512, 3))
    assert mse == np.mean((net.forward(X) - PNN_TASKS[3][1](X)) ** 2)


def test_composite_step_runs_one_backward_for_the_penalty(monkeypatch):
    # one backward for the task loss and one for every penalty path together
    calls = []
    backward = FeedForwardNet.backward
    monkeypatch.setattr(
        FeedForwardNet, "backward", lambda self, *args: calls.append(1) or backward(self, *args)
    )
    net = tiny_net(12)
    X = np.random.default_rng(13).standard_normal((16, 2))
    T = np.random.default_rng(14).standard_normal((16, 3))
    cfg = TrainConfig(reg_strength=1.0, ramp_fraction=0.0, reg_paths=8, seed=15)
    assert len(plan_paths(X, cfg, step=0)) == 8
    record, _, _ = composite_objective(net, X, T, cfg, step=0)
    assert record.penalty > 0.0 and record.lambda_eff == 1.0
    assert len(calls) == 2


@pytest.mark.parametrize("anchored,pca_dim", [(False, None), (True, None), (True, 1)])
@pytest.mark.parametrize("step", [0, 3, 20])
def test_composite_objective_is_task_loss_plus_lambda_penalty(step, anchored, pca_dim):
    # the penalty runs on plan_paths(batch, config, step); at step 0 lambda
    # is 0, so the penalty is reported but adds no gradient
    net = tiny_net(42)
    rng = np.random.default_rng(43)
    X = rng.standard_normal((16, 2))
    T = one_hot(rng.integers(0, 3, size=16), 3)
    cfg = TrainConfig(
        task="cross_entropy", n_steps=20, reg_strength=0.8, ramp_fraction=0.5,
        reg_paths=4, resolution=5, max_degree=3, anchored=anchored, pca_dim=pca_dim, seed=44,
    )
    record, (d_w, d_b), projections = composite_objective(net, X, T, cfg, step)
    raw, cache = net.forward_cached(X)
    task_loss, d_raw = task_loss_and_grad(raw, T, cfg.task)
    task_w, task_b = net.backward(cache, d_raw)
    lam = lambda_schedule(step, cfg)
    penalty, (pen_w, pen_b), want = ed_penalty(net, X, T, cfg, step)
    assert (step == 0) == (lam == 0.0)
    assert record == StepRecord(step, task_loss, penalty, lam, task_loss + lam * penalty)
    for got, g, pg in zip(d_w + d_b, task_w + task_b, pen_w + pen_b):
        assert got.tobytes() == (g + lam * pg if lam > 0.0 else g).tobytes()
    assert (projections is None) == (want is None)
    if want is not None:
        assert projections.components.tobytes() == want.components.tobytes()


def test_penalty_nonfinite_output_names_the_path():
    # a NaN output bias poisons every path; the first planned one is named by its key
    net = tiny_net(39)
    net.biases[-1][1] = np.nan
    X = np.random.default_rng(40).standard_normal((8, 2))
    T = np.zeros((8, 3))
    cfg = TrainConfig(reg_strength=1.0, reg_paths=3, resolution=4, max_degree=3, seed=41)
    plans = plan_paths(X, cfg, step=2)
    with pytest.raises(NonFiniteOutputError) as err:
        ed_penalty(net, X, T, cfg, 2)
    assert str(err.value) == (
        f"non-finite output on path 1:{plans.paths[0]} "
        f"(endpoint rows {plans.i[0]} and {plans.j[0]})"
    )


def test_gradcheck_audits_the_train_commands_default_cell():
    # the train command trains cross-entropy without anchoring by default;
    # the audit draws that cell, and every cell holds its tolerance
    report = nets.gradcheck(8, seed=0)
    cells = {(cell["task"], cell["anchored"]) for cell in report["cells"]}
    assert ("cross_entropy", False) in cells
    assert report["ok"] and report["n_checks"] == 8 and report["tolerance"] == 1e-3
    assert all(cell["rel_err"] < 1e-3 for cell in report["cells"])
