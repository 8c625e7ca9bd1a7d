"""Network engine: forward/backward, composite objective, checkpoints, study scaffolding.

Gradient checks run on square-activation nets because central differences
are only trustworthy on smooth objectives; relu paths are covered by exact
identities instead.
"""

import numpy as np
import pytest

from effdeg.estimator import NonFiniteOutputError, plan_path
from effdeg.net import (
    ACTIVATIONS,
    FeedForwardNet,
    NonFiniteLossError,
    PNN_TASKS,
    StepRecord,
    TrainConfig,
    accuracy,
    build_pnn,
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
    plans = plan_paths(X, cfg, 0)
    penalty, grads, _ = ed_penalty(net, X, T, plans, cfg)
    assert penalty == 0.0
    assert all(np.all(g == 0.0) for g in grads[0])
    assert all(np.all(g == 0.0) for g in grads[1])


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
    _, _, projections = ed_penalty(net, X, T, plans, cfg, want_grads=False)

    def objective(flat):
        probe = net.clone()
        probe.set_flat(flat)
        loss, _ = task_loss_and_grad(probe.forward(X), T, cfg.task)
        pen, _, _ = ed_penalty(
            probe, X, T, plans, cfg, want_grads=False, projections=projections
        )
        return loss + lam * pen

    raw, cache = net.forward_cached(X)
    _, d_raw = task_loss_and_grad(raw, T, cfg.task)
    d_w, d_b = net.backward(cache, d_raw)
    _, grads, _ = ed_penalty(net, X, T, plans, cfg, projections=projections)
    analytic = flat_grads(net, d_w, d_b) + lam * flat_grads(net, *grads)
    fd = fd_gradient(objective, net.get_flat())
    rel = np.max(np.abs(analytic - fd)) / (1.0 + np.max(np.abs(fd)))
    assert rel < 1e-3


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
    plans = plan_paths(X, cfg, 0)
    _, _, projections = ed_penalty(net, X, T, plans, cfg, want_grads=False)
    lr = 1e-3
    prev = np.inf
    for _ in range(100):
        pen, grads, _ = ed_penalty(net, X, T, plans, cfg, projections=projections)
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
    assert [(p.i, p.j) for p in a] == [(p.i, p.j) for p in b]
    assert all(
        np.array_equal(x.abscissas.alphas, y.abscissas.alphas) for x, y in zip(a, b)
    )
    c = plan_paths(X, cfg, step=4)
    assert [(p.i, p.j) for p in a] != [(p.i, p.j) for p in c] or any(
        not np.array_equal(x.abscissas.alphas, y.abscissas.alphas)
        for x, y in zip(a, c)
    )
    collapsed = np.tile([1.0, 2.0], (6, 1))
    assert plan_paths(collapsed, cfg, step=0) == []


def test_plan_paths_are_plan_path_at_step_keys():
    X = np.random.default_rng(30).standard_normal((9, 2))
    cfg = TrainConfig(reg_paths=6, resolution=5, anchored=True, seed=31)
    plans = plan_paths(X, cfg, step=7)
    want = [
        plan_path(X, cfg.seed, (7, 1, p), cfg.scheme, cfg.resolution, cfg.anchored)
        for p in range(cfg.reg_paths)
    ]
    assert len(plans) == len(want) == 6
    for got, exp in zip(plans, want):
        assert (got.i, got.j, got.abscissas.seed) == (exp.i, exp.j, exp.abscissas.seed)
        assert got.abscissas.alphas.tobytes() == exp.abscissas.alphas.tobytes()


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


def test_checkpoint_round_trip_and_stability(tmp_path):
    net = tiny_net(39)
    path = str(tmp_path / "model.ckpt")
    save_checkpoint(net, path, config={"step_size": 0.05}, extra={"note": "fit"})
    loaded, header = load_checkpoint(path)
    for l in range(len(net.weights)):
        assert net.weights[l].tobytes() == loaded.weights[l].tobytes()
        assert net.biases[l].tobytes() == loaded.biases[l].tobytes()
    assert loaded.activations == net.activations
    assert header["config"] == {"step_size": 0.05}
    assert header["extra"] == {"note": "fit"}
    assert tuple(header["layer_sizes"]) == net.layer_sizes

    other = str(tmp_path / "model2.ckpt")
    save_checkpoint(net, other, config={"step_size": 0.05}, extra={"note": "fit"})
    with open(path, "rb") as fa, open(other, "rb") as fb:
        assert fa.read() == fb.read()


def test_checkpoint_rejects_foreign_file(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"PNGJUNK" + b"\x00" * 64)
    with pytest.raises(ValueError):
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


def test_penalty_nonfinite_output_names_the_path():
    # a NaN output bias poisons every path; the first planned one is named by its key
    net = tiny_net(39)
    net.biases[-1][1] = np.nan
    X = np.random.default_rng(40).standard_normal((8, 2))
    T = np.zeros((8, 3))
    cfg = TrainConfig(reg_strength=1.0, reg_paths=3, resolution=4, max_degree=3, seed=41)
    plans = plan_paths(X, cfg, step=2)
    with pytest.raises(NonFiniteOutputError) as err:
        ed_penalty(net, X, T, plans, cfg)
    first = plans[0]
    assert str(err.value) == (
        f"non-finite output on path 2:1:{first.key[-1]} "
        f"(endpoint rows {first.i} and {first.j})"
    )
