"""Acceptance gate: one test per shipped guarantee, one report line each.

Run with `pytest tests/test_acceptance.py -v -s` to see every line; under
default capture the lines surface for failing tests only.  Each test prints

    [acceptance k/8] name: PASS|FAIL (key numbers; elapsed / budget)

before asserting, so a red run still shows the measured values.
"""

import hashlib
import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from effdeg.basis import design_matrix
from effdeg.cli import EXIT_OK, canonical_hash, main
from effdeg.estimator import EstimatorConfig, ed_estimate
from effdeg.net import (
    FeedForwardNet,
    TrainConfig,
    accuracy,
    ed_penalty,
    lambda_schedule,
    make_two_cluster_dataset,
    one_hot,
    plan_paths,
    pnn_study,
    task_loss_and_grad,
    train,
)
from effdeg.polylab import (
    dyadic_uniform_pair_sampler,
    parse_poly_bundle,
    random_multipoly,
    shared_coordinate_pair_sampler,
    verify_order_preservation,
)
from effdeg.sampling import chebyshev_nodes, sample_abscissas, uniform_nodes
from effdeg.surrogate import ed_from_coefficients, normal_system, solve_system
from oracles import fd_gradient

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN_HASHES = FIXTURES / "golden_hashes.json"


def _report(index, name, ok, detail, elapsed, budget):
    status = "PASS" if ok else "FAIL"
    bound = f"{budget:.0f}s budget" if budget is not None else "no time budget"
    print(f"\n[acceptance {index}/8] {name}: {status} ({detail}; {elapsed:.2f}s, {bound})")


def test_1_exact_surrogate_recovery():
    t0 = time.perf_counter()
    worst_unit = 0.0
    worst_cross = 0.0
    for basis in ("chebyshev", "legendre"):
        for max_degree in range(15):
            nodes = chebyshev_nodes(max_degree + 1)
            table = design_matrix(basis, nodes, max_degree)
            for j in range(max_degree + 1):
                system = normal_system(nodes, max_degree, damping=0.0, basis=basis)
                coeffs = solve_system(system, table[:, [j]])[0][:, 0]
                worst_unit = max(worst_unit, abs(coeffs[j] - 1.0))
                rest = np.delete(coeffs, j)
                if rest.size:
                    worst_cross = max(worst_cross, float(np.max(np.abs(rest))))
    elapsed = time.perf_counter() - t0
    ok = worst_unit < 1e-9 and worst_cross < 1e-9 and elapsed < 1.0
    _report(
        1,
        "exact surrogate recovery",
        ok,
        f"240 undamped fits, max |c_j - 1| {worst_unit:.2e}, max off-target {worst_cross:.2e}",
        elapsed,
        1.0,
    )
    assert worst_unit < 1e-9
    assert worst_cross < 1e-9
    assert elapsed < 1.0


def test_2_ed_gradient_fidelity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    checked = 0
    attempts = 0
    worst = 0.0
    while checked < 120 and attempts < 2000:
        attempts += 1
        r = int(rng.integers(4, 16))
        max_degree = int(rng.integers(3, min(14, r - 1) + 1))
        damping = 1e-6 if attempts % 2 else 1e-3
        basis = "chebyshev" if rng.integers(0, 2) else "legendre"
        scheme = "chebyshev_fixed" if rng.integers(0, 2) else "randomized_cosine"
        abscissas = sample_abscissas(scheme, r, uniforms=rng.random(r))
        y = rng.standard_normal(r)
        system = normal_system(abscissas, max_degree, damping, basis)
        coeffs, grad = solve_system(system, y[:, None], with_gradient=True)
        # stay clear of the |c_k| = 0 kinks so central differences are valid
        if float(np.min(np.abs(coeffs))) <= 1e-5:
            continue
        analytic = grad[:, 0]

        def ed_of(values, system=system):
            return ed_from_coefficients(solve_system(system, values[:, None])[0][:, 0])[0]

        numeric = fd_gradient(ed_of, y)
        rel = float(np.max(np.abs(analytic - numeric)) / (1.0 + np.max(np.abs(numeric))))
        worst = max(worst, rel)
        checked += 1
    elapsed = time.perf_counter() - t0
    ok = checked >= 100 and worst < 1e-4 and elapsed < 30.0
    _report(
        2,
        "ED gradient vs finite differences",
        ok,
        f"{checked} configs (all |c_k| > 1e-5), worst rel err {worst:.2e}",
        elapsed,
        30.0,
    )
    assert checked >= 100
    assert worst < 1e-4
    assert elapsed < 30.0


def _flat_like(net, d_weights, d_biases):
    parts = []
    for layer in range(len(net.weights)):
        parts.append(np.asarray(d_weights[layer]).ravel())
        parts.append(np.asarray(d_biases[layer]).ravel())
    return np.concatenate(parts)


def test_3_composite_objective_gradient():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    checked = 0
    attempts = 0
    worst = 0.0
    while checked < 20 and attempts < 200:
        attempts += 1
        hidden = [int(rng.integers(3, 7)) for _ in range(int(rng.integers(1, 3)))]
        sizes = [2, *hidden, 3]
        activations = ["square"] * len(hidden) + ["identity"]
        net = FeedForwardNet.create(
            sizes, activations=activations, seed=int(rng.integers(2**32)), scale=0.6
        )
        anchored = bool(rng.integers(0, 2))
        task = "cross_entropy" if anchored or rng.integers(0, 2) else "mse"
        pca_dim = int(rng.integers(1, 3)) if rng.integers(0, 2) else None
        cfg = TrainConfig(
            task=task,
            n_steps=1,
            batch_size=8,
            reg_strength=float(rng.choice((0.5, 1.0))),
            ramp_fraction=0.0,
            reg_paths=3,
            resolution=int(rng.integers(4, 7)),
            max_degree=3,
            damping=1e-6,
            scheme="randomized_cosine",
            pca_dim=pca_dim,
            anchored=anchored,
            seed=int(rng.integers(2**32)),
        )
        X = rng.standard_normal((8, 2))
        if task == "cross_entropy":
            T = one_hot(rng.integers(0, 3, size=8), 3)
        else:
            T = rng.standard_normal((8, 3))
        plans = plan_paths(X, cfg, 0)
        if len(plans) < cfg.reg_paths:
            continue
        lam = lambda_schedule(0, cfg)
        _, _, projections = ed_penalty(net, X, T, cfg, 0)

        def objective(flat, probe_net=net, X=X, T=T, cfg=cfg, lam=lam,
                      projections=projections):
            probe = probe_net.clone()
            probe.set_flat(flat)
            loss, _ = task_loss_and_grad(probe.forward(X), T, cfg.task)
            penalty, _, _ = ed_penalty(probe, X, T, cfg, 0, projections=projections)
            return loss + lam * penalty

        raw, cache = net.forward_cached(X)
        _, d_raw = task_loss_and_grad(raw, T, cfg.task)
        d_w, d_b = net.backward(cache, d_raw)
        _, grads, _ = ed_penalty(net, X, T, cfg, 0, projections=projections)
        analytic = _flat_like(net, d_w, d_b) + lam * _flat_like(net, *grads)
        numeric = fd_gradient(objective, net.get_flat())
        rel = float(np.max(np.abs(analytic - numeric)) / (1.0 + np.max(np.abs(numeric))))
        worst = max(worst, rel)
        checked += 1
    elapsed = time.perf_counter() - t0
    ok = checked >= 20 and worst < 1e-3 and elapsed < 120.0
    _report(
        3,
        "composite objective gradient",
        ok,
        f"{checked} square-net configs over task/anchoring/PCA, worst rel err {worst:.2e}",
        elapsed,
        120.0,
    )
    assert checked >= 20
    assert worst < 1e-3
    assert elapsed < 120.0


def test_4_degree_preservation_at_scale():
    t0 = time.perf_counter()
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(2026)))
    failures = []
    for trial in range(20):
        dim = int(rng.integers(3, 7))
        deg_low = int(rng.integers(1, 6))
        deg_high = int(rng.integers(deg_low + 1, 7))
        poly_a = random_multipoly(dim, deg_high, rng, n_terms=8)
        poly_b = random_multipoly(dim, deg_low, rng, n_terms=8)
        record = verify_order_preservation(
            poly_a, poly_b, 1000, dyadic_uniform_pair_sampler(dim), seed=trial
        )
        good = (
            record.drop_counts == (0, 0)
            and record.mean_degrees == (float(deg_high), float(deg_low))
            and record.ordered
        )
        if not good:
            failures.append((trial, dim, deg_high, deg_low, record.summary()))
    bundle = parse_poly_bundle(
        (FIXTURES / "hyperplane.txt").read_text(encoding="utf-8")
    )
    forced = verify_order_preservation(
        bundle[1], bundle[0], 200, shared_coordinate_pair_sampler(2), seed=0
    )
    forced_ok = forced.drop_counts == (200, 200)
    elapsed = time.perf_counter() - t0
    ok = not failures and forced_ok and elapsed < 300.0
    _report(
        4,
        "exact degree preservation",
        ok,
        f"20 pairs x 1000 dyadic endpoints: {len(failures)} bad trials; "
        f"forced-drop fixture {forced.drop_counts[0]}/200 and {forced.drop_counts[1]}/200",
        elapsed,
        300.0,
    )
    assert not failures, failures
    assert forced_ok, forced.summary()
    assert elapsed < 300.0


def test_5_square_net_study_orderings():
    t0 = time.perf_counter()
    report = pnn_study(seed=0)
    elapsed = time.perf_counter() - t0
    ordering_ok = all(
        flag for column in report.orderings.values() for flag in column.values()
    )
    gaps_ok = all(gap < 0.15 for gap in report.norm_gaps.values())
    ok = (
        report.all_converged
        and ordering_ok
        and gaps_ok
        and report.scaling_ok
        and report.all_ok
        and elapsed < 600.0
    )
    eds = ", ".join(f"{row.task}={row.ed_cheb:.2f}" for row in report.rows)
    _report(
        5,
        "six-target square-net study",
        ok,
        f"orderings {ordering_ok}, norm gaps {max(report.norm_gaps.values()):.3f} max, "
        f"scaling {report.scaling_ok}, {eds}",
        elapsed,
        600.0,
    )
    assert report.all_converged
    assert ordering_ok, report.orderings
    assert gaps_ok, report.norm_gaps
    assert report.scaling_ok
    assert report.all_ok
    assert elapsed < 600.0


def test_6_chebyshev_node_conditioning():
    t0 = time.perf_counter()
    cheb = np.linalg.cond(design_matrix("chebyshev", chebyshev_nodes(15), 14))
    unif = np.linalg.cond(design_matrix("chebyshev", uniform_nodes(15), 14))
    ratio = unif / cheb
    elapsed = time.perf_counter() - t0
    ok = cheb < unif and ratio > 10.0 and elapsed < 1.0
    _report(
        6,
        "node conditioning",
        ok,
        f"cond {cheb:.3g} at clustered nodes vs {unif:.3g} uniform, ratio {ratio:.1f}",
        elapsed,
        1.0,
    )
    assert cheb < unif
    assert ratio > 10.0
    assert elapsed < 1.0


def test_7_regularization_shrinks_measured_ed():
    t0 = time.perf_counter()
    X, y = make_two_cluster_dataset()
    targets = one_hot(y, 2)
    measure = EstimatorConfig(
        n_paths=512,
        resolution=4,
        max_degree=3,
        damping=1e-6,
        basis="chebyshev",
        scheme="chebyshev_fixed",
        anchored=False,
        post_softmax=True,
        seed=123,
    )

    def run(reg_strength):
        net = FeedForwardNet.create(
            [2, 16, 16, 2], activations=["relu", "relu", "identity"], seed=11
        )
        cfg = TrainConfig(
            task="cross_entropy",
            n_steps=2000,
            batch_size=512,
            step_size=0.05,
            momentum=0.9,
            reg_strength=reg_strength,
            ramp_fraction=0.3,
            reg_paths=8,
            resolution=4,
            max_degree=3,
            damping=1e-6,
            scheme="randomized_cosine",
            anchored=reg_strength > 0,
            seed=3,
        )
        train(net, X, targets, cfg)
        return accuracy(net, X, y), ed_estimate(net.as_oracle(), X, measure).mean_ed

    acc_base, ed_base = run(0.0)
    acc_reg, ed_reg = run(1.0)
    drop = 1.0 - ed_reg / ed_base
    elapsed = time.perf_counter() - t0
    ok = drop >= 0.20 and acc_reg >= 0.95 and acc_base >= 0.95 and elapsed < 300.0
    _report(
        7,
        "penalty shrinks measured ED",
        ok,
        f"ED {ed_base:.3f} -> {ed_reg:.3f} ({drop:+.1%}), train acc "
        f"{acc_base:.1%} -> {acc_reg:.1%}",
        elapsed,
        300.0,
    )
    assert drop >= 0.20
    assert acc_reg >= 0.95
    assert acc_base >= 0.95
    assert elapsed < 300.0


def _run_twice(tmp_path, label, argv_tail):
    """Run one command twice; returns (both runs equal, the first run's digests).

    A JSON artifact's digest is its canonical_sha256, any other file's the
    sha256 of its bytes.
    """
    digests = []
    for attempt in range(2):
        out = tmp_path / f"{label}-{attempt}"
        code = main(argv_tail + ["--out", str(out)])
        assert code == EXIT_OK, f"{label} run {attempt} exited {code}"
        record = {}
        for artifact in sorted(os.listdir(out)):
            payload = (out / artifact).read_bytes()
            if artifact.endswith(".json"):
                doc = json.loads(payload)
                assert doc["canonical_sha256"] == canonical_hash(doc)
                record[artifact] = doc["canonical_sha256"]
            else:
                record[artifact] = hashlib.sha256(payload).hexdigest()
        digests.append(record)
    return digests[0] == digests[1], digests[0]


def _cli_commands(tmp_path) -> dict:
    """Test 8's command lines, label -> argv, over data files written to tmp_path."""
    rng = np.random.default_rng(5)
    plain = tmp_path / "points.csv"
    labeled = tmp_path / "labeled.csv"
    X = rng.standard_normal((24, 2))
    lines = ["x0,x1"] + [f"{float(a)!r},{float(b)!r}" for a, b in X]
    plain.write_text("\n".join(lines) + "\n", encoding="utf-8")
    y = (X[:, 0] + X[:, 1] > 0).astype(int)
    lines = ["x0,x1,label"] + [
        f"{float(a)!r},{float(b)!r},{int(t)}" for (a, b), t in zip(X, y)
    ]
    labeled.write_text("\n".join(lines) + "\n", encoding="utf-8")
    train = [
        "train", "--data", str(labeled), "--hidden", "6", "--steps", "15",
        "--batch-size", "16", "--reg-strength", "0.5", "--reg-paths", "4",
        "--resolution", "4", "--max-degree", "3", "--seed", "9",
    ]
    return {
        "estimate": [
            "estimate", "--data", str(plain), "--oracle", "product",
            "--paths", "40", "--resolution", "5", "--max-degree", "3", "--seed", "9",
        ],
        "estimate-defaults": ["estimate", "--data", str(plain)],
        "estimate-identity-pca": [
            "estimate", "--data", str(plain), "--oracle", "identity", "--scheme",
            "chebyshev_fixed", "--pca-dim", "2", "--basis", "legendre", "--seed", "9",
        ],
        "estimate-affine-uniform": [
            "estimate", "--data", str(plain), "--oracle", "affine", "--scheme", "uniform",
            "--seed", "9",
        ],
        "estimate-anchored": [
            "estimate", "--data", str(labeled), "--anchored", "--seed", str(2**64 - 1),
        ],
        "estimate-wide-seed": [
            "estimate", "--data", str(plain), "--resolution", "15", "--max-degree", "8",
            "--seed", str(2**63 + 5),
        ],
        "train": [*train, "--anchored"],
        "train-anchored-pca": [*train, "--anchored", "--pca-dim", "2"],
        "train-mse": [*train, "--task", "mse"],
        "train-chebyshev-fixed": [*train, "--scheme", "chebyshev_fixed"],
        "verify-degree": [
            "verify-degree", "--polys", str(FIXTURES / "deg5_deg2.txt"),
            "--pairs", "40", "--sampler", "dyadic", "--seed", "9",
        ],
        "pnn-study": [
            "pnn-study", "--width", "4", "--steps", "30", "--train-points", "64",
            "--eval-points", "32", "--mse-target", "1e9", "--seed", "9",
        ],
        "gradcheck": [
            "gradcheck", "--surrogate-checks", "6", "--composite-checks", "2",
            "--seed", "9",
        ],
        "gradcheck-defaults": ["gradcheck", "--seed", "3"],
    }


def test_8_cli_reruns_are_canonically_identical(tmp_path):
    """Every command reruns to the same digests, and those match tests/fixtures/golden_hashes.json.

    The table is compared only on the numpy version it was recorded with;
    regenerate it with `PYTHONPATH=src python tests/test_acceptance.py`.
    """
    t0 = time.perf_counter()
    mismatched = []
    table = {}
    for label, argv in _cli_commands(tmp_path).items():
        same, table[label] = _run_twice(tmp_path, label, argv)
        if not same:
            mismatched.append(label)
    golden = json.loads(GOLDEN_HASHES.read_text(encoding="utf-8"))
    same_numpy = golden["numpy"] == np.__version__
    drifted = sorted(
        label for label in table if same_numpy and table[label] != golden["artifacts"].get(label)
    )
    elapsed = time.perf_counter() - t0
    ok = not mismatched and not drifted
    _report(
        8,
        "deterministic CLI artifacts",
        ok,
        f"{len(table)} commands rerun, {sum(map(len, table.values()))} artifacts compared, "
        f"mismatches: {mismatched or 'none'}, golden drift: "
        + (f"{drifted or 'none'}" if same_numpy else "not compared"),
        elapsed,
        None,
    )
    assert not mismatched, mismatched
    if not same_numpy:
        pytest.skip(
            f"golden hashes were recorded on numpy {golden['numpy']}, "
            f"this run has numpy {np.__version__}; reruns were compared"
        )
    assert table == golden["artifacts"], drifted


if __name__ == "__main__":
    # prints test 8's golden table for tests/fixtures/golden_hashes.json
    import contextlib
    import sys
    import tempfile

    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(sys.stderr):
        tmp_path = Path(tmp)
        artifacts = {
            label: _run_twice(tmp_path, label, argv)[1]
            for label, argv in _cli_commands(tmp_path).items()
        }
    print(json.dumps({"numpy": np.__version__, "artifacts": artifacts}, indent=2, sort_keys=True))
