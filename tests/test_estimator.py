"""Path estimation pipeline: construction, anchoring, aggregation, Eq.-level checks.

The product-function fit is cross-checked against the exact symbolic path
restriction, in Fractions, converted to the Chebyshev basis by
numpy.polynomial (both in tests/oracles.py).
"""

import json
import os
import platform
import subprocess
import sys
import warnings
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from effdeg import estimator, polylab
from effdeg.cli import EXIT_CODES, EXIT_CONFIG
from effdeg.estimator import (
    EDReport,
    EstimatorConfig,
    FunctionOracle,
    NonFiniteOutputError,
    PathSamplingError,
    PathSettings,
    anchor_values,
    ed_estimate,
    fit_paths,
    path_values,
    plan_paths,
    softmax,
)
from effdeg.net import build_pnn
from effdeg.reduce import pca_project
from effdeg.sampling import SCHEME_VARIANTS, chebyshev_nodes, sample_abscissas
from effdeg.surrogate import normal_system, solve_system

from oracles import (
    alpha_monomial_to_cheb, alpha_monomial_to_leg, net_restriction, plans_of, restrict,
)


def identity_oracle(d):
    return FunctionOracle(d, d, lambda p: p, name="identity")


def product_oracle():
    return FunctionOracle(2, 1, lambda p: p[:, 0] * p[:, 1], name="product")


def constant_oracle(d, value):
    return FunctionOracle(
        d, len(value), lambda p: np.tile(value, (p.shape[0], 1)), name="constant"
    )


# settings of plans that are evaluated or anchored but never fitted
UNFITTED = PathSettings(max_degree=0)


def one_path(oracle, x1, x2, abscissas):
    """Outputs along a x1 + (1 - a) x2: the one-path case of path_values."""
    return path_values(oracle, np.stack([x1, x2]), plans_of(abscissas, settings=UNFITTED))[0]


def anchor_one(values, abscissas, t1, t2):
    """Anchor one path's values: the one-path case of anchor_values."""
    plans = plans_of(abscissas, settings=UNFITTED)
    return anchor_values(values[None], plans, np.stack([t1, t2]))[0]


def test_build_path_identity():
    ab = sample_abscissas("uniform", 3)
    values = one_path(identity_oracle(2), np.array([1.0, 0.0]), np.array([0.0, 1.0]), ab)
    want = np.array([[0.0, 1.0], [0.5, 0.5], [1.0, 0.0]])
    assert np.allclose(values, want, atol=1e-15)


def test_build_path_constant():
    ab = sample_abscissas("uniform", 4)
    c = np.array([2.0, -1.0, 0.5])
    values = one_path(constant_oracle(3, c), np.ones(3), np.zeros(3), ab)
    assert np.allclose(values, np.tile(c, (4, 1)), atol=1e-15)


def test_build_path_product_midpoint():
    ab = sample_abscissas("uniform", 3)
    values = one_path(product_oracle(), np.array([1.0, 0.0]), np.array([0.0, 1.0]), ab)
    assert values[1, 0] == pytest.approx(0.25, abs=1e-15)


def test_path_symmetry_under_endpoint_swap():
    rng = np.random.default_rng(51)
    x1, x2 = rng.standard_normal(3), rng.standard_normal(3)
    oracle = FunctionOracle(3, 2, lambda p: np.stack([p[:, 0] * p[:, 1], p[:, 2] ** 2], axis=1))
    ab = sample_abscissas("uniform", 5)
    fwd = one_path(oracle, x1, x2, ab)
    # swapping endpoints and reversing alpha gives the same samples since the
    # uniform grid maps onto itself under a -> 1 - a
    bwd = one_path(oracle, x2, x1, ab)
    assert np.allclose(fwd, bwd[::-1], atol=1e-12)


def test_label_anchor_one_hot():
    ab = sample_abscissas("chebyshev_fixed", 4, anchored=True)
    values = one_path(identity_oracle(2), np.array([3.0, 1.0]), np.array([-2.0, 5.0]), ab)
    t1, t2 = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    anchored = anchor_one(values, ab, t1, t2)
    assert np.array_equal(anchored[0], t2)  # a = 0 end
    assert np.array_equal(anchored[-1], t1)  # a = 1 end
    assert anchored[1:-1].tobytes() == values[1:-1].tobytes()


def test_label_anchor_rejects_unanchored_abscissas():
    # interior-only abscissas, and rows that hold only one of the two endpoints
    rule = "first abscissa a = 0 and last a = 1"
    for ab in ([0.1, 0.5, 0.9], [0.0, 0.5, 0.9], [0.1, 0.5, 1.0], [1.0, 0.5, 0.0]):
        values = one_path(identity_oracle(2), np.ones(2), np.zeros(2), np.array(ab))
        with pytest.raises(ValueError, match=rule):
            anchor_one(values, np.array(ab), np.ones(2), np.zeros(2))
    # one unanchored path among anchored ones fails the whole stack
    plans = plans_of([[0.0, 0.5, 1.0], [0.1, 0.5, 1.0]], settings=UNFITTED)
    with pytest.raises(ValueError, match=rule):
        anchor_values(np.zeros((2, 3, 2)), plans, np.zeros((2, 2)))


@pytest.mark.parametrize("scheme", SCHEME_VARIANTS)
def test_anchor_values_checks_the_planned_abscissas(scheme):
    # unanchored uniform plans still hold a = 0 and a = 1, so they anchor;
    # the other schemes' unanchored plans are interior-only and are refused
    X = np.random.default_rng(54).standard_normal((10, 2))
    labels = np.random.default_rng(55).standard_normal((10, 2))
    for anchored in (True, False):
        settings = PathSettings(resolution=5, scheme=scheme, anchored=anchored, seed=56)
        plans = plan_paths(X, settings, (), 6, 0)
        values = path_values(identity_oracle(2), X, plans)
        if anchored or scheme == "uniform":
            out = anchor_values(values, plans, labels)
            assert out[:, 0].tobytes() == labels[plans.j].tobytes()
            assert out[:, -1].tobytes() == labels[plans.i].tobytes()
        else:
            with pytest.raises(ValueError, match="first abscissa a = 0 and last a = 1"):
                anchor_values(values, plans, labels)


def test_anchor_then_project_differs_from_project_then_anchor():
    rng = np.random.default_rng(52)
    ab = sample_abscissas("randomized_cosine", 6, anchored=True, uniforms=rng.random(6))
    values = rng.standard_normal((6, 3))
    t1, t2 = rng.standard_normal(3), rng.standard_normal(3)
    anchored = anchor_one(values, ab, t1, t2)
    anchored_first = pca_project(anchored, 2).apply(anchored)
    project_first = pca_project(values, 2).apply(anchored)
    assert not np.allclose(anchored_first, project_first, atol=1e-10)


def test_anchoring_with_own_outputs_is_identity():
    # labels equal to the oracle's own endpoint outputs: pinning them changes
    # nothing, because the anchored scheme already samples a = 0 and a = 1
    rng = np.random.default_rng(53)
    oracle = FunctionOracle(2, 2, lambda p: np.stack([p[:, 0] * p[:, 1], np.sin(p[:, 0])], axis=1))
    x1, x2 = rng.standard_normal(2), rng.standard_normal(2)
    ab = sample_abscissas("chebyshev_fixed", 5, anchored=True)
    values = one_path(oracle, x1, x2, ab)
    labels = oracle.evaluate(np.stack([x1, x2]))
    assert anchor_one(values, ab, labels[0], labels[1]).tobytes() == values.tobytes()
    cfg = EstimatorConfig(n_paths=1, resolution=5, max_degree=3)
    plan = plans_of(ab, settings=cfg)
    anchored_plan = plans_of(ab, settings=replace(cfg, anchored=True))
    plain = fit_paths(values[None], plan)
    anchored = fit_paths(values[None], anchored_plan, labels=labels)
    assert plain.ed.tolist() == anchored.ed.tolist()
    assert plain.ed_norm.tolist() == anchored.ed_norm.tolist()
    with pytest.raises(ValueError):
        fit_paths(values[None], anchored_plan)


def test_fit_matches_symbolic_restriction():
    # f(x) = x1*x2 along ((1,0),(0,1)) restricts to a - a^2 exactly
    poly = polylab.parse_poly("x1*x2")
    x1 = (Fraction(1), Fraction(0))
    x2 = (Fraction(0), Fraction(1))
    want = alpha_monomial_to_cheb(restrict(poly, x1, x2))

    nodes = chebyshev_nodes(4)
    values = one_path(product_oracle(), np.array([1.0, 0.0]), np.array([0.0, 1.0]), nodes)
    got = solve_system(normal_system(nodes, 3, 0.0, "chebyshev"), values)[0][:, 0]
    assert np.max(np.abs(got[: len(want)] - want)) < 1e-8
    assert np.max(np.abs(got[len(want) :])) < 1e-8


def test_fit_matches_symbolic_restriction_random_endpoints():
    rng = np.random.default_rng(54)
    poly = polylab.parse_poly("2*x1^2*x2 - x2^2 + 3*x1")
    for _ in range(5):
        a = rng.integers(-4, 5, size=2)
        b = rng.integers(-4, 5, size=2)
        if np.array_equal(a, b):
            continue
        restriction = restrict(
            poly, tuple(Fraction(int(v)) for v in a), tuple(Fraction(int(v)) for v in b)
        )
        want = alpha_monomial_to_cheb(restriction)
        oracle = FunctionOracle(
            2, 1, lambda p: 2 * p[:, 0] ** 2 * p[:, 1] - p[:, 1] ** 2 + 3 * p[:, 0]
        )
        nodes = chebyshev_nodes(5)
        values = one_path(oracle, a.astype(float), b.astype(float), nodes)
        got = solve_system(normal_system(nodes, 4, 0.0, "chebyshev"), values)[0][:, 0]
        padded = np.zeros(5)
        padded[: len(want)] = want
        assert np.max(np.abs(got - padded)) < 1e-8


@pytest.fixture(scope="module")
def square_net_paths():
    # a degree-8 network, its dataset, and each planned pair's exact restriction
    net = build_pnn(seed=0)
    X = np.random.default_rng(8).uniform(-2.0, 2.0, size=(12, 3))
    plans = plan_paths(X, PathSettings(seed=5), (), 6, 0)
    pairs = zip(plans.i.tolist(), plans.j.tolist())
    exact = {(i, j): net_restriction(net, X[i], X[j]) for i, j in pairs}
    return net, X, exact


@pytest.mark.parametrize("resolution", [9, 15])
@pytest.mark.parametrize("scheme", SCHEME_VARIANTS)
@pytest.mark.parametrize("basis", ["chebyshev", "legendre"])
def test_square_net_estimate_equals_its_exact_restriction(
    square_net_paths, basis, scheme, resolution
):
    # at K = 8 and no damping each path's fit recovers the network's restriction
    net, X, exact = square_net_paths
    to_basis = alpha_monomial_to_cheb if basis == "chebyshev" else alpha_monomial_to_leg
    cfg = EstimatorConfig(
        n_paths=6, resolution=resolution, max_degree=8, damping=0.0, basis=basis,
        scheme=scheme, seed=5,
    )
    report = ed_estimate(net.as_oracle(), X, cfg)
    assert len(report.per_path) == 6
    for path in report.per_path:
        outputs = exact[(path.endpoint_i, path.endpoint_j)]
        want = np.mean([np.abs(to_basis(c)) @ np.arange(len(c)) for c in outputs])
        assert path.ed == pytest.approx(want, rel=1e-10, abs=0.0)


def test_constant_function_gives_zero_ed():
    oracle = constant_oracle(3, np.array([4.0, -2.0]))
    X = np.random.default_rng(55).standard_normal((12, 3))
    cfg = EstimatorConfig(n_paths=6, resolution=5, max_degree=3, damping=0.0, seed=1)
    report = ed_estimate(oracle, X, cfg)
    assert report.mean_ed < 1e-12
    assert report.mean_ed_norm < 1e-12

    zero = constant_oracle(3, np.array([0.0]))
    zero_report = ed_estimate(zero, X, cfg)
    # all-zero coefficients hit the defined 0/0 := 0 branch exactly
    assert zero_report.mean_ed == 0.0
    assert zero_report.mean_ed_norm == 0.0


def test_affine_function_caps_ed_norm():
    rng = np.random.default_rng(56)
    A = rng.standard_normal((3, 3))
    b = rng.standard_normal(3)
    oracle = FunctionOracle(3, 3, lambda p: p @ A.T + b, name="affine")
    X = rng.standard_normal((20, 3))
    cfg = EstimatorConfig(n_paths=15, resolution=6, max_degree=4, damping=0.0, seed=2)
    report = ed_estimate(oracle, X, cfg)
    for p in report.per_path:
        assert p.ed_norm <= 1.0 + 1e-8


def test_affine_high_degree_coefficients_vanish():
    rng = np.random.default_rng(57)
    A = rng.standard_normal((2, 2))
    oracle = FunctionOracle(2, 2, lambda p: p @ A.T + 1.0)
    ab = sample_abscissas("chebyshev_fixed", 6)
    values = one_path(oracle, rng.standard_normal(2), rng.standard_normal(2), ab)
    c, _ = solve_system(normal_system(ab, 4, 0.0, "chebyshev"), values)
    assert np.max(np.abs(c[2:])) < 1e-8


def test_report_is_deterministic():
    oracle = product_oracle()
    X = np.random.default_rng(58).standard_normal((15, 2))
    cfg = EstimatorConfig(n_paths=10, resolution=5, max_degree=3, seed=7)
    a = ed_estimate(oracle, X, cfg)
    b = ed_estimate(oracle, X, cfg)
    assert a.per_path.tobytes() == b.per_path.tobytes()  # every per-path field, bit for bit
    assert replace(a, per_path=None) == replace(b, per_path=None)


def test_report_accounting_invariant():
    oracle = product_oracle()
    X = np.random.default_rng(59).standard_normal((10, 2))
    cfg = EstimatorConfig(n_paths=9, resolution=5, max_degree=3, seed=3)
    report = ed_estimate(oracle, X, cfg)
    assert isinstance(report, EDReport)
    assert report.n_paths == len(report.per_path) + report.n_skipped == 9


def test_degenerate_dataset_raises():
    oracle = identity_oracle(2)
    X = np.tile([1.0, 2.0], (6, 1))
    cfg = EstimatorConfig(n_paths=4, resolution=4, max_degree=3, seed=0)
    with pytest.raises(PathSamplingError):
        ed_estimate(oracle, X, cfg)


@pytest.mark.parametrize(
    "name, bad, rows, first",
    [
        pytest.param("inputs", np.nan, [4], 4, id="nan-rows0-4"),
        pytest.param("inputs", np.inf, [2, 5], 2, id="inf-rows1-2"),
        pytest.param("inputs", np.nan, slice(None), 0, id="nan-rows2-0"),
        pytest.param("labels", np.nan, [3], 3, id="labels-nan-3"),
    ],
)
def test_non_finite_inputs_raise_naming_the_first_such_row(name, bad, rows, first, monkeypatch):
    # checked before any path is planned: planning would redraw every pair on
    # a NaN row, blame the oracle for an inf row and find no spread in NaN
    # data; a NaN label would surface as a singular fit
    X = np.random.default_rng(12).standard_normal((6, 2))
    arrays = {"inputs": X, "labels": X.copy()}
    arrays[name][rows, 1] = bad
    monkeypatch.setattr(estimator, "drawn_block", None)  # planning would fail otherwise
    cfg = EstimatorConfig(n_paths=8, seed=2, anchored=name == "labels")
    with pytest.raises(ValueError, match=f"^{name} row {first} is not finite$"):
        ed_estimate(identity_oracle(2), X, cfg, labels=arrays["labels"])


def test_half_sample_consistency():
    # Eq.-(9)-style convergence: disjoint halves of 2000 paths nearly agree
    oracle = FunctionOracle(
        2, 1, lambda p: np.tanh(p[:, 0]) + 0.3 * p[:, 1] ** 2, name="smooth"
    )
    X = np.random.default_rng(60).standard_normal((64, 2))
    cfg = EstimatorConfig(n_paths=2000, resolution=5, max_degree=3, seed=11)
    report = ed_estimate(oracle, X, cfg)
    eds = np.array([p.ed for p in report.per_path])
    half_a, half_b = eds[:1000].mean(), eds[1000:].mean()
    assert abs(half_a - half_b) < 3.0 * report.std_ed / np.sqrt(1000)


def test_post_softmax_rows_are_distributions():
    rng = np.random.default_rng(61)
    raw = rng.standard_normal((6, 4))
    probs = softmax(raw)
    assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(probs > 0)


def test_pca_path_flags_ties():
    ab = sample_abscissas("uniform", 4)
    values = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    cfg = EstimatorConfig(n_paths=1, resolution=4, max_degree=3, pca_dim=2, seed=0)
    fitted = fit_paths(values[None], plans_of(ab, settings=cfg))
    assert fitted.pca_ties.tolist() == [True]


def test_config_validation():
    with pytest.raises(ValueError):
        EstimatorConfig(n_paths=0).validate()
    with pytest.raises(ValueError):
        EstimatorConfig(resolution=3, max_degree=3).validate()
    with pytest.raises(ValueError):
        EstimatorConfig(basis="fourier").validate()
    with pytest.raises(ValueError):
        EstimatorConfig(scheme="sobol").validate()
    with pytest.raises(ValueError):
        EstimatorConfig(anchored=True, resolution=1, max_degree=0).validate()
    with pytest.raises(ValueError):
        EstimatorConfig(damping=-1.0).validate()
    with pytest.raises(ValueError, match="damping"):
        PathSettings(damping=float("nan")).validate()
    # path indices lie in [0, 2**32): validate() refuses more paths without planning any
    EstimatorConfig(n_paths=2**32).validate()
    with pytest.raises(ValueError, match="n_paths"):
        EstimatorConfig(n_paths=2**32 + 1).validate()


def test_anchored_estimate_requires_labels():
    oracle = identity_oracle(2)
    X = np.random.default_rng(62).standard_normal((8, 2))
    cfg = EstimatorConfig(n_paths=3, resolution=4, max_degree=3, anchored=True, seed=0)
    with pytest.raises(ValueError):
        ed_estimate(oracle, X, cfg)


def test_oracle_shape_validation():
    bad = FunctionOracle(2, 3, lambda p: p)  # claims 3 outputs, returns 2
    with pytest.raises(ValueError):
        bad.evaluate(np.zeros((4, 2)))
    with pytest.raises(ValueError):
        identity_oracle(2).evaluate(np.zeros((4, 3)))


def test_tie_path_indices_property():
    oracle = product_oracle()
    X = np.random.default_rng(63).standard_normal((12, 2))
    cfg = EstimatorConfig(n_paths=5, resolution=5, max_degree=3, seed=4)
    report = ed_estimate(oracle, X, cfg)
    assert report.tie_path_indices == tuple(
        p.index for p in report.per_path if p.pca_ties
    )


def test_single_path_replays_on_its_own():
    # re-plan each reported path alone, last first, and refit it through the
    # engine: the result must match the run's record exactly
    rng = np.random.default_rng(64)
    X = rng.standard_normal((10, 2))
    labels = np.eye(3)[rng.integers(0, 3, size=10)]
    oracle = FunctionOracle(
        2, 3, lambda p: np.stack([p[:, 0] * p[:, 1], np.sin(p[:, 0]), p[:, 1] ** 2], axis=1)
    )
    cfg = EstimatorConfig(
        n_paths=12, resolution=6, max_degree=4, scheme="randomized_cosine",
        pca_dim=2, anchored=True, post_softmax=True, seed=65,
    )
    report = ed_estimate(oracle, X, cfg, labels=labels)
    assert len(report.per_path) == 12
    for result in reversed(report.per_path):
        plan = plan_paths(X, cfg, (), 1, result.index)
        fitted = fit_paths(path_values(oracle, X, plan), plan, labels=labels)
        assert (plan.i[0], plan.j[0]) == (result.endpoint_i, result.endpoint_j)
        assert fitted.ed[0] == result.ed
        assert fitted.ed_norm[0] == result.ed_norm
        assert fitted.pca_ties[0] == result.pca_ties


def test_plans_are_fitted_under_the_settings_they_were_drawn_under():
    # the same paths drawn under two fit settings: each plan keeps its own,
    # and plans drawn under b fit to ed_estimate's EDs under b
    X = np.random.default_rng(66).standard_normal((20, 2))
    oracle = FunctionOracle(2, 1, lambda p: np.sin(3.0 * p[:, :1]), name="sin-3x0")
    a = EstimatorConfig(n_paths=5, resolution=8, max_degree=5, damping=1e-6, seed=67)
    b = replace(a, basis="legendre", max_degree=2, damping=1e-2)
    drawn_a, drawn_b = plan_paths(X, a, (), 5, 0), plan_paths(X, b, (), 5, 0)
    assert drawn_a.settings is a and drawn_b.settings is b
    assert drawn_a.pairs.tobytes() == drawn_b.pairs.tobytes()
    assert drawn_a.alphas.tobytes() == drawn_b.alphas.tobytes()
    raw = path_values(oracle, X, drawn_b)
    fitted = fit_paths(raw, drawn_b).ed
    assert fitted.tobytes() == np.ascontiguousarray(ed_estimate(oracle, X, b).per_path.ed).tobytes()
    assert fit_paths(raw, drawn_a).ed.tolist() != fitted.tolist()


def test_plans_drawn_under_bare_path_settings_fit_raw_outputs():
    # PathSettings has no softmax knob: its plans fit like an EstimatorConfig's
    # with the same path fields and post_softmax off, bit for bit
    rng = np.random.default_rng(68)
    X, W = rng.standard_normal((12, 3)), rng.standard_normal((3, 3))
    oracle = FunctionOracle(3, 3, lambda p: np.tanh(p @ W), name="tanh")
    settings = PathSettings(resolution=6, max_degree=4, pca_dim=2, seed=69)
    config = EstimatorConfig(n_paths=7, **vars(settings))
    bare, full = plan_paths(X, settings, (), 7, 0), plan_paths(X, config, (), 7, 0)
    raw = path_values(oracle, X, full)
    got = fit_paths(raw, bare, with_gradient=True)
    want = fit_paths(raw, full, with_gradient=True)
    for name in ("ed", "ed_norm", "pca_ties", "grad"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
    assert not settings.post_softmax


def test_plan_path_redraws_coincident_pairs():
    X = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0]])
    plans = plan_paths(X, PathSettings(scheme="chebyshev_fixed", seed=3), (), 20, 0)
    assert len(plans) == 20
    assert ((plans.i == 2) | (plans.j == 2)).all()


def exit_code(exc):
    return next(code for kind, code in EXIT_CODES if isinstance(exc, kind))


@pytest.mark.parametrize("index", [-1, 2**32, 2**64])
def test_plan_paths_rejects_path_indices_outside_32_bits(index):
    X = np.random.default_rng(0).standard_normal((5, 2))
    settings = PathSettings(scheme="chebyshev_fixed")
    named = rf"path key \(7, {index}\): path index {index} of unit {index} is outside"
    with pytest.raises(ValueError, match=named) as err:
        plan_paths(X, settings, (7,), 1, index)
    assert exit_code(err.value) == EXIT_CONFIG
    assert plan_paths(X, settings, (7,), 1, 2**32 - 1).paths.tolist() == [2**32 - 1]
    last = plan_paths(X, settings, (7,), 4, 2**30 - 1)
    assert last.paths.tolist() == list(range(2**32 - 4, 2**32))


@pytest.mark.parametrize(
    ("unit", "k", "end", "message"),
    [
        (0, 0, 2**32, r"^unit must be >= 1 and end <= 2\*\*32, got 0 and 4294967296$"),
        (1, 0, 2**32 + 1, r"^unit must be >= 1 and end <= 2\*\*32, got 1 and 4294967297$"),
        (4, 3, 12, r"path key \(12,\): path index 12 of unit 3 is outside \[0, 12\)"),
    ],
    ids=["empty-unit", "end-past-32-bits", "unit-at-end"],
)
def test_plan_paths_rejects_bad_units_and_ends(unit, k, end, message):
    # end cuts the last unit short; a unit starting at end holds no path
    X = np.random.default_rng(0).standard_normal((5, 2))
    with pytest.raises(ValueError, match=message):
        plan_paths(X, PathSettings(), (), unit, k, end)
    assert plan_paths(X, PathSettings(), (), 4, 2, 12).paths.tolist() == [8, 9, 10, 11]
    assert plan_paths(X, PathSettings(), (), 4, 2, 10).paths.tolist() == [8, 9]


def test_plan_paths_rejects_datasets_of_2_to_the_32_rows():
    # zero-stride views: no memory behind the rows, and every row coincides
    largest = np.broadcast_to(np.arange(2.0), (2**32 - 1, 2))
    settings = PathSettings(scheme="uniform")
    assert len(plan_paths(largest, settings, (), 1, 0)) == 0
    too_many = np.broadcast_to(np.arange(2.0), (2**32, 2))
    with pytest.raises(ValueError, match="cannot plan paths over 4294967296 rows") as err:
        plan_paths(too_many, settings, (), 1, 0)
    assert exit_code(err.value) == EXIT_CONFIG


def test_oracle_shape_errors_name_the_oracle_before_any_fit(monkeypatch):
    # a 2-in, 3-out oracle that returns its 2-column input: the estimate
    # fails at the oracle call, never at a fit
    X = np.random.default_rng(70).standard_normal((6, 2))
    wide = FunctionOracle(2, 3, lambda p: p, name="wide")
    monkeypatch.setattr(estimator, "fit_paths", None)  # a fit would fail otherwise
    shape = r"^oracle 'wide' returned shape \((\d+), 2\), expected \(\1, 3\)$"
    with pytest.raises(ValueError, match=shape):
        ed_estimate(wide, X, EstimatorConfig(n_paths=4, seed=71))
    for points in (np.zeros((4, 3)), np.zeros(2), np.zeros((1, 4, 2))):
        with pytest.raises(ValueError, match=r"^points must be \(n, 2\)$"):
            wide.evaluate(points)


def test_nonfinite_oracle_output_names_the_path():
    # NaN wherever the first coordinate exceeds 2: only paths reaching row 3 see it
    X = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [5.0, 5.0]])
    oracle = FunctionOracle(
        2, 1, lambda p: np.where(p[:, :1] > 2.0, np.nan, p[:, :1]), name="nan-beyond-2"
    )
    cfg = EstimatorConfig(n_paths=12, resolution=4, max_degree=3, seed=6)
    plans = plan_paths(X, cfg, (), cfg.n_paths, 0)
    first = int(np.flatnonzero((plans.i == 3) | (plans.j == 3))[0])
    with pytest.raises(NonFiniteOutputError) as err:
        ed_estimate(oracle, X, cfg)
    assert str(err.value) == (
        f"non-finite output on path {plans.paths[first]} "
        f"(endpoint rows {plans.i[first]} and {plans.j[first]})"
    )
    infinite = FunctionOracle(2, 1, lambda p: np.where(p[:, :1] > 2.0, -np.inf, p[:, :1]))
    with pytest.raises(NonFiniteOutputError):
        ed_estimate(infinite, X, cfg)


def test_overflowing_ed_statistics_name_the_largest_path():
    # every per-path ED is finite (up to about 4.9e300) but their spread overflows
    X = np.random.default_rng(0).standard_normal((20, 2))
    oracle = FunctionOracle(2, 1, lambda p: 1e300 * p[:, :1] ** 2, name="huge")
    cfg = EstimatorConfig(n_paths=10, seed=1)
    plans = plan_paths(X, cfg, (), 10, 0)
    eds = fit_paths(path_values(oracle, X, plans), plans).ed
    assert np.isfinite(eds).all()
    k = int(np.argmax(eds))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteOutputError) as err:
            ed_estimate(oracle, X, cfg)
    assert str(err.value) == (
        f"effective-degree statistics overflow: largest ED {eds[k]:.3e} on path "
        f"{plans.paths[k]} (endpoint rows {plans.i[k]} and {plans.j[k]})"
    )


# 2e5 paths of an identity oracle at d 8, r 4, K 3: stacked in one block, the
# estimate peaks near 380 MB; walked in blocks, near 60 MB, about 30 of them
# the interpreter and numpy
BIG_ESTIMATE = """
import json, resource
import numpy as np
from effdeg.estimator import EstimatorConfig, FunctionOracle, ed_estimate

X = np.random.default_rng(41).standard_normal((256, 8))
oracle = FunctionOracle(8, 8, lambda p: p, name="identity")
config = EstimatorConfig(n_paths=200_000, resolution=4, max_degree=3, seed=3)
report = ed_estimate(oracle, X, config)
print(json.dumps([report.mean_ed.hex(), report.std_ed.hex(), report.mean_ed_norm.hex(),
                  resource.getrusage(resource.RUSAGE_SELF).ru_maxrss]))
"""


def last_line_of_child(code: str):
    """Run code in a fresh interpreter that imports effdeg from src/; its last line, as JSON."""
    root = Path(__file__).resolve().parents[1]
    path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=300, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KB only on Linux")
def test_estimate_memory_is_one_block_plus_records(monkeypatch):
    *stats, max_rss_kb = last_line_of_child(BIG_ESTIMATE)
    assert max_rss_kb < 120 * 1024
    X = np.random.default_rng(41).standard_normal((256, 8))
    oracle = FunctionOracle(8, 8, lambda p: p, name="identity")
    monkeypatch.setattr(estimator, "_BLOCK_ENTRIES", 1 << 40)  # every path in one block
    try:
        report = ed_estimate(
            oracle, X, EstimatorConfig(n_paths=200_000, resolution=4, max_degree=3, seed=3)
        )
    finally:
        estimator.drawn_block.cache_clear()
    assert stats == [report.mean_ed.hex(), report.std_ed.hex(), report.mean_ed_norm.hex()]
    # the means are those of the contiguous columns, as an unblocked estimate
    # takes them; at this seed (on numpy 2.4) a sum over the strided record
    # fields differs from them in the last bit
    columns = [np.ascontiguousarray(report.per_path[name]) for name in ("ed", "ed_norm")]
    assert (report.mean_ed, report.mean_ed_norm) == tuple(column.mean() for column in columns)


# estimate-pca's shape: relu 8-64-64-16, 1,024 rows, 200 paths, r 8, K 5, PCA 4.
# Unless glibc's heap is held, each call maps and zero-fills its (1600, 64)
# forward temporaries afresh: some 340-420 minor faults a call
FAULTS_PER_CALL = """
import resource
import numpy as np
from effdeg.estimator import EstimatorConfig, ed_estimate
from effdeg.net import FeedForwardNet

oracle = FeedForwardNet.create([8, 64, 64, 16], seed=5).as_oracle()
X = np.random.default_rng(5).standard_normal((1024, 8))

def estimate(seed):
    config = EstimatorConfig(n_paths=200, resolution=8, max_degree=5, pca_dim=4, seed=seed)
    ed_estimate(oracle, X, config)

for seed in range(3):
    estimate(seed)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for seed in range(3, 23):
    estimate(seed)
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 20)
"""


@pytest.mark.skipif(
    platform.libc_ver()[0] != "glibc", reason="the heap thresholds held are glibc's (mallopt(3))"
)
def test_estimate_calls_do_not_page_fault():
    assert last_line_of_child(FAULTS_PER_CALL) < 10
