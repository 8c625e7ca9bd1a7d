"""Path estimation pipeline: construction, anchoring, aggregation, Eq.-level checks.

The product-function fit is cross-checked against the exact symbolic path
restriction from the rational-arithmetic lab, converted to the Chebyshev
basis by numpy.polynomial (tests/oracles.py).
"""

from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from effdeg import polylab
from effdeg.estimator import (
    EDReport,
    EstimatorConfig,
    FunctionOracle,
    NonFiniteOutputError,
    PathPlan,
    PathSamplingError,
    anchor_values,
    ed_estimate,
    fit_paths,
    path_values,
    plan_path,
    softmax,
)
from effdeg.reduce import pca_project
from effdeg.sampling import chebyshev_nodes, sample_abscissas
from effdeg.surrogate import fit_matrix

from oracles import alpha_monomial_to_cheb


def identity_oracle(d):
    return FunctionOracle(d, d, lambda p: p, name="identity")


def product_oracle():
    return FunctionOracle(2, 1, lambda p: p[:, 0] * p[:, 1], name="product")


def constant_oracle(d, value):
    return FunctionOracle(
        d, len(value), lambda p: np.tile(value, (p.shape[0], 1)), name="constant"
    )


def one_path(oracle, x1, x2, abscissas):
    """Outputs along a x1 + (1 - a) x2: the one-path case of path_values."""
    plan = PathPlan(i=0, j=1, abscissas=abscissas)
    return path_values(oracle, np.stack([x1, x2]), [plan])[0]


def anchor_one(values, abscissas, t1, t2):
    """Anchor one path's values: the one-path case of anchor_values."""
    plan = PathPlan(i=0, j=1, abscissas=abscissas)
    return anchor_values(values[None], [plan], np.stack([t1, t2]))[0]


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
    ab = sample_abscissas("chebyshev_fixed", 4)
    values = one_path(identity_oracle(2), np.ones(2), np.zeros(2), ab)
    with pytest.raises(ValueError):
        anchor_one(values, ab, np.ones(2), np.zeros(2))


def test_anchor_then_project_differs_from_project_then_anchor():
    rng = np.random.default_rng(52)
    ab = sample_abscissas("randomized_cosine", 6, anchored=True, seed=9)
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
    plan = PathPlan(i=0, j=1, abscissas=ab)
    cfg = EstimatorConfig(n_paths=1, resolution=5, max_degree=3)
    plain = fit_paths(values[None], [plan], cfg)
    anchored = fit_paths(values[None], [plan], replace(cfg, anchored=True), labels=labels)
    assert plain.ed.ed.tolist() == anchored.ed.ed.tolist()
    assert plain.ed.ed_norm.tolist() == anchored.ed.ed_norm.tolist()
    with pytest.raises(ValueError):
        fit_paths(values[None], [plan], replace(cfg, anchored=True))


def test_fit_matches_symbolic_restriction():
    # f(x) = x1*x2 along ((1,0),(0,1)) restricts to a - a^2 exactly
    poly = polylab.parse_poly("x1*x2")
    x1 = (Fraction(1), Fraction(0))
    x2 = (Fraction(0), Fraction(1))
    want = alpha_monomial_to_cheb(polylab.restrict(poly, x1, x2).coefficients)

    nodes = chebyshev_nodes(4)
    values = one_path(product_oracle(), np.array([1.0, 0.0]), np.array([0.0, 1.0]), nodes)
    got = fit_matrix(nodes, values, 3, 0.0, "chebyshev")[:, 0]
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
        restriction = polylab.restrict(
            poly, tuple(Fraction(int(v)) for v in a), tuple(Fraction(int(v)) for v in b)
        )
        want = alpha_monomial_to_cheb(restriction.coefficients)
        oracle = FunctionOracle(
            2, 1, lambda p: 2 * p[:, 0] ** 2 * p[:, 1] - p[:, 1] ** 2 + 3 * p[:, 0]
        )
        nodes = chebyshev_nodes(5)
        values = one_path(oracle, a.astype(float), b.astype(float), nodes)
        got = fit_matrix(nodes, values, 4, 0.0, "chebyshev")[:, 0]
        padded = np.zeros(5)
        padded[: len(want)] = want
        assert np.max(np.abs(got - padded)) < 1e-8


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
    c = fit_matrix(ab, values, 4, 0.0, "chebyshev")
    assert np.max(np.abs(c[2:])) < 1e-8


def test_report_is_deterministic():
    oracle = product_oracle()
    X = np.random.default_rng(58).standard_normal((15, 2))
    cfg = EstimatorConfig(n_paths=10, resolution=5, max_degree=3, seed=7)
    a = ed_estimate(oracle, X, cfg)
    b = ed_estimate(oracle, X, cfg)
    assert a == b  # dataclass equality covers every per-path float


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
    probs = softmax(raw, axis=1)
    assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(probs > 0)


def test_pca_path_flags_ties():
    ab = sample_abscissas("uniform", 4)
    values = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    cfg = EstimatorConfig(n_paths=1, resolution=4, max_degree=3, pca_dim=2, seed=0)
    fitted = fit_paths(values[None], [PathPlan(i=0, j=1, abscissas=ab)], cfg)
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
        plan = plan_path(X, cfg.seed, (result.index,), cfg.scheme, cfg.resolution, cfg.anchored)
        fitted = fit_paths(path_values(oracle, X, [plan]), [plan], cfg, labels=labels)
        assert (plan.i, plan.j) == result.endpoint_indices
        assert fitted.ed.ed[0] == result.ed
        assert fitted.ed.ed_norm[0] == result.ed_norm
        assert fitted.pca_ties[0] == result.pca_ties


def test_plan_path_redraws_coincident_pairs():
    X = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0]])
    plans = [plan_path(X, 3, (p,), "chebyshev_fixed", 4, False) for p in range(20)]
    assert all(2 in (plan.i, plan.j) for plan in plans)


def test_nonfinite_oracle_output_names_the_path():
    # NaN wherever the first coordinate exceeds 2: only paths reaching row 3 see it
    X = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [5.0, 5.0]])
    oracle = FunctionOracle(
        2, 1, lambda p: np.where(p[:, :1] > 2.0, np.nan, p[:, :1]), name="nan-beyond-2"
    )
    cfg = EstimatorConfig(n_paths=12, resolution=4, max_degree=3, seed=6)
    plans = [plan_path(X, cfg.seed, (p,), cfg.scheme, 4, False) for p in range(cfg.n_paths)]
    first = next(p for p, plan in enumerate(plans) if 3 in (plan.i, plan.j))
    with pytest.raises(NonFiniteOutputError) as err:
        ed_estimate(oracle, X, cfg)
    assert str(err.value) == (
        f"non-finite output on path {first} "
        f"(endpoint rows {plans[first].i} and {plans[first].j})"
    )
    infinite = FunctionOracle(2, 1, lambda p: np.where(p[:, :1] > 2.0, -np.inf, p[:, :1]))
    with pytest.raises(NonFiniteOutputError):
        ed_estimate(infinite, X, cfg)
