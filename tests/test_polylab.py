"""Exact-arithmetic lab: order preservation, samplers, parsing.

verify_order_preservation's integer loop is checked against hand-worked
pairs and, with ==, against the Fraction reference loop in oracles.py.  That
reference's restriction is itself checked against direct evaluation at
rational points, which exercises none of the convolution code.  The batched
samplers' integer arrays are checked, as exact rationals, against successive
draws of the one-pair Fraction samplers in oracles.py from the same stream.
"""

import itertools
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from effdeg import polylab, sampling
from effdeg.polylab import (
    NEG_INF,
    MultiPoly,
    PolyParseError,
    dyadic_uniform_pair_sampler,
    format_poly,
    gaussian_pair_sampler,
    parse_poly,
    parse_poly_bundle,
    random_multipoly,
    shared_coordinate_pair_sampler,
    verify_order_preservation,
)

import oracles
from oracles import exact_point, horner


def test_restrict_shared_coordinate_is_constant():
    # x1^2 on a pair sharing x1 = 3/7 restricts to the constant 9/49
    c = Fraction(3, 7)
    poly = parse_poly("x1^2", dim=2)
    pair = ((c, Fraction(1)), (c, Fraction(0)))
    record = verify_order_preservation(poly, poly, 1, oracles.pair_sampler([pair]))
    assert record.restricted_degrees == ((0.0,), (0.0,))
    assert record.drop_counts == (1, 1)


def test_restrict_generic_keeps_degree():
    rng = np.random.default_rng(70)
    poly = random_multipoly(4, 5, rng)
    x1 = tuple(Fraction(int(v)) for v in rng.integers(-9, 10, size=4))
    x2 = tuple(Fraction(int(v)) for v in rng.integers(-9, 10, size=4))
    assert x1 != x2
    record = verify_order_preservation(poly, poly, 1, oracles.pair_sampler([(x1, x2)]))
    assert record.restricted_degrees == ((5.0,), (5.0,))
    assert record.drop_counts == (0, 0)


def test_restrict_agrees_with_direct_evaluation():
    rng = np.random.default_rng(71)
    sampler = oracles.dyadic_uniform_pair(3)
    alphas = [Fraction(0), Fraction(1), Fraction(1, 3), Fraction(-2, 5), Fraction(7, 4)]
    for _ in range(40):
        deg = int(rng.integers(2, 6))
        poly = random_multipoly(3, deg, rng, n_terms=5)
        x1, x2 = sampler(rng)
        restriction = oracles.restrict(poly, x1, x2)
        for a in alphas:
            assert horner(restriction, a) == oracles.evaluate(poly, exact_point(x1, x2, a))


def test_degree_drops_examples():
    # x1*x2 restricts to 3 + 3a along direction (1, 0) and to (1 + a)(1 + 2a) along (1, 2)
    poly = parse_poly("x1*x2")
    sampler = oracles.pair_sampler([
        ((Fraction(2), Fraction(3)), (Fraction(1), Fraction(3))),
        ((Fraction(2), Fraction(3)), (Fraction(1), Fraction(1))),
    ])
    record = verify_order_preservation(poly, poly, 2, sampler)
    assert record.restricted_degrees == ((1.0, 2.0), (1.0, 2.0))
    assert record.drop_counts == (1, 1)


def test_random_pairs_never_drop():
    # rational endpoints with 63-bit numerators make the drop set unreachable
    rng = np.random.default_rng(75)
    sampler = dyadic_uniform_pair_sampler(3)
    for seed in range(20):
        deg = int(rng.integers(2, 7))
        poly = random_multipoly(3, deg, rng)
        record = verify_order_preservation(poly, poly, 200, sampler, seed=seed)
        assert record.drop_counts == (0, 0)


def test_shared_coordinate_sampler_always_drops():
    poly = parse_poly("x1^2", dim=2)
    sampler = shared_coordinate_pair_sampler(2)
    _, x1, x2 = sampler(np.random.default_rng(76), 100)
    assert all(a == b for a, b in zip(x1[:, 0].tolist(), x2[:, 0].tolist()))
    record = verify_order_preservation(poly, poly, 100, sampler, seed=76)
    assert record.drop_counts == (100, 100)
    assert record.restricted_degrees == ((0.0,) * 100,) * 2


def test_order_preservation_generic_pair():
    rng = np.random.default_rng(77)
    p_high = random_multipoly(3, 5, rng)
    p_low = random_multipoly(3, 2, rng)
    record = verify_order_preservation(
        p_high, p_low, 200, dyadic_uniform_pair_sampler(3), seed=5
    )
    assert record.true_degrees == (5, 2)
    assert record.drop_counts == (0, 0)
    assert record.mean_degrees == (5.0, 2.0)
    assert record.ordered
    assert record.n_pairs == 200
    assert len(record.restricted_degrees[0]) == 200


def test_order_preservation_equal_polys():
    rng = np.random.default_rng(78)
    poly = random_multipoly(2, 3, rng)
    record = verify_order_preservation(
        poly, poly, 50, gaussian_pair_sampler(2), seed=6
    )
    assert record.mean_degrees[0] == record.mean_degrees[1]
    assert record.ordered


def test_order_preservation_rejects_zero_poly():
    with pytest.raises(ValueError):
        verify_order_preservation(
            MultiPoly(2), parse_poly("x1"), 5, gaussian_pair_sampler(2)
        )


def test_order_preservation_summary_keys():
    rng = np.random.default_rng(79)
    record = verify_order_preservation(
        random_multipoly(2, 3, rng),
        random_multipoly(2, 1, rng, n_terms=3),
        10,
        gaussian_pair_sampler(2),
    )
    s = record.summary()
    assert set(s) == {"true_degrees", "mean_degrees", "drop_counts", "n_pairs", "ordered"}


def integer_arrays(block) -> bool:
    """Every array is int64, or an object array of Python ints."""
    return all(
        arr.dtype == np.int64
        or arr.dtype == object and all(type(v) is int for v in arr.ravel().tolist())
        for arr in block
    )


def test_dyadic_sampler_range_and_denominator():
    block = dyadic_uniform_pair_sampler(4)(np.random.default_rng(80), 25)
    den, x1, x2 = block
    assert integer_arrays(block)
    assert den.shape == (25,) and x1.shape == x2.shape == (25, 4)
    assert den.dtype == object and x1.dtype == x2.dtype == np.int64
    assert all(d == 1 << 63 for d in den.tolist())


def test_gaussian_sampler_is_exact():
    # each row holds its standard normal draws exactly: x1 then x2
    ((x1, x2),) = oracles.endpoints(gaussian_pair_sampler(3)(np.random.default_rng(81), 1))
    assert [float(v) for v in x1 + x2] == np.random.default_rng(81).standard_normal(6).tolist()
    assert all(float(v) == v for v in x1 + x2)


def test_multipoly_exact_evaluation():
    poly = parse_poly("1/3*x1^2 - 2*x2 + 5/7")
    value = oracles.evaluate(poly, (Fraction(1, 2), Fraction(3, 5)))
    assert value == Fraction(1, 3) * Fraction(1, 4) - 2 * Fraction(3, 5) + Fraction(5, 7)


def test_multipoly_validation():
    with pytest.raises(ValueError):
        MultiPoly(0)
    with pytest.raises(ValueError):
        MultiPoly(2, {(1,): Fraction(1)})
    with pytest.raises(ValueError):
        MultiPoly(2, {(-1, 0): Fraction(1)})
    assert MultiPoly(2).is_zero() and MultiPoly(2).degree() == NEG_INF
    assert MultiPoly(2, {(1, 0): 0, (0, 2): Fraction(3, 4)}).terms == {(0, 2): Fraction(3, 4)}


def test_format_parse_round_trip():
    rng = np.random.default_rng(82)
    for _ in range(60):
        dim = int(rng.integers(1, 5))
        deg = int(rng.integers(0, 6))
        poly = random_multipoly(dim, deg, rng, n_terms=int(rng.integers(1, 7)))
        assert parse_poly(format_poly(poly), dim=dim) == poly
    assert format_poly(MultiPoly(3)) == "0"
    assert parse_poly("0").is_zero()


def test_parse_poly_examples():
    poly = parse_poly("3*x1^2*x2 - 1/2*x3 + 4")
    assert poly.dim == 3
    assert poly.terms[(2, 1, 0)] == 3
    assert poly.terms[(0, 0, 1)] == Fraction(-1, 2)
    assert poly.terms[(0, 0, 0)] == 4
    assert parse_poly("-x1") == MultiPoly(1, {(1,): -1})
    assert parse_poly("x1*x1") == MultiPoly(1, {(2,): 1})
    assert parse_poly("2/4") == MultiPoly(1, {(0,): Fraction(1, 2)})


def test_parse_error_positions():
    with pytest.raises(PolyParseError) as err:
        parse_poly("x1 + @")
    assert err.value.reason.startswith("expected a factor")
    assert (err.value.line, err.value.column) == (1, 6)

    with pytest.raises(PolyParseError) as err:
        parse_poly("1/0*x1")
    assert err.value.reason == "zero denominator"

    with pytest.raises(PolyParseError) as err:
        parse_poly("x0 + 1")
    assert err.value.reason == "variable indices start at 1"

    with pytest.raises(PolyParseError) as err:
        parse_poly("x3", dim=2)
    assert "exceeds dim" in err.value.reason

    with pytest.raises(PolyParseError):
        parse_poly("")
    with pytest.raises(PolyParseError):
        parse_poly("   ")
    with pytest.raises(PolyParseError) as err:
        parse_poly("x1 x2")
    assert "expected '+' or '-'" in err.value.reason
    with pytest.raises(PolyParseError):
        parse_poly("x1*")
    with pytest.raises(PolyParseError):
        parse_poly("x1^")


def test_parse_bundle_lines_and_errors():
    bundle = "# header comment\nx1 + x2\n\nx1^2 - x3\n"
    polys = parse_poly_bundle(bundle)
    assert len(polys) == 2
    assert all(p.dim == 3 for p in polys)

    with pytest.raises(PolyParseError) as err:
        parse_poly_bundle("x1\nx2\nx1 + @ + 1\n")
    assert (err.value.line, err.value.column) == (3, 6)

    with pytest.raises(PolyParseError):
        parse_poly_bundle("# only comments\n\n")

    with pytest.raises(PolyParseError) as err:
        parse_poly_bundle("x1\nx5\n", dim=2)
    assert err.value.line == 2


def test_random_multipoly_degree_by_construction():
    rng = np.random.default_rng(83)
    for _ in range(50):
        dim = int(rng.integers(1, 5))
        deg = int(rng.integers(0, 7))
        n_terms = int(rng.integers(1, 9))
        poly = random_multipoly(dim, deg, rng, n_terms=n_terms)
        assert poly.degree() == deg
        assert len(poly.terms) == min(n_terms, math.comb(deg + dim, dim))
        assert all(c != 0 and abs(c) <= 9 for c in poly.terms.values())
    with pytest.raises(ValueError):
        random_multipoly(2, -1, rng)
    with pytest.raises(ValueError):
        random_multipoly(2, 3, rng, n_terms=0)
    # dim 2 degree 1 has only three monomials, and the polynomial takes them all
    assert sorted(random_multipoly(2, 1, rng, n_terms=4).terms) == [(0, 0), (0, 1), (1, 0)]


# --- the integer core against the Fraction reference ------------------------

EXACT = settings(max_examples=80, deadline=None, derandomize=True, database=None)

coefficients = st.one_of(
    st.sampled_from([Fraction(1, 3), Fraction(-7, 4)]),
    st.fractions(-9, 9, max_denominator=24),
).filter(bool)


@st.composite
def exponents(draw, dim: int, total: int):
    cuts = sorted(draw(st.lists(st.integers(0, total), min_size=dim - 1, max_size=dim - 1)))
    bounds = [0, *cuts, total]
    return tuple(b - a for a, b in zip(bounds, bounds[1:]))


@st.composite
def polys(draw, dim: int):
    """Polynomials of exact total degree 0..6 with rational coefficients."""
    degree = draw(st.integers(0, 6))
    terms = {draw(exponents(dim, degree)): draw(coefficients)}
    for _ in range(draw(st.integers(0, 5))):
        terms[draw(exponents(dim, draw(st.integers(0, degree))))] = draw(coefficients)
    return MultiPoly(dim, terms)


def subnormal(k: int) -> Fraction:
    return Fraction(math.ldexp(k, -1074))


coordinates = st.one_of(
    st.fractions(-5, 5, max_denominator=60),
    st.integers(-(2**52) + 1, 2**52 - 1).map(subnormal),
    st.floats(-1e3, 1e3).map(Fraction),
)


@st.composite
def samplers(draw, dim: int):
    """A factory of fresh samplers: one of the three library samplers or hand-made pairs.

    Hand-made pairs mix denominators, Fraction(float) of subnormal floats,
    and collapsed pairs x1 == x2, on which every non-constant part drops.
    Small-integer pairs share many coordinates, so their steps have exact
    zero entries and their leading values often cancel to 0.
    """
    kind = draw(st.sampled_from(["gaussian", "dyadic", "shared", "small", "mixed", "collapsed"]))
    if kind == "gaussian":
        return lambda: gaussian_pair_sampler(dim)
    if kind == "dyadic":
        return lambda: dyadic_uniform_pair_sampler(dim)
    if kind == "shared":
        return lambda: shared_coordinate_pair_sampler(dim)
    if kind == "small":
        point = st.tuples(*[st.integers(-1, 1)] * dim)
        pairs = draw(st.lists(st.tuples(point, point), min_size=1, max_size=12))
        return lambda: oracles.pair_sampler(pairs)
    point = st.tuples(*[coordinates] * dim)
    pairs = draw(st.lists(st.tuples(point, point), min_size=1, max_size=4))
    if kind == "collapsed":
        pairs = [(x2, x2) for _, x2 in pairs]
    return lambda: oracles.pair_sampler(pairs)


@st.composite
def experiments(draw):
    dim = draw(st.integers(1, 6))
    return (
        draw(polys(dim)),
        draw(polys(dim)),
        draw(st.integers(1, 12)),
        draw(samplers(dim)),
        draw(st.integers(0, 2**32)),
    )


@EXACT
@given(case=experiments())
def test_restricted_degree_never_exceeds_total_degree(case):
    # drop_counts counts exactly the restricted degrees below the true degree
    poly_a, poly_b, n_pairs, sampler, seed = case
    record = verify_order_preservation(poly_a, poly_b, n_pairs, sampler(), seed=seed)
    for top, degrees, drops in zip(
        record.true_degrees, record.restricted_degrees, record.drop_counts
    ):
        assert all(d <= top for d in degrees)
        assert drops == sum(d < top for d in degrees)


@EXACT
@given(case=experiments())
def test_verify_record_equals_reference_loop(case):
    poly_a, poly_b, n_pairs, sampler, seed = case
    got = verify_order_preservation(poly_a, poly_b, n_pairs, sampler(), seed=seed)
    want = oracles.verify_order_preservation(poly_a, poly_b, n_pairs, sampler(), seed=seed)
    assert got == want


def test_verify_record_equals_reference_on_forced_drops():
    hyperplane = (Path(__file__).parent / "fixtures" / "hyperplane.txt").read_text(encoding="utf-8")
    low, high = parse_poly_bundle(hyperplane)
    for seed in range(3):
        got = verify_order_preservation(high, low, 40, shared_coordinate_pair_sampler(2), seed=seed)
        want = oracles.verify_order_preservation(
            high, low, 40, shared_coordinate_pair_sampler(2), seed=seed
        )
        assert got == want
        assert got.drop_counts == (40, 40)


def test_zero_restriction_is_recorded_as_degree_zero():
    # a collapsed pair at a root of poly: the restriction is the zero polynomial
    poly = parse_poly("x1^2 - x2")
    root = (Fraction(1, 3), Fraction(1, 9))
    record = verify_order_preservation(poly, poly, 3, oracles.pair_sampler([(root, root)]))
    assert oracles.restrict(poly, root, root) == ()
    assert record.restricted_degrees == ((0.0,) * 3, (0.0,) * 3)
    assert record.drop_counts == (3, 3)


def test_the_restricted_degree_is_the_last_nonzero_forward_difference():
    # on the line a (1, 1) the cubic parts cancel, leaving a^2 + a and a^2 - a:
    # at a = 0 the values are 0, the first differences 2 and 0, and only the
    # last nonzero difference, the second, gives the degree
    plus, minus = parse_poly("x1^3 - x2^3 + x1^2 + x1"), parse_poly("x1^3 - x2^3 + x1^2 - x1")
    pair = ((Fraction(1), Fraction(1)), (Fraction(0), Fraction(0)))
    assert oracles.restrict(plus, *pair) == (0, 1, 1)
    assert oracles.restrict(minus, *pair) == (0, -1, 1)
    record = verify_order_preservation(plus, minus, 2, oracles.pair_sampler([pair]))
    assert record.restricted_degrees == ((2.0, 2.0), (2.0, 2.0))
    assert record.drop_counts == (2, 2)


def test_a_step_given_exactly_over_its_den_drops():
    # x1 - 2*x2 vanishes along the step (1, 1/2), written (2, 1) over den 2
    poly = parse_poly("x1 - 2*x2")

    def sampler(rng, n):
        return np.full(n, 2), np.array([[2, 1]] * n), np.zeros((n, 2), dtype=np.int64)

    record = verify_order_preservation(poly, poly, 1, sampler)
    assert record.restricted_degrees == ((0.0,), (0.0,))
    assert record.drop_counts == (1, 1)


@pytest.mark.parametrize(
    "slot, arr, message",
    [
        (0, np.ones(3), "den has dtype float64, not an integer dtype or object"),
        (1, np.array([[1.0, 0.5]] * 3), "x1 has dtype float64"),
        (2, np.zeros((3, 2), dtype=bool), "x2 has dtype bool"),
        (1, np.array([[1, Fraction(1, 2)]] * 3, dtype=object), r"x1 .* holding \['Fraction'\]"),
        (2, np.array([[0, 0.0]] * 3, dtype=object), r"x2 is an object array holding \['float'\]"),
        (0, np.array([1, np.int64(1), 1], dtype=object), r"den .* holding \['int64'\], not only int"),
        (0, np.array([1, 0, 1]), "den must be positive, got 0 at row 1"),
        (0, np.array([1, 1, -(2**70)], dtype=object), f"got {-(2**70)} at row 2"),
    ],
    ids=[
        "float-den", "float-x1", "bool-x2", "object-fraction", "object-float",
        "object-numpy-int", "den-0", "den-negative",
    ],
)
def test_verify_rejects_a_block_that_is_not_integers_over_positive_dens(slot, arr, message):
    # a float x1 of (1.0, 0.5) would reach the int64 residues as the step (1, 0),
    # along which x1 - 2*x2 keeps its degree
    poly = parse_poly("x1 - 2*x2")
    block = [np.ones(3, dtype=np.int64), np.array([[2, 1]] * 3), np.zeros((3, 2), dtype=np.int64)]
    block[slot] = arr
    with pytest.raises(ValueError, match=message):
        verify_order_preservation(poly, poly, 3, lambda rng, n: tuple(block))


def test_verify_rejects_wrong_dimension_endpoints():
    poly = parse_poly("x1*x2")
    for x1, x2 in (([1, 2, 3], [0, 0]), ([1, 2], [0, 0, 0]), ([1], [0])):
        def sampler(rng, n, x1=x1, x2=x2):
            return np.ones(n, dtype=np.int64), np.array([x1] * n), np.array([x2] * n)

        with pytest.raises(ValueError, match="endpoint dimension mismatch") as err:
            verify_order_preservation(poly, poly, 3, sampler)
        want = f"expected den (3,) and x1, x2 (3, 2), got den (3,), x1 (3, {len(x1)})"
        assert want in str(err.value)


def test_verify_rejects_a_sampler_returning_the_wrong_row_count():
    poly = parse_poly("x1*x2")
    def block(n):
        return np.ones(n, dtype=np.int64), np.array([[1, 2]] * n), np.zeros((n, 2), dtype=np.int64)

    for count in (lambda n: n - 1, lambda n: n + 1):
        with pytest.raises(ValueError, match="sampler returned") as err:
            verify_order_preservation(poly, poly, 3, lambda rng, n: block(count(n)))
        assert f"expected den (3,) and x1, x2 (3, 2), got den ({count(3)},)" in str(err.value)
    # each block is checked as it arrives: a short second block stops the loop there
    calls = []

    def short_second_block(rng, n):
        calls.append(n)
        return block(n - (len(calls) == 2))

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(polylab, "_PAIR_BLOCK", 1)
        with pytest.raises(ValueError, match="sampler returned"):
            verify_order_preservation(poly, poly, 3, short_second_block)
    assert calls == [1, 1]


def test_order_preservation_rejects_mixed_dimensions_before_sampling():
    def sampler(rng, n):
        raise AssertionError("no pair may be drawn")

    with pytest.raises(ValueError, match="dim 2.*dim 3"):
        verify_order_preservation(parse_poly("x1*x2"), parse_poly("x3"), 5, sampler)


@pytest.mark.parametrize(
    "factory, args, message",
    [
        (gaussian_pair_sampler, (0,), "dim must be >= 1"),
        (dyadic_uniform_pair_sampler, (-1,), "dim must be >= 1"),
        (shared_coordinate_pair_sampler, (0,), "dim must be >= 1"),
    ],
    ids=["gaussian-dim-0", "dyadic-dim-minus-1", "shared-dim-0"],
)
def test_sampler_factories_reject_bad_settings(factory, args, message):
    with pytest.raises(ValueError, match=message):
        factory(*args)


def test_library_samplers_build_no_fraction(monkeypatch):
    poly = parse_poly("x1^2*x2 - 3*x3 + 1/2")
    built = []
    fraction_new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        built.append(args)
        return fraction_new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting_new)
    assert Fraction(1, 2) == Fraction(2, 4) and len(built) == 2
    built.clear()
    for sampler in (
        dyadic_uniform_pair_sampler(3),
        gaussian_pair_sampler(3),
        shared_coordinate_pair_sampler(3),
    ):
        verify_order_preservation(poly, poly, 40, sampler, seed=3)
    assert built == []


# --- batched rows against the one-pair Fraction samplers --------------------


@EXACT
@given(
    dim=st.integers(1, 6),
    seed=st.integers(0, 2**32),
    n=st.integers(1, 20),
    split=st.integers(0, 20),
)
def test_sampler_rows_equal_successive_reference_draws(dim, seed, n, split):
    # numpy buffers 32-bit draws in the bit generator, so the identity holds
    # across calls too: pairs drawn in two calls equal n one-pair draws
    split = min(split, n)
    for library, reference in (
        (gaussian_pair_sampler(dim), oracles.gaussian_pair(dim)),
        (dyadic_uniform_pair_sampler(dim), oracles.dyadic_uniform_pair(dim)),
        (shared_coordinate_pair_sampler(dim), oracles.shared_coordinate_pair(dim)),
    ):
        rng = sampling.rng(seed)
        blocks = library(rng, split), library(rng, n - split)
        assert all(integer_arrays(block) for block in blocks)
        rng = sampling.rng(seed)
        pairs = oracles.endpoints(blocks[0]) + oracles.endpoints(blocks[1])
        assert pairs == [reference(rng) for _ in range(n)]


@EXACT
@given(case=experiments())
def test_verify_record_does_not_depend_on_the_block_size(case):
    poly_a, poly_b, n_pairs, sampler, seed = case
    want = verify_order_preservation(poly_a, poly_b, n_pairs, sampler(), seed=seed)
    with pytest.MonkeyPatch.context() as mp:
        for block in (1, 3, 7):
            mp.setattr(polylab, "_PAIR_BLOCK", block)
            assert verify_order_preservation(poly_a, poly_b, n_pairs, sampler(), seed=seed) == want


def test_the_gaussian_conversion_is_exact_on_chosen_floats():
    # signed zeros, integers, a non-dyadic decimal, the least subnormal and
    # normal, an integer past 2**53 and a huge float, alone and side by side
    chosen = [0.0, -0.0, 1.0, -1.0, 0.1, -2.5, 2.0**-1074, 2.0**-1022, 2.0**53 + 2, 1e300]
    for draws in (np.array([chosen, chosen[::-1]]), np.array(list(itertools.product(chosen, repeat=2)))):
        den, nums = polylab._dyadic_rows(draws)
        assert integer_arrays((den, nums))
        assert den.shape == draws.shape[:1] and nums.shape == draws.shape
        assert all(d > 0 for d in den.tolist())
        for d, row, values in zip(den.tolist(), nums.tolist(), draws.tolist()):
            assert [Fraction(v, d) for v in row] == [Fraction(v) for v in values]


# --- the residue certificate -------------------------------------------------


def spy_on_the_exact_path(monkeypatch) -> list:
    """The steps of every row verify sends to _exact_degrees, in call order."""
    steps = []
    exact_degrees = polylab._exact_degrees

    def spy(ipoly, den, base, step):
        steps.extend(step.tolist())
        return exact_degrees(ipoly, den, base, step)

    monkeypatch.setattr(polylab, "_exact_degrees", spy)
    return steps


@pytest.mark.parametrize("dtype", [np.int64, object], ids=["int64", "object"])
def test_a_leading_value_that_is_a_multiple_of_the_prime_keeps_its_degree(monkeypatch, dtype):
    # steps (p, 0), (-p, 0), (2p, 0): the leading values of x1 and of
    # x1^2 - 3*x2^2 + x2 are nonzero multiples of p, so their residues are 0
    # and only the exact path can show that both polynomials keep their degree
    p = polylab._PRIME
    exact = spy_on_the_exact_path(monkeypatch)

    def sampler(rng, n):
        x1 = np.array([[p, 3], [-p, 5], [2 * p, -1]] * n, dtype=dtype)[:n]
        x2 = np.array([[0, 3], [0, 5], [0, -1]] * n, dtype=dtype)[:n]
        return np.ones(n, dtype=dtype), x1, x2

    poly_a = parse_poly("x1", dim=2)
    poly_b = parse_poly("x1^2 - 3*x2^2 + x2")
    record = verify_order_preservation(poly_a, poly_b, 3, sampler)
    assert record.restricted_degrees == ((1.0,) * 3, (2.0,) * 3)
    assert record.drop_counts == (0, 0)
    assert exact == [[p, 0], [-p, 0], [2 * p, 0]] * 2


@EXACT
@given(case=experiments())
def test_verify_record_equals_reference_when_the_prime_is_three(case):
    # modulo 3 about a third of the generic rows have a zero residue and run the exact path
    poly_a, poly_b, n_pairs, sampler, seed = case
    want = oracles.verify_order_preservation(poly_a, poly_b, n_pairs, sampler(), seed=seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(polylab, "_PRIME", 3)
        assert verify_order_preservation(poly_a, poly_b, n_pairs, sampler(), seed=seed) == want


def test_the_forced_pair_is_certified_without_python_ints(monkeypatch):
    # along a step whose x1 entry is 0, x1^2 + x2 and x1^3 - x2 restrict to
    # degree-1 polynomials whose a-coefficient den^k * s_2 has a nonzero residue
    hyperplane = (Path(__file__).parent / "fixtures" / "hyperplane.txt").read_text(encoding="utf-8")
    low, high = parse_poly_bundle(hyperplane)
    exact = spy_on_the_exact_path(monkeypatch)
    for seed in range(3):
        record = verify_order_preservation(high, low, 40, shared_coordinate_pair_sampler(2), seed=seed)
        assert record.drop_counts == (40, 40)
    assert exact == []


def test_a_cancelling_coefficient_on_a_zero_step_takes_the_exact_path(monkeypatch):
    # both pairs share x1 = 1, so x1*x2 and x2 both have degree 1 in a and their
    # a-coefficients cancel: den^0 * x1 * s_2 - den * s_2 = 0, and the exact
    # path finds the restriction x2 (x1 - 1) to be zero
    poly = parse_poly("x1*x2 - x2")
    pairs = [
        ((Fraction(1), Fraction(2)), (Fraction(1), Fraction(-3))),
        ((Fraction(1), Fraction(1, 3)), (Fraction(1), Fraction(5))),
    ]
    exact = spy_on_the_exact_path(monkeypatch)
    record = verify_order_preservation(poly, poly, 4, oracles.pair_sampler(pairs))
    assert exact == [[0, 5], [0, -14]] * 4
    assert record.restricted_degrees == ((0.0,) * 4, (0.0,) * 4)
    assert record.mean_degrees == (0.0, 0.0)
    assert record == oracles.verify_order_preservation(poly, poly, 4, oracles.pair_sampler(pairs))
