"""Exact rational polynomials and the order-preservation experiment.

The lab exists to check one structural fact with no floating point in the
loop: restricting a polynomial P of total degree D to the line
x2 + a (x1 - x2) keeps degree D in a exactly when the leading homogeneous
part of P does not vanish at v = x1 - x2.  Degree drops are therefore a
measure-zero event for generic endpoints, and average restricted degrees
preserve the ordering of true degrees; verify_order_preservation measures
both over sampled endpoint pairs.

A polynomial is a dict from exponent tuples to Fraction coefficients; zero
coefficients are never stored.  The zero polynomial has degree -inf.

Fraction is the polynomial interface, not the arithmetic.  verify's loop
runs in Python integers: each polynomial is compiled once to integer
coefficients over the lcm of their denominators, and a sampler returns
endpoint pairs, _PAIR_BLOCK at a time from one numpy call, as integer rows
(den, base, step) with base = x2 * den and step = (x1 - x2) * den.  Every
value the loop computes is then the exact one times a positive integer, so
no test it makes needs a division.  For each pair and polynomial it
evaluates the leading part at the step first: a nonzero value means degree
D is kept, and only a zero value runs the full restriction to find the
degree the polynomial dropped to.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from . import sampling

__all__ = [
    "NEG_INF",
    "MultiPoly",
    "OrderPreservationRecord",
    "verify_order_preservation",
    "gaussian_pair_sampler",
    "dyadic_uniform_pair_sampler",
    "shared_coordinate_pair_sampler",
    "random_multipoly",
    "PolyParseError",
    "parse_poly",
    "parse_poly_bundle",
    "format_poly",
]

NEG_INF = float("-inf")

Exponent = tuple[int, ...]


def _canonical(terms: dict) -> dict[Exponent, Fraction]:
    out = {}
    for exp, coef in terms.items():
        coef = Fraction(coef)
        if coef != 0:
            out[tuple(int(e) for e in exp)] = coef
    return out


class MultiPoly:
    """Sparse exact polynomial in a fixed number of variables; MultiPoly(dim) is zero."""

    __slots__ = ("dim", "terms")

    def __init__(self, dim: int, terms: dict | None = None):
        dim = int(dim)
        if dim < 1:
            raise ValueError("dim must be >= 1")
        terms = _canonical(terms or {})
        for exp in terms:
            if len(exp) != dim or any(e < 0 for e in exp):
                raise ValueError(f"bad exponent tuple {exp} for dim {dim}")
        self.dim = dim
        self.terms = terms

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> float:
        """Total degree; -inf for the zero polynomial."""
        if not self.terms:
            return NEG_INF
        return max(sum(exp) for exp in self.terms)

    def __eq__(self, other):
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.dim == other.dim and self.terms == other.terms

    def __repr__(self):
        return f"MultiPoly({self.dim}, {format_poly(self)!r})"


def _binomial_power(a: int, b: int, e: int) -> list[int]:
    """Coefficient list of (a + b t)^e in t."""
    return [math.comb(e, j) * a ** (e - j) * b**j for j in range(e + 1)]


def _convolve(u: list[int], v: list[int]) -> list[int]:
    out = [0] * (len(u) + len(v) - 1)
    for i, ui in enumerate(u):
        if not ui:
            continue
        for j, vj in enumerate(v):
            out[i + j] += ui * vj
    return out


class _IntPoly(NamedTuple):
    """poly = (sum of c * x^e over terms) / scale, every c an integer.

    scale is the lcm of poly's denominators; nothing divides by it, so it
    is not kept.  A term is (c, ((i, e_i) for the nonzero exponents), total
    degree); lead holds the (c, exponents) of the terms of top degree.
    """

    top: int
    terms: tuple
    lead: tuple


def _compile(poly: MultiPoly) -> _IntPoly:
    """Integer form of a nonzero poly."""
    scale = math.lcm(*(c.denominator for c in poly.terms.values()))
    terms = tuple(
        (
            c.numerator * (scale // c.denominator),
            tuple((i, e) for i, e in enumerate(exp) if e),
            sum(exp),
        )
        for exp, c in poly.terms.items()
    )
    top = max(deg for _, _, deg in terms)
    lead = tuple((c, exps) for c, exps, deg in terms if deg == top)
    return _IntPoly(top, terms, lead)


def _leading_value(ipoly: _IntPoly, step: list[int]) -> int:
    """scale * den^top times the leading part of poly at x1 - x2."""
    total = 0
    for c, exps in ipoly.lead:
        for i, e in exps:
            c *= step[i] ** e
        total += c
    return total


def _restrict_ints(ipoly: _IntPoly, den: int, base: list[int], step: list[int]) -> list[int]:
    """Coefficients in a of scale * den^top * poly(x2 + a (x1 - x2)).

    Term c x^e contributes c * den^(top - |e|) * prod_i (base_i + step_i a)^e_i.
    """
    acc = [0] * (ipoly.top + 1)
    for c, exps, deg in ipoly.terms:
        factor = [c * den ** (ipoly.top - deg)]
        for i, e in exps:
            factor = _convolve(factor, _binomial_power(base[i], step[i], e))
        for k, v in enumerate(factor):
            acc[k] += v
    return acc


@dataclass(frozen=True)
class OrderPreservationRecord:
    """Outcome of one order-preservation experiment on a polynomial pair."""

    true_degrees: tuple[int, int]
    restricted_degrees: tuple[tuple[float, ...], tuple[float, ...]]
    mean_degrees: tuple[float, float]
    drop_counts: tuple[int, int]
    n_pairs: int
    ordered: bool

    def summary(self) -> dict:
        return {
            "true_degrees": list(self.true_degrees),
            "mean_degrees": list(self.mean_degrees),
            "drop_counts": list(self.drop_counts),
            "n_pairs": self.n_pairs,
            "ordered": self.ordered,
        }


def _restricted_degree(ipoly: _IntPoly, den: int, base: list[int], step: list[int]) -> float:
    if _leading_value(ipoly, step):
        return float(ipoly.top)
    acc = _restrict_ints(ipoly, den, base, step)
    # the zero restriction is recorded as degree 0 so averages stay finite
    return float(max((k for k, c in enumerate(acc) if c), default=0))


# verify draws its endpoint rows this many pairs at a time, bounding their memory
_PAIR_BLOCK = 1024


def verify_order_preservation(
    poly_a: MultiPoly,
    poly_b: MultiPoly,
    n_pairs: int,
    sampler,
    seed: int = 0,
) -> OrderPreservationRecord:
    """Compare average restricted degrees of two polynomials over shared endpoints.

    sampler(rng, n) returns n endpoint rows (den, base, step) of Python ints,
    den > 0 and base = x2 * den, step = (x1 - x2) * den lists of dim ints, and
    is asked for at most _PAIR_BLOCK rows at a time.  The record is 'ordered'
    when the sample means relate the same way the true total degrees do.
    """
    if poly_a.is_zero() or poly_b.is_zero():
        raise ValueError("order preservation needs nonzero polynomials")
    if poly_a.dim != poly_b.dim:
        raise ValueError(
            f"polynomials differ in dimension: poly_a has dim {poly_a.dim}, "
            f"poly_b has dim {poly_b.dim}"
        )
    if n_pairs < 1:
        raise ValueError("n_pairs must be >= 1")
    rng = sampling.rng(seed)
    ipolys = (_compile(poly_a), _compile(poly_b))
    degs_a: list[float] = []
    degs_b: list[float] = []
    drops = [0, 0]
    for start in range(0, n_pairs, _PAIR_BLOCK):
        for den, base, step in sampler(rng, min(_PAIR_BLOCK, n_pairs - start)):
            if len(base) != poly_a.dim or len(step) != poly_a.dim:
                raise ValueError("endpoint dimension mismatch")
            for slot, ipoly, sink in ((0, ipolys[0], degs_a), (1, ipolys[1], degs_b)):
                d = _restricted_degree(ipoly, den, base, step)
                sink.append(d)
                if d < ipoly.top:
                    drops[slot] += 1
    if len(degs_a) != n_pairs:
        raise ValueError(f"sampler returned {len(degs_a)} rows for {n_pairs} pairs")
    mean_a = float(np.mean(degs_a))
    mean_b = float(np.mean(degs_b))
    da, db = int(poly_a.degree()), int(poly_b.degree())
    if da > db:
        ordered = mean_a > mean_b
    elif da < db:
        ordered = mean_a < mean_b
    else:
        ordered = mean_a == mean_b
    return OrderPreservationRecord(
        true_degrees=(da, db),
        restricted_degrees=(tuple(degs_a), tuple(degs_b)),
        mean_degrees=(mean_a, mean_b),
        drop_counts=(drops[0], drops[1]),
        n_pairs=n_pairs,
        ordered=ordered,
    )


def gaussian_pair_sampler(dim: int):
    """Endpoint pairs from exact dyadic rationals of standard normal draws."""
    if dim < 1:
        raise ValueError("dim must be >= 1")

    def sample(rng: np.random.Generator, n: int) -> list:
        rows = []
        for draw in rng.standard_normal((n, 2 * dim)).tolist():
            # every denominator is a power of two, so the largest is their lcm
            ratios = [v.as_integer_ratio() for v in draw]
            den = max(d for _, d in ratios)
            nums = [p * (den // d) for p, d in ratios]
            rows.append((den, nums[dim:], [a - b for a, b in zip(nums, nums[dim:])]))
        return rows

    return sample


def dyadic_uniform_pair_sampler(dim: int, bits: int = 63):
    """Endpoint pairs with coordinates k / 2^bits, k uniform on [-2^bits, 2^bits - 1].

    bits is an integer in 0..63, so that k fits numpy's int64; each row's den is 2^bits.
    """
    if dim < 1:
        raise ValueError("dim must be >= 1")
    if not isinstance(bits, (int, np.integer)) or not 0 <= bits <= 63:
        raise ValueError(f"bits must be an integer in 0..63, got {bits!r}")
    den = 1 << int(bits)

    def sample(rng: np.random.Generator, n: int) -> list:
        nums = rng.integers(-den, den - 1, size=(n, 2, dim), dtype=np.int64, endpoint=True)
        return [(den, x2, [a - b for a, b in zip(x1, x2)]) for x1, x2 in nums.tolist()]

    return sample


def shared_coordinate_pair_sampler(dim: int, coordinate: int = 0):
    """Adversarial gaussian pairs with one shared coordinate, so that direction entry is 0.

    Any polynomial whose leading part is a power of that coordinate drops
    degree on every such pair.
    """
    gaussian = gaussian_pair_sampler(dim)
    if not isinstance(coordinate, (int, np.integer)) or not 0 <= coordinate < dim:
        raise ValueError(f"coordinate must be an integer in 0..{dim - 1}, got {coordinate!r}")

    def sample(rng: np.random.Generator, n: int) -> list:
        rows = gaussian(rng, n)
        for _, _, step in rows:
            step[coordinate] = 0
        return rows

    return sample


# random_multipoly's coefficients are nonzero integers in [-_COEFF_BOUND, _COEFF_BOUND]
_COEFF_BOUND = 9


def random_multipoly(
    dim: int,
    degree: int,
    rng: np.random.Generator,
    n_terms: int = 8,
) -> MultiPoly:
    """Random polynomial of exact total degree, small nonzero integer coefficients and
    min(n_terms, C(degree + dim, dim)) terms: never more than there are monomials."""
    if dim < 1:
        raise ValueError("dim must be >= 1")
    if degree < 0:
        raise ValueError("degree must be >= 0")
    if n_terms < 1:
        raise ValueError("n_terms must be >= 1")
    n_terms = min(n_terms, math.comb(degree + dim, dim))
    probs = np.full(dim, 1.0 / dim)

    def draw_coef() -> Fraction:
        c = 0
        while c == 0:
            c = int(rng.integers(-_COEFF_BOUND, _COEFF_BOUND, endpoint=True))
        return Fraction(c)

    terms: dict[Exponent, Fraction] = {}
    top = tuple(int(e) for e in rng.multinomial(degree, probs))
    terms[top] = draw_coef()
    while len(terms) < n_terms:
        total = int(rng.integers(0, degree, endpoint=True))
        exp = tuple(int(e) for e in rng.multinomial(total, probs))
        if exp in terms:
            continue
        terms[exp] = draw_coef()
    return MultiPoly(dim, terms)


class PolyParseError(ValueError):
    """Input text is not a valid polynomial expression.

    line and column are 1-based and point at the offending character; for
    bundle input, line is the line number within the whole file.
    """

    def __init__(self, message: str, line: int = 1, column: int = 1):
        super().__init__(f"{message} (line {line}, column {column})")
        self.reason = message
        self.line = line
        self.column = column


class _Parser:
    # grammar: poly := ['+'|'-'] term (('+'|'-') term)*
    #          term := factor ('*' factor)*
    #          factor := rational | 'x' INT ['^' INT]
    #          rational := INT ['/' INT]

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, message: str):
        line = self.text.count("\n", 0, self.pos) + 1
        column = self.pos - self.text.rfind("\n", 0, self.pos)
        raise PolyParseError(message, line, column)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take_int(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            self.error("expected an integer")
        return int(self.text[start : self.pos])

    def parse(self) -> list[tuple[Fraction, dict[int, int]]]:
        terms = []
        self.skip_ws()
        if not self.peek():
            self.error("empty polynomial")
        sign = 1
        if self.peek() in "+-":
            sign = -1 if self.peek() == "-" else 1
            self.pos += 1
        terms.append(self.parse_term(sign))
        self.skip_ws()
        while self.peek():
            op = self.peek()
            if op not in "+-":
                self.error(f"expected '+' or '-', found {op!r}")
            self.pos += 1
            terms.append(self.parse_term(-1 if op == "-" else 1))
            self.skip_ws()
        return terms

    def parse_term(self, sign: int) -> tuple[Fraction, dict[int, int]]:
        coef = Fraction(sign)
        powers: dict[int, int] = {}
        while True:
            self.skip_ws()
            ch = self.peek()
            if ch == "x":
                self.pos += 1
                index = self.take_int()
                if index < 1:
                    self.error("variable indices start at 1")
                power = 1
                if self.peek() == "^":
                    self.pos += 1
                    power = self.take_int()
                powers[index - 1] = powers.get(index - 1, 0) + power
            elif ch.isdigit():
                num = self.take_int()
                den = 1
                self.skip_ws()
                if self.peek() == "/":
                    self.pos += 1
                    den = self.take_int()
                    if den == 0:
                        self.error("zero denominator")
                coef *= Fraction(num, den)
            else:
                self.error(f"expected a factor, found {ch!r}" if ch else "expected a factor")
            self.skip_ws()
            if self.peek() == "*":
                self.pos += 1
                continue
            return coef, powers


def parse_poly(text: str, dim: int | None = None) -> MultiPoly:
    """Parse text like '3*x1^2*x2 - 1/2*x3 + 4' into an exact polynomial.

    Variables are written x1..xd.  When dim is omitted the largest index
    present sets it (at least 1).
    """
    raw_terms = _Parser(text).parse()
    max_index = 0
    for _, powers in raw_terms:
        if powers:
            max_index = max(max_index, max(powers) + 1)
    if dim is None:
        dim = max(max_index, 1)
    elif max_index > dim:
        raise PolyParseError(
            f"variable x{max_index} exceeds dim {dim}",
            text.count("\n") + 1,
            len(text) - text.rfind("\n"),
        )
    terms: dict[Exponent, Fraction] = {}
    for coef, powers in raw_terms:
        exp = tuple(powers.get(k, 0) for k in range(dim))
        terms[exp] = terms.get(exp, Fraction(0)) + coef
    return MultiPoly(dim, terms)


def parse_poly_bundle(text: str, dim: int | None = None) -> list[MultiPoly]:
    """Parse one polynomial per nonempty, non-comment line, sharing one dim.

    Lines starting with '#' are comments.  The common dimension is the
    largest variable index used anywhere unless dim is given.  Parse errors
    carry the line number within the bundle.
    """
    entries = [
        (lineno, ln)
        for lineno, ln in enumerate(text.splitlines(), start=1)
        if ln.strip() and not ln.lstrip().startswith("#")
    ]
    if not entries:
        raise PolyParseError("no polynomials in input")

    def parse_line(lineno: int, ln: str, use_dim: int | None) -> MultiPoly:
        try:
            return parse_poly(ln, dim=use_dim)
        except PolyParseError as exc:
            raise PolyParseError(exc.reason, lineno, exc.column) from exc

    if dim is None:
        dim = 1
        for lineno, ln in entries:
            dim = max(dim, parse_line(lineno, ln, None).dim)
    return [parse_line(lineno, ln, dim) for lineno, ln in entries]


def format_poly(poly: MultiPoly) -> str:
    """Render a polynomial in the same syntax parse_poly accepts."""
    if poly.is_zero():
        return "0"
    parts = []
    for exp in sorted(poly.terms, key=lambda e: (-sum(e), tuple(-v for v in e))):
        coef = poly.terms[exp]
        factors = []
        if abs(coef) != 1 or not any(exp):
            factors.append(str(abs(coef)))
        for k, e in enumerate(exp):
            if e == 1:
                factors.append(f"x{k + 1}")
            elif e > 1:
                factors.append(f"x{k + 1}^{e}")
        text = "*".join(factors)
        parts.append(("- " if coef < 0 else "+ ") + text)
    joined = " ".join(parts)
    return joined[2:] if joined.startswith("+ ") else "-" + joined[2:]
