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
runs in integers: each polynomial is compiled once to integer coefficients
over the lcm of their denominators, and a sampler returns endpoint pairs,
_PAIR_BLOCK at a time, as integer arrays (den, x1, x2): den is (n,) and
positive, x1 and x2 are (n, dim), and pair k runs from x2[k] / den[k] to
x1[k] / den[k].  An array is int64 where every value fits and otherwise an
object array of Python ints.  Along the step s = x1 - x2, the restriction
scaled by den is an integer polynomial g(a) of degree at most D.  Where
s_i = 0, read exactly as x1_i == x2_i, coordinate i stays at x2_i, so a term
of g has degree n_t, the sum of its exponents over the coordinates with
s_i != 0; g has degree at most d = max n_t, and its coefficient of a^d is an
integer L built from the s_i, the x2_i and den.  With no zero step entry,
d = D and L is the leading part of the polynomial at s.  verify takes every
row's L modulo the prime _PRIME in int64 arithmetic, for the whole block at
once: a nonzero residue proves degree d, and d = 0 means g is constant.
Only the rows with d > 0 and a zero residue are converted to Python ints.
There g is evaluated at a = 0..D, and its degree is the last k whose k-th
forward difference at a = 0 is nonzero: that difference is k! times the
leading coefficient of g, and every higher one is zero.  So no test the loop
makes needs a division or a float.  The gaussian sampler converts a whole
block of normal draws in one pass: np.frexp splits them into 53-bit integer
mantissas and exponents, and shifts of those give each row a power-of-two
den and its numerators as Python ints.
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


class _IntPoly(NamedTuple):
    """poly = (sum of c * x^e over terms) / scale, every c an integer.

    scale is the lcm of poly's denominators; nothing divides by it, so it
    is not kept.  A term is (c, ((i, e_i) for the nonzero exponents), total
    degree).
    """

    top: int
    terms: tuple


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
    return _IntPoly(max(deg for _, _, deg in terms), terms)


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


# verify draws its endpoint arrays this many pairs at a time, bounding their memory
_PAIR_BLOCK = 1024
# verify's residue test works modulo this prime: residues are below 2**31, so
# the product of two is below 2**62 and no int64 operation wraps
_PRIME = 2**31 - 1


def _check_block(block, m: int, dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (den, x1, x2) arrays of a sampler's block of m pairs, or ValueError.

    A float array would reach the int64 residues truncated, so each array must
    be of an integer dtype or hold only Python ints, and every den be positive.
    """
    arrays = den, x1, x2 = tuple(np.asarray(a) for a in block)
    want = ((m,), (m, dim), (m, dim))
    got = (den.shape, x1.shape, x2.shape)
    if got != want:
        problem = (
            "endpoint dimension mismatch"
            if all(shape[:1] == (m,) for shape in got)
            else f"sampler returned a block of the wrong size for {m} pairs"
        )
        raise ValueError(
            f"{problem}: expected den {want[0]} and x1, x2 {want[1]}, "
            f"got den {got[0]}, x1 {got[1]}, x2 {got[2]}"
        )
    for name, arr in zip(("den", "x1", "x2"), arrays):
        if arr.dtype == object:
            kinds = set(map(type, arr.flat)) - {int}
            if kinds:
                held = sorted(kind.__name__ for kind in kinds)
                raise ValueError(f"{name} is an object array holding {held}, not only int")
        elif not np.issubdtype(arr.dtype, np.integer):
            raise ValueError(f"{name} has dtype {arr.dtype}, not an integer dtype or object")
    if (den <= 0).any():
        k = int(np.flatnonzero(den <= 0)[0])
        raise ValueError(f"den must be positive, got {den[k]} at row {k}")
    return den, x1, x2


def _certificate(
    ipoly: _IntPoly,
    nonzero: np.ndarray,
    powers: list[np.ndarray],
    den_powers: list[np.ndarray] | None,
) -> tuple[np.ndarray, np.ndarray]:
    """Each row's restricted degree where a residue proves it, and the rows left open.

    Along a row's step s, term t of g(a) = scale * den^top * poly((x2 + a s) / den)
    has degree n_t, the sum of its exponents over the coordinates where
    s_i != 0 (nonzero, (m, dim) bool).  So g has degree at most d = max_t n_t,
    and its coefficient of a^d sums, over the terms with n_t = d,
    c * den^(top - deg) * prod of b_i^e_i, where b_i is s_i if s_i != 0 and
    x2_i otherwise.  powers[e] holds the (m, dim) b to the e and den_powers[k]
    the (m,) den^k, modulo _PRIME.  den_powers is None when no s_i is 0:
    then every n_t is its term's degree, so d = top, and the coefficient is
    poly's leading part at s.  A nonzero residue proves degree d, and
    d = 0 means g is constant, recorded as degree 0.  Returns every d as a
    float and the mask of rows with d > 0 and a zero residue.
    """
    m = len(nonzero)
    if den_powers is None:
        d = np.full(m, float(ipoly.top))
        reaching = [(term, True) for term in ipoly.terms if term[2] == ipoly.top]
    else:
        n = np.zeros((len(ipoly.terms), m))
        for t, (_, exps, _) in enumerate(ipoly.terms):
            for i, e in exps:
                n[t] += e * nonzero[:, i]
        d = n.max(axis=0)
        reaching = [(term, rows) for term, rows in zip(ipoly.terms, n == d) if rows.any()]
    total = np.zeros(m, dtype=np.int64)
    # rows is a mask of the rows where the term reaches d, or True for every row
    for (c, exps, deg), rows in reaching:
        term = rows * (c % _PRIME)
        if deg < ipoly.top:
            term = term * den_powers[ipoly.top - deg] % _PRIME
        for i, e in exps:
            term = term * powers[e][:, i] % _PRIME
        total = (total + term) % _PRIME
    return d, (total == 0) & (d > 0)


def _powers(residues: np.ndarray, top: int) -> list[np.ndarray]:
    """residues to the 0..top, modulo _PRIME."""
    powers = [np.ones_like(residues)]
    for _ in range(top):
        powers.append(powers[-1] * residues % _PRIME)
    return powers


def _exact_degrees(
    ipoly: _IntPoly, den: np.ndarray, base: np.ndarray, step: np.ndarray
) -> np.ndarray:
    """Each row's restricted degree, from (r,) den and (r, dim) base and step of Python ints.

    g(a) = scale * den^top * poly((base + a step) / den) is an integer
    polynomial of degree d <= top, evaluated at a = 0..top; d is the last k
    whose k-th forward difference at 0 is nonzero (lower ones can vanish).
    The zero restriction is recorded as degree 0 so averages stay finite.
    """
    points = base + np.arange(ipoly.top + 1, dtype=object)[:, None, None] * step
    values = np.zeros(points.shape[:2], dtype=object)
    for c, exps, deg in ipoly.terms:
        term = c * den ** (ipoly.top - deg)
        for i, e in exps:
            term = term * points[:, :, i] ** e
        values = values + term
    degrees = np.zeros(len(den))
    for k in range(ipoly.top + 1):
        degrees[values[0] != 0] = k
        values = values[1:] - values[:-1]
    return degrees


def verify_order_preservation(
    poly_a: MultiPoly,
    poly_b: MultiPoly,
    n_pairs: int,
    sampler,
    seed: int = 0,
) -> OrderPreservationRecord:
    """Compare average restricted degrees of two polynomials over shared endpoints.

    sampler(rng, n) returns the integer arrays (den, x1, x2) of n endpoint
    pairs: den is (n,) and positive, x1 and x2 are (n, dim), and pair k runs
    from x2[k] / den[k] to x1[k] / den[k].  Each array is int64 or an object
    array of Python ints.  The sampler is asked for at most _PAIR_BLOCK pairs
    at a time, and a block of any other shape, of any other dtype, or with a
    den <= 0 raises ValueError before any arithmetic.  Along a pair's step
    s = x1 - x2 the restriction, scaled to an integer polynomial g(a), has
    degree at most d, the largest sum of a term's exponents over the
    coordinates where s_i != 0 (read exactly, as x1_i != x2_i); with no zero
    entry, d is the true degree.  For the whole block at once, each
    polynomial's coefficient of a^d in g is taken modulo the prime _PRIME in
    int64: a nonzero residue proves the integer nonzero, so that pair has
    degree d, and d = 0 makes g constant, recorded as degree 0.  On pairs
    with d > 0 and a zero residue, g is evaluated in Python ints at
    a = 0..top; its degree is the last k whose k-th forward difference at 0
    is nonzero, since the k-th difference of a polynomial of degree k is a
    nonzero constant and every higher one is zero.  The record is 'ordered'
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
    top = max(ipoly.top for ipoly in ipolys)
    degrees: tuple[list[float], list[float]] = ([], [])
    drops = [0, 0]
    for start in range(0, n_pairs, _PAIR_BLOCK):
        m = min(_PAIR_BLOCK, n_pairs - start)
        den, x1, x2 = _check_block(sampler(rng, m), m, poly_a.dim)
        # which step entries are 0 is read exactly, before any residue is taken
        nonzero = x1 != x2
        x2_res = np.remainder(x2, _PRIME).astype(np.int64)
        steps = (np.remainder(x1, _PRIME).astype(np.int64) - x2_res) % _PRIME
        bases, den_powers = steps, None
        if not nonzero.all():
            bases = np.where(nonzero, steps, x2_res)
            den_powers = _powers(np.remainder(den, _PRIME).astype(np.int64), top)
        powers = _powers(bases, top)
        certified = [_certificate(ipoly, nonzero, powers, den_powers) for ipoly in ipolys]
        # only the rows some residue leaves open become Python ints, once for both
        exact = np.flatnonzero(certified[0][1] | certified[1][1])
        den_e, x1_e, x2_e = (col[exact].astype(object) for col in (den, x1, x2))
        step_e = x1_e - x2_e
        for slot, (ipoly, (block, open_mask)) in enumerate(zip(ipolys, certified)):
            open_rows = open_mask[exact]
            if open_rows.any():
                block[exact[open_rows]] = _exact_degrees(
                    ipoly, den_e[open_rows], x2_e[open_rows], step_e[open_rows]
                )
            drops[slot] += int(np.count_nonzero(block < ipoly.top))
            degrees[slot].extend(block.tolist())
    degs_a, degs_b = degrees
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


def _dyadic_rows(draws: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(den, nums) object arrays of Python ints with nums[k] / den[k] == draws[k] exactly.

    Every finite float v is M / 2^(53 - e) for its 53-bit integer mantissa
    M and np.frexp exponent e.  A row's den is 2^k for the largest 53 - e in
    the row, or 1 if that is negative, so every numerator is M shifted left
    by a nonnegative count.  The den need not be the least one.
    """
    mantissas, exps = np.frexp(draws)
    shifts = 53 - exps.astype(np.int64)
    k = np.maximum(shifts.max(axis=1), 0)
    den = np.left_shift(1, k.astype(object))
    nums = np.ldexp(mantissas, 53).astype(np.int64).astype(object)
    return den, np.left_shift(nums, (k[:, None] - shifts).astype(object))


def gaussian_pair_sampler(dim: int):
    """Endpoint pairs from exact dyadic rationals of standard normal draws.

    Every array is an object array of Python ints: a row's den is a power of
    two that clears every draw in it, which can exceed int64.
    """
    if dim < 1:
        raise ValueError("dim must be >= 1")

    def sample(rng: np.random.Generator, n: int):
        den, nums = _dyadic_rows(rng.standard_normal((n, 2 * dim)))
        return den, nums[:, :dim], nums[:, dim:]

    return sample


def dyadic_uniform_pair_sampler(dim: int):
    """Endpoint pairs with coordinates k / 2^63, k uniform over the int64 range.

    x1 and x2 are int64 arrays of the k straight from numpy; den, 2^63,
    exceeds int64, so it is an object array of Python ints.
    """
    if dim < 1:
        raise ValueError("dim must be >= 1")
    den = 1 << 63

    def sample(rng: np.random.Generator, n: int):
        nums = rng.integers(-den, den - 1, size=(n, 2, dim), dtype=np.int64, endpoint=True)
        return np.full(n, den, dtype=object), nums[:, 0], nums[:, 1]

    return sample


def shared_coordinate_pair_sampler(dim: int):
    """Adversarial gaussian pairs that share x1, so the step's first entry is 0.

    Any polynomial whose leading part is a power of x1 drops degree on
    every such pair.
    """
    gaussian = gaussian_pair_sampler(dim)

    def sample(rng: np.random.Generator, n: int):
        den, x1, x2 = gaussian(rng, n)
        x1[:, 0] = x2[:, 0]
        return den, x1, x2

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
