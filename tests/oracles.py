"""Independent reference implementations used to cross-check library results.

Everything here is deliberately written the slow, obvious way and avoids the
code paths under test: the linear solver is hand-rolled Gaussian elimination,
the eigensolver is cyclic Jacobi, and basis references come from closed forms
or numpy.polynomial rather than our recurrences.  The last section is the
path engine run one path at a time, the reference for the batched engine's
bits: plan_paths draws every path alone from its own numpy Philox and
Generator, and plans_of builds PathPlans over hand-picked abscissas.  Both
record the settings the plans are fitted under and build the normal systems
a PathPlans carries with surrogate.normal_system; the reference fit
(fit_path) never reads those systems.  The
polylab section is direct evaluation of a polynomial at a rational point,
the Fraction restriction the integer core replaced, run once per endpoint
pair and polynomial, and the one-pair Fraction samplers the batched integer
arrays replaced, with the conversions between pairs and arrays.
"""

import itertools
import math
from fractions import Fraction

import numpy as np
import numpy.polynomial.chebyshev as npcheb
import numpy.polynomial.legendre as npleg
import numpy.polynomial.polynomial as nppoly

from effdeg import sampling
from effdeg.basis import design_matrix
from effdeg.estimator import DEGENERATE_NORM, PathPlans, softmax
from effdeg.polylab import OrderPreservationRecord
from effdeg.reduce import EIGENVALUE_FLOOR, TIE_GAP
from effdeg.surrogate import COND_LIMIT, SIGN_DEAD_ZONE, SingularFitError, normal_system


def gauss_solve(A, b):
    """Solve Ax = b by Gaussian elimination with partial pivoting."""
    A = np.array(A, dtype=float, copy=True)
    b = np.array(b, dtype=float, copy=True)
    n = A.shape[0]
    for col in range(n):
        pivot = col + int(np.argmax(np.abs(A[col:, col])))
        if A[pivot, col] == 0.0:
            raise ZeroDivisionError("singular system")
        if pivot != col:
            A[[col, pivot]] = A[[pivot, col]]
            b[[col, pivot]] = b[[pivot, col]]
        for row in range(col + 1, n):
            factor = A[row, col] / A[col, col]
            A[row, col:] -= factor * A[col, col:]
            b[row] -= factor * b[col]
    x = np.zeros(n)
    for row in range(n - 1, -1, -1):
        x[row] = (b[row] - A[row, row + 1 :] @ x[row + 1 :]) / A[row, row]
    return x


def damped_normal_solve(T, y, eps):
    """Reference solution of (T'T + eps I)c = T'y with explicit loops."""
    T = np.asarray(T, dtype=float)
    y = np.asarray(y, dtype=float)
    n = T.shape[1]
    G = np.zeros((n, n))
    for a in range(n):
        for b_ in range(n):
            G[a, b_] = float(np.dot(T[:, a], T[:, b_]))
        G[a, a] += eps
    rhs = np.array([float(np.dot(T[:, a], y)) for a in range(n)])
    return gauss_solve(G, rhs)


def jacobi_eigh(S, sweeps=100, tol=1e-14):
    """Cyclic Jacobi eigendecomposition of a symmetric matrix.

    Returns eigenvalues in descending order and eigenvectors as columns in
    the matching order.
    """
    A = np.array(S, dtype=float, copy=True)
    n = A.shape[0]
    V = np.eye(n)
    for _ in range(sweeps):
        off = np.sqrt(np.sum(np.tril(A, -1) ** 2))
        if off < tol:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if abs(A[p, q]) < tol:
                    continue
                theta = 0.5 * np.arctan2(2.0 * A[p, q], A[q, q] - A[p, p])
                c, s = np.cos(theta), np.sin(theta)
                J = np.eye(n)
                J[p, p] = c
                J[q, q] = c
                J[p, q] = s
                J[q, p] = -s
                A = J.T @ A @ J
                V = V @ J
    order = np.argsort(np.diag(A))[::-1]
    return np.diag(A)[order], V[:, order]


def fd_gradient(f, x, step=1e-6):
    """Central finite differences of a scalar function, one coordinate at a time."""
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for i in range(x.size):
        hi = x.copy()
        lo = x.copy()
        hi.flat[i] += step
        lo.flat[i] -= step
        g.flat[i] = (f(hi) - f(lo)) / (2.0 * step)
    return g


def chebyshev_closed_form(k, x):
    """T_k(x) = cos(k arccos x) on [-1, 1]."""
    return np.cos(k * np.arccos(np.clip(x, -1.0, 1.0)))


def legendre_reference(k, x):
    """P_k(x) from numpy's Legendre module."""
    e = np.zeros(k + 1)
    e[k] = 1.0
    return npleg.legval(x, e)


def _alpha_monomial_to_x(coeffs):
    """Monomial coefficients in x = 2a - 1 of q(alpha) = sum a_j alpha^j."""
    composed = np.zeros(1)
    half = np.array([0.5, 0.5])  # alpha = (x + 1) / 2
    power = np.array([1.0])
    for a in coeffs:
        composed = nppoly.polyadd(composed, float(a) * power)
        power = nppoly.polymul(power, half)
    return composed


def alpha_monomial_to_cheb(coeffs):
    """Map q(alpha) = sum a_j alpha^j to Chebyshev coefficients in x = 2a - 1.

    Composes q with alpha = (x + 1)/2 in the monomial basis, then converts to
    the Chebyshev basis; all through numpy.polynomial, independent of the
    library's own recurrences.
    """
    return npcheb.poly2cheb(_alpha_monomial_to_x(coeffs))


def alpha_monomial_to_leg(coeffs):
    """alpha_monomial_to_cheb's Legendre twin, through numpy.polynomial.legendre.poly2leg."""
    return npleg.poly2leg(_alpha_monomial_to_x(coeffs))


def exact_point(x1, x2, alpha):
    """The exact rational path point alpha*x1 + (1-alpha)*x2."""
    a = Fraction(alpha)
    return tuple(a * Fraction(u) + (1 - a) * Fraction(v) for u, v in zip(x1, x2))


def horner(coefficients, alpha):
    """Exact value of sum_k c_k alpha^k, by Horner's rule in Fractions."""
    a = Fraction(alpha)
    total = Fraction(0)
    for c in reversed(coefficients):
        total = total * a + c
    return total


# ---------------------------------------------------------------------------
# The per-path engine, one path at a time: the reference the batched engine
# (estimator.fit_paths, ed_estimate, net.ed_penalty) must equal bit for bit.
# Each path is fitted alone through unstacked 2-D linear algebra (its PCA
# from a 2-D Gram + eigh), and ED is reduced one coefficient column at a time.
# ---------------------------------------------------------------------------


class PerPathProjection:
    """Centered PCA of one path's (r, out) outputs."""

    def __init__(self, mean, components, explained_variance, degenerate_ties):
        self.mean = mean
        self.components = components
        self.explained_variance = explained_variance
        self.degenerate_ties = degenerate_ties

    def apply(self, values):
        out = (np.asarray(values, dtype=float) - self.mean) @ self.components.T
        out[:, self.explained_variance < EIGENVALUE_FLOOR] = 0.0
        return out


def pca_project(values, n_components):
    """PCA map of one path's (r, out) outputs from a 2-D Gram + eigh, signs fixed row by row."""
    y = np.asarray(values, dtype=float)
    r, out = y.shape
    k = min(r, out)
    m = int(n_components)
    mean = y.mean(axis=0)
    centered = y - mean
    lam, u = np.linalg.eigh(centered @ centered.T)
    lam = np.maximum(lam[::-1][:k], 0.0)
    noise = r * np.finfo(float).eps * lam[0]
    lam[lam <= noise] = 0.0
    comps = u[:, ::-1][:, :m].T @ centered
    for i, row in enumerate(comps):
        if lam[i] > 0.0:
            row /= np.sqrt(lam[i])
        else:
            row[:] = 0.0
        pivot = int(np.argmax(np.abs(row)))
        if row[pivot] < 0:
            row *= -1.0
    return PerPathProjection(mean, comps, lam[:m] / (r - 1), _ties(lam / (r - 1), m))


def pca_project_svd(values, n_components):
    """PCA map of one path's (r, out) outputs from a 2-D thin SVD, signs fixed row by row.

    The form pca_project replaced: a second reference, equal to it up to
    rounding on separated spectra.
    """
    y = np.asarray(values, dtype=float)
    r = y.shape[0]
    m = int(n_components)
    mean = y.mean(axis=0)
    _, s, vt = np.linalg.svd(y - mean, full_matrices=False)
    eigvals = s * s / (r - 1)
    comps = vt[:m].copy()
    for row in comps:
        pivot = int(np.argmax(np.abs(row)))
        if row[pivot] < 0:
            row *= -1.0
    return PerPathProjection(mean, comps, eigvals[:m], _ties(eigvals, m))


def _ties(eigvals, m):
    """Whether two adjacent live eigenvalues among the first m + 1 are within TIE_GAP."""
    upto = min(m + 1, eigvals.size)
    gaps = np.diff(eigvals[:upto])
    pairs_alive = np.maximum(eigvals[: upto - 1], eigvals[1:upto]) >= EIGENVALUE_FLOOR
    return bool(np.any((np.abs(gaps) < TIE_GAP) & pairs_alive))


def fit_matrix(alphas, values, max_degree, damping, basis, with_gradient=False):
    """Damped normal-equation fit of one path's (r, m) values, with the library's guards."""
    design = design_matrix(basis, alphas, max_degree)
    gram = design.T @ design
    if damping > 0:
        gram = gram + damping * np.eye(gram.shape[0])
    elif np.linalg.cond(gram) >= COND_LIMIT:
        raise SingularFitError("normal matrix condition number exceeds COND_LIMIT")
    b = design.T @ values
    coeffs = np.linalg.solve(gram, b)
    resid = np.abs(gram @ coeffs - b).max()
    if not resid < 1e-8 * (1.0 + np.abs(b).max()):
        raise SingularFitError(f"normal system residual {resid:.3e} above tolerance")
    if not with_gradient:
        return coeffs
    signs = np.zeros_like(coeffs)
    for col in range(coeffs.shape[1]):
        mass = float(np.abs(coeffs[:, col]).sum())
        for k, c in enumerate(coeffs[:, col]):
            if abs(c) > SIGN_DEAD_ZONE * mass:
                signs[k, col] = 1.0 if c > 0 else -1.0
    weighted = signs * np.arange(max_degree + 1, dtype=float)[:, None]
    return coeffs, design @ np.linalg.solve(gram, weighted)


def ed_of_column(c):
    """(ED, ED_norm) of one coefficient vector, as one dot product and one sum."""
    c = np.abs(np.asarray(c, dtype=float))
    ed = float(c @ np.arange(c.size, dtype=float))
    mass = float(c.sum())
    return ed, (ed / mass if mass > 0.0 else 0.0)


def path_philox(seed, key, counter):
    """Philox of the path keyed by key at counter, its plan's key built for this key alone."""
    words = np.random.SeedSequence(int(seed), spawn_key=tuple(int(k) for k in key[:-1]))
    return np.random.Philox(key=words.generate_state(2, np.uint64), counter=counter)


def lemire_pair(word, n):
    """(i, j) from the low and high 32-bit halves of one word by Lemire's method, or None."""
    pair = []
    for half in (word & 0xFFFFFFFF, word >> 32):
        scaled = half * n
        if scaled & 0xFFFFFFFF < (1 << 32) % n:
            return None
        pair.append(scaled >> 32)
    return tuple(pair)


def randomized_cosine(resolution, seed, key, anchored=False):
    """Path key's randomized_cosine abscissas: Generator.uniform at its counter."""
    r = resolution
    lows = np.arange(r, dtype=float) * np.pi / r
    highs = lows + np.pi / r
    counter = [int(key[-1]) * -(-r // 4), 1, 0, 1]
    theta = np.random.Generator(path_philox(seed, key, counter)).uniform(lows, highs)
    if anchored:
        theta[0] = 0.0
        theta[-1] = np.pi
    alphas = 0.5 * (1.0 - np.cos(theta))
    if anchored:
        alphas[0] = 0.0
        alphas[-1] = 1.0
    return alphas


def plan_paths(inputs, settings, prefix, paths, max_redraws=16):
    """estimator.plan_paths key by key: a Philox per key and attempt, Lemire in Python ints."""
    n = inputs.shape[0]
    seed, scheme, resolution, anchored = (
        settings.seed, settings.scheme, settings.resolution, settings.anchored
    )
    kept, pairs, alphas = [], [], []
    for p in paths:
        key = tuple(prefix) + (p,)
        for attempt in range(max_redraws):
            word = int(path_philox(seed, key, [p, 0, attempt, 1]).random_raw(4)[0])
            pair = lemire_pair(word, n)
            if pair is None or pair[0] == pair[1]:
                continue
            d = inputs[pair[0]] - inputs[pair[1]]
            if float(np.sum(d * d)) > DEGENERATE_NORM**2:
                kept.append(p)
                pairs.append(pair)
                if scheme == "randomized_cosine":
                    alphas.append(randomized_cosine(resolution, seed, key, anchored))
                else:
                    alphas.append(sampling.sample_abscissas(scheme, resolution, anchored))
                break
    alphas = np.array(alphas, dtype=float).reshape(len(kept), resolution)
    return PathPlans(
        settings=settings,
        prefix=tuple(prefix),
        key=sampling.path_key(seed, tuple(prefix)),
        paths=np.array(kept, dtype=np.int64),
        pairs=np.array(pairs, dtype=np.intp).reshape(len(kept), 2),
        alphas=alphas,
        system=normal_system(alphas, settings.max_degree, settings.damping, settings.basis),
    )


def plans_of(alphas, i=0, j=1, *, settings):
    """PathPlans over hand-picked abscissas, drawn under settings: path p keyed (p,).

    alphas holds one row per path, and i and j are each path's endpoint
    rows, one int for every path or one per path.
    """
    alphas = np.atleast_2d(np.asarray(alphas, dtype=float))
    n = alphas.shape[0]
    pairs = np.empty((n, 2), dtype=np.intp)
    pairs[:, 0], pairs[:, 1] = i, j
    return PathPlans(
        settings=settings,
        prefix=(),
        key=sampling.path_key(settings.seed, ()),
        paths=np.arange(n, dtype=np.int64),
        pairs=pairs,
        alphas=alphas,
        system=normal_system(alphas, settings.max_degree, settings.damping, settings.basis),
    )


def fit_path(raw, plans, k, config, labels=None, projection=None, with_gradient=False):
    """Path k's (ed, ed_norm, pca_ties, projection, grad) from its raw (r, out) outputs."""
    outputs = softmax(raw) if config.post_softmax else np.asarray(raw, dtype=float)
    values = outputs
    if config.anchored:
        values = np.array(outputs, copy=True)
        values[0, :] = labels[plans.j[k]]
        values[-1, :] = labels[plans.i[k]]
    fit_target = values
    if config.pca_dim is None:
        projection = None
    else:
        if projection is None:
            projection = pca_project(values, config.pca_dim)
        fit_target = projection.apply(values)
    fitted = fit_matrix(
        plans.alphas[k], fit_target, config.max_degree, config.damping, config.basis,
        with_gradient=with_gradient,
    )
    coeffs = fitted[0] if with_gradient else fitted
    columns = [ed_of_column(coeffs[:, j]) for j in range(coeffs.shape[1])]
    ed = float(np.mean([c[0] for c in columns]))
    ed_norm = float(np.mean([c[1] for c in columns]))
    ties = projection is not None and projection.degenerate_ties
    if not with_gradient:
        return ed, ed_norm, ties, projection, None
    grad = fitted[1] / fit_target.shape[1]
    if projection is not None:
        grad = grad @ projection.components
    if config.anchored:
        grad[0, :] = 0.0
        grad[-1, :] = 0.0
    if config.post_softmax:
        inner = (grad * outputs).sum(axis=1, keepdims=True)
        grad = outputs * (grad - inner)
    return ed, ed_norm, ties, projection, grad


def ed_estimate(oracle, inputs, config, labels=None):
    """Per-path records (index, (i, j), ed, ed_norm, pca_ties) and the skip count, path by path."""
    X = np.asarray(inputs, dtype=float)
    records, skipped = [], 0
    for p in range(config.n_paths):
        plan = plan_paths(X, config, (), [p])
        if not plan:
            skipped += 1
            continue
        i, j = int(plan.i[0]), int(plan.j[0])
        a = plan.alphas[0][:, None]
        raw = oracle.evaluate(a * X[i] + (1.0 - a) * X[j])
        ed, ed_norm, ties, _, _ = fit_path(raw, plan, 0, config, labels=labels)
        records.append((p, (i, j), ed, ed_norm, ties))
    return records, skipped


def ed_penalty(net, batch, targets, plans, config, projections=None):
    """net.ed_penalty path by path: one forward and fit per plan, one backward over them all."""
    eds, caches, grads, out_projections = [], [], [], []
    for k in range(len(plans)):
        a = plans.alphas[k][:, None]
        raw, cache = net.forward_cached(a * batch[plans.i[k]] + (1.0 - a) * batch[plans.j[k]])
        ed, _, _, projection, grad = fit_path(
            raw, plans, k, config, labels=targets,
            projection=None if projections is None else projections[k],
            with_gradient=True,
        )
        eds.append(ed)
        caches.append(cache)
        grads.append(grad)
        out_projections.append(projection)
    penalty = float(np.sum(eds)) / config.reg_paths
    if not caches:
        zeros = ([np.zeros_like(w) for w in net.weights], [np.zeros_like(b) for b in net.biases])
        return penalty, zeros, out_projections
    pre = [np.concatenate(z) for z in zip(*(cache[0] for cache in caches))]
    post = [np.concatenate(a) for a in zip(*(cache[1] for cache in caches))]
    d_raw = np.concatenate(grads) / config.reg_paths
    return penalty, net.backward((pre, post), d_raw), out_projections


# --- polylab: Fraction arithmetic throughout -------------------------------


def _binomial_power(a: Fraction, b: Fraction, e: int) -> list[Fraction]:
    """Coefficient list of (a + b t)^e in t."""
    return [Fraction(math.comb(e, j)) * a ** (e - j) * b**j for j in range(e + 1)]


def _convolve(u: list[Fraction], v: list[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * (len(u) + len(v) - 1)
    for i, ui in enumerate(u):
        if ui == 0:
            continue
        for j, vj in enumerate(v):
            out[i + j] += ui * vj
    return out


def evaluate(poly, point) -> Fraction:
    """Exact value of a MultiPoly at a rational point, term by term."""
    pt = [Fraction(v) for v in point]
    if len(pt) != poly.dim:
        raise ValueError("point dimension mismatch")
    total = Fraction(0)
    for exp, coef in poly.terms.items():
        val = coef
        for x, e in zip(pt, exp):
            if e:
                val *= x**e
        total += val
    return total


def restrict(poly, x1, x2) -> tuple[Fraction, ...]:
    """Coefficients in a of poly(x2 + a (x1 - x2)), trailing zeros stripped."""
    x1 = [Fraction(v) for v in x1]
    x2 = [Fraction(v) for v in x2]
    if len(x1) != poly.dim or len(x2) != poly.dim:
        raise ValueError("endpoint dimension mismatch")
    direction = [a - b for a, b in zip(x1, x2)]
    acc = [Fraction(0)]
    for exp, coef in poly.terms.items():
        factor = [coef]
        for base, step, e in zip(x2, direction, exp):
            if e:
                factor = _convolve(factor, _binomial_power(base, step, e))
        if len(factor) > len(acc):
            acc.extend([Fraction(0)] * (len(factor) - len(acc)))
        for k, c in enumerate(factor):
            acc[k] += c
    while acc and acc[-1] == 0:
        acc.pop()
    return tuple(acc)


def net_restriction(net, x1, x2) -> list[list[Fraction]]:
    """Each output of a square/identity network along a -> x2 + a (x1 - x2), exactly.

    Float weights and endpoints are dyadic rationals, so every layer runs in
    Fractions with no rounding; the result holds one alpha-monomial
    coefficient list per output.
    """
    units = [[Fraction(v), Fraction(u) - Fraction(v)] for u, v in zip(x1, x2)]
    for w, b, activation in zip(net.weights, net.biases, net.activations):
        layer = []
        for k in range(w.shape[1]):
            acc = [Fraction(b[k])] + [Fraction(0)] * (max(map(len, units)) - 1)
            for d, poly in enumerate(units):
                weight = Fraction(w[d, k])
                for e, c in enumerate(poly):
                    acc[e] += weight * c
            if activation == "square":
                acc = _convolve(acc, acc)
            elif activation != "identity":
                raise ValueError(f"no exact restriction through {activation!r}")
            layer.append(acc)
        units = layer
    return units


def gaussian_pair(dim):
    """One (x1, x2) pair of Fraction points per call, as polylab.gaussian_pair_sampler."""

    def sample(rng):
        pts = rng.standard_normal((2, dim))
        x1 = tuple(Fraction(float(v)) for v in pts[0])
        x2 = tuple(Fraction(float(v)) for v in pts[1])
        return x1, x2

    return sample


def dyadic_uniform_pair(dim):
    """One (x1, x2) pair per call, as polylab.dyadic_uniform_pair_sampler."""
    den = 1 << 63

    def sample(rng):
        nums = rng.integers(-den, den - 1, size=(2, dim), dtype=np.int64, endpoint=True)
        x1 = tuple(Fraction(int(v), den) for v in nums[0])
        x2 = tuple(Fraction(int(v), den) for v in nums[1])
        return x1, x2

    return sample


def shared_coordinate_pair(dim):
    """One (x1, x2) pair per call, as polylab.shared_coordinate_pair_sampler."""
    base = gaussian_pair(dim)

    def sample(rng):
        x1, x2 = base(rng)
        return (x2[0], *x1[1:]), x2

    return sample


def endpoint_row(x1, x2):
    """The (den, x1, x2) integer row of a rational pair, den the lcm of its denominators."""
    x1 = [Fraction(v) for v in x1]
    x2 = [Fraction(v) for v in x2]
    den = math.lcm(*(v.denominator for v in x1 + x2))
    return den, [int(v * den) for v in x1], [int(v * den) for v in x2]


def endpoints(block):
    """The (x1, x2) pairs of Fraction points that a sampler's (den, x1, x2) arrays stand for."""
    return [
        tuple(tuple(Fraction(v, d) for v in nums) for nums in (a, b))
        for d, a, b in zip(*(arr.tolist() for arr in block))
    ]


def pair_sampler(pairs):
    """A polylab sampler returning the given (x1, x2) pairs, cycling, as object arrays."""
    rows = itertools.cycle([endpoint_row(x1, x2) for x1, x2 in pairs])

    def sample(rng, n):
        den, x1, x2 = zip(*[next(rows) for _ in range(n)])
        return tuple(np.array(arr, dtype=object) for arr in (den, x1, x2))

    return sample


def verify_order_preservation(poly_a, poly_b, n_pairs, sampler, seed=0):
    """polylab.verify_order_preservation with one Fraction restrict per pair and polynomial.

    It asks the sampler for one pair at a time and reads it back as Fractions.
    """
    rng = sampling.rng(seed)
    degs_a: list[float] = []
    degs_b: list[float] = []
    drops = [0, 0]
    for _ in range(n_pairs):
        ((x1, x2),) = endpoints(sampler(rng, 1))
        for slot, poly, sink in ((0, poly_a, degs_a), (1, poly_b, degs_b)):
            # the zero restriction is recorded as degree 0 so averages stay finite
            d = float(max(len(restrict(poly, x1, x2)) - 1, 0))
            sink.append(d)
            if d < poly.degree():
                drops[slot] += 1
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
