"""Independent reference implementations used to cross-check library results.

Everything here is deliberately written the slow, obvious way and avoids the
code paths under test: the linear solver is hand-rolled Gaussian elimination,
the eigensolver is cyclic Jacobi, and basis references come from closed forms
or numpy.polynomial rather than our recurrences.  The last section is the
path engine run one path at a time, the reference for the batched engine's
bits: plan_paths draws every key's stream with numpy's own Generator, and
plans_of builds PathPlans over hand-picked abscissas.
"""

from fractions import Fraction

import numpy as np
import numpy.polynomial.chebyshev as npcheb
import numpy.polynomial.legendre as npleg
import numpy.polynomial.polynomial as nppoly

from effdeg import sampling
from effdeg.basis import design_matrix
from effdeg.estimator import DEGENERATE_NORM, PathPlans, softmax
from effdeg.reduce import EIGENVALUE_FLOOR, TIE_GAP
from effdeg.surrogate import COND_LIMIT, SingularFitError


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


def alpha_monomial_to_cheb(coeffs):
    """Map q(alpha) = sum a_j alpha^j to Chebyshev coefficients in x = 2a - 1.

    Composes q with alpha = (x + 1)/2 in the monomial basis, then converts to
    the Chebyshev basis; all through numpy.polynomial, independent of the
    library's own recurrences.
    """
    composed = np.zeros(1)
    half = np.array([0.5, 0.5])  # alpha = (x + 1) / 2
    power = np.array([1.0])
    for a in coeffs:
        composed = nppoly.polyadd(composed, float(a) * power)
        power = nppoly.polymul(power, half)
    return npcheb.poly2cheb(composed)


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
# Each path is fitted alone through unstacked 2-D linear algebra, and ED is
# reduced one coefficient column at a time.
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
    """PCA map of one path's (r, out) outputs, eigenpairs sorted and signs fixed row by row."""
    y = np.asarray(values, dtype=float)
    r = y.shape[0]
    m = int(n_components)
    mean = y.mean(axis=0)
    centered = y - mean
    cov = centered.T @ centered / (r - 1)
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals)[::-1]
    eigvals = eigvals[order]
    eigvecs = eigvecs[:, order]
    comps = eigvecs[:, :m].T.copy()
    for row in comps:
        pivot = int(np.argmax(np.abs(row)))
        if row[pivot] < 0:
            row *= -1.0
    variance = np.clip(eigvals[:m], 0.0, None)
    upto = min(m + 1, eigvals.size)
    gaps = np.diff(eigvals[:upto])
    pairs_alive = np.maximum(eigvals[: upto - 1], eigvals[1:upto]) >= EIGENVALUE_FLOOR
    ties = bool(np.any((np.abs(gaps) < TIE_GAP) & pairs_alive))
    return PerPathProjection(mean, comps, variance, ties)


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
    weighted = np.sign(coeffs) * np.arange(max_degree + 1, dtype=float)[:, None]
    return coeffs, design @ np.linalg.solve(gram, weighted)


def ed_of_column(c):
    """(ED, ED_norm) of one coefficient vector, as one dot product and one sum."""
    c = np.abs(np.asarray(c, dtype=float))
    ed = float(c @ np.arange(c.size, dtype=float))
    mass = float(c.sum())
    return ed, (ed / mass if mass > 0.0 else 0.0)


def randomized_cosine(resolution, seed, anchored=False):
    """sampling.randomized_cosine of one seed: rng(seed, 0).uniform, then separated in a loop."""
    r = resolution
    lows = np.arange(r, dtype=float) * np.pi / r
    highs = lows + np.pi / r
    theta = sampling.rng(seed, 0).uniform(lows, highs)
    if anchored:
        theta[0] = 0.0
        theta[-1] = np.pi
    alphas = 0.5 * (1.0 - np.cos(theta))
    if anchored:
        alphas[0] = 0.0
        alphas[-1] = 1.0
    return separate(alphas, 0.5 * (1.0 - np.cos(highs)))


def separate(alphas, uppers):
    """sampling._separate of one ascending row: nudge each later duplicate up by 1e-9, capped."""
    out = np.array(alphas, dtype=float, copy=True)
    for i in range(1, out.size):
        if out[i] - out[i - 1] < 1e-12:
            out[i] = min(out[i - 1] + 1e-9, uppers[i], 1.0)
    return out


def plan_paths(inputs, seed, keys, scheme, resolution, anchored, max_redraws=16):
    """estimator.plan_paths one key at a time: a Generator and a SeedSequence per key."""
    n = inputs.shape[0]
    kept, pairs, alphas = [], [], []
    for key in keys:
        pair_rng = sampling.rng(seed, *key, 0)
        for _ in range(max_redraws):
            i, j = (int(v) for v in pair_rng.integers(0, n, size=2))
            if i != j and np.linalg.norm(inputs[i] - inputs[j]) > DEGENERATE_NORM:
                kept.append(tuple(key))
                pairs.append((i, j))
                if scheme == "randomized_cosine":
                    derived = sampling.derive_seed(seed, *key, 1)
                    alphas.append(randomized_cosine(resolution, derived, anchored))
                else:
                    alphas.append(sampling.sample_abscissas(scheme, resolution, anchored))
                break
    pairs = np.array(pairs, dtype=np.intp).reshape(len(kept), 2)
    return PathPlans(
        keys=tuple(kept),
        i=pairs[:, 0],
        j=pairs[:, 1],
        alphas=np.array(alphas, dtype=float).reshape(len(kept), resolution),
        anchored=anchored,
    )


def plans_of(alphas, i=0, j=1, anchored=False):
    """PathPlans over hand-picked abscissas: one row of alphas per path, path p keyed (p,).

    i and j are each path's endpoint rows, one int for every path or one per path.
    """
    alphas = np.atleast_2d(np.asarray(alphas, dtype=float))
    n = alphas.shape[0]
    return PathPlans(
        keys=tuple((p,) for p in range(n)),
        i=np.broadcast_to(np.asarray(i, dtype=np.intp), (n,)).copy(),
        j=np.broadcast_to(np.asarray(j, dtype=np.intp), (n,)).copy(),
        alphas=alphas,
        anchored=anchored,
    )


def fit_path(raw, plans, k, config, labels=None, projection=None, grad_divisor=None):
    """Path k's (ed, ed_norm, pca_ties, projection, grad) from its raw (r, out) outputs."""
    outputs = softmax(raw, axis=1) if config.post_softmax else np.asarray(raw, dtype=float)
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
        with_gradient=grad_divisor is not None,
    )
    coeffs = fitted if grad_divisor is None else fitted[0]
    columns = [ed_of_column(coeffs[:, j]) for j in range(coeffs.shape[1])]
    ed = float(np.mean([c[0] for c in columns]))
    ed_norm = float(np.mean([c[1] for c in columns]))
    ties = projection is not None and projection.degenerate_ties
    if grad_divisor is None:
        return ed, ed_norm, ties, projection, None
    grad = fitted[1] / fit_target.shape[1]
    if projection is not None:
        grad = grad @ projection.components
    grad = grad / grad_divisor
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
        plan = plan_paths(
            X, config.seed, [(p,)], config.scheme, config.resolution, config.anchored
        )
        if not plan:
            skipped += 1
            continue
        i, j = int(plan.i[0]), int(plan.j[0])
        a = plan.alphas[0][:, None]
        raw = oracle.evaluate(a * X[i] + (1.0 - a) * X[j])
        ed, ed_norm, ties, _, _ = fit_path(raw, plan, 0, config, labels=labels)
        records.append((p, (i, j), ed, ed_norm, ties))
    return records, skipped


def ed_penalty(net, batch, targets, plans, config, want_grads=True, projections=None):
    """net.ed_penalty path by path: one forward, fit and backward per plan."""
    ecfg = config.estimator_config()
    n_planned = max(config.reg_paths, 1)
    total = 0.0
    d_w = [np.zeros_like(w) for w in net.weights]
    d_b = [np.zeros_like(b) for b in net.biases]
    out_projections = []
    for k in range(len(plans)):
        a = plans.alphas[k][:, None]
        raw, cache = net.forward_cached(a * batch[plans.i[k]] + (1.0 - a) * batch[plans.j[k]])
        ed, _, _, projection, grad = fit_path(
            raw, plans, k, ecfg, labels=targets,
            projection=None if projections is None else projections[k],
            grad_divisor=n_planned if want_grads else None,
        )
        out_projections.append(projection)
        total += ed
        if want_grads:
            dw_k, db_k = net.backward(cache, grad)
            for l in range(len(d_w)):
                d_w[l] += dw_k[l]
                d_b[l] += db_k[l]
    return total / n_planned, ((d_w, d_b) if want_grads else None), out_projections
