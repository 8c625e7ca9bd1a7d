"""Independent reference implementations used to cross-check library results.

Everything here is deliberately written the slow, obvious way and avoids the
code paths under test: the linear solver is hand-rolled Gaussian elimination,
the eigensolver is cyclic Jacobi, and basis references come from closed forms
or numpy.polynomial rather than our recurrences.
"""

from fractions import Fraction

import numpy as np
import numpy.polynomial.chebyshev as npcheb
import numpy.polynomial.legendre as npleg
import numpy.polynomial.polynomial as nppoly


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
