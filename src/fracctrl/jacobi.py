"""Shifted Jacobi polynomials on [0,1]: evaluation, norms and
Gauss-Jacobi quadrature.

The basis is Q_n^{g,b}(x) = P_n^{g,b}(2x-1), orthogonal on [0,1] against
the weight w^{g,b}(x) = (1-x)^g x^b.  All gamma-function work goes through
log-gamma so that degree can reach 2^14 without overflow.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.special import betaln, gammaln


class JacobiParamError(ValueError):
    """Raised for Jacobi exponents outside (-1, inf)."""


@dataclass(frozen=True)
class JacobiParams:
    """Exponent pair (gamma, beta) of the weight (1-x)^gamma x^beta."""

    gamma: float
    beta: float

    def __post_init__(self):
        if not (self.gamma > -1.0 and self.beta > -1.0):
            raise JacobiParamError(
                f"Jacobi parameters must exceed -1, got ({self.gamma}, {self.beta})"
            )

    def as_tuple(self) -> tuple[float, float]:
        return (self.gamma, self.beta)


@dataclass(frozen=True)
class QuadratureRule:
    """Gauss-Jacobi rule on (0,1) for the weight (1-x)^gamma x^beta."""

    nodes: np.ndarray
    weights: np.ndarray
    params: JacobiParams

    @property
    def npts(self) -> int:
        return self.nodes.size


def log_gamma_ratio(n: int | np.ndarray, alpha: float) -> float | np.ndarray:
    """Gamma(n+1+alpha) / Gamma(n+1), stable for n up to 2^14 and beyond."""
    n = np.asarray(n, dtype=float)
    if np.any(n < 0):
        raise ValueError("n must be nonnegative")
    if np.any(n + 1 + alpha <= 0):
        raise ValueError(f"gamma pole: n+1+alpha = {n + 1 + alpha} not positive")
    out = np.exp(gammaln(n + 1 + alpha) - gammaln(n + 1))
    return float(out) if out.ndim == 0 else out


def jacobi_norm_sq(n: int | np.ndarray, p: JacobiParams) -> float | np.ndarray:
    """Squared weighted L2 norm h_n^{g,b} of Q_n^{g,b} on [0,1]."""
    g, b = p.gamma, p.beta
    n = np.asarray(n, dtype=float)
    with np.errstate(invalid="ignore"):
        out = np.exp(
            gammaln(n + b + 1) + gammaln(n + g + 1) - gammaln(n + 1) - gammaln(n + g + b + 1)
        ) / (2 * n + g + b + 1)
    if g + b + 1.0 <= 0.0:  # gammaln drops the sign of Gamma(g+b+1); h_0 = B(g+1, b+1)
        out = np.where(n == 0, np.exp(betaln(g + 1.0, b + 1.0)), out)
    return float(out) if out.ndim == 0 else out


def recurrence_coeffs(n: np.ndarray, p: JacobiParams):
    """Coefficients (c1, c2, c3, c4) of the three-term recurrence
    c1 Q_n = (c2 + c3 t) Q_{n-1} - c4 Q_{n-2}, t = 2x-1, at the degrees
    n >= 1 in the array n.  At n = 1 they are (2, g-b, g+b+2, 0), the
    closed form of Q_1, since the general ones carry a factor (g+b)(g+b+1)
    that may vanish there."""
    g, b = p.gamma, p.beta
    n = np.asarray(n, dtype=float)
    s = 2 * n + g + b
    c1 = 2.0 * n * (n + g + b) * (s - 2)
    c2 = (s - 1) * (g * g - b * b)
    c3 = (s - 1) * s * (s - 2)
    c4 = 2.0 * (n + g - 1) * (n + b - 1) * s
    first = n == 1
    return (np.where(first, 2.0, c1), np.where(first, g - b, c2),
            np.where(first, g + b + 2.0, c3), np.where(first, 0.0, c4))


def jacobi_matrix(nmax: int, p: JacobiParams, x: np.ndarray) -> np.ndarray:
    """Values Q_n^{g,b}(x) for n = 0..nmax; shape (nmax+1, len(x)), by the
    three-term recurrence."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    t = 2.0 * x - 1.0
    c1, c2, c3, c4 = recurrence_coeffs(np.arange(1, nmax + 1), p)
    out = np.empty((nmax + 1, x.size))
    out[0] = 1.0
    for k in range(nmax):
        prev = out[k - 1] if k else 0.0
        out[k + 1] = ((c2[k] + c3[k] * t) * out[k] - c4[k] * prev) / c1[k]
    return out


def _recurrence(n: int, p: JacobiParams) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients of the orthonormal recurrence for w^{g,b} in t = 2x-1,
    b_{k+1} p_{k+1}(t) = (t - a_k) p_k(t) - b_k p_{k-1}(t):  a_0..a_{n-1},
    the diagonal of the n x n Jacobi matrix, and b_1..b_n, its off-diagonal
    extended by one row."""
    g, b = p.gamma, p.beta
    ab = g + b
    k = np.arange(n, dtype=float)
    j = k + 1.0
    s = 2 * j + ab
    with np.errstate(invalid="ignore", divide="ignore"):
        denom = (2 * k + ab) * (2 * k + ab + 2)
        diag = np.where(denom == 0.0, 0.0, (b * b - g * g) / denom)
        off_sq = 4 * j * (j + g) * (j + b) * (j + ab) / (s * s * (s * s - 1.0))
    diag[:1] = (b - g) / (ab + 2.0)  # k=0 always has this closed form
    if ab + 1.0 == 0.0:
        # j=1 cancels (j+ab) against the (s^2-1) zero
        off_sq[:1] = 4 * (1 + g) * (1 + b) / ((2 + ab) ** 2 * (3 + ab))
    return diag, np.sqrt(off_sq)


def orthonormal_rows(p: JacobiParams, t: np.ndarray, nmax: int):
    """Yield p_0 = 1, p_1, ..., p_nmax at t = 2x-1: the polynomials
    orthonormal against w^{g,b} / B(g+1, b+1), by their recurrence."""
    diag, off = _recurrence(nmax, p)
    prev, row = np.zeros_like(t), np.ones_like(t)
    yield row
    for k in range(nmax):
        prev, row = row, ((t - diag[k]) * row - (off[k - 1] if k else 0.0) * prev) / off[k]
        yield row


def _christoffel_pass(p: JacobiParams, t: np.ndarray, n: int):
    """One pass of the orthonormal recurrence at t: sum_{k<n} p_k(t)^2,
    p_{n-1}(t) and p_n(t)."""
    rows = orthonormal_rows(p, t, n)
    norm_sq = 0.0
    for _, row in zip(range(n), rows):
        norm_sq = norm_sq + row * row
    return norm_sq, row, next(rows)


def gauss_jacobi_rule(npts: int, p: JacobiParams) -> QuadratureRule:
    """Gauss-Jacobi rule on (0,1), exact through polynomial degree 2*npts-1.

    Golub-Welsch with eigenvalues only: the nodes are the eigenvalues of
    the npts x npts Jacobi matrix, each polished by one Newton step on
    p_npts, and the weights are the Christoffel numbers
    B(g+1, b+1) / sum_{k<npts} p_k^2 at the polished nodes, each from one
    pass of the orthonormal recurrence.  No eigenvector is formed, so
    memory is O(npts).  The Newton step matters: for weight (-0.6, -0.6)
    and 800 points, the integral of sin * Q_16^{0.9,0.9} errs by 4.3e-12
    with weights taken at the raw eigenvalues and by 1.0e-13 with them
    taken at polished nodes.
    """
    if npts < 1:
        raise ValueError("npts must be >= 1")
    g, b = p.gamma, p.beta
    diag, off = _recurrence(npts, p)
    try:
        t = eigh_tridiagonal(diag, off[:-1], eigvals_only=True)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise RuntimeError(f"Golub-Welsch eigensolve failed for {p}") from exc
    # near a zero of p_n, p_n' = sum_{k<n} p_k^2 / (b_n p_{n-1})
    # (Christoffel-Darboux), good to first order in p_n
    norm_sq, p_last, p_n = _christoffel_pass(p, t, npts)
    t -= off[-1] * p_n * p_last / norm_sq
    norm_sq = _christoffel_pass(p, t, npts)[0]
    mu0 = np.exp(betaln(g + 1.0, b + 1.0))
    return QuadratureRule(nodes=(t + 1.0) / 2.0, weights=mu0 / norm_sq, params=p)
