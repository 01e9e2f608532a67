"""Correctness checks made apart from fracctrl.

Everything here is rebuilt from the paper's formulas with numpy and scipy
alone: the exponent pair, the closed-form stiffness lambda_n h_n, the mass
and advection forms by scipy.special.roots_jacobi quadrature, and the data
terms from np.sin / np.cos at the quadrature nodes.  Nothing is imported
from the package under test, so a fault there cannot hide itself here.

Conventions (the paper's, restated):
  Q_n^{a,b}(x) = P_n^{a,b}(2x - 1) on [0, 1], weight w^{a,b} = (1-x)^a x^b.
  State   u = w^{s,s*} sum U_n Q_n^{s,s*},  tested by w^{s*,s} Q_m^{s*,s}.
  Adjoint z = w^{s*,s} sum Z_n Q_n^{s*,s},  tested by w^{s,s*} Q_m^{s,s*}.
  Control q = c - z / gamma with c = max(0, int z) / gamma.
  State   L_theta u + lam1 u' + lam2 u = f + q
  Adjoint L_{1-theta} z - lam1 z' + lam2 z = u - u_d
Advection uses d/dx[w^{a,b} Q_m^{a,b}] = -(m+1) w^{a-1,b-1} Q_{m+1}^{a-1,b-1}.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import brentq
from scipy.special import betaln, gammaln, roots_jacobi

DATA = {"sin": np.sin, "cos": np.cos}

# Tolerances for the returned triple.  The KKT residuals are relative to
# the right-hand side; converged solves at N <= 512 give 1e-14 to 3e-12,
# while moving any one coefficient by 1e-6 of the largest fails them
# (test_checks.py).
KKT_TOL = 1e-9
OUTER_BAND = (9, 3)          # outer iterations at alpha = 1.8: 9 +- 3
ORDER_BAND = 0.20            # u-order band of acceptance criterion 5 (alpha = 1.8)
MEAN_TOL = -1e-13


def exponent_pair(theta: float, alpha: float) -> tuple[float, float]:
    """(sigma, sigma*) with sigma + sigma* = alpha and
    theta = sin(pi sigma*) / (sin(pi sigma*) + sin(pi sigma))."""
    if theta == 0.5:
        return alpha / 2, alpha / 2

    def gap(s):
        ss = alpha - s
        return math.sin(math.pi * ss) / (math.sin(math.pi * ss) + math.sin(math.pi * s)) - theta

    # theta(sigma) rises from 0 at sigma = alpha - 1 to 1 at sigma = 1
    if theta == 1.0:
        s = 1.0
    else:
        s = brentq(gap, alpha - 1.0, 1.0, xtol=1e-16, rtol=1e-15)
    return s, alpha - s


def stiffness(N: int, alpha: float, s: float, ss: float) -> np.ndarray:
    """lambda_n * h_n^{s,s*} for n = 0..N."""
    n = np.arange(N + 1, dtype=float)
    lam = (-math.sin(math.pi * alpha) / (math.sin(math.pi * ss) + math.sin(math.pi * s))
           * np.exp(gammaln(n + 1 + alpha) - gammaln(n + 1)))
    h = np.exp(gammaln(n + s + 1) + gammaln(n + ss + 1) - gammaln(n + 1)
               - gammaln(n + s + ss + 1)) / (2 * n + s + ss + 1)
    return lam * h


def jacobi_rows(nmax: int, a: float, b: float, t: np.ndarray) -> np.ndarray:
    """P_n^{a,b}(t) for n = 0..nmax, one row per degree, each row computed
    from the two before it over all nodes at once."""
    out = np.empty((nmax + 1, t.size))
    out[0] = 1.0
    if nmax >= 1:
        out[1] = 0.5 * ((a + b + 2.0) * t + (a - b))
    for n in range(2, nmax + 1):
        k = 2 * n + a + b
        out[n] = ((k - 1) * ((k * (k - 2)) * t + (a * a - b * b)) * out[n - 1]
                  - 2.0 * (n + a - 1) * (n + b - 1) * k * out[n - 2]) / (2.0 * n * (n + a + b) * (k - 2))
    return out


class Rule:
    """Gauss-Jacobi rule for int_0^1 (1-x)^a x^b g(x) dx."""

    def __init__(self, npts: int, a: float, b: float):
        t, w = roots_jacobi(npts, a, b)
        self.t = t
        self.x = (1.0 + t) / 2.0
        self.w = w * 2.0 ** (-(a + b + 1.0))

    def values(self, coeffs: np.ndarray, a: float, b: float) -> np.ndarray:
        """sum_n coeffs[n] Q_n^{a,b} at the nodes."""
        return coeffs @ jacobi_rows(len(coeffs) - 1, a, b, self.t)

    def moments(self, g: np.ndarray, nmax: int, a: float, b: float) -> np.ndarray:
        """int w g Q_m^{a,b} for m = 0..nmax, g given at the nodes."""
        return jacobi_rows(nmax, a, b, self.t) @ (self.w * g)


def kkt_residuals(*, alpha, theta, lambda1, lambda2, gamma, beta, f, u_d, U, Z, c):
    """Relative residuals of the discrete optimality system at (U, Z, c).

    Returns (state, adjoint): ||A U - F(q)|| / ||F|| and ||B Z - G(U)|| / ||G||,
    with q = c - z/gamma built from the returned c and Z.
    """
    U = np.asarray(U, dtype=float)
    Z = np.asarray(Z, dtype=float)
    N = U.size - 1
    s, ss = exponent_pair(theta, alpha)
    S = stiffness(N, alpha, s, ss)
    fd, ud = DATA[f], DATA[u_d]
    npts = N + 3

    mass = Rule(npts, alpha, alpha)
    u_m = mass.values(U, s, ss)
    z_m = mass.values(Z, ss, s)
    MU = mass.moments(u_m, N, ss, s)
    MtZ = mass.moments(z_m, N, s, ss)
    del mass, u_m, z_m

    adv = Rule(npts, alpha - 1, alpha - 1)
    deg = np.arange(N + 1) + 1.0
    adv_u = deg * adv.moments(adv.values(U, s, ss), N + 1, ss - 1, s - 1)[1:]
    adv_z = -deg * adv.moments(adv.values(Z, ss, s), N + 1, s - 1, ss - 1)[1:]
    del adv

    # F(q)_m = int (f + c) w^{s*,s} Q_m^{s*,s} - (1/gamma) int z w^{s*,s} Q_m^{s*,s}
    zframe = Rule(npts, ss, s)
    F = c * zframe.moments(np.ones(npts), N, ss, s)
    gram_z = Rule(npts, 2 * ss, 2 * s)
    F -= gram_z.moments(gram_z.values(Z, ss, s), N, ss, s) / gamma
    f_rule = Rule(npts, ss + beta, s + beta)
    F += f_rule.moments(fd(f_rule.x), N, ss, s)
    del zframe, gram_z, f_rule

    # G(U)_m = int (u - u_d) w^{s,s*} Q_m^{s,s*}
    gram_u = Rule(npts, 2 * s, 2 * ss)
    G = gram_u.moments(gram_u.values(U, s, ss), N, s, ss)
    ud_rule = Rule(npts, s + beta, ss + beta)
    G -= ud_rule.moments(ud(ud_rule.x), N, s, ss)

    rs = S * U + lambda1 * adv_u + lambda2 * MU - F
    ra = S * Z + lambda1 * adv_z + lambda2 * MtZ - G
    return float(np.linalg.norm(rs) / np.linalg.norm(F)), float(np.linalg.norm(ra) / np.linalg.norm(G))


def z_integral(*, alpha, theta, Z) -> float:
    """int_0^1 z = Z_0 h_0^{s*,s} (the higher modes integrate to zero)."""
    s, ss = exponent_pair(theta, alpha)
    return float(Z[0]) * math.exp(betaln(ss + 1.0, s + 1.0))


def predicted_order(*, alpha, theta, beta) -> float:
    """min(r + alpha, 2 alpha + min(s, s*) - 1); r = 2 beta + min(s, s*) + 1
    for data w^{beta,beta} times an analytic factor, r = inf for beta = 0."""
    s, ss = exponent_pair(theta, alpha)
    r = 2 * beta + min(s, ss) + 1 if beta != 0.0 else math.inf
    return min(r + alpha, 2 * alpha + min(s, ss) - 1)


def check_triple(problem: dict, U, Z, c: float, outer_iterations: int) -> list[str]:
    """Every check on one returned triple; an empty list means it passed."""
    fails = []
    rs, ra = kkt_residuals(**problem, U=U, Z=Z, c=c)
    if not rs <= KKT_TOL:
        fails.append(f"state residual {rs:.3e} > {KKT_TOL:g}")
    if not ra <= KKT_TOL:
        fails.append(f"adjoint residual {ra:.3e} > {KKT_TOL:g}")
    gamma = problem["gamma"]
    z_int = z_integral(alpha=problem["alpha"], theta=problem["theta"], Z=Z)
    want = max(0.0, z_int) / gamma
    if not abs(c - want) <= 1e-12 * max(1.0, abs(want)):
        fails.append(f"control constant {c!r} != max(0, Z0 h0)/gamma = {want!r}")
    mean = c - z_int / gamma
    if not mean >= MEAN_TOL:
        fails.append(f"control mean {mean:.3e} < 0")
    if problem["alpha"] == 1.8:
        centre, half = OUTER_BAND
        if abs(outer_iterations - centre) > half:
            fails.append(f"outer iterations {outer_iterations} outside {centre}+-{half}")
    return fails


def check_orders(problem: dict, orders) -> list[str]:
    """Observed u-orders must sit within ORDER_BAND of the predicted order."""
    want = predicted_order(alpha=problem["alpha"], theta=problem["theta"], beta=problem["beta"])
    bad = [o for o in orders if not abs(o - want) <= ORDER_BAND]
    if bad or not orders:
        return [f"u-orders {orders} outside {want:.3f}+-{ORDER_BAND}"]
    return []
