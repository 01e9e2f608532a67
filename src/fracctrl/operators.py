"""Discrete optimality system: stiffness S (diagonal), mass M, advection
D and Dhat, preconditioners, and right-hand-side assembly.

State system:    (S - lam1*D + lam2*M) U = F
Adjoint system:  (S + lam1*Dhat + lam2*M^T) Z = G

Dense assembly via exact Gauss-Jacobi quadrature is the normative
definition; the fast path applies the same operators in O(N log N) through
factored Jacobi conversions and is validated against the dense form.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import dgttrf, dgttrs

from .fracparams import ExponentPair, lambda_coeff
from .jacobi import (JacobiParams, QuadratureRule, gauss_jacobi_rule, jacobi_matrix,
                     jacobi_norm_sq, jacobi_rows)
from .transforms import ConversionCache, SpectralFunction, WeightedGram


class AssemblyError(RuntimeError):
    """Raised when an operator or right-hand side cannot be assembled."""


def stiffness_diagonal(N: int, pair: ExponentPair) -> np.ndarray:
    """S_n = lambda_n * h_n^{sigma,sigma*}; strictly positive for alpha in (1,2).

    The eigenvalue is computed for both theta and 1-theta and asserted
    equal (they coincide because the formula is symmetric under the
    sigma <-> sigma* swap); the theta form is returned.
    """
    nn = np.arange(N + 1)
    lam = lambda_coeff(nn, pair)
    lam_swapped = lambda_coeff(nn, pair.swapped())
    if not np.allclose(lam, lam_swapped, rtol=1e-13, atol=0.0):
        raise AssemblyError("eigenvalue theta/(1-theta) symmetry violated")
    h = jacobi_norm_sq(nn, JacobiParams(pair.sigma, pair.sigma_star))
    return lam * h


class FastOperatorApply:
    """O(N log N) application of S - sgn*lam1*D + lam2*M in the trial frame
    with polynomial parameters (g, b).

    Mass and advection are weighted Grams of the trial series u against the
    test basis (b, g) and its lowered counterpart, one degree larger:
    (M U)_m = (u, Q_m^{b,g})_{w^{a,a}} and
    (D U)_m = -(m+1) (u, Q_{m+1}^{b-1,g-1})_{w^{a-1,a-1}}, a = alpha.
    The state operator A uses (g, b) = (sigma, sigma*) and sgn = +1;
    the adjoint operator B is the same construction with parameters
    swapped and sgn = -1 (its advection enters with a plus sign and its
    mass matrix is the transpose, which is the swapped-frame mass).
    """

    def __init__(self, N: int, pair: ExponentPair, g: float, b: float, sgn: float,
                 lam1: float, lam2: float, cache: ConversionCache | None = None):
        self.sgn = sgn
        self.lam1, self.lam2 = lam1, lam2
        a = pair.alpha
        cache = cache or ConversionCache()
        P = JacobiParams
        self.S = stiffness_diagonal(N, pair)
        # a term with a zero coefficient builds no conversions
        self.mass = (WeightedGram(cache, P(g, b), P(a, a), P(b, g), N, N)
                     if lam2 != 0.0 else None)
        self.weak_advection = (WeightedGram(cache, P(g, b), P(a - 1, a - 1),
                                            P(b - 1, g - 1), N, N + 1)
                               if lam1 != 0.0 else None)
        self._advection_rows = -(np.arange(N + 1) + 1.0)

    def __call__(self, U: np.ndarray) -> np.ndarray:
        out = self.S * U
        if self.weak_advection is not None:
            # D U: drop the first row of the weak derivative, scale row n by -(n+1)
            out -= self.sgn * self.lam1 * self._advection_rows * self.weak_advection(U)[1:]
        if self.mass is not None:
            out += self.lam2 * self.mass(U)
        return out


@dataclass
class OperatorSet:
    """The assembled discrete operators at truncation N.

    assemble_dense fills the oracle matrices M, D, Dhat, which dense_A /
    dense_B combine; assemble_fast fills the factored transforms behind
    apply_A / apply_B.  Each accessor raises AssemblyError on a set built
    without what it needs.
    """

    N: int
    pair: ExponentPair
    lam1: float
    lam2: float
    S: np.ndarray
    Q_diag: np.ndarray
    M: np.ndarray | None = None
    D: np.ndarray | None = None
    Dhat: np.ndarray | None = None
    _fast_A: FastOperatorApply | None = field(default=None, repr=False)
    _fast_B: FastOperatorApply | None = field(default=None, repr=False)

    def dense_A(self) -> np.ndarray:
        if self.D is None:
            raise AssemblyError("no dense matrices in an OperatorSet from assemble_fast")
        return np.diag(self.S) - self.lam1 * self.D + self.lam2 * self.M

    def dense_B(self) -> np.ndarray:
        if self.Dhat is None:
            raise AssemblyError("no dense matrices in an OperatorSet from assemble_fast")
        return np.diag(self.S) + self.lam1 * self.Dhat + self.lam2 * self.M.T

    def apply_A(self, U: np.ndarray) -> np.ndarray:
        if self._fast_A is None:
            raise AssemblyError("no factored applies in an OperatorSet from assemble_dense")
        return self._fast_A(U)

    def apply_B(self, Z: np.ndarray) -> np.ndarray:
        if self._fast_B is None:
            raise AssemblyError("no factored applies in an OperatorSet from assemble_dense")
        return self._fast_B(Z)


def assemble_dense(N: int, pair: ExponentPair, lam1: float, lam2: float) -> OperatorSet:
    """Exact quadrature assembly of S, M, D, Dhat."""
    if N < 1:
        raise AssemblyError("truncation must be >= 1")
    a = pair.alpha
    g, b = pair.sigma, pair.sigma_star
    nn = np.arange(N + 1)
    S = stiffness_diagonal(N, pair)
    rule_m = gauss_jacobi_rule(N + 3, JacobiParams(a, a))
    Eu = jacobi_matrix(N, JacobiParams(g, b), rule_m.nodes)
    Ev = jacobi_matrix(N, JacobiParams(b, g), rule_m.nodes)
    M = (Ev * rule_m.weights) @ Eu.T
    rule_d = gauss_jacobi_rule(N + 3, JacobiParams(a - 1, a - 1))
    Eu2 = jacobi_matrix(N, JacobiParams(g, b), rule_d.nodes)
    Et2 = jacobi_matrix(N + 1, JacobiParams(b - 1, g - 1), rule_d.nodes)
    D = -(nn[:, None] + 1) * ((Et2 * rule_d.weights) @ Eu2.T)[1:]
    Ev2 = jacobi_matrix(N, JacobiParams(b, g), rule_d.nodes)
    Eth2 = jacobi_matrix(N + 1, JacobiParams(g - 1, b - 1), rule_d.nodes)
    Dhat = -(nn[:, None] + 1) * ((Eth2[1:] * rule_d.weights) @ Ev2.T)
    return OperatorSet(
        N=N, pair=pair, lam1=lam1, lam2=lam2, S=S,
        Q_diag=jacobi_norm_sq(nn, JacobiParams(a, a)), M=M, D=D, Dhat=Dhat,
    )


def assemble_fast(N: int, pair: ExponentPair, lam1: float, lam2: float,
                  cache: ConversionCache | None = None) -> OperatorSet:
    """Factored-transform assembly; applies match dense to ~1e-12 relative."""
    if N < 1:
        raise AssemblyError("truncation must be >= 1")
    cache = cache or ConversionCache()
    g, b = pair.sigma, pair.sigma_star
    fa = FastOperatorApply(N, pair, g, b, +1.0, lam1, lam2, cache)
    fb = FastOperatorApply(N, pair, b, g, -1.0, lam1, lam2, cache)
    return OperatorSet(
        N=N, pair=pair, lam1=lam1, lam2=lam2, S=fa.S,
        Q_diag=jacobi_norm_sq(np.arange(N + 1), JacobiParams(pair.alpha, pair.alpha)),
        _fast_A=fa, _fast_B=fb,
    )


def advection_offdiagonals(N: int, pair: ExponentPair, rule: QuadratureRule,
                           adjoint: bool = False):
    """First super- and sub-diagonal of D (or Dhat) by streaming quadrature
    with `rule`, the (N+3)-point Gauss rule for weight (alpha-1, alpha-1).

    Returns (up, lo) with up[n] = D[n, n+1] for n = 0..N-1 and
    lo[n] = D[n+1, n] for n = 0..N-1 (index N entries are scratch).
    Memory O(npts); never materializes the dense matrix.
    """
    g, b = (pair.sigma, pair.sigma_star) if not adjoint else (pair.sigma_star, pair.sigma)
    t = 2.0 * rule.nodes - 1.0
    w = rule.weights
    trial = jacobi_rows(JacobiParams(g, b), t)
    test = jacobi_rows(JacobiParams(b - 1, g - 1), t)
    u0, u1 = next(trial), next(trial)  # trial Q_n, Q_{n+1}
    next(test)
    v1 = next(test)                    # test Q_{n+1}
    up = np.empty(N + 1)
    lo = np.empty(N + 1)
    for n in range(N + 1):
        v2 = next(test)
        # D[n, n+1] = -(n+1) * int w Q_{n+1}^{trial} Q_{n+1}^{test}
        # D[n+1, n] = -(n+2) * int w Q_n^{trial} Q_{n+2}^{test}
        up[n] = -(n + 1) * np.dot(w, u1 * v1)
        lo[n] = -(n + 2) * np.dot(w, u0 * v2)
        u0, u1, v1 = u1, next(trial), v2
    return up, lo


@dataclass
class BandedPreconditioner:
    """Tridiagonal P stored in scipy solve_banded (1,1) layout and
    LU-factored once (LAPACK gttrf); each solve is one gttrs."""

    bands: np.ndarray  # shape (3, N+1): super, main, sub
    _lu: tuple = field(init=False, repr=False)

    def __post_init__(self):
        if not np.isfinite(self.bands).all():
            raise AssemblyError("non-finite preconditioner bands")
        sup, mid, sub = self.bands
        *lu, info = dgttrf(sub[:-1], mid, sup[1:])
        if info != 0:
            raise AssemblyError(f"singular preconditioner: gttrf info {info}")
        self._lu = tuple(lu)

    def solve(self, r: np.ndarray) -> np.ndarray:
        return dgttrs(*self._lu, r)[0]


def build_preconditioners(ops: OperatorSet) -> tuple[BandedPreconditioner, BandedPreconditioner]:
    """P = S - lam1*K + lam2*Q and Phat = S + lam1*Khat + lam2*Q, where
    K / Khat carry only the first off-diagonals of D / Dhat and Q is the
    diagonal of mass norms h_n^{alpha,alpha}.
    """
    N = ops.N
    diag = ops.S + ops.lam2 * ops.Q_diag
    a1 = ops.pair.alpha - 1
    rule = gauss_jacobi_rule(N + 3, JacobiParams(a1, a1)) if ops.lam1 != 0.0 else None
    out = []
    for adjoint, sign in ((False, -1.0), (True, +1.0)):
        bands = np.zeros((3, N + 1))
        if rule is not None:
            up, lo = advection_offdiagonals(N, ops.pair, rule, adjoint)
            bands[0, 1:] = sign * ops.lam1 * up[:-1]
            bands[2, :-1] = sign * ops.lam1 * lo[:-1]
        bands[1] = diag
        out.append(BandedPreconditioner(bands))
    return out[0], out[1]


class RhsAssembler:
    """Precomputed pieces of the right-hand sides F and G.

    F_m = (f + q_N, Q_m^{s*,s})_{w^{s*,s}}
        = [data part, fixed] + c*h_0^{s*,s}*e_0 - (1/gamma) * gram_z(Zq)
    G_m = (u_N - u_d, Q_m^{s,s*})_{w^{s,s*}}
        = gram_u(U) - [data part, fixed]

    gram_z is the (s*,s)-frame Gram matrix under weight w^{2s*,2s} and
    gram_u its sigma-swapped counterpart; they and the data parts are
    WeightedGram applies, O(N log N) each.
    """

    def __init__(self, N: int, pair: ExponentPair, f: SpectralFunction | None,
                 u_d: SpectralFunction | None, cache: ConversionCache | None = None):
        self.N = N
        self.pair = pair
        g, b = pair.sigma, pair.sigma_star
        cache = cache or ConversionCache()
        P = JacobiParams
        self.h0_zframe = float(jacobi_norm_sq(0, P(b, g)))
        self.gram_z = WeightedGram(cache, P(b, g), P(2 * b, 2 * g), P(b, g), N, N)
        self.gram_u = WeightedGram(cache, P(g, b), P(2 * g, 2 * b), P(g, b), N, N)
        self.F_data = self._project_data(f, P(b, g), cache) if f is not None else np.zeros(N + 1)
        self.G_data = (self._project_data(u_d, P(g, b), cache) if u_d is not None
                       else np.zeros(N + 1))

    def _project_data(self, fun: SpectralFunction, test: JacobiParams,
                      cache: ConversionCache) -> np.ndarray:
        """(fun, Q_m^{test})_{w^{test}}: the polynomial part's Gram under
        w^{T}, T = test + fun.weight_exponents."""
        wa, wb = fun.weight_exponents
        T = JacobiParams(test.gamma + wa, test.beta + wb)
        return WeightedGram(cache, fun.poly_params, T, test, fun.degree, self.N)(fun.coeffs)

    def rhs_F(self, c: float, Zq: np.ndarray, gamma: float) -> np.ndarray:
        F = self.F_data.copy()
        F[0] += c * self.h0_zframe
        if np.any(Zq):
            F -= self.gram_z(Zq) / gamma
        return F

    def rhs_G(self, U: np.ndarray) -> np.ndarray:
        return self.gram_u(U) - self.G_data
