"""Discrete optimality system: stiffness S (diagonal), mass M, advection
D, the block preconditioner, and right-hand-side assembly.

State system:    A U = F,  A = S - lam1*D + lam2*M
Adjoint system:  B Z = G,  B = J A J, J = diag((-1)^n) = mirror(N): the
                 adjoint equation is the state equation reflected by
                 x -> 1-x, so only A is ever assembled

Dense assembly via exact Gauss-Jacobi quadrature is the normative
definition; the fast path applies the same operators in O(N log N) through
one weighted Gram of factored Jacobi conversions per apply (the mass term is
three bands of the weak-advection Gram) and is validated against the dense
form.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import dgetrf, dgetrs

from .fracparams import ExponentPair, lambda_coeff
from .jacobi import JacobiParams, gauss_jacobi_rule, jacobi_matrix, jacobi_norm_sq
from .transforms import ConversionCache, SpectralFunction, WeightedGram


class AssemblyError(RuntimeError):
    """Raised when an operator or right-hand side cannot be assembled."""


def mirror(N: int) -> np.ndarray:
    """J = diag((-1)^n), n = 0..N: the reflection x -> 1-x in coefficient
    space, since Q_n^{a,b}(1-x) = (-1)^n Q_n^{b,a}(x)."""
    J = np.ones(N + 1)
    J[1::2] = -1.0
    return J


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
    """O(N log N) application of A = S - lam1*D + lam2*M in the trial frame
    (g, b) = (sigma, sigma*), a = alpha.

    One weighted Gram of the trial series u against the lowered test basis,
    W_m = (u, Q_m^{b-1,g-1})_{w^{a-1,a-1}} for m = 0..N+2, carries both
    terms: (D U)_n = -(n+1) W_{n+1}, and since w^{a,a} = x(1-x) w^{a-1,a-1}
    with x(1-x) Q_m^{b,g} = c0_m Q_m + c1_m Q_{m+1} + c2_m Q_{m+2} in
    Q^{b-1,g-1} (DLMF 18.9.5-6), (M U)_m = c0_m W_m + c1_m W_{m+1} + c2_m W_{m+2}.
    mass_bands holds (c0, c1, c2) for m = 0..N.

    The Gram is built from cache's conversions.  Without a cache none is,
    and only leading_block may be used; at lam1 = lam2 = 0, A = S needs none.
    """

    def __init__(self, N: int, pair: ExponentPair, lam1: float, lam2: float,
                 cache: ConversionCache | None = None):
        self.pair, self.lam1, self.lam2 = pair, lam1, lam2
        a, g, b = pair.alpha, pair.sigma, pair.sigma_star
        P = JacobiParams
        self.S = stiffness_diagonal(N, pair)
        self.gram = (WeightedGram(cache, P(g, b), P(a - 1, a - 1), P(b - 1, g - 1), N, N + 2)
                     if cache is not None and (lam1 != 0.0 or lam2 != 0.0) else None)
        m = np.arange(N + 2.0)
        # (1-t) Q_m^{b,g} = a0 Q_m^{b-1,g} + a1 Q_{m+1}^{b-1,g}, t = 2x-1;
        # (1+t) Q_n^{b-1,g} = e0(n) Q_n^{b-1,g-1} + e1(n) Q_{n+1}^{b-1,g-1}
        a0 = 2 * (m[:-1] + b) / (2 * m[:-1] + b + g + 1)
        a1 = -2 * (m[:-1] + 1) / (2 * m[:-1] + b + g + 1)
        e0 = 2 * (m + g) / (2 * m + b + g)
        e1 = 2 * (m + 1) / (2 * m + b + g)
        self.mass_bands = (a0 * e0[:-1] / 4, (a0 * e1[:-1] + a1 * e0[1:]) / 4,
                            a1 * e1[1:] / 4)
        c0, c1, c2 = self.mass_bands
        # -lam1*D: D drops the first row of the weak derivative and scales
        # row n by -(n+1), so it adds lam1*(n+1) to the band on W_{n+1}
        self._bands = (lam2 * c0, lam2 * c1 + lam1 * (m[:-1] + 1), lam2 * c2)

    def _lower_order(self, W: np.ndarray) -> np.ndarray:
        """lam2*M - lam1*D from Gram values W[..., m], m = 0..k+1, along the
        last axis: rows m = 0..k-1 of the result, summed in place band by
        band (the leading block's W is a full matrix)."""
        k = W.shape[-1] - 2
        out = self._bands[0][:k] * W[..., :k]
        for j in (1, 2):
            out += self._bands[j][:k] * W[..., j:j + k]
        return out

    def __call__(self, U: np.ndarray) -> np.ndarray:
        out = self.S * U
        if self.lam1 != 0.0 or self.lam2 != 0.0:
            out += self._lower_order(self.gram(U))
        return out

    def leading_block(self, K: int) -> np.ndarray:
        """A's leading (K+1) x (K+1) block, which is A_K: the bases are
        hierarchical.  One (K+3)-point Gauss rule for w^{a-1,a-1} gives the
        Gram of trial degrees 0..K against test degrees 0..K+2 exactly, and
        _lower_order combines its rows as the apply combines W."""
        a, g, b = self.pair.alpha, self.pair.sigma, self.pair.sigma_star
        rule = gauss_jacobi_rule(K + 3, JacobiParams(a - 1, a - 1))
        Eu = jacobi_matrix(K, JacobiParams(g, b), rule.nodes)
        Et = jacobi_matrix(K + 2, JacobiParams(b - 1, g - 1), rule.nodes)
        Et *= rule.weights
        G = Et @ Eu.T  # G[m, n] = W_m of u = Q_n^{g,b}
        del Eu, Et  # each is (K+3) columns wide; free them before the rows are combined
        block = self._lower_order(G.T).T
        block[np.diag_indices(K + 1)] += self.S[:K + 1]
        return block


@dataclass
class OperatorSet:
    """The assembled discrete operators at truncation N.

    assemble_dense fills the oracle matrices M and D, which dense_A
    combines; assemble_fast fills the factored transform behind apply_A.
    The adjoint operator is never assembled: dense_B and apply_B are A
    between two mirrors J.  Each accessor raises AssemblyError on a set
    built without what it needs.
    """

    N: int
    pair: ExponentPair
    lam1: float
    lam2: float
    S: np.ndarray
    J: np.ndarray
    M: np.ndarray | None = None
    D: np.ndarray | None = None
    _fast_A: FastOperatorApply | None = field(default=None, repr=False)

    def dense_A(self) -> np.ndarray:
        if self.D is None:
            raise AssemblyError("no dense matrices in an OperatorSet from assemble_fast")
        return np.diag(self.S) - self.lam1 * self.D + self.lam2 * self.M

    def dense_B(self) -> np.ndarray:
        return self.J[:, None] * self.dense_A() * self.J

    def _fast_apply(self) -> FastOperatorApply:
        if self._fast_A is None:
            raise AssemblyError("no factored applies in an OperatorSet from assemble_dense")
        return self._fast_A

    def apply_A(self, U: np.ndarray) -> np.ndarray:
        return self._fast_apply()(U)

    def apply_B(self, Z: np.ndarray) -> np.ndarray:
        # _fast_apply, not apply_A: one apply_B is one operator apply
        return self.J * self._fast_apply()(self.J * Z)


def assemble_dense(N: int, pair: ExponentPair, lam1: float, lam2: float) -> OperatorSet:
    """Exact quadrature assembly of S, M and D."""
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
    del Eu, Ev  # each evaluation matrix is (N+1) x (N+3); free them before the next pair
    rule_d = gauss_jacobi_rule(N + 3, JacobiParams(a - 1, a - 1))
    Eu2 = jacobi_matrix(N, JacobiParams(g, b), rule_d.nodes)
    Et2 = jacobi_matrix(N + 1, JacobiParams(b - 1, g - 1), rule_d.nodes)
    D = -(nn[:, None] + 1) * ((Et2 * rule_d.weights) @ Eu2.T)[1:]
    return OperatorSet(N=N, pair=pair, lam1=lam1, lam2=lam2, S=S, J=mirror(N), M=M, D=D)


def assemble_fast(N: int, pair: ExponentPair, lam1: float, lam2: float,
                  cache: ConversionCache | None = None) -> OperatorSet:
    """Factored-transform assembly; applies match dense to ~1e-12 relative."""
    if N < 1:
        raise AssemblyError("truncation must be >= 1")
    fa = FastOperatorApply(N, pair, lam1, lam2, cache or ConversionCache())
    return OperatorSet(N=N, pair=pair, lam1=lam1, lam2=lam2, S=fa.S, J=mirror(N), _fast_A=fa)


# modes 0..PRECOND_MODES of A are preconditioned exactly, by one LU
PRECOND_MODES = 128


class BandedPreconditioner:
    """P = [[A_K, 0], [0, diag(tail)]] between two sign vectors J_K: A's
    leading (K+1) x (K+1) block, LU-factored once (LAPACK getrf, one getrs
    per solve), and a diagonal on modes K+1..N.  J_K is all ones for P and
    mirror(K) for J P J, which shares P's factors; J leaves the tail as is.
    The block is kept for residual checks, since at K = N, P = A.  The
    benchmark's tracer hooks this name and build_preconditioners."""

    def __init__(self, block: np.ndarray, tail: np.ndarray):
        if not (np.isfinite(block).all() and np.isfinite(tail).all()):
            raise AssemblyError("non-finite preconditioner")
        self.lu, self.piv, info = dgetrf(block)
        if info != 0 or not tail.all():
            raise AssemblyError("singular preconditioner")
        self.block, self.tail, self.J = block, tail, np.ones(len(block))

    def solve(self, r: np.ndarray) -> np.ndarray:
        k = len(self.J)
        return np.concatenate([self.J * dgetrs(self.lu, self.piv, self.J * r[:k])[0],
                               r[k:] / self.tail])


def preconditioners(fa: FastOperatorApply, K: int) -> tuple[BandedPreconditioner,
                                                             BandedPreconditioner]:
    """P, with A's exact leading block on modes 0..K and S + lam2*h^{alpha,alpha}
    on the modes above, where S ~ n^alpha outweighs advection and mass; and
    its mirror Phat = J P J, sharing P's factors.  For K = N, P = A."""
    N, a = len(fa.S) - 1, fa.pair.alpha
    tail = fa.S[K + 1:] + fa.lam2 * jacobi_norm_sq(np.arange(K + 1, N + 1), JacobiParams(a, a))
    P = BandedPreconditioner(fa.leading_block(K), tail)
    Phat = copy.copy(P)
    Phat.J = mirror(K)
    return P, Phat


def build_preconditioners(ops: OperatorSet) -> tuple[BandedPreconditioner, BandedPreconditioner]:
    """The preconditioners of a set from assemble_fast at K = min(N, PRECOND_MODES)."""
    return preconditioners(ops._fast_apply(), min(ops.N, PRECOND_MODES))


class RhsAssembler:
    """Precomputed pieces of the right-hand sides F and G.

    F_m = (f + q_N, Q_m^{s*,s})_{w^{s*,s}}
        = [data part, fixed] + c*h_0^{s*,s}*e_0 - (1/gamma) * gram_z(Zq)
    G_m = (u_N - u_d, Q_m^{s,s*})_{w^{s,s*}}
        = gram_u(U) - [data part, fixed]

    gram_z is the (s*,s)-frame Gram matrix under weight w^{2s*,2s}; it and
    the data parts are WeightedGram applies, O(N log N) each.  gram_u, its
    sigma-swapped counterpart, is gram_z between two mirrors J.
    """

    def __init__(self, N: int, pair: ExponentPair, f: SpectralFunction | None,
                 u_d: SpectralFunction | None, cache: ConversionCache | None = None):
        self.N = N
        self.pair = pair
        g, b = pair.sigma, pair.sigma_star
        cache = cache or ConversionCache()
        P = JacobiParams
        self.h0_zframe = float(jacobi_norm_sq(0, P(b, g)))
        self.J = mirror(N)
        self.gram_z = WeightedGram(cache, P(b, g), P(2 * b, 2 * g), P(b, g), N, N)
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

    def gram_u(self, U: np.ndarray) -> np.ndarray:
        return self.J * self.gram_z(self.J * U)

    def rhs_G(self, U: np.ndarray) -> np.ndarray:
        return self.gram_u(U) - self.G_data
