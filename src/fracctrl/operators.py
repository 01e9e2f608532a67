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
form.  A's leading block, and every right-hand-side Gram up to
N = FULL_LU_MODES, come column by column from one quadrature-free
recurrence, gram_columns.
"""

from __future__ import annotations

import copy

import numpy as np
from scipy.linalg.lapack import dgetrf, dgetrs

from .fracparams import ExponentPair, lambda_coeff
from .jacobi import (JacobiParams, gauss_jacobi_rule, jacobi_matrix, jacobi_norm_sq,
                     recurrence_coeffs)
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


def gram_columns(trial: JacobiParams, test: JacobiParams, weight: JacobiParams,
                 ncols: int, nrows: int):
    """Yield the columns n = 0..ncols-1 of the Gram
    G[m, n] = (Q_n^{trial}, Q_m^{test})_{w^{weight}}, rows m = 0..nrows-1,
    by two recurrences, with no quadrature (the modified Chebyshev
    algorithm; Gautschi 2004, sec. 2.1.7):

    - column 0 holds the moments nu_m of Q_m^{p,q}, (p, q) = test, under
      w^{c,d}, (c, d) = weight.  Integrating (w^{c+1,d+1} P_m)' over
      [-1, 1] gives 0 = int w^{c,d} [(1-t^2) P_m' + (d-c - (c+d+2) t) P_m],
      and the structure relation (Szego 4.5)
      (2m+p+q)(1-t^2) P_m' = m(p-q-(2m+p+q)t) P_m + 2(m+p)(m+q) P_{m-1}
      turns it into a three-term recurrence for nu_m, from
      nu_0 = B(c+1, d+1) and nu_1 = ((p+q+2)(d-c)/(c+d+2) + p-q)/2 nu_0;
    - column n follows from columns n-1 and n-2 by the trial basis's
      recurrence, where multiplying by t acts on a column through the
      test basis's: (t f, Q_m) = A_m G[m+1] + B_m G[m] + C_m G[m-1].

    Each column thus needs one more row than the next, so column 0 runs
    to row nrows+ncols-2.  Only the last two columns are kept; each
    yielded column is a new array."""
    (p, q), (c, d) = test.as_tuple(), weight.as_tuple()
    rows = nrows + ncols - 1  # column 0's rows
    # t Q_m = A_m Q_{m+1} + B_m Q_m + C_m Q_{m-1} in the test basis
    t1, t2, t3, t4 = recurrence_coeffs(np.arange(1.0, rows), test)
    A, B, C = t1 / t3, -t2 / t3, t4 / t3
    # nu_{m+1} = e1_m nu_m + e2_m nu_{m-1}, m >= 1: int w^{c,d} t P_m from the
    # structure relation, equated with A_m nu_{m+1} + B_m nu_m + C_m nu_{m-1}
    m = np.arange(1.0, rows - 1)
    mcd = m + (c + d) + 2
    scale = (2 * m + p + q) * mcd
    e1 = ((m * (p - q) / scale + (d - c) / mcd - B[1:]) / A[1:]).tolist()
    e2 = ((2 * (m + p) * (m + q) / scale - C[1:]) / A[1:]).tolist()
    nu = [float(jacobi_norm_sq(0, weight))]  # B(c+1, d+1)
    nu.append(((p + q + 2) * (d - c) / (c + d + 2) + p - q) / 2 * nu[0])
    for k in range(rows - 2):
        nu.append(e1[k] * nu[k + 1] + e2[k] * nu[k])
    # column n = (c3 t G_{n-1} + c2 G_{n-1} - c4 G_{n-2}) / c1, formed in place
    c1, c2, c3, c4 = (x.tolist() for x in recurrence_coeffs(np.arange(1.0, ncols), trial))
    col, prev = np.array(nu[:rows]), np.zeros(rows)
    yield col[:nrows]
    for k in range(ncols - 1):
        L = rows - k - 1
        new = A[:L] * col[1:L + 1]
        new += B[:L] * col[:L]
        new[1:] += C[1:L] * col[:L - 1]
        new *= c3[k]
        new += c2[k] * col[:L]
        new -= c4[k] * prev[:L]
        new /= c1[k]
        col, prev = new, col
        yield col[:nrows]


class OperatorSet:
    """A = S - lam1*D + lam2*M at truncation N, in the trial frame
    (g, b) = (sigma, sigma*), a = alpha, and its mirror B = J A J, which is
    never assembled.

    apply_A is O(N log N): one weighted Gram of the trial series u against
    the lowered test basis, W_m = (u, Q_m^{b-1,g-1})_{w^{a-1,a-1}} for
    m = 0..N+2, carries both terms: (D U)_n = -(n+1) W_{n+1}, and since
    w^{a,a} = x(1-x) w^{a-1,a-1} with x(1-x) Q_m^{b,g} = c0_m Q_m +
    c1_m Q_{m+1} + c2_m Q_{m+2} in Q^{b-1,g-1} (DLMF 18.9.5-6),
    (M U)_m = c0_m W_m + c1_m W_{m+1} + c2_m W_{m+2}.  mass_bands holds
    (c0, c1, c2) for m = 0..N.

    The Gram is built from cache's conversions.  Without a cache none is:
    leading_block still works, and the applies raise AssemblyError unless
    lam1 = lam2 = 0 (A = S).  dense_A and dense_B combine the oracle
    matrices M and D, which only assemble_dense adds.
    """

    def __init__(self, N: int, pair: ExponentPair, lam1: float, lam2: float,
                 cache: ConversionCache | None = None):
        if N < 1:
            raise AssemblyError("truncation must be >= 1")
        self.N, self.pair, self.lam1, self.lam2 = N, pair, lam1, lam2
        a, g, b = pair.alpha, pair.sigma, pair.sigma_star
        P = JacobiParams
        self.S = stiffness_diagonal(N, pair)
        self.J = mirror(N)
        self.M = self.D = None
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
        band."""
        k = W.shape[-1] - 2
        out = self._bands[0][:k] * W[..., :k]
        for j in (1, 2):
            out += self._bands[j][:k] * W[..., j:j + k]
        return out

    def _apply(self, U: np.ndarray) -> np.ndarray:
        out = self.S * U
        if self.lam1 != 0.0 or self.lam2 != 0.0:
            if self.gram is None:
                raise AssemblyError("no Gram in an OperatorSet built without a cache")
            out += self._lower_order(self.gram(U))
        return out

    def apply_A(self, U: np.ndarray) -> np.ndarray:
        return self._apply(U)

    def apply_B(self, Z: np.ndarray) -> np.ndarray:
        # _apply, not apply_A: one apply_B is one operator apply
        return self.J * self._apply(self.J * Z)

    def leading_block(self, K: int) -> np.ndarray:
        """A's leading (K+1) x (K+1) block, which is A_K: the bases are
        hierarchical.  It is S plus _lower_order of the Gram
        G[m, n] = (Q_n^{g,b}, Q_m^{b-1,g-1})_{w^{a-1,a-1}}, m = 0..K+2, whose
        columns gram_columns yields one at a time, with no quadrature.  Each
        is combined as the apply combines W as soon as it is made, so no
        Gram is kept."""
        a, g, b = self.pair.alpha, self.pair.sigma, self.pair.sigma_star
        P = JacobiParams
        blockT = np.empty((K + 1, K + 1))  # row n is the block's column n
        for n, col in enumerate(gram_columns(P(g, b), P(b - 1, g - 1), P(a - 1, a - 1),
                                             K + 1, K + 3)):
            blockT[n] = self._lower_order(col)
        block = blockT.T
        block[np.diag_indices(K + 1)] += self.S[:K + 1]
        return block

    def dense_A(self) -> np.ndarray:
        if self.D is None:
            raise AssemblyError("no dense matrices: only assemble_dense adds M and D")
        return np.diag(self.S) - self.lam1 * self.D + self.lam2 * self.M

    def dense_B(self) -> np.ndarray:
        return self.J[:, None] * self.dense_A() * self.J


def assemble_dense(N: int, pair: ExponentPair, lam1: float, lam2: float) -> OperatorSet:
    """A set without a Gram, plus M and D by exact quadrature."""
    ops = OperatorSet(N, pair, lam1, lam2)
    a = pair.alpha
    g, b = pair.sigma, pair.sigma_star
    nn = np.arange(N + 1)
    rule_m = gauss_jacobi_rule(N + 3, JacobiParams(a, a))
    Eu = jacobi_matrix(N, JacobiParams(g, b), rule_m.nodes)
    Ev = jacobi_matrix(N, JacobiParams(b, g), rule_m.nodes)
    ops.M = (Ev * rule_m.weights) @ Eu.T
    del Eu, Ev  # each evaluation matrix is (N+1) x (N+3); free them before the next pair
    rule_d = gauss_jacobi_rule(N + 3, JacobiParams(a - 1, a - 1))
    Eu2 = jacobi_matrix(N, JacobiParams(g, b), rule_d.nodes)
    Et2 = jacobi_matrix(N + 1, JacobiParams(b - 1, g - 1), rule_d.nodes)
    ops.D = -(nn[:, None] + 1) * ((Et2 * rule_d.weights) @ Eu2.T)[1:]
    return ops


def assemble_fast(N: int, pair: ExponentPair, lam1: float, lam2: float,
                  cache: ConversionCache | None = None) -> OperatorSet:
    """Factored-transform assembly; applies match dense to ~1e-12 relative."""
    return OperatorSet(N, pair, lam1, lam2, cache or ConversionCache())


# Up to N = FULL_LU_MODES a solve factors all of A (K = N), which beats
# GMRES there on every case measured, and forms its right-hand sides' Grams
# by gram_columns; above it GMRES runs on the fast apply, preconditioned by
# one LU of A's modes 0..PRECOND_MODES, and those Grams are WeightedGrams
PRECOND_MODES = 128
FULL_LU_MODES = 512


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


def build_preconditioners(ops: OperatorSet, K: int | None = None
                          ) -> tuple[BandedPreconditioner, BandedPreconditioner]:
    """P, with A's exact leading block on modes 0..K (default
    min(N, PRECOND_MODES), GMRES's block) and S + lam2*h^{alpha,alpha} on
    the modes above, where S ~ n^alpha outweighs advection and mass; and
    its mirror Phat = J P J, sharing P's factors.  For K = N, P = A."""
    N, a = ops.N, ops.pair.alpha
    K = min(N, PRECOND_MODES) if K is None else K
    tail = ops.S[K + 1:] + ops.lam2 * jacobi_norm_sq(np.arange(K + 1, N + 1), JacobiParams(a, a))
    P = BandedPreconditioner(ops.leading_block(K), tail)
    Phat = copy.copy(P)
    Phat.J = mirror(K)
    return P, Phat


def _reflected(fun: SpectralFunction) -> SpectralFunction:
    """fun(1-x): w^{a,b}(1-x) = w^{b,a}(x) and Q_n^{p,q}(1-x) = (-1)^n Q_n^{q,p}(x)."""
    wa, wb = fun.weight_exponents
    p, q = fun.poly_params.as_tuple()
    return SpectralFunction((wb, wa), JacobiParams(q, p), mirror(fun.degree) * fun.coeffs)


class RhsAssembler:
    """Precomputed pieces of the right-hand sides F and G.

    F_m = (f + q_N, Q_m^{s*,s})_{w^{s*,s}}
        = [data part, fixed] + c*h_0^{s*,s}*e_0 - (1/gamma) * gram_z(Zq)
    G_m = (u_N - u_d, Q_m^{s,s*})_{w^{s,s*}}
        = gram_u(U) - [data part, fixed]

    gram_z is the (s*,s)-frame Gram under weight w^{2s*,2s}, and each data
    part the Gram of the data's basis against Q^{s*,s} under w^{s*,s} times
    the data's weight, applied to its coefficients.  Up to N = FULL_LU_MODES,
    where a solve factors all of A, each Gram is a matrix from gram_columns,
    the recurrence that builds A's block, so no conversion is built; above,
    each is a WeightedGram, O(N log N) per apply.  gram_u, its sigma-swapped
    counterpart, is gram_z between two mirrors J, and the data part of G is
    likewise J times F's projection of u_d reflected by x -> 1-x, so data f
    and u_d in one basis and weight share one Gram.
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
        self.gram_z = self._gram(P(b, g), P(2 * b, 2 * g), N, cache)
        grams = {}

        def project(fun: SpectralFunction) -> np.ndarray:
            wa, wb = fun.weight_exponents
            key = (fun.poly_params, wa, wb, fun.degree)
            if key not in grams:
                grams[key] = self._gram(fun.poly_params, P(b + wa, g + wb), fun.degree, cache)
            return grams[key](fun.coeffs)

        self.F_data = project(f) if f is not None else np.zeros(N + 1)
        self.G_data = (self.J * project(_reflected(u_d)) if u_d is not None
                       else np.zeros(N + 1))

    def _gram(self, trial: JacobiParams, weight: JacobiParams, k_in: int,
              cache: ConversionCache):
        """v -> (sum_n v_n Q_n^{trial}, Q_m^{s*,s})_{w^{weight}}, m = 0..N,
        for v of length k_in+1."""
        N, test = self.N, JacobiParams(self.pair.sigma_star, self.pair.sigma)
        if N > FULL_LU_MODES:
            return WeightedGram(cache, trial, weight, test, k_in, N)
        GT = np.empty((k_in + 1, N + 1))
        for n, col in enumerate(gram_columns(trial, test, weight, k_in + 1, N + 1)):
            GT[n] = col
        return GT.T.__matmul__

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
