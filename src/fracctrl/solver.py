"""Projected-gradient optimization driver.

Outer loop (per iteration): solve the state system, solve the adjoint
system, update the control by the pointwise projection
q_new = max{0, zbar}/gamma - z/gamma, and stop when the relative sup-norm
change of the control representation falls below the outer tolerance.
It sees the two linear systems only as a pair of solve callables from
linear_solves, over the LU of A's leading (K+1) x (K+1) block: with
K = N (direct mode, or N <= FULL_LU_MODES) that LU alone answers every
solve, and with K = PRECOND_MODES GMRES runs with the block as its
preconditioner, warm-started from the last outer iterate.
Nothing built before the first iteration depends on gamma, so optimize
keeps that set-up in its ConversionCache's slot, and the next solve on the
cache with the same discretization and data reuses it.
It raises SolverError as soon as the average contraction of the control
change shows that it cannot reach the tolerance in outer_max iterations.
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass, field

import numpy as np

from .fracparams import ExponentPair, solve_sigma
from .jacobi import JacobiParams, jacobi_norm_sq
from .operators import (FULL_LU_MODES, PRECOND_MODES, BandedPreconditioner, OperatorSet,
                        RhsAssembler, assemble_fast, build_preconditioners)
from .transforms import ConversionCache, SpectralFunction


MODES = ("direct", "fast")


class SolverError(RuntimeError):
    """Raised when an inner solve uses its budget or the outer loop fails."""


@dataclass(frozen=True)
class ProblemSpec:
    """The control problem: minimize a tracking functional subject to the
    fractional state equation, over controls with nonnegative mean."""

    alpha: float
    theta: float
    lambda1: float = 1.0
    lambda2: float = 1.0
    gamma: float = 1.0
    f: SpectralFunction | None = None
    u_d: SpectralFunction | None = None
    data_regularity: float | None = None  # r index; None means analytic data

    def __post_init__(self):
        if not (math.isfinite(self.gamma) and self.gamma > 0):
            raise ValueError(f"gamma must be positive and finite, got {self.gamma!r}")
        for name, value in (("lambda1", self.lambda1), ("lambda2", self.lambda2)):
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")

    def exponent_pair(self) -> ExponentPair:
        return solve_sigma(self.theta, self.alpha)


@dataclass
class SolverConfig:
    N: int = 64
    mode: str = "fast"  # one of MODES: "direct" sets K = N above FULL_LU_MODES too
    inner_max: int = 400
    outer_tol: float = 1e-12
    outer_max: int = 5000

    def __post_init__(self):
        if not (math.isfinite(self.outer_tol) and self.outer_tol > 0):
            raise ValueError(f"outer_tol must be positive and finite, got {self.outer_tol!r}")
        for name in ("N", "inner_max", "outer_max"):
            v = getattr(self, name)
            # bool is an Integral, but True is not a count
            if not isinstance(v, numbers.Integral) or isinstance(v, bool):
                raise ValueError(f"{name} must be an integer, got {v!r}")
            if v < 1:
                raise ValueError(f"{name} must be at least 1, got {v!r}")
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")


@dataclass(frozen=True)
class ControlFunction:
    """q = constant_part - z_part/gamma, with z_part in the adjoint frame
    w^{sigma*,sigma} Q^{sigma*,sigma}."""

    constant_part: float
    z_part: SpectralFunction
    gamma: float

    def values(self, x: np.ndarray) -> np.ndarray:
        return self.constant_part - self.z_part.values(x) / self.gamma

    def rep_vector(self) -> np.ndarray:
        """The outer-loop metric representation: constant prepended to the
        z-coefficients scaled by 1/gamma."""
        return np.concatenate([[self.constant_part], self.z_part.coeffs / self.gamma])

    def mean(self) -> float:
        """Integral of q over [0,1], exact through orthogonality."""
        a, b = self.z_part.weight_exponents
        h0 = jacobi_norm_sq(0, JacobiParams(a, b))
        return self.constant_part - self.z_part.coeffs[0] * h0 / self.gamma


@dataclass
class SolveStats:
    outer_iterations: int = 0
    inner_iterations: list = field(default_factory=list)
    residual_history: list = field(default_factory=list)
    wall_time: float = 0.0
    setup_reused: bool = False  # the set-up came from the cache's slot


@dataclass
class OptimalTriple:
    U: SpectralFunction
    Z: SpectralFunction
    q: ControlFunction
    pair: ExponentPair
    stats: SolveStats


def _lu_solve(P: BandedPreconditioner, b: np.ndarray, system: str) -> np.ndarray:
    """P x = b for P = J A J, a preconditioner whose block is all of A
    (J all ones for the state), residual-checked as |b - J A J x|."""
    x = P.solve(b)
    nb = np.linalg.norm(b)
    if nb > 0 and np.linalg.norm(b - P.J * (P.block @ (P.J * x))) > 1e-10 * nb:
        raise SolverError(f"dense {system} solve residual too large")
    return x


def direct_solve_state(P: BandedPreconditioner, F: np.ndarray) -> np.ndarray:
    """A U = F through the LU of a preconditioner whose block is all of A."""
    return _lu_solve(P, F, "state")


def direct_solve_adjoint(Phat: BandedPreconditioner, G: np.ndarray) -> np.ndarray:
    """B Z = G with B = J A J, through Phat = J P J, which shares P's LU."""
    return _lu_solve(Phat, G, "adjoint")


def fixed_point_solve(apply_op, precond, rhs: np.ndarray,
                      config: SolverConfig, x0: np.ndarray | None = None,
                      Ax: np.ndarray | None = None, tol: float | None = None):
    """Right-preconditioned GMRES without restarts (Saad & Schultz 1986):
    x = x0 + P^{-1} V y minimizes |rhs - A x| over the Krylov space of
    A P^{-1} and rhs - A x0, so any nonsingular P will do; precond.solve(r)
    returns P^{-1} r.  Returns (x,
    iterations, True) at relative residual tol (default outer_tol/10) and
    raises SolverError if min(inner_max, N+1) basis vectors fall short.

    A warm start x0 comes with Ax = A x0, so the solve applies A once per
    iteration and never to x0; without x0 it starts from x = 0.  Ax, if
    given, is updated in place to A x through the Arnoldi relation
    A P^{-1} V_k = V_{k+1} Hbar_k."""
    tol = config.outer_tol / 10 if tol is None else tol
    if x0 is not None and Ax is None:
        raise ValueError("a warm start x0 needs Ax = A x0")
    nr = math.sqrt(rhs @ rhs)
    if not math.isfinite(nr):
        raise SolverError(f"right-hand side norm is {nr}")
    if nr == 0.0:
        if Ax is not None:
            Ax[:] = 0.0
        return np.zeros_like(rhs), 0, True
    x, r = (np.zeros_like(rhs), rhs) if x0 is None else (x0, rhs - Ax)
    g = [math.sqrt(r @ r)]  # |g[-1]| is the residual norm of the current x
    m = min(config.inner_max, rhs.size)
    V, Z = np.empty((2, min(m + 1, 8), rhs.size))  # rows of V and P^{-1} V, doubled when full
    V[0] = r / (g[0] or 1.0)
    H, rot, R, k = [], [], [], 0  # H holds the columns of Hbar before rotation
    while not abs(g[-1]) <= tol * nr:  # a NaN residual runs into the budget
        if k == m:
            raise SolverError(f"GMRES used its inner_max = {config.inner_max} budget ({m} "
                              f"basis vectors) at relative residual {abs(g[-1]) / nr:.3e}")
        Z[k] = precond.solve(V[k])
        w = apply_op(Z[k])
        h = V[:k + 1] @ w  # classical Gram-Schmidt, applied twice
        w -= h @ V[:k + 1]
        h2 = V[:k + 1] @ w
        w -= h2 @ V[:k + 1]
        col, hn = (h + h2).tolist(), math.sqrt(w @ w)
        H.append(col + [hn])
        for i, (c, s) in enumerate(rot):  # the earlier Givens rotations
            col[i], col[i + 1] = c * col[i] + s * col[i + 1], c * col[i + 1] - s * col[i]
        R.append(col[:k] + [math.hypot(col[k], hn)])  # column k of the triangular factor
        rot.append((col[k] / R[k][k], hn / R[k][k]))
        g[k:] = rot[k][0] * g[k], -rot[k][1] * g[k]
        if k + 1 == len(V):
            V, Z = (np.concatenate([a, np.empty_like(a)]) for a in (V, Z))
        V[k + 1] = w / (hn or 1.0)
        k += 1
    y = g[:k]  # R y = g by back substitution, column by column
    for j in reversed(range(k)):
        y[j] /= R[j][j]
        y[:j] = [yi - y[j] * rij for yi, rij in zip(y[:j], R[j])]
    if Ax is not None:  # A x = A x0 + V_{k+1} Hbar_k y, and A x0 = 0 without x0
        Hbar = np.zeros((k + 1, k))
        for j, hj in enumerate(H):
            Hbar[:j + 2, j] = hj
        Ax[:] = (Hbar @ y) @ V[:k + 1] + (0.0 if x0 is None else Ax)
    return x + np.array(y) @ Z[:k], k, True


def project_control(Z: np.ndarray, gamma: float, pair: ExponentPair,
                    h0: float) -> ControlFunction:
    """Control update: c = max(0, z0*h0)/gamma, q = c - z/gamma, with
    h0 = h_0^{sigma*,sigma} (RhsAssembler.h0_zframe)."""
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    b, g = pair.sigma_star, pair.sigma
    c = max(0.0, Z[0] * h0) / gamma
    z_part = SpectralFunction((b, g), JacobiParams(b, g), np.asarray(Z, dtype=float))
    return ControlFunction(constant_part=c, z_part=z_part, gamma=gamma)


def _setup_key(spec: ProblemSpec, N: int, K: int) -> tuple:
    """What _build_setup's output depends on: N, K, alpha, theta, lambda1,
    lambda2 and the data f and u_d (weight exponents, basis parameters and
    coefficients).  Floats enter as their bytes, so equal keys mean bitwise
    equal inputs (0.0 and -0.0 differ).  gamma, inner_max, outer_tol and
    outer_max are left out, and mode counts only through K."""
    def data(fun):
        return None if fun is None else (
            np.array([*fun.weight_exponents, *fun.poly_params.as_tuple()]).tobytes(),
            fun.coeffs.tobytes())

    floats = np.array([spec.alpha, spec.theta, spec.lambda1, spec.lambda2], dtype=float)
    return N, K, floats.tobytes(), data(spec.f), data(spec.u_d)


def _build_setup(N: int, K: int, pair: ExponentPair, spec: ProblemSpec,
                 cache: ConversionCache):
    """(ops, P, Phat, asm): what a solve builds before its first iteration.
    ops carries the fast apply only when K < N; P is the LU of A's leading
    (K+1) x (K+1) block and Phat = J P J; asm assembles the right-hand
    sides."""
    ops = (assemble_fast(N, pair, spec.lambda1, spec.lambda2, cache) if K < N
           else OperatorSet(N, pair, spec.lambda1, spec.lambda2))
    P, Phat = build_preconditioners(ops, K)
    return ops, P, Phat, RhsAssembler(N, pair, spec.f, spec.u_d, cache)


def linear_solves(ops: OperatorSet, P: BandedPreconditioner, Phat: BandedPreconditioner,
                  config: SolverConfig):
    """(state_solve, adjoint_solve), each mapping (rhs, tol) to (x, iterations,
    converged), from P: the LU of A's leading (K+1) x (K+1) block.  At K = N
    (optimize's K up to FULL_LU_MODES, and direct mode's above), P = A and
    Phat = B, each solve is their one LU alone (residual-checked, tol
    ignored) and no operator Gram is built.  Below N, GMRES preconditioned
    by P and Phat = J P J runs on the factored applies to the relative
    residual tol, warm-started from its last x with A x carried along, so a
    warm start costs no apply.  The warm starts belong to the returned
    pair: solves that share ops, P and Phat share no other state."""
    N = ops.N
    if len(P.block) == N + 1:
        return (lambda F, tol: (direct_solve_state(P, F), 0, True),
                lambda G, tol: (direct_solve_adjoint(Phat, G), 0, True))

    def warm_started(apply_op, precond):
        x, Ax = None, np.zeros(N + 1)

        def solve(rhs, tol):
            nonlocal x
            x, iterations, converged = fixed_point_solve(apply_op, precond, rhs, config,
                                                         x, Ax, tol)
            return x, iterations, converged

        return solve

    return warm_started(ops.apply_A, P), warm_started(ops.apply_B, Phat)


def _outer_loop(solves, asm: RhsAssembler, gamma: float, config: SolverConfig,
                stats: SolveStats):
    """Run the projected-gradient outer loop with the (state_solve,
    adjoint_solve) pair from linear_solves.  Each solve stops at
    the relative residual max(1e-3 |b_k - b_{k-1}| / |b_k|, outer_tol/10),
    b being F or G and b_0 = 0: loose while b still moves, outer_tol/10
    once it settles.

    From iteration k >= 2 it raises SolverError when the average contraction
    rho = (change_k / change_1)^(1/(k-1)) of the sup-norm control change
    (change_1 = |q_1|) is not below 1, or when k + log(outer_tol/err_k)/log(rho)
    exceeds outer_max.  Returns (U, q, iterations).
    """
    state_solve, adjoint_solve = solves
    N, tol, max_iter = asm.N, config.outer_tol, config.outer_max
    q = project_control(np.zeros(N + 1), gamma, asm.pair, asm.h0_zframe)
    qvec = q.rep_vector()
    F_prev = G_prev = np.zeros(N + 1)

    def solve_tol(b, b_prev):
        return max(1e-3 * np.linalg.norm(b - b_prev) / (np.linalg.norm(b) or 1.0), tol / 10)

    for it in range(1, max_iter + 1):
        F = asm.rhs_F(q.constant_part, q.z_part.coeffs, gamma)
        U, iu, _ = state_solve(F, solve_tol(F, F_prev))
        G = asm.rhs_G(U)
        Z, iz, _ = adjoint_solve(G, solve_tol(G, G_prev))
        F_prev, G_prev = F, G
        q = project_control(Z, gamma, asm.pair, asm.h0_zframe)
        qnew = q.rep_vector()
        change = np.max(np.abs(qnew - qvec))
        err = change / (np.max(np.abs(qvec)) or 1.0)
        qvec = qnew
        stats.inner_iterations.append((iu, iz))
        stats.residual_history.append(err)
        if err <= tol:
            return U, q, it
        if it == 1:
            change_1 = change
            continue
        rho = (change / change_1) ** (1.0 / (it - 1))
        if not rho < 1:
            raise SolverError(f"outer loop at N={N} cannot converge: the control change "
                              f"grows by a factor {rho:.3g} per iteration on average "
                              f"at iteration {it}")
        needed = it + np.log(tol / err) / np.log(rho)
        if needed > max_iter:
            raise SolverError(f"outer loop at N={N} cannot converge: the control change "
                              f"contracts by a factor {rho:.3g} per iteration on average "
                              f"at iteration {it}, so it needs about {needed:.3g} "
                              f"iterations against outer_max = {max_iter}")
    raise SolverError(f"outer loop failed to converge in {max_iter} iterations "
                      f"(last relative change {err:.3e})")


def optimize(spec: ProblemSpec, config: SolverConfig,
             cache: ConversionCache | None = None) -> OptimalTriple:
    """Full solve: the outer loop at config.N from q = 0, U = Z = 0, with
    the linear solves of linear_solves over K = N in direct mode or at
    N <= FULL_LU_MODES, where one LU of all of A beats GMRES, and over
    K = PRECOND_MODES in fast mode above.

    The set-up (operator set, preconditioners, right-hand-side assembler)
    is looked up in cache's slot under _setup_key and built only on a miss,
    so a gamma sweep on one cache builds it once; stats.setup_reused tells
    which.  The cache keeps that set-up alive until it is dropped or a
    solve with another key replaces it."""
    t0 = time.perf_counter()
    N = config.N
    K = N if config.mode == "direct" or N <= FULL_LU_MODES else PRECOND_MODES
    pair = spec.exponent_pair()
    cache = cache or ConversionCache()
    stats = SolveStats()
    (ops, P, Phat, asm), stats.setup_reused = cache.slot(
        _setup_key(spec, N, K), lambda: _build_setup(N, K, pair, spec, cache))
    solves = linear_solves(ops, P, Phat, config)
    U, q, stats.outer_iterations = _outer_loop(solves, asm, spec.gamma, config, stats)
    stats.wall_time = time.perf_counter() - t0
    g, b = pair.sigma, pair.sigma_star
    return OptimalTriple(U=SpectralFunction((g, b), JacobiParams(g, b), U), Z=q.z_part,
                         q=q, pair=pair, stats=stats)
