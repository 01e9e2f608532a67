"""Projected-gradient optimization driver.

Outer loop (per iteration): solve the state system, solve the adjoint
system, update the control by the pointwise projection
q_new = max{0, zbar}/gamma - z/gamma, and stop when the relative sup-norm
change of the control representation falls below the outer tolerance.
The loop sees the two linear systems only as a pair of solve callables,
made by one of the LINEAR_SOLVES builders: dense factorizations
("direct") or banded-preconditioned fixed-point iterations warm-started
from the previous outer iterate ("fast").  A small-N direct bootstrap
supplies the initial guess.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .fracparams import ExponentPair, solve_sigma
from .jacobi import JacobiParams, jacobi_norm_sq
from .operators import (
    BandedPreconditioner,
    OperatorSet,
    RhsAssembler,
    assemble_dense,
    assemble_fast,
    build_preconditioners,
)
from .transforms import ConversionCache, SpectralFunction


class SolverError(RuntimeError):
    """Raised when an inner iteration does not contract or the outer loop fails."""


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

    def exponent_pair(self) -> ExponentPair:
        return solve_sigma(self.theta, self.alpha)


@dataclass
class SolverConfig:
    N: int = 64
    mode: str = "fast"  # a key of LINEAR_SOLVES
    inner_max: int = 400
    outer_tol: float = 1e-12
    outer_max: int = 5000
    bootstrap_N: int = 8

    def __post_init__(self):
        if self.outer_tol <= 0:
            raise ValueError("outer_tol must be positive")
        if self.mode not in LINEAR_SOLVES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.bootstrap_N > self.N:
            self.bootstrap_N = self.N


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
    inner_converged: bool = True


@dataclass
class OptimalTriple:
    U: SpectralFunction
    Z: SpectralFunction
    q: ControlFunction
    pair: ExponentPair
    stats: SolveStats


def direct_solve_state(ops: OperatorSet, F: np.ndarray) -> np.ndarray:
    A = ops.dense_A()
    U = np.linalg.solve(A, F)
    nF = np.linalg.norm(F)
    if nF > 0 and np.linalg.norm(F - A @ U) > 1e-10 * nF:
        raise SolverError("dense state solve residual too large")
    return U


def direct_solve_adjoint(ops: OperatorSet, G: np.ndarray) -> np.ndarray:
    B = ops.dense_B()
    Z = np.linalg.solve(B, G)
    nG = np.linalg.norm(G)
    if nG > 0 and np.linalg.norm(G - B @ Z) > 1e-10 * nG:
        raise SolverError("dense adjoint solve residual too large")
    return Z


def fixed_point_solve(apply_op, precond: BandedPreconditioner, rhs: np.ndarray,
                      config: SolverConfig, x0: np.ndarray | None = None,
                      tol: float | None = None):
    """x <- x + P^{-1}(rhs - A x) until the relative residual meets tol
    (default outer_tol/10).  Returns (x, iterations, converged).

    After 12 steps without a 0.5% gain, or inner_max steps, it returns the
    best iterate with converged=False if that is at the rounding floor
    (relative residual <= 1e-10) and raises SolverError otherwise.
    """
    tol = config.outer_tol / 10 if tol is None else tol
    x = np.zeros_like(rhs) if x0 is None else x0.copy()
    nr = np.linalg.norm(rhs)
    if nr == 0.0:
        return np.zeros_like(rhs), 0, True
    best, best_x, stalled = np.inf, x, 0
    for it in range(config.inner_max + 1):
        r = rhs - apply_op(x)
        res = np.linalg.norm(r)
        if res <= tol * nr:
            return x, it, True
        stalled = 0 if res <= 0.995 * best else stalled + 1
        if res < best:
            best, best_x = res, x.copy()
        if stalled >= 12 or it == config.inner_max:
            if best <= 1e-10 * nr:
                return best_x, it, False
            raise SolverError(f"fixed-point iteration does not contract: best relative "
                              f"residual {best / nr:.3e} after {it} steps")
        x = x + precond.solve(r)


def project_control(Z: np.ndarray, gamma: float, pair: ExponentPair) -> ControlFunction:
    """Control update: c = max(0, z0*h0)/gamma, q = c - z/gamma."""
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    b, g = pair.sigma_star, pair.sigma
    h0 = float(jacobi_norm_sq(0, JacobiParams(b, g)))
    c = max(0.0, Z[0] * h0) / gamma
    z_part = SpectralFunction((b, g), JacobiParams(b, g), np.asarray(Z, dtype=float))
    return ControlFunction(constant_part=c, z_part=z_part, gamma=gamma)


def direct_linear_solves(N: int, pair: ExponentPair, spec: ProblemSpec,
                         config: SolverConfig, cache: ConversionCache):
    """(state_solve, adjoint_solve) by dense factorization of the oracle
    matrices; each maps (rhs, x0, tol) to (x, 0, True), ignoring x0 and tol."""
    ops = assemble_dense(N, pair, spec.lambda1, spec.lambda2)
    return (lambda F, x0, tol: (direct_solve_state(ops, F), 0, True),
            lambda G, x0, tol: (direct_solve_adjoint(ops, G), 0, True))


def fast_linear_solves(N: int, pair: ExponentPair, spec: ProblemSpec,
                       config: SolverConfig, cache: ConversionCache):
    """(state_solve, adjoint_solve) by preconditioned fixed-point iteration
    on the factored applies, from x0 to the relative residual tol."""
    ops = assemble_fast(N, pair, spec.lambda1, spec.lambda2, cache)
    P, Phat = build_preconditioners(ops)
    return (lambda F, x0, tol: fixed_point_solve(ops.apply_A, P, F, config, x0, tol),
            lambda G, x0, tol: fixed_point_solve(ops.apply_B, Phat, G, config, x0, tol))


LINEAR_SOLVES = {"direct": direct_linear_solves, "fast": fast_linear_solves}


def _outer_loop(solves, asm: RhsAssembler, gamma: float, tol: float, max_iter: int,
                U0=None, Z0=None, stats: SolveStats | None = None):
    """Run the projected-gradient outer loop with a (state_solve,
    adjoint_solve) pair from a LINEAR_SOLVES builder.  Each solve stops at
    the relative residual max(1e-3 |b_k - b_{k-1}| / |b_k|, tol/10), b being
    F or G and b_0 = 0: loose while b still moves, tol/10 once it settles."""
    state_solve, adjoint_solve = solves
    N = asm.N
    q = project_control(np.zeros(N + 1), gamma, asm.pair)
    qvec = q.rep_vector()
    U = np.zeros(N + 1) if U0 is None else U0
    Z = np.zeros(N + 1) if Z0 is None else Z0
    F_prev = G_prev = np.zeros(N + 1)

    def solve_tol(b, b_prev):
        return max(1e-3 * np.linalg.norm(b - b_prev) / (np.linalg.norm(b) or 1.0), tol / 10)

    for it in range(1, max_iter + 1):
        F = asm.rhs_F(q.constant_part, q.z_part.coeffs, gamma)
        U, iu, cu = state_solve(F, U, solve_tol(F, F_prev))
        G = asm.rhs_G(U)
        Z, iz, cz = adjoint_solve(G, Z, solve_tol(G, G_prev))
        F_prev, G_prev = F, G
        q = project_control(Z, gamma, asm.pair)
        qnew = q.rep_vector()
        scale = np.max(np.abs(qvec))
        err = np.max(np.abs(qnew - qvec)) / (scale if scale > 0 else 1.0)
        if not np.isfinite(err):
            raise SolverError(f"outer loop at N={N} diverged: relative control change "
                              f"is {err} at iteration {it}")
        qvec = qnew
        if stats is not None:
            stats.inner_iterations.append((iu, iz))
            stats.residual_history.append(err)
            stats.inner_converged = stats.inner_converged and cu and cz
        if err <= tol:
            return U, Z, it
    raise SolverError(f"outer loop failed to converge in {max_iter} iterations "
                      f"(last relative change {err:.3e})")


def optimize(spec: ProblemSpec, config: SolverConfig,
             cache: ConversionCache | None = None) -> OptimalTriple:
    """Full solve: direct bootstrap at bootstrap_N, then the outer loop at N
    with the configured mode's linear solves, warm-started from the
    zero-padded bootstrap."""
    t0 = time.perf_counter()
    pair = spec.exponent_pair()
    cache = cache or ConversionCache()
    stats = SolveStats()
    N = config.N
    g, b = pair.sigma, pair.sigma_star

    U0 = Z0 = None
    if config.bootstrap_N < N:
        Nb = config.bootstrap_N
        solves_b = direct_linear_solves(Nb, pair, spec, config, cache)
        asm_b = RhsAssembler(Nb, pair, spec.f, spec.u_d, cache)
        Ub, Zb, _ = _outer_loop(solves_b, asm_b, spec.gamma,
                                tol=max(1e-10, config.outer_tol), max_iter=config.outer_max)
        # The bootstrap warm-starts the inner (linear) solves only; the
        # outer control iteration restarts from q = 0 so its count is the
        # mesh-independent cold-start figure.
        U0, Z0 = np.zeros(N + 1), np.zeros(N + 1)
        U0[: Nb + 1], Z0[: Nb + 1] = Ub, Zb

    solves = LINEAR_SOLVES[config.mode](N, pair, spec, config, cache)
    asm = RhsAssembler(N, pair, spec.f, spec.u_d, cache)
    U, Z, iters = _outer_loop(solves, asm, spec.gamma, tol=config.outer_tol,
                              max_iter=config.outer_max, U0=U0, Z0=Z0, stats=stats)
    stats.outer_iterations = iters
    stats.wall_time = time.perf_counter() - t0
    u_fun = SpectralFunction((g, b), JacobiParams(g, b), U)
    z_fun = SpectralFunction((b, g), JacobiParams(b, g), Z)
    q_fun = project_control(Z, spec.gamma, pair)
    return OptimalTriple(U=u_fun, Z=z_fun, q=q_fun, pair=pair, stats=stats)
