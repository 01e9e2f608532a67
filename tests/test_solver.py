"""Tests for the projected-gradient driver: inner GMRES solves,
control projection, and full optimize runs in both modes."""

import re
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from fracctrl import operators
from fracctrl.fracparams import solve_sigma
from fracctrl.jacobi import JacobiParams, jacobi_norm_sq
from fracctrl.operators import (
    PRECOND_MODES,
    FastOperatorApply,
    OperatorSet,
    RhsAssembler,
    assemble_dense,
    assemble_fast,
    build_preconditioners,
)
from fracctrl.solver import (
    ControlFunction,
    ProblemSpec,
    SolverConfig,
    SolverError,
    fixed_point_solve,
    optimize,
    project_control,
)
from fracctrl.transforms import ConversionCache, SpectralFunction, WeightedGram, chebyshev_expand


def example1_spec(alpha=1.4, theta=0.7, gamma=1.0):
    return ProblemSpec(
        alpha=alpha, theta=theta, lambda1=1.0, lambda2=1.0, gamma=gamma,
        f=chebyshev_expand(np.sin, M=64), u_d=chebyshev_expand(np.cos, M=64),
    )


def kkt_residuals(spec, triple, cache):
    """|A U - F(q)|/|F| and |B Z - G(U)|/|G| against the dense oracle."""
    N = len(triple.U.coeffs) - 1
    dense = assemble_dense(N, triple.pair, spec.lambda1, spec.lambda2)
    asm = RhsAssembler(N, triple.pair, spec.f, spec.u_d, cache)
    F = asm.rhs_F(triple.q.constant_part, triple.q.z_part.coeffs, spec.gamma)
    G = asm.rhs_G(triple.U.coeffs)
    return (np.linalg.norm(dense.dense_A() @ triple.U.coeffs - F) / np.linalg.norm(F),
            np.linalg.norm(dense.dense_B() @ triple.Z.coeffs - G) / np.linalg.norm(G))


class TestConfig:
    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError):
            SolverConfig(mode="iterative")

    def test_nonpositive_tolerance_rejected(self):
        with pytest.raises(ValueError):
            SolverConfig(outer_tol=-1e-12)


class TestProjectControl:
    def test_positive_mean_keeps_constant(self):
        pair = solve_sigma(0.7, 1.4)
        h0 = float(jacobi_norm_sq(0, JacobiParams(pair.sigma_star, pair.sigma)))
        Z = np.array([1.5, -0.2, 0.3])
        q = project_control(Z, 2.0, pair)
        assert q.constant_part == pytest.approx(1.5 * h0 / 2.0, rel=1e-14)
        # projection keeps the control admissible: mean exactly zero here
        assert q.mean() == pytest.approx(0.0, abs=1e-15)

    def test_negative_mean_clipped(self):
        pair = solve_sigma(0.7, 1.4)
        h0 = float(jacobi_norm_sq(0, JacobiParams(pair.sigma_star, pair.sigma)))
        Z = np.array([-1.5, 0.2, 0.0])
        q = project_control(Z, 1.0, pair)
        assert q.constant_part == 0.0
        # mean = -z0 h0 / gamma > 0 when z0 < 0
        assert q.mean() == pytest.approx(1.5 * h0, rel=1e-14)

    def test_gamma_must_be_positive(self):
        with pytest.raises(ValueError):
            project_control(np.zeros(3), 0.0, solve_sigma(0.5, 1.5))

    def test_values_match_definition(self):
        pair = solve_sigma(0.5, 1.6)
        Z = np.array([0.4, 0.1])
        gamma = 3.0
        q = project_control(Z, gamma, pair)
        x = np.linspace(0.05, 0.95, 7)
        z_vals = q.z_part.values(x)
        assert np.allclose(q.values(x), q.constant_part - z_vals / gamma)

    def test_rep_vector_layout(self):
        pair = solve_sigma(0.5, 1.6)
        q = project_control(np.array([2.0, -1.0]), 4.0, pair)
        rep = q.rep_vector()
        assert rep[0] == q.constant_part
        assert np.allclose(rep[1:], np.array([2.0, -1.0]) / 4.0)


class TestFixedPoint:
    def test_solves_state_system(self):
        pair = solve_sigma(0.7, 1.8)
        N = 64
        cache = ConversionCache()
        dense = assemble_dense(N, pair, 1.0, 1.0)
        fast = assemble_fast(N, pair, 1.0, 1.0, cache)
        P, _ = build_preconditioners(fast)
        asm = RhsAssembler(N, pair, chebyshev_expand(np.sin, M=64), None, cache)
        F = asm.rhs_F(0.0, np.zeros(N + 1), 1.0)
        U_direct = np.linalg.solve(dense.dense_A(), F)
        U_fast, iters, converged = fixed_point_solve(
            fast.apply_A, P, F, SolverConfig(N=N)
        )
        assert converged
        assert iters < 200
        assert np.linalg.norm(U_fast - U_direct) < 1e-10 * np.linalg.norm(U_direct)

    def test_block_preconditioned_solve_above_block(self):
        # N > PRECOND_MODES: GMRES with the block P and its mirror reaches
        # the dense solutions of the state and adjoint systems
        pair = solve_sigma(0.7, 1.8)
        N = 512
        assert N > PRECOND_MODES
        cache = ConversionCache()
        dense = assemble_dense(N, pair, 1.0, 1.0)
        fast = assemble_fast(N, pair, 1.0, 1.0, cache)
        P, Phat = build_preconditioners(fast)
        asm = RhsAssembler(N, pair, chebyshev_expand(np.sin, M=64),
                           chebyshev_expand(np.cos, M=64), cache)
        F = asm.rhs_F(0.0, np.zeros(N + 1), 1.0)
        G = asm.rhs_G(np.zeros(N + 1))
        for apply_op, pre, rhs, M in ((fast.apply_A, P, F, dense.dense_A()),
                                      (fast.apply_B, Phat, G, dense.dense_B())):
            x, iters, converged = fixed_point_solve(apply_op, pre, rhs, SolverConfig(N=N))
            exact = np.linalg.solve(M, rhs)
            assert converged and 1 < iters < 20
            assert np.linalg.norm(x - exact) < 1e-10 * np.linalg.norm(exact)

    def test_one_iteration_within_block(self):
        # N <= PRECOND_MODES: P = A and Phat = B, so one step solves either
        # to the fast apply's agreement with the dense block (3e-14 here)
        N = 64
        fast = assemble_fast(N, solve_sigma(0.7, 1.8), 1.0, 1.0)
        rhs = np.random.default_rng(4).standard_normal(N + 1)
        for apply_op, pre in zip((fast.apply_A, fast.apply_B), build_preconditioners(fast)):
            _, iters, converged = fixed_point_solve(apply_op, pre, rhs, SolverConfig(N=N))
            assert converged and iters == 1

    def test_zero_rhs_short_circuits(self):
        pair = solve_sigma(0.5, 1.5)
        fast = assemble_fast(16, pair, 1.0, 1.0)
        P, _ = build_preconditioners(fast)
        x0 = np.ones(17)
        Ax = fast.apply_A(x0)
        x, iters, converged = fixed_point_solve(
            fast.apply_A, P, np.zeros(17), SolverConfig(N=16), x0, Ax
        )
        assert converged and iters == 0 and np.all(x == 0) and np.all(Ax == 0)

    def test_carried_product_matches_apply(self):
        # a chain of warm starts with moving right-hand sides, as in the
        # outer loop: the carried A x stays A applied to the returned x
        pair = solve_sigma(0.7, 1.8)
        N = 64
        fast = assemble_fast(N, pair, 1.0, 1.0)
        P, _ = build_preconditioners(fast)
        rng = np.random.default_rng(3)
        base = rng.standard_normal(N + 1)
        config = SolverConfig(N=N)
        x, Ax = None, np.full(N + 1, np.nan)  # without x0 its entry value is unused
        for step, tol in enumerate((1e-3, 1e-5, 1e-8, 1e-11, 1e-13)):
            rhs = base + 10.0 ** -step * rng.standard_normal(N + 1)
            x, iters, _ = fixed_point_solve(fast.apply_A, P, rhs, config, x, Ax, tol)
            assert iters > 0
            true = fast.apply_A(x)
            assert np.linalg.norm(Ax - true) <= 1e-12 * np.linalg.norm(true)
        with pytest.raises(ValueError, match="needs Ax"):
            fixed_point_solve(fast.apply_A, P, base, config, x)

    def test_nonfinite_rhs_norm_raises(self):
        # finite entries whose norm overflows: the residual test inf <= inf
        # must not pass for convergence
        pair = solve_sigma(0.5, 1.5)
        fast = assemble_fast(16, pair, 1.0, 1.0)
        P, _ = build_preconditioners(fast)
        with (pytest.raises(SolverError, match="right-hand side norm is inf"),
              pytest.warns(RuntimeWarning, match="overflow")):
            fixed_point_solve(fast.apply_A, P, np.full(17, 1e300), SolverConfig(N=16))

    def test_anti_preconditioner_converges(self):
        # GMRES needs only a nonsingular preconditioner: the wrong-signed,
        # scaled -3P, which made the fixed point blow up, reaches the
        # direct solution
        pair = solve_sigma(0.7, 1.4)
        dense = assemble_dense(32, pair, 1.0, 1.0)
        fast = assemble_fast(32, pair, 1.0, 1.0)
        P, _ = build_preconditioners(fast)
        bad = SimpleNamespace(solve=lambda r: P.solve(r) / -3.0)  # (-3P)^{-1} r
        rhs = np.ones(33)
        x, _, converged = fixed_point_solve(fast.apply_A, bad, rhs, SolverConfig(N=32))
        U_direct = np.linalg.solve(dense.dense_A(), rhs)
        assert converged
        assert np.linalg.norm(x - U_direct) <= 1e-10 * np.linalg.norm(U_direct)

    def test_budget_exhausted_raises(self):
        # alpha near 1 needs many more than 3 basis vectors; N = 256 is above
        # the exact block, where one step would do
        pair = solve_sigma(0.7, 1.15)
        N = 256
        assert N > PRECOND_MODES
        fast = assemble_fast(N, pair, 1.0, 1.0)
        P, _ = build_preconditioners(fast)
        with pytest.raises(SolverError, match=r"inner_max = 3 .* relative residual"):
            fixed_point_solve(fast.apply_A, P, np.ones(N + 1), SolverConfig(N=N, inner_max=3))


class TestOptimize:
    def test_direct_and_fast_agree(self):
        # above the block, where fast mode runs GMRES and direct mode the LU
        spec = example1_spec(alpha=1.6, theta=0.7)
        cache = ConversionCache()
        t_direct = optimize(spec, SolverConfig(N=256, mode="direct"), cache=cache)
        t_fast = optimize(spec, SolverConfig(N=256, mode="fast"), cache=cache)
        for a, b in ((t_direct.U, t_fast.U), (t_direct.Z, t_fast.Z)):
            assert np.linalg.norm(a.coeffs - b.coeffs) < 1e-9 * np.linalg.norm(a.coeffs)
        assert t_direct.q.constant_part == pytest.approx(
            t_fast.q.constant_part, abs=1e-12
        )

    def test_fast_mode_one_apply_per_iteration(self, monkeypatch):
        # warm starts carry A x, so no solve spends an apply on its initial
        # residual: every apply_A / apply_B call is one GMRES iteration
        calls = []
        for name in ("apply_A", "apply_B"):
            fn = getattr(OperatorSet, name)
            monkeypatch.setattr(OperatorSet, name,
                                lambda self, x, fn=fn: calls.append(1) or fn(self, x))
        triple = optimize(example1_spec(alpha=1.8), SolverConfig(N=256, mode="fast"))
        iterations = sum(iu + iz for iu, iz in triple.stats.inner_iterations)
        assert triple.stats.outer_iterations == 8
        # N = 256 is above the preconditioner's exact block, yet every
        # solve takes one iteration here
        assert len(calls) == iterations == 16

    def test_fast_mode_within_block_is_the_lu(self, monkeypatch):
        # N <= PRECOND_MODES: P = A, so every solve is P's LU alone, with no
        # operator apply and no operator Gram; the triple is the oracle's
        calls, grams = [], []
        for name in ("apply_A", "apply_B"):
            monkeypatch.setattr(OperatorSet, name, lambda self, x: calls.append(name))
        init = WeightedGram.__init__
        monkeypatch.setattr(WeightedGram, "__init__",
                            lambda self, *args: grams.append(args[2:4]) or init(self, *args))
        spec = example1_spec(alpha=1.8)
        cache = ConversionCache()
        triple = optimize(spec, SolverConfig(N=PRECOND_MODES, mode="fast"), cache=cache)
        pair = triple.pair
        weak_advection = (JacobiParams(pair.alpha - 1, pair.alpha - 1),
                          JacobiParams(pair.sigma_star - 1, pair.sigma - 1))
        assert calls == [] and grams and weak_advection not in grams
        assert triple.stats.outer_iterations == 8
        assert all(its == (0, 0) for its in triple.stats.inner_iterations)
        assert max(kkt_residuals(spec, triple, cache)) <= 1e-11

    def test_direct_mode_above_block(self):
        # direct mode at N > PRECOND_MODES: the LU of the whole of A, built
        # by the fast apply's leading_block, solves the oracle's system
        N = 160
        assert N > PRECOND_MODES
        spec = example1_spec(alpha=1.4, theta=0.7)
        cache = ConversionCache()
        triple = optimize(spec, SolverConfig(N=N, mode="direct"), cache=cache)
        assert max(kkt_residuals(spec, triple, cache)) <= 1e-11

    @pytest.mark.parametrize("alpha, theta, lam1, most", [
        (1.8, 0.7, 1.0, 16), (1.5, 0.7, 10.0, 58), (1.5, 1.0, 1.0, 22),
        (1.2, 0.7, 1.0, 87), (1.2, 1.0, 1.0, 44)])
    def test_inner_iterations_per_optimize(self, alpha, theta, lam1, most):
        # guards the choice of PRECOND_MODES: total GMRES iterations of an
        # Example-1 optimize stay at these counts and do not grow from
        # N = 512 to 1024
        spec = replace(example1_spec(alpha=alpha, theta=theta), lambda1=lam1)
        counts = [sum(map(sum, optimize(spec, SolverConfig(N=N)).stats.inner_iterations))
                  for N in (512, 1024)]
        assert counts[0] <= most and counts[0] == counts[1]

    def test_direct_mode_factors_once(self, monkeypatch):
        # one optimize builds A's block once and LU-factors it once, however
        # many outer iterations its solves serve; the adjoint solves mirror
        # A's, and the dense oracle is never formed
        calls = {"dense_A": 0, "dense_B": 0, "leading_block": 0, "dgetrf": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in ("dense_A", "dense_B"):
            monkeypatch.setattr(OperatorSet, name, counted(name, getattr(OperatorSet, name)))
        monkeypatch.setattr(FastOperatorApply, "leading_block",
                            counted("leading_block", FastOperatorApply.leading_block))
        monkeypatch.setattr(operators, "dgetrf", counted("dgetrf", operators.dgetrf))
        triple = optimize(example1_spec(alpha=1.6), SolverConfig(N=160, mode="direct"))
        assert triple.stats.outer_iterations >= 3
        assert calls == {"dense_A": 0, "dense_B": 0, "leading_block": 1, "dgetrf": 1}

    def test_optimality_identity_holds(self):
        # by construction gamma*q + z - max{0, integral z} = 0 pointwise
        spec = example1_spec(alpha=1.8, theta=0.7, gamma=2.0)
        triple = optimize(spec, SolverConfig(N=48, mode="direct"))
        x = np.linspace(0.02, 0.98, 33)
        resid = (
            spec.gamma * triple.q.values(x)
            + triple.Z.values(x)
            - spec.gamma * triple.q.constant_part
        )
        assert np.max(np.abs(resid)) < 1e-13 * max(np.max(np.abs(triple.Z.values(x))), 1)

    def test_control_admissible(self):
        for gamma in (1.0, 0.1):
            spec = example1_spec(alpha=1.4, gamma=gamma)
            triple = optimize(spec, SolverConfig(N=48, mode="direct"))
            assert triple.q.mean() >= -1e-13

    def test_large_gamma_suppresses_control(self):
        small = optimize(example1_spec(gamma=1.0), SolverConfig(N=32, mode="direct"))
        big = optimize(example1_spec(gamma=1e6), SolverConfig(N=32, mode="direct"))
        x = np.linspace(0.05, 0.95, 9)
        assert np.max(np.abs(big.q.values(x))) < 1e-4 * np.max(np.abs(small.q.values(x)))

    def test_zero_data_gives_zero_solution(self):
        spec = ProblemSpec(alpha=1.6, theta=0.5, lambda1=1.0, lambda2=1.0,
                           gamma=1.0, f=None, u_d=None)
        triple = optimize(spec, SolverConfig(N=24, mode="direct"))
        assert np.max(np.abs(triple.U.coeffs)) < 1e-14
        assert np.max(np.abs(triple.Z.coeffs)) < 1e-14
        assert triple.q.constant_part == 0.0

    def test_stats_recorded(self):
        spec = example1_spec()
        triple = optimize(spec, SolverConfig(N=32, mode="fast"))
        st = triple.stats
        assert st.outer_iterations >= 3
        assert len(st.inner_iterations) == st.outer_iterations
        assert len(st.residual_history) == st.outer_iterations
        assert st.residual_history[-1] <= 1e-12
        assert st.wall_time > 0

    def test_outer_iteration_count_mesh_independent(self):
        spec = example1_spec(alpha=1.8, theta=0.7)
        counts = [
            optimize(spec, SolverConfig(N=N, mode="fast")).stats.outer_iterations
            for N in (32, 64)
        ]
        assert abs(counts[0] - counts[1]) <= 2

    @pytest.mark.parametrize("mode, N, small, converged_at",
                             [("direct", 64, 8, 135), ("fast", 256, 160, 135)],
                             ids=["direct", "fast"])
    def test_outer_budget_stops_divergence(self, mode, N, small, converged_at):
        # small gamma: the projected gradient diverges (alpha 1.8, 1.05) or
        # settles into a 2-cycle (alpha 1.2, gamma 0.2); the budget rule
        # stops each run early, at the requested N, instead of returning
        # overflowed values or running all of outer_max, and says which.
        # Fast mode runs above PRECOND_MODES, where it is GMRES, not the LU
        grows, slow = "grows by", "contracts by .* against outer_max"
        cases = [(1.8, 0.001, N, 2, grows), (1.8, 0.001, small, 2, grows),
                 (1.2, 0.2, N, 20, slow), (1.05, 0.1, N, 2, grows)]
        for alpha, gamma, n, last, why in cases:
            spec = example1_spec(alpha=alpha, gamma=gamma)
            with pytest.raises(SolverError,
                               match=f"at N={n} cannot converge: the control change {why}") as exc:
                optimize(spec, SolverConfig(N=n, mode=mode))
            it = int(re.search(r"at iteration (\d+)", str(exc.value)).group(1))
            assert 2 <= it <= last
        # just inside the threshold the loop still converges to the triple
        spec = example1_spec(alpha=1.8, gamma=0.02)
        cache = ConversionCache()
        triple = optimize(spec, SolverConfig(N=64, mode=mode), cache=cache)
        assert triple.stats.outer_iterations == converged_at
        assert max(kkt_residuals(spec, triple, cache)) <= 1e-11

    @pytest.mark.parametrize("alpha, gamma", [(1.15, 1.0), (1.1, 1.0), (1.05, 1.0),
                                              (1.05, 0.1)])
    def test_fast_matches_direct_near_alpha_one(self, alpha, gamma):
        # near alpha = 1 fast mode has direct mode's outcome: both converge
        # in the same outer count to the oracle's triple, or the projected
        # gradient diverges in both and the budget rule stops both at the
        # same iteration.  At N = 64 both modes solve by the LU of A
        spec = example1_spec(alpha=alpha, gamma=gamma)
        cache = ConversionCache()
        outcomes = []
        for mode in ("direct", "fast"):
            try:
                triple = optimize(spec, SolverConfig(N=64, mode=mode), cache=cache)
            except SolverError as exc:
                assert "cannot converge" in str(exc)
                outcomes.append(("raises at", re.search(r"at iteration (\d+)", str(exc))[1]))
            else:
                assert max(kkt_residuals(spec, triple, cache)) <= 1e-11
                outcomes.append(("converges in", triple.stats.outer_iterations))
        assert outcomes[0] == outcomes[1]

    @pytest.mark.parametrize("alpha, gamma, verb, count", [
        (1.15, 1.0, "converges in", 22), (1.1, 1.0, "converges in", 24),
        (1.05, 1.0, "raises at", 2), (1.05, 0.1, "raises at", 2)])
    def test_gmres_matches_lu_near_alpha_one(self, alpha, gamma, verb, count):
        # the same comparison above the block, where fast mode runs GMRES on
        # the fast apply.  Direct mode's triple meets the oracle's KKT system
        # to 1e-11; fast mode's to 1e-10, the fast apply's own agreement with
        # the oracle near alpha = 1 (it reads 6.3e-11 at alpha = 1.1)
        spec = example1_spec(alpha=alpha, gamma=gamma)
        cache = ConversionCache()
        for mode, bound in (("direct", 1e-11), ("fast", 1e-10)):
            try:
                triple = optimize(spec, SolverConfig(N=256, mode=mode), cache=cache)
            except SolverError as exc:
                assert "cannot converge" in str(exc)
                got = ("raises at", int(re.search(r"at iteration (\d+)", str(exc))[1]))
            else:
                assert max(kkt_residuals(spec, triple, cache)) <= bound
                got = ("converges in", triple.stats.outer_iterations)
            assert got == (verb, count)

    @pytest.mark.parametrize("alpha, N", [(1.2, 64), (1.8, 64), (1.8, 256)])
    def test_kkt_residuals(self, alpha, N):
        # the returned triple satisfies the state and adjoint equations of
        # the dense oracle, whatever tolerances the inner solves stopped at
        spec = example1_spec(alpha=alpha, theta=0.7)
        cache = ConversionCache()
        triple = optimize(spec, SolverConfig(N=N, mode="fast"), cache=cache)
        assert max(kkt_residuals(spec, triple, cache)) <= 1e-11

    def test_diagnostic_mode_lambda1_zero(self):
        # lambda1 = 0 (no advection) is accepted for manufactured tests
        spec = ProblemSpec(alpha=1.5, theta=0.5, lambda1=0.0, lambda2=0.0,
                           gamma=1.0, f=chebyshev_expand(np.sin, M=64), u_d=None)
        triple = optimize(spec, SolverConfig(N=32, mode="fast"))
        assert np.all(np.isfinite(triple.U.coeffs))
