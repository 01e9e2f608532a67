"""Tests for the projected-gradient driver: inner GMRES solves,
control projection, and full optimize runs in both modes."""

import re

import numpy as np
import pytest

from fracctrl import solver
from fracctrl.fracparams import solve_sigma
from fracctrl.jacobi import JacobiParams, jacobi_norm_sq
from fracctrl.operators import (
    OperatorSet,
    RhsAssembler,
    assemble_dense,
    assemble_fast,
    build_preconditioners,
)
from fracctrl.solver import (
    ControlFunction,
    FactoredMatrix,
    ProblemSpec,
    SolverConfig,
    SolverError,
    direct_solve_state,
    fixed_point_solve,
    optimize,
    project_control,
)
from fracctrl.transforms import ConversionCache, SpectralFunction, chebyshev_expand


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
        U_direct = direct_solve_state(FactoredMatrix.factor(dense.dense_A()), F)
        U_fast, iters, converged = fixed_point_solve(
            fast.apply_A, P, F, SolverConfig(N=N)
        )
        assert converged
        assert iters < 200
        assert np.linalg.norm(U_fast - U_direct) < 1e-10 * np.linalg.norm(U_direct)

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
        bad = type(P)(bands=-3.0 * P.bands)
        rhs = np.ones(33)
        x, _, converged = fixed_point_solve(fast.apply_A, bad, rhs, SolverConfig(N=32))
        U_direct = direct_solve_state(FactoredMatrix.factor(dense.dense_A()), rhs)
        assert converged
        assert np.linalg.norm(x - U_direct) <= 1e-10 * np.linalg.norm(U_direct)

    def test_budget_exhausted_raises(self):
        # alpha near 1 needs many more than 3 basis vectors
        pair = solve_sigma(0.7, 1.15)
        fast = assemble_fast(64, pair, 1.0, 1.0)
        P, _ = build_preconditioners(fast)
        with pytest.raises(SolverError, match=r"inner_max = 3 .* relative residual"):
            fixed_point_solve(fast.apply_A, P, np.ones(65), SolverConfig(N=64, inner_max=3))


class TestOptimize:
    def test_direct_and_fast_agree(self):
        spec = example1_spec(alpha=1.6, theta=0.7)
        cache = ConversionCache()
        t_direct = optimize(spec, SolverConfig(N=64, mode="direct"), cache=cache)
        t_fast = optimize(spec, SolverConfig(N=64, mode="fast"), cache=cache)
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
        triple = optimize(example1_spec(alpha=1.8), SolverConfig(N=64, mode="fast"))
        iterations = sum(iu + iz for iu, iz in triple.stats.inner_iterations)
        assert triple.stats.outer_iterations == 8
        assert len(calls) == iterations == 30

    def test_direct_mode_factors_once(self, monkeypatch):
        # one optimize forms A once and LU-factors it once, however many
        # outer iterations its solves serve; the adjoint solves mirror A's
        calls = {"dense_A": 0, "dense_B": 0, "lu_factor": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in ("dense_A", "dense_B"):
            monkeypatch.setattr(OperatorSet, name, counted(name, getattr(OperatorSet, name)))
        monkeypatch.setattr(solver, "lu_factor", counted("lu_factor", solver.lu_factor))
        triple = optimize(example1_spec(alpha=1.6), SolverConfig(N=32, mode="direct"))
        assert triple.stats.outer_iterations >= 3
        assert calls == {"dense_A": 1, "dense_B": 0, "lu_factor": 1}

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

    @pytest.mark.parametrize("mode, converged_at", [("direct", 135), ("fast", 135)],
                             ids=["direct", "fast"])
    def test_outer_budget_stops_divergence(self, mode, converged_at):
        # small gamma: the projected gradient diverges (alpha 1.8, 1.05) or
        # settles into a 2-cycle (alpha 1.2, gamma 0.2); the budget rule
        # stops each run early, at the requested N, instead of returning
        # overflowed values or running all of outer_max, and says which
        grows, slow = "grows by", "contracts by .* against outer_max"
        cases = [(1.8, 0.001, 64, 2, grows), (1.8, 0.001, 8, 2, grows),
                 (1.2, 0.2, 64, 20, slow), (1.05, 0.1, 64, 2, grows)]
        for alpha, gamma, N, last, why in cases:
            spec = example1_spec(alpha=alpha, gamma=gamma)
            with pytest.raises(SolverError,
                               match=f"at N={N} cannot converge: the control change {why}") as exc:
                optimize(spec, SolverConfig(N=N, mode=mode))
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
        # same iteration
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
