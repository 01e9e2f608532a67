"""Tests for discrete-operator assembly: dense quadrature oracles, the
fast transform-based applies, preconditioners, and right-hand sides."""

import numpy as np
import pytest
from scipy.special import betaln

from fracctrl.fracparams import lambda_coeff, solve_sigma
from fracctrl.jacobi import (
    JacobiParams,
    gauss_jacobi_rule,
    jacobi_matrix,
    jacobi_norm_sq,
)
from fracctrl.operators import (
    AssemblyError,
    BandedPreconditioner,
    RhsAssembler,
    advection_offdiagonals,
    assemble_dense,
    assemble_fast,
    build_preconditioners,
    stiffness_diagonal,
)
from fracctrl.solver import project_control
from fracctrl.transforms import (
    ConversionCache,
    ConversionMatrix,
    SpectralFunction,
    chebyshev_expand,
)

PAIRS = [(0.5, 1.6), (0.7, 1.2), (1.0, 1.8)]


def rel_err(a, b):
    return np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-300)


def tridiagonal(pre):
    """The matrix of a BandedPreconditioner, from its solve_banded layout."""
    sup, mid, sub = pre.bands
    return np.diag(mid) + np.diag(sup[1:], 1) + np.diag(sub[:-1], -1)


class TestDenseAssembly:
    def test_stiffness_positive(self):
        for theta, alpha in PAIRS:
            S = stiffness_diagonal(40, solve_sigma(theta, alpha))
            assert np.all(S > 0)

    def test_lam_zero_gives_diagonal(self):
        pair = solve_sigma(0.7, 1.4)
        ops = assemble_dense(16, pair, 0.0, 0.0)
        assert np.allclose(ops.dense_A(), np.diag(ops.S))
        assert np.allclose(ops.dense_B(), np.diag(ops.S))

    def test_mass_corner_entry(self):
        # M[0,0] = integral of the (alpha,alpha) weight = B(alpha+1, alpha+1)
        pair = solve_sigma(0.7, 1.4)
        ops = assemble_dense(8, pair, 1.0, 1.0)
        expected = float(np.exp(betaln(pair.alpha + 1, pair.alpha + 1)))
        assert ops.M[0, 0] == pytest.approx(expected, rel=1e-13)
        assert ops.M[0, 0] == pytest.approx(
            float(jacobi_norm_sq(0, JacobiParams(pair.alpha, pair.alpha))), rel=1e-13
        )

    def test_dhat_is_sigma_swapped_d(self):
        pair = solve_sigma(0.7, 1.6)
        ops = assemble_dense(24, pair, 1.0, 1.0)
        ops_sw = assemble_dense(24, pair.swapped(), 1.0, 1.0)
        assert np.allclose(ops.Dhat, ops_sw.D, rtol=0, atol=1e-12 * np.abs(ops.D).max())

    def test_symmetric_case_dhat_equals_d(self):
        pair = solve_sigma(0.5, 1.6)  # sigma == sigma*
        ops = assemble_dense(24, pair, 1.0, 1.0)
        assert np.allclose(ops.Dhat, ops.D, rtol=0, atol=1e-12 * np.abs(ops.D).max())

    def test_adjoint_consistency_without_advection(self):
        # with lambda1 = 0, B equals A assembled under the sigma swap
        pair = solve_sigma(0.7, 1.8)
        B = assemble_dense(20, pair, 0.0, 1.0).dense_B()
        A_sw = assemble_dense(20, pair.swapped(), 0.0, 1.0).dense_A()
        assert np.allclose(B, A_sw, rtol=0, atol=1e-12 * np.abs(B).max())

    def test_weak_advection_identity(self):
        # -D @ u_hat reproduces the true weak advection (u', Q_m) under the
        # test weight, using the exact derivative identity for the weighted
        # trial functions
        pair = solve_sigma(0.7, 1.4)
        N = 18
        g, b = pair.sigma, pair.sigma_star
        ops = assemble_dense(N, pair, 1.0, 1.0)
        rng = np.random.default_rng(3)
        uh = rng.standard_normal(N + 1)
        # (w^{g,b} Q_n^{g,b})' = -(n+1) w^{g-1,b-1} Q_{n+1}^{g-1,b-1}
        rule = gauss_jacobi_rule(N + 4, JacobiParams(pair.alpha - 1, pair.alpha - 1))
        Ed = jacobi_matrix(N + 1, JacobiParams(g - 1, b - 1), rule.nodes)
        du = -(np.arange(N + 1) + 1)[:, None] * Ed[1:]
        Et = jacobi_matrix(N, JacobiParams(b, g), rule.nodes)
        weak = (Et * rule.weights) @ (uh @ du)
        assert rel_err(-ops.D @ uh, weak) < 1e-12

    def test_bad_truncation_rejected(self):
        with pytest.raises(AssemblyError):
            assemble_dense(0, solve_sigma(0.5, 1.5), 1.0, 1.0)


class TestFastApply:
    @pytest.mark.parametrize("theta,alpha", PAIRS)
    @pytest.mark.parametrize("N", [16, 64, 256])
    def test_matches_dense(self, theta, alpha, N):
        pair = solve_sigma(theta, alpha)
        cache = ConversionCache()
        dense = assemble_dense(N, pair, 1.0, 1.0)
        fast = assemble_fast(N, pair, 1.0, 1.0, cache)
        A = dense.dense_A()
        B = dense.dense_B()
        rng = np.random.default_rng(N)
        for _ in range(20):
            v = rng.standard_normal(N + 1)
            assert rel_err(fast.apply_A(v), A @ v) < 1e-10
            assert rel_err(fast.apply_B(v), B @ v) < 1e-10

    def test_zero_vector(self):
        pair = solve_sigma(0.7, 1.4)
        fast = assemble_fast(16, pair, 1.0, 1.0)
        assert np.all(fast.apply_A(np.zeros(17)) == 0)
        assert np.all(fast.apply_B(np.zeros(17)) == 0)

    def test_diagonal_action_unit_vector(self):
        pair = solve_sigma(0.7, 1.4)
        fast = assemble_fast(16, pair, 0.0, 0.0)
        for k in (0, 5, 16):
            e = np.zeros(17)
            e[k] = 1.0
            out = fast.apply_A(e)
            assert out[k] == pytest.approx(fast.S[k], rel=1e-14)
            out[k] = 0.0
            assert np.all(out == 0)

    def test_single_mode_exactness(self):
        # with lambda1 = lambda2 = 0 and F = lambda_k h_k e_k, U = e_k
        for theta in (0.5, 0.7, 1.0):
            for alpha in (1.2, 1.8):
                pair = solve_sigma(theta, alpha)
                ops = assemble_dense(24, pair, 0.0, 0.0)
                for k in (0, 3, 17):
                    hk = float(jacobi_norm_sq(k, JacobiParams(pair.sigma_star, pair.sigma)))
                    F = np.zeros(25)
                    F[k] = float(lambda_coeff(k, pair)) * hk
                    U = np.linalg.solve(ops.dense_A(), F)
                    e = np.zeros(25)
                    e[k] = 1.0
                    assert np.max(np.abs(U - e)) < 1e-12

    def test_conversions_shared_and_no_identity(self, monkeypatch):
        # A's mass routes are B's in reverse, equal parameters take no step,
        # and a term with a zero coefficient builds no conversion
        built = []
        build = ConversionMatrix.build.__func__

        def recording_build(cls, k, from_params, to_params, *args, **kwargs):
            built.append((from_params, to_params))
            return build(cls, k, from_params, to_params, *args, **kwargs)

        monkeypatch.setattr(ConversionMatrix, "build", classmethod(recording_build))
        assemble_fast(32, solve_sigma(0.7, 1.6), 1.0, 1.0)
        assert len(built) == 12
        built.clear()
        assemble_fast(32, solve_sigma(1.0, 1.6), 1.0, 1.0)
        assert built and all(src != dst for src, dst in built)
        built.clear()
        assemble_fast(32, solve_sigma(0.7, 1.6), 0.0, 0.0)
        assert not built

    def test_dense_mode_has_no_fast_transforms(self):
        # each set holds only its own form: factored applies or oracle matrices
        pair = solve_sigma(0.5, 1.5)
        ops = assemble_dense(8, pair, 1.0, 1.0)
        for apply in (ops.apply_A, ops.apply_B):
            with pytest.raises(AssemblyError):
                apply(np.zeros(9))
        fast = assemble_fast(8, pair, 1.0, 1.0)
        for build in (fast.dense_A, fast.dense_B):
            with pytest.raises(AssemblyError):
                build()


class TestPreconditioner:
    def test_offdiagonals_match_dense(self):
        pair = solve_sigma(0.7, 1.4)
        N = 64
        ops = assemble_dense(N, pair, 1.0, 1.0)
        rule = gauss_jacobi_rule(N + 3, JacobiParams(pair.alpha - 1, pair.alpha - 1))
        for adjoint, Dm in ((False, ops.D), (True, ops.Dhat)):
            up, lo = advection_offdiagonals(N, pair, rule, adjoint=adjoint)
            assert np.allclose(up[:-1], np.diag(Dm, 1), rtol=1e-12)
            assert np.allclose(lo[:-1], np.diag(Dm, -1), rtol=1e-12)

    def test_bands_match_dense_definition(self):
        pair = solve_sigma(0.7, 1.6)
        ops = assemble_dense(32, pair, 1.0, 1.0)
        P, Phat = build_preconditioners(ops)
        K = np.diag(np.diag(ops.D, 1), 1) + np.diag(np.diag(ops.D, -1), -1)
        Pd = np.diag(ops.S) - ops.lam1 * K + ops.lam2 * np.diag(ops.Q_diag)
        rng = np.random.default_rng(0)
        v = rng.standard_normal(33)
        assert rel_err(tridiagonal(P) @ v, Pd @ v) < 1e-13

    def test_round_trip(self):
        pair = solve_sigma(0.5, 1.2)
        ops = assemble_fast(64, pair, 1.0, 1.0)
        P, Phat = build_preconditioners(ops)
        rng = np.random.default_rng(1)
        for pre in (P, Phat):
            v = rng.standard_normal(65)
            T = tridiagonal(pre)
            assert rel_err(T @ pre.solve(v), v) < 1e-12
            assert rel_err(pre.solve(T @ v), v) < 1e-12

    def test_singular_or_nonfinite_rejected(self):
        # [[1, 1, 0], [1, 1, 0], [0, 0, 1]]: two equal rows, so singular
        bands = np.array([[0.0, 1.0, 0.0], [1.0, 1.0, 1.0], [1.0, 0.0, 0.0]])
        with pytest.raises(AssemblyError, match="singular"):
            BandedPreconditioner(bands)
        bands = np.array([[0.0, 1.0], [np.nan, 1.0], [1.0, 0.0]])
        with pytest.raises(AssemblyError, match="non-finite"):
            BandedPreconditioner(bands)

    def test_no_advection_is_diagonal(self):
        pair = solve_sigma(0.7, 1.4)
        ops = assemble_fast(16, pair, 0.0, 1.0)
        P, _ = build_preconditioners(ops)
        assert np.all(P.bands[0] == 0) and np.all(P.bands[2] == 0)
        assert np.allclose(P.bands[1], ops.S + ops.Q_diag)


def quadrature_rhs_oracle(fun_vals_weighted, test, N, weight, npts=800):
    """(fun, Q_m^{test})_{w^{weight}} by a large fixed Gauss-Jacobi rule."""
    rule = gauss_jacobi_rule(npts, JacobiParams(*weight))
    Et = jacobi_matrix(N, test, rule.nodes)
    return (Et * rule.weights) @ fun_vals_weighted(rule.nodes)


def data_rhs_F(f, pair, N):
    """F for data f and the zero control."""
    return RhsAssembler(N, pair, f, None).rhs_F(0.0, np.zeros(N + 1), 1.0)


def assert_sin_data_projection(pair, beta, N=16):
    """F for f = w^{beta,beta} * sin (beta = 0 is plain data) against the
    quadrature oracle under the combined weight w^{s*+beta, s+beta}."""
    cheb = chebyshev_expand(np.sin, M=64)
    f = SpectralFunction((beta, beta), cheb.poly_params, cheb.coeffs)
    F = data_rhs_F(f, pair, N)
    oracle = quadrature_rhs_oracle(
        lambda x: np.sin(x),
        JacobiParams(pair.sigma_star, pair.sigma),
        N,
        (pair.sigma_star + beta, pair.sigma + beta),
    )
    assert np.max(np.abs(F - oracle)) < 1e-12


class TestRhs:
    def test_zero_data_zero_control(self):
        pair = solve_sigma(0.7, 1.4)
        assert np.all(data_rhs_F(None, pair, 12) == 0)

    def test_constant_control_only(self):
        pair = solve_sigma(0.7, 1.4)
        b, g = pair.sigma_star, pair.sigma
        h0 = float(jacobi_norm_sq(0, JacobiParams(b, g)))
        q = project_control(np.array([2.0] + [0.0] * 12), 1.0, pair)
        # q = c - z/gamma with z = 2 w Q_0; both parts enter F
        asm = RhsAssembler(12, pair, None, None)
        F = asm.rhs_F(q.constant_part, q.z_part.coeffs, q.gamma)
        expected = -asm.gram_z(np.array([2.0] + [0.0] * 12))
        expected[0] += q.constant_part * h0
        assert np.allclose(F, expected, rtol=1e-13)
        # a purely constant control contributes only to F[0]
        F0 = asm.rhs_F(3.5, np.zeros(13), 1.0)
        assert F0[0] == pytest.approx(3.5 * h0, rel=1e-14)
        assert np.all(F0[1:] == 0)

    def test_f_data_against_refined_quadrature(self):
        for beta in (0.0, 0.3):
            assert_sin_data_projection(solve_sigma(0.7, 1.4), beta)

    def test_weighted_f_data(self):
        # -1.5 lowers the test parameters (0.9, 0.9) by more than 1, to a
        # weight whose exponents sum below -1
        for beta in (-0.4, 0.3, -1.5):
            assert_sin_data_projection(solve_sigma(0.5, 1.8), beta)

    def test_g_vanishes_when_u_matches_target(self):
        pair = solve_sigma(0.7, 1.4)
        g, b = pair.sigma, pair.sigma_star
        coeffs = np.array([0.3, -1.2, 0.05, 0.0, 0.7])
        u = SpectralFunction((g, b), JacobiParams(g, b), coeffs)
        G = RhsAssembler(8, pair, None, u).rhs_G(np.pad(coeffs, (0, 9 - len(coeffs))))
        assert np.max(np.abs(G)) < 1e-13

    def test_g_single_mode_against_oracle(self):
        pair = solve_sigma(0.7, 1.4)
        g, b = pair.sigma, pair.sigma_star
        N = 10
        U = np.zeros(N + 1)
        U[0] = 1.0
        G = RhsAssembler(N, pair, None, None).rhs_G(U)
        oracle = quadrature_rhs_oracle(
            lambda x: np.ones_like(x), JacobiParams(g, b), N, (2 * g, 2 * b)
        )
        assert np.max(np.abs(G - oracle)) < 1e-13

    def test_g_linearity(self):
        pair = solve_sigma(0.7, 1.6)
        N = 12
        asm = RhsAssembler(N, pair, None, None)
        rng = np.random.default_rng(5)
        x, y = rng.standard_normal(N + 1), rng.standard_normal(N + 1)
        lhs = asm.rhs_G(2.0 * x - 3.0 * y)
        rhs = 2.0 * asm.rhs_G(x) - 3.0 * asm.rhs_G(y)
        assert rel_err(lhs, rhs) < 1e-13

    def test_gram_z_matches_dense_gram(self):
        pair = solve_sigma(0.7, 1.4)
        b, g = pair.sigma_star, pair.sigma
        N = 24
        asm = RhsAssembler(N, pair, None, None)
        rule = gauss_jacobi_rule(2 * N + 4, JacobiParams(2 * b, 2 * g))
        E = jacobi_matrix(N, JacobiParams(b, g), rule.nodes)
        M2 = (E * rule.weights) @ E.T
        rng = np.random.default_rng(9)
        v = rng.standard_normal(N + 1)
        assert rel_err(asm.gram_z(v), M2 @ v) < 1e-11
