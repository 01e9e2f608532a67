"""Tests for discrete-operator assembly: dense quadrature oracles, the
fast transform-based applies, preconditioners, and right-hand sides."""

import tracemalloc

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
    PRECOND_MODES,
    AssemblyError,
    BandedPreconditioner,
    FastOperatorApply,
    RhsAssembler,
    assemble_dense,
    assemble_fast,
    build_preconditioners,
    mirror,
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
# alpha near 1, where the weak-advection Gram loses digits, and away from it
ORACLE_GRID = [(theta, alpha) for alpha in (1.01, 1.05, 1.5, 1.99)
               for theta in (0.0, 0.3, 0.5, 1.0)]


def rel_err(a, b):
    return np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-300)


def block_preconditioner(N, pair, lam1, lam2):
    """[[A_K, 0], [0, diag(S + lam2*h^{alpha,alpha})]], K = min(N, PRECOND_MODES),
    with A_K from the dense oracle."""
    K = min(N, PRECOND_MODES)
    P = np.zeros((N + 1, N + 1))
    P[:K + 1, :K + 1] = assemble_dense(K, pair, lam1, lam2).dense_A()
    n = np.arange(K + 1, N + 1)
    P[n, n] = (stiffness_diagonal(N, pair)[n]
               + lam2 * jacobi_norm_sq(n, JacobiParams(pair.alpha, pair.alpha)))
    return P


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

    @pytest.mark.parametrize("lam1", [0.0, 1.0])
    @pytest.mark.parametrize("theta,alpha", [(0.0, 1.3), (0.5, 1.6), (0.7, 1.8), (1.0, 1.4)])
    def test_adjoint_consistency(self, theta, alpha, lam1):
        # B = J A J equals A assembled by its own quadrature under the sigma
        # swap (theta -> 1 - theta) with the advection sign flipped
        pair = solve_sigma(theta, alpha)
        B = assemble_dense(24, pair, lam1, 1.0).dense_B()
        A_sw = assemble_dense(24, pair.swapped(), -lam1, 1.0).dense_A()
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

    def test_peak_memory_frees_evaluation_matrices(self):
        # each quadrature evaluation matrix is freed once its product is
        # formed, and no adjoint matrix is assembled: at most two of them
        # live next to M, D and one product temporary (five in all)
        N = 512
        pair = solve_sigma(0.7, 1.8)
        assemble_dense(8, pair, 1.0, 1.0)  # rules' one-off imports and caches
        tracemalloc.start()
        try:
            assemble_dense(N, pair, 1.0, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5.5 * (N + 1) * (N + 3) * 8


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

    @pytest.mark.parametrize("theta,alpha", ORACLE_GRID)
    def test_mass_only_matches_dense(self, theta, alpha):
        # lam1 = 0: the mass term alone, read off the weak-advection Gram
        N = 512
        pair = solve_sigma(theta, alpha)
        A = assemble_dense(N, pair, 0.0, 1.0).dense_A()
        fast = assemble_fast(N, pair, 0.0, 1.0)
        rng = np.random.default_rng(7)
        for _ in range(3):
            v = rng.standard_normal(N + 1)
            assert rel_err(fast.apply_A(v), A @ v) < 1e-10

    @pytest.mark.parametrize("theta,alpha", [(0.0, 1.3), (0.7, 1.01), (0.5, 1.6), (1.0, 1.99)])
    def test_mass_three_term_identity(self, theta, alpha):
        # x(1-x) Q_m^{b,g} = c0 Q_m + c1 Q_{m+1} + c2 Q_{m+2} in Q^{b-1,g-1}
        pair = solve_sigma(theta, alpha)
        g, b = pair.sigma, pair.sigma_star
        N = 40
        c0, c1, c2 = FastOperatorApply(N, pair, 0.0, 0.0).mass_bands
        x = np.linspace(0.0, 1.0, 50)
        hi = jacobi_matrix(N, JacobiParams(b, g), x)
        lo = jacobi_matrix(N + 2, JacobiParams(b - 1, g - 1), x)
        lhs = x * (1 - x) * hi
        rhs = c0[:, None] * lo[:-2] + c1[:, None] * lo[1:-1] + c2[:, None] * lo[2:]
        scale = np.abs(lhs).max(axis=1, keepdims=True)
        assert np.max(np.abs(lhs - rhs) / scale) < 1e-13

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
        # only A is assembled (B is its mirror), equal parameters take no
        # step, and a term with a zero coefficient builds no conversion
        built = []
        build = ConversionMatrix.build.__func__

        def recording_build(cls, k, from_params, to_params, *args, **kwargs):
            built.append((from_params, to_params))
            return build(cls, k, from_params, to_params, *args, **kwargs)

        monkeypatch.setattr(ConversionMatrix, "build", classmethod(recording_build))
        assemble_fast(32, solve_sigma(0.7, 1.6), 1.0, 1.0)
        assert len(built) == 4  # one Gram: two conversions out, two back
        built.clear()
        RhsAssembler(32, solve_sigma(0.7, 1.6), None, None)  # gram_u is gram_z mirrored
        assert len(built) == 2
        built.clear()
        assemble_fast(32, solve_sigma(1.0, 1.6), 1.0, 1.0)
        assert built and all(src != dst for src, dst in built)
        built.clear()
        assemble_fast(32, solve_sigma(0.7, 1.6), 0.0, 0.0)
        assert not built

    def test_one_gram_per_apply(self, monkeypatch):
        # mass and advection share one Gram: four conversion applies per
        # apply_A, and apply_B is the same apply between two mirrors
        fast = assemble_fast(32, solve_sigma(0.7, 1.8), 1.0, 1.0)
        calls = []
        apply = ConversionMatrix.apply

        def counting_apply(self, v, transpose=False):
            calls.append(transpose)
            return apply(self, v, transpose)

        monkeypatch.setattr(ConversionMatrix, "apply", counting_apply)
        v = np.random.default_rng(2).standard_normal(33)
        for op in (fast.apply_A, fast.apply_B):
            calls.clear()
            op(v)
            assert len(calls) == 4

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
    @pytest.mark.parametrize("lam1", [0.0, 1.0, 10.0])
    @pytest.mark.parametrize("theta,alpha", ORACLE_GRID)
    def test_leading_block_matches_dense(self, theta, alpha, lam1):
        # the bases are hierarchical: A_48's leading 41 x 41 block is A_40
        pair = solve_sigma(theta, alpha)
        block = FastOperatorApply(48, pair, lam1, 1.0).leading_block(40)
        A = assemble_dense(40, pair, lam1, 1.0).dense_A()
        assert np.abs(block - A).max() <= 1e-13 * np.abs(A).max()

    def test_bands_match_dense_definition(self):
        N = 160
        pair = solve_sigma(0.7, 1.6)
        P, Phat = build_preconditioners(assemble_fast(N, pair, 1.0, 1.0))
        Pd = block_preconditioner(N, pair, 1.0, 1.0)
        Pinv = np.column_stack([P.solve(e) for e in np.eye(N + 1)])
        assert np.abs(Pinv @ Pd - np.eye(N + 1)).max() < 1e-12
        # Phat = J P J is P under the sigma swap with the advection sign flipped
        P_sw, _ = build_preconditioners(assemble_fast(N, pair.swapped(), -1.0, 1.0))
        v = np.random.default_rng(0).standard_normal(N + 1)
        assert rel_err(Phat.solve(v), P_sw.solve(v)) < 1e-12

    def test_round_trip(self):
        # for N <= PRECOND_MODES the block is all of A
        pair = solve_sigma(0.5, 1.2)
        rng = np.random.default_rng(1)
        for N in (64, 200):
            P, Phat = build_preconditioners(assemble_fast(N, pair, 1.0, 1.0))
            T = block_preconditioner(N, pair, 1.0, 1.0)
            J = mirror(N)
            for pre, M in ((P, T), (Phat, J[:, None] * T * J)):
                v = rng.standard_normal(N + 1)
                assert rel_err(M @ pre.solve(v), v) < 1e-12
                assert rel_err(pre.solve(M @ v), v) < 1e-12

    def test_singular_or_nonfinite_rejected(self):
        # two equal rows in the block, or a zero on the tail
        with pytest.raises(AssemblyError, match="singular"):
            BandedPreconditioner(np.ones((2, 2)), np.ones(3))
        with pytest.raises(AssemblyError, match="singular"):
            BandedPreconditioner(np.eye(2), np.array([1.0, 0.0]))
        with pytest.raises(AssemblyError, match="non-finite"):
            BandedPreconditioner(np.array([[1.0, np.nan], [0.0, 1.0]]), np.ones(3))
        with pytest.raises(AssemblyError, match="non-finite"):
            BandedPreconditioner(np.eye(2), np.array([1.0, np.inf]))
        ops = assemble_fast(16, solve_sigma(0.7, 1.4), 1.0, np.nan)
        with pytest.raises(AssemblyError, match="non-finite"):
            build_preconditioners(ops)

    def test_dense_set_rejected(self):
        # the block comes from the fast apply's own Gram
        with pytest.raises(AssemblyError, match="assemble_dense"):
            build_preconditioners(assemble_dense(16, solve_sigma(0.7, 1.4), 1.0, 1.0))

    def test_no_advection_is_diagonal(self):
        # lam1 = lam2 = 0: A = S, and P is S on every mode; with mass only,
        # the tail above the block is S + h^{alpha,alpha}
        N = 200
        pair = solve_sigma(0.7, 1.4)
        v = np.random.default_rng(2).standard_normal(N + 1)
        ops = assemble_fast(N, pair, 0.0, 0.0)
        for pre in build_preconditioners(ops):
            assert np.allclose(pre.solve(v), v / ops.S, rtol=1e-14, atol=0.0)
        P, _ = build_preconditioners(assemble_fast(N, pair, 0.0, 1.0))
        n = np.arange(PRECOND_MODES + 1, N + 1)
        Q = jacobi_norm_sq(n, JacobiParams(pair.alpha, pair.alpha))
        assert np.allclose(P.tail, ops.S[n] + Q, rtol=1e-15, atol=0.0)


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
