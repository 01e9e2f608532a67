"""Tests for the shifted Jacobi core: evaluation, norms, quadrature and
the derivative identities behind the advection assembly."""

import tracemalloc

import mpmath
import numpy as np
import pytest
from scipy.special import betaln, gammaln

from fracctrl.jacobi import (
    JacobiParamError,
    JacobiParams,
    gauss_jacobi_rule,
    jacobi_matrix,
    jacobi_norm_sq,
    log_gamma_ratio,
    orthonormal_rows,
)

PARAM_GRID = [(0.0, 0.0), (0.6, 0.6), (0.8829, 0.3171), (-0.4, -0.4)]


def series_oracle(n, g, b, x):
    """Explicit hypergeometric finite sum for Q_n^{g,b}(x) on [0,1]."""
    with mpmath.workdps(40):
        total = mpmath.mpf(0)
        for k in range(n + 1):
            term = (
                mpmath.binomial(n + b, n - k)
                * mpmath.binomial(n + g, k)
                * mpmath.mpf(x) ** k
                * (mpmath.mpf(x) - 1) ** (n - k)
            )
            total += term
        return float(total)


class TestEval:
    def test_degree_zero_is_one(self):
        p = JacobiParams(0.3, -0.2)
        for x in (0.0, 0.25, 1.0):
            assert jacobi_matrix(0, p, x)[0] == 1.0

    def test_degree_one_legendre(self):
        # Q_1^{0,0}(x) = 2x - 1
        assert jacobi_matrix(1, JacobiParams(0, 0), 0.75)[1] == pytest.approx(0.5, abs=1e-15)

    def test_against_series_oracle(self):
        rng = np.random.default_rng(7)
        for g, b in PARAM_GRID:
            p = JacobiParams(g, b)
            for n in (2, 5, 13, 30):
                x = rng.uniform(0.05, 0.95)
                assert jacobi_matrix(n, p, x)[n] == pytest.approx(
                    series_oracle(n, g, b, x), rel=1e-11, abs=1e-11
                )

    def test_reflection(self):
        x = np.linspace(0.0, 1.0, 11)
        for g, b in [(0.6, 0.2), (0.8829, 0.3171)]:
            for n in range(21):
                lhs = jacobi_matrix(n, JacobiParams(g, b), x)[n]
                rhs = (-1.0) ** n * jacobi_matrix(n, JacobiParams(b, g), 1.0 - x)[n]
                assert np.max(np.abs(lhs - rhs)) < 1e-12 * max(1.0, np.max(np.abs(lhs)))

    def test_invalid_params_rejected(self):
        with pytest.raises(JacobiParamError):
            JacobiParams(-1.0, 0.0)
        with pytest.raises(JacobiParamError):
            JacobiParams(0.0, -1.3)


class TestNorm:
    def test_unit_norm_legendre(self):
        assert jacobi_norm_sq(0, JacobiParams(0, 0)) == pytest.approx(1.0, rel=1e-15)

    def test_beta_identity(self):
        # h_0^{a,b} = Integral of the weight = B(a+1, b+1), also for exponent
        # sums at or below -1 (Chebyshev's is -1), where Gamma(a+b+1) <= 0
        for g, b in ((0.5398, 0.8602), (-0.5, -0.5), (-0.7, -0.7), (-0.9, -0.3)):
            expected = np.exp(betaln(g + 1, b + 1))
            assert jacobi_norm_sq(0, JacobiParams(g, b)) == pytest.approx(expected, rel=1e-14)

    def test_symmetry(self):
        n = np.arange(30)
        a = jacobi_norm_sq(n, JacobiParams(0.9, 0.3))
        b = jacobi_norm_sq(n, JacobiParams(0.3, 0.9))
        assert np.allclose(a, b, rtol=1e-14, atol=0.0)

    def test_against_quadrature(self):
        p = JacobiParams(0.6, 0.6)
        rule = gauss_jacobi_rule(9, p)
        vals = jacobi_matrix(7, p, rule.nodes)[7]
        assert rule.weights @ vals**2 == pytest.approx(
            jacobi_norm_sq(7, p), rel=1e-12
        )


class TestQuadrature:
    def test_midpoint_rule(self):
        rule = gauss_jacobi_rule(1, JacobiParams(0, 0))
        assert rule.nodes[0] == pytest.approx(0.5, abs=1e-15)
        assert rule.weights[0] == pytest.approx(1.0, rel=1e-15)

    def test_invariants(self):
        for g, b in PARAM_GRID:
            p = JacobiParams(g, b)
            rule = gauss_jacobi_rule(24, p)
            assert np.all(np.diff(rule.nodes) > 0)
            assert np.all((rule.nodes > 0) & (rule.nodes < 1))
            assert np.all(rule.weights > 0)
            assert rule.weights.sum() == pytest.approx(
                np.exp(betaln(g + 1, b + 1)), rel=1e-13
            )

    @pytest.mark.parametrize("g,b", PARAM_GRID)
    def test_orthogonality_grid(self, g, b):
        p = JacobiParams(g, b)
        h = jacobi_norm_sq(np.arange(21), p)
        for m in range(21):
            for n in range(m, 21):
                rule = gauss_jacobi_rule((m + n) // 2 + 1, p)
                E = jacobi_matrix(n, p, rule.nodes)
                val = rule.weights @ (E[m] * E[n])
                if m == n:
                    assert val == pytest.approx(h[n], rel=1e-12)
                else:
                    assert abs(val) <= 1e-12 * max(1.0, h[min(m, n)])

    @pytest.mark.parametrize("g,b", [(-0.6, -0.6), (-0.3, -0.9), (0.8, 0.8)])
    def test_against_mpmath_integral(self, g, b):
        # int_0^1 (1-x)^g x^b sin(x) Q_16^{0.9,0.9}(x) dx with 800 points
        with mpmath.workdps(40):
            exact = float(mpmath.quad(
                lambda x: (1 - x) ** g * x ** b * mpmath.sin(x)
                * mpmath.jacobi(16, 0.9, 0.9, 2 * x - 1), [0, 0.5, 1]))
        rule = gauss_jacobi_rule(800, JacobiParams(g, b))
        q16 = jacobi_matrix(16, JacobiParams(0.9, 0.9), rule.nodes)[16]
        assert abs(rule.weights @ (np.sin(rule.nodes) * q16) - exact) <= 1e-12

    @pytest.mark.parametrize("g,b", [(0.8, 0.8), (0.1, 1.2)])
    def test_discrete_orthonormality_large(self, g, b):
        # the rule's nodes and weights make p_0..p_{n-1} orthonormal:
        # sum_j w_j p_k(t_j) p_l(t_j) = B(g+1, b+1) delta_kl
        p, n = JacobiParams(g, b), 2051
        rule = gauss_jacobi_rule(n, p)
        V = np.array(list(orthonormal_rows(p, 2.0 * rule.nodes - 1.0, n - 1)))
        gram = (V * (rule.weights / np.exp(betaln(g + 1, b + 1)))) @ V.T
        assert np.max(np.abs(gram - np.eye(n))) <= 1e-11

    def test_memory_linear_in_points(self):
        # no (npts x npts) eigenvector matrix: that alone would be 33.6 MB
        tracemalloc.start()
        try:
            gauss_jacobi_rule(2051, JacobiParams(0.8, 0.8))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2e6

    def test_exactness_degree(self):
        # 6-point rule integrates Q_3*Q_5 (degree 8 <= 2*6-1) exactly
        p = JacobiParams(0.6, 0.6)
        rule = gauss_jacobi_rule(6, p)
        E = jacobi_matrix(5, p, rule.nodes)
        assert abs(rule.weights @ (E[3] * E[5])) < 1e-13


class TestDerivative:
    def test_plain_derivative_finite_difference(self):
        # D Q_n^{g,b} = (n+g+b+1) * Q_{n-1}^{g+1,b+1}
        g, b = 0.44, 0.8
        p = JacobiParams(g, b)
        x = np.linspace(0.1, 0.9, 20)
        h = 1e-6
        for n in (1, 3, 6):
            fd = (jacobi_matrix(n, p, x + h)[n] - jacobi_matrix(n, p, x - h)[n]) / (2 * h)
            q = jacobi_matrix(n - 1, JacobiParams(g + 1, b + 1), x)[n - 1]
            exact = (n + g + b + 1) * q
            assert np.max(np.abs(fd - exact)) < 1e-6 * max(1.0, np.max(np.abs(exact)))

    def test_weighted_derivative_finite_difference(self):
        # D[w^{g+1,b+1} Q_{n-1}^{g+1,b+1}] = -n * w^{g,b} Q_n^{g,b}, the
        # identity that puts the advection matrices D, Dhat in row-shifted form
        g, b = 0.44, 0.8
        p = JacobiParams(g, b)
        x = np.linspace(0.1, 0.9, 20)
        h = 1e-6
        for n in (2, 4, 7):

            def lhs(xx):
                q = jacobi_matrix(n - 1, JacobiParams(g + 1, b + 1), xx)[n - 1]
                return (1 - xx) ** (g + 1) * xx ** (b + 1) * q

            fd = (lhs(x + h) - lhs(x - h)) / (2 * h)
            exact = -n * (1 - x) ** g * x**b * jacobi_matrix(n, p, x)[n]
            assert np.max(np.abs(fd - exact)) < 1e-7 * max(1.0, np.max(np.abs(exact)))


class TestLogGammaRatio:
    def test_trivial_unity(self):
        assert log_gamma_ratio(0, 1.0) == pytest.approx(1.0, rel=1e-15)

    def test_gamma_25(self):
        with mpmath.workdps(30):
            expected = float(mpmath.gamma(2.5))
        assert log_gamma_ratio(0, 1.5) == pytest.approx(expected, rel=1e-13)

    def test_large_n_no_overflow(self):
        v = log_gamma_ratio(10000, 1.8)
        assert np.isfinite(v)
        # compare against extended-precision ratio
        with mpmath.workdps(40):
            expected = float(mpmath.gamma(10001 + 1.8) / mpmath.gamma(10001))
        # exp(lgamma - lgamma) at this scale carries ~1e-11 relative noise
        assert v == pytest.approx(expected, rel=1e-10)

    def test_pole_rejected(self):
        with pytest.raises(ValueError):
            log_gamma_ratio(0, -1.0)
