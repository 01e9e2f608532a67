"""Tests for weighted error norms, observed-order computation, the
reference cache, and the convergence-study driver."""

import os

import numpy as np
import pytest

from fracctrl import analysis
from fracctrl.analysis import (
    AnalysisError,
    ConvergenceReport,
    cache_dir,
    cache_path,
    convergence_study,
    eoc,
    load_reference,
    reference_solve,
    save_reference,
    triple_errors,
    weighted_error,
    _spec_digest,
)
from fracctrl.fracparams import solve_sigma
from fracctrl.jacobi import JacobiParams, gauss_jacobi_rule, jacobi_norm_sq
from fracctrl.solver import ControlFunction, ProblemSpec, SolverConfig, optimize
from fracctrl.transforms import SpectralFunction, chebyshev_expand


def make_fun(pair, coeffs, frame="state"):
    if frame == "state":
        g, b = pair.sigma, pair.sigma_star
    else:
        g, b = pair.sigma_star, pair.sigma
    return SpectralFunction((g, b), JacobiParams(g, b), np.asarray(coeffs, float))


def gauss_jacobi_error(p_N, p_ref, a, b):
    """Oracle: ||p_N - p_ref|| / ||p_ref|| in the w^{a,b} norm by a
    Gauss-Jacobi rule for the combined weight w^{a,b} w^2, exact on the
    squared polynomial parts."""
    wa, wb = p_ref.weight_exponents
    rule = gauss_jacobi_rule(max(len(p_N.coeffs), len(p_ref.coeffs)) + 1,
                             JacobiParams(a + 2 * wa, b + 2 * wb))
    ref = p_ref.poly_values(rule.nodes)
    diff = ref - p_N.poly_values(rule.nodes)
    return np.sqrt((rule.weights @ diff**2) / (rule.weights @ ref**2))


def adaptive_error(q_N, q_ref, a=0.0, b=0.0):
    """Oracle: ||q_N - q_ref|| / ||q_ref|| in the w^{a,b} norm by adaptive
    quadrature of the two represented functions (the reference has
    algebraic endpoint behavior, which QAWS integrates against x^b (1-x)^a)."""
    from scipy.integrate import quad

    def integral_sq(fn):
        def sq(x):
            return float(fn(np.array([x]))[0]) ** 2
        if a == 0.0 and b == 0.0:
            return quad(sq, 0.0, 1.0, epsabs=1e-18, epsrel=1e-13)[0]
        return quad(sq, 0.0, 1.0, weight="alg", wvar=(b, a), epsabs=1e-18, epsrel=1e-13,
                    limit=500)[0]

    num = integral_sq(lambda x: q_N.values(x) - q_ref.values(x))
    den = integral_sq(q_ref.values)
    return np.sqrt(num / den)


def example1_spec(alpha=1.8, theta=0.7):
    return ProblemSpec(
        alpha=alpha, theta=theta, lambda1=1.0, lambda2=1.0, gamma=1.0,
        f=chebyshev_expand(np.sin, M=64), u_d=chebyshev_expand(np.cos, M=64),
    )


class TestWeightedError:
    def test_identical_functions(self):
        pair = solve_sigma(0.7, 1.4)
        p = make_fun(pair, [1.0, -0.5, 0.25])
        assert weighted_error(p, p, -pair.sigma, -pair.sigma_star) == 0.0

    def test_zero_padding_equivalence(self):
        pair = solve_sigma(0.7, 1.4)
        p1 = make_fun(pair, [1.0, -0.5])
        p2 = make_fun(pair, [1.0, -0.5, 0.0, 0.0])
        assert weighted_error(p1, p2, -pair.sigma, -pair.sigma_star) == 0.0

    def test_single_coefficient_difference(self):
        pair = solve_sigma(0.7, 1.4)
        g, b = pair.sigma, pair.sigma_star
        ref_c = np.array([1.0, 0.3, -0.2, 0.05])
        k, delta = 2, 7e-4
        cand = ref_c.copy()
        cand[k] += delta
        p_ref = make_fun(pair, ref_c)
        p_N = make_fun(pair, cand)
        h = jacobi_norm_sq(np.arange(4), JacobiParams(g, b))
        expected = abs(delta) * np.sqrt(h[k]) / np.sqrt(np.dot(ref_c**2, h))
        got = weighted_error(p_N, p_ref, -g, -b)
        assert got == pytest.approx(expected, rel=1e-12)
        # and the Gauss-Jacobi oracle agrees with the coefficientwise formula
        assert got == pytest.approx(gauss_jacobi_error(p_N, p_ref, -g, -b), rel=1e-12)

    def test_l2_norm_by_quadrature(self):
        pair = solve_sigma(0.5, 1.6)
        p_ref = make_fun(pair, [0.8, -0.1, 0.4])
        p_N = make_fun(pair, [0.8, -0.1])
        e = weighted_error(p_N, p_ref, 0.0, 0.0)
        assert e == pytest.approx(gauss_jacobi_error(p_N, p_ref, 0.0, 0.0), rel=1e-12)

    def test_weight_far_below_basis(self):
        # combined weight (-0.7, -0.7) from the (0.9, 0.9) basis: the
        # re-expansion lowers each parameter by 1.6, in two conversions
        pair = solve_sigma(0.5, 1.8)
        r = np.random.default_rng(0).standard_normal(20)
        p_ref, p_N = make_fun(pair, r), make_fun(pair, r[:12])
        e = weighted_error(p_N, p_ref, -2.5, -2.5)
        assert e == pytest.approx(gauss_jacobi_error(p_N, p_ref, -2.5, -2.5), rel=1e-12)

    def test_basis_mismatch_rejected(self):
        pair = solve_sigma(0.7, 1.4)
        p1 = make_fun(pair, [1.0], frame="state")
        p2 = make_fun(pair, [1.0], frame="adjoint")
        with pytest.raises(AnalysisError):
            weighted_error(p1, p2, 0.0, 0.0)

    def test_mixed_kinds_rejected(self):
        pair = solve_sigma(0.7, 1.4)
        p = make_fun(pair, [1.0])
        q = ControlFunction(0.0, make_fun(pair, [1.0], frame="adjoint"), 1.0)
        with pytest.raises(AnalysisError):
            weighted_error(p, q, 0.0, 0.0)

    def test_control_constant_shift(self):
        # controls differing only by a constant: L2 error = |dc| / ||ref||
        pair = solve_sigma(0.7, 1.4)
        z = make_fun(pair, [0.5, -0.2, 0.1], frame="adjoint")
        q_ref = ControlFunction(1.0, z, 1.0)
        q_N = ControlFunction(1.0 + 3e-5, z, 1.0)
        got = weighted_error(q_N, q_ref, 0.0, 0.0)
        assert got == pytest.approx(adaptive_error(q_N, q_ref), rel=1e-9)

    @pytest.mark.parametrize("weighted", [False, True])
    def test_control_nonconstant_difference(self, weighted):
        # the z-parts differ too, so the cross and square terms are measured
        pair = solve_sigma(0.7, 1.4)
        a, b = (-pair.sigma_star, -pair.sigma) if weighted else (0.0, 0.0)
        q_ref = ControlFunction(1.0, make_fun(pair, [0.5, -0.2, 0.1, 0.03], frame="adjoint"), 0.8)
        q_N = ControlFunction(1.0 + 3e-5, make_fun(pair, [0.5, -0.19, 0.1], frame="adjoint"), 0.8)
        got = weighted_error(q_N, q_ref, a, b)
        assert got == pytest.approx(adaptive_error(q_N, q_ref, a, b), rel=1e-9)

    def test_control_nonintegrable_weight_is_nan(self):
        # measuring q in the (-sigma*, -sigma) norm needs sigma* < 1;
        # at theta = 1 sigma = 1 and the combined weight is non-integrable
        pair = solve_sigma(1.0, 1.4)
        z = make_fun(pair, [0.5, -0.2], frame="adjoint")
        q1 = ControlFunction(0.1, z, 1.0)
        q2 = ControlFunction(0.2, z, 1.0)
        assert np.isnan(weighted_error(q1, q2, -pair.sigma_star, -pair.sigma))


class TestEoc:
    def test_exact_power_of_four(self):
        assert eoc([4e-4, 1e-4], [32, 64]) == [pytest.approx(2.0)]

    def test_published_pair(self):
        (order,) = eoc([1.56e-06, 3.05e-07], [128, 256])
        assert order == pytest.approx(2.35, abs=0.005)

    def test_constant_errors(self):
        assert eoc([1e-5, 1e-5], [16, 32]) == [pytest.approx(0.0)]

    def test_non_doubling_rejected(self):
        with pytest.raises(AnalysisError):
            eoc([1e-3, 1e-4], [16, 48])

    def test_nonpositive_error_gives_nan(self):
        out = eoc([1e-3, 0.0, 1e-5], [16, 32, 64])
        assert np.isnan(out[0]) and np.isnan(out[1])


class TestReferenceCache:
    @pytest.fixture(autouse=True)
    def tmp_cache(self, tmp_path, monkeypatch):
        monkeypatch.setenv("FRACCTRL_CACHE_DIR", str(tmp_path / "cache"))
        yield

    def test_round_trip(self):
        spec = example1_spec()
        cfg = SolverConfig(N=24, mode="direct")
        triple = optimize(spec, cfg)
        digest = _spec_digest(spec, 24, cfg)
        save_reference(triple, digest)
        loaded = load_reference(digest, spec)
        assert loaded is not None
        assert np.array_equal(loaded.U.coeffs, triple.U.coeffs)
        assert np.array_equal(loaded.Z.coeffs, triple.Z.coeffs)
        assert loaded.q.constant_part == triple.q.constant_part

    def test_miss_returns_none(self):
        assert load_reference("0" * 64, example1_spec()) is None

    def test_corruption_detected(self):
        spec = example1_spec()
        cfg = SolverConfig(N=16, mode="direct")
        triple = optimize(spec, cfg)
        digest = _spec_digest(spec, 16, cfg)
        path = save_reference(triple, digest)
        with open(path, "r+b") as fh:
            fh.seek(os.path.getsize(path) - 16)
            fh.write(b"\xde\xad\xbe\xef" * 4)
        assert load_reference(digest, spec) is None

    def test_digest_distinguishes_problems(self):
        cfg = SolverConfig(N=16)
        d1 = _spec_digest(example1_spec(alpha=1.8), 16, cfg)
        d2 = _spec_digest(example1_spec(alpha=1.4), 16, cfg)
        assert d1 != d2

    def test_reference_solve_uses_cache(self):
        spec = example1_spec()
        cfg = SolverConfig(N=16, mode="direct")
        first = reference_solve(spec, 16, cfg, use_cache=True)
        digest = _spec_digest(spec, 16, cfg)
        assert os.path.exists(cache_path(digest))
        second = reference_solve(spec, 16, cfg, use_cache=True)
        assert np.array_equal(first.U.coeffs, second.U.coeffs)


class TestConvergenceStudy:
    @pytest.fixture(autouse=True)
    def tmp_cache(self, tmp_path, monkeypatch):
        monkeypatch.setenv("FRACCTRL_CACHE_DIR", str(tmp_path / "cache"))
        yield

    def test_small_study_structure(self):
        spec = example1_spec()
        report = convergence_study(
            spec, [8, 16], 64, SolverConfig(N=8, mode="direct"), use_cache=False
        )
        assert report.Ns == [8, 16]
        for var in ConvergenceReport.VARIABLES:
            es = report.errors[var]
            assert len(es) == 2
            assert es[1] < es[0]  # error decreases under refinement
            assert len(report.orders[var]) == 1
        assert len(report.iters) == 2 and len(report.seconds) == 2
        assert np.isfinite(report.expected_order)
        rows = report.rows()
        assert rows[0]["N"] == 8 and np.isnan(rows[0]["ord_u"])
        assert rows[1]["ord_u"] == pytest.approx(report.orders["u_weighted"][0])

    def test_triple_errors_against_self(self):
        triple = optimize(example1_spec(), SolverConfig(N=16, mode="direct"))
        errs = triple_errors(triple, triple)
        for v in errs.values():
            assert v == 0.0

    def test_bad_setups_rejected(self, monkeypatch):
        spec = example1_spec()
        cfg = SolverConfig(N=8, mode="direct")

        def no_solve(*args, **kwargs):
            raise AssertionError("a bad study setup ran a solve")

        # rejected before the reference solve, not after the whole study
        monkeypatch.setattr(analysis, "reference_solve", no_solve)
        for Ns, N_ref in (([], 64), ([32], 64), ([8, 24], 96), ([0, 0], 64), ([-8], 64)):
            with pytest.raises(AnalysisError):
                convergence_study(spec, Ns, N_ref, cfg)

    def test_cache_dir_env_override(self, tmp_path):
        assert cache_dir() == str(tmp_path / "cache")
