"""Tests for weighted error norms, observed-order computation, the kept
reference solve, and the convergence-study driver."""

from dataclasses import replace

import numpy as np
import pytest

from fracctrl import analysis
from fracctrl.analysis import (
    AnalysisError,
    ConvergenceReport,
    convergence_study,
    eoc,
    load_reference,
    reference_solve,
    triple_errors,
    weighted_error,
    _spec_digest,
)
from fracctrl.fracparams import solve_sigma
from fracctrl.jacobi import JacobiParams, gauss_jacobi_rule, jacobi_norm_sq
from fracctrl.solver import ControlFunction, ProblemSpec, SolverConfig, SolverError, optimize
from fracctrl.transforms import (
    ConversionCache,
    ConversionMatrix,
    SpectralFunction,
    chebyshev_expand,
)


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


def example2_spec(alpha=1.8, beta=-0.4, theta=0.5):
    """Weighted data w^{beta,beta} sin and w^{beta,beta} cos (the study
    benchmark's problem at alpha = 1.8, and acceptance criterion 5's)."""
    fc = chebyshev_expand(np.sin, M=64)
    uc = chebyshev_expand(np.cos, M=64)
    pair = solve_sigma(theta, alpha)
    return ProblemSpec(
        alpha=alpha, theta=theta, lambda1=1.0, lambda2=1.0, gamma=1.0,
        f=SpectralFunction((beta, beta), fc.poly_params, fc.coeffs),
        u_d=SpectralFunction((beta, beta), uc.poly_params, uc.coeffs),
        data_regularity=2 * beta + min(pair.sigma, pair.sigma_star) + 1,
    )


@pytest.fixture
def norm_applies(monkeypatch):
    """A list whose length counts the ConversionMatrix.apply calls made
    inside analysis.weighted_error, however it is reached."""
    calls, depth = [], [0]
    apply, error = ConversionMatrix.apply, analysis.weighted_error

    def counted_apply(self, *args, **kwargs):
        if depth[0]:
            calls.append(self.k)
        return apply(self, *args, **kwargs)

    def counted_error(*args, **kwargs):
        depth[0] += 1
        try:
            return error(*args, **kwargs)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(ConversionMatrix, "apply", counted_apply)
    monkeypatch.setattr(analysis, "weighted_error", counted_error)
    return calls


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

    def test_control_gamma_mismatch_rejected(self):
        # (z, gamma = 1) and (2z, gamma = 2) are the same control, but one
        # gamma cannot measure both: rejected rather than read as nonzero
        pair = solve_sigma(0.7, 1.4)
        z = make_fun(pair, [0.5, -0.2, 0.1], frame="adjoint")
        z2 = make_fun(pair, 2.0 * z.coeffs, frame="adjoint")
        with pytest.raises(AnalysisError, match="gamma"):
            weighted_error(ControlFunction(1.0, z, 1.0), ControlFunction(1.0, z2, 2.0), 0.0, 0.0)

    def test_control_weight_mismatch_rejected(self):
        pair = solve_sigma(0.7, 1.4)
        z = make_fun(pair, [0.5, -0.2, 0.1], frame="adjoint")
        plain = SpectralFunction((0.0, 0.0), z.poly_params, z.coeffs)
        with pytest.raises(AnalysisError):
            weighted_error(ControlFunction(1.0, plain, 1.0), ControlFunction(1.0, z, 1.0),
                           0.0, 0.0)


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
    def empty_slot(self, monkeypatch):
        monkeypatch.setattr(analysis, "_reference", None)

    @pytest.fixture
    def solves(self, monkeypatch):
        """The specs analysis.optimize is called with, in order."""
        seen = []

        def counted(spec, *args, **kwargs):
            seen.append(spec)
            return optimize(spec, *args, **kwargs)

        monkeypatch.setattr(analysis, "optimize", counted)
        return seen

    def test_round_trip(self):
        spec = example1_spec()
        cfg = SolverConfig(N=24, mode="direct")
        triple = reference_solve(spec, 24, cfg)
        assert load_reference(_spec_digest(spec, cfg)) is triple

    def test_miss_returns_none(self):
        assert load_reference("0" * 64) is None

    def test_digest_distinguishes_problems(self, solves):
        spec, cfg = example1_spec(), SolverConfig(N=16, mode="direct")
        first = reference_solve(spec, 16, cfg)
        others = ((example1_spec(alpha=1.4), cfg),
                  (replace(spec, gamma=0.5), cfg),
                  (spec, replace(cfg, mode="fast")),
                  (spec, replace(cfg, outer_tol=1e-10)))
        for other, other_cfg in others:
            assert _spec_digest(other, other_cfg) != _spec_digest(spec, cfg)
            assert reference_solve(other, 16, other_cfg) is not first
        assert len(solves) == 1 + len(others)
        # each solve replaced the one before it whole
        assert load_reference(_spec_digest(spec, cfg)) is None
        assert load_reference(_spec_digest(*others[-1])) is analysis._reference[1]

    def test_reference_solve_uses_cache(self, solves):
        spec = example1_spec()
        cfg = SolverConfig(N=16, mode="direct")
        first = reference_solve(spec, 16, cfg)
        # N is the reference's, whatever config.N says
        assert reference_solve(spec, 16, SolverConfig(N=8, mode="direct")) is first
        assert len(solves) == 1

    def test_study_after_reference_solve_solves_each_n_once(self, solves):
        # the study benchmark's shape: a reference solve, then studies of it
        spec = example1_spec()
        cfg = SolverConfig(N=8, mode="direct")
        reference_solve(spec, 64, cfg)
        solves.clear()
        convergence_study(spec, [8, 16], 64, cfg)
        assert len(solves) == 2

    def test_use_cache_false_leaves_slot(self, solves):
        spec = example1_spec()
        cfg = SolverConfig(N=16, mode="direct")
        reference_solve(spec, 16, cfg, use_cache=False)
        assert analysis._reference is None
        kept = reference_solve(spec, 16, cfg)
        slot = analysis._reference
        fresh = [reference_solve(spec, 16, cfg, use_cache=False) for _ in range(2)]
        assert len(solves) == 4
        assert all(t is not kept for t in fresh)
        assert np.array_equal(fresh[0].U.coeffs, kept.U.coeffs)
        assert analysis._reference is slot

    def test_failed_solve_keeps_nothing(self, monkeypatch):
        spec = example1_spec()
        cfg = SolverConfig(N=16, mode="direct")
        reference_solve(spec, 16, cfg)

        def fail(*args, **kwargs):
            raise SolverError("no solve")

        monkeypatch.setattr(analysis, "optimize", fail)
        with pytest.raises(SolverError):
            reference_solve(example1_spec(alpha=1.4), 16, cfg)
        assert analysis._reference is None


class TestConvergenceStudy:
    def test_small_study_structure(self):
        spec = example1_spec()
        report = convergence_study(spec, [8, 16], 64, SolverConfig(N=8, mode="direct"))
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

    @pytest.mark.parametrize("alpha, Ns, N_ref", [
        (1.8, [64, 128, 256], 1024),   # the study benchmark's workload
        (1.8, [64, 128, 256], 2048),   # acceptance criterion 5
        (1.2, [64, 128, 256], 2048),
    ])
    def test_study_equals_fresh_triple_errors(self, alpha, Ns, N_ref):
        # the study's shared memo and cache change no bit of any result
        spec = example2_spec(alpha)
        cfg = SolverConfig(mode="fast")
        report = convergence_study(spec, Ns, N_ref, cfg)
        ref = reference_solve(spec, N_ref, cfg)
        per_var = {k: [] for k in ConvergenceReport.VARIABLES}
        for i, N in enumerate(Ns):
            triple = optimize(spec, SolverConfig(N=N, mode="fast"), cache=ConversionCache())
            assert triple.stats.outer_iterations == report.iters[i]
            for k, e in triple_errors(triple, ref, ConversionCache()).items():
                per_var[k].append(e)
        assert report.errors == per_var
        assert report.orders == {k: eoc(es, Ns) for k, es in per_var.items()}

    def test_study_expands_each_series_once(self, norm_applies):
        # per N: U's difference at 2 weights (one conversion each step),
        # the adjoint difference at 3 (shared by z and q); the reference's
        # series once per study: 6 * 3 + 6 applies, where expanding every
        # norm's operands apart costs 16 per N (48)
        spec = example2_spec()
        cfg = SolverConfig(mode="fast")
        convergence_study(spec, [16, 32, 64], 256, cfg)
        assert len(norm_applies) == 24
        assert set(norm_applies) == {256}
        # a second study starts with an empty memo
        convergence_study(spec, [16, 32, 64], 256, cfg)
        assert len(norm_applies) == 48

    def test_standalone_norms_cost_as_before(self, norm_applies):
        spec = example2_spec()
        cfg = SolverConfig(mode="fast")
        ref = reference_solve(spec, 256, cfg)
        triple = optimize(spec, SolverConfig(N=16, mode="fast"))
        g, b = triple.pair.sigma, triple.pair.sigma_star
        counts = []
        for p_N, p_ref, wa, wb in ((triple.U, ref.U, -g, -b), (triple.Z, ref.Z, -b, -g),
                                   (triple.q, ref.q, -b, -g), (triple.U, ref.U, 0.0, 0.0),
                                   (triple.Z, ref.Z, 0.0, 0.0), (triple.q, ref.q, 0.0, 0.0)):
            before = len(norm_applies)
            analysis.weighted_error(p_N, p_ref, wa, wb)
            counts.append(len(norm_applies) - before)
        # the weighted U and Z norms are coefficientwise; every other norm
        # expands its difference and its reference with two conversions each
        assert counts == [0, 0, 4, 4, 4, 4]
        # one triple_errors call shares its six norms' expansions
        before = len(norm_applies)
        triple_errors(triple, ref)
        assert len(norm_applies) - before == 12
