"""The benchmark's own test: each independent check accepts a triple the
solver returned and rejects it after one coefficient is perturbed.

    python3 -m pytest -q benchmarks/test_checks.py
"""

import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import workload  # noqa: E402
from fracctrl import SolverConfig, optimize  # noqa: E402

N = 48


@pytest.fixture(scope="module", params=[(1.8, 0.7, 1.0, 0.0), (1.8, 0.5, 1.0, -0.4),
                                        (1.2, 0.7, 0.6, 0.0)],
                ids=["example1", "example2", "alpha1.2"])
def solved(request):
    alpha, theta, gamma, beta = request.param
    p = workload.problem(alpha, theta, gamma, beta)
    t = optimize(workload.spec_of(p), SolverConfig(N=N, mode="fast"))
    return p, t.U.coeffs.copy(), t.Z.coeffs.copy(), t.q.constant_part, t.stats.outer_iterations


def failures(solved, U=None, Z=None, c=None, outer=None):
    p, U0, Z0, c0, o0 = solved
    return checks.check_triple(p, U0 if U is None else U, Z0 if Z is None else Z,
                               c0 if c is None else c, o0 if outer is None else outer)


def test_returned_triple_passes(solved):
    assert failures(solved) == []


@pytest.mark.parametrize("k", [0, 5, N])
def test_state_residual_rejects_perturbed_U(solved, k):
    U = solved[1].copy()
    U[k] += 1e-6 * np.max(np.abs(U))
    assert any(m.startswith("state residual") for m in failures(solved, U=U))


@pytest.mark.parametrize("k", [1, 5, N])
def test_adjoint_residual_rejects_perturbed_Z(solved, k):
    Z = solved[2].copy()
    Z[k] += 1e-6 * np.max(np.abs(Z))
    assert any(m.startswith("adjoint residual") for m in failures(solved, Z=Z))


def test_control_constant_rejects_perturbed_c(solved):
    c = solved[3] + 1e-9
    assert any(m.startswith("control constant") for m in failures(solved, c=c))


def test_control_mean_rejects_negative_mean(solved):
    p, _, Z, c, _ = solved
    mean = c - checks.z_integral(alpha=p["alpha"], theta=p["theta"], Z=Z) / p["gamma"]
    assert any(m.startswith("control mean") for m in failures(solved, c=c - mean - 1e-3))


def test_outer_band_rejects_count_outside(solved):
    p = solved[0]
    fails = failures(solved, outer=13)
    assert any(m.startswith("outer iterations") for m in fails) == (p["alpha"] == 1.8)


def test_order_band():
    p = workload.problem(1.8, 0.5, beta=-0.4)
    assert checks.predicted_order(alpha=1.8, theta=0.5, beta=-0.4) == pytest.approx(2.9)
    assert checks.check_orders(p, [2.852, 2.878]) == []
    assert checks.check_orders(p, [2.852, 3.2]) != []
    assert checks.check_orders(p, []) != []


@pytest.mark.parametrize("theta,alpha,pair", [(0.7, 1.2, (0.8829, 0.3171)),
                                              (0.7, 1.8, (0.9411, 0.8589)),
                                              (1.0, 1.4, (1.0, 0.4)),
                                              (0.5, 1.6, (0.8, 0.8))])
def test_exponent_pair_matches_published_table(theta, alpha, pair):
    s, ss = checks.exponent_pair(theta, alpha)
    assert (round(s, 4), round(ss, 4)) == pair


def test_sweep_gammas_follow_seed():
    a, b = workload.sweep_gammas(7), workload.sweep_gammas(7)
    assert a == b and a != workload.sweep_gammas(8)
    for g1, g2 in a.values():
        assert 0.5 <= g1 <= 2.0 and 0.5 <= g2 <= 2.0
        assert 1 / g1 + 1 / g2 == pytest.approx(2.5)
