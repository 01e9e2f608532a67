"""The benchmark's tracer and set-up look fracctrl's functions and methods up
by name (benchmarks/tracing.py, benchmarks/workload.py).  These tests keep
every name they hook on the solve path they are meant to measure, so that a
renamed or bypassed hook fails here and not only in a benchmark run."""

import os

import fracctrl
from fracctrl.transforms import ConversionCache

BENCH_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "benchmarks")


def test_traced_counts_follow_the_solve(monkeypatch):
    monkeypatch.syspath_prepend(BENCH_DIR)
    import tracing
    import workload

    spec = workload.spec_of(workload.problem(1.8, 0.7))
    tracer = tracing.Tracer()
    try:
        tracer.install()
        c = tracer.counts
        fast = fracctrl.optimize(spec, fracctrl.SolverConfig(N=640, mode="fast"),
                                 cache=ConversionCache())
        iterations = sum(map(sum, fast.stats.inner_iterations))
        # above FULL_LU_MODES: one apply_A or apply_B per GMRES iteration,
        # each counted once
        assert c["operators.matvec.calls"] == c["solver.inner_iterations"] == iterations > 0
        assert c["operators.assemble.calls"] == c["operators.precond_build.calls"] == 1
        direct = fracctrl.optimize(spec, fracctrl.SolverConfig(N=64, mode="direct"),
                                   cache=ConversionCache())
        # one LU solve per state and per adjoint solve, no apply, no dense oracle
        assert c["solver.direct_solve.calls"] == 2 * direct.stats.outer_iterations > 0
        assert c["operators.matvec.calls"] == iterations
        assert c["operators.dense_build.calls"] == 0
        assert c["operators.precond_build.calls"] == 2
        assert c["solver.outer_iterations"] == (fast.stats.outer_iterations
                                                + direct.stats.outer_iterations)
        for mode in ("fast", "direct"):
            workload.setup_once(workload.problem(1.8, 0.7), 64, mode)
        assert c["operators.assemble.calls"] == 3
        assert c["operators.rhs_setup.calls"] == 4
    finally:
        patches = list(tracer._patches)
        tracer.uninstall()
    assert patches and all(vars(owner)[attr] is original for owner, attr, original in patches)


def test_traced_gamma_sweep_builds_once(monkeypatch):
    # two solves on one cache that differ only in gamma build one set-up;
    # setup_once, which times a set-up, still builds all of it
    monkeypatch.syspath_prepend(BENCH_DIR)
    import tracing
    import workload

    tracer = tracing.Tracer()
    try:
        tracer.install()
        c = tracer.counts
        cache = ConversionCache()
        for gamma in (1.0, 0.7):
            spec = workload.spec_of(workload.problem(1.8, 0.7, gamma))
            fracctrl.optimize(spec, fracctrl.SolverConfig(N=workload.SWEEP_N), cache=cache)
        assert c["solver.optimize.calls"] == 2
        assert c["operators.precond_build.calls"] == c["operators.rhs_setup.calls"] == 1
        workload.setup_once(workload.problem(1.8, 0.7), workload.SWEEP_N, "fast")
        assert c["operators.assemble.calls"] == 1
        assert c["operators.precond_build.calls"] == c["operators.rhs_setup.calls"] == 2
    finally:
        tracer.uninstall()


def test_traced_study_counts_follow_the_study(monkeypatch):
    monkeypatch.syspath_prepend(BENCH_DIR)
    import tracing
    import workload

    spec = workload.spec_of(workload.problem(1.8, 0.5, beta=-0.4))
    Ns = [16, 32]
    tracer = tracing.Tracer()
    try:
        tracer.install()
        c = tracer.counts
        fracctrl.convergence_study(spec, Ns, 128, fracctrl.SolverConfig(mode="fast"))
        # one study, one reference lookup, and each of the six norms per N
        # through weighted_error, however the study shares their expansions
        assert c["analysis.study.calls"] == 1
        assert c["analysis.ref_load.calls"] == 1
        assert c["analysis.error_norm.calls"] == 6 * len(Ns)
    finally:
        tracer.uninstall()
