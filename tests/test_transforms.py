"""Tests for Jacobi conversion matrices, fast Toeplitz-Hankel matvecs,
basis transforms, and Chebyshev expansion."""

import multiprocessing
import os
import subprocess
import sys
import textwrap
import threading
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

import fracctrl
import fracctrl.transforms as transforms
from fracctrl.fracparams import solve_sigma
from fracctrl.jacobi import JacobiParams, gauss_jacobi_rule, jacobi_matrix
from fracctrl.operators import OperatorSet, RhsAssembler
from fracctrl.transforms import (
    ConversionCache,
    ConversionMatrix,
    SpectralFunction,
    TransformError,
    WeightedGram,
    _closed_form_parts,
    _pivoted_cholesky_hankel,
    chebyshev_expand,
    connection_dense,
    jacobi_to_jacobi,
)

# one-parameter changes exercising both kinds and awkward exponents,
# including the integer difference -1 (the theta=1 frame)
CASES_FIRST = [
    (0.7, 1.4, 0.31),      # generic
    (0.2, 1.2, 1.2),       # sigma* -> alpha at theta=1, difference -1
    (0.9, 0.5, -0.4),      # downward change, negative fixed parameter
]
CASES_SECOND = [
    (0.9, 0.3, 1.8),
    (0.54, 0.54, 1.08),
]


class TestDenseOracle:
    def test_identity_when_params_equal(self):
        p = JacobiParams(0.3, 0.8)
        C = connection_dense(12, p, p)
        assert np.allclose(C, np.eye(13), atol=1e-12)

    def test_lower_triangular(self):
        C = connection_dense(10, JacobiParams(0.7, 0.31), JacobiParams(1.4, 0.31))
        assert np.max(np.abs(np.triu(C, 1))) < 1e-11 * np.max(np.abs(C))

    def test_pointwise_preservation(self):
        # transforming coefficients preserves the represented polynomial
        rng = np.random.default_rng(3)
        src, dst = JacobiParams(0.0, 0.0), JacobiParams(1.0, 0.0)
        k = 9
        C = connection_dense(k, src, dst)
        v = rng.standard_normal(k + 1)
        x = rng.uniform(0, 1, 10)
        before = v @ jacobi_matrix(k, src, x)
        after = (C.T @ v) @ jacobi_matrix(k, dst, x)
        assert np.max(np.abs(before - after)) < 1e-12 * np.max(np.abs(before))

    def test_chebyshev_weight_without_warnings(self):
        # exponent sum -1: the j=1 recurrence entry is 0/0 before its closed form
        cheb = JacobiParams(-0.5, -0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rule = gauss_jacobi_rule(5, cheb)
            C = connection_dense(8, JacobiParams(0.3, -0.5), cheb)
        k = np.arange(1, 6)
        assert np.allclose(np.sort(rule.nodes),
                           np.sort((1 + np.cos((2 * k - 1) * np.pi / 10)) / 2), atol=1e-14)
        assert np.allclose(rule.weights, np.pi / 5, rtol=1e-13)
        assert np.all(np.isfinite(C))


def gram_oracle(src, weight, dst, k_in, k_out):
    """(Q_n^{src}, Q_m^{dst})_{w^{weight}} as a (k_out+1) x (k_in+1) matrix,
    by a Gauss-Jacobi rule exact for the product's degree."""
    rule = gauss_jacobi_rule((k_in + k_out) // 2 + 2, weight)
    Es = jacobi_matrix(k_in, src, rule.nodes)
    Ed = jacobi_matrix(k_out, dst, rule.nodes)
    return (Ed * rule.weights) @ Es.T


class TestWeightedGram:
    @pytest.mark.parametrize("src,weight,dst,k_in,k_out", [
        # mass shape: trial (g, b), test (b, g), weight (a, a)
        ((0.6, 1.2), (1.8, 1.8), (1.2, 0.6), 24, 24),
        # advection shape: test basis lowered by 1, one degree larger
        ((0.6, 1.2), (0.8, 0.8), (0.2, -0.4), 24, 25),
        # data truncation from a Chebyshev series, weight = test + data weight
        ((-0.5, -0.5), (0.9, 0.6), (0.6, 0.3), 40, 16),
        # ... with the weight 1.5 below the test basis (lowered in unit steps)
        ((-0.5, -0.5), (-0.6, -0.6), (0.9, 0.9), 40, 16),
        # src = weight = dst: the diagonal h^{weight}
        ((0.4, 0.7), (0.4, 0.7), (0.4, 0.7), 12, 12),
    ])
    def test_matches_quadrature(self, src, weight, dst, k_in, k_out):
        src, weight, dst = JacobiParams(*src), JacobiParams(*weight), JacobiParams(*dst)
        gram = WeightedGram(ConversionCache(), src, weight, dst, k_in, k_out)
        G = gram_oracle(src, weight, dst, k_in, k_out)
        rng = np.random.default_rng(k_in + k_out)
        for _ in range(3):
            v = rng.standard_normal(k_in + 1)
            out = gram(v)
            assert out.shape == (k_out + 1,)
            assert np.max(np.abs(out - G @ v)) < 1e-12 * np.max(np.abs(G @ v))


class TestFactored:
    @pytest.mark.parametrize("k", [16, 64, 256])
    @pytest.mark.parametrize("g,s,b", CASES_FIRST)
    def test_first_param_matches_dense(self, k, g, s, b):
        Cd = connection_dense(k, JacobiParams(g, b), JacobiParams(s, b))
        th = ConversionMatrix.build(k, JacobiParams(g, b), JacobiParams(s, b))
        rng = np.random.default_rng(k)
        v = rng.standard_normal(k + 1)
        scale = np.max(np.abs(Cd @ v))
        assert np.max(np.abs(th.apply(v) - Cd @ v)) < 1e-10 * scale
        scale_t = np.max(np.abs(Cd.T @ v))
        assert np.max(np.abs(th.apply(v, transpose=True) - Cd.T @ v)) < 1e-10 * scale_t

    @pytest.mark.parametrize("k", [16, 64, 256])
    @pytest.mark.parametrize("sfix,d,b2", CASES_SECOND)
    def test_second_param_matches_dense(self, k, sfix, d, b2):
        Cd = connection_dense(k, JacobiParams(sfix, d), JacobiParams(sfix, b2))
        th = ConversionMatrix.build(k, JacobiParams(sfix, d), JacobiParams(sfix, b2))
        rng = np.random.default_rng(k + 1)
        v = rng.standard_normal(k + 1)
        scale = np.max(np.abs(Cd @ v))
        assert np.max(np.abs(th.apply(v) - Cd @ v)) < 1e-10 * scale

    @pytest.mark.parametrize("k", [0, 1, 8, 16, 32])
    @pytest.mark.parametrize("src,dst", [
        ((-0.5, -0.5), (0.3, -0.5)), ((-0.5, -0.5), (-0.5, 1.4)), ((0.3, -0.5), (-0.5, -0.5)),
        ((-0.7, -0.7), (0.2, -0.7)), ((-0.7, -0.1), (-0.7, -0.7)),
    ])
    def test_low_exponent_sum_matches_dense(self, k, src, dst):
        # a basis with exponent sum <= -1: row 0 and column 0 are split off
        Cd = connection_dense(k, JacobiParams(*src), JacobiParams(*dst))
        th = ConversionMatrix.build(k, JacobiParams(*src), JacobiParams(*dst))
        v = np.random.default_rng(k).standard_normal(k + 1)
        assert np.max(np.abs(th.apply(v) - Cd @ v)) < 1e-12 * np.max(np.abs(Cd @ v))
        assert (np.max(np.abs(th.apply(v, transpose=True) - Cd.T @ v))
                < 1e-12 * np.max(np.abs(Cd.T @ v)))

    # 2m-1 = 9, 27, 81, 125 is itself 5-smooth, so the FFT length is exactly
    # 2m-1 and the transposed symbol's wrapped tail leaves no zero slack
    @pytest.mark.parametrize("m", [5, 14, 41, 63])
    @pytest.mark.parametrize("src,dst,head,bound", [
        ((0.7, 0.31), (1.4, 0.31), 0, 1e-10),
        ((0.9, 0.3), (0.9, 1.8), 0, 1e-10),
        ((-0.5, -0.5), (0.3, -0.5), 1, 1e-12),
    ], ids=["first", "second", "split-head"])
    def test_exact_fit_fft_length(self, m, src, dst, head, bound):
        k = m - 1 + head
        Cd = connection_dense(k, JacobiParams(*src), JacobiParams(*dst))
        th = ConversionMatrix.build(k, JacobiParams(*src), JacobiParams(*dst))
        assert th._nfft == 2 * m - 1
        v = np.random.default_rng(k).standard_normal(k + 1)
        assert np.max(np.abs(th.apply(v) - Cd @ v)) < bound * np.max(np.abs(Cd @ v))
        assert (np.max(np.abs(th.apply(v, transpose=True) - Cd.T @ v))
                < bound * np.max(np.abs(Cd.T @ v)))

    @pytest.mark.parametrize("second", [False, True])
    def test_decrease_bound(self, second):
        def params(g, b):
            return JacobiParams(b, g) if second else JacobiParams(g, b)
        src = params(0.6, 0.2)
        # lowering by exactly 1 is exact; by more, the Hankel factor is not PSD
        Cd = connection_dense(32, src, params(-0.4, 0.2))
        th = ConversionMatrix.build(32, src, params(-0.4, 0.2))
        v = np.random.default_rng(4).standard_normal(33)
        assert np.max(np.abs(th.apply(v) - Cd @ v)) < 1e-12 * np.max(np.abs(Cd @ v))
        for lowered in (-0.42, -0.9):
            with pytest.raises(TransformError, match="more than 1"):
                ConversionMatrix.build(32, src, params(lowered, 0.2))

    def test_identity_factored(self):
        p = JacobiParams(0.5, 0.2)
        th = ConversionMatrix.build(20, p, p)
        v = np.arange(21.0)
        assert np.allclose(th.apply(v), v, rtol=1e-12, atol=1e-12)

    def test_zero_vector(self):
        th = ConversionMatrix.build(16, JacobiParams(0.7, 0.31), JacobiParams(1.4, 0.31))
        assert np.array_equal(th.apply(np.zeros(17)), np.zeros(17))

    def test_linearity(self):
        th = ConversionMatrix.build(32, JacobiParams(0.7, 0.31), JacobiParams(1.4, 0.31))
        rng = np.random.default_rng(5)
        u, v = rng.standard_normal((2, 33))
        lhs = th.apply(2.5 * u - 1.25 * v)
        rhs = 2.5 * th.apply(u) - 1.25 * th.apply(v)
        assert np.max(np.abs(lhs - rhs)) < 1e-12 * max(1.0, np.max(np.abs(rhs)))

    def test_size_mismatch_rejected(self):
        th = ConversionMatrix.build(8, JacobiParams(0.7, 0.31), JacobiParams(1.4, 0.31))
        with pytest.raises(TransformError):
            th.apply(np.zeros(5))

    def test_two_param_change_rejected(self):
        with pytest.raises(TransformError):
            ConversionMatrix.build(8, JacobiParams(0.1, 0.2), JacobiParams(0.3, 0.4))


class TestHankelFactor:
    @pytest.mark.parametrize("g,s,b", CASES_FIRST)
    def test_factor_reproduces_hankel(self, g, s, b):
        k, tol = 96, 1e-15
        _, _, h, _ = _closed_form_parts(k, g, s, b, 0)
        L = _pivoted_cholesky_hankel(h, k + 1, tol=tol)
        i = np.arange(k + 1)
        H = h[i[:, None] + i]
        assert L.shape[0] < k + 1
        # the pivoted Cholesky stops once every tracked residual diagonal entry
        # is below tol * scale; rounding in the last, tiny pivots leaves
        # entries of H - L^T L up to a few thousand eps * scale (5.8e-13 for
        # the downward change)
        assert np.max(np.abs(H - L.T @ L)) <= max(tol, 1e-12) * np.max(np.diag(H))

    @pytest.mark.parametrize("k,bound", [(64, 1e-12), (256, 1e-11)])
    def test_split_head_matches_dense(self, k, bound):
        # a Chebyshev source: the head row and column are split off the factor;
        # the quadrature oracle's own rounding grows with k (3.3e-12 at k = 300)
        src, dst = JacobiParams(-0.5, -0.5), JacobiParams(0.3, -0.5)
        Cd = connection_dense(k, src, dst)
        th = ConversionMatrix.build(k, src, dst)
        v = np.random.default_rng(k).standard_normal(k + 1)
        assert np.max(np.abs(th.apply(v) - Cd @ v)) < bound * np.max(np.abs(Cd @ v))
        assert (np.max(np.abs(th.apply(v, transpose=True) - Cd.T @ v))
                < bound * np.max(np.abs(Cd.T @ v)))

    def test_example1_ranks_at_2048(self):
        # the operator and Gram conversions of Example 1 (alpha 1.8, theta 0.7)
        # at N = 2048: a faster factorization must not change the ranks
        cache = ConversionCache()
        pair = solve_sigma(0.7, 1.8)
        OperatorSet(2048, pair, 1.0, 1.0, cache)
        RhsAssembler(2048, pair, None, None, cache)
        assert [C.rank for C in cache._store.values()] == [36, 38, 28, 28, 29, 30]


class TestToeplitzSymbol:
    @pytest.mark.parametrize("g,s,b", CASES_FIRST + [
        (0.3, 2.3, 0.5),    # a raise by 2
        (1.6, 0.6, 0.2),    # a decrease by 1: every t_j is 1
        (-0.5, 0.3, -0.5),  # a Chebyshev source
    ])
    @pytest.mark.parametrize("k", [1, 64, 2048])
    def test_matches_recurrence(self, k, g, s, b):
        t = _closed_form_parts(k, g, s, b, 0)[1]
        ref = np.empty(k + 1)  # t_j = (g-s)_j / j! by the Pochhammer recurrence
        ref[0] = 1.0
        for j in range(1, k + 1):
            ref[j] = ref[j - 1] * (g - s + j - 1) / j
        # an integer difference g-s = -1 (the second case) ends in exact zeros
        assert np.array_equal(t == 0.0, ref == 0.0)
        if g - s == -1.0:
            assert np.array_equal(t, np.concatenate([[1.0, -1.0], np.zeros(k - 1)]))
        # the running product rounds in another order: 5.2e-15 at k = 2048
        nz = ref != 0.0
        assert np.max(np.abs(t[nz] - ref[nz]) / np.abs(ref[nz])) < 1e-14


SPLIT_HEAD = (JacobiParams(-0.5, -0.5), JacobiParams(0.3, -0.5))


class TestDenseForm:
    """The matrix C that apply multiplies by, read off one column per apply."""

    @pytest.mark.parametrize("k", [1, 64, 128])
    @pytest.mark.parametrize("src,dst", [
        *[(JacobiParams(g, b), JacobiParams(s, b)) for g, s, b in CASES_FIRST],
        *[(JacobiParams(f, d), JacobiParams(f, b2)) for f, d, b2 in CASES_SECOND],
        SPLIT_HEAD,
    ], ids=[f"first{i}" for i in range(3)] + ["second0", "second1", "split-head"])
    def test_matches_apply_and_oracle(self, k, src, dst):
        th = ConversionMatrix.build(k, src, dst)
        eye = np.eye(k + 1)
        # the columns of C and of C^T agree, one apply each
        C = np.array([th.apply(e) for e in eye]).T
        CT = np.array([th.apply(e, transpose=True) for e in eye]).T
        assert np.max(np.abs(C.T - CT)) < 1e-13 * np.max(np.abs(C))
        # the fast applies' bounds against the quadrature oracle, whose own
        # rounding grows with k (split head: 9.8e-13 at k = 128)
        Cd = connection_dense(k, src, dst)
        bound = 1e-10 if (src, dst) != SPLIT_HEAD else 1e-12 if k <= 64 else 1e-11
        assert np.max(np.abs(C - Cd)) < bound * np.max(np.abs(Cd))

    def test_split_head_row_and_column(self):
        # the split head row and column are written, not computed: C[0, 0] = 1
        # and the rest of row 0 is 0, in both directions
        th = ConversionMatrix.build(16, *SPLIT_HEAD)
        eye = np.eye(17)
        C = np.array([th.apply(e) for e in eye]).T
        CT = np.array([th.apply(e, transpose=True) for e in eye]).T
        assert C[0, 0] == 1.0 and not np.any(C[0, 1:])
        assert CT[0, 0] == 1.0 and not np.any(CT[1:, 0])


class TestWorkspace:
    @pytest.mark.parametrize("transpose", [False, True])
    @pytest.mark.parametrize("order", [(64, 66), (66, 64)])
    def test_shared_fft_length_leaves_no_stale_columns(self, order, transpose):
        # k = 64 and k = 66 both use nfft = 135, so they share a buffer shape
        # while the shorter one's zero tail must not see the longer one's data
        p, q = JacobiParams(0.7, 0.31), JacobiParams(1.4, 0.31)
        convs = {k: ConversionMatrix.build(k, p, q) for k in order}
        assert {C._nfft for C in convs.values()} == {135}
        rng = np.random.default_rng(9)
        vs = {k: rng.standard_normal(k + 1) for k in order}
        alone = {}
        for k in order:
            alone[k] = convs[k].apply(vs[k], transpose=transpose)
            ConversionMatrix.build(8, p, q).apply(np.ones(9))  # reset the buffers' contents
        first, second = order
        convs[first].apply(vs[first], transpose=transpose)
        assert np.array_equal(convs[second].apply(vs[second], transpose=transpose), alone[second])
        assert np.array_equal(convs[first].apply(vs[first], transpose=transpose), alone[first])

    def test_concurrent_applies_match_sequential(self):
        th = ConversionMatrix.build(512, JacobiParams(0.7, 0.31), JacobiParams(1.4, 0.31))
        rng = np.random.default_rng(12)
        vs = rng.standard_normal((2, 40, 513))
        expected = [[th.apply(v) for v in batch] for batch in vs]
        got = [None, None]
        barrier = threading.Barrier(2)

        def worker(i):
            barrier.wait()
            got[i] = [th.apply(v) for v in vs[i]]

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for i in range(2):
            assert all(np.array_equal(a, b) for a, b in zip(got[i], expected[i]))

    def test_apply_allocates_only_vectors(self):
        k = 2048
        th = ConversionMatrix.build(k, JacobiParams(0.7, 0.31), JacobiParams(1.4, 0.31))
        v = np.random.default_rng(1).standard_normal(k + 1)
        th.apply(v)  # grows this thread's buffers
        tracemalloc.start()
        try:
            th.apply(v)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a rank x nfft temporary alone is th.rank * th._nfft * 8 bytes
        assert peak < 16 * (k + 1) * 8 < th.rank * th._nfft * 8


def _subprocess_env():
    src = os.path.dirname(os.path.dirname(fracctrl.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def _apply_in_fork_child(th, v, expected):
    sys.exit(0 if np.array_equal(th.apply(v), expected) else 1)


class TestRowSplit:
    """A large apply splits its Toeplitz rows between the caller and helper
    threads; every row gets the same arithmetic, so the result is bitwise
    that of one chunk."""

    GENERIC = (JacobiParams(0.7, 0.31), JacobiParams(1.4, 0.31))

    @pytest.mark.parametrize("chunks", [2, 3])
    @pytest.mark.parametrize("k", [1024, 2048])
    @pytest.mark.parametrize("src,dst,rows", [
        (*GENERIC, None),                                         # odd ranks, 27 and 29
        (JacobiParams(0.9, 0.3), JacobiParams(0.9, 1.8), None),  # second parameter
        (*SPLIT_HEAD, None),
        (*GENERIC, 1),  # the factor cut to one row, fewer than the chunks
    ], ids=["first", "second", "split-head", "rank-1"])
    def test_matches_one_chunk(self, monkeypatch, chunks, k, src, dst, rows):
        th = ConversionMatrix.build(k, src, dst)
        if rows is not None:  # then below the size rule: count it as large
            th = replace(th, _L=th._L[:rows])
            monkeypatch.setattr(transforms, "_SPLIT_WORK", 0)
        assert th.rank * th._nfft >= transforms._SPLIT_WORK
        v = np.random.default_rng(k).standard_normal(k + 1)
        monkeypatch.setattr(transforms, "_CHUNKS", chunks)
        split = th.apply(v), th.apply(v, transpose=True)
        monkeypatch.setattr(transforms, "_CHUNKS", 1)
        whole = th.apply(v), th.apply(v, transpose=True)
        assert np.array_equal(split[0], whole[0]) and np.array_equal(split[1], whole[1])

    def test_concurrent_callers_share_the_helpers(self, monkeypatch):
        # four callers, more than the CPUs, hand chunks to one pool at once
        monkeypatch.setattr(transforms, "_CHUNKS", max(transforms._CHUNKS, 2))
        th = ConversionMatrix.build(2048, *self.GENERIC)
        assert th.rank * th._nfft >= transforms._SPLIT_WORK
        vs = np.random.default_rng(13).standard_normal((4, 12, 2049))
        expected = [[th.apply(v, transpose=bool(j % 2)) for j, v in enumerate(batch)]
                    for batch in vs]
        got = [None] * 4
        barrier = threading.Barrier(4)

        def worker(i):
            barrier.wait()
            got[i] = [th.apply(v, transpose=bool(j % 2)) for j, v in enumerate(vs[i])]

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for i in range(4):
            assert all(np.array_equal(a, b) for a, b in zip(got[i], expected[i]))

    def test_forked_child_starts_its_own_helpers(self, monkeypatch):
        # the child inherits the parent's pool object but none of its threads
        monkeypatch.setattr(transforms, "_CHUNKS", max(transforms._CHUNKS, 2))
        th = ConversionMatrix.build(2048, *self.GENERIC)
        v = np.random.default_rng(14).standard_normal(2049)
        expected = th.apply(v)  # starts the parent's helpers
        child = multiprocessing.get_context("fork").Process(
            target=_apply_in_fork_child, args=(th, v, expected))
        child.start()
        try:
            child.join(timeout=60)
            assert not child.is_alive()
            assert child.exitcode == 0
        finally:
            if child.is_alive():
                child.kill()
                child.join()

    SCRIPT = textwrap.dedent("""
        import threading
        import numpy as np
        import fracctrl
        from fracctrl import transforms
        from fracctrl.jacobi import JacobiParams
        assert threading.active_count() == 1
        spec = fracctrl.ProblemSpec(
            alpha=1.8, theta=0.7, lambda1=1.0, lambda2=1.0, gamma=1.0,
            f=transforms.chebyshev_expand(np.sin), u_d=transforms.chebyshev_expand(np.cos))
        fracctrl.optimize(spec, fracctrl.SolverConfig(N=64))
        print(threading.active_count())
        th = transforms.ConversionMatrix.build(
            2048, JacobiParams(0.7, 0.31), JacobiParams(1.4, 0.31))
        th.apply(np.ones(2049))
        print(threading.active_count(), transforms._CHUNKS)
    """)

    def test_no_thread_until_a_large_apply(self):
        run = subprocess.run([sys.executable, "-c", self.SCRIPT], env=_subprocess_env(),
                             capture_output=True, text=True, check=True, timeout=120)
        small, large = run.stdout.splitlines()
        assert int(small) == 1
        threads, chunks = map(int, large.split())
        assert 1 <= threads <= 1 + (chunks - 1)


class TestJacobiToJacobi:
    def test_target_equals_source(self):
        f = SpectralFunction((0, 0), JacobiParams(0.4, 0.4), np.ones(5))
        g = jacobi_to_jacobi(f, JacobiParams(0.4, 0.4))
        assert np.array_equal(f.coeffs, g.coeffs)

    def test_single_mode_pointwise(self):
        src = JacobiParams(0.8602, 0.5398)
        tgt = JacobiParams(1.4, 1.4)
        c = np.zeros(8)
        c[3] = 1.0
        f = SpectralFunction((0, 0), src, c)
        g = jacobi_to_jacobi(f, tgt)
        x = np.linspace(0.05, 0.95, 10)
        assert np.max(np.abs(f.poly_values(x) - g.poly_values(x))) < 1e-12

    def test_round_trip(self):
        rng = np.random.default_rng(11)
        src = JacobiParams(0.8602, 0.5398)
        tgt = JacobiParams(1.4, 1.4)
        f = SpectralFunction((0, 0), src, rng.standard_normal(129))
        back = jacobi_to_jacobi(jacobi_to_jacobi(f, tgt), src)
        assert np.max(np.abs(back.coeffs - f.coeffs)) < 1e-10 * np.max(np.abs(f.coeffs))

    def test_lowering_by_more_than_1_is_chained(self):
        rng = np.random.default_rng(6)
        f = SpectralFunction((0, 0), JacobiParams(0.9, 0.9), rng.standard_normal(20))
        g = jacobi_to_jacobi(f, JacobiParams(-0.7, -0.7))
        x = np.linspace(0.01, 0.99, 50)
        assert np.max(np.abs(g.poly_values(x) - f.poly_values(x))) < 1e-11

    def test_chebyshev_sin(self):
        f = jacobi_to_jacobi(chebyshev_expand(np.sin), JacobiParams(0.5, 0.5))
        x = np.linspace(0, 1, 101)
        assert np.max(np.abs(f.poly_values(x) - np.sin(x))) < 1e-13

    def test_degree_preserved(self):
        rng = np.random.default_rng(2)
        c = np.zeros(33)
        c[:12] = rng.standard_normal(12)
        f = SpectralFunction((0, 0), JacobiParams(0.6, 0.6), c)
        g = jacobi_to_jacobi(f, JacobiParams(1.2, 1.2))
        assert np.max(np.abs(g.coeffs[12:])) < 1e-11 * np.max(np.abs(g.coeffs))

    def test_cache_reuse(self):
        cache = ConversionCache()
        p, q = JacobiParams(0.6, 0.6), JacobiParams(1.2, 0.6)
        a = cache.get(16, p, q)
        assert cache.get(16, p, q) is a


class TestChebyshevExpand:
    def test_constant(self):
        f = chebyshev_expand(lambda x: np.ones_like(x), M=8)
        assert f.coeffs[0] == pytest.approx(1.0, rel=1e-14)
        assert np.max(np.abs(f.coeffs[1:])) < 1e-14

    def test_sin_pointwise(self):
        f = chebyshev_expand(np.sin, M=32)
        x = np.linspace(0, 1, 100)
        assert np.max(np.abs(f.poly_values(x) - np.sin(x))) < 1e-13

    def test_linear_single_mode(self):
        # 2x-1 is proportional to Q_1^{-1/2,-1/2}; Q_1(1) = 1/2 here
        f = chebyshev_expand(lambda x: 2 * x - 1, M=8)
        assert f.coeffs[1] == pytest.approx(2.0, rel=1e-13)
        mask = np.ones(9, bool)
        mask[1] = False
        assert np.max(np.abs(f.coeffs[mask])) < 1e-13

    def test_entire_function_accuracy(self):
        f = chebyshev_expand(lambda x: np.exp(np.cos(3 * x)), M=64)
        x = np.linspace(0, 1, 200)
        assert np.max(np.abs(f.poly_values(x) - np.exp(np.cos(3 * x)))) < 1e-12


class TestQuasiLinearScaling:
    # timed in a fresh interpreter: in the test process the ratio depends on
    # what ran before it, through glibc's dynamic mmap and trim thresholds
    SCRIPT = textwrap.dedent("""
        import time
        import numpy as np
        from fracctrl.jacobi import JacobiParams
        from fracctrl.transforms import ConversionMatrix
        p, q = JacobiParams(0.7, 0.31), JacobiParams(1.4, 0.31)
        times = {}
        for k in (1024, 4096):
            th = ConversionMatrix.build(k, p, q)
            v = np.random.default_rng(0).standard_normal(k + 1)
            th.apply(v)  # warm
            t0 = time.perf_counter()
            reps = 20
            for _ in range(reps):
                th.apply(v)
            times[k] = (time.perf_counter() - t0) / reps
        print(times[4096] / times[1024])
    """)

    def test_matvec_scaling_informational(self):
        run = subprocess.run([sys.executable, "-c", self.SCRIPT], env=_subprocess_env(),
                             capture_output=True, text=True, check=True, timeout=120)
        ratio = float(run.stdout)
        print(f"\nth_matvec scaling 4096/1024: {ratio:.2f}x (informational)")
        assert ratio < 12.0  # loose guard; quasi-linear target is ~6x
