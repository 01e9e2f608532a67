"""Jacobi connection (conversion) matrices and fast coefficient transforms.

A one-parameter conversion maps the coefficients of a Jacobi series in
Q^{from} to the coefficients of the same polynomial in Q^{to}, where the
two parameter pairs differ in a single slot.  The dense form is built by a
quadrature oracle (the normative definition); the Factored form stores the
closed-form decomposition C = D1 (T o H) D2 with T Toeplitz and H Hankel,
and applies it in O(r k log k) via FFT after a pivoted Cholesky of the
positive-semidefinite Hankel factor (a large apply splits the factor's
rows between the calling thread and helper threads, one per further CPU).
WeightedGram composes conversions into the weighted inner products of a
series against a Jacobi basis.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from scipy.fft import dct, next_fast_len
from scipy.special import gammaln

from .jacobi import JacobiParams, gauss_jacobi_rule, jacobi_matrix, jacobi_norm_sq


class TransformError(ValueError):
    """Raised on malformed conversion requests (size/parameter mismatch)."""


@dataclass(frozen=True)
class SpectralFunction:
    """A function w^{a,b}(x) * sum_n coeffs[n] Q_n^{poly_params}(x).

    weight_exponents (a, b) are metadata, never discretized pointwise;
    (0, 0) means a plain polynomial series.
    """

    weight_exponents: tuple[float, float]
    poly_params: JacobiParams
    coeffs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "coeffs", np.asarray(self.coeffs, dtype=float))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def poly_values(self, x: np.ndarray) -> np.ndarray:
        """The polynomial part sum_n coeffs[n] Q_n(x), without the weight."""
        E = jacobi_matrix(self.degree, self.poly_params, np.atleast_1d(x))
        return self.coeffs @ E

    def values(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        a, b = self.weight_exponents
        v = self.poly_values(x)
        if a != 0.0 or b != 0.0:
            v = (1.0 - x) ** a * x**b * v
        return v


def connection_dense(
    k: int, from_params: JacobiParams, to_params: JacobiParams
) -> np.ndarray:
    """Lower-triangular C with Q-series coefficients mapped source -> target.

    Built by the quadrature oracle C[m, n] = (Q_m^{from}, Q_n^{to})_{w^{to}}
    / h_n^{to}; a coefficient vector transforms as v_to = C^T v_from.
    """
    rule = gauss_jacobi_rule(k + 2, to_params)
    Ef = jacobi_matrix(k, from_params, rule.nodes)
    Et = jacobi_matrix(k, to_params, rule.nodes)
    C = (Ef * rule.weights) @ Et.T / jacobi_norm_sq(np.arange(k + 1), to_params)
    if np.max(np.abs(C)) > 1e12:
        raise TransformError(
            f"ill-conditioned projection {from_params} -> {to_params}: "
            f"entry magnitude {np.max(np.abs(C)):.3e}"
        )
    # exact triangularity up to quadrature rounding
    C[np.abs(C) < 1e-300] = 0.0
    return C


def _pivoted_cholesky_hankel(h: np.ndarray, n: int, tol: float = 1e-15,
                             rmax: int = 200) -> np.ndarray:
    """Low-rank L, one row per pivot, with H ~= L^T L where H[i,j] = h[i+j]
    (i, j < n) is PSD (a Hausdorff moment sequence).  Pivots are chosen on
    the diagonal; each new row is one matrix-vector product over the earlier
    ones, in a factor grown by doubling.
    """
    d = h[: 2 * n - 1 : 2].copy()
    scale = d.max(initial=0.0)
    rcap = min(rmax, n)
    L = np.empty((min(16, rcap), n))
    r = 0
    while r < rcap:
        p = int(np.argmax(d))
        if d[p] <= tol * scale:
            break
        if r == L.shape[0]:
            L = np.concatenate([L, np.empty((min(r, rcap - r), n))])
        col = L[r]
        np.subtract(h[p : p + n], L[:r, p] @ L[:r], out=col)
        col /= np.sqrt(d[p])
        d -= col * col
        np.maximum(d, 0.0, out=d)
        r += 1
    return L[:r].copy()


def _closed_form_parts(k: int, g: float, s: float, b: float, head: int):
    """Pieces of the first-parameter change g -> s at fixed second param b:
    C[n, m] = D1[i] * t[i-j] * h[i+j] * D2[j], i = n-head >= j = m-head >= 0,
    with the Hankel sequence h evaluated once, on 0..2(k-head).
    """
    n = np.arange(head, k + 1, dtype=float)
    D1 = np.exp(gammaln(n + b + 1) - gammaln(n + g + b + 1))
    D2 = (2 * n + s + b + 1) * np.exp(gammaln(n + s + b + 1) - gammaln(n + b + 1))
    # Toeplitz symbol t_j = (g-s)_j / j!, a running product of the Pochhammer
    # ratios (g-s+j-1)/j, so for g-s a negative integer it is exactly 0 from
    # the zero ratio on
    j = np.arange(1, k + 1, dtype=float)
    t = np.concatenate([[1.0], np.cumprod((g - s + j - 1) / j)])
    sv = np.arange(max(2 * (k - head) + 1, 0), dtype=float) + 2 * head
    h = np.exp(gammaln(sv + g + b + 1) - gammaln(sv + s + b + 2))
    return D1, t, h, D2


@dataclass
class ConversionMatrix:
    """One-parameter Jacobi conversion in Factored (fast) form.

    It changes either the first weight exponent at fixed second, or the
    second at fixed first; the latter is realized through the reflection
    identity, which introduces (-1)^n sign diagonals.
    Coefficient vectors transform by apply(v, transpose=True); apply(v)
    multiplies by the connection matrix itself (polynomial-to-polynomial).

    A basis with exponent sum <= -1 (Chebyshev's is -1) makes D1[0] or D2[0]
    0*inf or of the wrong sign (gammaln drops the sign of Gamma); row 0 and
    column 0 are then split off: C[0, 0] = 1 (Q_0 = 1), _col0 = C[1:, 0].
    """

    k: int
    from_params: JacobiParams
    to_params: JacobiParams
    _D1: np.ndarray = field(repr=False, default=None)
    _D2: np.ndarray = field(repr=False, default=None)
    _L: np.ndarray = field(repr=False, default=None)
    _that: np.ndarray = field(repr=False, default=None)
    _that_T: np.ndarray = field(repr=False, default=None)
    _col0: np.ndarray | None = field(repr=False, default=None)
    _nfft: int = 0

    @classmethod
    def build(
        cls, k: int, from_params: JacobiParams, to_params: JacobiParams, tol: float = 1e-15
    ) -> "ConversionMatrix":
        fg, fb = from_params.as_tuple()
        tg, tb = to_params.as_tuple()
        if fb == tb:
            g, s, b, sign = fg, tg, fb, False
        elif fg == tg:
            # reflect x -> 1-x: second-parameter change becomes a first-
            # parameter change conjugated by (-1)^n diagonals
            g, s, b, sign = fb, tb, fg, True
        else:
            raise TransformError(
                f"conversion must change one parameter at a time: {from_params} -> {to_params}"
            )
        if g - s > 1.0:  # the Hankel factor is then not positive semidefinite
            raise TransformError(f"conversion lowers a parameter by more than 1: "
                                 f"{from_params} -> {to_params}")
        head = int(min(g, s) + b + 1.0 <= 0.0)
        D1, t, h, D2 = _closed_form_parts(k, g, s, b, head)
        if sign:
            sgn = (-1.0) ** np.arange(head, k + 1)
            D1 = D1 * sgn
            D2 = D2 * sgn
        col0 = None
        if head:
            # C[n, 0] = D1[n] t[n] h[n] D2[0], with h[n] D2[0] as one ratio
            n = np.arange(1, k + 1, dtype=float)
            col0 = D1 * t[1:] * np.exp(gammaln(n + g + b + 1) - gammaln(n + s + b + 2)
                                       + gammaln(s + b + 2) - gammaln(b + 1))
        m = k + 1 - head
        L = _pivoted_cholesky_hankel(h, m, tol=tol)
        # a linear convolution of length-m sequences needs 2m-1 points; the
        # 5-smooth length at or above that (k = 0 split leaves m = 0)
        nfft = next_fast_len(max(2 * m - 1, 1), real=True)
        tpad = np.zeros(nfft)
        tpad[:m] = t[:m]
        that = np.fft.rfft(tpad)
        tpad_T = np.zeros(nfft)
        tpad_T[0] = t[0]
        tpad_T[nfft - m + 1:] = t[1:m][::-1]
        that_T = np.fft.rfft(tpad_T)
        return cls(
            k=k, from_params=from_params, to_params=to_params,
            _D1=D1, _D2=D2, _L=L, _that=that, _that_T=that_T, _col0=col0, _nfft=nfft,
        )

    @property
    def rank(self) -> int:
        return self._L.shape[0]

    def apply(self, v: np.ndarray, transpose: bool = False) -> np.ndarray:
        """C @ v, or C.T @ v with transpose=True (the coefficient map)."""
        v = np.asarray(v, dtype=float)
        if v.shape != (self.k + 1,):
            raise TransformError(f"expected vector of length {self.k + 1}, got {v.shape}")
        col0 = self._col0
        w = v if col0 is None else v[1:]
        D_in, hat, D_out = ((self._D1, self._that_T, self._D2) if transpose
                            else (self._D2, self._that, self._D1))
        # Toeplitz block on the rows of L (D_in w), in this thread's shared
        # buffers; a large apply hands all but its first chunk of rows to
        # helpers, and the reduction over the rows stays here
        m = len(w)
        rank, nfft = self.rank, self._nfft
        pad, F = _workspace(rank, nfft)
        args = (self._L, D_in * w, hat, pad, F)
        chunks = min(_CHUNKS, rank) if rank * nfft >= _SPLIT_WORK else 1
        cuts = [rank * i // chunks for i in range(chunks + 1)]
        futures = [_helpers().submit(_toeplitz_rows, *args, lo, hi)
                   for lo, hi in zip(cuts[1:-1], cuts[2:])]
        try:
            _toeplitz_rows(*args, 0, cuts[1])
        finally:
            for f in futures:  # the buffers are in use until every chunk ends
                f.result()
        out = D_out * np.einsum("ij,ij->j", self._L, pad[:, :m])
        if col0 is None:
            return out
        if transpose:
            return np.concatenate([[v[0] + col0 @ w], out])
        return np.concatenate([[v[0]], out + col0 * v[0]])


def _toeplitz_rows(L, Dw, hat, pad, F, lo, hi):
    """Rows lo:hi of the Toeplitz block in place in pad: L[lo:hi] * Dw,
    zero-padded to pad's FFT length and convolved with the symbol whose
    spectrum is hat, through the matching rows of F."""
    m = len(Dw)
    pad, F = pad[lo:hi], F[lo:hi]
    np.multiply(L[lo:hi], Dw, out=pad[:, :m])
    pad[:, m:] = 0.0
    np.fft.rfft(pad, out=F)
    F *= hat
    np.fft.irfft(F, n=pad.shape[1], out=pad)


# An apply with rank * nfft at or above _SPLIT_WORK runs its rows in _CHUNKS
# contiguous chunks, one per CPU this process may run on.  Below it a
# helper's hand-off costs about what the FFTs it takes over save: on 2 CPUs,
# over three processes, the split's time against one chunk's ranged over
# 0.97-1.08 at rank x nfft = 25920 (k = 512), 0.83-1.03 at 41600 (k = 768)
# and 0.63-0.94 at 58320 (k = 1024), winning every time from there up.  The
# helpers start with the first split apply.
_SPLIT_WORK = 50_000
_CHUNKS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
           else os.cpu_count() or 1)
_POOL: ThreadPoolExecutor | None = None
_POOL_LOCK = threading.Lock()


def _helpers() -> ThreadPoolExecutor:
    global _POOL
    with _POOL_LOCK:
        if _POOL is None:
            _POOL = ThreadPoolExecutor(_CHUNKS - 1, thread_name_prefix="fracctrl-fft")
        return _POOL


def _forget_helpers():
    """In a forked child: the pool was copied but its threads were not."""
    global _POOL, _POOL_LOCK
    _POOL, _POOL_LOCK = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_helpers)

_WORK = threading.local()


def _workspace(rows: int, nfft: int) -> tuple[np.ndarray, np.ndarray]:
    """This thread's (rows, nfft) real and (rows, nfft//2+1) complex FFT
    buffers, shared by every conversion and grown to the largest size seen;
    their contents do not outlive one apply."""
    nc = nfft // 2 + 1
    return (_buffer("real", rows * nfft, float).reshape(rows, nfft),
            _buffer("cplx", rows * nc, complex).reshape(rows, nc))


def _buffer(name: str, size: int, dtype) -> np.ndarray:
    buf = getattr(_WORK, name, None)
    if buf is None or buf.size < size:
        buf = None  # free the old buffer before its replacement is made
        setattr(_WORK, name, None)
        buf = np.empty(size, dtype=dtype)
        setattr(_WORK, name, buf)
    return buf[:size]


class ConversionCache:
    """Memoizes Factored conversions keyed by (k, from, to), and keeps one
    more value, a solve's set-up, in a single slot (see slot).

    Nothing in it is locked.  Conversions are safe to read from several
    threads once one thread has populated them.  The slot's contents are
    replaced whole, never changed in place, so a solve keeps the set-up it
    looked up even if a solve in another thread replaces it; but solves of
    different problems that take turns on one cache rebuild each other's
    set-up, so give each thread its own cache.
    """

    def __init__(self):
        self._store: dict[tuple, ConversionMatrix] = {}
        self._slot: tuple | None = None  # (key, value)

    def slot(self, key, build):
        """(value, reused): the slot's value if it was built under a key
        equal to key, else build()'s, which then replaces it.  The old value
        is dropped before build runs, so the slot never holds two.  If build
        raises, the slot is left empty."""
        kept = self._slot  # one read: another thread may replace it
        if kept is not None and kept[0] == key:
            return kept[1], True
        self._slot = None
        value = build()
        self._slot = (key, value)
        return value, False

    def get(self, k: int, from_params: JacobiParams, to_params: JacobiParams) -> ConversionMatrix:
        key = (k, from_params.as_tuple(), to_params.as_tuple())
        if key not in self._store:
            self._store[key] = ConversionMatrix.build(k, from_params, to_params)
        return self._store[key]

    def chain(self, k: int, src: JacobiParams, target: JacobiParams):
        """Yield the one-parameter conversions whose product, in this order,
        is C_{src->target}: the first parameter first, and a parameter that
        falls by more than 1 in steps of 1."""
        while src != target:
            g, b = src.as_tuple()
            step = (JacobiParams(max(target.gamma, g - 1.0), b) if g != target.gamma
                    else JacobiParams(g, max(target.beta, b - 1.0)))
            yield self.get(k, src, step)
            src = step


class WeightedGram:
    """v -> (sum_n v_n Q_n^{src}, Q_m^{dst})_{w^{weight}} for m = 0..k_out,
    for v of length k_in+1.

    The series is re-expanded as sum e_n Q_n^{weight} (transpose chain
    src -> weight), whose Gram is diagonal; then Q_m^{dst} = sum_j
    C_{dst->weight}[m, j] Q_j^{weight} gives C_{dst->weight} (h^{weight} * e)
    (forward chain, last step first).  C_{dst->weight} is lower triangular,
    so e is zero-padded or truncated to k_out+1.  Both routes come from
    ConversionCache.chain once, at construction.
    """

    def __init__(self, cache: ConversionCache, src: JacobiParams, weight: JacobiParams,
                 dst: JacobiParams, k_in: int, k_out: int):
        self.k_in, self.k_out = k_in, k_out
        self._expand = list(cache.chain(k_in, src, weight))
        self._h = jacobi_norm_sq(np.arange(min(k_in, k_out) + 1), weight)
        self._back = list(cache.chain(k_out, dst, weight))[::-1]

    def __call__(self, v: np.ndarray) -> np.ndarray:
        for C in self._expand:
            v = C.apply(v, transpose=True)
        out = np.zeros(self.k_out + 1)
        out[: len(self._h)] = self._h * v[: len(self._h)]
        for C in self._back:
            out = C.apply(out)
        return out


def jacobi_to_jacobi(f: SpectralFunction, target: JacobiParams,
                     cache: ConversionCache | None = None) -> SpectralFunction:
    """Re-expand the polynomial part of f in the target Jacobi basis, through
    the one-parameter conversions of ConversionCache.chain."""
    coeffs = f.coeffs
    for C in (cache or ConversionCache()).chain(f.degree, f.poly_params, target):
        coeffs = C.apply(coeffs, transpose=True)
    return SpectralFunction(f.weight_exponents, target, coeffs)


def chebyshev_expand(g, M: int = 64) -> SpectralFunction:
    """Expand a smooth scalar callable on [0,1] in Q_n^{-1/2,-1/2}.

    Samples at M+1 Gauss-Lobatto points, inverts by a type-1 DCT and
    rescales with chebyshev_to_jacobi.
    """
    if M < 1:
        raise TransformError("truncation must be >= 1")
    j = np.arange(M + 1)
    x = (1.0 + np.cos(np.pi * j / M)) / 2.0
    vals = np.asarray(g(x), dtype=float)
    c = dct(vals, type=1) / M
    c[0] /= 2.0
    c[-1] /= 2.0
    return chebyshev_to_jacobi(c)


def chebyshev_to_jacobi(c: np.ndarray) -> SpectralFunction:
    """The series sum_n c[n] T_n(2x-1) as a Q^{-1/2,-1/2} series: rescale
    from the Chebyshev normalization T_n to the Jacobi one
    (Q_n^{-1/2,-1/2}(1) = Gamma(n+1/2) / (Gamma(1/2) n!))."""
    n = np.arange(len(c), dtype=float)
    q_at_one = np.exp(gammaln(n + 0.5) - gammaln(0.5) - gammaln(n + 1))
    return SpectralFunction((0.0, 0.0), JacobiParams(-0.5, -0.5), c / q_at_one)
