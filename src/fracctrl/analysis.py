"""Weighted error norms, observed convergence orders, and the
convergence-study driver, which reuses the process's last reference solve.
"""

from __future__ import annotations

import hashlib
import io
import json
import time
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.special import betaln

from .fracparams import predict_orders
from .jacobi import JacobiParams, jacobi_norm_sq
from .solver import (
    ControlFunction,
    OptimalTriple,
    ProblemSpec,
    SolverConfig,
    optimize,
)
from .transforms import ConversionCache, SpectralFunction, jacobi_to_jacobi


class AnalysisError(ValueError):
    """Raised on mismatched error-norm operands or bad study setup."""


def _pad(c: np.ndarray, n: int) -> np.ndarray:
    out = np.zeros(n)
    out[: len(c)] = c
    return out


def _moments(coeffs: np.ndarray, params: JacobiParams,
             weight: tuple[float, float], cache: ConversionCache, memo: dict):
    """(int w^{weight} p, int w^{weight} p^2) for p = sum coeffs Q_n^{params},
    read off by orthogonality (e_0 h_0 and sum e^2 h) after re-expanding p
    as sum e_n Q_n^{weight}; NaN when w^{weight} is not integrable.

    memo maps (coefficient bytes, params, weight) to an earlier result, so
    a series of the same content is expanded once per memo."""
    if min(weight) <= -1.0:
        return float("nan"), float("nan")
    key = (coeffs.tobytes(), params.as_tuple(), tuple(weight))
    if key not in memo:
        W = JacobiParams(*weight)
        e = jacobi_to_jacobi(SpectralFunction((0.0, 0.0), params, coeffs), W, cache).coeffs
        h = jacobi_norm_sq(np.arange(len(e)), W)
        memo[key] = (e[0] * h[0], np.dot(e**2, h))
    return memo[key]


def _control_norm_sq(c: float, z: SpectralFunction, gamma: float, a: float, b: float,
                     cache: ConversionCache, memo: dict) -> float:
    """||c - z/gamma||^2 in the w^{a,b} norm, for z a weighted series.

    Expands the square into three exactly-integrable terms; returns NaN
    when any term's combined weight is non-integrable.
    """
    wa, wb = z.weight_exponents
    if a <= -1.0 or b <= -1.0:
        return float("nan")
    const_term = c * c * float(np.exp(betaln(a + 1.0, b + 1.0)))
    cross = _moments(z.coeffs, z.poly_params, (a + wa, b + wb), cache, memo)[0]
    square = _moments(z.coeffs, z.poly_params, (a + 2 * wa, b + 2 * wb), cache, memo)[1]
    return float(const_term - 2.0 * c / gamma * cross + square / gamma**2)


def weighted_error(p_N, p_ref, a: float, b: float,
                   cache: ConversionCache | None = None, *,
                   _memo: dict | None = None) -> float:
    """Relative weighted L2 error ||p_N - p_ref||_{w^{a,b}} / ||p_ref||.

    Both arguments must be SpectralFunctions in the same basis and weight,
    or both ControlFunctions with the same gamma and z-part basis and
    weight.  Each integral is read off by orthogonality after re-expanding
    the polynomial in the basis orthogonal for its combined weight; when
    (a, b) cancels the functions' intrinsic weight that basis is their own
    and the formula is coefficientwise (Parseval).  The difference is
    formed coefficientwise before it is expanded.  _memo, shared by the
    calls of one study, keeps each series' expansion so that a series of
    the same content (the reference, or a difference that two norms
    measure) is expanded once.
    """
    cache = cache or ConversionCache()
    memo = {} if _memo is None else _memo
    if isinstance(p_N, ControlFunction) and isinstance(p_ref, ControlFunction):
        z1, z2 = p_N.z_part, p_ref.z_part
        if z1.poly_params != z2.poly_params or z1.weight_exponents != z2.weight_exponents:
            raise AnalysisError("control functions use different bases")
        if p_N.gamma != p_ref.gamma:
            raise AnalysisError(f"control functions use different gammas: "
                                f"{p_N.gamma} and {p_ref.gamma}")
        n = max(len(z1.coeffs), len(z2.coeffs))
        dz = replace(z2, coeffs=_pad(z2.coeffs, n) - _pad(z1.coeffs, n))
        dc = p_ref.constant_part - p_N.constant_part
        num = _control_norm_sq(dc, dz, p_ref.gamma, a, b, cache, memo)
        den = _control_norm_sq(p_ref.constant_part, replace(z2, coeffs=_pad(z2.coeffs, n)),
                               p_ref.gamma, a, b, cache, memo)
        if not np.isfinite(num) or not np.isfinite(den):
            return float("nan")
        return float(np.sqrt(max(num, 0.0) / den))
    if not (isinstance(p_N, SpectralFunction) and isinstance(p_ref, SpectralFunction)):
        raise AnalysisError("operands must both be SpectralFunction or ControlFunction")
    if p_N.poly_params != p_ref.poly_params or p_N.weight_exponents != p_ref.weight_exponents:
        raise AnalysisError("basis mismatch between candidate and reference")
    wa, wb = p_N.weight_exponents
    n = max(len(p_N.coeffs), len(p_ref.coeffs))
    combined = (a + 2 * wa, b + 2 * wb)
    diff = _pad(p_ref.coeffs, n) - _pad(p_N.coeffs, n)
    num = _moments(diff, p_N.poly_params, combined, cache, memo)[1]
    den = _moments(_pad(p_ref.coeffs, n), p_ref.poly_params, combined, cache, memo)[1]
    if not np.isfinite(num) or not np.isfinite(den):
        return float("nan")
    return float(np.sqrt(num / den))


def _check_doubling(Ns):
    for n1, n2 in zip(Ns, Ns[1:]):
        if n2 != 2 * n1:
            raise AnalysisError(f"Ns must double: {n1} -> {n2}")


def study_truncations(Ns, N_ref: int) -> list[int]:
    """Ns sorted, once checked to be a doubling list of N >= 1 with
    N_ref >= 4*max(Ns); raises AnalysisError, before any solve runs."""
    Ns = sorted(int(n) for n in Ns)
    if not Ns:
        raise AnalysisError("empty truncation list")
    if Ns[0] < 1:
        raise AnalysisError(f"Ns must be >= 1, got {Ns[0]}")
    _check_doubling(Ns)
    if N_ref < 4 * Ns[-1]:
        raise AnalysisError(f"N_ref = {N_ref} must be >= 4*max(Ns) = {4 * Ns[-1]}")
    return Ns


def eoc(errors, Ns) -> list[float]:
    """Observed orders log2(E(N)/E(2N)) for a doubling sequence of Ns."""
    errors = list(errors)
    Ns = list(Ns)
    if len(errors) < 2 or len(errors) != len(Ns):
        raise AnalysisError("need at least two errors aligned with Ns")
    _check_doubling(Ns)
    out = []
    for e1, e2 in zip(errors, errors[1:]):
        if not (np.isfinite(e1) and np.isfinite(e2)) or e1 <= 0 or e2 <= 0:
            out.append(float("nan"))
        else:
            out.append(float(np.log2(e1 / e2)))
    return out


# ---------------------------------------------------------------------------
# the last reference solve, kept in memory

_reference: tuple[str, OptimalTriple] | None = None  # (digest, triple)


def _spec_digest(spec: ProblemSpec, config: SolverConfig) -> str:
    """Content hash identifying a solve of spec under config."""
    blob = io.BytesIO()
    meta = {
        "alpha": spec.alpha, "theta": spec.theta,
        "lambda1": spec.lambda1, "lambda2": spec.lambda2, "gamma": spec.gamma,
    }
    blob.write(json.dumps(meta, sort_keys=True).encode())
    blob.write(repr(config).encode())  # every field, floats exactly
    for fun in (spec.f, spec.u_d):
        if fun is None:
            blob.write(b"none")
        else:
            blob.write(np.asarray(fun.weight_exponents).tobytes())
            blob.write(np.asarray(fun.poly_params.as_tuple()).tobytes())
            blob.write(fun.coeffs.tobytes())
    return hashlib.sha256(blob.getvalue()).hexdigest()


def load_reference(digest: str) -> OptimalTriple | None:
    """The kept reference solve if it was made under digest, else None."""
    kept = _reference  # one read: another thread may replace it
    return kept[1] if kept is not None and kept[0] == digest else None


def reference_solve(spec: ProblemSpec, N_ref: int, config: SolverConfig,
                    use_cache: bool = True,
                    cache: ConversionCache | None = None) -> OptimalTriple:
    """Solve at the reference truncation N_ref.

    The process keeps its last reference solve, so a study after a solve
    of the same spec, N_ref and config reuses it.  With use_cache, a kept
    solve made under an equal digest is returned as is (callers must not
    change it); otherwise this solve replaces it whole.  The old one is
    dropped before the solve runs, so the process never keeps two, and if
    the solve raises, none is kept.  use_cache=False neither reads nor
    replaces the kept solve."""
    global _reference
    ref_cfg = replace(config, N=N_ref)
    if not use_cache:
        return optimize(spec, ref_cfg, cache=cache)
    digest = _spec_digest(spec, ref_cfg)
    hit = load_reference(digest)
    if hit is not None:
        return hit
    _reference = None
    triple = optimize(spec, ref_cfg, cache=cache)
    _reference = (digest, triple)
    return triple


# ---------------------------------------------------------------------------
# convergence study


@dataclass
class ConvergenceReport:
    spec: ProblemSpec
    Ns: list[int]
    N_ref: int
    errors: dict = field(default_factory=dict)   # name -> list per N
    orders: dict = field(default_factory=dict)   # name -> list (len-1)
    iters: list = field(default_factory=list)
    seconds: list = field(default_factory=list)
    expected_order: float = float("nan")

    VARIABLES = ("u_weighted", "z_weighted", "q_weighted", "u_l2", "z_l2", "q_l2")

    def rows(self) -> list[dict]:
        """Flat per-N rows matching the CSV column contract."""
        out = []
        for i, N in enumerate(self.Ns):
            row = {"alpha": self.spec.alpha, "theta": self.spec.theta, "N": N}
            row["err_u_weighted"] = self.errors["u_weighted"][i]
            row["ord_u"] = self.orders["u_weighted"][i - 1] if i > 0 else float("nan")
            row["err_z_weighted"] = self.errors["z_weighted"][i]
            row["ord_z"] = self.orders["z_weighted"][i - 1] if i > 0 else float("nan")
            row["err_q_weighted"] = self.errors["q_weighted"][i]
            row["ord_q"] = self.orders["q_weighted"][i - 1] if i > 0 else float("nan")
            row["err_q_l2"] = self.errors["q_l2"][i]
            row["ord_q_l2"] = self.orders["q_l2"][i - 1] if i > 0 else float("nan")
            row["iters"] = self.iters[i]
            row["seconds"] = self.seconds[i]
            row["expected_order"] = self.expected_order
            out.append(row)
        return out


def triple_errors(triple: OptimalTriple, ref: OptimalTriple,
                  cache: ConversionCache | None = None, *,
                  _memo: dict | None = None) -> dict:
    """All six relative error norms of a solve against the reference.

    The six norms share one memo of series expansions (_memo, or a fresh
    one): the adjoint difference and the reference's Z are expanded once
    for z and q alike, and a study passes one memo for all its Ns, so the
    reference's expansions are made once per study."""
    pair = triple.pair
    g, b = pair.sigma, pair.sigma_star
    cache = cache or ConversionCache()
    memo = {} if _memo is None else _memo
    return {
        "u_weighted": weighted_error(triple.U, ref.U, -g, -b, cache, _memo=memo),
        "z_weighted": weighted_error(triple.Z, ref.Z, -b, -g, cache, _memo=memo),
        "q_weighted": weighted_error(triple.q, ref.q, -b, -g, cache, _memo=memo),
        "u_l2": weighted_error(triple.U, ref.U, 0.0, 0.0, cache, _memo=memo),
        "z_l2": weighted_error(triple.Z, ref.Z, 0.0, 0.0, cache, _memo=memo),
        "q_l2": weighted_error(triple.q, ref.q, 0.0, 0.0, cache, _memo=memo),
    }


def convergence_study(spec: ProblemSpec, Ns, N_ref: int, config: SolverConfig
                      ) -> ConvergenceReport:
    """Solve at each N against a reference at N_ref (reference_solve's, so
    the process's last one if it matches) and tabulate errors, observed
    orders, iteration counts and wall times."""
    Ns = study_truncations(Ns, N_ref)
    pair = spec.exponent_pair()
    shared = ConversionCache()
    ref = reference_solve(spec, N_ref, config, cache=shared)
    report = ConvergenceReport(spec=spec, Ns=Ns, N_ref=N_ref)
    report.expected_order = predict_orders(
        pair, spec.data_regularity if spec.data_regularity is not None else 100.0
    ).state_order
    per_var = {k: [] for k in ConvergenceReport.VARIABLES}
    memo = {}  # series expansions, shared by every N's norms
    for N in Ns:
        cfg = replace(config, N=N)
        t0 = time.perf_counter()
        triple = optimize(spec, cfg, cache=shared)
        dt = time.perf_counter() - t0
        errs = triple_errors(triple, ref, shared, _memo=memo)
        for k in per_var:
            per_var[k].append(errs[k])
        report.iters.append(triple.stats.outer_iterations)
        report.seconds.append(dt)
    report.errors = per_var
    if len(Ns) >= 2:
        for k, es in per_var.items():
            report.orders[k] = eoc(es, Ns)
    else:
        report.orders = {k: [] for k in per_var}
    return report
