"""Command-line front end.

Subcommands:
  sigma-table   print the (sigma, sigma*) exponent table
  solve         run one optimization and write the solution artifact
  study         run a convergence study and render the table

Exit codes: 0 success, 2 configuration error, 3 solver failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from . import analysis
from .fracparams import ParameterDomainError, solve_sigma
from .solver import MODES, ProblemSpec, SolverConfig, SolverError, optimize
from .transforms import SpectralFunction, chebyshev_expand, chebyshev_to_jacobi

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3


class ConfigError(Exception):
    """Configuration problem; formatted with file location when known."""


# ---------------------------------------------------------------------------
# configuration

_PROBLEM_KEYS = {"alpha", "theta", "lambda1", "lambda2", "gamma", "beta",
                 "f", "u_d", "data_regularity"}
_SOLVER_KEYS = {"mode", "N", "Ns", "N_ref", "inner_max", "outer_tol", "outer_max"}
_OUTPUT_KEYS = {"format", "path"}
_TOP_KEYS = {"problem", "solver", "output"}


@dataclass
class RunConfig:
    problem: dict = field(default_factory=dict)
    solver: dict = field(default_factory=dict)
    output: dict = field(default_factory=dict)


def _key_location(text: str, key: str) -> str:
    """Best-effort line:col of a key's first occurrence in the config text."""
    needle = f'"{key}"'
    pos = text.find(needle)
    if pos < 0:
        return "unknown location"
    line = text.count("\n", 0, pos) + 1
    col = pos - (text.rfind("\n", 0, pos) + 1) + 1
    return f"line {line}, column {col}"


def load_config(path: str) -> RunConfig:
    try:
        with open(path, "r") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: top level must be an object")
    for key in data:
        if key not in _TOP_KEYS:
            raise ConfigError(
                f"{path}: unknown top-level key {key!r} at {_key_location(text, key)}"
            )
    for block, allowed in (("problem", _PROBLEM_KEYS), ("solver", _SOLVER_KEYS),
                           ("output", _OUTPUT_KEYS)):
        for key in data.get(block, {}):
            if key not in allowed:
                raise ConfigError(
                    f"{path}: unknown key {block}.{key} at {_key_location(text, key)}"
                )
    return RunConfig(problem=data.get("problem", {}),
                     solver=data.get("solver", {}),
                     output=data.get("output", {}))


def _build_factor(name, label: str) -> SpectralFunction | None:
    """Resolve a data-registry entry: named analytic factor or a JSON file
    of shifted-Chebyshev coefficients."""
    if name is None or name == "zero":
        return None
    registry = {"sin": np.sin, "cos": np.cos, "one": np.ones_like}
    if isinstance(name, str) and name in registry:
        return chebyshev_expand(registry[name], M=64)
    if isinstance(name, dict) and "chebyshev_file" in name:
        try:
            with open(name["chebyshev_file"]) as fh:
                data = json.load(fh)
            # bool is an int subclass but not a JSON number
            flat = isinstance(data, list) and all(type(v) in (int, float) for v in data)
            coeffs = np.asarray(data if flat else [], dtype=float)
        except (OSError, ValueError, OverflowError) as exc:
            raise ConfigError(f"{label}: cannot load coefficients: {exc}") from exc
        if coeffs.size == 0 or not np.all(np.isfinite(coeffs)):
            raise ConfigError(f"{label}: expected a flat, non-empty list of finite numbers")
        return chebyshev_to_jacobi(coeffs)
    raise ConfigError(
        f"{label}: expected one of {sorted(registry)} or "
        f'{{"chebyshev_file": path}}, got {name!r}'
    )


def build_spec(cfg: RunConfig) -> ProblemSpec:
    p = cfg.problem
    try:
        alpha = float(p.get("alpha", 1.5))
        theta = float(p.get("theta", 0.5))
        beta = float(p.get("beta", 0.0))
        lambda1 = float(p.get("lambda1", 1.0))
        lambda2 = float(p.get("lambda2", 1.0))
        gamma = float(p.get("gamma", 1.0))
        pair = solve_sigma(theta, alpha)
        if "data_regularity" in p:
            r = float(p["data_regularity"])
        elif beta != 0.0:
            r = 2.0 * beta + min(pair.sigma, pair.sigma_star) + 1.0
        else:
            r = None
    except (TypeError, ValueError, ParameterDomainError) as exc:
        raise ConfigError(f"problem block: {exc}") from exc
    factor_f = _build_factor(p.get("f", "sin"), "problem.f")
    factor_ud = _build_factor(p.get("u_d", "cos"), "problem.u_d")

    def weighted(fun):
        if fun is None or beta == 0.0:
            return fun
        return SpectralFunction((beta, beta), fun.poly_params, fun.coeffs)

    try:
        return ProblemSpec(
            alpha=alpha, theta=theta, lambda1=lambda1, lambda2=lambda2, gamma=gamma,
            f=weighted(factor_f), u_d=weighted(factor_ud),
            data_regularity=r,
        )
    except ValueError as exc:  # gamma or a lambda out of range
        raise ConfigError(f"problem block: {exc}") from exc


def _is_int(v) -> bool:
    # bool is an int subclass but not a JSON number
    return isinstance(v, int) and not isinstance(v, bool)


def build_solver_config(cfg: RunConfig, mode_override: str | None = None) -> SolverConfig:
    s = cfg.solver
    try:
        return SolverConfig(mode=mode_override or s.get("mode", "fast"),
                            outer_tol=float(s.get("outer_tol", 1e-12)), N=s.get("N", 64),
                            inner_max=s.get("inner_max", 400),
                            outer_max=s.get("outer_max", 5000))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"solver block: {exc}") from exc


def _study_truncations(cfg: RunConfig) -> tuple[list[int], int]:
    """solver.Ns and solver.N_ref (default 4*max(Ns)), as
    analysis.study_truncations accepts them."""
    Ns = cfg.solver.get("Ns")
    if not Ns:
        raise ConfigError("study requires solver.Ns (a doubling list)")
    if not isinstance(Ns, list) or not all(_is_int(n) for n in Ns):
        raise ConfigError(f"solver block: Ns must be a list of integers, got {Ns!r}")
    N_ref = cfg.solver.get("N_ref", 4 * max(Ns))
    if not _is_int(N_ref):
        raise ConfigError(f"solver block: N_ref must be an integer, got {N_ref!r}")
    try:
        return analysis.study_truncations(Ns, N_ref), N_ref
    except analysis.AnalysisError as exc:
        raise ConfigError(f"solver block: {exc}") from exc


# ---------------------------------------------------------------------------
# rendering

FORMATS = ("csv", "json", "md")
CSV_COLUMNS = ["alpha", "theta", "N", "err_u_weighted", "ord_u",
               "err_z_weighted", "ord_z", "err_q_weighted", "ord_q",
               "err_q_l2", "ord_q_l2", "iters", "seconds", "expected_order"]


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        if math.isnan(v):
            return "nan"
        return f"{v:.6g}" if abs(v) >= 1e-3 else f"{v:.4e}"
    return str(v)


def render_report(report: analysis.ConvergenceReport, fmt: str) -> str:
    rows = report.rows()
    if fmt == "json":
        payload = {
            "alpha": report.spec.alpha, "theta": report.spec.theta,
            "Ns": report.Ns, "N_ref": report.N_ref,
            "expected_order": report.expected_order,
            "errors": report.errors, "orders": report.orders,
            "iters": report.iters, "seconds": report.seconds,
        }
        return json.dumps(payload, indent=2, default=float) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        w = csv.DictWriter(buf, fieldnames=CSV_COLUMNS)
        w.writeheader()
        for row in rows:
            w.writerow({k: _fmt(row[k]) for k in CSV_COLUMNS})
        return buf.getvalue()
    if fmt == "md":
        lines = ["| " + " | ".join(CSV_COLUMNS) + " |",
                 "|" + "---|" * len(CSV_COLUMNS)]
        for row in rows:
            lines.append("| " + " | ".join(_fmt(row[k]) for k in CSV_COLUMNS) + " |")
        lines.append(f"\nExpected order: {report.expected_order:.4g}")
        return "\n".join(lines) + "\n"
    raise ConfigError(f"unknown output format {fmt!r}")


def _emit(text: str, out_path: str | None):
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommands

def cmd_sigma_table(args) -> int:
    try:
        alphas = [float(a) for a in args.alphas.split(",")]
        thetas = [float(t) for t in args.thetas.split(",")]
        rows = [[solve_sigma(th, a) for a in alphas] for th in thetas]
    except ValueError as exc:  # ParameterDomainError is a ValueError
        raise ConfigError(f"sigma-table: {exc}") from exc
    lines = ["theta\\alpha  " + "  ".join(f"{a:^18.4g}" for a in alphas)]
    for th, row in zip(thetas, rows):
        lines.append(f"{th:<11.4g}  " + "  ".join(f"({p.sigma:.4f}, {p.sigma_star:.4f})"
                                                  for p in row))
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def cmd_solve(args) -> int:
    cfg = load_config(args.config) if args.config else RunConfig()
    spec = build_spec(cfg)
    scfg = build_solver_config(cfg, mode_override=args.mode)
    triple = optimize(spec, scfg)
    out = args.out or cfg.output.get("path")
    if out:
        np.savez(out, U=triple.U.coeffs, Z=triple.Z.coeffs,
                 c=np.float64(triple.q.constant_part),
                 sigma=triple.pair.sigma, sigma_star=triple.pair.sigma_star,
                 outer_iterations=triple.stats.outer_iterations)
    print(
        f"alpha={spec.alpha} theta={spec.theta} N={scfg.N} mode={scfg.mode} "
        f"outer_iterations={triple.stats.outer_iterations} "
        f"seconds={triple.stats.wall_time:.3f} "
        f"q_mean={triple.q.mean():.3e}"
    )
    return EXIT_OK


def cmd_study(args) -> int:
    cfg = load_config(args.config) if args.config else RunConfig()
    spec = build_spec(cfg)
    scfg = build_solver_config(cfg, mode_override=args.mode)
    Ns, N_ref = _study_truncations(cfg)
    fmt = args.format or cfg.output.get("format", "csv")
    if fmt not in FORMATS:  # checked before the study runs, not after
        raise ConfigError(f"output block: unknown format {fmt!r}, expected one of {FORMATS}")
    report = analysis.convergence_study(spec, Ns, N_ref, scfg)
    _emit(render_report(report, fmt), args.out or cfg.output.get("path"))
    return EXIT_OK


# ---------------------------------------------------------------------------

def make_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="fracctrl",
        description="Spectral solver for fractional diffusion-advection "
                    "optimal control problems.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    st = sub.add_parser("sigma-table", help="print the exponent-pair table")
    st.add_argument("--alphas", default="1.2,1.4,1.6,1.8")
    st.add_argument("--thetas", default="0.5,0.7,1.0")
    st.add_argument("--out", default=None)
    st.set_defaults(func=cmd_sigma_table)

    for name, fn in (("solve", cmd_solve), ("study", cmd_study)):
        p = sub.add_parser(name)
        p.add_argument("--config", required=(name == "study"), default=None)
        p.add_argument("--out", default=None)
        p.add_argument("--mode", choices=MODES, default=None)
        if name == "study":
            p.add_argument("--format", choices=FORMATS, default=None)
        p.set_defaults(func=fn)
    return ap


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
