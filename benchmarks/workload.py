"""One benchmark workload, run in a process of its own.

    python3 benchmarks/workload.py --workload NAME --seed N --seconds S \
        --trace 0|1 --out DIR

run.py starts this with the BLAS thread counts, PYTHONPATH and a private
FRACCTRL_CACHE_DIR already set.  It measures set-up, then repeats the
workload's operation in a closed loop (one caller; the next operation
starts when the last one has finished) until --seconds have passed, the
operation in progress included, and writes result.json and solutions.npz to --out for run.py to
check.  With --trace 1 it skips the set-up timing, traces the timed
operations and also writes trace.jsonl.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
import traceback
import tracemalloc

import numpy as np

import fracctrl
import fracctrl.analysis
import fracctrl.operators as operators
from fracctrl.transforms import ConversionCache, SpectralFunction

N_BIG = 2048
SWEEP_N = 64
SWEEP_ALPHAS = (1.2, 1.5, 1.8)
SWEEP_THETAS = (0.5, 0.7, 1.0)
STUDY_NS = [64, 128, 256]
STUDY_NREF = 1024          # the smallest N_ref convergence_study accepts (4 * 256)
CHEBYSHEV_M = 64


def problem(alpha, theta, gamma=1.0, beta=0.0):
    """The check-side description of one solve's inputs."""
    return dict(alpha=alpha, theta=theta, lambda1=1.0, lambda2=1.0, gamma=gamma,
                beta=beta, f="sin", u_d="cos")


def spec_of(p: dict) -> fracctrl.ProblemSpec:
    fns = {"sin": np.sin, "cos": np.cos}
    f = fracctrl.chebyshev_expand(fns[p["f"]], M=CHEBYSHEV_M)
    u_d = fracctrl.chebyshev_expand(fns[p["u_d"]], M=CHEBYSHEV_M)
    r = None
    if p["beta"] != 0.0:
        b = p["beta"]
        f = SpectralFunction((b, b), f.poly_params, f.coeffs)
        u_d = SpectralFunction((b, b), u_d.poly_params, u_d.coeffs)
        pair = fracctrl.solve_sigma(p["theta"], p["alpha"])
        r = 2 * b + min(pair.sigma, pair.sigma_star) + 1
    return fracctrl.ProblemSpec(alpha=p["alpha"], theta=p["theta"], lambda1=p["lambda1"],
                                lambda2=p["lambda2"], gamma=p["gamma"], f=f, u_d=u_d,
                                data_regularity=r)


def setup_once(p: dict, N: int, mode: str):
    """What one solve at N builds before its first iteration, fresh cache."""
    spec = spec_of(p)
    pair = spec.exponent_pair()
    cache = ConversionCache()
    if mode == "direct":
        operators.assemble_dense(N, pair, spec.lambda1, spec.lambda2)
    else:
        ops = operators.assemble_fast(N, pair, spec.lambda1, spec.lambda2, cache)
        operators.build_preconditioners(ops)
    operators.RhsAssembler(N, pair, spec.f, spec.u_d, cache)


def sweep_gammas(seed: int) -> dict:
    """Two gammas per (alpha, theta) cell, drawn from [0.5, 2] by the seed.

    The pair is antithetic in 1/gamma (1/g1 + 1/g2 = 2.5): a solve's
    outer-iteration count grows roughly like 1/gamma, so each cell's work,
    and with it the grid's, varies little from seed to seed.
    """
    rng = np.random.default_rng(seed)
    out = {}
    for alpha in SWEEP_ALPHAS:
        for theta in SWEEP_THETAS:
            v = rng.uniform(0.5, 2.0)
            out[(alpha, theta)] = (1.0 / v, 1.0 / (2.5 - v))
    return out


class Workload:
    """One repeatable operation plus its set-up measurement."""

    setup_reps = 3
    reference = None  # an untimed solve the checks also look at

    def prepare(self):
        """Untimed work the timed operations rely on."""

    def operation(self):
        """(problem, thunk) for one operation; the thunk returns its output.
        For an operation of several solves both are lists, one entry each."""
        raise NotImplementedError

    def setup(self):
        raise NotImplementedError


class BigSolve(Workload):
    def __init__(self, mode: str):
        self.mode = mode
        self.p = problem(1.8, 0.7)
        self.spec = spec_of(self.p)

    def operation(self):
        cfg = fracctrl.SolverConfig(N=N_BIG, mode=self.mode)
        return self.p, lambda: fracctrl.optimize(self.spec, cfg, cache=ConversionCache())

    def setup(self):
        setup_once(self.p, N_BIG, self.mode)


class Sweep(Workload):
    """One operation is the whole grid: each (alpha, theta) cell in turn,
    optimizing at each of its gammas with one ConversionCache per cell, as
    a user's gamma sweep would.  Timing single solves or single cells puts
    the median on one short solve (0.1 to 0.7 s), whose time moved by up to
    24% (interquartile range over median) from run to run."""

    setup_reps = 7

    def __init__(self, seed: int):
        self.gammas = sweep_gammas(seed)

    def operation(self):
        cfg = fracctrl.SolverConfig(N=SWEEP_N, mode="fast")
        cells = [[problem(alpha, theta, gamma) for gamma in gammas]
                 for (alpha, theta), gammas in self.gammas.items()]
        specs = [[spec_of(p) for p in cell] for cell in cells]

        def grid():
            out = []
            for cell in specs:
                cache = ConversionCache()
                out += [fracctrl.optimize(spec, cfg, cache=cache) for spec in cell]
            return out

        return [p for cell in cells for p in cell], grid

    def setup(self):
        for alpha, theta in self.gammas:
            setup_once(problem(alpha, theta), SWEEP_N, "fast")


class Study(Workload):
    setup_reps = 5

    def __init__(self):
        self.p = problem(1.8, 0.5, beta=-0.4)
        self.spec = spec_of(self.p)
        self.cfg = fracctrl.SolverConfig(mode="fast")

    def prepare(self):
        # writes the reference into the private cache; the timed studies load it
        self.reference = fracctrl.analysis.reference_solve(
            self.spec, STUDY_NREF, self.cfg, use_cache=True, cache=ConversionCache())

    def operation(self):
        return self.p, lambda: fracctrl.convergence_study(self.spec, STUDY_NS, STUDY_NREF,
                                                          self.cfg)

    def setup(self):
        setup_once(self.p, STUDY_NREF, "fast")


def make(name: str, seed: int) -> Workload:
    if name == "fast-2048":
        return BigSolve("fast")
    if name == "direct-2048":
        return BigSolve("direct")
    if name == "sweep":
        return Sweep(seed)
    if name == "study":
        return Study()
    raise SystemExit(f"unknown workload {name!r}")


def peak_rss_mb() -> float:
    """This process's own resident-set high-water mark (VmHWM).

    ru_maxrss is not used: Linux carries the parent's resident size at
    fork into it across exec, so it would count run.py's memory too.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def record(p, result, arrays, records):
    """Keep what the checks need from one operation's output."""
    if isinstance(result, list):
        for pi, ri in zip(p, result):
            record(pi, ri, arrays, records)
        return
    i = len(records)
    if isinstance(result, fracctrl.ConvergenceReport):
        records.append({"problem": p, "kind": "study", "orders": result.orders["u_weighted"]})
        return
    arrays[f"U{i}"] = result.U.coeffs
    arrays[f"Z{i}"] = result.Z.coeffs
    records.append({"problem": p, "kind": "triple", "c": result.q.constant_part,
                    "outer_iterations": result.stats.outer_iterations})


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    work = make(args.workload, args.seed)
    setup_times = []
    if not args.trace:
        for _ in range(work.setup_reps):
            t0 = time.perf_counter()
            work.setup()
            setup_times.append(time.perf_counter() - t0)
    work.prepare()

    tracer = None
    if args.trace:
        # allocation peak of one set-up, traced apart so that tracemalloc
        # does not slow the timed operations
        tracemalloc.start()
        work.setup()
        setup_alloc_peak_mb = tracemalloc.get_traced_memory()[1] / 2**20
        tracemalloc.stop()
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()

    arrays, records, op_seconds = {}, [], []
    attempted = failed = 0
    start = time.perf_counter()
    try:
        while True:
            p, thunk = work.operation()
            attempted += 1
            t0 = time.perf_counter()
            try:
                result = thunk()
            except Exception:  # an operation that fails is counted, not fatal
                failed += 1
                traceback.print_exc()
            else:
                op_seconds.append(time.perf_counter() - t0)
                record(p, result, arrays, records)
            if time.perf_counter() - start >= args.seconds:
                break
        loop_seconds = time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.uninstall()

    if work.reference is not None:
        record(work.p, work.reference, arrays, records)

    result = {
        "workload": args.workload, "seed": args.seed,
        "threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "attempted": attempted, "failed": failed,
        "op_seconds": op_seconds, "loop_seconds": loop_seconds,
        "setup_seconds": setup_times,
        "peak_rss_mb": peak_rss_mb(),
        "records": records,
    }
    if tracer is not None:
        done = attempted - failed
        result["layers"] = tracer.layer_metrics(done)
        result["layers"]["operators.setup_alloc_peak_mb"] = (setup_alloc_peak_mb, "MB")
        result["layers"]["trace.solve_s"] = (statistics.median(op_seconds) if op_seconds
                                             else float("nan"), "s")
        tracer.write_jsonl(os.path.join(args.out, "trace.jsonl"))
    np.savez(os.path.join(args.out, "solutions.npz"), **arrays)
    with open(os.path.join(args.out, "result.json"), "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
