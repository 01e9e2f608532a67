"""Per-layer tracing of fracctrl from outside the package.

The tracer wraps public functions and methods at the place they are looked
up: a module-level function is replaced in every fracctrl module that holds
it (solver.py imports the operator set-up functions by name, so patching
fracctrl.operators alone would miss them), and a method is replaced on its
class.  Each wrapped call records one span (name, start, end, parent) in
memory; counters are updated at the same boundaries.  uninstall() puts
every original back.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import defaultdict

LAYERS = ("jacobi", "transforms", "operators", "solver", "analysis")


def _fracctrl_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "fracctrl" or name.startswith("fracctrl."))]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self._stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._patches: list[tuple[object, str, object]] = []

    # -- spans -----------------------------------------------------------

    def _wrap(self, name: str, fn, after=None):
        nid = self._name_id.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.span_start)
            self.span_name.append(nid)
            self.span_parent.append(self._stack[-1] if self._stack else -1)
            self.span_end.append(0.0)
            self._stack.append(idx)
            self.span_start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                self.span_end[idx] = clock()
                self._stack.pop()
            self.counts[name + ".calls"] += 1
            if after is not None:
                after(args, out)
            return out

        return wrapper

    # -- patching --------------------------------------------------------

    def _patch_function(self, module, attr: str, name: str, after=None):
        original = getattr(module, attr)
        wrapper = self._wrap(name, original, after)
        for mod in _fracctrl_modules():
            for key, val in list(vars(mod).items()):
                if val is original:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def _patch_method(self, cls, attr: str, name: str, after=None):
        raw = cls.__dict__[attr]
        self._patches.append((cls, attr, raw))
        if isinstance(raw, classmethod):
            setattr(cls, attr, classmethod(self._wrap(name, raw.__func__, after)))
        else:
            setattr(cls, attr, self._wrap(name, raw, after))

    def install(self):
        import fracctrl.analysis as analysis
        import fracctrl.jacobi as jacobi
        import fracctrl.operators as operators
        import fracctrl.solver as solver
        import fracctrl.transforms as transforms

        c = self.counts

        def rule_after(args, rule):
            c["jacobi.rule_nodes"] += rule.npts

        def apply_after(args, out):
            cm = args[0]
            # FFT length actually used; the minimal linear-convolution
            # length 2(k+1) if the attribute is ever renamed
            nfft = getattr(cm, "_nfft", 2 * (cm.k + 1))
            c["transforms.fft_work"] += nfft * cm.rank

        get = transforms.ConversionCache.__dict__["get"]

        def counted_get(cache, *args, **kwargs):
            builds = c["transforms.conv_build.calls"]
            out = get(cache, *args, **kwargs)
            if c["transforms.conv_build.calls"] == builds:
                c["transforms.cache_hits"] += 1
            return out

        def inner_after(args, out):
            _, iterations, converged = out
            c["solver.inner_iterations"] += iterations
            c["solver.inner_reached_tol"] += bool(converged)

        def optimize_after(args, triple):
            c["solver.outer_iterations"] += triple.stats.outer_iterations

        self._patch_function(jacobi, "gauss_jacobi_rule", "jacobi.rule", rule_after)
        self._patch_method(transforms.ConversionMatrix, "build", "transforms.conv_build")
        self._patch_method(transforms.ConversionMatrix, "apply", "transforms.conv_apply",
                           apply_after)
        self._patches.append((transforms.ConversionCache, "get", get))
        transforms.ConversionCache.get = self._wrap("transforms.cache_get", counted_get)
        for attr in ("apply_A", "apply_B"):
            self._patch_method(operators.OperatorSet, attr, "operators.matvec")
        for attr in ("dense_A", "dense_B"):
            self._patch_method(operators.OperatorSet, attr, "operators.dense_build")
        self._patch_method(operators.BandedPreconditioner, "solve", "operators.precond_solve")
        for attr in ("assemble_fast", "assemble_dense"):
            self._patch_function(operators, attr, "operators.assemble")
        self._patch_function(operators, "build_preconditioners", "operators.precond_build")
        self._patch_method(operators.RhsAssembler, "__init__", "operators.rhs_setup")
        for attr in ("rhs_F", "rhs_G"):
            self._patch_method(operators.RhsAssembler, attr, "operators.rhs")
        self._patch_function(solver, "fixed_point_solve", "solver.inner_solve", inner_after)
        for attr in ("direct_solve_state", "direct_solve_adjoint"):
            self._patch_function(solver, attr, "solver.direct_solve")
        self._patch_function(solver, "optimize", "solver.optimize", optimize_after)
        self._patch_function(analysis, "weighted_error", "analysis.error_norm")
        self._patch_function(analysis, "load_reference", "analysis.ref_load")
        self._patch_function(analysis, "convergence_study", "analysis.study")

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results ---------------------------------------------------------

    def durations(self):
        """(inclusive, self) seconds per span name."""
        n = len(self.span_start)
        child = [0.0] * n
        inclusive = defaultdict(float)
        self_time = defaultdict(float)
        durs = [self.span_end[i] - self.span_start[i] for i in range(n)]
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                child[p] += durs[i]
        for i in range(n):
            name = self.names[self.span_name[i]]
            inclusive[name] += durs[i]
            self_time[name] += durs[i] - child[i]
        return inclusive, self_time

    def layer_metrics(self, ops: int) -> dict[str, tuple[float, str]]:
        """Per-layer figures per completed operation, with their units."""
        inc, slf = self.durations()
        c = self.counts
        per = 1.0 / max(ops, 1)

        def ratio(num, den):
            return c[num] / c[den] if c[den] else 1.0

        out = {
            "transforms.conv_applies": (c["transforms.conv_apply.calls"] * per, "count/op"),
            "transforms.conv_apply_s": (inc["transforms.conv_apply"] * per, "s/op"),
            "transforms.fft_work": (c["transforms.fft_work"] * per, "count/op"),
            "transforms.conv_builds": (c["transforms.conv_build.calls"] * per, "count/op"),
            "transforms.conv_build_s": (inc["transforms.conv_build"] * per, "s/op"),
            "transforms.cache_gets": (c["transforms.cache_get.calls"] * per, "count/op"),
            "transforms.cache_hit_ratio": (ratio("transforms.cache_hits",
                                                 "transforms.cache_get.calls"), "ratio"),
            "operators.matvecs": (c["operators.matvec.calls"] * per, "count/op"),
            "operators.matvec_s": (inc["operators.matvec"] * per, "s/op"),
            "operators.precond_solves": (c["operators.precond_solve.calls"] * per, "count/op"),
            "operators.precond_solve_s": (inc["operators.precond_solve"] * per, "s/op"),
            "operators.dense_builds": (c["operators.dense_build.calls"] * per, "count/op"),
            "operators.dense_build_s": (inc["operators.dense_build"] * per, "s/op"),
            "operators.assemble_s": (inc["operators.assemble"] * per, "s/op"),
            "operators.precond_build_s": (inc["operators.precond_build"] * per, "s/op"),
            "operators.rhs_setup_s": (inc["operators.rhs_setup"] * per, "s/op"),
            "operators.rhs_s": (inc["operators.rhs"] * per, "s/op"),
            "jacobi.rules": (c["jacobi.rule.calls"] * per, "count/op"),
            "jacobi.rule_nodes": (c["jacobi.rule_nodes"] * per, "count/op"),
            "jacobi.rule_s": (inc["jacobi.rule"] * per, "s/op"),
            "solver.outer_iterations": (c["solver.outer_iterations"] * per, "count/op"),
            "solver.inner_solves": (c["solver.inner_solve.calls"] * per, "count/op"),
            "solver.inner_iterations": (c["solver.inner_iterations"] * per, "count/op"),
            "solver.inner_solve_s": (inc["solver.inner_solve"] * per, "s/op"),
            "solver.inner_reached_tol_ratio": (ratio("solver.inner_reached_tol",
                                                     "solver.inner_solve.calls"), "ratio"),
            "solver.direct_solves": (c["solver.direct_solve.calls"] * per, "count/op"),
            "solver.direct_solve_s": (inc["solver.direct_solve"] * per, "s/op"),
            "analysis.error_norms": (c["analysis.error_norm.calls"] * per, "count/op"),
            "analysis.error_norm_s": (inc["analysis.error_norm"] * per, "s/op"),
            "analysis.ref_load_s": (inc["analysis.ref_load"] * per, "s/op"),
        }
        for layer in LAYERS:
            total = sum(v for k, v in slf.items() if k.startswith(layer + "."))
            out[f"{layer}.self_s"] = (total * per, "s/op")
        out["trace.spans"] = (len(self.span_start) * per, "count/op")
        return out

    def write_jsonl(self, path: str):
        """One JSON object per span: name, start, end, parent (span index or -1)."""
        with open(path, "w") as fh:
            for i in range(len(self.span_start)):
                fh.write(f'{{"id": {i}, "name": "{self.names[self.span_name[i]]}", '
                         f'"start": {self.span_start[i]!r}, "end": {self.span_end[i]!r}, '
                         f'"parent": {self.span_parent[i]}}}\n')
