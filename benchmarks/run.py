"""fracctrl benchmark: run one workload (or all four), check its outputs
apart from the program, and print the metrics.

    python3 benchmarks/run.py --workload fast-2048 --seed 1 --seconds 12 --trace 0

Workloads: fast-2048, direct-2048, sweep, study, or all (each in turn, each
in its own process).  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.  With --trace 0 the
metrics are solve_s, solves_per_s, setup_s and peak_rss_mb; with --trace 1
they are the per-layer figures of a traced run.

Run from the root of a source tree of fracctrl: the package is imported
from ./src, nothing is installed, and every file the run writes stays
under ./.bench_tmp (removed at exit) and ./.bench_results.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("fast-2048", "direct-2048", "sweep", "study")
# One BLAS/OpenMP thread.  With two (the CPUs of the reference machine)
# direct-2048 runs about 20% faster but study about 30% slower (threading
# overhead on mid-sized eigensolves), and one thread leaves a CPU for this
# process and the rest of the machine, which keeps runs steadier.
THREADS = "1"
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = THREADS

import numpy as np  # noqa: E402  (after the thread counts are set)

import checks  # noqa: E402

TIME_LIMIT = 170.0  # seconds for one workload, set-up and checks included


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    """Run one workload in a child process and check what it returns."""
    os.makedirs(os.path.join(ROOT, ".bench_tmp"), exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{name}-", dir=os.path.join(ROOT, ".bench_tmp"))
    try:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(ROOT, "src")
        # a private reference cache per run: the cache key names the
        # configuration, not the code, so a shared cache could hand one
        # commit's reference to another
        env["FRACCTRL_CACHE_DIR"] = os.path.join(tmp, "refcache")
        cmd = [sys.executable, os.path.join(HERE, "workload.py"), "--workload", name,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
               "--out", tmp]
        # the child's output goes to stderr: stdout ends with our result line
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=sys.stderr,
                              timeout=TIME_LIMIT)
        if proc.returncode != 0:
            raise SystemExit(f"workload {name} exited with code {proc.returncode}")
        with open(os.path.join(tmp, "result.json")) as fh:
            res = json.load(fh)
        with np.load(os.path.join(tmp, "solutions.npz")) as npz:
            arrays = {k: npz[k] for k in npz.files}
        started = time.perf_counter()
        res["check_failures"] = check_records(res["records"], arrays)
        res["check_seconds"] = time.perf_counter() - started
        if trace:
            out_dir = os.path.join(ROOT, ".bench_results")
            os.makedirs(out_dir, exist_ok=True)
            shutil.move(os.path.join(tmp, "trace.jsonl"),
                        os.path.join(out_dir, f"trace-{name}.jsonl"))
        return res
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def check_records(records: list, arrays: dict) -> list[str]:
    """Run the independent checks on every distinct output."""
    fails, seen = [], set()
    for i, rec in enumerate(records):
        p = rec["problem"]
        if rec["kind"] == "study":
            fails += [f"op {i}: {m}" for m in checks.check_orders(p, rec["orders"])]
            continue
        U, Z = arrays[f"U{i}"], arrays[f"Z{i}"]
        key = (json.dumps(p, sort_keys=True), U.tobytes(), Z.tobytes(), rec["c"],
               rec["outer_iterations"])
        if key in seen:  # repeated identical outputs need one check
            continue
        seen.add(key)
        fails += [f"op {i}: {m}" for m in checks.check_triple(
            p, U, Z, rec["c"], rec["outer_iterations"])]
    return fails


def summarize(res: dict, trace: int) -> dict:
    done = res["attempted"] - res["failed"]
    if trace:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in res["layers"].items()}
    else:
        ops = res["op_seconds"]
        metrics = {
            "solve_s": {"value": statistics.median(ops), "unit": "s"},
            "solves_per_s": {"value": done / res["loop_seconds"], "unit": "1/s"},
            "setup_s": {"value": statistics.median(res["setup_seconds"]), "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
    return {"correct": not res["check_failures"], "attempted": res["attempted"],
            "failed": res["failed"], "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="fracctrl benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "fracctrl")):
        print(f"no fracctrl sources under {ROOT}/src", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    summaries = {}
    for name in names:
        res = run_workload(name, args.seed, args.seconds, args.trace)
        for msg in res["check_failures"]:
            print(f"CHECK FAILED [{name}] {msg}", file=sys.stderr)
        print(f"[{name}] threads={res['threads']} attempted={res['attempted']} "
              f"failed={res['failed']} loop={res['loop_seconds']:.2f}s "
              f"checks={res['check_seconds']:.2f}s", file=sys.stderr)
        summaries[name] = summarize(res, args.trace)

    if len(names) == 1:
        out = summaries[names[0]]
    else:
        for name, s in summaries.items():
            for metric, v in s["metrics"].items():
                print(f"{name:12s} {metric:32s} {v['value']:.6g} {v['unit']}")
        out = {"correct": all(s["correct"] for s in summaries.values()),
               "attempted": sum(s["attempted"] for s in summaries.values()),
               "failed": sum(s["failed"] for s in summaries.values()),
               "metrics": {f"{n}.{m}": v for n, s in summaries.items()
                           for m, v in s["metrics"].items()}}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
