"""Benchmark for the ttlr package: four workloads, end-to-end and per-layer metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload cv_sweep --seed 1 --seconds 15 --trace 0

The package is imported from ./src, never from an installed copy. The last
line of standard output is one JSON object with `correct`, `attempted`,
`failed` and `metrics`; the line before it is a JSON object with the machine,
the thread pinning, the tail percentile used and an output digest.

--trace 0 reports the end-to-end metrics. --trace 1 first measures the run
untraced, then installs span tracing (see tracing.py) and replays the same
ops, each once untraced and once traced, back to back, and reports the
per-layer metrics; trace.overhead_s is the traced minus the untraced time of
that replay.

--write-reference PATH regenerates the output references the checks compare
against; --reference PATH checks against another reference file; --size
smoke shrinks every input to its minimum for the smoke test.
"""

from __future__ import annotations

import os

# Pin native thread pools before numpy loads: every run is one thread.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_REFERENCE = HERE / "reference.json"
OUT_DIR = ROOT / ".perfbench_out"
SETUP_REPEATS = 3
IMPORT_REPEATS = 5
TAIL_SAMPLES = 10

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "ops_per_s": "1/s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "peak_rss_mb": "MB",
    "test_accuracy": "fraction",
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="ttlr benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    parser.add_argument("--reference", default=None)
    parser.add_argument("--write-reference", default=None)
    return parser.parse_args(argv)


def import_ttlr() -> None:
    """Import the package from ./src, never from an installed copy."""
    src = ROOT / "src"
    if not (src / "ttlr" / "__init__.py").is_file():
        raise SystemExit(f"ttlr sources not found under {src}")
    sys.path.insert(0, str(src))
    import ttlr  # noqa: F401


def fresh_import_s() -> float:
    """Median wall time of starting an interpreter that imports ttlr."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    times = []
    for _ in range(IMPORT_REPEATS):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", "import ttlr"], env=env, check=True)
        times.append(perf_counter() - t0)
    return statistics.median(times)


def machine_info() -> dict:
    import numpy as np
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def tail_quantile(times: list) -> tuple:
    """Highest percentile with ten samples beyond it; the maximum below 20 ops."""
    n = len(times)
    ordered = sorted(times)
    if n < 2 * TAIL_SAMPLES:
        return ordered[-1], 1.0
    q = 1.0 - TAIL_SAMPLES / n
    pos = q * (n - 1)
    lo = int(pos)
    hi = min(lo + 1, n - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo), q


class Tally:
    """Op outcomes of one measured pass sequence."""

    def __init__(self):
        self.op_times: list = []
        self.pass_times: list = []
        self.accuracies: list = []
        self.attempted = 0
        self.failed = 0
        self.digest = hashlib.sha256()


def run_and_check(wl, state, op, ref, tally: Tally) -> float:
    """Time one op, then check its output; a raise or a failed check is a failure."""
    tally.attempted += 1
    t0 = perf_counter()
    try:
        out = wl.run_op(state, op)
    except Exception:
        dt = perf_counter() - t0
        traceback.print_exc()
        tally.failed += 1
        return dt
    dt = perf_counter() - t0
    try:
        ok, accuracy, blob = wl.check(state, op, out, ref)
    except Exception:
        traceback.print_exc()
        ok, accuracy, blob = False, 0.0, b""
    tally.failed += int(not ok)
    tally.accuracies.append(accuracy)
    tally.digest.update(blob)
    return dt


def measure(wl, state, ref, seconds: float):
    """Whole passes until `seconds` of wall time have gone; returns ops run."""
    tally = Tally()
    ops_done = []
    start = perf_counter()
    for ops in wl.passes(state):
        pass_time = 0.0
        for op in ops:
            dt = run_and_check(wl, state, op, ref, tally)
            tally.op_times.append(dt)
            pass_time += dt
            ops_done.append(op)
        tally.pass_times.append(pass_time)
        if perf_counter() - start >= seconds:
            return tally, ops_done


def traced_replay(wl, state, ref, tally: Tally, ops_done: list) -> tuple:
    """Run each op once untraced and once traced, back to back on warm state.

    The order of the two alternates from op to op, so that neither gains
    from always running second. Returns the tracer, the traced and the
    untraced time.
    """
    tracer = tracing.Tracer()
    patches = tracing.install(tracer)
    times = {True: 0.0, False: 0.0}
    try:
        for i, op in enumerate(ops_done):
            for traced in ((False, True) if i % 2 == 0 else (True, False)):
                tracing.switch(patches, traced)
                times[traced] += run_and_check(wl, state, op, ref, tally)
    finally:
        tracing.switch(patches, False)
    return tracer, times[True], times[False]


def end_to_end(tally: Tally, setup_s: float) -> tuple:
    total = sum(tally.op_times)
    tail, q = tail_quantile(tally.op_times)
    values = {
        "setup_s": setup_s,
        "run_s": total / len(tally.pass_times),
        "ops_per_s": len(tally.op_times) / total,
        "op_p50_s": statistics.median(tally.op_times),
        "op_tail_s": tail,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "test_accuracy": statistics.fmean(tally.accuracies) if tally.accuracies else 0.0,
    }
    tail_info = {"percentile": 100.0 * q, "samples": len(tally.op_times),
                 "beyond": TAIL_SAMPLES if q < 1.0 else 0}
    return {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()}, tail_info


def main(argv=None) -> int:
    args = parse_args(argv)
    import_ttlr()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; "
                         f"choose from {sorted(WORKLOADS)}")
    wl = WORKLOADS[args.workload](args.size)
    OUT_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    try:
        if args.write_reference:
            return write_reference(args, wl, workdir)
        ref_path = Path(args.reference) if args.reference else DEFAULT_REFERENCE
        with open(ref_path, encoding="utf-8") as fh:
            reference = json.load(fh)
        if reference.get("size") != args.size:
            raise SystemExit(f"{ref_path} holds references for size "
                             f"{reference.get('size')!r}, not {args.size!r}")
        ref = reference[args.workload]

        setup_times = []
        for _ in range(SETUP_REPEATS):
            state = None  # release the previous inputs before building new ones
            t0 = perf_counter()
            state = wl.setup(args.seed, workdir)
            setup_times.append(perf_counter() - t0)
        setup_s = fresh_import_s() + statistics.median(setup_times)

        tally, ops_done = measure(wl, state, ref, args.seconds)
        metrics, tail_info = end_to_end(tally, setup_s)
        if args.trace:
            tracer, traced_s, untraced_s = traced_replay(wl, state, ref, tally, ops_done)
            overhead_resolved = traced_s > untraced_s
            if not overhead_resolved:
                print(f"warning: tracing overhead not resolved: traced {traced_s:.4f} s "
                      f"<= untraced {untraced_s:.4f} s", file=sys.stderr)
            metrics = tracing.layer_metrics(tracer, traced_s, untraced_s,
                                            tracing.span_cost_s())
            tracer.write_spans(str(OUT_DIR / f"spans-{args.workload}-{args.seed}.csv"))

        info = {
            "workload": args.workload,
            "seed": args.seed,
            "size": args.size,
            "machine": machine_info(),
            "passes": len(tally.pass_times),
            "ops": len(tally.op_times),
            "op_tail": tail_info,
            "output_digest": tally.digest.hexdigest(),
            "trace_overhead_resolved": overhead_resolved if args.trace else None,
            "computed_not_measured": [k for k in metrics if k.endswith("_computed")],
        }
        print(json.dumps({"info": info}))
        print(json.dumps({
            "correct": tally.failed == 0,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def write_reference(args, wl, workdir: str) -> int:
    """Recompute one workload's reference and merge it into the given file."""
    path = Path(args.write_reference)
    reference = {"size": args.size}
    if path.is_file():
        with open(path, encoding="utf-8") as fh:
            reference = json.load(fh)
        if reference.get("size") != args.size:
            raise SystemExit(f"{path} holds references for another size")
    reference[args.workload] = wl.make_reference(workdir)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.workload} reference to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
