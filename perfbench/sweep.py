"""Run the benchmark over several seeds and summarize each metric's spread.

    python3 perfbench/sweep.py --seeds 1-10 --extra-seed 101 --out perfbench/baseline.json

For every workload in BENCHMARK.json this runs `run.py --trace 0` once per
seed, then once on the extra seed, then once traced (first seed), one run at
a time. Per end-to-end metric it reports the median and the quartile spread
(q3 - q1) / median, with quartiles from statistics.quantiles(values, n=4),
and flags any spread that is not below a third of the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_range(text: str) -> list:
    """Seeds of an inclusive range written `lo-hi`."""
    lo, hi = text.split("-")
    return list(range(int(lo), int(hi) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} failed:\n{proc.stderr[-3000:]}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["info"] = json.loads(lines[-2])["info"]
    return result


def summarize(values: list) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10", help="inclusive range lo-hi")
    parser.add_argument("--extra-seed", type=int, default=None)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = seed_range(args.seeds)
    report = {"run_seconds": spec["run_seconds"], "seeds": seeds,
              "extra_seed": args.extra_seed, "workloads": {}}
    for name in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in seeds:
            runs.append(run_once(name, seed, spec["run_seconds"], 0))
            print(f"{name:20s} seed {seed}: " + " ".join(
                f"{k}={v['value']:.5g}" for k, v in runs[-1]["metrics"].items()), flush=True)
        entry = {"failed": sum(r["failed"] for r in runs),
                 "attempted": sum(r["attempted"] for r in runs), "metrics": {}}
        for metric in bounds:
            summary = summarize([r["metrics"][metric]["value"] for r in runs])
            summary["unit"] = runs[0]["metrics"][metric]["unit"]
            entry["metrics"][metric] = summary
            flag = "" if summary["spread"] < bounds[metric] / 3 else "  <-- not below bound/3"
            print(f"{name:20s} {metric:14s} median={summary['median']:.6g} "
                  f"spread={summary['spread']:.4f} bound={bounds[metric]}{flag}", flush=True)
        report["machine"] = runs[0]["info"]["machine"]
        if args.extra_seed is not None:
            extra = run_once(name, args.extra_seed, spec["run_seconds"], 0)
            entry["extra_seed"] = {k: v["value"] for k, v in extra["metrics"].items()}
            entry["failed"] += extra["failed"]
            entry["attempted"] += extra["attempted"]
        traced = run_once(name, seeds[0], spec["run_seconds"], 1)
        entry["traced_seed"] = seeds[0]
        entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        entry["trace_overhead_resolved"] = traced["info"]["trace_overhead_resolved"]
        entry["op_tail"] = [r["info"]["op_tail"] for r in runs]
        print(f"{name:20s} failed {entry['failed']} of {entry['attempted']}", flush=True)
        report["workloads"][name] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
