"""Span tracing around the public functions of each ttlr module.

Tracing is installed from outside the package: every public function named
in TARGETS is replaced, in every ttlr module namespace that binds it, by a
wrapper that records a span (name, parent span, start, end) and per-name
counters. `loss` and `model` bind `tempered_probs_rows`, `escort_rows` and
`lbfgs_minimize` through `from .x import y`, so patching only the defining
module would miss their calls; patching every binding catches them.

Self time of a span is its duration minus the time of the wrapped calls
nested directly inside it. Spans stay in memory and are written out once,
after the measured region.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import sys
from time import perf_counter

import numpy as np

# (defining module, attribute) pairs; "Class.method" patches the class.
TARGETS = (
    ("tempered", "exp_t"),
    ("tempered", "log_t"),
    ("partition", "log_partition_rows"),
    ("partition", "tempered_probs_rows"),
    ("partition", "escort_rows"),
    ("loss", "regularized_objective"),
    ("optimizer", "lbfgs_minimize"),
    ("data", "parse_libsvm"),
    ("data", "synth_gaussians"),
    ("data", "inject_outlier_noise"),
    ("data", "Dataset.subset"),
    ("model", "fit"),
    ("model", "predict"),
    ("model", "predict_proba"),
    ("model", "save_model"),
    ("model", "load_model"),
    ("experiment", "select_lambda"),
    ("experiment", "run_experiment"),
    ("analysis", "bayes_multiclass_check"),
    ("cli", "main"),
)

TERMINATIONS = ("converged", "max_iterations", "line_search_failed")


class Tracer:
    """Span recorder plus the counters each wrapped layer adds."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []
        self.stack: list = []  # [span index, time of nested wrapped calls]
        self.stats: dict[str, list] = {}  # name -> [calls, self_s]
        self.counts: dict[str, float] = {}

    def add(self, key: str, value) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def wrap(self, name: str, fn, on_return=None):
        name_id = len(self.names)
        self.names.append(name)
        stat = self.stats.setdefault(name, [0, 0.0])
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1][0] if stack else -1
            frame = [idx, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dt = t1 - t0
                stat[0] += 1
                stat[1] += dt - frame[1]
                if stack:
                    stack[-1][1] += dt
                spans[idx] = (name_id, parent, t0, t1)
            if on_return is not None:
                on_return(args, kwargs, out)
            return out

        return traced

    def write_spans(self, path: str) -> None:
        """One JSON header line with the name table, then `name,parent,t0,t1` rows."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"names": self.names}) + "\n")
            fh.writelines(f"{n},{p},{a!r},{b!r}\n" for n, p, a, b in self.spans)


def span_cost_s() -> float:
    """Median extra time per call that a wrapper adds to a no-op function.

    Five batches of 20000 calls each; hooks are not included. Spans times this cost estimates the tracing
    overhead where the traced and untraced times differ by less than their
    noise.
    """
    def noop():
        return None

    calls = 20000
    traced = Tracer().wrap("noop", noop)
    costs = []
    for _ in range(5):
        t0 = perf_counter()
        for _ in range(calls):
            noop()
        t1 = perf_counter()
        for _ in range(calls):
            traced()
        t2 = perf_counter()
        costs.append(((t2 - t1) - (t1 - t0)) / calls)
    return statistics.median(costs)


def _stream_bytes(stream) -> int:
    if isinstance(stream, str):
        return len(stream.encode("utf-8"))
    return os.fstat(stream.fileno()).st_size


def _hooks(tracer: Tracer) -> dict:
    """Counters recorded from a wrapped call's arguments and return value."""
    add = tracer.add

    def exp_t(args, kwargs, out):
        add("tempered.exp_t.elems_computed", int(np.size(args[0])))

    def log_partition_rows(args, kwargs, out):
        iters = out[2]
        add("partition.log_partition_rows.rows", int(iters.size))
        add("partition.log_partition_rows.newton_iters_sum", int(iters.sum()))
        if iters.size:
            key = "partition.log_partition_rows.newton_iters_max"
            tracer.counts[key] = max(tracer.counts.get(key, 0), int(iters.max()))

    def regularized_objective(args, kwargs, out):
        data, W = args[0], args[1]
        # X @ W and X.T @ coeff, each 2 * nnz(X) * C multiply-adds counted as flops
        add(
            "loss.regularized_objective.matmul_flops_computed",
            4 * int(data.X.nnz) * int(np.shape(W)[1]),
        )

    def parse_libsvm(args, kwargs, out):
        add("data.parse_libsvm.bytes", _stream_bytes(args[0]))

    return {
        "exp_t": exp_t,
        "log_partition_rows": log_partition_rows,
        "regularized_objective": regularized_objective,
        "parse_libsvm": parse_libsvm,
    }


def _counted_lbfgs(tracer: Tracer, original):
    """Span-wrap lbfgs_minimize and count evaluations of the objective it gets."""
    inner = tracer.wrap("optimizer.lbfgs_minimize", original)
    add = tracer.add

    @functools.wraps(original)
    def lbfgs_minimize(objective, init, config=None):
        evals = [0]

        def counted(x):
            evals[0] += 1
            return objective(x)

        x, trace = inner(counted, init, config)
        add("optimizer.lbfgs_minimize.evals", evals[0])
        add("optimizer.lbfgs_minimize.iterations", trace.iterations)
        add(f"optimizer.lbfgs_minimize.term.{trace.termination}", 1)
        return x, trace

    return lbfgs_minimize


def install(tracer: Tracer) -> list:
    """Wrap each target and bind the wrapper wherever ttlr binds the original.

    Returns the patches, `(holder, attribute, original, wrapper)` each, so
    that `switch` can turn tracing off and on again between ops.
    """
    modules = [m for k, m in sys.modules.items() if k == "ttlr" or k.startswith("ttlr.")]
    hooks = _hooks(tracer)
    patches = []
    for mod_name, attr in TARGETS:
        home = sys.modules[f"ttlr.{mod_name}"]
        name = f"{mod_name}.{attr}"
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(home, cls_name)
            original = vars(cls)[meth]
            patches.append((cls, meth, original, tracer.wrap(name, original)))
            continue
        original = getattr(home, attr)
        if attr == "lbfgs_minimize":
            wrapper = _counted_lbfgs(tracer, original)
        else:
            wrapper = tracer.wrap(name, original, hooks.get(attr))
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    patches.append((mod, key, original, wrapper))
    switch(patches, True)
    return patches


def switch(patches: list, traced: bool) -> None:
    """Bind the wrappers (traced) or the original functions (untraced)."""
    for holder, key, original, wrapper in patches:
        setattr(holder, key, wrapper if traced else original)


def layer_metrics(tracer: Tracer, traced_s: float, untraced_s: float,
                  span_cost: float) -> dict:
    """Per-layer values; layers a workload never calls report zero."""
    stats, counts = tracer.stats, tracer.counts
    out = {}

    def s(name, field):
        return stats.get(name, [0, 0.0])[field]

    for name in stats:
        out[f"{name}.self_s"] = (s(name, 1), "s")
    for name in ("tempered.exp_t", "tempered.log_t", "partition.log_partition_rows",
                 "loss.regularized_objective", "optimizer.lbfgs_minimize",
                 "experiment.select_lambda", "data.Dataset.subset"):
        out[f"{name}.calls"] = (s(name, 0), "count")

    rows = counts.get("partition.log_partition_rows.rows", 0)
    lpr = "partition.log_partition_rows"
    out[f"{lpr}.rows"] = (rows, "count")
    out[f"{lpr}.us_per_row"] = (1e6 * s(lpr, 1) / rows if rows else 0.0, "us")
    out[f"{lpr}.newton_iters_mean"] = (
        counts.get(f"{lpr}.newton_iters_sum", 0) / rows if rows else 0.0, "iters")
    out[f"{lpr}.newton_iters_max"] = (counts.get(f"{lpr}.newton_iters_max", 0), "iters")
    out["tempered.exp_t.elems_computed"] = (
        counts.get("tempered.exp_t.elems_computed", 0), "count")
    key = "loss.regularized_objective.matmul_flops_computed"
    out[key] = (counts.get(key, 0), "flop")

    opt = "optimizer.lbfgs_minimize"
    calls = s(opt, 0)
    evals = counts.get(f"{opt}.evals", 0)
    iters = counts.get(f"{opt}.iterations", 0)
    out[f"{opt}.evals"] = (evals, "count")
    out[f"{opt}.iterations"] = (iters, "count")
    # every call spends one evaluation at its start point
    out[f"{opt}.backtracks"] = (evals - iters - calls, "count")
    out[f"{opt}.accept_ratio"] = (iters / evals if evals else 0.0, "ratio")
    for term in TERMINATIONS:
        out[f"{opt}.term.{term}"] = (counts.get(f"{opt}.term.{term}", 0), "count")

    parse = "data.parse_libsvm"
    nbytes = counts.get(f"{parse}.bytes", 0)
    out[f"{parse}.mb_per_s_computed"] = (
        nbytes / 1e6 / s(parse, 1) if s(parse, 1) else 0.0, "MB/s")

    self_sum = sum(v[1] for v in stats.values())
    out["trace.run_s"] = (traced_s, "s")
    out["trace.untraced_run_s"] = (untraced_s, "s")
    out["trace.overhead_s"] = (traced_s - untraced_s, "s")
    out["trace.overhead_calibrated_s"] = (len(tracer.spans) * span_cost, "s")
    out["trace.self_sum_s"] = (self_sum, "s")
    out["trace.remainder_s"] = (traced_s - self_sum, "s")
    out["trace.spans"] = (len(tracer.spans), "count")
    return out
