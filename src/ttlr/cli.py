"""Command-line harness: train, predict, sweep, verify, noise.

One concern per subcommand; every command is scriptable and seed-driven.
Every rejected input, from a helper here or from the library, reaches main
as a ValueError or OSError, whose message goes to stderr with exit status 2.
Exit status 1 means only that a verification suite failed.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

import numpy as np

from .data import NoiseSpec, format_number, read_json, read_libsvm, serialize_libsvm
from .experiment import (
    rows_to_csv,
    rows_to_json,
    run_experiment,
    spec_from_config,
    summarize,
)
from .model import FitConfig, fit, load_model, predict, save_model
from .verify import SUITE_NAMES, format_report, run_verification


def _write_out(text: str, out: str | None):
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _cmd_train(args) -> int:
    data = read_libsvm(args.data)
    model = fit(data, (args.t1, args.t2), args.lam, FitConfig(seed=args.seed))
    save_model(model, args.out)
    trace = model.trace
    print(
        f"fit {data.n} examples, dim {data.dim}, {data.num_classes} classes: "
        f"objective {trace.objective_values[-1]:.6f}, "
        f"{trace.iterations} iterations, {trace.termination}"
    )
    print(f"model written to {args.out}")
    return 0


def _cmd_predict(args) -> int:
    model = load_model(args.model)
    data = read_libsvm(args.data, dim=model.dim)
    labels = np.asarray(model.labels)[predict(model, data.X) - 1]
    truth = np.asarray(data.label_table)[data.y - 1]
    accuracy = float(np.mean(labels == truth))
    print(f"accuracy {accuracy:.4f} on {data.n} examples", file=sys.stderr)
    _write_out("\n".join(format_number(v) for v in labels) + "\n", args.out)
    return 0


def _cmd_sweep(args) -> int:
    config = read_json(args.config)
    try:
        spec = spec_from_config(config)
        if args.seed is not None:
            spec = dataclasses.replace(spec, seed=args.seed)
        if args.time:
            spec = dataclasses.replace(spec, time_fits=True)
    except ValueError as exc:
        raise ValueError(f"invalid experiment config: {exc}") from exc
    rows = run_experiment(spec)
    _write_out(rows_to_json(rows) if args.format == "json" else rows_to_csv(rows), args.out)
    if args.out is not None:
        print(f"{len(rows)} rows written to {args.out}")
    print(summarize(rows))
    return 0


def _cmd_verify(args) -> int:
    suites = SUITE_NAMES if args.suite == "all" else (args.suite,)
    all_passed = True
    for name in suites:
        report = run_verification(name)
        print(format_report(report))
        all_passed = all_passed and report.passed
    return 0 if all_passed else 1


def _cmd_noise(args) -> int:
    data = read_libsvm(args.data)
    spec = NoiseSpec(kind=args.kind, level=args.level, seed=args.seed, sigma=args.sigma)
    noisy = spec.apply(data)
    _write_out(serialize_libsvm(noisy), args.out)
    if args.out is not None:
        print(f"{noisy.n} examples written to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ttlr",
        description="Tempered-loss linear classification: training, "
        "noise-robustness sweeps, and numerical self-verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="fit a model on a LIBSVM file")
    p_train.add_argument("--data", required=True, help="LIBSVM training file")
    p_train.add_argument("--t1", type=float, default=1.0, help="loss temperature in (0,2)")
    p_train.add_argument("--t2", type=float, default=1.0, help="probability temperature in (0,2)")
    p_train.add_argument("--lambda", dest="lam", type=float, default=1e-4, help="ridge weight")
    p_train.add_argument("--seed", type=int, default=0, help="initialization seed")
    p_train.add_argument("--out", required=True, help="output model JSON path")
    p_train.set_defaults(func=_cmd_train)

    p_pred = sub.add_parser("predict", help="predict labels for a LIBSVM file")
    p_pred.add_argument("--model", required=True, help="model JSON from `train`")
    p_pred.add_argument("--data", required=True, help="LIBSVM file to score")
    p_pred.add_argument("--out", default=None, help="write predictions here (default stdout)")
    p_pred.set_defaults(func=_cmd_predict)

    p_sweep = sub.add_parser("sweep", help="run a noise-robustness experiment")
    p_sweep.add_argument("--config", required=True, help="experiment config JSON")
    p_sweep.add_argument("--format", choices=("csv", "json"), default="csv")
    p_sweep.add_argument("--out", default=None, help="write rows here (default stdout)")
    p_sweep.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_sweep.add_argument(
        "--time", action="store_true",
        help="record wall-clock fit seconds (output is then not byte-reproducible)",
    )
    p_sweep.set_defaults(func=_cmd_sweep)

    p_verify = sub.add_parser("verify", help="run numerical self-check suites")
    p_verify.add_argument(
        "--suite", choices=SUITE_NAMES + ("all",), default="all",
        help="which check battery to run",
    )
    p_verify.set_defaults(func=_cmd_verify)

    p_noise = sub.add_parser("noise", help="corrupt a dataset and write it back out")
    p_noise.add_argument("--data", required=True, help="LIBSVM input file")
    p_noise.add_argument("--kind", choices=NoiseSpec.VALID_KINDS, required=True)
    p_noise.add_argument("--level", type=float, required=True, help="ratio or flip probability")
    p_noise.add_argument("--sigma", type=float, default=10.0, help="outlier noise scale")
    p_noise.add_argument("--seed", type=int, default=0)
    p_noise.add_argument("--out", default=None, help="output path (default stdout)")
    p_noise.set_defaults(func=_cmd_noise)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        # the one channel for rejected input, from these helpers and the library
        print(exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
