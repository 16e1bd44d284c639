#!/usr/bin/env python3
"""Golden-output manifest: the fixed-seed outputs a change may move.

    python3 tools/golden.py --out NEW.json            # record this tree's outputs
    python3 tools/golden.py --diff OLD.json NEW.json  # report what moved

Without --out or --diff the manifest goes to stdout: recording never
overwrites the committed tools/golden.json unless it is named with --out.
Like diff(1), --diff exits 0 when every artifact is identical and 1 when
any moved or is in one manifest only, so "no output byte moved" is its
exit status.

Artifacts: a `ttlr sweep` CSV, `ttlr train` model JSONs at three temperature
pairs on a 3-class file with the matching `ttlr predict` output, the
minimizers `a_star` of the first 113 criterion-7 Bayes checks, and the stdout
of every script in `demos/`. Each is stored as a sha256 plus the numbers
needed to compare it without the bytes. Bits can differ across BLAS builds,
so the manifest records what a change moved; it is not a test gate.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SWEEP_CONFIG = {
    "methods": ["plain_lr", "t_lr(1.6)", "ttlr(0.6,1.6)", "ttlr(0.8,0.6)"],
    "noise": {"kind": "outlier", "levels": [0.0, 0.2]},
    "cv": {"folds": 3, "lambda_points": 5},
    "data": {"train_per_class": 200, "test_per_class": 200},
    "repetitions": 2,
    "seed": 3,
}
TRAIN_TEMPS = ((0.8, 0.6), (0.6, 1.6), (1.0, 1.0))
CLASS_MEANS = ((1.0, 0.0), (-1.0, 0.0), (0.0, 1.5))
BAYES_CHECKS = 113


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _python(args, cwd) -> str:
    """Stdout of a Python run against this tree's package."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, *args], cwd=cwd, env=env, check=True,
                          capture_output=True, text=True)
    return done.stdout


def _cli_artifacts(tmp: Path) -> dict:
    from ttlr.data import serialize_libsvm, synth_gaussians

    cfg = tmp / "sweep.json"
    cfg.write_text(json.dumps(SWEEP_CONFIG))
    _python(["-m", "ttlr", "sweep", "--config", str(cfg), "--out", str(tmp / "rows.csv")], tmp)
    rows = (tmp / "rows.csv").read_text()
    out = {"sweep": {"sha256": _sha(rows), "rows": list(csv.reader(rows.splitlines()))}}

    train, test = tmp / "train.libsvm", tmp / "test.libsvm"
    train.write_text(serialize_libsvm(synth_gaussians(150, CLASS_MEANS, seed=11)))
    test.write_text(serialize_libsvm(synth_gaussians(150, CLASS_MEANS, seed=12)))
    for t1, t2 in TRAIN_TEMPS:
        model = tmp / f"model_{t1}_{t2}.json"
        stdout = _python(["-m", "ttlr", "train", "--data", str(train), "--t1", str(t1),
                          "--t2", str(t2), "--out", str(model)], tmp)
        text = model.read_text()
        labels = _python(["-m", "ttlr", "predict", "--model", str(model),
                          "--data", str(test)], tmp)
        out[f"train({t1},{t2})"] = {
            "sha256": _sha(text),
            "stdout": stdout.splitlines()[0],
            "weights": json.loads(text)["weights"],
        }
        out[f"predict({t1},{t2})"] = {"sha256": _sha(labels), "labels": labels.split()}
    return out


def _bayes_artifact() -> dict:
    """a_star along the criterion-7 stream (tests/test_acceptance.py)."""
    import numpy as np

    from ttlr.analysis import bayes_multiclass_check
    from ttlr.loss import TemperaturePair

    rng = np.random.default_rng(20240503)
    temps = TemperaturePair(0.6, 1.6)
    stars = []
    for _ in range(BAYES_CHECKS):
        p = rng.dirichlet(np.ones(int(rng.integers(3, 6))))
        p = np.clip(p, 1e-3, None)
        p /= p.sum()
        stars.append([float(v) for v in bayes_multiclass_check(p, temps).a_star])
    return {"sha256": _sha(json.dumps(stars)), "a_star": stars}


def record() -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    with tempfile.TemporaryDirectory() as name:
        manifest = _cli_artifacts(Path(name))
        manifest["bayes_a_star"] = _bayes_artifact()
        for demo in sorted((ROOT / "demos").glob("*.py")):
            stdout = _python([str(demo)], name)
            manifest[f"demo:{demo.name}"] = {"sha256": _sha(stdout), "lines": stdout.splitlines()}
    return manifest


def _dumps(manifest: dict) -> str:
    """JSON with one line per list item, so a git diff shows what moved."""
    def field(value):
        if not isinstance(value, list):
            return json.dumps(value)
        return "[\n   " + ",\n   ".join(json.dumps(v) for v in value) + "\n  ]"

    blocks = []
    for key, art in manifest.items():
        body = ",\n".join(f"  {json.dumps(k)}: {field(v)}" for k, v in art.items())
        blocks.append(f" {json.dumps(key)}: {{\n{body}\n }}")
    return "{\n" + ",\n".join(blocks) + "\n}\n"


def _max_abs_diff(old, new) -> float:
    flat = lambda x: [v for row in x for v in row]  # noqa: E731
    a, b = flat(old), flat(new)
    if len(a) != len(b):
        return float("inf")
    return max((abs(u - v) for u, v in zip(a, b)), default=0.0)


def diff(old: dict, new: dict) -> list[str]:
    lines = []
    for key in sorted(set(old) | set(new)):
        if key not in old or key not in new:
            lines.append(f"{key}: only in {'new' if key in new else 'old'} manifest")
            continue
        a, b = old[key], new[key]
        if a["sha256"] == b["sha256"]:
            lines.append(f"{key}: identical")
        elif key == "sweep":
            header, *rows_a = a["rows"]
            moved = [(ra, rb) for ra, rb in zip(rows_a, b["rows"][1:]) if ra != rb]
            lines.append(f"{key}: {len(moved)} of {len(rows_a)} rows changed")
            lines += [f"  {' '.join(ra[:4])}: lambda {ra[4]} -> {rb[4]}, accuracy {ra[5]} -> {rb[5]}"
                      for ra, rb in moved]
        elif key.startswith("train"):
            lines.append(f"{key}: max |dW| = {_max_abs_diff(a['weights'], b['weights']):.3e}")
            if a["stdout"] != b["stdout"]:
                lines.append(f"  - {a['stdout']}\n  + {b['stdout']}")
        elif key.startswith("predict"):
            moved = sum(u != v for u, v in zip(a["labels"], b["labels"]))
            lines.append(f"{key}: {moved} of {len(a['labels'])} predictions changed")
        elif key == "bayes_a_star":
            moved = sum(u != v for u, v in zip(a["a_star"], b["a_star"]))
            worst = _max_abs_diff(a["a_star"], b["a_star"])
            lines.append(f"{key}: {moved} of {len(a['a_star'])} checks changed, "
                         f"max |d a_star| = {worst:.3e}")
        else:
            moved = [(u, v) for u, v in zip(a["lines"], b["lines"]) if u != v]
            lines.append(f"{key}: {len(moved)} of {len(a['lines'])} lines changed")
            lines += [f"  - {u}\n  + {v}" for u, v in moved]
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", help="file to record to (default: stdout)")
    parser.add_argument("--diff", nargs=2, metavar=("OLD", "NEW"))
    args = parser.parse_args(argv)
    if args.diff:
        old, new = (json.loads(Path(p).read_text()) for p in args.diff)
        print("\n".join(diff(old, new)))
        same = old.keys() == new.keys() and all(old[k]["sha256"] == new[k]["sha256"] for k in old)
        return 0 if same else 1
    manifest = _dumps(record())
    if args.out:
        Path(args.out).write_text(manifest)
    else:
        sys.stdout.write(manifest)
    return 0


if __name__ == "__main__":
    sys.exit(main())
