"""Smoke test of the benchmark itself, at minimum input size.

Run from the repository root:

    python3 -m pytest -q perfbench/test_smoke.py

Checks that every workload runs, that each run prints every metric named in
BENCHMARK.json with its unit, that a deliberately wrong reference turns into
failed ops, and that the benchmark refuses to run without the sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".perfbench_out" / "smoke"  # ignored by git, like all run output
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args, cwd=ROOT):
    cmd = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *map(str, args)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr[-3000:]
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["attempted"] >= 1
    return out


@pytest.fixture(scope="module")
def scratch() -> Path:
    shutil.rmtree(SCRATCH, ignore_errors=True)
    SCRATCH.mkdir(parents=True)
    return SCRATCH


@pytest.fixture(scope="module")
def reference(scratch) -> Path:
    path = scratch / "reference.json"
    for name in WORKLOADS:
        proc = bench("--workload", name, "--size", "smoke", "--write-reference", path)
        assert proc.returncode == 0, proc.stderr[-3000:]
    return path


def smoke_run(name, ref, trace):
    return bench("--workload", name, "--seed", 7, "--seconds", 1, "--trace", trace,
                 "--size", "smoke", "--reference", ref)


@pytest.mark.parametrize("name", WORKLOADS)
@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_reported_with_its_unit(reference, name, trace, section):
    out = result(smoke_run(name, reference, trace))
    assert out["correct"] and out["failed"] == 0
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    got = {k: v["unit"] for k, v in out["metrics"].items()}
    assert got == want
    for k, v in out["metrics"].items():
        assert isinstance(v["value"], (int, float)), k


def _corrupt(ref: dict, name: str) -> None:
    part = ref[name]
    if name == "cv_sweep":
        for rows in part["rows"].values():
            rows[0][2] *= 10.0  # wrong selected lambda
    elif name == "file_train_predict":
        for key, text in part["predictions"].items():
            part["predictions"][key] = "\n".join(
                "99" for _ in text.split()) + "\n"
    elif name == "large_fit":
        part["accuracy_floor"] = 1.01
    else:
        part["deviation_tol"] = -1.0


@pytest.mark.parametrize("name", WORKLOADS)
def test_wrong_reference_counts_failures(reference, scratch, name):
    ref = json.loads(reference.read_text())
    _corrupt(ref, name)
    wrong = scratch / f"wrong-{name}.json"
    wrong.write_text(json.dumps(ref))
    out = result(smoke_run(name, wrong, 0))
    assert not out["correct"]
    assert 0 < out["failed"] <= out["attempted"]


def test_refuses_without_sources(scratch):
    bare = scratch / "bare"
    bare.mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", WORKLOADS[0], "--seed", 1, "--seconds", 1,
                 "--trace", 0, cwd=bare)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_switch_restores_every_binding():
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import importlib

    import tracing

    names = ["ttlr"] + [f"ttlr.{m}" for m, _ in tracing.TARGETS]
    mods = [importlib.import_module(name) for name in names]
    dataset = importlib.import_module("ttlr.data").Dataset

    def bindings():
        out = {(m.__name__, k): v for m in mods for k, v in vars(m).items()}
        out["Dataset.subset"] = vars(dataset)["subset"]
        return out

    before = bindings()
    patches = tracing.install(tracing.Tracer())
    try:
        assert len(patches) > len(tracing.TARGETS)  # re-exports are patched too
        assert all(vars(holder)[key] is wrapper for holder, key, _, wrapper in patches)
        assert bindings()["Dataset.subset"] is not before["Dataset.subset"]
    finally:
        tracing.switch(patches, False)
    assert all(vars(holder)[key] is original for holder, key, original, _ in patches)
    after = bindings()
    assert all(after[k] is before[k] for k in before)
