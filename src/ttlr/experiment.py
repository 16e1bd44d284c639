"""Noise-robustness experiment harness.

Seeded repetitions of: draw (or split) a dataset, corrupt the training
portion, select the ridge weight by cross-validation on the corrupted
training set, fit each method, and score on the untouched test set. All
randomness flows from the single experiment seed through named sub-streams,
so any cell of a sweep is reproducible in isolation.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import math
import os
import re
import time
from dataclasses import dataclass, field

import numpy as np

from .data import Dataset, NoiseSpec, read_libsvm, synth_gaussians
from .loss import TemperaturePair
from .model import FitConfig, TTLRModel, fit, predict
from .tempered import is_number, plain_number, validate_count

__all__ = [
    "MethodSpec",
    "SyntheticSpec",
    "FileSource",
    "CrossValSpec",
    "ExperimentSpec",
    "ResultRow",
    "parse_method",
    "default_lambda_grid",
    "select_lambda",
    "run_experiment",
    "rows_to_csv",
    "rows_to_json",
    "summarize",
    "spec_from_config",
]

LAMBDA_RANGE = (1e-10, 1e2)

# Caps on config sizes: points in a lambda grid, and examples per class.
MAX_LAMBDA_POINTS = 1000
MAX_PER_CLASS = 10**7

# sub-seed stream tags: SeedSequence(seed, spawn_key=(rep, stream, ...))
STREAM_TRAIN = 0
STREAM_TEST = 1
STREAM_NOISE = 2
STREAM_CV = 3
STREAM_INIT = 4


def default_lambda_grid(points: int = 13) -> tuple:
    """Log-spaced ridge weights spanning the full allowed range."""
    lo, hi = LAMBDA_RANGE
    return tuple(float(v) for v in np.logspace(np.log10(lo), np.log10(hi), points))


@dataclass(frozen=True)
class MethodSpec:
    """A named temperature setting; the name is kept verbatim for output."""

    name: str
    temps: TemperaturePair


_METHOD_GRAMMAR = (
    "method must be 'plain_lr', 't_lr(t)' or 'ttlr(t1,t2)' with t in (0, 2)"
)

_FLOAT = r"([0-9]*\.?[0-9]+(?:[eE][+-]?[0-9]+)?)"
_T_LR_RE = re.compile(r"^t_lr\(\s*" + _FLOAT + r"\s*\)$")
_TTLR_RE = re.compile(r"^ttlr\(\s*" + _FLOAT + r"\s*,\s*" + _FLOAT + r"\s*\)$")


def parse_method(name: str) -> MethodSpec:
    text = name.strip() if isinstance(name, str) else ""
    if text == "plain_lr":
        return MethodSpec(text, TemperaturePair(1.0, 1.0))
    m = _T_LR_RE.match(text)
    if m:
        return MethodSpec(text, TemperaturePair(1.0, float(m.group(1))))
    m = _TTLR_RE.match(text)
    if m:
        return MethodSpec(text, TemperaturePair(float(m.group(1)), float(m.group(2))))
    raise ValueError(f"cannot parse method {plain_number(name)!r}: {_METHOD_GRAMMAR}")


def _check(ok: bool, name: str, rule: str, value) -> None:
    """The one form of a spec field's error: the field, its rule and the value given."""
    if not ok:
        raise ValueError(f"{name} must be {rule}, got {plain_number(value)!r}")


def _list_of(value, name: str, what: str, ok=None) -> tuple:
    """value as a tuple if it is a nonempty list, tuple or array whose entries pass ok."""
    _check(
        isinstance(value, (list, tuple, np.ndarray))
        and len(value) > 0
        and (ok is None or all(map(ok, value))),
        name, f"a nonempty list of {what}", value,
    )
    return tuple(value)


@dataclass(frozen=True)
class SyntheticSpec:
    """Two balanced Gaussian classes at +/- mean with unit covariance."""

    train_per_class: int = 1000
    test_per_class: int = 1000
    mean: tuple = (2.0, 0.0)

    def __post_init__(self):
        for name in ("train_per_class", "test_per_class"):
            count = validate_count(getattr(self, name), f"SyntheticSpec {name}", 1, MAX_PER_CLASS)
            object.__setattr__(self, name, count)
        mean = _list_of(self.mean, "SyntheticSpec mean", "finite numbers",
                        lambda v: is_number(v) and math.isfinite(v))
        if not any(mean):
            raise ValueError("SyntheticSpec mean must not be all zeros: +mean and -mean coincide")
        object.__setattr__(self, "mean", tuple(float(v) for v in mean))


@dataclass(frozen=True)
class FileSource:
    """A LIBSVM file re-split into train/test per repetition."""

    path: str
    split: float = 0.5

    def __post_init__(self):
        _check(isinstance(self.path, (str, os.PathLike)), "FileSource path", "a string", self.path)
        _check(is_number(self.split) and 0.0 < self.split < 1.0,
               "FileSource split", "a fraction strictly in (0, 1)", self.split)
        object.__setattr__(self, "split", float(self.split))


@dataclass(frozen=True)
class CrossValSpec:
    folds: int = 5
    lambda_grid: tuple = field(default_factory=default_lambda_grid)

    def __post_init__(self):
        object.__setattr__(self, "folds", validate_count(self.folds, "CrossValSpec folds", 2))
        lo, hi = LAMBDA_RANGE
        grid = _list_of(self.lambda_grid, "CrossValSpec lambda_grid", f"numbers in [{lo}, {hi}]",
                        lambda v: is_number(v) and lo <= v <= hi)
        object.__setattr__(self, "lambda_grid", tuple(float(v) for v in grid))


@dataclass(frozen=True)
class ExperimentSpec:
    methods: tuple
    noise_kind: str = "outlier"
    noise_levels: tuple = (0.0,)
    noise_sigma: float = 10.0
    cv: CrossValSpec = field(default_factory=CrossValSpec)
    repetitions: int = 10
    seed: int = 0
    data: object = field(default_factory=SyntheticSpec)
    time_fits: bool = False

    def __post_init__(self):
        methods = _list_of(self.methods, "ExperimentSpec methods", "methods")
        object.__setattr__(self, "methods", tuple(
            m if isinstance(m, MethodSpec) else parse_method(m) for m in methods
        ))
        levels = _list_of(self.noise_levels, "ExperimentSpec noise_levels", "noise levels")
        for level in levels:
            # the kind, level and sigma rules are NoiseSpec's; fail before the run starts
            NoiseSpec(self.noise_kind, level, seed=0, sigma=self.noise_sigma)
        # NoiseSpec checks sigma for the outlier kind only; the flip kinds ignore it
        _check(is_number(self.noise_sigma), "ExperimentSpec noise_sigma", "a number",
               self.noise_sigma)
        object.__setattr__(self, "noise_levels", tuple(float(v) for v in levels))
        object.__setattr__(self, "noise_sigma", float(self.noise_sigma))
        _check(isinstance(self.cv, CrossValSpec), "ExperimentSpec cv", "a CrossValSpec", self.cv)
        reps = validate_count(self.repetitions, "ExperimentSpec repetitions", 1)
        object.__setattr__(self, "repetitions", reps)
        object.__setattr__(self, "seed", validate_count(self.seed, "ExperimentSpec seed", 0))
        _check(isinstance(self.data, (SyntheticSpec, FileSource)),
               "ExperimentSpec data", "a SyntheticSpec or FileSource", self.data)
        _check(isinstance(self.time_fits, bool), "ExperimentSpec time_fits", "True or False",
               self.time_fits)


@dataclass(frozen=True)
class ResultRow:
    """One sweep cell; its fields, in order, are the CSV and JSON columns (lam as lambda)."""

    method: str
    noise_kind: str
    noise_level: float
    rep: int
    lam: float
    accuracy: float
    seconds: float

    def __post_init__(self):
        if not (0.0 <= self.accuracy <= 1.0):
            raise ValueError("accuracy must lie in [0, 1]")


_RENAMED = {"lam": "lambda"}  # ResultRow fields written under another column name
CSV_HEADER = ",".join(_RENAMED.get(f.name, f.name) for f in dataclasses.fields(ResultRow))


def _columns(row: ResultRow) -> dict:
    """The row as {column name: value}, in column order."""
    return {_RENAMED.get(k, k): v for k, v in dataclasses.asdict(row).items()}


def _sub_seed(seed: int, *key) -> int:
    return int(np.random.SeedSequence(seed, spawn_key=tuple(key)).generate_state(1)[0])


def _accuracy(model: TTLRModel, data: Dataset) -> float:
    return float(np.mean(predict(model, data.X) == data.y))


def _rep_datasets(spec: ExperimentSpec, rep: int, full: Dataset | None):
    if isinstance(spec.data, SyntheticSpec):
        src = spec.data
        mean = np.asarray(src.mean, dtype=float)
        means = [mean, -mean]
        train = synth_gaussians(
            src.train_per_class, means, seed=_sub_seed(spec.seed, rep, STREAM_TRAIN)
        )
        test = synth_gaussians(
            src.test_per_class, means, seed=_sub_seed(spec.seed, rep, STREAM_TEST)
        )
        return train, test
    rng = np.random.default_rng(_sub_seed(spec.seed, rep, STREAM_TRAIN))
    perm = rng.permutation(full.n)
    cut = int(round(spec.data.split * full.n))
    if cut < 1 or cut >= full.n:
        raise ValueError("split leaves an empty train or test set")
    return full.subset(perm[:cut]), full.subset(perm[cut:])


def select_lambda(train: Dataset, temps, cv: CrossValSpec, cv_seed: int, init_seed: int) -> float:
    """The grid's ridge weight with the best mean validation accuracy over k folds.

    Each fold fits the grid from the largest lambda down. Its first fit
    starts from the seeded near-zero init and every later fit from the
    previous lambda's W, the warm-started regularization path of Friedman,
    Hastie and Tibshirani (JSS 2010), which needs about half the objective
    evaluations of cold starts. Ties resolve to the larger lambda, so the
    result does not depend on the grid's order.
    """
    if cv.folds > train.n:
        raise ValueError(f"{cv.folds}-fold cross-validation needs at least {cv.folds} "
                         f"training rows, got {train.n}")
    rng = np.random.default_rng(cv_seed)
    folds = np.array_split(rng.permutation(train.n), cv.folds)
    config = FitConfig(seed=init_seed)
    lams = sorted(cv.lambda_grid, reverse=True)
    accs = np.empty((len(lams), cv.folds))
    for k in range(cv.folds):
        fold_train = train.subset(np.concatenate(folds[:k] + folds[k + 1:]))
        fold_val = train.subset(folds[k])
        W = None
        for i, lam in enumerate(lams):
            model = fit(fold_train, temps, lam, config, init=W)
            W = model.W
            accs[i, k] = _accuracy(model, fold_val)
    mean_accs = accs.mean(axis=1)
    best = mean_accs.max()
    return max(lam for lam, acc in zip(lams, mean_accs) if acc == best)


def run_experiment(spec: ExperimentSpec) -> list:
    """All sweep cells, emitted in (method, noise level, repetition) order.

    Per repetition the base train/test draw is shared by every level and
    method; per level the corrupted training set is shared by every method.
    Wall-clock seconds cover the final fit only and are written as 0.0 unless
    spec.time_fits is set, keeping default output byte-reproducible.
    """
    full = read_libsvm(spec.data.path) if isinstance(spec.data, FileSource) else None
    cells = {}
    for rep in range(spec.repetitions):
        train, test = _rep_datasets(spec, rep, full)
        for li, level in enumerate(spec.noise_levels):
            noise = NoiseSpec(
                kind=spec.noise_kind,
                level=level,
                seed=_sub_seed(spec.seed, rep, STREAM_NOISE, li),
                sigma=spec.noise_sigma,
            )
            noisy = noise.apply(train)
            cv_seed = _sub_seed(spec.seed, rep, STREAM_CV, li)
            for mi, method in enumerate(spec.methods):
                init_seed = _sub_seed(spec.seed, rep, STREAM_INIT, li, mi)
                lam = select_lambda(noisy, method.temps, spec.cv, cv_seed, init_seed)
                start = time.perf_counter()
                model = fit(noisy, method.temps, lam, FitConfig(seed=init_seed))
                seconds = time.perf_counter() - start if spec.time_fits else 0.0
                cells[(mi, li, rep)] = ResultRow(
                    method=method.name,
                    noise_kind=spec.noise_kind,
                    noise_level=level,
                    rep=rep,
                    lam=lam,
                    accuracy=_accuracy(model, test),
                    seconds=seconds,
                )
    return [cells[key] for key in sorted(cells)]


def rows_to_csv(rows) -> str:
    """The rows under CSV_HEADER, in CSV quoting, floats in shortest repr form.

    A field that holds a comma, such as the method ttlr(0.6,1.6), is
    double-quoted; every other field is written bare.
    """
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_HEADER.split(","))
    for r in rows:
        values = _columns(r).values()
        writer.writerow([repr(float(v)) if isinstance(v, float) else v for v in values])
    return out.getvalue()


def rows_to_json(rows) -> str:
    return json.dumps([_columns(r) for r in rows], indent=2) + "\n"


def summarize(rows) -> str:
    """Mean and sample standard deviation of accuracy per sweep cell."""
    order = []
    groups = {}
    for r in rows:
        key = (r.method, r.noise_kind, r.noise_level)
        if key not in groups:
            groups[key] = []
            order.append(key)
        groups[key].append(r.accuracy)
    lines = [f"{'method':<18} {'noise_kind':<12} {'level':>6}  accuracy"]
    for key in order:
        accs = np.asarray(groups[key])
        std = accs.std(ddof=1) if accs.size > 1 else 0.0
        lines.append(
            f"{key[0]:<18} {key[1]:<12} {key[2]:>6g}  "
            f"{accs.mean():.4f} +/- {std:.4f}  (n={accs.size})"
        )
    return "\n".join(lines)


def _section(config: dict, key: str, keys) -> dict:
    """A copy of the JSON object config[key] (default {}) holding only `keys`, else an error."""
    section = config.get(key, {})
    if not isinstance(section, dict):
        raise ValueError(f"config '{key}' must be a JSON object, got {section!r}")
    unknown = set(section) - set(keys)
    if unknown:
        raise ValueError(f"unknown {key} keys: {sorted(unknown)}")
    return dict(section)


def spec_from_config(config: dict) -> ExperimentSpec:
    """Build an ExperimentSpec from a parsed JSON config dictionary.

    Schema (all keys optional except methods; one left out takes the spec's default):
      methods: list of method strings
      noise: {kind, levels, sigma}
      cv: {folds, lambda_points} or {folds, lambda_grid}
      data: {train_per_class, test_per_class, mean}
            or {path, split}
      repetitions, seed, time_fits: scalars

    Only the JSON shape is checked here: the root and each section must be
    objects without unknown keys, methods must be present, and lambda_points
    (the one key no spec field holds) must be a count of at most
    MAX_LAMBDA_POINTS. Every value is checked by the spec it fills, so a bad
    value reads as it would given to the spec directly: cv.* fills
    CrossValSpec, data.* SyntheticSpec or FileSource, noise.x the
    ExperimentSpec field noise_x, and every other key its ExperimentSpec field.
    """
    if not isinstance(config, dict):
        raise ValueError("config root must be a JSON object")
    known = {"methods", "noise", "cv", "data", "repetitions", "seed", "time_fits"}
    unknown = set(config) - known
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    if "methods" not in config:
        raise ValueError("config needs a 'methods' list")
    kwargs = {key: config[key] for key in ("methods", "repetitions", "seed", "time_fits")
              if key in config}
    noise = _section(config, "noise", ("kind", "levels", "sigma"))
    kwargs.update((f"noise_{key}", value) for key, value in noise.items())
    cv = _section(config, "cv", ("folds", "lambda_grid", "lambda_points"))
    if "lambda_points" in cv:
        if "lambda_grid" in cv:
            raise ValueError("give either lambda_grid or lambda_points, not both")
        name = "config 'cv.lambda_points'"
        points = validate_count(cv.pop("lambda_points"), name, 1, MAX_LAMBDA_POINTS)
        cv["lambda_grid"] = default_lambda_grid(points)
    kwargs["cv"] = CrossValSpec(**cv)
    from_file = isinstance(config.get("data"), dict) and "path" in config["data"]
    if from_file:
        kwargs["data"] = FileSource(**_section(config, "data", ("path", "split")))
    else:
        keys = ("train_per_class", "test_per_class", "mean")
        kwargs["data"] = SyntheticSpec(**_section(config, "data", keys))
    return ExperimentSpec(**kwargs)
