"""Noise-robustness sweep harness: seeding, CV, row layout, serialization."""

import csv
import dataclasses
import json
import math
import pathlib
import re

import numpy as np
import pytest

import ttlr.experiment as experiment
from ttlr.data import NoiseSpec, serialize_libsvm, synth_gaussians
from ttlr.experiment import (
    CSV_HEADER,
    CrossValSpec,
    ExperimentSpec,
    FileSource,
    ResultRow,
    SyntheticSpec,
    default_lambda_grid,
    parse_method,
    rows_to_csv,
    rows_to_json,
    run_experiment,
    select_lambda,
    spec_from_config,
    summarize,
)
from ttlr.loss import TemperaturePair
from ttlr.model import FitConfig, fit, predict

TINY_DATA = SyntheticSpec(train_per_class=60, test_per_class=60)
TINY_CV = CrossValSpec(folds=3, lambda_grid=(1e-6, 1e-3, 1e-1))


def tiny_spec(**overrides):
    base = dict(
        methods=("plain_lr", "ttlr(0.6,1.6)"),
        noise_kind="outlier",
        noise_levels=(0.0, 0.2),
        cv=TINY_CV,
        repetitions=2,
        seed=11,
        data=TINY_DATA,
    )
    base.update(overrides)
    return ExperimentSpec(**base)


def test_parse_method_grammar():
    m = parse_method("plain_lr")
    assert m.temps == TemperaturePair(1.0, 1.0)
    assert m.name == "plain_lr"
    m = parse_method("t_lr(1.6)")
    assert m.temps == TemperaturePair(1.0, 1.6)
    m = parse_method("ttlr(0.6,1.6)")
    assert m.temps == TemperaturePair(0.6, 1.6)
    m = parse_method("ttlr(0.6, 1.6)")
    assert m.temps == TemperaturePair(0.6, 1.6)
    for bad in ("lr", "ttlr", "ttlr(1)", "ttlr(0.6;1.6)", "t_lr(x)", "t_lr", "t_lr(2.5)", "t_lr(0)"):
        with pytest.raises(ValueError):
            parse_method(bad)
    # in-range grammar with out-of-range temperature
    with pytest.raises(ValueError):
        parse_method("ttlr(0.0,1.6)")


def test_default_lambda_grid_shape():
    grid = default_lambda_grid()
    assert len(grid) == 13
    assert grid[0] == pytest.approx(1e-10)
    assert grid[-1] == pytest.approx(1e2)
    assert all(b > a for a, b in zip(grid, grid[1:]))


def test_cross_val_spec_validation():
    CrossValSpec(folds=5, lambda_grid=(1e-10, 1.0, 1e2))
    with pytest.raises(ValueError):
        CrossValSpec(folds=1)
    with pytest.raises(ValueError):
        CrossValSpec(lambda_grid=(1e-12, 1.0))
    with pytest.raises(ValueError):
        CrossValSpec(lambda_grid=(1.0, 1e3))
    with pytest.raises(ValueError):
        CrossValSpec(lambda_grid=())


def test_cross_val_spec_rejects_nonfinite_grid_entries():
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match=f"lambda grid entries must be finite, got {bad}"):
            CrossValSpec(lambda_grid=(1e-3, bad))


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: tiny_spec(seed=-1), "ExperimentSpec seed must be an integer >= 0, got -1"),
        (lambda: tiny_spec(seed=1.5), "ExperimentSpec seed must be an integer >= 0, got 1.5"),
        (lambda: tiny_spec(repetitions=2.5),
         "ExperimentSpec repetitions must be an integer >= 1, got 2.5"),
        (lambda: tiny_spec(repetitions=True),
         "ExperimentSpec repetitions must be an integer >= 1, got True"),
        (lambda: CrossValSpec(folds=2.5), "CrossValSpec folds must be an integer >= 2, got 2.5"),
        (lambda: CrossValSpec(folds=1), "CrossValSpec folds must be an integer >= 2, got 1"),
        (lambda: SyntheticSpec(train_per_class=2.5),
         "SyntheticSpec train_per_class must be an integer >= 1, got 2.5"),
        (lambda: SyntheticSpec(test_per_class=0),
         "SyntheticSpec test_per_class must be an integer >= 1, got 0"),
        (lambda: SyntheticSpec(train_per_class=10**7 + 1),
         "SyntheticSpec train_per_class must be at most 10000000, got 10000001"),
    ],
)
def test_specs_built_directly_name_a_bad_count(build, message):
    # caught at construction, not later inside run_experiment
    with pytest.raises(ValueError, match=re.escape(message)):
        build()


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: SyntheticSpec(mean="ab"),
         "SyntheticSpec mean must be a nonempty list of finite numbers, got 'ab'"),
        (lambda: SyntheticSpec(mean=(float("nan"), 0.0)),
         "SyntheticSpec mean must be a nonempty list of finite numbers, got (nan, 0.0)"),
        (lambda: SyntheticSpec(mean=(2.0, True)),
         "SyntheticSpec mean must be a nonempty list of finite numbers, got (2.0, True)"),
        (lambda: SyntheticSpec(mean=()),
         "SyntheticSpec mean must be a nonempty list of finite numbers, got ()"),
        (lambda: SyntheticSpec(mean=[0.0, -0.0]), "SyntheticSpec mean must not be all zeros"),
        # an int path would open a file descriptor
        (lambda: FileSource(99), "FileSource path must be a string, got 99"),
        (lambda: tiny_spec(noise_levels=()), "need at least one noise level"),
        (lambda: tiny_spec(data="blobs.svm"), "data must be a SyntheticSpec or FileSource"),
    ],
)
def test_specs_built_directly_name_a_bad_field(build, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        build()


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: NoiseSpec("outlier", np.float64(0.7), 0),
         "noise level (ratio) must lie in [0, 0.5], got 0.7"),
        (lambda: NoiseSpec("random_flip", np.float32(1.5), 0),
         "noise level (flip probability) must lie in [0, 1], got 1.5"),
        (lambda: NoiseSpec("outlier", 0.1, 0, sigma=np.int64(-2)),
         "noise sigma must be finite and > 0, got -2"),
        (lambda: NoiseSpec("outlier", "0.1", 0), "noise level (ratio) must lie in [0, 0.5], got '0.1'"),
        (lambda: tiny_spec(methods=(1.6,)), "cannot parse method 1.6: method must be"),
        (lambda: tiny_spec(noise_sigma="10"), "noise sigma must be finite and > 0, got '10'"),
        (lambda: tiny_spec(noise_levels=(None,)),
         "noise level (ratio) must lie in [0, 0.5], got None"),
        (lambda: FileSource("x.svm", split="0.5"), "split fraction must lie strictly in (0, 1)"),
    ],
)
def test_specs_built_directly_name_a_mistyped_or_numpy_value(build, message):
    with pytest.raises(ValueError) as err:
        build()
    assert str(err.value).startswith(message)
    assert "np." not in str(err.value)


def test_specs_built_directly_keep_integer_counts():
    spec = tiny_spec(seed=np.int64(3), repetitions=2.0, cv=CrossValSpec(folds=3.0))
    assert (spec.seed, spec.repetitions, spec.cv.folds) == (3, 2, 3)
    assert all(type(v) is int for v in (spec.seed, spec.repetitions, spec.cv.folds))
    data = SyntheticSpec(train_per_class=4.0, test_per_class=np.int64(5), mean=np.array([1, 0]))
    assert (data.train_per_class, data.test_per_class, data.mean) == (4, 5, (1.0, 0.0))
    assert FileSource(pathlib.Path("x.svm")).path == pathlib.Path("x.svm")


def test_noise_settings_reject_nan():
    nan = float("nan")
    with pytest.raises(ValueError, match="noise sigma must be finite and > 0, got nan"):
        NoiseSpec("outlier", 0.1, seed=0, sigma=nan)
    # both fail at construction, before any fit; a clean-only sweep too
    with pytest.raises(ValueError, match="noise level .* got nan"):
        tiny_spec(noise_levels=(0.0, nan))
    with pytest.raises(ValueError, match="noise level .* got nan"):
        tiny_spec(noise_kind="random_flip", noise_levels=(nan,))
    with pytest.raises(ValueError, match="noise sigma must be finite and > 0, got nan"):
        tiny_spec(noise_levels=(0.0,), noise_sigma=nan)


def test_experiment_spec_validation():
    with pytest.raises(ValueError):
        tiny_spec(noise_kind="gaussian_blur")
    with pytest.raises(ValueError):
        tiny_spec(repetitions=0)
    with pytest.raises(ValueError):
        tiny_spec(methods=())
    with pytest.raises(ValueError):
        tiny_spec(noise_levels=(0.0, 0.7))
    spec = tiny_spec()
    assert [m.name for m in spec.methods] == ["plain_lr", "ttlr(0.6,1.6)"]


def test_run_experiment_row_layout():
    rows = run_experiment(tiny_spec())
    # methods x levels x reps, ordered method-major then level then rep
    assert len(rows) == 2 * 2 * 2
    keys = [(r.method, r.noise_level, r.rep) for r in rows]
    assert keys == sorted(
        keys, key=lambda k: (["plain_lr", "ttlr(0.6,1.6)"].index(k[0]), k[1], k[2])
    )
    for r in rows:
        assert r.noise_kind == "outlier"
        assert 0.0 <= r.accuracy <= 1.0
        assert r.seconds == 0.0
        assert r.lam in TINY_CV.lambda_grid


def test_run_experiment_is_deterministic():
    rows1 = run_experiment(tiny_spec())
    rows2 = run_experiment(tiny_spec())
    assert rows_to_csv(rows1) == rows_to_csv(rows2)


def test_level_rows_do_not_depend_on_other_levels():
    # seeds are keyed by position, not drawn sequentially, so dropping a
    # level must not change the surviving rows
    both = run_experiment(tiny_spec(noise_levels=(0.0, 0.2)))
    clean_only = run_experiment(tiny_spec(noise_levels=(0.0,)))
    kept = [r for r in both if r.noise_level == 0.0]
    assert rows_to_csv(kept) == rows_to_csv(clean_only)


def test_method_rows_do_not_depend_on_other_methods():
    both = run_experiment(tiny_spec())
    solo = run_experiment(tiny_spec(methods=("plain_lr",)))
    kept = [r for r in both if r.method == "plain_lr"]
    assert rows_to_csv(kept) == rows_to_csv(solo)


def test_time_fits_flag_controls_seconds():
    rows = run_experiment(
        tiny_spec(repetitions=1, noise_levels=(0.0,), time_fits=True)
    )
    assert all(r.seconds > 0.0 for r in rows)


def test_select_lambda_breaks_ties_upward():
    # wide-margin blobs: every lambda in the grid separates perfectly, so the
    # tie resolves to the largest candidate
    train = synth_gaussians(30, [(8.0, 0.0), (-8.0, 0.0)], seed=3)
    cv = CrossValSpec(folds=3, lambda_grid=(1e-8, 1e-4, 1e-2))
    lam = select_lambda(train, TemperaturePair(1.0, 1.0), cv, cv_seed=5, init_seed=6)
    assert lam == 1e-2


def test_select_lambda_is_deterministic():
    train = synth_gaussians(40, [(2.0, 0.0), (-2.0, 0.0)], seed=9)
    cv = CrossValSpec(folds=4, lambda_grid=(1e-6, 1e-3, 1e-1))
    args = (train, TemperaturePair(0.6, 1.6), cv)
    assert select_lambda(*args, cv_seed=1, init_seed=2) == select_lambda(
        *args, cv_seed=1, init_seed=2
    )


# Fixed-seed CV problem for the warm-start tests: 60 rows per class at
# (+/-1, 0), 3 folds over 7 lambdas. plain_lr picks 1.0 and ttlr(0.6,1.6)
# picks 0.01, so neither pick is the first (cold) fit of a fold's path.
PATH_TRAIN = synth_gaussians(60, [(1.0, 0.0), (-1.0, 0.0)], seed=4)
PATH_CV = CrossValSpec(folds=3, lambda_grid=default_lambda_grid(7))


REAL_ACCURACY = experiment._accuracy


def recorded_select_lambda(monkeypatch, temps, cv=PATH_CV):
    """select_lambda's pick and the (lambda, accuracy, evaluations) of each of its fits."""
    seen = []

    def recording_accuracy(model, data):
        acc = REAL_ACCURACY(model, data)
        seen.append((model.lam, acc, model.trace.evaluations))
        return acc

    monkeypatch.setattr(experiment, "_accuracy", recording_accuracy)
    return select_lambda(PATH_TRAIN, temps, cv, cv_seed=1, init_seed=2), seen


def warm_path(monkeypatch, temps):
    """select_lambda's pick, its per-lambda mean accuracy and its summed evaluations."""
    lam, seen = recorded_select_lambda(monkeypatch, temps)
    means = {g: float(np.mean([a for v, a, _ in seen if v == g])) for g in PATH_CV.lambda_grid}
    return lam, means, sum(e for _, _, e in seen)


def cold_path(temps):
    """The same search with every fit from the seeded init, as a plain loop."""
    folds = np.array_split(np.random.default_rng(1).permutation(PATH_TRAIN.n), PATH_CV.folds)
    means, evaluations = {}, 0
    for lam in PATH_CV.lambda_grid:
        accs = []
        for k in range(PATH_CV.folds):
            part = PATH_TRAIN.subset(np.concatenate(folds[:k] + folds[k + 1:]))
            model = fit(part, temps, lam, FitConfig(seed=2))
            evaluations += model.trace.evaluations
            val = PATH_TRAIN.subset(folds[k])
            accs.append(np.mean(predict(model, val.X) == val.y))
        means[lam] = float(np.mean(accs))
    best = max(means.values())
    return max(lam for lam, acc in means.items() if acc == best), means, evaluations


def test_select_lambda_does_not_depend_on_grid_order(monkeypatch):
    # each fold's path runs from the largest lambda down whatever the grid's
    # order, so every fit is the same, not only the pick
    temps = TemperaturePair(0.6, 1.6)
    grid = PATH_CV.lambda_grid
    want = recorded_select_lambda(monkeypatch, temps)
    shuffled = (grid[2], grid[6], grid[0], *grid[3:6], grid[1])
    for order in (grid[::-1], grid[3:] + grid[:3], shuffled):
        cv = CrossValSpec(folds=PATH_CV.folds, lambda_grid=order)
        assert recorded_select_lambda(monkeypatch, temps, cv) == want


def test_warm_path_matches_cold_starts_on_plain_lr(monkeypatch):
    # the plain_lr objective is convex, so warm and cold starts reach the
    # same minimizer up to grad_tol and classify every validation row alike
    temps = TemperaturePair(1.0, 1.0)
    lam, means, _ = warm_path(monkeypatch, temps)
    cold_lam, cold_means, _ = cold_path(temps)
    assert lam == cold_lam
    assert means == cold_means


@pytest.mark.parametrize("temps", [(1.0, 1.0), (0.6, 1.6)])
def test_warm_path_needs_fewer_evaluations(monkeypatch, temps):
    # 114 against 191 evaluations for plain_lr, 152 against 254 for ttlr(0.6,1.6)
    _, _, evaluations = warm_path(monkeypatch, TemperaturePair(*temps))
    _, _, cold_evaluations = cold_path(TemperaturePair(*temps))
    assert evaluations < cold_evaluations


def test_select_lambda_rejects_fewer_rows_than_folds(monkeypatch):
    def no_fit(*args, **kwargs):
        raise AssertionError("fit called before the fold count was checked")

    monkeypatch.setattr(experiment, "fit", no_fit)
    train = synth_gaussians(1, [(2.0, 0.0), (-2.0, 0.0)], seed=9)
    cv = CrossValSpec(folds=5, lambda_grid=(1e-3,))
    with pytest.raises(ValueError, match="5-fold .* got 2"):
        select_lambda(train, TemperaturePair(1.0, 1.0), cv, cv_seed=1, init_seed=2)


def test_rows_to_csv_layout():
    rows = run_experiment(tiny_spec(repetitions=1))
    text = rows_to_csv(rows)
    lines = text.strip().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == len(rows) + 1
    first = lines[1].split(",")
    assert first[0] == "plain_lr"
    assert first[1] == "outlier"
    assert first[2] == "0.0"
    assert first[3] == "0"
    float(first[4])
    acc = float(first[5])
    assert 0.0 <= acc <= 1.0
    assert first[6] == "0.0"
    # a method name holding a comma is quoted, so a CSV reader sees 7 fields
    parsed = list(csv.reader(text.splitlines()))
    tempered = [f for f in parsed[1:] if f[0].startswith("ttlr(")]
    assert tempered
    assert all(len(f) == 7 for f in parsed)
    assert tempered[0][0] == "ttlr(0.6,1.6)"
    assert '"ttlr(0.6,1.6)",outlier,' in text


def test_sweep_columns_are_the_result_row_fields():
    rows = run_experiment(tiny_spec(repetitions=1, noise_levels=(0.0,)))
    fields = [f.name for f in dataclasses.fields(ResultRow)]
    assert CSV_HEADER.split(",") == [("lambda" if f == "lam" else f) for f in fields]
    payload = json.loads(rows_to_json(rows))
    assert [list(record) for record in payload] == [CSV_HEADER.split(",")] * len(rows)
    parsed = list(csv.reader(rows_to_csv(rows).splitlines()))
    for row, record, line in zip(rows, payload, parsed[1:]):
        assert record["lambda"] == row.lam and line[4] == repr(row.lam)
        assert line == [repr(v) if isinstance(v, float) else str(v) for v in record.values()]


def test_rows_to_json_round_trip():
    rows = run_experiment(tiny_spec(repetitions=1, noise_levels=(0.0,)))
    payload = json.loads(rows_to_json(rows))
    assert len(payload) == len(rows)
    assert payload[0]["method"] == rows[0].method
    assert payload[0]["accuracy"] == rows[0].accuracy
    assert payload[0]["lambda"] == rows[0].lam


def test_summarize_groups_cells():
    rows = run_experiment(tiny_spec())
    text = summarize(rows)
    assert "plain_lr" in text
    assert "ttlr(0.6,1.6)" in text
    # one summary line per (method, level) cell
    body = [ln for ln in text.strip().splitlines() if "+/-" in ln]
    assert len(body) == 4
    assert all("(n=2)" in ln for ln in body)


def test_file_source_split(tmp_path):
    data = synth_gaussians(50, [(2.0, 0.0), (-2.0, 0.0)], seed=21)
    path = tmp_path / "blobs.svm"
    path.write_text(serialize_libsvm(data))
    spec = tiny_spec(
        data=FileSource(str(path), split=0.5),
        repetitions=2,
        noise_levels=(0.0,),
        methods=("plain_lr",),
    )
    rows = run_experiment(spec)
    assert len(rows) == 2
    # different reps draw different splits, so accuracies may differ but both
    # runs of the same spec agree
    again = run_experiment(spec)
    assert rows_to_csv(rows) == rows_to_csv(again)


def test_file_source_errors_name_the_problem(tmp_path):
    path = tmp_path / "two.svm"
    path.write_text("1 1:1\n2 1:-1\n")
    spec = tiny_spec(data=FileSource(str(path), split=0.1), repetitions=1, noise_levels=(0.0,))
    with pytest.raises(ValueError, match="split leaves an empty train or test set"):
        run_experiment(spec)
    missing = tmp_path / "none.svm"
    spec = tiny_spec(data=FileSource(str(missing)))
    with pytest.raises(ValueError, match=re.escape(f"cannot read {missing}: ")):
        run_experiment(spec)


def test_file_source_validation():
    with pytest.raises(ValueError):
        FileSource("x.svm", split=0.0)
    with pytest.raises(ValueError):
        FileSource("x.svm", split=1.0)


def test_spec_from_config_full():
    cfg = {
        "methods": ["plain_lr", "ttlr(0.6,1.6)"],
        "noise": {"kind": "random_flip", "levels": [0.0, 0.1], "sigma": 10.0},
        "cv": {"folds": 3, "lambda_points": 5},
        "data": {"train_per_class": 80, "test_per_class": 90},
        "repetitions": 4,
        "seed": 77,
        "time_fits": True,
    }
    spec = spec_from_config(cfg)
    assert spec.noise_kind == "random_flip"
    assert spec.noise_levels == (0.0, 0.1)
    assert spec.cv.folds == 3
    assert len(spec.cv.lambda_grid) == 5
    assert isinstance(spec.data, SyntheticSpec)
    assert spec.data.train_per_class == 80
    assert spec.repetitions == 4
    assert spec.time_fits


def test_spec_from_config_defaults_are_the_spec_defaults():
    # a key left out takes the dataclass default; the config is not modified
    cfg = {
        "methods": ["plain_lr"],
        "noise": {"levels": [0.1]},
        "cv": {"folds": 3},
        "data": {"train_per_class": 20.0},
    }
    before = json.dumps(cfg)
    spec = spec_from_config(cfg)
    assert json.dumps(cfg) == before
    assert spec == ExperimentSpec(
        methods=("plain_lr",), noise_levels=(0.1,), cv=CrossValSpec(folds=3),
        data=SyntheticSpec(train_per_class=20),
    )
    assert spec_from_config({"methods": ["plain_lr"], "data": {"path": "x.svm"}}).data == (
        FileSource("x.svm")
    )
    assert spec_from_config({"methods": ["plain_lr"], "noise": {}}) == ExperimentSpec(
        methods=("plain_lr",)
    )


@pytest.mark.parametrize(
    "cfg, message",
    [
        ({"cv": {"lambda_points": 1e20}},
         "config 'cv.lambda_points' must be at most 1000, got 1e+20"),
        ({"data": {"train_per_class": 1e12}},
         "SyntheticSpec train_per_class must be at most 10000000, got 1000000000000"),
        ({"data": {"test_per_class": 10**7 + 1}},
         "SyntheticSpec test_per_class must be at most 10000000, got 10000001"),
    ],
)
def test_spec_from_config_caps_sizes(cfg, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        spec_from_config({"methods": ["plain_lr"], **cfg})


def test_spec_from_config_file_data():
    cfg = {
        "methods": ["plain_lr"],
        "data": {"path": "some.svm", "split": 0.7},
    }
    spec = spec_from_config(cfg)
    assert isinstance(spec.data, FileSource)
    assert spec.data.split == 0.7


def test_spec_from_config_rejects_unknown_keys():
    with pytest.raises(ValueError):
        spec_from_config({"methods": ["plain_lr"], "verbose": True})
    with pytest.raises(ValueError):
        spec_from_config({"methods": ["plain_lr"], "noise": {"kind": "outlier", "speed": 1}})
    with pytest.raises(ValueError):
        spec_from_config({})
    with pytest.raises(ValueError):
        spec_from_config({"methods": ["plain_lr"], "cv": {"lambda_points": 3, "lambda_grid": [1.0]}})
    # wrongly typed sections name their key instead of failing per character
    with pytest.raises(ValueError, match="'methods' must be a list of strings"):
        spec_from_config({"methods": "plain_lr"})
    with pytest.raises(ValueError, match="'methods' must be a list of strings"):
        spec_from_config({"methods": ["plain_lr", 1.6]})
    for key in ("noise", "cv", "data"):
        with pytest.raises(ValueError, match=f"'{key}' must be a JSON object"):
            spec_from_config({"methods": ["plain_lr"], key: "x.svm"})


@pytest.mark.parametrize(
    "section,body,where",
    [
        ("noise", {"levels": 0.2}, "noise.levels"),
        ("noise", {"levels": "0.2"}, "noise.levels"),
        ("cv", {"lambda_grid": "1e-3"}, "cv.lambda_grid"),
        ("data", {"mean": 2.0}, "data.mean"),
    ],
)
def test_spec_from_config_names_a_mistyped_list(section, body, where):
    with pytest.raises(ValueError, match=f"config '{where}' must be a list of numbers"):
        spec_from_config({"methods": ["plain_lr"], section: body})


def test_spec_from_config_names_a_mistyped_number():
    for cfg, where in (
        ({"noise": {"sigma": "10"}}, "noise.sigma"),
        ({"cv": {"folds": "3"}}, "cv.folds"),
        ({"cv": {"lambda_points": [5]}}, "cv.lambda_points"),
        ({"data": {"train_per_class": None}}, "data.train_per_class"),
        ({"data": {"test_per_class": True}}, "data.test_per_class"),
        ({"data": {"path": "x.svm", "split": "0.5"}}, "data.split"),
        ({"repetitions": "2"}, "repetitions"),
        ({"seed": [1]}, "seed"),
        ({"noise": {"levels": [0.1, "0.2"]}}, "noise.levels"),
        ({"data": {"path": 99}}, "data.path"),
        ({"time_fits": "no"}, "time_fits"),
        ({"time_fits": 1}, "time_fits"),
    ):
        with pytest.raises(ValueError, match=f"config '{where}' must be"):
            spec_from_config({"methods": ["plain_lr"], **cfg})


@pytest.mark.parametrize(
    "cfg,where,bound",
    [
        ({"cv": {"folds": 2.7}}, "cv.folds", ""),
        ({"cv": {"lambda_points": 2.5}}, "cv.lambda_points", " >= 1"),
        ({"cv": {"lambda_points": -1}}, "cv.lambda_points", " >= 1"),
        ({"cv": {"lambda_points": 0}}, "cv.lambda_points", " >= 1"),
        ({"data": {"train_per_class": 10.5}}, "data.train_per_class", ""),
        ({"data": {"test_per_class": 0.5}}, "data.test_per_class", ""),
        ({"repetitions": 1.5}, "repetitions", ""),
        ({"seed": -1}, "seed", " >= 0"),
        ({"seed": 0.5}, "seed", " >= 0"),
    ],
)
def test_spec_from_config_requires_integer_counts(cfg, where, bound):
    with pytest.raises(ValueError, match=f"config '{where}' must be an integer{bound}, got "):
        spec_from_config({"methods": ["plain_lr"], **cfg})


def test_spec_from_config_accepts_integer_valued_floats():
    spec = spec_from_config({
        "methods": ["plain_lr"],
        "cv": {"folds": 3.0, "lambda_points": 4.0},
        "data": {"train_per_class": 20.0, "test_per_class": 10},
        "repetitions": 2.0,
        "seed": 7.0,
    })
    assert (spec.cv.folds, len(spec.cv.lambda_grid), spec.repetitions, spec.seed) == (3, 4, 2, 7)
    assert (spec.data.train_per_class, spec.data.test_per_class) == (20, 10)
    assert all(type(v) is int for v in (spec.cv.folds, spec.repetitions, spec.seed))


@pytest.mark.xfail(
    strict=True,
    reason=(
        "zero-mean label-blind contamination of a balanced symmetric mixture "
        "adds a radial risk term that rescales but cannot rotate the "
        "population optimum, so a no-bias plain_lr keeps its accuracy and "
        "no tempered advantage can appear on this geometry"
    ),
)
def test_outlier_sweep_tempered_advantage():
    spec = ExperimentSpec(
        methods=("plain_lr", "ttlr(0.6,1.6)"),
        noise_kind="outlier",
        noise_levels=(0.0, 0.5),
        noise_sigma=10.0,
        cv=CrossValSpec(folds=3, lambda_grid=(1e-8, 1e-4, 1e-2)),
        repetitions=3,
        seed=11,
        data=SyntheticSpec(train_per_class=200, test_per_class=200, mean=(2.0, 0.0)),
    )
    rows = run_experiment(spec)

    def acc(method, level):
        vals = [r.accuracy for r in rows if r.method == method and r.noise_level == level]
        return float(np.mean(vals))

    gap = acc("ttlr(0.6,1.6)", 0.5) - acc("plain_lr", 0.5)
    assert gap >= 0.02, f"tempered advantage at ratio 0.5: {100 * gap:+.2f} pp"
