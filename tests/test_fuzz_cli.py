"""Fuzzed command-line boundary: whatever the files and flags hold, main returns 0 or 2.

The file properties write the generated bytes to a file and the flag
property generates `train` and `noise` flag values; each runs `cli.main`
in-process. A rejected input must come back as exit status 2 with its
message on stderr (argparse refuses a flag its type cannot read with its
own SystemExit(2)); any exception escaping main fails the property. Most
inputs are a valid file or flag set with at most one field, line or flag
spoiled, so both the accepting and the rejecting paths run. Strategies are
bounded so that every input that does validate is tiny: feature indices of
at most 5 in the LIBSVM text, at most 8 raw bytes, and sweep configs that
pin one method, at most 4 training examples per class, 2 folds, one lambda
and one repetition.
"""

import json

import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from ttlr.cli import main

FUZZ = settings(
    derandomize=True,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-10, 10) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=6,
)
NOT_A_NUMBER = JSON_VALUES.filter(lambda v: isinstance(v, bool) or not isinstance(v, (int, float)))
NOT_AN_OBJECT = NOT_A_NUMBER.filter(lambda v: not isinstance(v, dict))


def _spoil(valid, bad: dict, droppable=None):
    """A valid dict as drawn, with one key set to a bad value, or with one droppable key removed."""
    return st.one_of(
        valid,
        *[st.builds(lambda d, v, k=k: {**d, k: v}, valid, values) for k, values in bad.items()],
        st.builds(lambda d, k: {key: v for key, v in d.items() if key != k},
                  valid, st.sampled_from(sorted(droppable or bad))),
    )


# LIBSVM text: well-formed lines (indices 1..5), one malformed line among them, or raw bytes
VALUE_TEXT = st.sampled_from(["0", "1", "-1", "0.5", "-2.5", "1e3", "1e308"])
GOOD_LINE = st.builds(
    lambda label, features: " ".join([label] + [f"{i}:{v}" for i, v in sorted(features)]),
    st.sampled_from(["1", "2", "3", "-1", "0.5"]),
    st.lists(st.tuples(st.integers(1, 5), VALUE_TEXT), max_size=3, unique_by=lambda f: f[0]),
)
BAD_LINE = st.builds(
    lambda label, features, sep: sep.join([label, *features]),
    st.sampled_from(["1", "2", "nan", "inf", "1e999", "x", ""]),
    st.lists(st.one_of(
        st.builds(lambda i, v: f"{i}:{v}", st.sampled_from(["1", "3", "0", "-1", "01", "x", ""]),
                  st.sampled_from(["1", "nan", "inf", "-inf", "1e999", "x", ""])),
        st.sampled_from(["1", ":", "1:", ":1", "1:2:3", "#"]),
    ), max_size=3),
    st.sampled_from([" ", "\t"]),
)
LIBSVM_BYTES = st.one_of(
    st.builds(lambda lines, newline: newline.join(lines).encode("utf-8"),
              st.lists(GOOD_LINE, max_size=6), st.sampled_from(["\n", "\r\n"])),
    st.builds(lambda lines, bad, at: "\n".join(lines[:at] + [bad] + lines[at:]).encode("utf-8"),
              st.lists(GOOD_LINE, max_size=5), BAD_LINE, st.integers(0, 5)),
    # raw bytes, mostly not UTF-8; 8 bytes bound the largest index at 9999
    st.binary(max_size=8),
    st.text(max_size=8).map(lambda s: s.encode("utf-8")),
)

# model files: a saved model with one field spoiled or dropped, or arbitrary text
MODEL = {
    "format": "ttlr-model", "version": 2, "dim": 1, "num_classes": 2, "t1": 1.0, "t2": 1.0,
    "lambda": 0.001, "labels": [1.0, 2.0], "weights": [[0.5, -0.5]],
}
FLOAT_PAIR = st.lists(st.floats(), min_size=2, max_size=2)
MODEL_TEXT = st.one_of(
    _spoil(st.just(MODEL), {
        "format": JSON_VALUES, "version": JSON_VALUES,
        "dim": st.one_of(st.integers(-1, 3), JSON_VALUES),
        "num_classes": st.one_of(st.integers(-1, 3), JSON_VALUES),
        "t1": JSON_VALUES, "t2": JSON_VALUES, "lambda": JSON_VALUES,
        "labels": st.one_of(FLOAT_PAIR, JSON_VALUES),
        "weights": st.one_of(st.lists(FLOAT_PAIR, max_size=2), JSON_VALUES),
    }).map(json.dumps),
    st.text(max_size=20),
)


def _bad_count(most):
    """A count setting that fails, or validates to at most `most`."""
    return st.one_of(st.integers(-1, most), st.floats(-1.0, most),
                     st.sampled_from([float("nan"), float("inf")]), NOT_A_NUMBER)


# sweep configs: a tiny valid config with one key spoiled or dropped, or any other JSON
VALID_CONFIG = st.fixed_dictionaries(
    {
        "methods": st.lists(st.sampled_from(["plain_lr", "t_lr(1.6)", "ttlr(0.6,1.6)"]),
                            min_size=1, max_size=1),
        "cv": st.sampled_from([{"folds": 2, "lambda_points": 1},
                               {"folds": 2, "lambda_grid": [1e-3]}]),
        "data": st.one_of(
            st.fixed_dictionaries(
                {"train_per_class": st.integers(1, 4), "test_per_class": st.integers(1, 4)},
                optional={"mean": st.sampled_from([[1.0, 0.0], [0.5, -0.5, 2.0]])},
            ),
            # a name in the test's directory, which the test prefixes
            st.fixed_dictionaries({"path": st.just("train.svm"),
                                   "split": st.sampled_from([0.25, 0.5, 0.75])}),
        ),
        "repetitions": st.just(1),
    },
    optional={
        "noise": st.fixed_dictionaries({
            "kind": st.sampled_from(["outlier", "random_flip", "margin_flip"]),
            "levels": st.lists(st.floats(0.0, 0.5), min_size=1, max_size=2),
            "sigma": st.floats(0.5, 20.0),
        }),
        "seed": st.integers(0, 3),
        "time_fits": st.booleans(),
    },
)
CONFIG = st.one_of(
    _spoil(VALID_CONFIG, {
        "methods": st.one_of(
            NOT_A_NUMBER,
            st.lists(st.sampled_from(["ttlr(2,1)", "ttlr(0.6)", "lr", " plain_lr"]), max_size=1),
        ),
        "cv": st.one_of(
            NOT_AN_OBJECT,
            st.fixed_dictionaries({"folds": _bad_count(2), "lambda_points": _bad_count(1)}),
            st.fixed_dictionaries({"folds": st.just(2), "lambda_grid": st.lists(
                st.one_of(st.floats(), NOT_A_NUMBER), max_size=1)}),
            st.just({"folds": 2, "lambda_points": 1, "lambda_grid": [1e-3]}),
        ),
        "data": st.one_of(
            NOT_AN_OBJECT,
            st.fixed_dictionaries({"train_per_class": _bad_count(4),
                                   "test_per_class": _bad_count(4)},
                                  optional={"mean": JSON_VALUES}),
            st.fixed_dictionaries({"path": st.sampled_from(["missing.svm", ".", "train.svm"]),
                                   "split": st.one_of(st.floats(), NOT_A_NUMBER)}),
        ),
        "repetitions": _bad_count(1),
        "noise": st.one_of(JSON_VALUES, st.fixed_dictionaries({}, optional={
            "kind": st.one_of(st.just("gaussian"), JSON_VALUES),
            "levels": st.one_of(st.lists(st.one_of(st.floats(), NOT_A_NUMBER), max_size=2),
                                JSON_VALUES),
            "sigma": st.one_of(st.floats(), NOT_A_NUMBER),
        })),
        "seed": st.one_of(st.integers(-2, -1), NOT_A_NUMBER),
        "time_fits": JSON_VALUES,
        "unknown": JSON_VALUES,
    }, droppable=("methods", "noise", "seed", "time_fits")),
    # none of these names methods, so none runs a default-sized sweep
    JSON_VALUES.filter(lambda v: not (isinstance(v, dict) and "methods" in v)),
)


# command-line flags: values each flag accepts, with one flag set to any float's repr (nan,
# inf, -0.0, 1e+300, ...), an integer-like string or an out-of-range literal, or left out
WILD_FLAG = st.one_of(st.floats().map(repr), st.integers(-10**20, 10**20).map(str),
                      st.sampled_from(["1e999", "-1e999", "1.7976931348623157e308", "-1", "0"]))
TRAIN_FLAGS = _spoil(
    st.fixed_dictionaries({
        "t1": st.sampled_from(["1", "0.6"]), "t2": st.sampled_from(["1", "1.6", "0.8"]),
        "lambda": st.sampled_from(["1e-4", "0"]), "seed": st.sampled_from(["0", "3"]),
    }),
    {flag: WILD_FLAG for flag in ("t1", "t2", "lambda", "seed")},
)
NOISE_FLAGS = _spoil(
    st.fixed_dictionaries({
        "kind": st.sampled_from(["outlier", "random_flip", "margin_flip"]),
        "level": st.sampled_from(["0", "0.25", "0.5"]),
        "sigma": st.sampled_from(["10", "0.5"]), "seed": st.sampled_from(["0", "3"]),
    }),
    {flag: WILD_FLAG for flag in ("level", "sigma", "seed")},
    droppable=("sigma", "seed"),
)
ARGV = st.one_of(st.tuples(st.just("train"), TRAIN_FLAGS), st.tuples(st.just("noise"), NOISE_FLAGS))


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz")
    # a small two-class file for sweeps that read data from disk
    (path / "train.svm").write_text("".join(f"{1 + i % 2} 1:{(-1) ** i * (i + 1)}\n"
                                            for i in range(8)))
    return path


@settings(FUZZ, max_examples=150)
@given(content=LIBSVM_BYTES, temps=st.sampled_from([("1", "1"), ("0.6", "1.6"), ("0.5", "0.8")]),
       lam=st.sampled_from(["1e-4", "0", "1e300", "nan", "-1", "-inf"]))
def test_train_then_predict_exit_0_or_2(workdir, content, temps, lam):
    data, model = workdir / "fuzz.svm", workdir / "fuzz_model.json"
    data.write_bytes(content)
    model.unlink(missing_ok=True)
    code = main(["train", "--data", str(data), "--t1", temps[0], "--t2", temps[1],
                 f"--lambda={lam}", "--out", str(model)])
    event(f"train exit {code}")
    assert code in (0, 2)
    if code == 0:
        code = main(["predict", "--model", str(model), "--data", str(data)])
        event(f"predict exit {code}")
        assert code in (0, 2)


@settings(FUZZ, max_examples=150)
@given(text=MODEL_TEXT)
def test_predict_on_any_model_text_exits_0_or_2(workdir, text):
    model = workdir / "any_model.json"
    model.write_text(text, encoding="utf-8")
    code = main(["predict", "--model", str(model), "--data", str(workdir / "train.svm")])
    event(f"exit {code}")
    assert code in (0, 2)


@settings(FUZZ, max_examples=100)
@given(config=CONFIG)
def test_sweep_on_any_json_config_exits_0_or_2(workdir, config):
    data = config.get("data") if isinstance(config, dict) else None
    if isinstance(data, dict) and isinstance(data.get("path"), str):
        data["path"] = str(workdir / data["path"])
    path = workdir / "config.json"
    path.write_text(json.dumps(config))
    code = main(["sweep", "--config", str(path)])
    event(f"exit {code}")
    assert code in (0, 2)


@settings(FUZZ, max_examples=100)
@given(argv=ARGV)
def test_train_and_noise_on_any_flag_values_exit_0_or_2(workdir, argv):
    command, flags = argv
    # --flag=value, so that argparse does not read a leading minus as an option
    args = [command, "--data", str(workdir / "train.svm"), "--out", str(workdir / "flags.out")]
    try:
        code = main(args + [f"--{flag}={value}" for flag, value in flags.items()])
    except SystemExit as exc:  # argparse refusing a value its type cannot read
        code = exc.code
    event(f"{command} exit {code}")
    assert code in (0, 2)
