"""Command-line interface, exercised in-process through main(argv)."""

import json
import subprocess
import sys

import numpy as np
import pytest
from scipy import sparse

from ttlr.cli import main
from ttlr.data import Dataset, parse_libsvm, serialize_libsvm, synth_gaussians
from ttlr.model import load_model, predict


@pytest.fixture()
def train_file(tmp_path):
    data = synth_gaussians(60, [(2.0, 0.0), (-2.0, 0.0)], seed=14)
    path = tmp_path / "train.svm"
    path.write_text(serialize_libsvm(data))
    return path


def test_train_writes_model(tmp_path, train_file, capsys):
    out = tmp_path / "model.json"
    code = main(
        [
            "train",
            "--data",
            str(train_file),
            "--t1",
            "0.6",
            "--t2",
            "1.6",
            "--lambda",
            "0.001",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    model = load_model(out)
    assert model.temps.t1 == 0.6
    assert model.temps.t2 == 1.6
    assert model.lam == 0.001
    captured = capsys.readouterr()
    assert "objective" in captured.out
    assert "converged" in captured.out


def test_predict_round_trip(tmp_path, train_file, capsys):
    model_path = tmp_path / "m.json"
    assert main(["train", "--data", str(train_file), "--out", str(model_path)]) == 0
    capsys.readouterr()
    pred_path = tmp_path / "pred.txt"
    code = main(
        [
            "predict",
            "--model",
            str(model_path),
            "--data",
            str(train_file),
            "--out",
            str(pred_path),
        ]
    )
    assert code == 0
    captured = capsys.readouterr()
    assert "accuracy" in captured.err
    preds = [float(v) for v in pred_path.read_text().split()]
    data = parse_libsvm(train_file.read_text())
    assert len(preds) == data.n
    # predictions carry the original label values
    table = set(data.label_table)
    assert set(preds) <= table
    acc = np.mean(
        [p == data.label_table[y - 1] for p, y in zip(preds, data.y)]
    )
    assert acc > 0.9


def test_predict_to_stdout(tmp_path, train_file, capsys):
    model_path = tmp_path / "m.json"
    main(["train", "--data", str(train_file), "--out", str(model_path)])
    capsys.readouterr()
    code = main(["predict", "--model", str(model_path), "--data", str(train_file)])
    assert code == 0
    out_lines = capsys.readouterr().out.strip().splitlines()
    data = parse_libsvm(train_file.read_text())
    assert len(out_lines) == data.n


@pytest.fixture()
def signed_model(tmp_path):
    """A model trained on labels -1/+1, and the data it was trained on."""
    blobs = synth_gaussians(60, [(2.0, 0.0), (-2.0, 0.0)], seed=14)
    data = Dataset(blobs.X, blobs.y, 2, (-1.0, 1.0))
    train = tmp_path / "signed.svm"
    train.write_text(serialize_libsvm(data))
    model_path = tmp_path / "signed.json"
    assert main(["train", "--data", str(train), "--out", str(model_path)]) == 0
    return model_path, data


def predict_file(tmp_path, model_path, data, capsys):
    """Score `data` written to a file; returns (exit code, predictions, stderr)."""
    scored = tmp_path / "scored.svm"
    scored.write_text(serialize_libsvm(data))
    capsys.readouterr()
    code = main(["predict", "--model", str(model_path), "--data", str(scored)])
    captured = capsys.readouterr()
    return code, [float(v) for v in captured.out.split()], captured.err


def test_predict_prints_training_labels_on_a_label_subset(tmp_path, signed_model, capsys):
    # a file holding only the +1 class still prints -1/+1, scored on values
    model_path, data = signed_model
    plus = data.subset(np.flatnonzero(data.y == 2))
    code, preds, err = predict_file(
        tmp_path, model_path, Dataset(plus.X, np.ones(plus.n), 1, (1.0,)), capsys
    )
    assert code == 0
    assert set(preds) <= {-1.0, 1.0}
    accuracy = float(np.mean(np.array(preds) == 1.0))
    assert accuracy > 0.9
    assert f"accuracy {accuracy:.4f} on {plus.n} examples" in err


def test_predict_ignores_foreign_labels_of_the_scored_file(tmp_path, signed_model, capsys):
    model_path, data = signed_model
    foreign = Dataset(data.X, data.y, 2, (5.0, 7.0))
    code, preds, err = predict_file(tmp_path, model_path, foreign, capsys)
    assert code == 0
    assert set(preds) <= {-1.0, 1.0}
    assert "accuracy 0.0000" in err


def test_predict_reads_a_narrower_file_as_zero_padded(tmp_path, signed_model, capsys):
    model_path, data = signed_model
    first = sparse.csr_array(data.X).toarray()[:, :1]
    narrow = Dataset(sparse.csr_array(first), data.y, 2, data.label_table)
    code, preds, _ = predict_file(tmp_path, model_path, narrow, capsys)
    assert code == 0
    model = load_model(model_path)
    padded = np.hstack([first, np.zeros((data.n, 1))])
    want = np.asarray(model.labels)[predict(model, padded) - 1]
    assert preds == want.tolist()


def test_predict_rejects_a_wider_file(tmp_path, signed_model, capsys):
    model_path, data = signed_model
    wide = Dataset(sparse.csr_array(np.ones((data.n, 3))), data.y, 2, data.label_table)
    code, preds, err = predict_file(tmp_path, model_path, wide, capsys)
    assert code == 2
    assert preds == []
    assert "scored.svm" in err
    assert "exceeds the dimension 2" in err


def test_noise_subcommand_flips_labels(tmp_path, train_file):
    out = tmp_path / "noisy.svm"
    code = main(
        [
            "noise",
            "--data",
            str(train_file),
            "--kind",
            "random_flip",
            "--level",
            "1.0",
            "--seed",
            "3",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    clean = parse_libsvm(train_file.read_text())
    noisy = parse_libsvm(out.read_text())
    assert np.array_equal(noisy.y, 3 - clean.y)
    assert np.array_equal(sparse.csr_array(noisy.X).toarray(), sparse.csr_array(clean.X).toarray())


def test_noise_keeps_an_explicit_zero_column(tmp_path):
    src = tmp_path / "full.svm"
    src.write_text("1 1:1 2:0\n2 1:2 2:0\n")
    out = tmp_path / "flipped.svm"
    argv = ["noise", "--data", str(src), "--kind", "random_flip", "--level", "1.0"]
    assert main(argv + ["--out", str(out)]) == 0
    assert out.read_text() == "2 1:1 2:0\n1 1:2 2:0\n"
    assert parse_libsvm(out.read_text()).dim == 2


def test_noise_outlier_keeps_count(tmp_path, train_file):
    out = tmp_path / "noisy.svm"
    code = main(
        [
            "noise",
            "--data",
            str(train_file),
            "--kind",
            "outlier",
            "--level",
            "0.25",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    clean = parse_libsvm(train_file.read_text())
    noisy = parse_libsvm(out.read_text(), dim=clean.dim)
    changed = np.any(
        sparse.csr_array(noisy.X).toarray() != sparse.csr_array(clean.X).toarray(), axis=1
    )
    assert changed.sum() == int(0.25 * clean.n)


def sweep_config(tmp_path, **extra):
    cfg = {
        "methods": ["plain_lr"],
        "noise": {"kind": "outlier", "levels": [0.0]},
        "cv": {"folds": 3, "lambda_grid": [1e-6, 1e-3]},
        "data": {"train_per_class": 40, "test_per_class": 40},
        "repetitions": 2,
        "seed": 5,
    }
    cfg.update(extra)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def test_sweep_csv_output(tmp_path, capsys):
    cfg = sweep_config(tmp_path)
    out = tmp_path / "rows.csv"
    code = main(["sweep", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "method,noise_kind,noise_level,rep,lambda,accuracy,seconds"
    assert len(lines) == 3
    # summary goes to stdout either way
    assert "plain_lr" in capsys.readouterr().out


def test_sweep_json_output_and_seed_override(tmp_path, capsys):
    cfg = sweep_config(tmp_path)
    code = main(["sweep", "--config", str(cfg), "--format", "json", "--seed", "9"])
    assert code == 0
    out = capsys.readouterr().out
    payload = json.loads(out[: out.rindex("]") + 1])
    assert len(payload) == 2
    assert payload[0]["method"] == "plain_lr"


def test_sweep_time_records_fit_seconds(tmp_path, capsys):
    cfg = sweep_config(tmp_path, repetitions=1)
    out = tmp_path / "rows.csv"
    assert main(["sweep", "--config", str(cfg), "--time", "--out", str(out)]) == 0
    rows = out.read_text().strip().splitlines()[1:]
    assert len(rows) == 1 and float(rows[0].split(",")[-1]) > 0.0
    assert "1 rows written to" in capsys.readouterr().out


def test_sweep_reruns_are_byte_identical(tmp_path, capsys):
    cfg = sweep_config(tmp_path)
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert main(["sweep", "--config", str(cfg), "--out", str(a)]) == 0
    assert main(["sweep", "--config", str(cfg), "--out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_verify_subcommand_exit_codes(capsys):
    code = main(["verify", "--suite", "recovery"])
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS" in out
    assert "FAIL" not in out


def test_missing_file_is_reported(tmp_path, capsys):
    code = main(["train", "--data", str(tmp_path / "nope.svm"), "--out", str(tmp_path / "m.json")])
    assert code == 2
    assert "nope.svm" in capsys.readouterr().err


@pytest.mark.parametrize(
    "index, message",
    [
        # the parser refuses an index past the int32 range, naming the line
        ("99999999999999999999", "line 2: index 99999999999999999999 exceeds 2147483647"),
        ("9223372036854775807", "line 2: index 9223372036854775807 exceeds 2147483647"),
        ("3000000000", "line 2: index 3000000000 exceeds 2147483647"),
        # fit refuses a W over its byte cap before allocating it
        ("2147483647", "a weight matrix of dim 2147483647 x 2 classes takes 34359738352 bytes"),
    ],
)
def test_train_refuses_a_huge_feature_index(tmp_path, capsys, index, message):
    data = tmp_path / "wide.svm"
    data.write_text(f"1 1:1\n2 1:-1 {index}:1\n")
    code = main(["train", "--data", str(data), "--out", str(tmp_path / "m.json")])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "m.json").exists()


def test_malformed_data_is_reported(tmp_path, capsys):
    bad = tmp_path / "bad.svm"
    bad.write_text("1 1:1 1:2\n")
    code = main(["train", "--data", str(bad), "--out", str(tmp_path / "m.json")])
    assert code == 2
    err = capsys.readouterr().err
    assert "line 1" in err


def test_sweep_names_a_malformed_data_file(tmp_path, capsys):
    bad = tmp_path / "bad.svm"
    bad.write_text("1 1:1\n2 oops\n")
    cfg = sweep_config(tmp_path, data={"path": str(bad)})
    code = main(["sweep", "--config", str(cfg)])
    assert code == 2
    err = capsys.readouterr().err
    assert f"{bad}: line 2: expected idx:val" in err


def test_bad_config_is_reported(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"methods": ["warp_drive"]}))
    code = main(["sweep", "--config", str(cfg)])
    assert code == 2
    assert "warp_drive" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, flags, message",
    [
        # --seed and --time apply to the validated config, never to the raw JSON
        ("[1, 2]", ["--seed", "3"], "invalid experiment config: config root must be a JSON object"),
        ("[1, 2]", ["--time"], "invalid experiment config: config root must be a JSON object"),
        ('{"methods": ["plain_lr"]}', ["--seed", "-1"],
         "invalid experiment config: ExperimentSpec seed must be an integer >= 0, got -1"),
        ('{"methods": ["plain_lr"],', [], "{cfg} is not valid JSON: "),
        (None, [], "cannot read {cfg}: "),
    ],
)
def test_sweep_reports_a_bad_config_file(tmp_path, capsys, text, flags, message):
    cfg = tmp_path / "c.json"
    if text is not None:
        cfg.write_text(text)
    code = main(["sweep", "--config", str(cfg)] + flags)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith(message.format(cfg=cfg))
    assert captured.out == ""


def test_noise_reports_a_bad_level(train_file, capsys):
    argv = ["noise", "--data", str(train_file), "--kind", "outlier", "--level", "0.7"]
    assert main(argv) == 2
    assert capsys.readouterr().err == "noise level (ratio) must lie in [0, 0.5], got 0.7\n"


def test_bad_temperature_is_reported(tmp_path, train_file, capsys):
    code = main(
        ["train", "--data", str(train_file), "--t1", "2.5", "--out", str(tmp_path / "m.json")]
    )
    assert code == 2
    assert "temperature" in capsys.readouterr().err.lower()


def test_module_entry_point(tmp_path):
    cp = subprocess.run(
        [sys.executable, "-m", "ttlr", "verify", "--suite", "recovery"],
        capture_output=True,
        text=True,
    )
    assert cp.returncode == 0
    assert "PASS" in cp.stdout


@pytest.mark.parametrize("text, dim", [("1 1:0\n2 1:0\n", 1), ("1\n2\n", 0)])
def test_train_and_predict_on_data_without_usable_features(tmp_path, capsys, text, dim):
    data, model = tmp_path / "d.svm", tmp_path / "m.json"
    data.write_text(text)
    assert main(["train", "--data", str(data), "--out", str(model)]) == 0
    out = capsys.readouterr().out
    assert f"dim {dim}, 2 classes: objective 0.693147, 0 iterations, degenerate_data" in out
    assert main(["predict", "--model", str(model), "--data", str(data)]) == 0
    captured = capsys.readouterr()
    assert captured.out == "1\n1\n"
    assert captured.err == "accuracy 0.5000 on 2 examples\n"


@pytest.mark.parametrize("command", ["predict", "sweep", "train"])
def test_every_file_the_cli_reads_is_named_in_its_error(tmp_path, capsys, train_file, command):
    model = tmp_path / "m.json"
    assert main(["train", "--data", str(train_file), "--out", str(model)]) == 0
    bad = tmp_path / "bad"
    bad.write_bytes(b"\xff{}")
    argv = {
        "predict": ["predict", "--model", "{}", "--data", str(train_file)],
        "sweep": ["sweep", "--config", "{}"],
        "train": ["train", "--data", "{}", "--out", str(model)],
    }[command]
    for path, message in ((bad, f"{bad}: 'utf-8' codec can't decode"),
                          (tmp_path, f"cannot read {tmp_path}: Is a directory")):
        capsys.readouterr()
        assert main([str(path) if a == "{}" else a for a in argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith(message) and err.count("\n") == 1
