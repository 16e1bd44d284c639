"""Model fitting, prediction, persistence, and input validation."""

import json
import math
import re

import numpy as np
import pytest
from scipy import optimize, sparse

from ttlr.data import Dataset, inject_outlier_noise, parse_libsvm, synth_gaussians
from ttlr.loss import TemperaturePair, regularized_objective
from ttlr.model import (
    FitConfig,
    TTLRModel,
    fit,
    load_model,
    predict,
    predict_proba,
    save_model,
)
from ttlr.optimizer import OptimizerConfig


@pytest.fixture(scope="module")
def blobs():
    return synth_gaussians(200, [(2.0, 0.0), (-2.0, 0.0)], seed=5)


def test_fit_separates_easy_data(blobs):
    # plain_lr, t_lr(1.6) and ttlr(0.6,1.6)
    for temps in ((1.0, 1.0), (1.0, 1.6), (0.6, 1.6)):
        model = fit(blobs, temps=temps, lam=1e-4)
        assert model.trace.termination == "converged"
        pred = predict(model, blobs.X)
        acc = float(np.mean(pred == blobs.y))
        assert acc > 0.95


def test_fit_separates_easy_sparse_data(blobs):
    # an unstored third feature keeps X in CSR
    X = sparse.hstack([sparse.csr_array(blobs.X), sparse.csr_array((blobs.n, 1))], format="csr")
    data = Dataset(X, blobs.y, blobs.num_classes)
    assert sparse.issparse(data.X)
    for temps in ((1.0, 1.0), (0.6, 1.6)):
        model = fit(data, temps=temps, lam=1e-4)
        assert model.trace.termination == "converged"
        assert float(np.mean(predict(model, data.X) == data.y)) > 0.95


def test_fit_is_deterministic(blobs):
    m1 = fit(blobs, temps=(0.6, 1.6), lam=1e-3, config=FitConfig(seed=7))
    m2 = fit(blobs, temps=(0.6, 1.6), lam=1e-3, config=FitConfig(seed=7))
    assert np.array_equal(m1.W, m2.W)
    m3 = fit(blobs, temps=(0.6, 1.6), lam=1e-3, config=FitConfig(seed=8))
    assert not np.array_equal(m1.W, m3.W)


def test_fit_reaches_scipy_objective(blobs):
    # same objective minimized by an independent optimizer
    temps = TemperaturePair(1.0, 1.0)
    lam = 0.01
    model = fit(blobs, temps=temps, lam=lam)
    ours = regularized_objective(blobs, model.W, temps, lam)[0]

    shape = (blobs.dim, blobs.num_classes)

    def flat_objective(wflat):
        value, grad = regularized_objective(blobs, wflat.reshape(shape), temps, lam)
        return value, grad.ravel()

    ref = optimize.minimize(
        flat_objective,
        np.zeros(shape[0] * shape[1]),
        jac=True,
        method="L-BFGS-B",
        options={"ftol": 1e-14, "gtol": 1e-10},
    )
    assert ours == pytest.approx(ref.fun, abs=1e-7)


def test_gradient_norm_at_solution(blobs):
    model = fit(blobs, temps=(0.6, 1.6), lam=0.01)
    _, grad = regularized_objective(blobs, model.W, model.temps, 0.01)
    assert np.abs(grad).max() <= 1e-6


def test_predict_single_and_batch(blobs):
    model = fit(blobs, temps=(1.0, 1.0), lam=1e-3)
    batch = predict(model, blobs.X)
    assert batch.shape == (blobs.n,)
    assert predict(model, sparse.csr_array(blobs.X[[0]])) == batch[0]
    assert predict(model, blobs.X[[0]]) == batch[0]
    assert predict(model, blobs.X[0]) == batch[0]


def test_predict_proba_normalizes(blobs):
    for temps in ((1.0, 1.0), (0.6, 1.6), (1.0, 0.7)):
        model = fit(blobs, temps=temps, lam=1e-3)
        P = predict_proba(model, blobs.X[:25])
        assert P.shape == (25, 2)
        assert np.all(P >= 0.0)
        assert np.allclose(P.sum(axis=1), 1.0, atol=1e-10)


def test_multiclass_fit():
    data = synth_gaussians(120, [(3.0, 0.0), (0.0, 3.0), (-3.0, -3.0)], seed=2)
    model = fit(data, temps=(0.6, 1.6), lam=1e-4)
    acc = float(np.mean(predict(model, data.X) == data.y))
    assert acc > 0.95
    P = predict_proba(model, data.X[:10])
    assert P.shape == (10, 3)


def test_fit_converges_on_the_zero_gap_plateau():
    # t1 = t2 < 1: outlier rows land on the p = 0 plateau, where the capped
    # loss is flat; their gradient must be zero for the line search to work
    rng = np.random.default_rng(0)
    chol = np.linalg.cholesky(np.array([[1.0, 0.9], [0.9, 1.0]]))
    X = np.vstack(
        [m + rng.standard_normal((100, 2)) @ chol.T for m in ([1.0, 0.0], [-1.0, 0.0])]
    )
    data = Dataset(sparse.csr_array(X), np.repeat([1, 2], 100), 2)
    data = inject_outlier_noise(data, 10.0, 0.3, 0)
    for temps in ((0.7, 0.7), (0.5, 0.5)):
        model = fit(data, temps=temps, lam=1e-3)
        assert model.trace.termination == "converged", temps


def test_fit_accepts_dense_features():
    data = Dataset(np.ones((2, 2)), np.array([1, 2]), 2)
    model = fit(data, temps=(1.0, 1.0), lam=0.1)
    assert model.trace.termination == "converged"
    assert np.isfinite(model.W).all()


def test_degenerate_all_zero_features():
    X = sparse.csr_array(np.zeros((6, 3)))
    # no entry stored, and every entry stored as an explicit zero
    for data in (
        Dataset(X, np.array([1, 1, 1, 2, 2, 2]), num_classes=2),
        parse_libsvm("1 1:0 2:0 3:0\n" * 3 + "2 1:0 2:0 3:0\n" * 3),
    ):
        model = fit(data, temps=(1.0, 1.0), lam=0.1)
        assert model.trace.termination == "degenerate_data"
        assert np.array_equal(model.W, np.zeros((3, 2)))
        # ties resolve to the lowest class index
        assert predict(model, data.X).tolist() == [1] * 6


def test_degenerate_trace_records_its_one_point():
    data = parse_libsvm("1 1:0\n2 1:0\n")
    model = fit(data, temps=(1.0, 1.0), lam=0.1)
    trace = model.trace
    # zero activations give uniform probabilities: the mean loss is ln 2
    assert trace.objective_values == [pytest.approx(math.log(2.0), rel=1e-15)]
    assert (trace.grad_sup_norms, trace.step_lengths) == ([0.0], [0.0])
    assert (trace.evaluations, trace.iterations, trace.backtracks) == (1, 0, 0)
    assert trace.objective_values[0] == regularized_objective(data, model.W, (1.0, 1.0), 0.1)[0]


def test_zero_feature_model_round_trips(tmp_path):
    data = parse_libsvm("1\n2\n")
    model = fit(data, temps=(1.0, 1.0), lam=1e-4)
    assert model.W.shape == (0, 2)
    path = tmp_path / "model.json"
    save_model(model, path)
    back = load_model(path)
    assert back.W.shape == (0, 2) and back.labels == (1.0, 2.0)
    assert predict(back, data.X).tolist() == [1, 1]
    # any other empty weight list still disagrees with its dimensions
    payload = json.loads(path.read_text())
    for field, value in (("dim", 1), ("weights", [[]]), ("weights", [[], []])):
        path.write_text(json.dumps({**payload, field: value}))
        with pytest.raises(ValueError, match="weight or label shape disagrees"):
            load_model(path)


def test_save_load_round_trip(tmp_path, blobs):
    model = fit(blobs, temps=(0.6, 1.6), lam=0.01, config=FitConfig(seed=3))
    path = tmp_path / "model.json"
    save_model(model, path)
    back = load_model(path)
    assert np.array_equal(back.W, model.W)
    assert back.temps == model.temps
    assert back.lam == model.lam
    assert back.num_classes == model.num_classes
    assert back.dim == model.dim
    assert back.labels == model.labels == (1.0, 2.0)
    assert np.array_equal(predict(back, blobs.X), predict(model, blobs.X))


def test_model_shape_is_the_shape_of_W():
    model = TTLRModel(np.zeros((3, 2)), TemperaturePair(1.0, 1.0), 0.0)
    assert (model.dim, model.num_classes) == (3, 2)
    assert predict(model, np.ones(3)) == 1


def test_fit_refuses_an_oversized_weight_matrix_before_allocating():
    dim = 2**30  # 2 classes need 2**34 bytes of W; the stored X is 2 entries
    X = sparse.csr_array(([1.0, 1.0], ([0, 1], [0, dim - 1])), shape=(2, dim))
    data = Dataset(X, np.array([1, 2]), 2)
    message = f"a weight matrix of dim {dim} x 2 classes takes {2**34} bytes, above the cap"
    with pytest.raises(ValueError, match=re.escape(message)):
        fit(data, temps=(1.0, 1.0), lam=0.1)


def test_load_rejects_foreign_payload(tmp_path):
    path = tmp_path / "alien.json"
    path.write_text('{"format": "other", "W": []}')
    with pytest.raises(ValueError):
        load_model(path)


def test_load_names_the_file_on_malformed_payloads(tmp_path, blobs):
    model = fit(blobs, temps=(1.0, 1.0), lam=1e-3)
    path = tmp_path / "model.json"
    save_model(model, path)
    payload = json.loads(path.read_text())
    for key in ("weights", "labels", "t1"):
        partial = {k: v for k, v in payload.items() if k != key}
        path.write_text(json.dumps(partial))
        with pytest.raises(ValueError, match=f"no '{key}' field") as err:
            load_model(path)
        assert str(path) in str(err.value)
    for text in ("[1, 2]", json.dumps({**payload, "version": 1}), "{"):
        path.write_text(text)
        with pytest.raises(ValueError) as err:
            load_model(path)
        assert str(path) in str(err.value)


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("dim", "2", "malformed model field: dim must be an integer >= 0, got '2'"),
        ("num_classes", 2.7,
         "malformed model field: num_classes must be an integer >= 2, got 2.7"),
        ("num_classes", None, "malformed model field: num_classes must be an integer >= 2"),
        ("t1", "warm", "malformed model field: "),
        # a temperature is a real number, never a bool or a numeric string
        ("t1", True, "malformed model field: temperature must lie strictly in (0, 2), got True"),
        ("t2", "0.8", "malformed model field: temperature must lie strictly in (0, 2), got '0.8'"),
        ("dim", 3, "weight or label shape disagrees with the recorded dimensions"),
        ("num_classes", 3, "weight or label shape disagrees with the recorded dimensions"),
        ("labels", [1.0], "weight or label shape disagrees with the recorded dimensions"),
    ],
)
def test_load_names_the_file_on_a_bad_field(tmp_path, blobs, field, value, message):
    path = tmp_path / "model.json"
    save_model(fit(blobs, temps=(1.0, 1.0), lam=1e-3), path)
    payload = json.loads(path.read_text())
    path.write_text(json.dumps({**payload, field: value}))
    with pytest.raises(ValueError, match=re.escape(f"{path}: {message}")):
        load_model(path)


def test_load_reads_integer_valued_float_dimensions(tmp_path, blobs):
    model = fit(blobs, temps=(1.0, 1.0), lam=1e-3)
    path = tmp_path / "model.json"
    save_model(model, path)
    payload = json.loads(path.read_text())
    path.write_text(json.dumps({**payload, "dim": 2.0, "num_classes": 2.0}))
    back = load_model(path)
    assert (back.dim, back.num_classes) == (2, 2)
    assert np.array_equal(predict(back, blobs.X), predict(model, blobs.X))


def test_predict_validates_width(blobs):
    model = fit(blobs, temps=(1.0, 1.0), lam=1e-3)
    for x in (np.ones(5), np.ones(1), np.ones((4, 3)), sparse.csr_array(np.ones((2, 3)))):
        with pytest.raises(ValueError, match=r"^input must have shape \(2,\) or \(n, 2\), got"):
            predict(model, x)
    for x, entry in ((np.array([np.nan, 1.0]), r"\[0\]"),
                     (np.array([[1.0, 0.0], [np.inf, 2.0]]), r"\[1\]\[0\]")):
        for call in (predict, predict_proba):
            with pytest.raises(ValueError, match=rf"^input{entry} must be finite, got"):
                call(model, x)


def test_predict_refuses_input_that_is_neither_a_vector_nor_a_matrix():
    # a (1, 1, 2) input once passed the width check and predicted [[1, 1, 1]]
    model = TTLRModel(np.zeros((2, 3)), TemperaturePair(1.0, 1.0), 0.1)
    for x in (np.zeros((1, 1, 2)), np.float64(1.0)):
        for call in (predict, predict_proba):
            with pytest.raises(ValueError, match=r"^input must have shape \(2,\) or \(n, 2\), got"):
                call(model, x)


def test_a_model_with_non_finite_weights_is_refused_where_it_is_built():
    # such a model once predicted class 1 for every row, with NaN probabilities
    with pytest.raises(ValueError, match=r"^TTLRModel W\[0\]\[0\] must be finite, got nan$"):
        TTLRModel(np.full((2, 3), np.nan), TemperaturePair(1.0, 1.0), 0.1)
    with pytest.raises(ValueError, match=r"^TTLRModel labels\[1\] must be finite, got inf$"):
        TTLRModel(np.zeros((2, 2)), TemperaturePair(1.0, 1.0), 0.1, labels=(1.0, np.inf))
    message = r"^TTLRModel labels must have 3 entries, got \(1.0, 2.0\)$"
    with pytest.raises(ValueError, match=message):
        TTLRModel(np.zeros((2, 3)), TemperaturePair(1.0, 1.0), 0.1, labels=(1.0, 2.0))


def test_a_model_refuses_weights_that_are_not_a_matrix():
    # a 1-d W once raised an IndexError from num_classes
    with pytest.raises(ValueError, match=r"^TTLRModel W must have shape \(dim, C\), got \(3,\)$"):
        TTLRModel(np.zeros(3), TemperaturePair(1.0, 1.0), 0.1)


def test_a_model_built_without_labels_round_trips(tmp_path):
    # its labels are the identity table; the file once lacked them and failed to load
    model = TTLRModel(np.eye(2, 3), TemperaturePair(0.6, 1.6), 0.1)
    assert model.labels == (1.0, 2.0, 3.0)
    path = tmp_path / "model.json"
    save_model(model, path)
    back = load_model(path)
    assert back.labels == model.labels and np.array_equal(back.W, model.W)


def test_a_model_built_with_a_tuple_predicts_and_round_trips(tmp_path):
    # the tuple was once kept as given: predict_proba failed on its t2 and
    # save_model on its t1, each with an AttributeError
    model = TTLRModel(np.zeros((2, 2)), (1.0, 1.0), 0.1)
    assert model.temps == TemperaturePair(1.0, 1.0)
    assert np.array_equal(predict_proba(model, np.ones(2)), [0.5, 0.5])
    path = tmp_path / "model.json"
    save_model(model, path)
    back = load_model(path)
    assert (back.temps, back.lam, back.labels) == (model.temps, model.lam, model.labels)
    assert np.array_equal(back.W, model.W)


@pytest.mark.parametrize("weights", [[[1e200, -1e200]], [[1e200, 2e200]]])
@pytest.mark.parametrize("t2", [1.0, 1.6])
def test_predict_refuses_activations_past_the_float_range(weights, t2):
    # these once leaked a matmul overflow: predict_proba gave NaN
    # probabilities, and predict class 1 for the tie [inf, inf] of the second
    model = TTLRModel(np.array(weights), (1.0, t2), 0.1)
    message = r"^input activations\[0\]\[0\] must be finite, got inf$"
    for x in (np.array([[1e200]]), np.array([1e200])):
        for call in (predict, predict_proba):
            with pytest.raises(ValueError, match=message):
                call(model, x)


def test_fit_rejects_bad_lambda_and_features(blobs):
    for lam in (float("nan"), float("inf"), -1e-3):
        with pytest.raises(ValueError, match="lambda must be finite and >= 0"):
            fit(blobs, temps=(1.0, 1.0), lam=lam)
    # non-finite features are refused where the Dataset is built, not by fit
    X = sparse.csr_array(blobs.X).toarray()
    X[3, 1] = np.nan
    with pytest.raises(ValueError, match=r"^Dataset X\[3\]\[1\] must be finite, got nan$"):
        Dataset(sparse.csr_array(X), blobs.y, blobs.num_classes)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: FitConfig(seed=-1), "FitConfig seed must be an integer >= 0, got -1"),
        (lambda: FitConfig(seed=1.5), "FitConfig seed must be an integer >= 0, got 1.5"),
        (lambda: FitConfig(seed=True), "FitConfig seed must be an integer >= 0, got True"),
        (lambda: FitConfig(optimizer="x"),
         "FitConfig optimizer must be an OptimizerConfig, got 'x'"),
        (lambda: fit(Dataset(np.empty((0, 2)), np.empty(0, dtype=np.int64), 2), (1.0, 1.0), 0.1),
         "dataset is empty"),
        (lambda: fit(Dataset(np.ones((3, 2)), [1, 1, 1], 1), (1.0, 1.0), 0.1),
         "at least 2 classes are required"),
    ],
)
def test_fit_rejects_a_bad_setting_before_fitting(build, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        build()


def test_fit_config_keeps_an_integer_seed():
    for seed in (np.int64(3), 3.0):
        config = FitConfig(seed=seed, optimizer=OptimizerConfig(max_iters=5))
        assert config.seed == 3 and type(config.seed) is int


def test_fit_from_a_converged_init_stops_at_once(blobs):
    temps = (0.6, 1.6)
    cold = fit(blobs, temps=temps, lam=1e-3)
    assert cold.trace.termination == "converged"
    start = cold.W.copy()
    # the seed is not used once init is given
    warm = fit(blobs, temps=temps, lam=1e-3, config=FitConfig(seed=99), init=cold.W)
    assert warm.trace.termination == "converged"
    assert warm.trace.evaluations <= 3
    assert np.array_equal(warm.W, cold.W)
    assert np.array_equal(cold.W, start)


def test_fit_rejects_bad_init(blobs):
    with pytest.raises(ValueError, match=r"init must have shape \(2, 2\), got \(3, 2\)"):
        fit(blobs, temps=(1.0, 1.0), lam=1e-3, init=np.zeros((3, 2)))
    with pytest.raises(ValueError, match=r"init must have shape \(2, 2\), got \(4,\)"):
        fit(blobs, temps=(1.0, 1.0), lam=1e-3, init=np.zeros(4))
    for bad in (np.nan, np.inf):
        init = np.zeros((2, 2))
        init[1, 0] = bad
        with pytest.raises(ValueError, match=rf"^init\[1\]\[0\] must be finite, got {bad}$"):
            fit(blobs, temps=(1.0, 1.0), lam=1e-3, init=init)


def test_fit_from_a_seeded_start_past_the_float_range_starts_at_zero():
    # the seeded W gives activations of about 1e195, so each true class has
    # P = 0 and the t1 = 1 loss is +inf; at W = 0 every P is 1/2
    data = Dataset(np.array([[1e200], [-1e200]]), np.array([1, 2]), 2)
    model = fit(data, (1.0, 1.0), 1.0, FitConfig(seed=1))
    assert np.array_equal(model.W, np.zeros((1, 2)))
    assert model.trace.termination == "line_search_failed"
    assert model.trace.objective_values == [math.log(2.0)]


@pytest.mark.parametrize("temps", [(1.0, 1.0), (0.6, 1.6)])
def test_a_fit_on_huge_features_is_the_same_under_any_error_settings(temps):
    # under all="raise" an underflow in exp once ended this fit with a
    # FloatingPointError
    data = Dataset(np.array([[1e200], [-1e200]]), np.array([1, 2]), 2)
    model = fit(data, temps, 1.0)
    with np.errstate(all="raise"):
        strict = fit(data, temps, 1.0)
    assert model.trace.termination == strict.trace.termination == "converged"
    assert strict.W.tobytes() == model.W.tobytes()


def test_fit_names_features_whose_gradient_overflows_at_zero():
    # the seeded start at seed 1 has an infinite loss, and at W = 0 the four
    # rows of 1e308 in class 1 sum past the float range in the gradient
    data = Dataset(np.array([[1e308]] * 4 + [[-1e308]]), np.array([1, 1, 1, 1, 2]), 2)
    message = r"^feature values must keep the gradient at W = 0 finite, got 1e\+308$"
    with pytest.raises(ValueError, match=message):
        fit(data, (1.0, 1.0), 1e-4, FitConfig(seed=1))


def test_fit_names_an_init_where_the_objective_is_not_finite():
    data = Dataset(np.array([[1e200], [-1e200]]), np.array([1, 2]), 2)
    message = r"^objective at init must be finite with a finite gradient, got inf$"
    with pytest.raises(ValueError, match=message):
        fit(data, (1.0, 1.0), 1.0, init=np.array([[-1.0, 1.0]]))


def test_fit_skips_a_curvature_pair_whose_norms_overflow():
    # features of 1e300 give gradients whose norms overflow; the pair is
    # skipped and the fit ends without a warning (warnings are errors here)
    data = Dataset(np.array([[1e300], [-1e300]]), np.array([1, 2]), 2)
    model = fit(data, (0.5, 1.9), 1.0, FitConfig(seed=1))
    assert np.isfinite(model.W).all()
    assert model.trace.evaluations == 1 + model.trace.iterations + model.trace.backtracks


def test_load_rejects_nonfinite_payload(tmp_path, blobs):
    model = fit(blobs, temps=(1.0, 1.0), lam=1e-3)
    path = tmp_path / "model.json"
    save_model(model, path)
    text = path.read_text()
    weight = repr(float(model.W[0, 1]))
    for bad, message in (
        (text.replace(weight, "NaN", 1), r"TTLRModel W\[0\]\[1\] must be finite, got nan"),
        (text.replace('"lambda": 0.001', '"lambda": Infinity'), "lambda must be finite"),
    ):
        path.write_text(bad)
        with pytest.raises(ValueError, match=message) as err:
            load_model(path)
        assert str(path) in str(err.value)


def test_load_names_the_file_it_cannot_read(tmp_path, blobs):
    path = tmp_path / "model.json"
    save_model(fit(blobs, temps=(1.0, 1.0), lam=1e-3), path)
    payload = json.loads(path.read_text())
    cases = [
        (json.dumps({**payload, "labels": [float("inf"), 2.0]}),
         "TTLRModel labels[0] must be finite, got inf"),
        (json.dumps({**payload, "lambda": "0.001"}),
         "malformed model field: lambda must be finite and >= 0, got '0.001'"),
        (b"\xff{}", "'utf-8' codec can't decode"),
    ]
    for content, message in cases:
        if isinstance(content, bytes):
            path.write_bytes(content)
        else:
            path.write_text(content)
        with pytest.raises(ValueError, match=re.escape(f"{path}: {message}")):
            load_model(path)
    with pytest.raises(ValueError, match=re.escape(f"cannot read {tmp_path}: Is a directory")):
        load_model(tmp_path)
