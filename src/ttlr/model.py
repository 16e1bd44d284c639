"""Classifier facade: fit via L-BFGS, predict, serialization.

The model is purely linear (no automatic bias column); prediction is the
argmax over per-class activations with ties broken toward the lowest class
index. plain_lr and t_lr are temperature special cases of the same machinery.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .data import check_finite, read_json
from .loss import TemperaturePair, as_pair, regularized_objective
from .optimizer import OptimizationTrace, OptimizerConfig, lbfgs_minimize
from .partition import tempered_probs_rows
from .tempered import check, check_vector, validate_count, validate_lambda

__all__ = [
    "TTLRModel",
    "FitConfig",
    "fit",
    "predict",
    "predict_proba",
    "save_model",
    "load_model",
]

MODEL_FORMAT = "ttlr-model"
MODEL_VERSION = 2

# Entrywise standard deviation of the seeded near-zero initial W.
INIT_STDDEV = 1e-5

# fit refuses a dense (dim, num_classes) float64 W larger than this.
MAX_WEIGHT_BYTES = 2**31


@dataclass(frozen=True)
class FitConfig:
    """Initialization seed plus the optimizer settings."""

    seed: int = 0
    optimizer: OptimizerConfig = OptimizerConfig()

    def __post_init__(self):
        object.__setattr__(self, "seed", validate_count(self.seed, "FitConfig seed", 0))
        check(isinstance(self.optimizer, OptimizerConfig), "FitConfig optimizer",
              "be an OptimizerConfig", self.optimizer)


@dataclass(frozen=True)
class TTLRModel:
    """Fitted weights W, one column per class: W.shape is (dim, num_classes).

    labels[k-1] is the training file's label value for class k, the value
    predictions stand for outside the package: by default (1.0, 2.0, ...), as
    a Dataset's. W is finite and labels has one finite value per class, or an
    error names the entry ("TTLRModel W[0][1] must be finite, got nan").
    """

    W: np.ndarray
    temps: TemperaturePair
    lam: float
    trace: OptimizationTrace | None = None
    labels: tuple = ()

    def __post_init__(self):
        W = np.asarray(self.W, dtype=float)
        check(W.ndim == 2, "TTLRModel W", "have shape (dim, C)", W.shape)
        check_finite(W, "TTLRModel W")
        c = W.shape[1]
        labels = check_vector(self.labels or range(1, c + 1), "TTLRModel labels", 0)
        check(labels.size == c, "TTLRModel labels", f"have {c} entries", self.labels)
        object.__setattr__(self, "W", W)
        object.__setattr__(self, "labels", tuple(labels.tolist()))

    @property
    def dim(self) -> int:
        return self.W.shape[0]

    @property
    def num_classes(self) -> int:
        return self.W.shape[1]


def fit(data, temps, lam: float, config: FitConfig | None = None, init=None) -> TTLRModel:
    """Minimize the regularized objective from init, or a seeded near-zero W.

    init is a finite (dim, num_classes) start W, such as the solution at a
    nearby lambda; when it is given the seed is not used, and an init where
    the objective or its gradient is not finite is an error naming it. Where
    the seeded W gives such an objective, the fit starts from W = 0 instead,
    where only a gradient past the float range is an error. The features are
    not scanned here: a Dataset checks them finite when it is built.
    Deterministic given (data, temps, lam, seed, init). A dataset whose
    features are identically zero short-circuits to the zero solution, with
    termination "degenerate_data" and that solution as the trace's one point
    (every W is then equivalent up to regularization, and the gradient at 0
    is 0).
    """
    temps = as_pair(temps)
    config = config or FitConfig()
    lam = validate_lambda(lam)
    if data.n == 0:
        raise ValueError("dataset is empty")
    if data.num_classes < 2:
        raise ValueError("at least 2 classes are required")
    d, c = data.dim, data.num_classes
    if 8 * d * c > MAX_WEIGHT_BYTES:
        raise ValueError(
            f"a weight matrix of dim {d} x {c} classes takes {8 * d * c} bytes, "
            f"above the cap of {MAX_WEIGHT_BYTES} bytes"
        )
    if init is not None:
        init = np.asarray(init, dtype=float)
        check(init.shape == (d, c), "init", f"have shape ({d}, {c})", init.shape)
        check_finite(init, "init")

    values = data.X.data if sparse.issparse(data.X) else data.X
    if not values.any():
        W = np.zeros((d, c))
        trace = OptimizationTrace(termination="degenerate_data", evaluations=1)
        trace.record(regularized_objective(data, W, temps, lam)[0], 0.0, 0.0)
        return TTLRModel(W, temps, lam, trace, data.label_table)

    seeded = init is None
    if seeded:
        init = np.random.default_rng(config.seed).normal(0.0, INIT_STDDEV, size=(d, c))

    def objective(flat):
        value, grad = regularized_objective(data, flat.reshape(d, c), temps, lam)
        return value, grad.ravel()

    try:
        flat, trace = lbfgs_minimize(objective, init, config.optimizer)
    except ValueError:  # the objective is not finite at init
        if not seeded:
            raise
        # Huge features can give the seeded W activations that leave a true
        # class no mass; at W = 0 every p is 1/C and the value is finite.
        try:
            flat, trace = lbfgs_minimize(objective, np.zeros(d * c), config.optimizer)
        except ValueError:  # a gradient entry, a sum over features, overflowed
            top = float(np.abs(values).max())
            check(False, "feature values", "keep the gradient at W = 0 finite", top)
    return TTLRModel(flat.reshape(d, c), temps, lam, trace, data.label_table)


def _activations(model: TTLRModel, x) -> np.ndarray:
    if not sparse.issparse(x):
        x = np.asarray(x, dtype=float)
    d = model.dim
    check(x.ndim in (1, 2) and x.shape[-1] == d, "input", f"have shape ({d},) or (n, {d})", x.shape)
    check_finite(x, "input")
    a = np.asarray(x @ model.W, dtype=float)
    return a[None, :] if a.ndim == 1 else a


def predict(model: TTLRModel, x):
    """argmax_c <x, w_c> as a 1-based label; lowest index wins ties.

    Accepts a single vector or a feature matrix (returns an array then).
    """
    a = _activations(model, x)
    labels = np.argmax(a, axis=1) + 1
    return int(labels[0]) if np.ndim(x) == 1 else labels


def predict_proba(model: TTLRModel, x):
    """Tempered class probabilities exp_t2(a_c - G) for the model activations."""
    a = _activations(model, x)
    p = tempered_probs_rows(a, model.temps.t2)
    return p[0] if np.ndim(x) == 1 else p


def save_model(model: TTLRModel, path) -> None:
    """Versioned JSON: dim, num_classes, t1, t2, lambda, labels, row-major W.

    Floats are written in shortest round-trip form, so load restores W exactly.
    """
    payload = {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "dim": model.dim,
        "num_classes": model.num_classes,
        "t1": model.temps.t1,
        "t2": model.temps.t2,
        "lambda": model.lam,
        "labels": [float(v) for v in model.labels],
        "weights": np.asarray(model.W, dtype=float).tolist(),
    }
    # json.dumps takes the C encoder; json.dump streams through the Python one.
    text = json.dumps(payload) + "\n"
    with open(path, "w") as fh:
        fh.write(text)


def load_model(path) -> TTLRModel:
    """Read a save_model file; every malformed field is a ValueError naming it."""
    payload = read_json(path)
    if not isinstance(payload, dict) or payload.get("format") != MODEL_FORMAT:
        raise ValueError(f"not a model file: {path}")
    if payload.get("version") != MODEL_VERSION:
        raise ValueError(f"{path}: unsupported model version {payload.get('version')!r}")
    try:
        dim = validate_count(payload["dim"], "dim", 0)
        num_classes = validate_count(payload["num_classes"], "num_classes", 2)
        temps = TemperaturePair(payload["t1"], payload["t2"])
        lam = validate_lambda(payload["lambda"])
        labels = tuple(float(v) for v in payload["labels"])
        W = np.array(payload["weights"], dtype=float)
    except KeyError as exc:
        raise ValueError(f"{path}: model file has no {exc.args[0]!r} field") from None
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: malformed model field: {exc}") from None
    if dim == 0 and W.shape == (0,):  # a (0, C) W is written as []
        W = W.reshape(0, num_classes)
    if W.shape != (dim, num_classes) or len(labels) != num_classes:
        raise ValueError(f"{path}: weight or label shape disagrees with the recorded dimensions")
    try:
        return TTLRModel(W, temps, lam, labels=labels)
    except ValueError as exc:  # a non-finite weight or label, named by index
        raise ValueError(f"{path}: {exc}") from None
