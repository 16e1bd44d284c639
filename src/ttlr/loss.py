"""Two-temperature surrogate loss, its analytic gradient, and the L2 objective.

The per-example loss is -log_t1 of the tempered probability of the true class,
where the probability itself is built with exp_t2. With t1 = t2 = 1 this is
multiclass logistic regression; t1 = 1, t2 = t is the t-logistic loss; t1 < 1
caps the loss at 1/(1-t1) and a positive temperature gap t2 - t1 damps the
gradient of low-probability examples by the importance factor p^(t2-t1).

Losses and gradients are computed for a whole feature matrix at once; a single
example is a one-row matrix, and the binary margin form is the two-column
embedding W = [w/2, -w/2] (see analysis.margin_losses).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .partition import log_partition_rows, row_sum
from .data import check_finite
from .tempered import check, check_labels, log_t, validate_lambda, validate_temperature

__all__ = [
    "TemperaturePair",
    "activation_terms",
    "batch_losses",
    "regularized_objective",
]

# ln of the largest float: the most the log-space power may reach.
_LOG_MAX = float(np.log(np.finfo(float).max))


@dataclass(frozen=True)
class TemperaturePair:
    """The (t1, t2) pair shaping the loss; both validated into (0, 2).

    Convex iff t1 >= t2 and t1 >= 1, quasi-convex otherwise.
    """

    t1: float
    t2: float

    def __post_init__(self):
        object.__setattr__(self, "t1", validate_temperature(self.t1))
        object.__setattr__(self, "t2", validate_temperature(self.t2))

    @property
    def gap(self) -> float:
        return self.t2 - self.t1


def as_pair(temps) -> TemperaturePair:
    """temps if it is a TemperaturePair, else the pair its two values make."""
    if isinstance(temps, TemperaturePair):
        return temps
    try:
        t1, t2 = temps
    except (TypeError, ValueError):
        check(False, "temps", "be a (t1, t2) pair", temps)
    return TemperaturePair(t1, t2)


def _losses_from_probs(pn: np.ndarray, t1: float) -> np.ndarray:
    """-log_t1(p): at p = 0 the cap 1/(1-t1) for t1 < 1, else +inf, as where a
    tiny finite p overflows p^(1-t1) at t1 > 1; a NaN p gives NaN.
    """
    with np.errstate(over="ignore"):
        return -log_t(pn, t1)


def positive_power(p: np.ndarray, k: float) -> np.ndarray:
    """p^k entrywise for p >= 0, taken as 0 at p = 0 for every k.

    The one zero-mass power: the gradient's importance factor p^(t2-t1) and
    the `analysis` curvature terms. At p = 0 the 0 is the limit for k > 0; for
    k <= 0 it multiplies a flat loss or a zero. Else it is exp(k ln p), 1 at
    k = 0, capped at the largest float so a gradient stays finite; NaN gives 0.
    """
    live = p > 0.0
    if not k:
        return live.astype(float)
    power = np.exp(np.minimum(k * np.log(np.where(live, p, 1.0)), _LOG_MAX))
    return np.where(live, power, 0.0)


def activation_terms(A: np.ndarray, y: np.ndarray, temps):
    """Per-row losses and their gradient with respect to the activations A.

    Gradient row i is -p^(t2-t1) (e_y - escort(P_i)), p the true-class
    probability; it is zero where p is exactly 0. The one copy of the
    surrogate's math: the objective, batch_losses and the binary margin
    derivative (analysis.loss_first_derivative) are views of it. y holds an
    integer label in 1..C per row, unchecked here: Dataset and the analysis
    helpers build valid labels, and batch_losses checks its own.
    """
    temps = as_pair(temps)
    _, _, _, P, powered = log_partition_rows(A, temps.t2)
    rows = np.arange(A.shape[0])
    pn = P[rows, y - 1]
    # -escort, built in the powered buffer (which may be P itself at t2 = 1)
    dA = np.divide(powered, -row_sum(powered)[:, None], out=powered)
    dA[rows, y - 1] += 1.0
    dA *= -positive_power(pn, temps.gap)[:, None]
    return _losses_from_probs(pn, temps.t1), dA


def batch_losses(X, y: np.ndarray, W: np.ndarray, temps) -> np.ndarray:
    """Per-example losses of the rows of X, each with its label y_i in 1..C = W.shape[1]."""
    W = np.asarray(W, dtype=float)
    n, d = X.shape
    check(W.ndim == 2 and W.shape[0] == d, "W", f"have shape ({d}, C)", W.shape)
    check_finite(W, "W")
    y = check_labels(y, W.shape[1], n, "y")
    return activation_terms(np.asarray(X @ W, dtype=float), y, temps)[0]


def regularized_objective(data, W: np.ndarray, temps, lam: float):
    """Mean surrogate loss plus (lam/2) ||W||_F^2, with its gradient.

    The mean runs in example index order (fixed reduction topology), so
    repeated evaluations are bit-identical. A row whose true-class probability
    is exactly 0 adds the cap 1/(1-t1) to the value under t1 < 1 and +inf
    otherwise (only ever on rejected line-search trials), and no gradient.
    W has shape (dim, C) and the labels lie in 1..C, as a Dataset's do.
    W is left unchecked: a W that overflows gives an inf or NaN value, which
    lbfgs_minimize rejects as a trial under its own errstate.
    """
    lam = validate_lambda(lam)
    W = np.asarray(W, dtype=float)
    X, y = data.X, np.asarray(data.y)
    n, d = X.shape
    if n == 0:
        raise ValueError("dataset is empty")
    check(W.ndim == 2 and W.shape[0] == d, "W", f"have shape ({d}, C)", W.shape)
    losses, dA = activation_terms(np.asarray(X @ W, dtype=float), y, temps)
    value = float(np.mean(losses)) + 0.5 * lam * float(np.sum(W * W))
    return value, np.asarray(X.T @ dA, dtype=float) / n + lam * W
