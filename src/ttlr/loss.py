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
from .tempered import log_t, validate_lambda, validate_temperature

__all__ = [
    "TemperaturePair",
    "activation_terms",
    "batch_losses",
    "regularized_objective",
]


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
    """Accept a TemperaturePair or a plain (t1, t2) tuple."""
    if isinstance(temps, TemperaturePair):
        return temps
    return TemperaturePair(*temps)


def _losses_from_probs(pn: np.ndarray, t1: float) -> np.ndarray:
    """Vector of -log_t1(p) with the saturation conventions.

    p = 0 gives the finite cap 1/(1-t1) for t1 < 1 and +inf for t1 >= 1
    (saturation; with L2 regularization the optimizer never accepts it).
    """
    out = np.empty_like(pn)
    pos = pn > 0.0
    out[pos] = -log_t(pn[pos], t1)
    if not pos.all():
        out[~pos] = 1.0 / (1.0 - t1) if t1 < 1.0 else np.inf
    return out


def _importance(pn: np.ndarray, gap: float) -> np.ndarray:
    """Importance factor p^gap, evaluated in log space for underflow safety.

    At p = 0 the factor is taken as 0: for gap > 0 that is the limit, and for
    t1 < 1 the loss is flat there (plateau), so the zero gradient is exact
    either way. Elsewhere it is exactly 1 at zero gap.
    """
    if not gap:
        return (pn > 0.0).astype(float)
    out = np.zeros_like(pn)
    pos = pn > 0.0
    out[pos] = np.exp(gap * np.log(pn[pos]))
    return out


def activation_terms(A: np.ndarray, y: np.ndarray, temps):
    """Per-row losses and their gradient with respect to the activations A.

    Gradient row i is -p^(t2-t1) (e_y - escort(P_i)), p the true-class
    probability; it is zero where p is exactly 0. The one copy of the
    surrogate's math: the objective, batch_losses and the binary margin
    derivative (analysis.loss_first_derivative) are views of it.
    """
    temps = as_pair(temps)
    _, _, _, P, powered = log_partition_rows(A, temps.t2)
    rows = np.arange(A.shape[0])
    pn = P[rows, y - 1]
    # -escort, built in the powered buffer (which may be P itself at t2 = 1)
    dA = np.divide(powered, -row_sum(powered)[:, None], out=powered)
    dA[rows, y - 1] += 1.0
    dA *= -_importance(pn, temps.gap)[:, None]
    return _losses_from_probs(pn, temps.t1), dA


def batch_losses(X, y: np.ndarray, W: np.ndarray, temps) -> np.ndarray:
    """Per-example losses for a whole feature matrix, in example order."""
    return activation_terms(np.asarray(X @ W, dtype=float), np.asarray(y), temps)[0]


def regularized_objective(data, W: np.ndarray, temps, lam: float):
    """Mean surrogate loss plus (lam/2) ||W||_F^2, with its gradient.

    The mean runs in example index order (fixed reduction topology), so
    repeated evaluations are bit-identical. A row whose true-class probability
    is exactly 0 adds the cap 1/(1-t1) to the value under t1 < 1 and +inf
    otherwise (only ever on rejected line-search trials), and no gradient.
    """
    lam = validate_lambda(lam)
    W = np.asarray(W, dtype=float)
    X, y = data.X, np.asarray(data.y)
    n = X.shape[0]
    if n == 0:
        raise ValueError("dataset is empty")
    # A rejected line-search trial may overflow the activations or the ridge
    # term; its value is then inf or NaN, and the search backs off.
    with np.errstate(over="ignore", invalid="ignore"):
        A = np.asarray(X @ W, dtype=float)
    losses, dA = activation_terms(A, y, temps)
    with np.errstate(over="ignore", invalid="ignore"):
        value = float(np.mean(losses)) + 0.5 * lam * float(np.sum(W * W))
        grad = np.asarray(X.T @ dA, dtype=float) / n + lam * W
    return value, grad
