"""Tempered log-partition function G_t2 and derived quantities.

G_t2(a) is the scalar shift making the tempered class probabilities
exp_t2(a_c - G) sum to one. It has no closed form for t2 != 1 and is found by
safeguarded Newton root finding on a bracket that always contains the root.
Also provided: tempered probabilities, escort distributions, and the first and
second derivatives of G along the binary margin parameterization [a/2, -a/2].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tempered import T_SWITCH, exp_t, log_t, validate_temperature

__all__ = [
    "PartitionResult",
    "log_partition",
    "log_partition_rows",
    "tempered_probs",
    "tempered_probs_rows",
    "escort",
    "margin_derivatives",
]

# Absolute tolerance on the normalization residual |sum_c exp_t2(a_c - G) - 1|.
RESIDUAL_TOL = 1e-13
MAX_ITERATIONS = 200


@dataclass(frozen=True)
class PartitionResult:
    """Root-finding outcome: normalizer value, achieved residual, iteration count."""

    G: float
    residual: float
    iterations: int


def _validate_activations(a) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim != 1 or a.size < 2:
        raise ValueError("activation vector must be 1-d with at least 2 classes")
    if not np.isfinite(a).all():
        raise ValueError("activation vector must be finite")
    return a


def log_partition_rows(A: np.ndarray, t2: float):
    """Solve the normalizer for every row of A at once.

    Returns (G, residual, iterations) arrays of length N. Rows are pre-shifted
    by their max so exp_t2 arguments stay in [-inf, 0]; the root is bracketed
    in [max_c a_c, max_c a_c - log_t2(1/C)] where the residual changes sign.
    Assumes finite input; callers validate.
    """
    validate_temperature(t2)
    A = np.asarray(A, dtype=float)
    n, c = A.shape
    m = A.max(axis=1)
    B = A - m[:, None]

    if abs(1.0 - t2) < T_SWITCH:
        # Closed form: shifted log-sum-exp.
        g = np.log(np.exp(B).sum(axis=1))
        res = np.abs(np.exp(B - g[:, None]).sum(axis=1) - 1.0)
        return g + m, res, np.zeros(n, dtype=np.int64)

    lo = np.zeros(n)
    hi = np.full(n, -log_t(1.0 / c, t2))
    g = np.zeros(n)
    f = exp_t(B, t2).sum(axis=1) - 1.0
    iters = np.zeros(n, dtype=np.int64)
    active = np.abs(f) > RESIDUAL_TOL
    it = 0
    while active.any() and it < MAX_ITERATIONS:
        it += 1
        ga, fa = g[active], f[active]
        loa, hia = lo[active], hi[active]
        # Keep the sign-change bracket tight: residual is decreasing in G.
        loa = np.where(fa > 0.0, np.maximum(loa, ga), loa)
        hia = np.where(fa < 0.0, np.minimum(hia, ga), hia)
        p = exp_t(B[active] - ga[:, None], t2)
        fprime = -np.power(p, t2).sum(axis=1)
        newton = ga - fa / fprime
        outside = ~np.isfinite(newton) | (newton < loa) | (newton > hia)
        step = np.where(outside, 0.5 * (loa + hia), newton)
        g[active] = step
        lo[active], hi[active] = loa, hia
        iters[active] = it
        f[active] = exp_t(B[active] - step[:, None], t2).sum(axis=1) - 1.0
        active = np.abs(f) > RESIDUAL_TOL
    if active.any():
        raise RuntimeError(
            "normalizer root finding failed to reach tolerance "
            f"{RESIDUAL_TOL} within {MAX_ITERATIONS} iterations"
        )
    return g + m, np.abs(f), iters


def log_partition(a, t2: float) -> PartitionResult:
    """Normalizer G with sum_c exp_t2(a_c - G) = 1 for one activation vector."""
    a = _validate_activations(a)
    g, res, iters = log_partition_rows(a[None, :], t2)
    return PartitionResult(float(g[0]), float(res[0]), int(iters[0]))


def tempered_probs_rows(A: np.ndarray, t2: float) -> np.ndarray:
    """Row-wise tempered probabilities exp_t2(a_c - G); assumes finite input."""
    A = np.asarray(A, dtype=float)
    g, _, _ = log_partition_rows(A, t2)
    return exp_t(A - g[:, None], t2)


def tempered_probs(a, t2: float) -> np.ndarray:
    """Probability vector exp_t2(a_c - G_t2(a)).

    Entries are exact zeros where the t2 < 1 clamp is active; strictly
    positive everywhere for t2 > 1 (heavy tail). Equals softmax(a) at t2 = 1.
    """
    a = _validate_activations(a)
    return tempered_probs_rows(a[None, :], t2)[0]


def escort(p, t2: float) -> np.ndarray:
    """Escort distribution q_c = p_c^t2 / sum_j p_j^t2.

    Preserves the argmax and equals p at t2 = 1. This is the gradient of
    G_t2 with respect to the activation vector, evaluated at p = probs(a).
    """
    validate_temperature(t2)
    p = np.asarray(p, dtype=float)
    if p.ndim != 1 or p.size == 0:
        raise ValueError("p must be a nonempty 1-d vector")
    if np.any(p < 0.0) or not np.isfinite(p).all():
        raise ValueError("p must be entrywise finite and >= 0")
    with np.errstate(invalid="ignore"):
        q = escort_rows(p[None, :], t2)[0]
    if not np.isfinite(q).all():
        raise ValueError("escort is undefined: sum_c p_c^t2 is 0 or not finite")
    return q


def escort_rows(P: np.ndarray, t2: float) -> np.ndarray:
    """Row-wise escort without validation; for the batched objective path."""
    powered = np.power(P, t2)
    return powered / powered.sum(axis=1, keepdims=True)


def margin_derivatives(a, t2: float):
    """Class +1 probability, dG/da and d2G/da2 along [a/2, -a/2].

    Takes an array of margins. dG/da is the escort mean of c/2, inside
    [-1/2, 1/2], and equals tanh(a/2)/2 at t2 = 1. d2G/da2 is the
    t2-weighted escort variance of c/2, >= 0; classes with exactly zero
    probability contribute nothing, so inside the t2 < 1 plateau (all mass on
    one class) it is exactly 0.
    """
    a = np.atleast_1d(np.asarray(a, dtype=float))
    A = np.stack([0.5 * a, -0.5 * a], axis=1)
    P = tempered_probs_rows(A, t2)
    powered = np.power(P, t2)
    S = powered.sum(axis=1)
    d1 = 0.5 * (powered[:, 0] - powered[:, 1]) / S
    weights = np.zeros_like(P)
    pos = P > 0.0
    weights[pos] = np.power(P[pos], 2.0 * t2 - 1.0)
    c_half = np.array([0.5, -0.5])
    d2 = t2 * (weights * (c_half[None, :] - d1[:, None]) ** 2).sum(axis=1) / S
    return P[:, 0], d1, d2
