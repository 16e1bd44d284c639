"""Numerical loss-shape diagnostics: curvature, inflections, calibration checks.

Works in the binary margin parameterization (activations [a/2, -a/2], label
c = +1): every margin helper builds its activations from that one embedding
and checks its margins with one rule. The first derivative of the loss is
the training kernel's activation gradient along the embedding, the second a
closed form in the derivatives of G along it (`margin_derivatives`) whose
powers of p are the gradient's `loss.positive_power`; both are checked
against finite differences in `verify`. Here they drive regime
classification and inflection search. One oracle verifies that minimizing
the expected loss recovers the class posterior's argmax: the multiclass
check, which polishes on the p-weighted training kernel itself. The binary
check is its two-class case, read as a margin.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .loss import TemperaturePair, activation_terms, as_pair, batch_losses, positive_power
from .optimizer import OptimizerConfig, lbfgs_minimize
from .partition import log_partition_rows, row_sum, tempered_probs_rows
from .tempered import check, check_distribution, check_vector, is_number, log_t

__all__ = [
    "CurvatureReport",
    "BayesCheck",
    "MulticlassBayesCheck",
    "margin_derivatives",
    "margin_losses",
    "loss_first_derivative",
    "loss_second_derivative",
    "inflection_residual",
    "find_inflection",
    "curvature_report",
    "bayes_binary_check",
    "bayes_multiclass_check",
]

INFLECTION_RESIDUAL_TOL = 1e-6
# Second differences of the loss (over h^2) down to -CONVEXITY_TOL still read as convex.
CONVEXITY_TOL = 1e-8


def is_convex_pair(temps) -> bool:
    """Shape predicate: the loss is convex iff t1 >= t2 and t1 >= 1."""
    temps = as_pair(temps)
    return temps.t1 >= temps.t2 and temps.t1 >= 1.0


# Activations [a/2, -a/2] of the margin a as a one-feature linear map.
_MARGIN_EMBEDDING = np.array([[0.5, -0.5]])


def _margins(a) -> np.ndarray:
    """A margin or a nonempty 1-d array of them, as a finite float vector, else an error."""
    return check_vector(np.atleast_1d(a), "margin")


def _bounds(lo, hi) -> None:
    check(is_number(lo) and -np.inf < lo < np.inf, "lo", "be finite", lo)
    check(is_number(hi) and lo < hi < np.inf, "hi", "be finite and > lo", hi)


def margin_derivatives(a, t2: float):
    """Class +1 probability, dG/da and d2G/da2 along [a/2, -a/2].

    Takes a margin or an array of them. dG/da is the escort mean of c/2,
    inside [-1/2, 1/2], and equals tanh(a/2)/2 at t2 = 1. d2G/da2 is the
    t2-weighted escort variance of c/2, >= 0; classes with exactly zero
    probability contribute nothing, so inside the t2 < 1 plateau (all mass on
    one class) it is exactly 0.
    """
    _, _, _, P, powered = log_partition_rows(_margins(a)[:, None] @ _MARGIN_EMBEDDING, t2)
    S = row_sum(powered)
    d1 = 0.5 * (powered[:, 0] - powered[:, 1]) / S
    # P**(2 t2 - 1) = P**t2 * P**(t2 - 1), exactly P at t2 = 1
    weights = powered * positive_power(P, t2 - 1.0)
    d2 = t2 * row_sum(weights * (_MARGIN_EMBEDDING - d1[:, None]) ** 2) / S
    return P[:, 0], d1, d2


def margin_losses(a, temps) -> np.ndarray:
    """Binary loss values of label +1 over an array of margins.

    The batched loss of the two-class embedding; at t1 = t2 = 1 this is
    log(1 + exp(-a)). The -1 loss at a is the +1 loss at -a.
    """
    a = _margins(a)
    return batch_losses(a[:, None], np.ones(a.size, dtype=np.int64), _MARGIN_EMBEDDING, temps)


def loss_first_derivative(a, temps):
    """d/da of the c=+1 loss: the training gradient along [1/2, -1/2].

    Equals -p^(t2-t1) (1/2 - dG/da); exactly 0 on the p = 0 plateau.
    """
    A = _margins(a)[:, None] @ _MARGIN_EMBEDDING
    _, dA = activation_terms(A, np.ones(A.shape[0], dtype=np.int64), temps)
    out = (dA @ _MARGIN_EMBEDDING.T)[:, 0]
    return out if np.ndim(a) else float(out[0])


def _curvature_balance(a, temps: TemperaturePair):
    """Class +1 probability p and the balance d2G - (t2-t1) p^(t2-1) (1/2 - dG)^2.

    The c=+1 loss has second derivative p^(t2-t1) times the balance, so its
    zeros are the inflections. An exactly-zero probability contributes no gap
    term (`positive_power` is 0 there); d2G is 0 there too, so the balance is
    exactly 0 on the p = 0 plateau.
    """
    p, d1, d2 = margin_derivatives(a, temps.t2)
    return p, d2 - temps.gap * positive_power(p, temps.t2 - 1.0) * (0.5 - d1) ** 2


def loss_second_derivative(a, temps):
    """d2/da2 of the c=+1 loss: p^(t2-t1) [d2G - (t2-t1) p^(t2-1) (1/2 - dG)^2].

    Returns exactly 0 inside the p = 0 plateau, where the loss is constant.
    """
    temps = as_pair(temps)
    p, balance = _curvature_balance(_margins(a), temps)
    out = positive_power(p, temps.gap) * balance
    return out if np.ndim(a) else float(out[0])


def inflection_residual(a: float, temps) -> float:
    """Residual of d2G = (t2-t1) p^(t2-1) (1/2 - dG)^2 at a point; 0 on the plateau."""
    return float(_curvature_balance(_margins(a), as_pair(temps))[1][0])


def _scan_inflections(temps: TemperaturePair, grid: np.ndarray) -> list:
    """All margins where the second derivative crosses zero on the grid.

    A strict +/- sign flip of the balance is bisected to its root. The
    boundary where the loss enters the exactly-zero plateau counts as a
    crossing only when the finite side is strictly positive ("sign change
    into the plateau"); it is returned on the plateau side. Every bracket is
    bisected at once, from lo (where its test holds: balance > 0, or p = 0 at
    a plateau entry) to hi, until it is narrower than 1e-13 or 200 steps
    have run; its point is the last lo.
    """
    p, balance = _curvature_balance(grid, temps)
    zero = p == 0.0
    s0, s1 = balance[:-1], balance[1:]
    live = ~zero[:-1] & ~zero[1:]
    down, up = live & (s0 > 0.0) & (s1 < 0.0), live & (s0 < 0.0) & (s1 > 0.0)
    plateau = (zero[:-1] != zero[1:]) & (np.where(zero[:-1], s1, s0) > 0.0)
    brackets = down | up | plateau
    lo_left = (down | (plateau & zero[:-1]))[brackets]  # is lo the bracket's left end?
    a0, a1 = grid[:-1][brackets], grid[1:][brackets]
    lo, hi, plateau = np.where(lo_left, a0, a1), np.where(lo_left, a1, a0), plateau[brackets]
    for _ in range(200):
        wide = np.abs(hi - lo) >= 1e-13
        if not wide.any():
            break
        mid = 0.5 * (lo[wide] + hi[wide])
        p, balance = _curvature_balance(mid, temps)
        holds = np.where(plateau[wide], p == 0.0, balance > 0.0)
        lo[wide] = np.where(holds, mid, lo[wide])
        hi[wide] = np.where(holds, hi[wide], mid)
    return sorted(lo.tolist())


def find_inflection(temps, lo: float, hi: float) -> list:
    """Inflection margins of the c=+1 loss on [lo, hi] (quasi-convex regimes).

    Scan of a 4001-point grid plus bisection; each returned point (a float)
    satisfies the curvature balance equation with residual at most 1e-6.
    Convex temperature pairs are rejected: their curvature never changes sign.
    """
    temps = as_pair(temps)
    if is_convex_pair(temps):
        raise ValueError(
            f"(t1, t2) = ({temps.t1}, {temps.t2}) is a convex regime; "
            "there is no inflection to find"
        )
    _bounds(lo, hi)
    points = _scan_inflections(temps, np.linspace(lo, hi, 4001))
    residuals = np.abs(_curvature_balance(points, temps)[1]) if points else []
    for a, resid in zip(points, residuals):
        if resid > INFLECTION_RESIDUAL_TOL:
            raise RuntimeError(
                f"inflection at {a!r} violates the balance equation "
                f"(residual {resid:.3e})"
            )
    return points


@dataclass(frozen=True)
class CurvatureReport:
    """Loss shape over a margin grid: its regime and detected inflections."""

    inflection_points: list
    regime: str


def curvature_report(temps, lo: float = -10.0, hi: float = 10.0) -> CurvatureReport:
    """Classify the loss shape on a 2001-point grid, from loss values alone.

    The regime is decided numerically: second central differences of the loss
    over every all-finite triple must stay above -CONVEXITY_TOL (after dividing by h^2)
    for the convex verdict. Plateau junctions where a finite constant stretch
    meets the descending branch produce strongly negative differences, so
    quasi-convexity from the t1 < 1 cap is caught without analytic formulas.
    """
    temps = as_pair(temps)
    _bounds(lo, hi)
    grid = np.linspace(lo, hi, 2001)
    h = grid[1] - grid[0]
    values = margin_losses(grid, temps)
    finite = np.isfinite(values)
    triple = finite[:-2] & finite[1:-1] & finite[2:]
    second_diff = np.full(len(grid) - 2, np.nan)
    second_diff[triple] = (
        values[:-2][triple] - 2.0 * values[1:-1][triple] + values[2:][triple]
    ) / (h * h)
    numeric_convex = bool(np.all(second_diff[triple] >= -CONVEXITY_TOL)) if triple.any() else True
    regime = "convex" if numeric_convex else "quasi_convex"
    inflections = [] if numeric_convex else _scan_inflections(temps, grid)
    return CurvatureReport(inflection_points=inflections, regime=regime)


@dataclass(frozen=True)
class BayesCheck:
    """Minimizer of the expected binary loss at class-1 probability eta."""

    a_star_numeric: float
    a_star_closed_form: float
    sign_consistent: bool


def bayes_binary_check(eta: float, temps) -> BayesCheck:
    """The two-class multiclass oracle at posterior [eta, 1 - eta], as a margin.

    The numeric minimizer is a_star[0] - a_star[1] of `bayes_multiclass_check`,
    the closed form log_t2(target[0]) - log_t2(target[1]) of its tilted
    posterior target = [eta, 1 - eta]^(1/t1) / Z.
    """
    temps = as_pair(temps)
    check(is_number(eta) and 0.0 < eta < 1.0, "eta", "lie strictly in (0, 1)", eta)
    eta = float(eta)
    chk = bayes_multiclass_check([eta, 1.0 - eta], temps)
    a_num = float(chk.a_star[0] - chk.a_star[1])
    a_closed = log_t(chk.target[0], temps.t2) - log_t(chk.target[1], temps.t2)
    if abs(eta - 0.5) < 1e-9:
        consistent = abs(a_num) <= 1e-6
    else:
        consistent = np.sign(a_num) == np.sign(eta - 0.5)
    return BayesCheck(a_num, float(a_closed), bool(consistent))


@dataclass(frozen=True)
class MulticlassBayesCheck:
    """Constrained minimizer of the expected multiclass loss at posterior p."""

    ok: bool
    a_star: np.ndarray
    max_deviation: float
    argmax_preserved: bool
    target: np.ndarray


def bayes_multiclass_check(p, temps) -> MulticlassBayesCheck:
    """Minimize -sum_c p_c log_t1 probs(a)_c over zero-sum activations.

    The zero-sum constraint removes the flat shift direction; the subspace is
    parameterized by the first C-1 coordinates with a_C = -sum(z). For t1 < 1
    the capped loss has flat non-optimal shoulders in activation space (all
    mass on one class), so the search starts in a log-scale chart of the same
    feasible set (simplex interior via softmax coordinates, started at p)
    and the resulting point is polished in activation coordinates to a
    gradient of 1e-10 on the training kernel `activation_terms`, weighted by
    p; the chart objective is its t2 = 1 case, written out for speed. The
    check passes when probs(a*) matches target = p^(1/t1)/Z within 1e-4 in
    sup norm and the argmax of a* equals the argmax of p. A p whose tilt no
    float activation reaches (the polish would start on the t2 < 1 support
    edge) is refused.
    """
    temps = as_pair(temps)
    p = check_distribution(p, "p", 2)
    check(p.min() > 0.0, "p", "be strictly positive", p.tolist())
    c = p.size

    def chart_objective(v):
        # expected loss as a function of the induced probabilities; the
        # temperatures' activation map does not change the feasible set.
        # This is the polish objective at t2 = 1, written out because the
        # kernel route measured about 2x slower per evaluation, and 6 more
        # of the 113 criterion-7 chart searches then ended no_progress after
        # hundreds of evaluations.
        ev = np.exp(np.concatenate([v, [0.0]]))
        probs = ev / ev.sum()
        value = float(-(p * log_t(probs, temps.t1)).sum())
        r = p * np.power(probs, 1.0 - temps.t1)
        grad_full = -(r - probs * r.sum())
        return value, grad_full[:-1]

    # start at the posterior itself; the walk to the optimum is then
    # ((1 - t1)/t1) log p per coordinate and monotone descent cannot reach
    # the capped-loss shoulders, whose values exceed the starting value
    v0 = np.log(p)
    v0 = (v0 - v0[-1])[:-1]
    chart_config = OptimizerConfig(grad_tol=1e-12, max_iters=2000)
    v_star, _ = lbfgs_minimize(chart_objective, v0, chart_config)
    ev = np.exp(np.concatenate([v_star, [0.0]]))
    probs_chart = ev / ev.sum()
    a_chart = log_t(probs_chart, temps.t2)
    a_chart = a_chart - a_chart.mean()

    def embed(z):
        return np.concatenate([z, [-z.sum()]])

    labels = np.arange(1, c + 1)

    def objective(z):
        # one activation row per class
        losses, dA = activation_terms(np.tile(embed(z), (c, 1)), labels, temps)
        grad_a = p @ dA
        return float(p @ losses), grad_a[:-1] - grad_a[-1]

    config = OptimizerConfig(grad_tol=1e-10, max_iters=1000)
    try:
        z_star, _ = lbfgs_minimize(objective, a_chart[:-1], config)
    except ValueError:  # a start on the support edge, where P = 0 and the loss is +inf
        rule = "tilt to class probabilities float activations can reach"
        check(False, f"p at (t1, t2) = {temps.t1, temps.t2}", rule, p.tolist())
    a_star = embed(z_star)
    probs_star = tempered_probs_rows(a_star[None, :], temps.t2)[0]
    target = np.power(p, 1.0 / temps.t1)
    target = target / target.sum()
    deviation = float(np.abs(probs_star - target).max())
    argmax_ok = int(np.argmax(a_star)) == int(np.argmax(p))
    return MulticlassBayesCheck(
        ok=deviation <= 1e-4 and argmax_ok,
        a_star=a_star,
        max_deviation=deviation,
        argmax_preserved=argmax_ok,
        target=target,
    )
