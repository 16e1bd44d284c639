"""Self-check batteries behind the `verify` subcommand.

Four suites, each a list of named checks with a measured value and its
tolerance: finite-difference validation of the training objective's
gradient and of the binary loss derivative, special-case recovery against an
independent softmax implementation, curvature regime classification, and
the two calibration oracles. Failures are report content, not exceptions.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np
from scipy.special import logsumexp, softmax

from .analysis import (
    bayes_binary_check,
    bayes_multiclass_check,
    curvature_report,
    find_inflection,
    inflection_residual,
    is_convex_pair,
    loss_first_derivative,
    loss_second_derivative,
    margin_derivatives,
    margin_losses,
)
from .loss import as_pair, batch_losses, regularized_objective
from .partition import tempered_probs_rows

__all__ = [
    "CheckResult",
    "VerificationReport",
    "SUITE_NAMES",
    "run_verification",
    "format_report",
    "gradient_suite",
    "recovery_suite",
    "curvature_suite",
    "bayes_suite",
]

TEMPERATURE_POOL = [
    (1.0, 1.0),
    (1.2, 1.2),
    (1.6, 1.0),
    (1.3, 0.7),
    (1.6, 0.4),
    (0.6, 1.6),
    (1.0, 1.6),
    (0.4, 1.3),
    (0.8, 0.8),
    (0.7, 1.0),
]

LAMBDA_POOL = [0.0, 1e-3, 0.1]

REGIME_GRID = [0.4, 0.7, 1.0, 1.3, 1.6]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    measured: float
    tolerance: float
    detail: str = ""

    def __post_init__(self):
        # plain Python scalars, whatever numpy type a suite computed them in
        object.__setattr__(self, "passed", bool(self.passed))
        object.__setattr__(self, "measured", float(self.measured))
        object.__setattr__(self, "tolerance", float(self.tolerance))


def _bounded(name: str, measured, tolerance: float, detail: str, also: bool = True) -> CheckResult:
    """A check that passes when measured is within tolerance (and `also` holds)."""
    return CheckResult(name, also and measured <= tolerance, measured, tolerance, detail)


@dataclass(frozen=True)
class VerificationReport:
    suite: str
    checks: list
    seconds: float

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _draw_smooth_problem(rng, temps):
    """Random dataset of 1 to 5 rows and weights W, all rows safely interior.

    Finite differences sit on a smooth patch only when no true-class
    probability is pinned at zero within the step; redraw until every row
    clears a margin of 1e-3.
    """
    temps = as_pair(temps)
    while True:
        n = int(rng.integers(1, 6))
        dim = int(rng.integers(2, 7))
        num_classes = int(rng.integers(2, 6))
        X = rng.normal(0.0, 1.0, size=(n, dim))
        W = rng.normal(0.0, 0.4, size=(dim, num_classes))
        y = rng.integers(1, num_classes + 1, size=n)
        probs = tempered_probs_rows(X @ W, temps.t2)
        if probs[np.arange(n), y - 1].min() >= 1e-3:
            return SimpleNamespace(X=X, y=y), W


def _fd_gradient(fun, W, h=1e-6):
    out = np.zeros_like(W)
    for idx in np.ndindex(W.shape):
        Wp = W.copy()
        Wp[idx] += h
        Wm = W.copy()
        Wm[idx] -= h
        out[idx] = (fun(Wp) - fun(Wm)) / (2.0 * h)
    return out


def _relative_error(analytic, fd) -> float:
    return float(np.abs(analytic - fd).max() / max(np.abs(fd).max(), 1e-12))


def gradient_suite(num_configs: int = 200, seed: int = 20240501) -> list:
    rng = np.random.default_rng(seed)
    worst_multi = 0.0
    for k in range(num_configs):
        temps = TEMPERATURE_POOL[k % len(TEMPERATURE_POOL)]
        lam = LAMBDA_POOL[k % len(LAMBDA_POOL)]
        data, W = _draw_smooth_problem(rng, temps)
        _, analytic = regularized_objective(data, W, temps, lam)
        fd = _fd_gradient(lambda M: regularized_objective(data, M, temps, lam)[0], W)
        worst_multi = max(worst_multi, _relative_error(analytic, fd))
    worst_binary = 0.0
    h = 1e-6
    for k in range(num_configs):
        temps = as_pair(TEMPERATURE_POOL[k % len(TEMPERATURE_POOL)])
        while True:
            a = float(rng.normal(0.0, 1.0))
            p_plus, _, _ = margin_derivatives(a, temps.t2)
            if p_plus[0] >= 1e-3:
                break
        analytic = loss_first_derivative(a, temps)
        fd = (margin_losses(a + h, temps)[0] - margin_losses(a - h, temps)[0]) / (2.0 * h)
        worst_binary = max(worst_binary, _relative_error(analytic, fd))
    return [
        _bounded("regularized_objective gradient vs central differences", worst_multi, 1e-5,
                 f"{num_configs} random (data, W, temps, lambda) configurations"),
        _bounded("loss_first_derivative vs central differences of margin_losses", worst_binary,
                 1e-5, f"{num_configs} random (margin, temps) configurations"),
    ]


def _reference_softmax(X, y, W, lam):
    """Plain softmax regression, written against scipy only."""
    A = X @ W
    n = A.shape[0]
    lse = logsumexp(A, axis=1)
    losses = lse - A[np.arange(n), y - 1]
    value = losses.mean() + 0.5 * lam * float((W * W).sum())
    P = softmax(A, axis=1)
    resid = P.copy()
    resid[np.arange(n), y - 1] -= 1.0
    grad = (X.T @ resid) / n + lam * W
    return losses, P, value, grad


def recovery_suite(seed: int = 20240502) -> list:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(20):
        n, dim, num_classes = 40, 5, 4
        X = rng.normal(size=(n, dim))
        y = rng.integers(1, num_classes + 1, size=n).astype(np.int64)
        W = rng.normal(0.0, 0.8, size=(dim, num_classes))
        lam = float(10.0 ** rng.uniform(-6, -1))
        ref_losses, ref_P, ref_value, ref_grad = _reference_softmax(X, y, W, lam)
        data = SimpleNamespace(X=X, y=y)
        value, grad = regularized_objective(data, W, (1.0, 1.0), lam)
        P = tempered_probs_rows(X @ W, 1.0)
        losses = batch_losses(X, y, W, (1.0, 1.0))
        worst = max(
            worst,
            abs(value - ref_value),
            np.abs(grad - ref_grad).max(),
            np.abs(P - ref_P).max(),
            np.abs(losses - ref_losses).max(),
        )
    rng2 = np.random.default_rng(seed + 1)
    n, dim, num_classes = 200, 4, 3
    X = rng2.normal(size=(n, dim))
    W = rng2.normal(0.0, 0.8, size=(dim, num_classes))
    y = rng2.integers(1, num_classes + 1, size=n)
    losses = batch_losses(X, y, W, (1.0, 1.6))
    probs = tempered_probs_rows(X @ W, 1.6)
    direct = -np.log(probs[np.arange(n), y - 1])
    worst_tlog = float(np.abs(losses - direct).max())
    return [
        _bounded("t1=t2=1 matches reference softmax regression", worst, 1e-12,
                 "loss, probabilities, objective and gradient on 20 random problems"),
        _bounded("t1=1, t2=1.6 loss equals -log of the tempered probability", worst_tlog, 0.0,
                 "bitwise agreement on 200 random activation rows"),
    ]


def curvature_suite() -> list:
    checks = []
    mismatches = 0
    for t1 in REGIME_GRID:
        for t2 in REGIME_GRID:
            rep = curvature_report((t1, t2))
            want = "convex" if is_convex_pair((t1, t2)) else "quasi_convex"
            if rep.regime != want:
                mismatches += 1
            if rep.regime == "convex" and rep.inflection_points:
                mismatches += 1
    checks.append(_bounded("regime map matches the convexity predicate", mismatches, 0.0,
                           f"{len(REGIME_GRID) ** 2} temperature pairs on [-10, 10]"))
    points = find_inflection((0.6, 1.6), -20.0, 5.0)
    resid = abs(inflection_residual(points[0], (0.6, 1.6))) if points else np.inf
    checks.append(_bounded("t1=0.6, t2=1.6 has exactly one inflection on [-20, 5]", resid, 1e-6,
                           f"found {len(points)} point(s) at {[round(p, 6) for p in points]}",
                           also=len(points) == 1))
    worst_violation = 0.0
    grid = np.linspace(-10.0, 10.0, 801)
    for t1, t2 in [(1.0, 1.0), (1.3, 1.0), (1.6, 1.0), (1.3, 0.7), (1.6, 0.4), (1.2, 1.2)]:
        d2_loss = loss_second_derivative(grid, (t1, t2))
        _, _, d2_G = margin_derivatives(grid, t2)
        worst_violation = max(worst_violation, float((d2_G - d2_loss).max()))
    checks.append(_bounded("convex regimes are at least as curved as the partition term",
                           worst_violation, 1e-9, "pointwise on [-10, 10] for six convex pairs"))
    return checks


def bayes_suite(num_multiclass: int = 100, seed: int = 20240503) -> list:
    etas = np.round(np.arange(0.05, 0.951, 0.05), 2)
    temps_list = [(1.0, 1.0), (1.0, 1.6), (0.6, 1.6), (1.3, 1.0)]
    worst_gap = 0.0
    sign_failures = 0
    worst_center = 0.0  # eta = 1/2 is on the grid
    for temps in temps_list:
        for eta in etas:
            chk = bayes_binary_check(float(eta), temps)
            worst_gap = max(worst_gap, abs(chk.a_star_numeric - chk.a_star_closed_form))
            if not chk.sign_consistent:
                sign_failures += 1
            if eta == 0.5:
                worst_center = max(worst_center, abs(chk.a_star_numeric))
    checks = [
        _bounded("binary minimizer matches the closed form", worst_gap, 1e-5,
                 f"{len(etas)} etas x {len(temps_list)} temperature pairs"),
        _bounded("sign of the minimizer follows the posterior", sign_failures, 0.0,
                 "sign(a*) = sign(eta - 1/2) across the sweep"),
        _bounded("eta = 1/2 gives a zero minimizer", worst_center, 1e-6,
                 "symmetry at the decision boundary"),
    ]
    rng = np.random.default_rng(seed)
    worst_dev = 0.0
    argmax_failures = 0
    for k in range(num_multiclass):
        c = int(rng.choice([3, 4, 5]))
        p = rng.dirichlet(np.ones(c))
        p = np.clip(p, 1e-3, None)
        p = p / p.sum()
        chk = bayes_multiclass_check(p, (0.6, 1.6))
        worst_dev = max(worst_dev, chk.max_deviation)
        if not chk.argmax_preserved:
            argmax_failures += 1
    checks.append(_bounded(
        "multiclass minimizer tilts the posterior by 1/t1", worst_dev, 1e-4,
        f"{num_multiclass} random posteriors, C in 3..5, argmax failures: {argmax_failures}",
        also=argmax_failures == 0,
    ))
    return checks


_SUITES = {
    "gradients": gradient_suite,
    "recovery": recovery_suite,
    "curvature": curvature_suite,
    "bayes": bayes_suite,
}
SUITE_NAMES = tuple(_SUITES)


def run_verification(suite: str) -> VerificationReport:
    """Execute one named check battery and time it."""
    if suite not in _SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {SUITE_NAMES}")
    start = time.perf_counter()
    checks = _SUITES[suite]()
    return VerificationReport(suite=suite, checks=checks, seconds=time.perf_counter() - start)


def format_report(report: VerificationReport) -> str:
    lines = [f"suite: {report.suite} ({report.seconds:.2f} s)"]
    for c in report.checks:
        status = "PASS" if c.passed else "FAIL"
        lines.append(
            f"  {status}  {c.name}: measured {c.measured:.3e}, "
            f"tolerance {c.tolerance:.3e}" + (f"  [{c.detail}]" if c.detail else "")
        )
    verdict = "all checks passed" if report.passed else "FAILURES PRESENT"
    lines.append(f"  => {verdict}")
    return "\n".join(lines)
