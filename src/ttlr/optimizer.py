"""Deterministic L-BFGS with an interpolating Armijo backtrack.

Plain two-loop recursion over a bounded history of (s, y) pairs, with a
curvature guard that skips pairs whose s^T y is too small to keep the implicit
Hessian approximation positive definite. Each line search tries step 1 first.
After a rejected trial with a finite value it moves to the minimizer of the
quadratic through f, the slope and the trial value, clamped to
[BACKTRACK_MIN, BACKTRACK_MAX] x step (Nocedal and Wright, Numerical
Optimization, section 3.5). A non-finite trial halves the step, whatever the
caller's numpy error settings: the search runs whole under one
np.errstate(all="ignore"). It gives up when a step no longer moves x in
floating point, without calling the objective there. Everything is single
threaded and free of randomness, so identical inputs give bit-identical traces.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .tempered import check, is_number, validate_count

__all__ = ["OptimizerConfig", "OptimizationTrace", "lbfgs_minimize"]

_EPS = float(np.finfo(float).eps)
MEMORY = 10  # (s, y) pairs kept for the two-loop recursion
ARMIJO_C1 = 1e-4  # sufficient-decrease constant
BACKTRACK_MIN = 0.1  # smallest step shrink per rejected trial
BACKTRACK_MAX = 0.5  # largest shrink, and the halving after a non-finite trial
MAX_BACKTRACKS = 50  # rejected trials before the line search gives up
STALL_STEPS = 20  # accepted steps improving neither f nor |g|_inf before stopping


@dataclass(frozen=True)
class OptimizerConfig:
    max_iters: int = 500
    grad_tol: float = 1e-6

    def __post_init__(self):
        iters = validate_count(self.max_iters, "OptimizerConfig max_iters", 0)
        object.__setattr__(self, "max_iters", iters)
        check(is_number(self.grad_tol) and 0.0 < self.grad_tol < np.inf,
              "OptimizerConfig grad_tol", "be finite and > 0", self.grad_tol)
        object.__setattr__(self, "grad_tol", float(self.grad_tol))


@dataclass
class OptimizationTrace:
    """Per accepted iteration: objective value, gradient sup-norm, step length.

    Row 0 records the starting point with step length 0; objective values are
    non-increasing across rows. `evaluations` counts objective calls and
    `backtracks` the rejected line-search trials, so evaluations = 1 +
    iterations + backtracks.
    """

    objective_values: list = field(default_factory=list)
    grad_sup_norms: list = field(default_factory=list)
    step_lengths: list = field(default_factory=list)
    termination: str = ""
    evaluations: int = 0
    backtracks: int = 0

    @property
    def iterations(self) -> int:
        return max(len(self.objective_values) - 1, 0)

    def record(self, value: float, grad_norm: float, step: float) -> None:
        self.objective_values.append(float(value))
        self.grad_sup_norms.append(float(grad_norm))
        self.step_lengths.append(float(step))


def _two_loop_direction(grad, memory):
    """-H g by two-loop recursion over (s, y, rho), oldest first; H0 = gamma I from the newest."""
    q = grad.copy()
    alphas = []
    for s, y, rho in reversed(memory):
        alpha = rho * float(s @ q)
        q -= alpha * y
        alphas.append(alpha)
    if memory:
        s, y, _ = memory[-1]
        q *= float(s @ y) / float(y @ y)
    for (s, y, rho), alpha in zip(memory, reversed(alphas)):
        beta = rho * float(y @ q)
        q += (alpha - beta) * s
    return -q


def _backtrack(step: float, f: float, slope: float, f_new: float) -> float:
    """The next trial step after `step` was rejected with value f_new.

    The minimizer of the quadratic through f, the slope at x and f_new,
    clamped to [BACKTRACK_MIN, BACKTRACK_MAX] x step; a non-finite f_new
    halves. A rejected finite trial lies above the tangent line, so the
    quadratic's curvature term is positive.
    """
    if not np.isfinite(f_new):
        return BACKTRACK_MAX * step
    trial = -slope * step * step / (2.0 * (f_new - f - slope * step))
    return min(max(trial, BACKTRACK_MIN * step), BACKTRACK_MAX * step)


def lbfgs_minimize(objective, init, config: OptimizerConfig | None = None):
    """Minimize a value-and-gradient callable from a flat start vector.

    Terminates when the gradient sup-norm drops to grad_tol ("converged");
    after STALL_STEPS consecutive accepted steps that neither lower the value
    by more than eps |f| nor reach a new smallest gradient sup-norm
    ("no_progress"); after max_iters accepted steps ("max_iterations"); or
    when the line search cannot make progress ("line_search_failed"). Every
    stop returns the best point so far, recorded in the trace, not raised.
    The objective and its gradient must be finite at init, else a ValueError
    names it; any other inf or NaN value is a rejected trial, never an error.
    """
    config = config or OptimizerConfig()
    with np.errstate(all="ignore"):
        x = np.array(init, dtype=float).ravel()
        f, g = objective(x)
        g = np.asarray(g, dtype=float).ravel()
        check(np.isfinite(f) and np.isfinite(g).all(), "objective at init",
              "be finite with a finite gradient", f)

        trace = OptimizationTrace(evaluations=1)
        gnorm = float(np.abs(g).max())
        trace.record(f, gnorm, 0.0)
        if gnorm <= config.grad_tol:
            trace.termination = "converged"
            return x, trace

        memory = deque(maxlen=MEMORY)
        best_gnorm, stalled = gnorm, 0
        for _ in range(config.max_iters):
            d = _two_loop_direction(g, memory)
            # A gradient near the float limit overflows the slope to -inf or
            # NaN; no trial then passes Armijo, and the search fails as it should.
            slope = float(d @ g)
            if slope >= 0.0:
                # Stale curvature made the direction non-descent; restart
                # from steepest descent.
                memory.clear()
                d = -g
                slope = float(d @ g)

            step = 1.0
            accepted = False
            for _ in range(MAX_BACKTRACKS + 1):
                x_new = x + step * d
                if np.array_equal(x_new, x):
                    break  # a null step: Armijo would accept it, and it moves nothing
                f_new, g_new = objective(x_new)
                trace.evaluations += 1
                if np.isfinite(f_new) and f_new <= f + ARMIJO_C1 * step * slope:
                    accepted = True
                    break
                trace.backtracks += 1
                step = _backtrack(step, f, slope, f_new)
            if not accepted:
                trace.termination = "line_search_failed"
                return x, trace

            g_new = np.asarray(g_new, dtype=float).ravel()
            s = x_new - x
            # Near the float limit ygap or a norm overflows to inf; the guard
            # then fails and the pair, which cannot be trusted, is skipped.
            ygap = g_new - g
            sty = float(s @ ygap)
            if sty > 1e-12 * float(np.linalg.norm(s)) * float(np.linalg.norm(ygap)):
                memory.append((s, ygap, 1.0 / sty))

            # Accepted values never rise, so f is the best value seen so far.
            value_improved = f - f_new > _EPS * abs(f)
            x, f, g = x_new, f_new, g_new
            gnorm = float(np.abs(g).max())
            trace.record(f, gnorm, step)
            if gnorm <= config.grad_tol:
                trace.termination = "converged"
                return x, trace
            if value_improved or gnorm < best_gnorm:
                best_gnorm, stalled = min(best_gnorm, gnorm), 0
            else:
                stalled += 1
                if stalled >= STALL_STEPS:
                    trace.termination = "no_progress"
                    return x, trace

        trace.termination = "max_iterations"
        return x, trace
