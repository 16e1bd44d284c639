"""L-BFGS with interpolating Armijo backtracking: convergence, traces, failure modes."""

import warnings

import numpy as np
import pytest
from scipy import optimize

from ttlr import optimizer
from ttlr.optimizer import MAX_BACKTRACKS, STALL_STEPS, OptimizerConfig, lbfgs_minimize


def quadratic(x):
    # condition number 100
    d = np.array([1.0, 100.0])
    return float(0.5 * np.sum(d * x * x)), d * x


def rosenbrock(x):
    a, b = 1.0, 100.0
    f = (a - x[0]) ** 2 + b * (x[1] - x[0] ** 2) ** 2
    g = np.array(
        [
            -2.0 * (a - x[0]) - 4.0 * b * x[0] * (x[1] - x[0] ** 2),
            2.0 * b * (x[1] - x[0] ** 2),
        ]
    )
    return float(f), g


def barrier(x):
    # pulls toward x = 3 but blows up past x = 2, so long steps land beyond
    # the wall and must be shrunk by the line search; minimum at (5 - 5^0.5)/2
    if x[0] >= 2.0:
        return np.inf, np.zeros(1)
    f = -np.log(2.0 - x[0]) + 0.5 * (x[0] - 3.0) ** 2
    g = np.array([1.0 / (2.0 - x[0]) + x[0] - 3.0])
    return float(f), g


def test_quadratic_converges_to_minimum():
    x, trace = lbfgs_minimize(quadratic, np.array([3.0, -2.0]))
    assert trace.termination == "converged"
    assert np.allclose(x, 0.0, atol=1e-6)
    assert trace.grad_sup_norms[-1] <= 1e-6


def test_rosenbrock_converges():
    # Armijo-only backtracking stalls from the classic (-1.2, 1) start; the
    # valley still exercises curved descent from these points
    cfg = OptimizerConfig(grad_tol=1e-8, max_iters=500)
    for start in ([0.8, 0.6], [0.5, 0.5], [1.3, 1.5]):
        x, trace = lbfgs_minimize(rosenbrock, np.array(start), cfg)
        assert trace.termination == "converged"
        assert np.allclose(x, [1.0, 1.0], atol=1e-6)


def test_trace_shape_and_monotonicity():
    x, trace = lbfgs_minimize(quadratic, np.array([5.0, 1.0]))
    n = len(trace.objective_values)
    assert len(trace.grad_sup_norms) == n
    assert len(trace.step_lengths) == n
    assert trace.step_lengths[0] == 0.0
    vals = trace.objective_values
    assert all(b <= a for a, b in zip(vals, vals[1:]))
    assert trace.iterations == n - 1


def test_already_converged_start():
    x, trace = lbfgs_minimize(quadratic, np.zeros(2))
    assert trace.termination == "converged"
    assert trace.iterations == 0
    assert np.array_equal(x, np.zeros(2))


def test_max_iterations_termination():
    cfg = OptimizerConfig(max_iters=2, grad_tol=1e-14)
    _, trace = lbfgs_minimize(rosenbrock, np.array([-1.2, 1.0]), cfg)
    assert trace.termination == "max_iterations"
    assert trace.iterations == 2


def test_no_progress_termination():
    # a tilt of 1e-9 moves the value by 1e-18 per step, below the float
    # resolution of 1.0, so neither the value nor the gradient ever improves
    def flat_floor(x):
        return float(1.0 + 1e-9 * x.sum()), np.full_like(x, 1e-9)

    cfg = OptimizerConfig(max_iters=2000, grad_tol=1e-12)
    x, trace = lbfgs_minimize(flat_floor, np.zeros(2), cfg)
    assert trace.termination == "no_progress"
    assert trace.iterations == STALL_STEPS
    vals = trace.objective_values
    assert all(b <= a for a, b in zip(vals, vals[1:]))
    assert flat_floor(x)[0] == vals[-1]


def test_evaluation_and_backtrack_counts():
    calls = []

    def counted(x):
        calls.append(1)
        return barrier(x)

    _, trace = lbfgs_minimize(counted, np.array([1.9]), OptimizerConfig(grad_tol=1e-10))
    assert trace.termination == "converged"
    assert trace.backtracks > 0
    assert trace.evaluations == len(calls)
    assert trace.evaluations == 1 + trace.iterations + trace.backtracks


def test_ascent_direction_restarts_from_steepest_descent(monkeypatch):
    # stale curvature is simulated by flipping the third direction uphill
    two_loop = optimizer._two_loop_direction
    pairs_seen = []

    def uphill_once(grad, memory):
        pairs_seen.append(len(memory))
        d = two_loop(grad, memory)
        return -d if len(pairs_seen) == 3 else d

    monkeypatch.setattr(optimizer, "_two_loop_direction", uphill_once)
    calls = []

    def counted(x):
        calls.append(1)
        return rosenbrock(x)

    x, trace = lbfgs_minimize(counted, np.array([0.8, 0.6]), OptimizerConfig(grad_tol=1e-8))
    assert trace.termination == "converged"
    assert np.allclose(x, [1.0, 1.0], atol=1e-6)
    assert trace.evaluations == len(calls) == 1 + trace.iterations + trace.backtracks
    # the restart drops every stored pair; the steepest step may store one
    assert pairs_seen[2] == 2 and pairs_seen[3] <= 1


def test_rejects_nonfinite_start():
    message = "objective at init must be finite with a finite gradient, got "
    with pytest.raises(ValueError, match=message + "nan"):
        lbfgs_minimize(quadratic, np.array([np.nan, 0.0]))
    with pytest.raises(ValueError, match=message + "inf"):
        lbfgs_minimize(lambda x: (np.inf, np.zeros_like(x)), np.zeros(2))
    with pytest.raises(ValueError, match=message + "0.0"):
        lbfgs_minimize(lambda x: (0.0, np.full_like(x, np.inf)), np.zeros(2))


def steep_exp(x):
    # exp(50 x) - 50 x, least at x = 0: the first step from -0.1 lands near
    # x = 50, where exp(50 x) overflows to inf
    e = np.exp(50.0 * x)
    return float(np.sum(e - 50.0 * x)), 50.0 * e - 50.0


@pytest.mark.parametrize("errors", [{}, {"all": "raise"}], ids=["default", "raise"])
def test_an_overflowing_trial_is_rejected_whatever_the_error_settings(errors):
    # such a trial once leaked "overflow encountered in exp", and under
    # all="raise" ended the search with a FloatingPointError
    with warnings.catch_warnings(), np.errstate(**errors):
        warnings.simplefilter("error")
        x, trace = lbfgs_minimize(steep_exp, np.array([-0.1]))
        with pytest.raises(ValueError, match="^objective at init must be finite"):
            lbfgs_minimize(steep_exp, np.array([20.0]))
    assert trace.termination == "converged" and trace.backtracks > 0
    assert abs(x[0]) < 1e-6


def liar(x):
    # the gradient lies about the descent direction, so no Armijo step succeeds
    return float(np.sum(x * x)), -2.0 * x


def tiny_slope(x):
    # the steepest-descent step -g is far below the float spacing of x = 1
    return float(0.5e-30 * np.sum(x * x)), 1e-30 * x


def test_stiff_quadratic_first_step_interpolates():
    # f = 50 x^2 from x = 1: step 1 overshoots to -99; the quadratic through
    # f, the slope and each trial value proposes 0.01, clamped to 0.1 and
    # then taken, landing on the minimum. Halving needs 6 backtracks.
    def stiff(x):
        return float(50.0 * np.sum(x * x)), 100.0 * x

    x, trace = lbfgs_minimize(stiff, np.array([1.0]), OptimizerConfig(max_iters=1))
    assert trace.iterations == 1
    assert trace.backtracks <= 2
    assert trace.step_lengths[1] == pytest.approx(0.01)
    assert np.allclose(x, 0.0)


def test_backtracks_through_barrier():
    values = []

    def recorded(x):
        out = barrier(x)
        values.append(out[0])
        return out

    x, trace = lbfgs_minimize(recorded, np.array([0.0]), OptimizerConfig(grad_tol=1e-10))
    assert trace.termination == "converged"
    # trials past the barrier come back infinite and are halved, not interpolated
    assert not all(np.isfinite(values))
    assert x[0] == pytest.approx((5.0 - 5.0**0.5) / 2.0)
    # stationary point of -log(2-x) + (x-3)^2/2
    f_left = barrier(x - 1e-6)[0]
    f_right = barrier(x + 1e-6)[0]
    assert barrier(x)[0] <= min(f_left, f_right)


def test_line_search_failure_returns_best_point():
    # interpolated backtracks shrink the step until it no longer moves x;
    # the search stops there rather than accept that null step
    x, trace = lbfgs_minimize(liar, np.array([1.0]))
    assert trace.termination == "line_search_failed"
    assert trace.evaluations < MAX_BACKTRACKS + 1
    assert trace.evaluations == 1 + trace.iterations + trace.backtracks
    assert trace.iterations == 0
    assert np.array_equal(x, np.array([1.0]))


def test_null_step_stops_without_evaluating():
    # x - 1e-30 == x, and Armijo would accept that trial since f + c1 step
    # slope rounds to f; the search ends before calling the objective there
    calls = []

    def counted(x):
        calls.append(x.copy())
        return tiny_slope(x)

    x, trace = lbfgs_minimize(counted, np.array([1.0]), OptimizerConfig(grad_tol=1e-40))
    assert trace.termination == "line_search_failed"
    assert len(calls) == trace.evaluations == 1
    assert np.array_equal(x, np.array([1.0]))


@pytest.mark.parametrize(
    "objective, start, grad_tol",
    [
        (quadratic, [3.0, -2.0], 1e-14),
        (rosenbrock, [0.8, 0.6], 1e-14),
        (barrier, [0.0], 1e-14),
        (liar, [1.0], 1e-6),
        (tiny_slope, [1.0], 1e-40),
    ],
)
def test_no_trial_repeats_a_point(objective, start, grad_tol):
    # every trial moves x, so no evaluated point equals an earlier one
    # (the current iterate is always among the earlier ones)
    points = []

    def recorded(x):
        points.append(x.copy())
        return objective(x)

    lbfgs_minimize(recorded, np.array(start), OptimizerConfig(grad_tol=grad_tol))
    assert len({p.tobytes() for p in points}) == len(points)


def test_deterministic_trace():
    _, t1 = lbfgs_minimize(rosenbrock, np.array([-1.2, 1.0]))
    _, t2 = lbfgs_minimize(rosenbrock, np.array([-1.2, 1.0]))
    assert t1.objective_values == t2.objective_values
    assert t1.step_lengths == t2.step_lengths


def test_matches_scipy_on_convex_problem():
    rng = np.random.default_rng(13)
    A = rng.normal(size=(8, 5))
    Q = A.T @ A + 0.1 * np.eye(5)
    b = rng.normal(size=5)

    def f(x):
        return float(0.5 * x @ Q @ x - b @ x), Q @ x - b

    x0 = np.zeros(5)
    x, trace = lbfgs_minimize(f, x0, OptimizerConfig(grad_tol=1e-10))
    ref = optimize.minimize(f, x0, jac=True, method="L-BFGS-B")
    assert f(x)[0] == pytest.approx(ref.fun, abs=1e-8)


def test_config_validation():
    for bad in (0.0, -1e-6, float("nan"), float("inf"), True, "x", None):
        with pytest.raises(ValueError, match="grad_tol must be finite and > 0"):
            OptimizerConfig(grad_tol=bad)
    for bad in (2.5, -3, True, "10", float("nan")):
        with pytest.raises(ValueError, match="max_iters must be an integer >= 0"):
            OptimizerConfig(max_iters=bad)
    cfg = OptimizerConfig(max_iters=4.0)
    assert cfg.max_iters == 4 and type(cfg.max_iters) is int
    assert OptimizerConfig(max_iters=np.int64(0)).max_iters == 0
