"""Tempered logarithm / exponential kernels and the entropy helpers."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ttlr.tempered import (
    T_SWITCH,
    exp_t,
    log_t,
    tsallis_divergence,
    tsallis_entropy,
    validate_count,
    validate_lambda,
    validate_temperature,
)


def test_log_t_closed_form_values():
    # log_0.5(4) = (sqrt(4) - 1) / 0.5 = 2
    assert log_t(4.0, 0.5) == pytest.approx(2.0, abs=1e-14)
    # log_1.5(4) = (1/2 - 1) / (-1/2) = 1
    assert log_t(4.0, 1.5) == pytest.approx(1.0, abs=1e-14)
    assert log_t(1.0, 0.3) == 0.0
    assert log_t(1.0, 1.7) == 0.0


def test_exp_t_closed_form_values():
    # exp_1.5(-2) = (1 + 0.5*2)^(-2) = 1/4
    assert exp_t(-2.0, 1.5) == pytest.approx(0.25, abs=1e-15)
    # exp_0.5(2) = (1 + 0.5*2)^2 = 4
    assert exp_t(2.0, 0.5) == pytest.approx(4.0, abs=1e-14)
    assert exp_t(0.0, 0.4) == 1.0
    assert exp_t(0.0, 1.9) == 1.0


def test_t_equal_one_matches_natural_log_exactly():
    x = np.array([1e-8, 0.3, 1.0, 7.5, 1e6])
    assert np.array_equal(log_t(x, 1.0), np.log(x))
    a = np.array([-30.0, -1.0, 0.0, 2.0, 20.0])
    assert np.array_equal(exp_t(a, 1.0), np.exp(a))


def test_near_one_temperature_is_continuous():
    # the switch point must not introduce a jump
    x = np.array([0.2, 1.0, 5.0])
    assert np.allclose(log_t(x, 1.0 + 1e-7), np.log(x), atol=1e-6)
    assert np.allclose(log_t(x, 1.0 - 1e-7), np.log(x), atol=1e-6)
    a = np.array([-2.0, 0.0, 2.0])
    assert np.allclose(exp_t(a, 1.0 + 1e-7), np.exp(a), rtol=1e-5)


def test_log_t_lower_bound_for_cool_temperatures():
    # for t < 1, log_t is bounded below by -1/(1-t), attained at zero
    for t in (0.3, 0.6, 0.9):
        bound = -1.0 / (1.0 - t)
        assert log_t(0.0, t) == bound
        x = np.array([1e-300, 1e-12, 0.1, 1.0, 100.0])
        # rounding can land tiny arguments exactly on the bound, never below
        assert np.all(log_t(x, t) >= bound)
        assert np.all(log_t(x[2:], t) > bound)


def test_log_t_zero_is_minus_infinity_when_hot():
    # for t >= 1 log_t(0) is its limit, -inf, as exp_t(x) is +inf at its pole
    assert log_t(0.0, 1.0) == -np.inf
    assert np.array_equal(log_t(np.array([0.5, 0.0]), 1.3), [log_t(0.5, 1.3), -np.inf])


def test_log_t_zero_at_the_edge_of_the_standard_band():
    # just outside |1 - t| < T_SWITCH a cool t keeps the finite bound; just
    # inside, log_t is ln, whose limit at 0 is -inf
    outside = 1.0 - 2.0 * T_SWITCH
    assert log_t(0.0, outside) == -1.0 / (1.0 - outside)
    assert log_t(0.0, 1.0 - 0.5 * T_SWITCH) == -np.inf
    assert log_t(0.0, 1.3) == -np.inf


ZERO_GRID = sorted(
    {*np.linspace(0.05, 1.95, 39), *(1.0 + k * T_SWITCH for k in (-2.0, -0.5, 0.5, 2.0))}
)


@pytest.mark.parametrize("t", ZERO_GRID)
def test_log_t_at_zero_is_its_limit_without_a_warning(t):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        limit = log_t(0.0, t)
        assert limit == (-1.0 / (1.0 - t) if t < 1.0 - T_SWITCH else -np.inf)
        assert exp_t(limit, t) == 0.0
        assert math.isnan(log_t(math.nan, t))
        assert np.isnan(log_t(np.array([0.5, np.nan]), t)[1])


def test_log_t_rejects_negative_input():
    # the first negative entry is named by its index; NaN passes (see above)
    with pytest.raises(ValueError, match=r"^x must be >= 0, got -1.0$"):
        log_t(-1.0, 0.7)
    with pytest.raises(ValueError, match=r"^x\[1\] must be >= 0, got -0.1$"):
        log_t(np.array([1.0, -0.1, -2.0]), 1.2)
    with pytest.raises(ValueError, match=r"^x\[1\]\[0\] must be >= 0, got -2.0$"):
        log_t(np.array([[1.0, 0.0], [-2.0, 1.0]]), 0.5)


def test_exp_t_clamps_to_exact_zero_below_support():
    # cool temperatures truncate: anything at or below -1/(1-t) maps to 0.0
    for t in (0.4, 0.7):
        edge = -1.0 / (1.0 - t)
        assert exp_t(edge, t) == 0.0
        assert exp_t(edge - 1e-9, t) == 0.0
        assert exp_t(edge - 100.0, t) == 0.0
        assert exp_t(edge + 1e-6, t) > 0.0


def test_exp_t_diverges_at_hot_pole():
    for t in (1.2, 1.6, 1.9):
        pole = 1.0 / (t - 1.0)
        assert exp_t(pole, t) == np.inf
        assert exp_t(pole + 5.0, t) == np.inf
        assert np.isfinite(exp_t(pole - 1e-6, t))


def test_validate_temperature_range():
    validate_temperature(0.01)
    validate_temperature(1.99)
    for bad in (0.0, 2.0, -0.5, 2.5, float("nan")):
        with pytest.raises(ValueError):
            validate_temperature(bad)


@pytest.mark.parametrize(
    "value, message",
    [
        # numpy scalars print as plain numbers, strings keep their quotes
        (np.int64(-1), "n must be an integer >= 0, got -1"),
        (np.float64(2.5), "n must be an integer >= 0, got 2.5"),
        (np.float64("nan"), "n must be an integer >= 0, got nan"),
        ("2", "n must be an integer >= 0, got '2'"),
        (np.int64(11), "n must be at most 10, got 11"),
        (1e20, "n must be at most 10, got 1e+20"),
    ],
)
def test_validate_count_message(value, message):
    with pytest.raises(ValueError) as err:
        validate_count(value, "n", 0, 10)
    assert str(err.value) == message


@pytest.mark.parametrize(
    "lam, shown",
    [(np.float64("nan"), "nan"), (float("inf"), "inf"), (-1, "-1"), (np.float32(-0.5), "-0.5"),
     ("0.1", "'0.1'"), (True, "True"), (None, "None"), ([0.1], "[0.1]")],
)
def test_validate_lambda_names_a_bad_value_plainly(lam, shown):
    with pytest.raises(ValueError) as err:
        validate_lambda(lam)
    assert str(err.value) == f"lambda must be finite and >= 0, got {shown}"


def test_validate_lambda_returns_a_float():
    for lam, want in ((0, 0.0), (np.float64(1e-3), 1e-3), (np.int64(2), 2.0), (1e300, 1e300)):
        value = validate_lambda(lam)
        assert value == want and type(value) is float


def test_validate_count_bounds_are_inclusive():
    assert validate_count(np.int64(10), "n", 0, 10) == 10
    assert validate_count(0.0, "n", 0, 10) == 0
    assert validate_count(10**30, "n") == 10**30


@settings(max_examples=80)
@given(
    x=st.floats(min_value=1e-6, max_value=1e3),
    t=st.floats(min_value=0.05, max_value=1.95),
)
def test_exp_t_inverts_log_t(x, t):
    assert exp_t(log_t(x, t), t) == pytest.approx(x, rel=1e-9)


@settings(max_examples=80)
@given(t=st.floats(min_value=0.05, max_value=1.95))
def test_log_t_is_strictly_increasing(t):
    x = np.array([1e-4, 0.1, 0.9, 1.0, 1.1, 10.0, 1e4])
    v = log_t(x, t)
    assert np.all(np.diff(v) > 0)


@pytest.mark.parametrize(
    "measure, message",
    [
        (lambda: tsallis_entropy([], 1.5), r"p must have shape \(k,\) with k >= 1, got \(0,\)"),
        (lambda: tsallis_entropy([[0.5, 0.5]], 1.5),
         r"p must have shape \(k,\) with k >= 1, got \(1, 2\)"),
        (lambda: tsallis_entropy([1.5, -0.5], 1.5), r"p\[1\] must be finite and >= 0, got -0.5"),
        (lambda: tsallis_entropy([np.nan, 1.0], 0.5), r"p\[0\] must be finite and >= 0, got nan"),
        (lambda: tsallis_entropy([0.5, 0.75], 0.5), "p must sum to 1, got 1.25"),
        (lambda: tsallis_divergence([0.5, 0.5], [0.7, 0.4], 1.0), "q must sum to 1"),
        (lambda: tsallis_divergence([0.5, 0.5], [0.2, 0.3, 0.5], 1.0),
         r"q must have the shape of p, \(2,\), got \(3,\)"),
    ],
)
def test_entropy_measures_reject_a_bad_distribution(measure, message):
    with pytest.raises(ValueError, match=message):
        measure()


def test_entropy_uniform_binary_oracle():
    # sum_c p_c log_t(1/p_c) = log_0.5(2) = 2(sqrt(2) - 1)
    p = np.array([0.5, 0.5])
    assert tsallis_entropy(p, 0.5) == pytest.approx(
        2.0 * (math.sqrt(2.0) - 1.0), abs=1e-14
    )


def test_entropy_reduces_to_shannon_at_one():
    p = np.array([0.7, 0.2, 0.1])
    shannon = -np.sum(p * np.log(p))
    assert tsallis_entropy(p, 1.0) == pytest.approx(shannon, abs=1e-14)


def test_entropy_of_point_mass_is_zero():
    p = np.array([0.0, 1.0, 0.0])
    for t in (0.5, 1.0, 1.5):
        assert tsallis_entropy(p, t) == 0.0


@settings(max_examples=60)
@given(
    t=st.floats(min_value=0.1, max_value=1.9),
    raw=st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=2, max_size=6),
)
def test_entropy_nonnegative_and_maximized_by_uniform(t, raw):
    p = np.array(raw)
    p = p / p.sum()
    h = tsallis_entropy(p, t)
    assert h >= -1e-12
    u = np.full(p.size, 1.0 / p.size)
    assert tsallis_entropy(u, t) >= h - 1e-10


def test_divergence_identical_is_zero():
    p = np.array([0.3, 0.45, 0.25])
    for t in (0.5, 1.0, 1.5):
        assert tsallis_divergence(p, p, t) == pytest.approx(0.0, abs=1e-14)


def test_divergence_oracles():
    # point mass against a coin: only the p > 0 slot contributes
    p = np.array([1.0, 0.0])
    q = np.array([0.5, 0.5])
    assert tsallis_divergence(p, q, 1.0) == pytest.approx(math.log(2.0), abs=1e-14)
    # t = 1.5: -log_1.5(1/4) = (4^0.5 - 1) / 0.5 = 2
    assert tsallis_divergence(p, np.array([0.25, 0.75]), 1.5) == pytest.approx(
        2.0, abs=1e-14
    )


def test_divergence_infinite_when_support_lost_and_hot():
    p = np.array([0.6, 0.4])
    q = np.array([1.0, 0.0])
    assert tsallis_divergence(p, q, 1.0) == np.inf
    assert tsallis_divergence(p, q, 1.4) == np.inf
    # cool temperature keeps it finite: -log_t(0) = 1/(1-t) per lost slot
    val = tsallis_divergence(p, q, 0.5)
    assert np.isfinite(val)


@settings(max_examples=60)
@given(
    t=st.floats(min_value=0.1, max_value=1.9),
    raw_p=st.lists(st.floats(min_value=0.05, max_value=1.0), min_size=3, max_size=3),
    raw_q=st.lists(st.floats(min_value=0.05, max_value=1.0), min_size=3, max_size=3),
)
def test_divergence_nonnegative(t, raw_p, raw_q):
    p = np.array(raw_p)
    p /= p.sum()
    q = np.array(raw_q)
    q /= q.sum()
    assert tsallis_divergence(p, q, t) >= -1e-12
