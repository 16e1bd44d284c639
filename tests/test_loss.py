"""Surrogate loss values, analytic gradients, and the regularized objective."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from ttlr.analysis import loss_first_derivative, margin_losses
from ttlr.data import Dataset
from ttlr.loss import TemperaturePair, batch_losses, positive_power, regularized_objective


def make_dataset(X_dense, y, num_classes=None):
    X = sparse.csr_array(np.asarray(X_dense, dtype=float))
    return Dataset(X=X, y=np.asarray(y), num_classes=num_classes or int(np.max(y)))


def one_row_loss(x, c, W, temps):
    """Loss of a single example, as the one-row batch."""
    return float(batch_losses(np.atleast_2d(x), np.array([c]), W, temps)[0])


def one_row_grad(x, c, W, temps):
    """Gradient of a single example's loss: the one-row objective at lam = 0."""
    data = make_dataset(np.atleast_2d(x), [c], num_classes=W.shape[1])
    return regularized_objective(data, W, temps, 0.0)[1]


def test_temperature_pair_validates_and_exposes_gap():
    tp = TemperaturePair(0.6, 1.6)
    assert tp.gap == pytest.approx(1.0)
    assert TemperaturePair(1.0, 1.0).gap == 0.0
    for bad in ((0.0, 1.0), (1.0, 2.0), (-1.0, 1.0), (1.0, float("nan"))):
        with pytest.raises(ValueError):
            TemperaturePair(*bad)


def test_logistic_special_case_values():
    # t1 = t2 = 1 with tied activations: -log(1/2)
    W = np.zeros((1, 2))
    assert one_row_loss([1.0], 1, W, (1.0, 1.0)) == pytest.approx(math.log(2.0), abs=1e-14)
    assert margin_losses(0.0, (1.0, 1.0))[0] == pytest.approx(math.log(2.0), abs=1e-14)
    # log(1 + exp(-a)) at a = 3; the -1 loss at a = 3 is the +1 loss at -3
    assert margin_losses(3.0, (1.0, 1.0))[0] == pytest.approx(
        math.log1p(math.exp(-3.0)), abs=1e-12
    )
    assert margin_losses(-3.0, (1.0, 1.0))[0] == pytest.approx(
        math.log1p(math.exp(3.0)), abs=1e-12
    )


def test_loss_is_capped_for_cool_t1():
    # true-class probability 0 hits the cap exactly when t2 < 1
    temps = TemperaturePair(0.6, 0.7)
    W = np.array([[0.0, 60.0]])
    assert one_row_loss([1.0], 1, W, temps) == 2.5
    # hot t2 only approaches the cap asymptotically
    temps_hot = TemperaturePair(0.6, 1.6)
    vals = [
        one_row_loss([1.0], 1, np.array([[0.0, m]]), temps_hot)
        for m in (1e2, 1e4, 1e6)
    ]
    assert all(v < 2.5 + 1e-9 for v in vals)
    assert vals == sorted(vals)
    assert vals[-1] > 2.4


def test_saturated_loss_is_infinite_when_hot():
    W = np.array([[0.0, 60.0]])
    assert one_row_loss([1.0], 1, W, (1.0, 0.7)) == np.inf
    assert one_row_loss([1.0], 1, W, (1.3, 0.5)) == np.inf


def test_binary_gradient_matches_finite_differences():
    # d/da against loss differences, at each margin and its mirror (the
    # -1 loss at a is the +1 loss at -a)
    rng = np.random.default_rng(17)
    h = 1e-6
    for temps in ((1.0, 1.0), (0.6, 1.6), (1.2, 1.2)):
        for a in rng.normal(scale=1.5, size=3):
            for x in (a, -a):
                g = loss_first_derivative(x, temps)
                fd = (margin_losses(x + h, temps)[0] - margin_losses(x - h, temps)[0]) / (2.0 * h)
                assert g == pytest.approx(fd, abs=2e-6)


def test_binary_form_agrees_with_two_column_embedding():
    # W = [w/2, -w/2] reproduces the margin parameterization: label +1 is
    # class 1, and label -1 is class 2, whose loss is the +1 loss at -margin
    rng = np.random.default_rng(5)
    for temps in ((1.0, 1.0), (0.6, 1.6), (0.9, 0.5), (0.8, 0.6)):
        X = rng.normal(size=(13, 4))
        w = rng.normal(size=4)
        W = np.column_stack([0.5 * w, -0.5 * w])
        for c, klass in ((1, 1), (-1, 2)):
            lb = margin_losses(c * (X @ w), temps)
            lm = batch_losses(X, np.full(13, klass), W, temps)
            assert np.allclose(lb, lm, atol=1e-13)


def test_softmax_gradient_oracle_at_tied_activations():
    # p = q = [1/2, 1/2], factor = 1: column 1 is -(1 - 1/2) x, column 2 is +1/2 x
    x = np.array([2.0, -1.0])
    g = one_row_grad(x, 1, np.zeros((2, 2)), (1.0, 1.0))
    expected = np.outer(x, [-0.5, 0.5])
    assert np.allclose(g, expected, atol=1e-14)


def test_importance_factor_scales_gradient():
    # at tied activations with t2 = 1: p_n = 1/2, factor = 2^(-gap)
    x = np.array([1.0])
    base = one_row_grad(x, 1, np.zeros((1, 2)), (1.0, 1.0))
    damped = one_row_grad(x, 1, np.zeros((1, 2)), (0.5, 1.0))
    assert np.allclose(damped, base * 2.0 ** (-0.5), atol=1e-14)


@pytest.mark.parametrize("k", [-0.99, -0.5, 0.0, 0.4, 1.0, 1.99])
def test_positive_power_table(k):
    p = np.array([0.0, 5e-324, 1e-300, 0.5, 1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = positive_power(p, k)
    assert out[0] == 0.0 and np.isfinite(out).all()
    for pi, got in zip(p[1:], out[1:]):
        try:
            want = math.pow(pi, k)
        except OverflowError:  # 5e-324 ** -0.99: the cap, the largest float through its log
            assert got == np.exp(np.log(np.finfo(float).max))
            continue
        # exp(k ln p) carries the rounding of k ln p into its relative error,
        # about |k ln p| ulp at most: 4 ulp near p = 1, 143 at (1e-300, 1)
        ulps = 4.0 + abs(k * math.log(pi))
        assert abs(got - want) <= ulps * np.spacing(want), (pi, k, got, want)


def test_binary_grad_saturation_mirror():
    # a margin deep inside the t2 < 1 clamp has class +1 probability exactly
    # 0: the loss is infinite for t1 >= 1 and capped for t1 < 1, and either
    # way the derivative is exactly 0
    a = np.array([-200.0])
    assert margin_losses(a, (1.0, 0.6))[0] == np.inf
    assert margin_losses(a, (0.5, 0.6))[0] == 2.0
    for temps in ((1.0, 0.6), (0.5, 0.6)):
        assert np.array_equal(loss_first_derivative(a, temps), np.zeros(1))


def test_batch_losses_match_per_example_loop():
    # each row's loss is independent of the rest of the batch
    rng = np.random.default_rng(23)
    X = rng.normal(size=(12, 4))
    y = rng.integers(1, 4, size=12)
    W = rng.normal(scale=0.3, size=(4, 3))
    data = make_dataset(X, y)
    for temps in ((1.0, 1.0), (0.6, 1.6)):
        tp = TemperaturePair(*temps)
        batch = batch_losses(data.X, data.y, W, tp)
        loop = np.array([one_row_loss(X[i], y[i], W, tp) for i in range(len(y))])
        assert np.allclose(batch, loop, atol=1e-14)


def test_objective_value_and_gradient():
    rng = np.random.default_rng(31)
    X = rng.normal(size=(20, 3))
    y = rng.integers(1, 4, size=20)
    W = rng.normal(scale=0.4, size=(3, 3))
    lam = 0.05
    data = make_dataset(X, y)
    for temps in ((1.0, 1.0), (0.6, 1.6), (1.2, 0.9), (1.0, 1.9), (1.4, 0.8), (0.8, 0.6)):
        tp = TemperaturePair(*temps)
        value, grad = regularized_objective(data, W, tp, lam)
        mean_loss = float(np.mean(batch_losses(data.X, data.y, W, tp)))
        assert value == pytest.approx(mean_loss + 0.5 * lam * np.sum(W * W), abs=1e-12)
        h = 1e-6
        fd = np.zeros_like(W)
        for i in range(3):
            for j in range(3):
                Wp = W.copy()
                Wp[i, j] += h
                Wm = W.copy()
                Wm[i, j] -= h
                fd[i, j] = (
                    regularized_objective(data, Wp, tp, lam)[0]
                    - regularized_objective(data, Wm, tp, lam)[0]
                ) / (2.0 * h)
        assert np.allclose(grad, fd, atol=5e-6)


def test_objective_dense_and_sparse_agree():
    rng = np.random.default_rng(8)
    Xd = rng.normal(size=(15, 4))
    Xd[rng.random(Xd.shape) < 0.5] = 0.0
    y = rng.integers(1, 3, size=15)
    W = rng.normal(size=(4, 2))
    sparse_data = make_dataset(Xd, y)

    class DenseData:
        X = Xd
        y_arr = np.asarray(y)

    dense_data = DenseData()
    dense_data.y = dense_data.y_arr
    v1, g1 = regularized_objective(sparse_data, W, (0.6, 1.6), 0.01)
    v2, g2 = regularized_objective(dense_data, W, (0.6, 1.6), 0.01)
    assert v1 == pytest.approx(v2, abs=1e-12)
    assert np.allclose(g1, g2, atol=1e-12)


def test_objective_is_deterministic():
    rng = np.random.default_rng(77)
    data = make_dataset(rng.normal(size=(30, 5)), rng.integers(1, 5, size=30))
    W = rng.normal(size=(5, 4))
    v1, g1 = regularized_objective(data, W, (0.6, 1.6), 0.1)
    v2, g2 = regularized_objective(data, W, (0.6, 1.6), 0.1)
    assert v1 == v2
    assert np.array_equal(g1, g2)


def test_objective_with_saturated_point():
    # a saturated row sends the value to +inf but leaves the gradient finite
    X = np.array([[1.0], [0.5]])
    y = np.array([1, 2])
    data = make_dataset(X, y)
    W = np.array([[0.0, 60.0]])
    value, grad = regularized_objective(data, W, (1.0, 0.7), 0.0)
    assert value == np.inf
    assert np.all(np.isfinite(grad))
    # a row with true-class probability exactly 0 adds a zero gradient row:
    # for cool t1 the loss plateaus, and a positive gap damps it to zero;
    # at zero gap the plateau alone does it
    for temps in ((0.6, 0.7), (0.3, 0.5), (0.7, 0.7)):
        assert np.array_equal(one_row_grad([1.0], 1, W, temps), np.zeros((1, 2)))


def test_objective_gradient_with_a_plateau_row():
    # the last row sits deep on the p = 0 plateau, where t1 = t2 < 1 caps
    # its loss, so it must add nothing to the gradient
    X = np.array([[1.0, 0.5], [0.3, -1.0], [-0.4, 0.8], [8.0, 1.0]])
    y = np.array([1, 2, 1, 2])
    W = np.array([[0.6, -0.4, 0.1], [0.2, 0.3, -0.5]])
    data = make_dataset(X, y, num_classes=3)
    h = 1e-6
    for temps in ((0.7, 0.7), (0.5, 0.5)):
        _, grad = regularized_objective(data, W, temps, 1e-3)
        fd = np.zeros_like(W)
        for idx in np.ndindex(W.shape):
            step = np.zeros_like(W)
            step[idx] = h
            fd[idx] = (
                regularized_objective(data, W + step, temps, 1e-3)[0]
                - regularized_objective(data, W - step, temps, 1e-3)[0]
            ) / (2.0 * h)
        assert np.abs(grad - fd).max() <= 1e-6 * np.abs(fd).max()


def test_objective_validates_inputs():
    data = make_dataset(np.ones((2, 1)), [1, 2])
    for lam in (-0.1, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="lambda must be finite and >= 0"):
            regularized_objective(data, np.zeros((1, 2)), (1.0, 1.0), lam)
    empty = Dataset(np.empty((0, 1)), np.empty(0, dtype=np.int64), 2)
    with pytest.raises(ValueError, match="dataset is empty"):
        regularized_objective(empty, np.zeros((1, 2)), (1.0, 1.0), 0.1)


def test_objective_refuses_a_weight_matrix_of_the_wrong_height():
    data = make_dataset(np.ones((2, 2)), [1, 2])
    for W in (np.zeros((3, 2)), np.zeros(2)):
        with pytest.raises(ValueError) as err:
            regularized_objective(data, W, (1.0, 1.0), 0.1)
        assert str(err.value) == f"W must have shape (2, C), got {W.shape}"


@pytest.mark.parametrize(
    "y, message",
    [
        ([1, 5], r"^y\[1\] must be an integer in \[1, 3\], got 5$"),
        # a label 0 would score the last class through P[rows, y - 1]
        ([0, 1], r"^y\[0\] must be an integer in \[1, 3\], got 0$"),
        ([1.5, 1.0], r"^y\[0\] must be an integer in \[1, 3\], got 1.5$"),
        ([1], r"^y must have shape \(2,\), got \(1,\)$"),
    ],
)
def test_batch_losses_checks_its_labels(y, message):
    with pytest.raises(ValueError, match=message):
        batch_losses(np.ones((2, 2)), y, np.zeros((2, 3)), (1.0, 1.0))


def test_batch_losses_names_a_non_finite_weight():
    # a NaN weight once gave the losses [nan nan]
    W = np.zeros((2, 3))
    W[1, 0] = np.nan
    with pytest.raises(ValueError, match=r"^W\[1\]\[0\] must be finite, got nan$"):
        batch_losses(np.ones((2, 2)), [1, 2], W, (1.0, 1.0))


def test_batch_losses_takes_integer_valued_float_labels():
    losses = batch_losses(np.ones((2, 2)), [1.0, 3.0], np.zeros((2, 3)), (1.0, 1.0))
    assert np.allclose(losses, math.log(3.0))


@settings(max_examples=60)
@given(
    t1=st.floats(min_value=0.1, max_value=1.9),
    t2=st.floats(min_value=0.1, max_value=1.9),
    a=st.floats(min_value=-30.0, max_value=30.0),
)
def test_loss_nonnegative_and_capped(t1, t2, a):
    val = margin_losses(a, (t1, t2))[0]
    assert val >= -1e-12
    if t1 < 1.0:
        assert val <= 1.0 / (1.0 - t1) + 1e-9


@settings(max_examples=40)
@given(
    t1=st.floats(min_value=0.2, max_value=1.8),
    t2=st.floats(min_value=0.2, max_value=1.8),
)
def test_loss_monotone_in_margin(t1, t2):
    # more activation on the true class never increases the loss
    vals = margin_losses(np.linspace(-10.0, 10.0, 21), (t1, t2))
    assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))
