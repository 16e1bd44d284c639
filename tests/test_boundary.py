"""Every public setting and array is checked where it enters, in one message form.

A string, None, a bool or NaN given for a temperature (of a pair or of a
public kernel), a tolerance, a ridge weight, a posterior, a scan bound or a
noise setting is refused with a ValueError "{name} must {rule}, got
{value!r}", never coerced and never left to fail later as a TypeError. A
non-finite entry of a feature, weight or label array is refused in the same
form, named by its index: "Dataset X[3][1] must be finite, got nan".
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse
from test_fuzz_fit import CHECK_FORM

from ttlr.analysis import bayes_binary_check, curvature_report, find_inflection
from ttlr.data import (
    Dataset,
    inject_margin_flip,
    inject_outlier_noise,
    inject_random_flip,
    synth_gaussians,
)
from ttlr.loss import TemperaturePair, batch_losses
from ttlr.model import FitConfig, TTLRModel, fit, predict
from ttlr.optimizer import OptimizerConfig
from ttlr.tempered import exp_t, log_t, tsallis_divergence, tsallis_entropy, validate_lambda

DATA = synth_gaussians(10, [(2.0, 0.0), (-2.0, 0.0)], seed=0)
QUASI_CONVEX = (0.6, 1.6)

# (name the message starts with, the entry point given the bad value)
SETTINGS = [
    ("temperature", lambda v: TemperaturePair(v, 1.0)),
    ("temperature", lambda v: TemperaturePair(1.0, v)),
    ("OptimizerConfig grad_tol", lambda v: OptimizerConfig(grad_tol=v)),
    ("OptimizerConfig max_iters", lambda v: OptimizerConfig(max_iters=v)),
    ("lambda", validate_lambda),
    ("eta", lambda v: bayes_binary_check(v, QUASI_CONVEX)),
    ("lo", lambda v: find_inflection(QUASI_CONVEX, v, 5.0)),
    ("hi", lambda v: find_inflection(QUASI_CONVEX, -5.0, v)),
    ("lo", lambda v: curvature_report(QUASI_CONVEX, v, 5.0)),
    ("hi", lambda v: curvature_report(QUASI_CONVEX, -5.0, v)),
    ("noise level (ratio)", lambda v: inject_outlier_noise(DATA, 1.0, v, 0)),
    ("noise sigma", lambda v: inject_outlier_noise(DATA, v, 0.1, 0)),
    ("inject_outlier_noise seed", lambda v: inject_outlier_noise(DATA, 1.0, 0.1, v)),
    ("noise level (flip probability)", lambda v: inject_random_flip(DATA, v, 0)),
    ("inject_random_flip seed", lambda v: inject_random_flip(DATA, 0.1, v)),
    ("noise level (ratio)", lambda v: inject_margin_flip(DATA, v, 0)),
    ("inject_margin_flip seed", lambda v: inject_margin_flip(DATA, 0.1, v)),
]


@pytest.mark.parametrize("name, enter", SETTINGS)
@pytest.mark.parametrize("value", ["0.5", None, True, math.nan])
def test_a_bad_scalar_setting_is_refused_by_name(name, enter, value):
    with pytest.raises(ValueError) as err:
        enter(value)
    message = str(err.value)
    assert message.startswith(f"{name} must ") and message.endswith(f", got {value!r}")


# the public kernels check their temperature as TemperaturePair does
KERNELS = [
    lambda t: log_t(1.0, t),
    lambda t: exp_t(1.0, t),
    lambda t: tsallis_entropy([0.5, 0.5], t),
    lambda t: tsallis_divergence([0.5, 0.5], [0.25, 0.75], t),
]


@pytest.mark.parametrize("enter", KERNELS, ids=["log_t", "exp_t", "tsallis_entropy",
                                                "tsallis_divergence"])
@pytest.mark.parametrize("t", ["1.5", None, True, math.nan, 5.0])
def test_a_kernel_refuses_a_bad_temperature(enter, t):
    with pytest.raises(ValueError) as err:
        enter(t)
    assert str(err.value) == f"temperature must lie strictly in (0, 2), got {t!r}"


def test_fit_refuses_an_infinite_gradient_tolerance():
    # an infinite tolerance would stop at iteration 0 with the random start
    with pytest.raises(ValueError, match="^OptimizerConfig grad_tol must be finite and > 0"):
        fit(DATA, (1.0, 1.0), 1e-3, FitConfig(optimizer=OptimizerConfig(grad_tol=np.inf)))


def test_numbers_of_every_real_type_still_pass():
    assert TemperaturePair(1, np.float32(1.5)) == TemperaturePair(1.0, 1.5)
    assert OptimizerConfig(grad_tol=np.float64(1e-8)).grad_tol == 1e-8
    assert bayes_binary_check(np.float64(0.7), (1.0, 1.0)).sign_consistent


PAIR = TemperaturePair(1.0, 1.0)
ONE_STEP = FitConfig(optimizer=OptimizerConfig(max_iters=1))


def two_class_model(dim):
    return TTLRModel(np.zeros((dim, 2)), PAIR, 0.1)


# (the name the message gives the array, whether the entry takes one row of
# it, the entry point given a finite or a bad (rows, cols) array or row)
ARRAYS = [
    ("Dataset X", False, lambda A: Dataset(A, np.ones(len(A), dtype=int), 1)),
    ("Dataset X", False, lambda A: Dataset(sparse.csr_array(A), np.ones(len(A), dtype=int), 1)),
    ("TTLRModel W", False, lambda A: TTLRModel(A, PAIR, 0.1)),
    ("TTLRModel labels", True,
     lambda v: TTLRModel(np.zeros((1, v.size)), PAIR, 0.1, labels=tuple(v))),
    ("init", False,
     lambda A: fit(Dataset(np.ones((2, len(A))), [1, 2], A.shape[1]), PAIR, 0.1, ONE_STEP, A)),
    ("input", True, lambda v: predict(two_class_model(v.size), v)),
    ("input", False, lambda A: predict(two_class_model(A.shape[1]), A)),
    ("input", False, lambda A: predict(two_class_model(A.shape[1]), sparse.csr_array(A))),
    ("W", False, lambda A: batch_losses(np.ones((1, len(A))), [1], A, PAIR)),
]


@settings(max_examples=150)
@given(entry=st.sampled_from(ARRAYS), rows=st.integers(2, 5), cols=st.integers(2, 4),
       bad=st.sampled_from([math.nan, math.inf, -math.inf]), draw=st.data())
def test_a_non_finite_array_entry_is_refused_by_its_index(entry, rows, cols, bad, draw):
    name, one_row, enter = entry
    i, j = draw.draw(st.integers(0, rows - 1)), draw.draw(st.integers(0, cols - 1))
    # a checkerboard of 0 and 1, so a CSR copy keeps some entries unstored
    A = (np.indices((rows, cols)).sum(axis=0) % 2).astype(float)
    enter(A[i] if one_row else A)
    A[i, j] = bad
    with pytest.raises(ValueError) as err:
        enter(A[i] if one_row else A)
    index = f"[{j}]" if one_row else f"[{i}][{j}]"
    assert CHECK_FORM.match(str(err.value))
    assert str(err.value) == f"{name}{index} must be finite, got {bad!r}"
