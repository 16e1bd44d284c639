"""Every public scalar setting is checked where it enters, in one message form.

A string, None, a bool or NaN given for a temperature (of a pair or of a
public kernel), a tolerance, a ridge weight, a posterior, a scan bound or a
noise setting is refused with a ValueError "{name} must {rule}, got
{value!r}", never coerced and never left to fail later as a TypeError.
"""

import math

import numpy as np
import pytest

from ttlr.analysis import bayes_binary_check, curvature_report, find_inflection
from ttlr.data import (
    inject_margin_flip,
    inject_outlier_noise,
    inject_random_flip,
    synth_gaussians,
)
from ttlr.loss import TemperaturePair
from ttlr.model import FitConfig, fit
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
