"""Fuzzed training loop: `fit`, its objective and L-BFGS on small, extreme datasets.

Up to 40 rows of up to 3 features and 4 classes, with features at one scale
10^U(-300, 300) or 10^U(-3, 6), temperatures across (0, 2) with 1 among
both and 1 + 1e-7 among the t2 values, and ridge weights from 0 to 1e2.
Whatever the input, `fit` returns or refuses it with a `check`-form error,
emits no warning, and returns a finite W with a trace that keeps its
documented counts.
"""

import re
import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ttlr.data import Dataset
from ttlr.model import FitConfig, fit

TERMINATIONS = {"converged", "max_iterations", "line_search_failed", "no_progress",
                "degenerate_data"}
CHECK_FORM = re.compile(r"^\S.* must .+, got .+$")
OPEN_TEMPERATURE = st.floats(0.0, 2.0, exclude_min=True, exclude_max=True)


@st.composite
def problems(draw):
    n, d, c = draw(st.integers(1, 40)), draw(st.integers(1, 3)), draw(st.integers(2, 4))
    exponent = draw(st.one_of(st.floats(-300.0, 300.0), st.floats(-3.0, 6.0)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.standard_normal((n, d)) * 10.0 ** exponent
    return Dataset(X, rng.integers(1, c + 1, n), c)


@settings(max_examples=120)
@given(data=problems(),
       t1=st.one_of(st.just(1.0), OPEN_TEMPERATURE),
       t2=st.one_of(st.sampled_from([1.0, 1.0 + 1e-7]), OPEN_TEMPERATURE),
       lam=st.sampled_from([0.0, 1e-10, 1e-3, 1.0, 1e2]),
       seed=st.integers(0, 3))
def test_fit_returns_a_finite_w_with_a_consistent_trace(data, t1, t2, lam, seed):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            model = fit(data, (t1, t2), lam, FitConfig(seed=seed))
        except ValueError as exc:
            assert CHECK_FORM.match(str(exc)), str(exc)
            return
    trace = model.trace
    assert np.isfinite(model.W).all()
    assert trace.termination in TERMINATIONS
    assert trace.evaluations == 1 + trace.iterations + trace.backtracks
    assert np.all(np.diff(trace.objective_values) <= 0.0)
