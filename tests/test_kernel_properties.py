"""Properties of the numeric kernels over the whole finite float range.

Activation rows hold magnitudes from 1e-300 to 1.7e308, with ties, exact
+-extremes and up to 3000 classes, at t2 across (0, 2) and on both sides of
1 +- T_SWITCH. Whatever the input, `log_partition_rows`, `activation_terms`
and `predict_proba` return without error or floating-point warning, with a
finite normalizer, probabilities in [0, 1], a residual at the float floor
and a finite activation gradient, and a solve cut into blocks has the bytes
of the one-block solve.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ttlr import partition
from ttlr.loss import TemperaturePair, activation_terms
from ttlr.model import TTLRModel, predict_proba
from ttlr.partition import RESIDUAL_TOL, log_partition_rows
from ttlr.tempered import T_SWITCH, log_t

EPS = np.finfo(float).eps
TEMPERATURES = st.one_of(
    st.floats(0.0, 2.0, exclude_min=True, exclude_max=True),
    st.sampled_from([1e-300, 0.01, 0.1, 0.6, 0.999, 1.6, 1.99, 1.0 - 1e-15]),
    st.sampled_from([-2.0, -1.0, 1.0, 2.0]).map(lambda s: 1.0 + s * T_SWITCH),
)
CLASSES = st.one_of(st.integers(2, 12), st.sampled_from([100, 3000]))


@st.composite
def activations(draw):
    """An n x C activation matrix, each row with its own magnitude and layout,
    and a label per row: a random class, or the row's least likely one."""
    n, c = draw(st.integers(2, 5)), draw(CLASSES)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = []
    for _ in range(n):
        scale = draw(st.one_of(
            st.floats(-300.0, np.log10(1.7e308)).map(lambda e: 10.0**e),
            st.sampled_from([1e-300, 1e-3, 1.0, 1e308, 1.7e308]),
        ))
        layout = draw(st.sampled_from(["uniform", "extremes", "tied", "one_leader"]))
        row = scale * rng.uniform(-1.0, 1.0, c)
        if layout == "extremes":
            row[rng.integers(0, c, c // 2 + 1)] = scale
            row[rng.integers(0, c, c // 2 + 1)] = -scale
        elif layout == "tied":
            row[:] = row[0]
        elif layout == "one_leader":
            row[:] = -scale
            row[rng.integers(0, c)] = scale
        rows.append(row)
    A = np.array(rows)
    y = np.argmin(A, axis=1) if draw(st.booleans()) else rng.integers(0, c, n)
    return A, y + 1


def _floor_bound(powered, t2):
    """Largest residual each row may stop at: the tolerance, or the float floor.

    At the floor g's float neighbours straddle the root, so |f| is at most
    |f'| = sum_c P**t2 times the spacing of g, plus the rounding of a C-term
    sum. The shifted g lies in [0, top].
    """
    c = powered.shape[1]
    if abs(1.0 - t2) < T_SWITCH:
        return 2.0 * c * EPS  # closed form: only the sum's rounding
    top = -log_t(1.0 / c, t2)
    return np.maximum(RESIDUAL_TOL, powered.sum(axis=1) * np.spacing(top) + 2.0 * c * EPS)


@settings(max_examples=150)
@given(case=activations(), t2=TEMPERATURES,
       t1=st.floats(0.0, 2.0, exclude_min=True, exclude_max=True))
# an activation gap that overflows to -inf, off the t2 < 1 support
@example(case=(np.array([[1e308, -1e308], [-1e308, 1e308]]), np.array([1, 1])), t2=0.6, t1=1.0)
# 3000 near-tied classes, where the t2 < 1 iterates reach the float floor
@example(case=(np.random.default_rng(0).normal(0.0, 1e-3, (4, 3000)), np.array([1, 2, 3, 4])),
         t2=0.01, t1=1.0)
# a true-class p near the float floor: p**(t2 - t1) overflows once t1 - t2 > 709.8/744.4
@example(case=(np.array([[0.0, -744.0, -1e308], [0.0, -740.0, 0.0]]), np.array([2, 2])),
         t2=1.0, t1=1.99)
# two classes, whose rows start at the root tabulated for their gap: a gap
# exactly at the t2 < 1 support edge 1/(1 - t2) = 2.5 ...
@example(case=(np.array([[0.0, -2.5], [2.5, 0.0]]), np.array([1, 1])), t2=0.6, t1=0.8)
# ... a gap of 1e10, past the last finite node of the grid ...
@example(case=(np.array([[0.0, -1e10], [-1e10, 0.0]]), np.array([1, 1])), t2=1.6, t1=0.8)
# ... and all-tied rows, at the upper end of the bracket
@example(case=(np.array([[3.0, 3.0], [-1e-300, -1e-300]]), np.array([1, 2])), t2=1.3, t1=0.8)
def test_kernels_are_total_on_finite_input(case, t2, t1):
    A, y = case
    n, c = A.shape
    rows = log_partition_rows(A, t2)
    G, res, _, P, powered = rows
    assert np.isfinite(G).all()
    assert np.isfinite(P).all() and (P >= 0.0).all() and (P <= 1.0).all()
    assert np.isfinite(powered).all()
    assert (res <= _floor_bound(powered, t2)).all()

    # every block its own row, solved on the pool and the calling thread
    with pytest.MonkeyPatch.context() as m:
        m.setattr(partition, "BLOCK_ELEMENTS", c)
        blocked = log_partition_rows(A, t2)
    for got, want in zip(blocked, rows):
        assert got.tobytes() == want.tobytes()

    losses, dA = activation_terms(A, y, TemperaturePair(t1, t2))
    assert np.isfinite(dA).all()
    assert not np.isnan(losses).any() and (losses >= 0.0).all()

    # x @ I is the activations exactly
    proba = predict_proba(TTLRModel(A, TemperaturePair(t1, t2), 0.0), np.eye(n))
    assert proba.tobytes() == P.tobytes()
