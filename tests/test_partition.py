"""Normalization solver, tempered probabilities, and partition derivatives."""

import hashlib
import math
import multiprocessing
import os
import sys
import threading
import time
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy.special import logsumexp, softmax

from ttlr import partition
from ttlr.analysis import margin_derivatives
from ttlr.loss import activation_terms
from ttlr.partition import (
    RESIDUAL_TOL,
    escort,
    log_partition,
    log_partition_rows,
    tempered_probs,
    tempered_probs_rows,
)
from ttlr.tempered import T_SWITCH, exp_t, log_t


def d1(a, t2):
    return margin_derivatives(a, t2)[1]


def d2(a, t2):
    return margin_derivatives(a, t2)[2]


def test_symmetric_binary_closed_form():
    # two equal activations at t=1.5: 2 * exp_t(-G) = 1 gives G = 2(sqrt(2)-1)
    res = log_partition(np.array([0.0, 0.0]), 1.5)
    assert res.G == pytest.approx(2.0 * (math.sqrt(2.0) - 1.0), abs=1e-12)


def test_reduces_to_logsumexp_at_one():
    rng = np.random.default_rng(7)
    a = rng.uniform(-15.0, 15.0, size=(40, 5))
    for row in a:
        res = log_partition(row, 1.0)
        assert res.G == pytest.approx(logsumexp(row), abs=1e-12)
        assert res.iterations == 0
    p = tempered_probs(a[0], 1.0)
    assert np.allclose(p, softmax(a[0]), atol=1e-13)


def test_softmax_oracle_values():
    p = tempered_probs(np.array([2.0, 1.0, 0.0]), 1.0)
    expected = np.array([0.66524096, 0.24472847, 0.09003057])
    assert np.allclose(p, expected, atol=1e-8)


def test_probabilities_normalize_across_temperature_grid():
    rng = np.random.default_rng(11)
    for t2 in (0.5, 0.8, 1.0, 1.2, 1.6, 1.9):
        for num_classes in (2, 3, 5, 10):
            a = rng.uniform(-20.0, 20.0, size=(25, num_classes))
            p = tempered_probs_rows(a, t2)
            assert np.all(p >= 0.0)
            assert np.max(np.abs(p.sum(axis=1) - 1.0)) <= 1e-10


def test_solver_residual_and_iteration_contract():
    rng = np.random.default_rng(3)
    a = rng.uniform(-20.0, 20.0, size=12)
    for t2 in (0.5, 1.3, 1.9):
        res = log_partition(a, t2)
        assert res.residual <= 1e-13
        assert res.iterations <= 200


def test_shift_invariance_of_probabilities():
    # adding a constant to all activations shifts G and leaves probs fixed
    a = np.array([3.0, -1.0, 0.5, -7.0])
    for t2 in (0.6, 1.0, 1.4):
        base = log_partition(a, t2).G
        shifted = log_partition(a + 11.0, t2).G
        assert shifted == pytest.approx(base + 11.0, abs=1e-11)
        assert np.allclose(tempered_probs(a, t2), tempered_probs(a + 11.0, t2), atol=1e-11)


def test_cool_temperature_produces_exact_zeros():
    # a dominated activation falls off the truncated support entirely
    p = tempered_probs(np.array([0.0, -50.0]), 0.5)
    assert p[1] == 0.0
    assert p[0] == 1.0


def test_hot_temperature_keeps_heavy_tails():
    # t2 > 1 decays polynomially, so the losing class keeps real mass
    p_hot = tempered_probs(np.array([0.0, -50.0]), 1.6)
    p_log = softmax(np.array([0.0, -50.0]))
    assert p_hot[1] > 1e6 * p_log[1]


def test_batched_rows_match_single_rows():
    rng = np.random.default_rng(5)
    a = rng.uniform(-10.0, 10.0, size=(30, 4))
    for t2 in (0.7, 1.0, 1.5):
        batch = tempered_probs_rows(a, t2)
        single = np.stack([tempered_probs(row, t2) for row in a])
        assert np.array_equal(batch, single)


def test_escort_closed_form():
    # sqrt weights: sqrt(0.8)/sqrt(0.2) = 2, so the escort is [2/3, 1/3]
    q = escort(np.array([0.8, 0.2]), 0.5)
    assert np.allclose(q, [2.0 / 3.0, 1.0 / 3.0], atol=1e-14)


def test_escort_fixes_uniform_and_handles_zeros():
    u = np.full(4, 0.25)
    for t2 in (0.5, 1.0, 1.8):
        assert np.allclose(escort(u, t2), u, atol=1e-15)
    q = escort(np.array([0.5, 0.5, 0.0]), 0.6)
    assert q[2] == 0.0
    assert q.sum() == pytest.approx(1.0, abs=1e-14)
    assert np.all(np.isfinite(q))


def test_escort_normalizes():
    rng = np.random.default_rng(19)
    for _ in range(50):
        p = rng.dirichlet(np.ones(5))
        for t2 in (0.4, 1.0, 1.7):
            q = escort(p, t2)
            assert q.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.all(q >= 0.0)


def test_margin_derivative_oracle_at_one():
    # logistic case: dG/da on the +-a/2 margin curve is tanh(a/2)/2
    assert d1(np.array([1.0]), 1.0)[0] == pytest.approx(
        math.tanh(0.5) / 2.0, abs=1e-14
    )
    assert d2(np.array([0.0]), 1.0)[0] == pytest.approx(0.25, abs=1e-14)


def test_margin_derivative_symmetry_and_limits():
    a = np.linspace(0.1, 8.0, 25)
    for t2 in (0.6, 1.0, 1.5):
        d_pos = d1(a, t2)
        d_neg = d1(-a, t2)
        assert np.allclose(d_pos, -d_neg, atol=1e-11)
        # cool temperatures hit the plateau and pin at exactly 1/2
        assert np.all(np.abs(d_pos) <= 0.5)
        if t2 >= 1.0:
            assert np.all(np.abs(d_pos) < 0.5)
    # saturated margins pin the derivative at exactly half
    assert d1(np.array([-30.0]), 0.5)[0] == -0.5
    assert d2(np.array([-30.0]), 0.5)[0] == 0.0


def test_margin_derivatives_match_finite_differences():
    h = 1e-6

    def g_margin(a, t2):
        pair = np.array([a / 2.0, -a / 2.0])
        return log_partition(pair, t2).G

    # probes avoid the t2 < 1 plateau boundary at |a| = 1/(1 - t2), where the
    # second derivative is continuous but not smooth
    for t2 in (0.6, 1.0, 1.6):
        for a in (-4.0, -0.7, 0.3, 1.8):
            fd1 = (g_margin(a + h, t2) - g_margin(a - h, t2)) / (2.0 * h)
            assert d1(np.array([a]), t2)[0] == pytest.approx(fd1, abs=1e-6)
            fd2 = (
                d1(np.array([a + h]), t2)[0]
                - d1(np.array([a - h]), t2)[0]
            ) / (2.0 * h)
            assert d2(np.array([a]), t2)[0] == pytest.approx(fd2, abs=1e-6)


def test_second_derivative_nonnegative():
    a = np.linspace(-12.0, 12.0, 101)
    for t2 in (0.5, 0.9, 1.0, 1.4, 1.9):
        assert np.all(d2(a, t2) >= 0.0)


def test_rejects_bad_inputs():
    with pytest.raises(ValueError):
        log_partition(np.array([0.0, 1.0]), 2.0)
    with pytest.raises(ValueError):
        log_partition(np.array([]), 1.0)
    with pytest.raises(ValueError):
        log_partition(np.array([np.nan, 0.0]), 1.2)
    for p in (np.array([]), np.ones((2, 2)) / 4):
        with pytest.raises(ValueError, match=r"p must have shape \(k,\) with k >= 1, got"):
            escort(p, 1.2)
    for p in (np.array([-0.5, 1.5]), np.array([np.nan, 1.0]), np.array([np.inf, 1.0])):
        with pytest.raises(ValueError, match=r"p\[0\] must be finite and >= 0, got"):
            escort(p, 1.2)
    rule = r"^p must give a finite, nonzero sum_c p_c\^t2 at t2 = "
    with pytest.raises(ValueError, match=rule + r"1.2, got \[0.0, 0.0\]$"):
        escort(np.array([0.0, 0.0]), 1.2)
    # p^t2 underflows to an all-zero vector
    with pytest.raises(ValueError, match=rule + r"1.9, got \[1e-200, 1e-200\]$"):
        escort(np.array([1e-200, 1e-200]), 1.9)


def test_fused_pass_returns_the_escort_weights():
    # powered = P / (1 + (1 - t2)(a - G)) on the support equals P**t2
    rng = np.random.default_rng(23)
    for t2 in (0.2, 0.5, 0.8, 1.0, 1.3, 1.6, 1.9):
        for num_classes in (2, 3, 10):
            a = rng.uniform(-20.0, 20.0, size=(200, num_classes))
            res = log_partition_rows(a, t2)
            assert np.max(np.abs(res.powered - np.power(res.P, t2))) <= 1e-15
            assert np.max(res.residual) <= RESIDUAL_TOL


def test_halley_iterations_at_scale():
    # a large-fit sized batch: Gaussian activations plus the all-tied rows of
    # a zero weight matrix, whose root is the upper end of the bracket
    rng = np.random.default_rng(29)
    a = 3.0 * rng.standard_normal((50000, 10))
    a[:1000] = 0.0
    res = log_partition_rows(a, 1.6)
    assert res.iterations.max() <= 5
    assert np.max(res.residual) <= RESIDUAL_TOL


def _first_halley_step(a, t2):
    """The unguarded first Halley step on the max-shifted row, from g = 0,
    and the upper end of the bracket."""
    b = a - a.max()
    p = exp_t(b, t2)
    u = np.maximum(1.0 + (1.0 - t2) * b, np.finfo(float).tiny)
    f, fprime, fsecond = p.sum() - 1.0, -(p / u).sum(), t2 * (p / u / u).sum()
    newton = f / fprime
    return -newton / (1.0 - 0.5 * newton * fsecond / fprime), -log_t(1.0 / a.size, t2)


@pytest.mark.parametrize(
    "t2, a",
    [
        # one class sits 1e-8 inside the t2 < 1 support edge: f'' is huge and
        # the Halley step points backwards
        (0.2, np.array([1e4, 1e4, 1e4 - 1.25 * (1.0 - 1e-8), -1e4])),
        # seven near-ties behind the leader: the Halley step overshoots the
        # upper end of the bracket
        (1.9, np.array([1e4] + [1e4 - 2.0] * 7 + [-1e4])),
    ],
)
def test_bisection_fallback_keeps_the_residual(t2, a):
    step, hi = _first_halley_step(a, t2)
    assert not 0.0 <= step <= hi
    res = log_partition_rows(a[None, :], t2)
    assert res.residual[0] <= RESIDUAL_TOL
    assert res.iterations[0] <= 5
    assert abs(res.P.sum() - 1.0) <= RESIDUAL_TOL


def test_iteration_cap_raises(monkeypatch):
    monkeypatch.setattr(partition, "MAX_ITERATIONS", 1)
    a = np.random.default_rng(31).uniform(-5.0, 5.0, size=(50, 4))
    with pytest.raises(RuntimeError, match="within 1 iterations"):
        log_partition_rows(a, 1.6)


@pytest.mark.parametrize("t2", [0.01, 0.6, 0.999])
def test_overflowed_gap_is_exactly_off_the_support(t2):
    # the gap 2e308 overflows to -inf; the losing class still gets P = 0, not NaN
    res = log_partition_rows(np.array([[1e308, -1e308]]), t2)
    assert res.P.tolist() == [[1.0, 0.0]]
    assert res.powered.tolist() == [[1.0, 0.0]]


@pytest.mark.parametrize("t2", [0.05, 0.09, 0.13, 0.21, 0.27])
def test_pass_and_exp_t_share_the_support_edge(t2):
    # at these t2 the product (1 - t2) * (-1/(1 - t2)) rounds above -1; the
    # support rule is taken on the gap itself, so the losing class of the row
    # has exactly the mass exp_t gives its edge, 0, and no gradient
    edge = -1.0 / (1.0 - t2)
    res = log_partition_rows(np.array([[0.0, edge]]), t2)
    assert res.P[0, 1] == 0.0 == exp_t(edge, t2)
    assert res.powered[0, 1] == 0.0
    _, dA = activation_terms(np.array([[0.0, edge], [0.0, edge]]), np.array([1, 2]), (0.5, t2))
    assert (dA == 0.0).all()


@pytest.mark.parametrize("t2", [0.01, 0.1])
def test_near_tied_rows_stop_at_the_float_floor(t2):
    # at 3000 near-tied classes the t2 < 1 iterates end up alternating between
    # two adjacent floats, neither within RESIDUAL_TOL; such a row stops there
    a = np.random.default_rng(0).normal(0.0, 1e-3, (20, 3000))
    res = log_partition_rows(a, t2)
    assert (res.iterations > partition._FLOOR_AFTER).any()
    assert res.iterations.max() == partition._FLOOR_AFTER + 1
    assert np.max(res.residual) <= 1.5e-13
    assert np.isfinite(res.G).all()


def test_no_floating_point_warnings():
    # classes off the t2 < 1 support, all-tied rows and +-1e4 activations:
    # none of them may make the fused pass raise a RuntimeWarning, in the
    # calling thread or in the blocks of a large input
    rng = np.random.default_rng(37)
    a = np.concatenate([rng.uniform(-50.0, 50.0, size=(100, 5)), np.zeros((3, 5))])
    a[0] = [0.0, -1e4, -1e4, 1e4, 1e4]
    y = rng.integers(1, 6, size=a.shape[0])
    blocked = np.tile(a, (3 * partition.BLOCK_ELEMENTS // a.size + 1, 1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for t2 in (0.01, 0.2, 0.6, 0.9999, 1.0, 1.6, 1.99):
            log_partition_rows(a, t2)
            log_partition_rows(blocked, t2)
            margin_derivatives(np.linspace(-1e4, 1e4, 41), t2)
            activation_terms(a, y, (0.6, t2))


TABLE_T2 = [0.01, 0.3, 0.6, 0.999, 1.0 - 2 * T_SWITCH, 1.0 + 2 * T_SWITCH, 1.3, 1.6, 1.9, 1.99]


def _two_class_rows(t2):
    """Shifted two-class rows [0, -d]: gaps on a dense grid over [0, 5], at
    10**U(-12, 12), and at the t2 < 1 support edge and its float neighbours."""
    rng = np.random.default_rng(5)
    d = np.concatenate([np.linspace(0.0, 5.0, 2001), 10.0 ** rng.uniform(-12.0, 12.0, 2000)])
    if t2 < 1.0:
        edge = 1.0 / (1.0 - t2)
        d = np.append(d, [np.nextafter(edge, 0.0), edge, np.nextafter(edge, np.inf)])
    return np.stack([np.zeros_like(d), -d], axis=1)


def _cold_solve(a, t2):
    """The solve with every row started at g = 0."""
    n, c = a.shape
    out = partition.PartitionRows(np.empty(n), np.empty(n), np.zeros(n, dtype=np.int64),
                                  np.empty((n, c)), np.empty((n, c)))
    partition._solve_rows(a, t2, -log_t(1.0 / c, t2), out)
    return out


@pytest.mark.parametrize("t2", TABLE_T2)
def test_two_class_rows_start_at_their_tabulated_root(t2):
    a = _two_class_rows(t2)
    table = partition._binary_table(t2, -log_t(0.5, t2))
    cold = _cold_solve(a, t2)
    assert np.max(np.abs(partition._binary_start(a, t2, table) - cold.G)) <= 1e-5
    warm = log_partition_rows(a, t2)
    # 3 is the most any of these rows takes from g = 0
    assert cold.iterations.max() <= 3 and warm.iterations.max() <= 3
    assert warm.iterations.mean() < cold.iterations.mean()
    assert np.max(warm.residual) <= RESIDUAL_TOL
    np.testing.assert_allclose(warm.G, cold.G, rtol=0.0, atol=1e-12)


def test_two_class_start_is_total(monkeypatch):
    # a rejected trial step's activations can reach +-inf: the gap is then
    # infinite or NaN, and the row must still start inside its bracket
    starts = []
    start = partition._binary_start

    def record(*args):
        starts.append(start(*args))
        return starts[-1]

    monkeypatch.setattr(partition, "_binary_start", record)
    a = np.array([[1e308, -1e308], [-np.inf, 0.0], [np.inf, 0.0], [np.inf, np.inf],
                  [np.nan, 0.0], [1.0, 1.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for t2 in (0.01, 0.6, 1.6, 1.99):
            log_partition_rows(a, t2)
            g = starts.pop()
            assert ((0.0 <= g) & (g <= -log_t(0.5, t2) * (1.0 + 1e-12))).all()


def test_start_tables_stay_bounded():
    # as many distinct t2 as the kernel property test draws
    for t2 in np.linspace(0.01, 1.99, 150):
        log_partition_rows(np.array([[0.0, -1.0]]), float(t2))
        log_partition_rows(np.array([[0.0, -1.0, -2.0]]), float(t2))
    info = partition._bracket.cache_info()
    assert info.currsize <= info.maxsize == partition._BRACKETS


def _blocked_input(c=10):
    """3 blocks of rows at mixed scales, with all-tied rows and +-1e4 rows."""
    rng = np.random.default_rng(41)
    n = 3 * partition.BLOCK_ELEMENTS // c + 7
    a = rng.standard_normal((n, c)) * rng.choice([1e-3, 1.0, 30.0], size=(n, 1))
    a[::50] = 0.0
    a[7::50] = rng.choice([-1e4, 1e4], size=a[7::50].shape)
    return a


def _assert_same_bytes(got, want):
    for x, y in zip(got, want):
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes()


# two columns: the rows start at the tabulated root
@pytest.mark.parametrize("c", [10, 2])
@pytest.mark.parametrize("t2", [0.2, 0.6, 1.0, 1.6, 1.99])
def test_blocked_solve_is_byte_identical(monkeypatch, t2, c):
    a = _blocked_input(c)
    blocked = log_partition_rows(a, t2)
    assert (blocked.P is blocked.powered) == (t2 == 1.0)
    with monkeypatch.context() as m:
        m.setattr(partition, "BLOCK_ELEMENTS", a.size)
        _assert_same_bytes(blocked, log_partition_rows(a, t2))
    with monkeypatch.context() as m:
        m.setattr(partition, "_executor", lambda: (None, 0))
        _assert_same_bytes(blocked, log_partition_rows(a, t2))
    with ThreadPoolExecutor(3) as pool, monkeypatch.context() as m:
        m.setattr(partition, "_executor", lambda: (pool, 3))
        _assert_same_bytes(blocked, log_partition_rows(a, t2))


@pytest.mark.parametrize("c", [4, 2])
def test_blocked_solve_under_thread_switching(monkeypatch, c):
    # more workers than cores and a thread switch every microsecond: a block
    # solved twice or lost would change the bytes (lost rows stay unwritten)
    a = _blocked_input()[:4000, :c]
    want = log_partition_rows(a, 1.6)
    monkeypatch.setattr(partition, "BLOCK_ELEMENTS", 64)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(8) as pool:
            monkeypatch.setattr(partition, "_executor", lambda: (pool, 8))
            for _ in range(5):
                _assert_same_bytes(log_partition_rows(a, 1.6), want)
    finally:
        sys.setswitchinterval(interval)


def test_iteration_cap_raises_from_any_block(monkeypatch):
    a = _blocked_input()
    monkeypatch.setattr(partition, "MAX_ITERATIONS", 1)
    with pytest.raises(RuntimeError, match="within 1 iterations"):
        log_partition_rows(a, 1.6)
    # a block that fails on a worker thread fails the call; the pool stays usable
    solve = partition._solve_rows

    def fail_off_main(*args):
        if threading.current_thread() is threading.main_thread():
            time.sleep(0.05)  # leave blocks for the workers
            return solve(*args)
        raise RuntimeError("block failed on a worker")

    monkeypatch.undo()
    with ThreadPoolExecutor(2) as pool:
        monkeypatch.setattr(partition, "_executor", lambda: (pool, 2))
        monkeypatch.setattr(partition, "_solve_rows", fail_off_main)
        with pytest.raises(RuntimeError, match="block failed on a worker"):
            log_partition_rows(a, 1.6)
        monkeypatch.setattr(partition, "_solve_rows", solve)
        assert np.max(log_partition_rows(a, 1.6).residual) <= RESIDUAL_TOL


def test_public_functions_run_on_the_calling_thread_only(monkeypatch):
    # perfbench's tracer wraps these names and keeps one span stack, which a
    # call from a worker thread would corrupt
    callers = []
    for name in ("log_t", "log_partition_rows", "tempered_probs_rows", "escort_rows"):
        original = getattr(partition, name)

        def record(*args, _original=original, **kwargs):
            callers.append(threading.current_thread())
            return _original(*args, **kwargs)

        monkeypatch.setattr(partition, name, record)
    with ThreadPoolExecutor(3) as pool:
        monkeypatch.setattr(partition, "_executor", lambda: (pool, 3))
        for t2 in (0.6, 1.0, 1.6):
            partition.log_partition_rows(_blocked_input(), t2)
    assert callers and all(t is threading.main_thread() for t in callers)


def _digest(rows):
    return hashlib.sha256(b"".join(x.tobytes() for x in rows)).hexdigest()


def test_forked_child_rebuilds_the_pool(monkeypatch):
    # the child inherits the parent's pool object but none of its threads:
    # work handed to it would never run
    a = _blocked_input()
    pool = ThreadPoolExecutor(2)
    pool.submit(int).result()
    monkeypatch.setattr(partition, "_pool", (os.getpid(), pool, 2))
    want = _digest(log_partition_rows(a, 1.6))
    recv, send = multiprocessing.Pipe(duplex=False)

    def child():
        send.send(_digest(log_partition_rows(a, 1.6)))

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)  # fork with live threads
        proc = multiprocessing.get_context("fork").Process(target=child)
        proc.start()
    try:
        assert recv.poll(60), "forked child did not finish the blocked solve"
        assert recv.recv() == want
        proc.join(60)
        assert not proc.is_alive() and proc.exitcode == 0
    finally:
        if proc.is_alive():
            proc.kill()
        pool.shutdown()


@pytest.mark.parametrize("A", [np.array([1.0, 2.0]), np.zeros((2, 0)), np.zeros((1, 1, 2))])
def test_log_partition_rows_refuses_anything_but_a_matrix_of_rows(A):
    with pytest.raises(ValueError, match=r"^A must have shape \(n, C\) with C >= 1, got \("):
        log_partition_rows(A, 1.5)
