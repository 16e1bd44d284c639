"""Tempered log-partition function G_t2 and derived quantities.

G_t2(a) is the scalar shift making the tempered class probabilities
exp_t2(a_c - G) sum to one. It has no closed form for t2 != 1 and is found by
Halley root finding, with bisection as the safeguard, on a bracket that always
contains the root. `log_partition_rows` is the one solver: each iteration is
one pass over the activations that also gives the probabilities P and the
escort weights P**t2, and it returns those of its last pass alongside G
(`PartitionRows`), so the loss gradient needs no second pass. Also provided:
tempered probabilities, escort distributions, and the first and second
derivatives of G along the binary margin parameterization [a/2, -a/2].

No row's root depends on another row's. An input of at least
2 * BLOCK_ELEMENTS rows x classes entries is cut into balanced, contiguous
blocks of rows, each solved into its own slice of the outputs. The blocks
run on a thread pool, built on first use with one thread per core in the
process's CPU affinity less one, and on the calling thread, which takes
blocks from the same queue; numpy releases the GIL inside its loops, so
the cores work at once. The bytes of every output do not depend on the
blocks or the core count: under `taskset -c 0` there is no pool and the
caller solves every block, to the same bytes. Smaller inputs are one
block, solved in the calling thread.
"""

from __future__ import annotations

import contextvars
import os
import queue
from concurrent import futures
from typing import NamedTuple

import numpy as np

from .tempered import T_SWITCH, log_t, validate_temperature

__all__ = [
    "PartitionResult",
    "PartitionRows",
    "log_partition",
    "log_partition_rows",
    "tempered_probs",
    "tempered_probs_rows",
    "escort",
    "margin_derivatives",
]

# Absolute tolerance on the normalization residual |sum_c exp_t2(a_c - G) - 1|.
RESIDUAL_TOL = 1e-13
MAX_ITERATIONS = 200
# Drop converged rows from the pass once at most this share still iterates.
_COMPACT_BELOW = 0.5
# Least rows x classes entries in one block of the parallel solve. Smaller
# blocks lose to per-pass overhead and GIL hand-offs, larger ones cost memory
# per thread; 65536 was the fastest of 16384 to 262144 on a 50000 x 10 fit.
BLOCK_ELEMENTS = 65536

# (id of the process that built it, pool, worker threads): see _executor.
_pool: tuple = (None, None, 0)


class PartitionResult(NamedTuple):
    """Root-finding outcome: normalizer value, achieved residual, iteration count."""

    G: float
    residual: float
    iterations: int


def _validate_activations(a) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim != 1 or a.size < 2:
        raise ValueError("activation vector must be 1-d with at least 2 classes")
    if not np.isfinite(a).all():
        raise ValueError("activation vector must be finite")
    return a


class PartitionRows(NamedTuple):
    """Row-wise normalizer solution and the probabilities of its last pass."""

    G: np.ndarray  # normalizer per row
    residual: np.ndarray  # |sum_c P - 1| per row
    iterations: np.ndarray  # Halley or bisection steps per row
    P: np.ndarray  # tempered probabilities exp_t2(a_c - G)
    powered: np.ndarray  # P**t2, the unnormalized escort


def log_partition_rows(A: np.ndarray, t2: float) -> PartitionRows:
    """Solve the normalizer for every row of A at once.

    Returns PartitionRows(G, residual, iterations, P, powered), arrays over
    the N rows: the normalizer, |sum_c P - 1|, the steps taken, and the
    N x C probabilities P = exp_t2(a - G) and escort weights powered = P**t2,
    both from the pass at the returned G. Inside |1 - t2| < T_SWITCH, t2 is
    taken as 1: closed form, zero iterations, and powered is P itself.

    Rows are pre-shifted by their max so exp_t2 arguments stay in [-inf, 0];
    the root is bracketed in [max_c a_c, max_c a_c - log_t2(1/C)] where the
    residual f(g) = sum_c exp_t2(b_c - g) - 1 changes sign. One pass gives
    p = exp_t2(b - g) together with u = 1 + (1-t2)(b - g); on the support
    p^t2 = p/u, so f' = -sum p/u and f'' = t2 sum p/u^2 cost two divisions.
    The step is Halley's, g - (f/f')/(1 - f f''/(2 f'^2)), replaced by
    bisection of the bracket where it is not finite or leaves the bracket.

    Inputs of at least 2 * BLOCK_ELEMENTS entries are cut into contiguous
    blocks of rows, solved on the worker pool and the calling thread at
    once (see _solve_blocks). Every row is solved on its own, so the output
    bytes do not depend on the blocks or the number of cores.
    Assumes finite input; callers validate.
    """
    validate_temperature(t2)
    A = np.asarray(A, dtype=float)
    n, c = A.shape
    closed = abs(1.0 - t2) < T_SWITCH
    # The upper end of the bracket is found here, in the calling thread: the
    # blocks may run on other threads and call no public function.
    top = 0.0 if closed else -log_t(1.0 / c, t2)
    P = np.empty((n, c))
    out = PartitionRows(
        np.empty(n), np.empty(n), np.zeros(n, dtype=np.int64), P, P if closed else np.empty((n, c))
    )
    blocks = (n * c) // BLOCK_ELEMENTS
    if blocks < 2:
        _solve_rows(A, t2, top, out)
    else:
        edges = [n * i // blocks for i in range(blocks + 1)]
        _solve_blocks(
            [(A[lo:hi], t2, top, PartitionRows(*(x[lo:hi] for x in out)))
             for lo, hi in zip(edges, edges[1:])]
        )
    return out


def _solve_rows(A: np.ndarray, t2: float, top: float, out: PartitionRows) -> None:
    """log_partition_rows on the rows of A, written into the rows of out.

    top = -log_t2(1/C) is the upper end of the shifted bracket. Runs on any
    thread: it calls numpy and private helpers only.
    """
    n = A.shape[0]
    G, res, iters, P, powered = out
    m = _row_max(A)
    # A trial step's activations may reach +/-inf: inf - inf is NaN and a
    # huge gap overflows to -inf, values the rejected trial already handles.
    with np.errstate(over="ignore", invalid="ignore"):
        B = A - m[:, None]

    if abs(1.0 - t2) < T_SWITCH:
        # Closed form: shifted log-sum-exp; powered is P.
        g = np.log(row_sum(np.exp(B)))
        np.exp(np.subtract(B, g[:, None], out=P), out=P)
        np.abs(row_sum(P) - 1.0, out=res)
        np.add(g, m, out=G)
        return

    k = 1.0 - t2
    # Rows of the pass, B[sel], with their iterate g and bracket [lo, hi].
    sel, Bs = np.arange(n), B
    g, lo = np.zeros(n), np.zeros(n)
    # The upper end is the root itself when all C activations tie; widen it
    # by a relative 1e-12 so a step landing on that root to within rounding
    # is not taken for one leaving the bracket.
    hi = np.full(n, top * (1.0 + 1e-12))
    it = 0
    while True:
        # While every row is in the pass, p and p/u go straight into P and
        # powered; after that the rows of the pass are scattered there.
        full = sel.size == n
        # p = exp_t2(Bs - g), evaluated as tempered.exp_t evaluates it
        kx = np.subtract(Bs, g[:, None], out=P if full else None)
        kx *= k
        if k > 0.0:
            # Off the t2 < 1 support (kx <= -1) p is 0: evaluate those entries
            # at kx = 0 and zero them after, which keeps the slow special
            # cases log1p(-1) = -inf and exp(-inf) out of the pass.
            on = kx > -1.0
            with np.errstate(invalid="ignore"):  # -inf * 0 from an overflowed trial
                kx *= on
        u = kx + 1.0
        p = np.log1p(kx, out=kx)
        p /= k
        np.exp(p, out=p)
        if k > 0.0:
            p *= on
        pw = np.divide(p, u, out=powered if full else None)
        f = row_sum(p) - 1.0
        if full:
            np.abs(f, out=res)
        else:
            P[sel], powered[sel], res[sel] = p, pw, np.abs(f)
        active = np.abs(f) > RESIDUAL_TOL
        if not active.any():
            G[sel] = g
            G += m
            return
        if it == MAX_ITERATIONS:
            raise RuntimeError(
                "normalizer root finding failed to reach tolerance "
                f"{RESIDUAL_TOL} within {MAX_ITERATIONS} iterations"
            )
        it += 1
        fprime = -row_sum(pw)
        fsecond = t2 * row_sum(np.divide(pw, u, out=u))
        # g lies in [lo, hi] and the residual decreases in g: tighten the bracket.
        lo = np.where(f > 0.0, g, lo)
        hi = np.where(f < 0.0, g, hi)
        newton = f / fprime
        step = g - newton / (1.0 - 0.5 * newton * fsecond / fprime)
        outside = ~np.isfinite(step) | (step < lo) | (step > hi)
        step = np.where(outside, 0.5 * (lo + hi), step)
        g = np.where(active, step, g)
        iters[sel[active]] = it
        # Converged rows stay in the pass, at their fixed g, until dropping
        # them saves more than gathering and scattering the rest costs.
        if active.sum() <= _COMPACT_BELOW * sel.size:
            G[sel] = g
            sel, g, lo, hi = sel[active], g[active], lo[active], hi[active]
            Bs = B.take(sel, axis=0)


def _solve_blocks(blocks: list) -> None:
    """Run _solve_rows on every argument tuple in blocks, on all cores.

    The pool's workers and the calling thread take blocks from one queue
    until it is empty; the caller then waits for the workers and re-raises
    the first error of any block. Each worker runs in a copy of the caller's
    context, so numpy's errstate there is the caller's.
    """
    todo = queue.SimpleQueue()
    for block in blocks:
        todo.put(block)
    pool, workers = _executor()
    helpers = [
        pool.submit(contextvars.copy_context().run, _drain, todo)
        for _ in range(min(workers, len(blocks) - 1))
    ]
    try:
        _drain(todo)
    finally:
        futures.wait(helpers)
    for helper in helpers:
        helper.result()


def _drain(todo: queue.SimpleQueue) -> None:
    while True:
        try:
            block = todo.get_nowait()
        except queue.Empty:
            return
        _solve_rows(*block)


def _executor() -> tuple[futures.ThreadPoolExecutor | None, int]:
    """The process's worker pool and its thread count: one thread per core
    this process may run on, less the calling thread; no pool on one core.

    Built on first use, and again in a forked child, whose copy of the
    parent's pool has no threads behind it. Two threads that race here may
    both build one; the pool left unreferenced shuts down when collected.
    """
    global _pool
    if _pool[0] != os.getpid():
        try:
            workers = len(os.sched_getaffinity(0)) - 1
        except AttributeError:  # no affinity mask on this platform
            workers = (os.cpu_count() or 1) - 1
        pool = futures.ThreadPoolExecutor(workers, "ttlr-partition") if workers else None
        _pool = (os.getpid(), pool, workers)
    return _pool[1:]


def row_sum(X: np.ndarray) -> np.ndarray:
    """Sum over each row of a 2-d array, for the batched paths.

    Unlike X.sum(axis=1) it is fast on short rows, and unlike X @ ones it
    gives a row the same bits whichever batch the row comes in.
    """
    return np.einsum("ij->i", X)


def _row_max(A: np.ndarray) -> np.ndarray:
    """Max over each row, as C column passes: faster than A.max(axis=1) on short rows."""
    m = A[:, 0].copy()
    for j in range(1, A.shape[1]):
        np.maximum(m, A[:, j], out=m)
    return m


def log_partition(a, t2: float) -> PartitionResult:
    """Normalizer G with sum_c exp_t2(a_c - G) = 1 for one activation vector."""
    a = _validate_activations(a)
    g, res, iters, _, _ = log_partition_rows(a[None, :], t2)
    return PartitionResult(float(g[0]), float(res[0]), int(iters[0]))


def tempered_probs_rows(A: np.ndarray, t2: float) -> np.ndarray:
    """Row-wise tempered probabilities exp_t2(a_c - G); assumes finite input."""
    return log_partition_rows(A, t2).P


def tempered_probs(a, t2: float) -> np.ndarray:
    """Probability vector exp_t2(a_c - G_t2(a)).

    Entries are exact zeros where the t2 < 1 clamp is active; strictly
    positive everywhere for t2 > 1 (heavy tail). Equals softmax(a) at t2 = 1.
    """
    a = _validate_activations(a)
    return tempered_probs_rows(a[None, :], t2)[0]


def escort(p, t2: float) -> np.ndarray:
    """Escort distribution q_c = p_c^t2 / sum_j p_j^t2.

    Preserves the argmax and equals p at t2 = 1. This is the gradient of
    G_t2 with respect to the activation vector, evaluated at p = probs(a).
    """
    validate_temperature(t2)
    p = np.asarray(p, dtype=float)
    if p.ndim != 1 or p.size == 0:
        raise ValueError("p must be a nonempty 1-d vector")
    if np.any(p < 0.0) or not np.isfinite(p).all():
        raise ValueError("p must be entrywise finite and >= 0")
    with np.errstate(invalid="ignore"):
        q = escort_rows(p[None, :], t2)[0]
    if not np.isfinite(q).all():
        raise ValueError("escort is undefined: sum_c p_c^t2 is 0 or not finite")
    return q


def escort_rows(P: np.ndarray, t2: float) -> np.ndarray:
    """Row-wise escort of probability rows P, without validation."""
    powered = np.power(P, t2)
    return powered / row_sum(powered)[:, None]


def margin_derivatives(a, t2: float):
    """Class +1 probability, dG/da and d2G/da2 along [a/2, -a/2].

    Takes an array of margins. dG/da is the escort mean of c/2, inside
    [-1/2, 1/2], and equals tanh(a/2)/2 at t2 = 1. d2G/da2 is the
    t2-weighted escort variance of c/2, >= 0; classes with exactly zero
    probability contribute nothing, so inside the t2 < 1 plateau (all mass on
    one class) it is exactly 0.
    """
    a = np.atleast_1d(np.asarray(a, dtype=float))
    A = np.stack([0.5 * a, -0.5 * a], axis=1)
    _, _, _, P, powered = log_partition_rows(A, t2)
    S = row_sum(powered)
    d1 = 0.5 * (powered[:, 0] - powered[:, 1]) / S
    # P**(2 t2 - 1) = P**t2 * P**(t2 - 1), exactly P at t2 = 1
    weights = np.zeros_like(P)
    pos = P > 0.0
    weights[pos] = powered[pos] * (powered[pos] / P[pos])
    c_half = np.array([0.5, -0.5])
    d2 = t2 * row_sum(weights * (c_half[None, :] - d1[:, None]) ** 2) / S
    return P[:, 0], d1, d2
