"""Tempered log-partition function G_t2 and derived quantities.

G_t2(a) is the scalar shift making the tempered class probabilities
exp_t2(a_c - G) sum to one. It has no closed form for t2 != 1 and is found by
Halley root finding, with bisection as the safeguard, on a bracket that always
contains the root. `log_partition_rows` is the one solver: each iteration is
one pass over the activations that also gives the probabilities P and the
escort weights P**t2, and it returns those of its last pass alongside G
(`PartitionRows`), so the loss gradient needs no second pass. Also provided:
tempered probabilities and escort distributions.

A two-class row's shifted root depends on one number, its gap d = max - min,
so two-class rows start Halley at a tabulated root g(d) in place of g = 0:
one cold solve over _TABLE_NODES gaps per t2. It is built on first use (not
at import) in the calling thread, together with the bracket's upper end,
and kept for the last _BRACKETS (C, t2) pairs. Rows with more than two
classes start at g = 0.

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
import functools
import os
import queue
from concurrent import futures
from typing import NamedTuple

import numpy as np

from .tempered import T_SWITCH, check, check_vector, exp_t_terms, log_t, validate_temperature

__all__ = [
    "PartitionResult",
    "PartitionRows",
    "log_partition",
    "log_partition_rows",
    "tempered_probs",
    "tempered_probs_rows",
    "escort",
]

# Absolute tolerance on the normalization residual |sum_c exp_t2(a_c - G) - 1|.
RESIDUAL_TOL = 1e-13
MAX_ITERATIONS = 200
# Iterations after which a row also stops at the float floor (see _solve_rows);
# a row that reaches the tolerance sooner never pays for that test.
_FLOOR_AFTER = 8
# Drop converged rows from the pass once at most this share still iterates.
_COMPACT_BELOW = 0.5
# Least rows x classes entries in one block of the parallel solve. Smaller
# blocks lose to per-pass overhead and GIL hand-offs, larger ones cost memory
# per thread; 65536 was the fastest of 16384 to 262144 on a 50000 x 10 fit.
BLOCK_ELEMENTS = 65536
# Nodes of a two-class start table (see _binary_table): 4096 nodes start
# every row within about 3e-6 of its root. The (C, t2) pairs whose bracket
# end, and at C = 2 start table, are kept at once: see _bracket.
_TABLE_NODES = 4096
_BRACKETS = 32

# (id of the process that built it, pool, worker threads): see _executor.
_pool: tuple = (None, None, 0)


class PartitionResult(NamedTuple):
    """Root-finding outcome: normalizer value, achieved residual, iteration count."""

    G: float
    residual: float
    iterations: int


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
    residual f(g) = sum_c exp_t2(b_c - g) - 1 changes sign. A two-class row
    starts at the root tabulated for its gap (see _binary_table), any other
    row at g = 0; the bracket and its safeguards are the same. A pass is one
    exp_t_terms call: p = exp_t2(b - g) and u = 1 + (1-t2)(b - g). On the
    support p^t2 = p/u, so f' = -sum p/u and f'' = t2 sum p/u^2: two divisions.
    The step is Halley's, g - (f/f')/(1 - f f''/(2 f'^2)), replaced by
    bisection of the bracket where it is not finite or leaves the bracket.
    Off the t2 < 1 support, b - g <= -1/(1-t2), P and powered are exactly 0.

    A row stops once |f| <= RESIDUAL_TOL, or, after _FLOOR_AFTER steps, at
    the float floor: its step returns g, or no float lies strictly inside
    its bracket. It then reports the residual it reached there.
    MAX_ITERATIONS stays as a guard: a row still iterating after that many
    steps raises RuntimeError.

    Inputs of at least 2 * BLOCK_ELEMENTS entries are cut into contiguous
    blocks of rows, solved on the worker pool and the calling thread at
    once (see _solve_blocks). Every row is solved on its own, so the output
    bytes do not depend on the blocks or the number of cores.
    A must have shape (n, C), C >= 1; assumes finite input, callers validate.
    """
    validate_temperature(t2)
    A = np.asarray(A, dtype=float)
    check(A.ndim == 2 and A.shape[1] >= 1, "A", "have shape (n, C) with C >= 1", A.shape)
    n, c = A.shape
    closed = abs(1.0 - t2) < T_SWITCH
    # Found here, in the calling thread: the blocks may run on other threads
    # and call no public function.
    top, table = (0.0, None) if closed else _bracket(c, t2)
    P = np.empty((n, c))
    out = PartitionRows(
        np.empty(n), np.empty(n), np.zeros(n, dtype=np.int64), P, P if closed else np.empty((n, c))
    )
    blocks = (n * c) // BLOCK_ELEMENTS
    if blocks < 2:
        _solve_rows(A, t2, top, out, table)
    else:
        edges = [n * i // blocks for i in range(blocks + 1)]
        _solve_blocks(
            [(A[lo:hi], t2, top, PartitionRows(*(x[lo:hi] for x in out)), table)
             for lo, hi in zip(edges, edges[1:])]
        )
    return out


def _solve_rows(
    A: np.ndarray, t2: float, top: float, out: PartitionRows, table: tuple | None = None
) -> None:
    """log_partition_rows on the rows of A, written into the rows of out.

    top = -log_t2(1/C) is the upper end of the shifted bracket. With a
    two-class start table each row starts at its tabulated root, else at
    g = 0. Runs on any thread: it calls numpy and unexported helpers only.
    """
    n = A.shape[0]
    G, res, iters, P, powered = out
    m = _row_max(A)
    # Extreme finite activations, such as +/-1e308 in one row, overflow a
    # gap to -inf, and the two-class start then takes inf / inf.
    with np.errstate(over="ignore", invalid="ignore"):
        B = A - m[:, None]
        if t2 < 1.0:
            # exp_t_terms zeroes off-support entries by multiplying them by
            # 0, which turns a -inf gap into NaN; the most negative float is
            # as far off the support.
            np.maximum(B, -np.finfo(float).max, out=B)
        g = np.zeros(n) if table is None else _binary_start(B, t2, table)

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
    lo = np.zeros(n)
    # The upper end is the root itself when all C activations tie; widen it
    # by a relative 1e-12 so a step landing on that root to within rounding
    # is not taken for one leaving the bracket.
    hi = np.full(n, top * (1.0 + 1e-12))
    # Rows whose last step found no float that moves them closer to the root.
    floored = np.zeros(n, dtype=bool)
    it = 0
    while True:
        # While every row is in the pass, p and p/u go straight into P and
        # powered; after that the rows of the pass are scattered there.
        full = sel.size == n
        p, u = exp_t_terms(np.subtract(Bs, g[:, None], out=P if full else None), k)
        pw = np.divide(p, u, out=powered if full else None)
        f = row_sum(p) - 1.0
        if full:
            np.abs(f, out=res)
        else:
            P[sel], powered[sel], res[sel] = p, pw, np.abs(f)
        active = (np.abs(f) > RESIDUAL_TOL) & ~floored
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
        if it > _FLOOR_AFTER:
            # The float floor: the step returns g, or no float lies strictly
            # inside the bracket, so any step only swaps g for a bracket end.
            # The row takes this step and stops after the pass at it.
            floored |= active & ((step == g) | (np.nextafter(lo, hi) >= hi))
        g = np.where(active, step, g)
        iters[sel[active]] = it
        # Converged rows stay in the pass, at their fixed g, until dropping
        # them saves more than gathering and scattering the rest costs.
        if active.sum() <= _COMPACT_BELOW * sel.size:
            G[sel] = g
            sel, g, lo, hi = sel[active], g[active], lo[active], hi[active]
            floored = floored[active]
            Bs = B.take(sel, axis=0)


@functools.lru_cache(maxsize=_BRACKETS)
def _bracket(c: int, t2: float) -> tuple:
    """(top, table) for C classes at t2, not within T_SWITCH of 1.

    top = -log_t2(1/C) is the upper end of the shifted bracket; table is
    the two-class start table at C = 2 (see _binary_table), else None.
    """
    top = -log_t(1.0 / c, t2)
    return top, _binary_table(t2, top) if c == 2 else None


def _binary_table(t2: float, top: float) -> tuple:
    """Start table for two-class rows at t2 (not within T_SWITCH of 1).

    A shifted two-class row is [0, -d], so its root g(d) depends on the gap
    d >= 0 alone; g(0) = top, and g falls to exactly 0 at the end of the
    grid: the t2 < 1 support edge d = 1/(1 - t2), beyond which the losing
    class has no mass, or d = inf for t2 > 1. The grid is uniform in
    s = d/(1 + d) and puts its last node on that end, so the kink of g at
    the support edge is a node. Its _TABLE_NODES - 1 finite nodes are one
    cold _solve_rows call. Returns (scale, base, slope, edge): a row at
    x = scale * s starts at base[i] + (x - i) * slope[i], i = floor(x), and
    for t2 > 1 a row past the last finite node, at d > edge, starts at
    exp_t2(-d), its root to within about g**2 (see _binary_start).
    """
    last = _TABLE_NODES - 1
    s_end = 1.0 / (2.0 - t2) if t2 < 1.0 else 1.0
    s = np.linspace(0.0, s_end, _TABLE_NODES)[:last]
    d = s / (1.0 - s)
    out = PartitionRows(np.empty(last), np.empty(last), np.zeros(last, dtype=np.int64),
                        np.empty((last, 2)), np.empty((last, 2)))
    _solve_rows(np.stack([np.zeros(last), -d], axis=1), t2, top, out)
    base = np.append(out.G, 0.0)
    # the entry past the end is 0 too, where clamped rows read it
    slope = np.append(np.diff(base), 0.0)
    return last / s_end, base, slope, d[-1]


def _binary_start(B: np.ndarray, t2: float, table: tuple) -> np.ndarray:
    """Tabulated start g for shifted two-class rows B (see _binary_table).

    Index arithmetic on the uniform grid: np.interp costs about 15x more on
    unsorted gaps. Total: a NaN gap, or the infinite one of extreme finite
    activations, reads past the end of the grid and starts at 0, inside the
    bracket; the caller holds errstate for inf / inf.
    """
    scale, base, slope, edge = table
    d = np.abs(B[:, 0] + B[:, 1])  # one entry of a shifted row is 0
    x = d / (1.0 + d)
    x *= scale
    np.fmin(x, base.size - 1, out=x)  # fmin takes the bound over NaN
    i = x.astype(np.intp)
    x -= i
    g = slope.take(i)
    g *= x
    g += base.take(i)
    if t2 > 1.0:
        # exp_t2(-g) + exp_t2(-d - g) = 1 with exp_t2(-g) = 1 - g + O(g**2)
        # gives g = exp_t2(-d) + O(g**2) far out in the heavy tail.
        tail = d > edge
        if tail.any():
            g[tail] = exp_t_terms(-d[tail], 1.0 - t2)[0]
    return g


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
    gives a row the same bits whichever batch the row comes in. Two columns
    are added directly, which skips einsum's per-call setup and gives the
    same values: only the sign of an exact zero sum can differ.
    """
    if X.shape[1] == 2:
        return X[:, 0] + X[:, 1]
    return np.einsum("ij->i", X)


def _row_max(A: np.ndarray) -> np.ndarray:
    """Max over each row, as C column passes: faster than A.max(axis=1) on short rows."""
    m = A[:, 0].copy()
    for j in range(1, A.shape[1]):
        np.maximum(m, A[:, j], out=m)
    return m


def log_partition(a, t2: float) -> PartitionResult:
    """Normalizer G with sum_c exp_t2(a_c - G) = 1 for one activation vector."""
    a = check_vector(a, "activations", 2)
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
    a = check_vector(a, "activations", 2)
    return tempered_probs_rows(a[None, :], t2)[0]


def escort(p, t2: float) -> np.ndarray:
    """Escort distribution q_c = p_c^t2 / sum_j p_j^t2.

    Preserves the argmax and equals p at t2 = 1. This is the gradient of
    G_t2 with respect to the activation vector, evaluated at p = probs(a).
    """
    t2 = validate_temperature(t2)
    p = check_vector(p, "p", low=0.0)
    with np.errstate(invalid="ignore"):
        q = escort_rows(p[None, :], t2)[0]
    if not np.isfinite(q).all():
        check(False, "p", f"give a finite, nonzero sum_c p_c^t2 at t2 = {t2:g}", p.tolist())
    return q


def escort_rows(P: np.ndarray, t2: float) -> np.ndarray:
    """Row-wise escort of probability rows P, without validation."""
    powered = np.power(P, t2)
    return powered / row_sum(powered)[:, None]
