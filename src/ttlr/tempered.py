"""Tempered logarithm/exponential kernels and discrete Tsallis information measures.

The temperature parameter t deforms ln/exp: log_t(x) = (x^(1-t) - 1)/(1-t) and
exp_t(x) = [1 + (1-t)x]_+^(1/(1-t)), with t = 1 recovering the standard pair.
For t < 1, log_t is bounded below by -1/(1-t); for t > 1 it is bounded above by
the same constant and exp_t has a heavy polynomial tail on the negative axis.
"""

from __future__ import annotations

import numbers

import numpy as np

__all__ = [
    "TEMPERATURE_RANGE",
    "validate_temperature",
    "validate_count",
    "validate_lambda",
    "log_t",
    "exp_t",
    "tsallis_entropy",
    "tsallis_divergence",
]

TEMPERATURE_RANGE = (0.0, 2.0)

# Below this distance from t=1 the deformation is numerically
# indistinguishable from ln/exp; dispatch to the standard functions.
T_SWITCH = 1e-6

# Tolerance for "sums to one" checks on probability-vector arguments.
NORMALIZATION_TOL = 1e-8


def check(ok: bool, name: str, rule: str, value) -> None:
    """Unless ok, the one form of a bad argument's error: "{name} must {rule}, got {value!r}".

    The rule carries its verb ("be an integer >= 0", "lie in [0, 0.5]"). Hot
    callers pass a constant rule, or build one only on failure.
    """
    if not ok:
        raise ValueError(f"{name} must {rule}, got {plain_number(value)!r}")


def check_entries(bad: np.ndarray, name: str, rule: str, values) -> None:
    """Unless bad is all False, the check error for values at its first True, as "x[1][0]"."""
    if bad.any():
        i = np.unravel_index(np.argmax(bad), bad.shape)
        check(False, name + "".join(f"[{k}]" for k in i), rule, values[i])


def validate_temperature(t) -> float:
    """t as a float if it is a real number strictly inside TEMPERATURE_RANGE, else an error.

    Checked by TemperaturePair and by every public kernel that takes a
    temperature. A string, a bool or None is refused, not converted.
    """
    lo, hi = TEMPERATURE_RANGE
    check(is_number(t) and lo < t < hi, "temperature", "lie strictly in (0, 2)", t)
    return float(t)


def validate_count(value, name: str, least: int | None = None, most: int | None = None) -> int:
    """value as an int (of at least `least`, at most `most`), else an error naming the setting.

    The one rule for every count and seed in the package. Integers and
    integer-valued floats pass; bools, fractions, NaN and non-numbers do not.
    """
    whole = isinstance(value, numbers.Integral) or (
        isinstance(value, float) and value.is_integer()
    )
    if isinstance(value, bool) or not whole or (least is not None and value < least):
        check(False, name, "be an integer" + ("" if least is None else f" >= {least}"), value)
    if most is not None and value > most:
        check(False, name, f"be at most {most}", value)
    return int(value)


def validate_lambda(lam) -> float:
    """The ridge weight as a float if it is a finite real number >= 0, else an error."""
    check(is_number(lam) and 0.0 <= lam < np.inf, "lambda", "be finite and >= 0", lam)
    return float(lam)


def is_number(value) -> bool:
    """A real number, numpy scalars included; a bool is not one."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def plain_number(value):
    """A numpy scalar as the Python number it holds, for messages: -1, not np.int64(-1)."""
    return value.item() if isinstance(value, np.generic) else value


def check_vector(v, name: str, least: int = 1, low: float = -np.inf) -> np.ndarray:
    """v as a 1-d float vector of at least `least` entries, each finite and >= low.

    The one vector rule. A wrong shape is named with the shape given, a bad
    entry with its index: "p[1] must be finite and >= 0, got -0.5".
    """
    v = np.asarray(v, dtype=float)
    if v.ndim != 1 or v.size < least:
        check(False, name, f"have shape (k,) with k >= {least}", v.shape)
    rule = "be finite" if low == -np.inf else f"be finite and >= {low:g}"
    check_entries(~(np.isfinite(v) & (v >= low)), name, rule, v)
    return v


def check_labels(y, c: int, n: int, name: str) -> np.ndarray:
    """y as an int64 vector of n labels, each an integer in [1, c], else an error.

    The one label rule; it names a wrong shape, or the first bad label by index.
    """
    y = np.asarray(y)
    if y.shape != (n,):
        check(False, name, f"have shape ({n},)", y.shape)
    if y.dtype.kind not in "iu":
        y = np.asarray(y, dtype=float)
    ok = (y >= 1) & (y <= c)
    if y.dtype.kind == "f":
        ok &= y == np.trunc(y)
    check_entries(~ok, name, f"be an integer in [1, {c}]", y)
    return y.astype(np.int64, copy=False)


def log_t(x, t: float):
    """Tempered logarithm (x^(1-t) - 1)/(1-t) of x >= 0, scalar or array.

    A negative entry is an error naming it; NaN passes. At x = 0 it is its
    limit: -1/(1-t) for t < 1 (expm1(-inf) is exactly -1), else -inf, also
    in |1 - t| < T_SWITCH, where it is ln. Evaluated as expm1((1-t) ln x)/(1-t)
    so the t -> 1 limit does not cancel.
    """
    t = validate_temperature(t)
    x = np.asarray(x, dtype=float)
    check_entries(x < 0.0, "x", "be >= 0", x)
    one_minus_t = 1.0 - t
    with np.errstate(divide="ignore"):
        out = np.log(x)
    if abs(one_minus_t) >= T_SWITCH:
        out = np.expm1(one_minus_t * out) / one_minus_t
    return out if out.ndim else float(out)


def exp_t(x, t: float):
    """Tempered exponential [1 + (1-t)x]_+^(1/(1-t)), the inverse of log_t.

    A view of exp_t_terms, np.exp within T_SWITCH of t = 1. Total: for t < 1
    exactly 0 at and below x = -1/(1-t), -inf included, so exp_t(log_t(0))
    = 0; for t > 1 +inf at and past that pole. NaN passes.
    """
    t = validate_temperature(t)
    x = np.array(x, dtype=float)  # a copy: the kernel writes over it
    k = 1.0 - t
    if abs(k) < T_SWITCH:
        out = np.exp(x)
    elif k > 0.0:  # the most negative float is as far off the support as -inf
        out = exp_t_terms(np.maximum(x, -np.finfo(float).max, out=x), k)[0]
    else:
        pole = x >= -1.0 / k
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.where(pole, np.inf, exp_t_terms(x, k)[0])
    return out if out.ndim else float(out)


def exp_t_terms(x: np.ndarray, k: float) -> tuple[np.ndarray, np.ndarray]:
    """(p, u) = (exp_t(x), 1 + kx) at t = 1 - k, |k| >= T_SWITCH; p overwrites the float array x.

    The one tempered exponential, run by exp_t, the normalizer's pass and its
    two-class tail start: p = exp(log1p(kx)/k), and p^t = p/u on the support.
    For k > 0, x <= -1/k (compared on x) gives p = 0 and u = 1: evaluated at
    kx = 0 and zeroed after, which keeps the slow log1p(-1) and exp(-inf) out
    of the loop (above that edge kx rounds above -1). Callers clamp a -inf
    x, which the zeroing turns into NaN, and keep x below the k < 0 pole.
    """
    if k > 0.0:
        on = x > -1.0 / k
        x *= on
    x *= k
    u = x + 1.0
    p = np.log1p(x, out=x)
    p /= k
    np.exp(p, out=p)
    if k > 0.0:
        p *= on
    return p, u


def check_distribution(p, name: str, least: int = 1) -> np.ndarray:
    """p as a vector of at least `least` entries, finite, >= 0 and summing to 1, else an error."""
    p = check_vector(p, name, least, low=0.0)
    total = float(p.sum())
    check(abs(total - 1.0) <= NORMALIZATION_TOL, name, "sum to 1", total)
    return p


def tsallis_entropy(p, t: float) -> float:
    """Sum_c p_c log_t(1/p_c) for a discrete distribution p.

    Zero-probability terms contribute exactly 0 (skipped, not computed via
    IEEE infinities). Reduces to Shannon entropy at t = 1.
    """
    t = validate_temperature(t)
    p = check_distribution(p, "p")
    live = p > 0.0
    pl = p[live]
    return float(np.sum(pl * log_t(1.0 / pl, t)))


def tsallis_divergence(p, q, t: float) -> float:
    """-Sum_c p_c log_t(q_c / p_c); reduces to KL divergence at t = 1.

    Terms with p_c = 0 contribute exactly 0. q_c = 0 against p_c > 0 gives
    the finite saturated value for t < 1 and +inf otherwise, as log_t(0) does.
    """
    t = validate_temperature(t)
    p = check_distribution(p, "p")
    q = check_distribution(q, "q")
    check(q.shape == p.shape, "q", f"have the shape of p, {p.shape}", q.shape)
    live = p > 0.0
    pl, ql = p[live], q[live]
    return float(-np.sum(pl * log_t(ql / pl, t)))
