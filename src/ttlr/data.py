"""Dataset ingestion, synthetic generation, and the noise injectors.

Feature rows live in an ndarray when every entry is stored and in a CSR sparse
matrix otherwise; labels are 1-based class indices with a recorded table
mapping them back to the original label values of the source file. All noise
injectors are deterministic given their seed and never change the number of
examples or the feature dimension.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .tempered import check, check_entries, check_labels, is_number, plain_number, validate_count

__all__ = [
    "Dataset",
    "NoiseSpec",
    "DataFormatError",
    "format_number",
    "parse_libsvm",
    "read_libsvm",
    "read_json",
    "serialize_libsvm",
    "synth_gaussians",
    "inject_outlier_noise",
    "inject_random_flip",
    "inject_margin_flip",
]


# The largest feature index parse_libsvm accepts (int32 CSR column indices).
MAX_FEATURE_INDEX = 2**31 - 1


class DataFormatError(ValueError):
    """Malformed input text; message carries the 1-based line number or the path."""


def check_finite(X, name: str) -> None:
    """check_entries' "X[3][1] must be finite" over the stored entries of a dense or CSR X."""
    if not sparse.issparse(X):
        return check_entries(~np.isfinite(X), name, "be finite", X)
    bad = ~np.isfinite(X.data)
    if bad.any():  # stored entry k lies in the row indptr places it in, at column indices[k]
        k = int(np.argmax(bad))
        row = int(np.searchsorted(X.indptr, k, side="right")) - 1
        check(False, f"{name}[{row}][{X.indices[k]}]", "be finite", X.data[k])


class _DenseFeatures(np.ndarray):
    """A fully stored feature matrix; as on CSR, nnz counts its stored entries."""

    @property
    def nnz(self) -> int:
        return self.size


@dataclass(frozen=True)
class Dataset:
    """Feature rows plus 1-based integer class labels.

    X is a 2-D float ndarray when every entry is stored (dense input, or CSR
    with nnz == n * dim) and a CSR array otherwise; callers never choose.
    X.nnz counts the stored entries under both storages. Each is finite, or
    an error names it ("Dataset X[3][1] must be finite, got nan").
    label_table[k-1] is the original label value for class k; when none is
    given (synthetic data) it is the identity table (1.0, 2.0, ...).
    """

    X: np.ndarray | sparse.csr_array
    y: np.ndarray
    num_classes: int
    label_table: tuple = ()

    def __post_init__(self):
        X = self.X
        X = sparse.csr_array(X) if sparse.issparse(X) else np.asarray(X, dtype=float)
        check(X.ndim == 2, "Dataset X", "have shape (n, dim)", X.shape)
        check_finite(X, "Dataset X")
        if sparse.issparse(X) and X.nnz == X.shape[0] * X.shape[1]:
            X = X.toarray()
        if not sparse.issparse(X):
            X = X.view(_DenseFeatures)
        object.__setattr__(self, "X", X)
        c = validate_count(self.num_classes, "Dataset num_classes", 1)
        object.__setattr__(self, "num_classes", c)
        object.__setattr__(self, "y", check_labels(self.y, c, X.shape[0], "Dataset y"))
        if not self.label_table:
            object.__setattr__(self, "label_table", tuple(float(k) for k in range(1, c + 1)))
        if len(self.label_table) != c:
            check(False, "Dataset label_table", f"have {c} entries", self.label_table)

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def dim(self) -> int:
        return self.X.shape[1]

    def signed_labels(self) -> np.ndarray:
        """Binary labels as -1/+1 (class 1 -> -1, class 2 -> +1)."""
        if self.num_classes != 2:
            raise ValueError("signed labels require exactly 2 classes")
        return np.where(self.y == 2, 1, -1).astype(np.int64)

    def subset(self, indices) -> "Dataset":
        indices = np.asarray(indices)
        if indices.size == 0 and indices.dtype != bool:  # np.asarray([]) is float
            indices = indices.astype(np.intp)
        return Dataset(
            self.X[indices], self.y[indices], self.num_classes, self.label_table
        )

    def with_labels(self, y: np.ndarray) -> "Dataset":
        return Dataset(self.X, y, self.num_classes, self.label_table)


@dataclass(frozen=True)
class NoiseSpec:
    """One noise configuration: kind, its level, and the sampling seed."""

    kind: str
    level: float
    seed: int
    sigma: float = 10.0

    VALID_KINDS = ("outlier", "random_flip", "margin_flip")

    def __post_init__(self):
        if self.kind not in self.VALID_KINDS:
            raise ValueError(f"unknown noise kind {self.kind!r}")
        _check_noise(self.kind, self.level, self.sigma)
        object.__setattr__(self, "seed", validate_count(self.seed, "NoiseSpec seed", 0))

    def apply(self, data: Dataset) -> Dataset:
        if self.level == 0.0:
            return data
        if self.kind == "outlier":
            return inject_outlier_noise(data, self.sigma, self.level, self.seed)
        if self.kind == "random_flip":
            return inject_random_flip(data, self.level, self.seed)
        return inject_margin_flip(data, self.level, self.seed)


def _check_noise(kind: str, level: float, sigma: float | None = None) -> None:
    """Reject a level, or an outlier sigma, outside its kind's range; NaN and non-numbers fail."""
    what, most = ("flip probability", 1) if kind == "random_flip" else ("ratio", 0.5)
    if not (is_number(level) and 0.0 <= level <= most):
        check(False, f"noise level ({what})", f"lie in [0, {most}]", level)
    if kind == "outlier":
        check(is_number(sigma) and 0.0 < sigma < np.inf, "noise sigma", "be finite and > 0", sigma)


def format_number(v: float) -> str:
    """Shortest exact decimal form; integers drop the trailing .0."""
    f = float(v)
    if f == int(f) and abs(f) < 1e16:
        return str(int(f))
    return repr(f)


def parse_libsvm(stream, dim: int | None = None) -> Dataset:
    """Read `label idx:val ...` lines; indices 1-based, strictly increasing.

    Labels are remapped to {1..C} in ascending numeric order with the original
    values recorded in label_table. dim defaults to the maximum index seen.
    Accepts a string or any iterable of lines.
    """
    if isinstance(stream, str):
        lines = stream.splitlines()
    else:
        lines = [line.rstrip("\n") for line in stream]

    raw_labels: list[float] = []
    rows: list[int] = []
    cols: list[int] = []
    vals: list[float] = []
    max_index = 0
    n = 0
    for lineno, line in enumerate(lines, start=1):
        tokens = line.split()
        if not tokens:
            continue
        try:
            label = float(tokens[0])
        except ValueError:
            raise DataFormatError(
                f"line {lineno}: label {tokens[0]!r} is not a number"
            ) from None
        prev_index = 0
        for tok in tokens[1:]:
            idx_str, sep, val_str = tok.partition(":")
            if not sep:
                raise DataFormatError(
                    f"line {lineno}: expected idx:val, got {tok!r}"
                )
            try:
                idx = int(idx_str)
                val = float(val_str)
            except ValueError:
                raise DataFormatError(
                    f"line {lineno}: malformed feature {tok!r}"
                ) from None
            if idx < 1:
                raise DataFormatError(f"line {lineno}: index {idx} must be >= 1")
            if idx <= prev_index:
                raise DataFormatError(
                    f"line {lineno}: indices must be strictly increasing "
                    f"({idx} after {prev_index})"
                )
            prev_index = idx
            rows.append(n)
            cols.append(idx - 1)
            vals.append(val)
        # indices increase along a line, so its last is its largest
        if prev_index > max_index:
            if prev_index > MAX_FEATURE_INDEX:
                raise DataFormatError(
                    f"line {lineno}: index {prev_index} exceeds {MAX_FEATURE_INDEX}"
                )
            max_index = prev_index
        raw_labels.append(label)
        n += 1

    if n == 0:
        raise DataFormatError("no examples found in stream")
    values = np.asarray(vals, dtype=float)
    rows = np.asarray(rows, dtype=np.int64)
    bad_rows = ~np.isfinite(np.asarray(raw_labels, dtype=float))
    bad_rows[rows[~np.isfinite(values)]] = True
    if bad_rows.any():
        # examples are numbered over the non-blank lines
        row = int(np.argmax(bad_rows))
        lineno = [k for k, line in enumerate(lines, start=1) if line.split()][row]
        raise DataFormatError(f"line {lineno}: label and feature values must be finite")
    if dim is None:
        dim = max_index
    elif dim < max_index:
        raise DataFormatError(
            f"largest feature index {max_index} exceeds the dimension {dim}"
        )

    table = sorted(set(raw_labels))
    remap = {orig: k + 1 for k, orig in enumerate(table)}
    y = np.array([remap[v] for v in raw_labels], dtype=np.int64)
    X = sparse.csr_array(
        (values, (rows, cols)), shape=(n, dim), dtype=float
    )
    return Dataset(X, y, num_classes=len(table), label_table=tuple(table))


def _read(path, parse):
    """parse(the UTF-8 text file at path): the one reader of every file a user names.

    Each failure is a ValueError that names the path.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse(fh)
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc.strerror}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path} is not valid JSON: {exc}") from None
    except (ValueError, RecursionError) as exc:
        raise DataFormatError(f"{path}: {exc}") from None  # format or decoding


def read_libsvm(path, dim: int | None = None) -> Dataset:
    """parse_libsvm on the file at path; a read or format error names the path."""
    return _read(path, lambda fh: parse_libsvm(fh, dim=dim))


def read_json(path):
    """The JSON value in the file at path; a read or syntax error names the path."""
    return _read(path, json.load)


def serialize_libsvm(data: Dataset) -> str:
    """Inverse of parse_libsvm; labels written via the recorded table."""
    table, X = data.label_table, data.X
    out = []
    for i in range(data.n):
        if sparse.issparse(X):
            start, end = X.indptr[i], X.indptr[i + 1]
            cols, values = X.indices[start:end], X.data[start:end]
        else:  # every entry is stored, so every entry is written, zeros too
            cols, values = range(data.dim), X[i]
        parts = [format_number(table[data.y[i] - 1])]
        for j, v in zip(cols, values):
            parts.append(f"{j + 1}:{format_number(v)}")
        out.append(" ".join(parts))
    return "\n".join(out) + "\n"


def synth_gaussians(n_per_class: int, means, seed: int = 0) -> Dataset:
    """Unit-covariance Gaussian blob per class mean; deterministic given seed."""
    n_per_class = validate_count(n_per_class, "n_per_class", 1)
    seed = validate_count(seed, "seed", 0)
    means = np.asarray(means, dtype=float)
    shaped = means.ndim == 2 and means.shape[0] >= 2
    check(shaped, "means", "have shape (C, d) with C >= 2", means.shape)
    check_finite(means, "means")
    if len(np.unique(means, axis=0)) != means.shape[0]:
        raise ValueError("class means must be distinct")
    c, d = means.shape
    rng = np.random.default_rng(seed)
    blocks = [means[k] + rng.standard_normal((n_per_class, d)) for k in range(c)]
    X = np.vstack(blocks)
    y = np.repeat(np.arange(1, c + 1, dtype=np.int64), n_per_class)
    return Dataset(X, y, num_classes=c)


def inject_outlier_noise(data: Dataset, sigma: float, ratio: float, seed: int) -> Dataset:
    """Add N(0, sigma^2) noise to every coordinate of floor(ratio*N) rows.

    Rows are chosen uniformly without replacement; labels are untouched. The
    perturbed rows densify (noise lands on zero coordinates too).
    """
    seed = validate_count(seed, "inject_outlier_noise seed", 0)
    _check_noise("outlier", ratio, sigma)
    k = int(np.floor(ratio * data.n))
    if k == 0:
        return data
    rng = np.random.default_rng(seed)
    chosen = rng.choice(data.n, size=k, replace=False)
    noise = rng.normal(0.0, sigma, size=(k, data.dim))
    with np.errstate(over="ignore"):  # an overflow is refused just below
        moved = data.X[chosen] + noise
    if not np.isfinite(moved).all():
        raise ValueError(
            f"outlier noise of sigma {plain_number(sigma)!r} overflows a feature to infinity"
        )
    X = data.X.tolil(copy=True) if sparse.issparse(data.X) else data.X.copy()
    X[chosen] = moved
    return Dataset(X, data.y, data.num_classes, data.label_table)


def inject_random_flip(data: Dataset, prob: float, seed: int) -> Dataset:
    """Flip each binary label independently with the given probability."""
    seed = validate_count(seed, "inject_random_flip seed", 0)
    if data.num_classes != 2:
        raise ValueError("random label flips are defined for 2 classes only")
    _check_noise("random_flip", prob)
    rng = np.random.default_rng(seed)
    flip = rng.random(data.n) < prob
    y = data.y.copy()
    y[flip] = 3 - y[flip]
    return data.with_labels(y)


def inject_margin_flip(data: Dataset, ratio: float, seed: int) -> Dataset:
    """Flip exactly floor(ratio*N) labels, preferring large-margin points.

    A plain logistic model (lambda = 1e-4) is fit on the clean data; margins
    u_n = c_n <x_n, w> are shifted so max u = 0 and scored s_n =
    exp(-10 u_n / min u), giving weight 1 to the largest margin and e^-10 to
    the smallest. Indices are drawn without replacement proportional to s by
    the exponential-keys method (key = uniform^(1/s), keep the top k). If all
    margins coincide the draw degenerates to uniform sampling.
    """
    from .model import FitConfig, fit

    seed = validate_count(seed, "inject_margin_flip seed", 0)
    if data.num_classes != 2:
        raise ValueError("margin flips are defined for 2 classes only")
    _check_noise("margin_flip", ratio)
    k = int(np.floor(ratio * data.n))
    if k == 0:
        return data

    model = fit(data, temps=(1.0, 1.0), lam=1e-4, config=FitConfig(seed=seed))
    w = model.W[:, 1] - model.W[:, 0]
    u = data.signed_labels() * np.asarray(data.X @ w, dtype=float).ravel()
    u = u - u.max()
    u_min = u.min()
    if u_min == 0.0:
        s = np.ones_like(u)
    else:
        s = np.exp(-10.0 * u / u_min)
    rng = np.random.default_rng(seed)
    keys = rng.random(data.n) ** (1.0 / s)
    chosen = np.argsort(keys)[-k:]
    y = data.y.copy()
    y[chosen] = 3 - y[chosen]
    return data.with_labels(y)
