"""Data handling: parsing, serialization, synthesis, noise injection."""

import io
import math
import re

import numpy as np
import pytest
from scipy import sparse, stats

from ttlr.data import (
    DataFormatError,
    Dataset,
    NoiseSpec,
    inject_margin_flip,
    inject_outlier_noise,
    inject_random_flip,
    parse_libsvm,
    read_json,
    read_libsvm,
    serialize_libsvm,
    synth_gaussians,
)


def dense(X):
    """The feature matrix as an ndarray, whichever storage the Dataset chose."""
    return sparse.csr_array(X).toarray()


SAMPLE = """\
+1 1:0.5 3:-2
-1 2:1
+1 1:1 2:2 3:3
"""


def test_parse_basic_layout():
    data = parse_libsvm(SAMPLE)
    assert data.n == 3
    assert data.dim == 3
    assert data.num_classes == 2
    # ascending original labels: -1 -> class 1, +1 -> class 2
    assert data.label_table == (-1.0, 1.0)
    assert data.y.tolist() == [2, 1, 2]
    dense = data.X.toarray()
    assert dense[0].tolist() == [0.5, 0.0, -2.0]
    assert dense[1].tolist() == [0.0, 1.0, 0.0]


def test_parse_accepts_file_like_and_blank_lines():
    data = parse_libsvm(io.StringIO("1 1:1\n\n2 1:-1\n"))
    assert data.n == 2
    assert data.label_table == (1.0, 2.0)


def test_parse_float_labels_and_dim_override():
    data = parse_libsvm("0.5 1:1\n1.5 1:2\n", dim=4)
    assert data.dim == 4
    assert data.label_table == (0.5, 1.5)


def test_parse_rejects_malformed_input():
    with pytest.raises(DataFormatError, match="line 1"):
        parse_libsvm("x 1:1\n")
    with pytest.raises(DataFormatError, match="line 2"):
        parse_libsvm("1 1:1\n2 1:zz\n")
    with pytest.raises(DataFormatError, match="strictly increasing"):
        parse_libsvm("1 2:1 2:3\n")
    with pytest.raises(DataFormatError, match=">= 1"):
        parse_libsvm("1 0:1\n")
    with pytest.raises(DataFormatError):
        parse_libsvm("1 1:1\n", dim=0)
    with pytest.raises(DataFormatError):
        parse_libsvm("")
    with pytest.raises(DataFormatError, match="expected idx:val"):
        parse_libsvm("1 17\n")
    # non-finite labels and values; blank lines count toward the line number
    for text, where in (
        ("1 1:1\n\n2 1:nan\n", "line 3"),
        ("1 1:1 2:inf\n2 1:1\n", "line 1"),
        ("1 1:1\n2 2:-inf\n1 1:nan\n", "line 2"),
        ("1 1:1\nnan 1:2\n", "line 2"),
    ):
        with pytest.raises(DataFormatError, match=f"{where}: .*must be finite"):
            parse_libsvm(text)


def test_parse_refuses_an_index_above_the_int32_range():
    # checked on the token text, before any array is sized by the index
    for index in ("2147483648", "3000000000", "9223372036854775807", "99999999999999999999"):
        with pytest.raises(DataFormatError, match=f"^line 2: index {index} exceeds 2147483647$"):
            parse_libsvm(f"1 1:1\n2 1:1 {index}:1\n")
    data = parse_libsvm("1 2147483647:1\n2 1:1\n")
    assert data.dim == 2147483647 and sparse.issparse(data.X)


def test_read_libsvm_names_the_path(tmp_path):
    path = tmp_path / "d.svm"
    path.write_text("1 1:1\n2 2:1\n")
    data = read_libsvm(path, dim=3)
    assert (data.n, data.dim) == (2, 3)
    with pytest.raises(ValueError, match=re.escape(f"cannot read {tmp_path / 'no.svm'}: No such")):
        read_libsvm(tmp_path / "no.svm")
    path.write_text("1 1:1\n2 x\n")
    with pytest.raises(DataFormatError, match=re.escape(f"{path}: line 2: expected idx:val")):
        read_libsvm(path)
    path.write_bytes(b"1 1:1\n2 1:\xff\n")
    with pytest.raises(DataFormatError, match=re.escape(f"{path}: 'utf-8' codec can't decode")):
        read_libsvm(path)


def test_read_json_names_the_path(tmp_path):
    path = tmp_path / "c.json"
    path.write_text('{"a": [1, 2.5]}')
    assert read_json(path) == {"a": [1, 2.5]}
    with pytest.raises(ValueError, match=re.escape(f"cannot read {tmp_path / 'no.json'}: No such")):
        read_json(tmp_path / "no.json")
    for content, message in [
        (b'{"a": ', f"{path} is not valid JSON: Expecting value"),
        (b"\xff{}", f"{path}: 'utf-8' codec can't decode"),
        (b"[" * 100000, f"{path}: maximum recursion depth exceeded"),
        (b'{"dim": ' + b"9" * 5000 + b"}", f"{path}: Exceeds the limit"),
    ]:
        path.write_bytes(content)
        with pytest.raises(ValueError, match=re.escape(message)):
            read_json(path)
    # a directory is an unreadable file, for both readers
    for reader in (read_json, read_libsvm):
        with pytest.raises(ValueError, match=re.escape(f"cannot read {tmp_path}: Is a directory")):
            reader(tmp_path)


def test_serialize_round_trip_is_exact():
    rng = np.random.default_rng(4)
    data = synth_gaussians(20, [(2.0, 0.0), (-2.0, 0.0)], seed=9)
    text = serialize_libsvm(data)
    back = parse_libsvm(text)
    assert np.array_equal(back.y, data.y)
    assert back.label_table == data.label_table
    assert np.array_equal(dense(back.X), dense(data.X))
    # labels with exact integer values drop the decimal point
    assert text.splitlines()[0].split()[0] in ("1", "2")


def test_serialize_omits_structural_zeros():
    data = parse_libsvm("1 2:7\n2 1:1 3:2\n")
    lines = serialize_libsvm(data).splitlines()
    assert lines[0] == "1 2:7"
    assert lines[1] == "2 1:1 3:2"


def test_synth_shapes_and_determinism():
    data = synth_gaussians(50, [(2.0, 0.0), (-2.0, 0.0)], seed=3)
    assert data.n == 100
    assert data.dim == 2
    assert np.bincount(data.y)[1:].tolist() == [50, 50]
    again = synth_gaussians(50, [(2.0, 0.0), (-2.0, 0.0)], seed=3)
    assert np.array_equal(dense(data.X), dense(again.X))
    other = synth_gaussians(50, [(2.0, 0.0), (-2.0, 0.0)], seed=4)
    assert not np.array_equal(dense(data.X), dense(other.X))


def test_synth_class_means():
    data = synth_gaussians(2000, [(2.0, 0.0), (-2.0, 0.0)], seed=1)
    X = dense(data.X)
    m1 = X[data.y == 1].mean(axis=0)
    m2 = X[data.y == 2].mean(axis=0)
    assert np.allclose(m1, [2.0, 0.0], atol=0.1)
    assert np.allclose(m2, [-2.0, 0.0], atol=0.1)


def test_synth_bayes_rate_of_standard_blobs():
    # means +-(2, 0) with unit covariance: the optimal rule is sign(x1) and
    # its accuracy is Phi(2)
    data = synth_gaussians(20000, [(2.0, 0.0), (-2.0, 0.0)], seed=11)
    X = dense(data.X)
    pred = np.where(X[:, 0] >= 0.0, 1, 2)
    acc = float(np.mean(pred == data.y))
    assert acc == pytest.approx(stats.norm.cdf(2.0), abs=0.01)


def test_synth_validation():
    for count in (0, -1, 2.5, True, "3", None):
        with pytest.raises(ValueError, match="n_per_class must be an integer >= 1"):
            synth_gaussians(count, [(1.0,), (-1.0,)])
    for seed in (-1, 2.5, "0"):
        with pytest.raises(ValueError, match="seed must be an integer >= 0"):
            synth_gaussians(5, [(1.0,), (-1.0,)], seed=seed)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match=rf"^means\[1\]\[0\] must be finite, got {bad}$"):
            synth_gaussians(5, [(1.0, 0.0), (bad, 0.0)])
    for means, shape in (([(1.0, 0.0)], (1, 2)), ([1.0, -1.0], (2,))):
        message = f"means must have shape (C, d) with C >= 2, got {shape}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            synth_gaussians(5, means)
    with pytest.raises(ValueError):
        synth_gaussians(5, [(1.0, 0.0), (1.0, 0.0)])


def test_outlier_noise_counts_and_label_preservation():
    data = synth_gaussians(100, [(2.0, 0.0), (-2.0, 0.0)], seed=2)
    noisy = inject_outlier_noise(data, sigma=10.0, ratio=0.3, seed=5)
    assert np.array_equal(noisy.y, data.y)
    diff = dense(noisy.X) - dense(data.X)
    changed = np.any(diff != 0.0, axis=1)
    assert changed.sum() == math.floor(0.3 * data.n)
    # untouched rows are bitwise identical
    assert np.array_equal(
        dense(noisy.X)[~changed], dense(data.X)[~changed]
    )


def test_outlier_noise_is_additive_with_requested_scale():
    data = synth_gaussians(2000, [(2.0, 0.0), (-2.0, 0.0)], seed=7)
    noisy = inject_outlier_noise(data, sigma=10.0, ratio=0.5, seed=8)
    diff = dense(noisy.X) - dense(data.X)
    perturbation = diff[np.any(diff != 0.0, axis=1)]
    assert abs(perturbation.std() - 10.0) / 10.0 < 0.05
    assert abs(perturbation.mean()) < 0.5


def test_outlier_noise_zero_ratio_returns_input():
    data = synth_gaussians(10, [(2.0, 0.0), (-2.0, 0.0)], seed=0)
    assert inject_outlier_noise(data, 10.0, 0.0, 1) is data


def test_outlier_noise_determinism():
    data = synth_gaussians(50, [(2.0, 0.0), (-2.0, 0.0)], seed=0)
    a = inject_outlier_noise(data, 10.0, 0.2, seed=42)
    b = inject_outlier_noise(data, 10.0, 0.2, seed=42)
    assert np.array_equal(dense(a.X), dense(b.X))
    c = inject_outlier_noise(data, 10.0, 0.2, seed=43)
    assert not np.array_equal(dense(a.X), dense(c.X))


def test_random_flip_endpoints_and_counts():
    data = synth_gaussians(200, [(2.0, 0.0), (-2.0, 0.0)], seed=1)
    same = inject_random_flip(data, 0.0, seed=3)
    assert np.array_equal(same.y, data.y)
    all_flipped = inject_random_flip(data, 1.0, seed=3)
    assert np.array_equal(all_flipped.y, 3 - data.y)
    some = inject_random_flip(data, 0.3, seed=3)
    frac = np.mean(some.y != data.y)
    assert 0.2 < frac < 0.4
    assert np.array_equal(dense(some.X), dense(data.X))


def test_random_flip_requires_binary():
    data = synth_gaussians(5, [(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0)], seed=0)
    with pytest.raises(ValueError):
        inject_random_flip(data, 0.1, seed=0)


def test_margin_flip_count_and_determinism():
    data = synth_gaussians(150, [(2.0, 0.0), (-2.0, 0.0)], seed=6)
    noisy = inject_margin_flip(data, 0.1, seed=13)
    assert int(np.sum(noisy.y != data.y)) == math.floor(0.1 * data.n)
    again = inject_margin_flip(data, 0.1, seed=13)
    assert np.array_equal(noisy.y, again.y)
    assert np.array_equal(dense(noisy.X), dense(data.X))


def test_margin_flip_below_one_flip_returns_the_input():
    data = synth_gaussians(4, [(2.0, 0.0), (-2.0, 0.0)], seed=6)
    assert inject_margin_flip(data, 0.1, seed=0) is data


def test_margin_flip_with_equal_margins_samples_uniformly():
    # all-zero features fit W = 0, so every margin is 0
    data = Dataset(np.zeros((40, 1)), np.tile([1, 2], 20), 2)
    flips = np.zeros(data.n)
    for seed in range(40):
        flipped = inject_margin_flip(data, 0.25, seed=seed).y != data.y
        assert int(flipped.sum()) == 10
        flips += flipped
    assert flips.min() > 0


def test_margin_flip_prefers_confident_points():
    # aggregate over seeds: top-margin-decile points must be flipped far more
    # often than bottom-decile points
    data = synth_gaussians(150, [(2.0, 0.0), (-2.0, 0.0)], seed=21)
    signed = data.signed_labels()
    # rank margins with an independent direction: the class-mean difference,
    # oriented so positive margin means correct (class 1 carries sign -1)
    w = np.array([-2.0, 0.0]) - np.array([2.0, 0.0])
    u = signed * (dense(data.X) @ w)
    order = np.argsort(u)
    n10 = data.n // 10
    bottom, top = order[:n10], order[-n10:]
    top_hits = 0
    bottom_hits = 0
    for seed in range(60):
        noisy = inject_margin_flip(data, 0.1, seed=seed)
        flipped = noisy.y != data.y
        top_hits += int(flipped[top].sum())
        bottom_hits += int(flipped[bottom].sum())
    assert top_hits > 3 * max(bottom_hits, 1)


def test_margin_flip_requires_binary_and_a_ratio_in_range():
    s = synth_gaussians(10, [(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0)], seed=0)
    with pytest.raises(ValueError):
        inject_margin_flip(s, 0.1, seed=0)
    b = synth_gaussians(10, [(2.0, 0.0), (-2.0, 0.0)], seed=0)
    message = "noise level (ratio) must lie in [0, 0.5], got 0.6"
    with pytest.raises(ValueError, match=re.escape(message)):
        inject_margin_flip(b, 0.6, seed=0)
    # level 0 is no noise, as for the other injectors and NoiseSpec.apply
    assert inject_margin_flip(b, 0.0, seed=0) is b


@pytest.mark.parametrize("inject, args", [
    (inject_outlier_noise, (1.0, 0.5)),
    (inject_random_flip, (0.5,)),
    (inject_margin_flip, (0.5,)),
])
@pytest.mark.parametrize("seed, shown", [(2.5, "2.5"), (-1, "-1"), (True, "True")])
def test_injectors_check_their_seed(inject, args, seed, shown):
    data = synth_gaussians(10, [(2.0, 0.0), (-2.0, 0.0)], seed=0)
    message = f"{inject.__name__} seed must be an integer >= 0, got {shown}"
    with pytest.raises(ValueError, match=message):
        inject(data, *args, seed)
    # an integer-valued float is a seed, as NoiseSpec takes it
    assert np.array_equal(inject(data, *args, 3.0).y, inject(data, *args, 3).y)


def test_noise_spec_dispatch_and_validation():
    data = synth_gaussians(40, [(2.0, 0.0), (-2.0, 0.0)], seed=2)
    spec = NoiseSpec("outlier", 0.25, seed=9, sigma=10.0)
    assert np.array_equal(
        dense(spec.apply(data).X),
        dense(inject_outlier_noise(data, 10.0, 0.25, 9).X),
    )
    assert NoiseSpec("outlier", 0.0, seed=1).apply(data) is data
    flip = NoiseSpec("random_flip", 0.8, seed=3)
    assert np.array_equal(flip.apply(data).y, inject_random_flip(data, 0.8, 3).y)
    margin = NoiseSpec("margin_flip", 0.1, seed=4)
    assert np.array_equal(margin.apply(data).y, inject_margin_flip(data, 0.1, 4).y)
    with pytest.raises(ValueError):
        NoiseSpec("salt_and_pepper", 0.1, seed=0)
    with pytest.raises(ValueError):
        NoiseSpec("outlier", 0.6, seed=0)
    with pytest.raises(ValueError):
        NoiseSpec("random_flip", 1.2, seed=0)
    with pytest.raises(ValueError):
        NoiseSpec("outlier", 0.1, seed=0, sigma=0.0)


NAN = float("nan")


@pytest.mark.parametrize(
    "kind, level, sigma, message",
    [
        ("outlier", 0.6, 10.0, "noise level (ratio) must lie in [0, 0.5], got 0.6"),
        ("outlier", -0.1, 10.0, "noise level (ratio) must lie in [0, 0.5], got -0.1"),
        ("outlier", NAN, 10.0, "noise level (ratio) must lie in [0, 0.5], got nan"),
        ("outlier", 0.1, 0.0, "noise sigma must be finite and > 0, got 0.0"),
        ("outlier", 0.1, float("inf"), "noise sigma must be finite and > 0, got inf"),
        ("random_flip", 1.2, 10.0, "noise level (flip probability) must lie in [0, 1], got 1.2"),
        ("random_flip", NAN, 10.0, "noise level (flip probability) must lie in [0, 1], got nan"),
    ],
)
def test_noise_spec_and_injectors_share_one_range_check(kind, level, sigma, message):
    data = synth_gaussians(10, [(2.0, 0.0), (-2.0, 0.0)], seed=0)
    inject = {
        "outlier": lambda: inject_outlier_noise(data, sigma, level, seed=0),
        "random_flip": lambda: inject_random_flip(data, level, seed=0),
    }[kind]
    for build in (lambda: NoiseSpec(kind, level, seed=0, sigma=sigma), inject):
        with pytest.raises(ValueError, match=re.escape(message)):
            build()


def test_dataset_subset_and_signed_labels():
    data = parse_libsvm(SAMPLE)
    sub = data.subset([0, 2])
    assert sub.n == 2
    assert sub.y.tolist() == [2, 2]
    assert sub.label_table == data.label_table
    assert data.signed_labels().tolist() == [1, -1, 1]
    three = synth_gaussians(3, [(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0)], seed=0)
    with pytest.raises(ValueError):
        three.signed_labels()


def test_dataset_subset_takes_an_empty_index_and_a_mask():
    # CSR storage, then dense storage
    for data in (parse_libsvm(SAMPLE), synth_gaussians(3, [(1.0, 0.0), (-1.0, 0.0)], seed=0)):
        empty = data.subset([])
        assert (empty.n, empty.dim, empty.y.dtype) == (0, data.dim, np.int64)
        assert empty.label_table == data.label_table
        mask = data.y == 2
        picked = data.subset(mask)
        assert picked.y.tolist() == data.y[mask].tolist()
        assert np.array_equal(dense(picked.X), dense(data.X)[mask])


def test_dataset_validates_labels():
    X = sparse.csr_array(np.ones((2, 1)))
    with pytest.raises(ValueError):
        Dataset(X, np.array([1, 3]), num_classes=2)
    with pytest.raises(ValueError):
        Dataset(X, np.array([0, 1]), num_classes=2)
    with pytest.raises(ValueError):
        Dataset(X, np.array([1]), num_classes=1)


@pytest.mark.parametrize(
    "y, bad, got",
    [([1.5, 2.0], "y[0]", "1.5"), ([1.0, np.nan], "y[1]", "nan"), ([2, np.inf], "y[1]", "inf")],
)
def test_dataset_rejects_fractional_labels(y, bad, got):
    # np.int64 would silently truncate 1.5 to class 1
    message = f"Dataset {bad} must be an integer in [1, 2], got {got}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        Dataset(np.ones((2, 1)), y, num_classes=2)


def test_dataset_refuses_a_label_matrix():
    # a (3, 1) y would broadcast against the (3,) predictions inside fit
    message = "Dataset y must have shape (3,), got (3, 1)"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        Dataset(np.ones((3, 1)), [[1], [2], [1]], 2)


@pytest.mark.parametrize("num_classes", [2.5, "2", True, 0])
def test_dataset_refuses_a_class_count_that_is_not_a_count(num_classes):
    message = f"Dataset num_classes must be an integer >= 1, got {num_classes!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        Dataset(np.ones((2, 1)), [1, 1], num_classes)


def test_dataset_reads_an_integer_valued_class_count():
    data = Dataset(np.ones((2, 1)), [1, 2], np.float64(2.0))
    assert type(data.num_classes) is int and data.label_table == (1.0, 2.0)


def test_dataset_refuses_a_label_table_of_another_length():
    # fit and save_model would succeed and load_model then refuse the file
    message = "Dataset label_table must have 2 entries, got (5.0,)"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        Dataset(np.ones((2, 1)), [1, 2], 2, label_table=(5.0,))


def test_dataset_accepts_integer_valued_float_labels():
    data = Dataset(np.ones((2, 1)), [2.0, 1.0], num_classes=2)
    assert data.y.dtype == np.int64 and data.y.tolist() == [2, 1]
