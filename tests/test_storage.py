"""Feature storage: dense when every entry is stored, CSR otherwise, same results."""

import re

import numpy as np
import pytest
from scipy import sparse

from ttlr.data import Dataset, parse_libsvm, serialize_libsvm, synth_gaussians
from ttlr.loss import regularized_objective
from ttlr.model import FitConfig, fit, predict
from ttlr.optimizer import OptimizerConfig

TEMPS = ((1.0, 1.0), (0.6, 1.6), (0.8, 0.6))


@pytest.fixture(scope="module")
def pair():
    """The same values stored once as an ndarray and once as CSR."""
    rng = np.random.default_rng(17)
    X = rng.standard_normal((240, 6))
    X[rng.random(X.shape) < 0.3] = 0.0
    y = np.argmax(X @ rng.standard_normal((6, 3)) + rng.standard_normal((240, 3)), axis=1) + 1
    dense = Dataset(X, y, 3)
    csr = Dataset(sparse.csr_array(X), y, 3)
    assert isinstance(dense.X, np.ndarray)
    assert sparse.issparse(csr.X)
    return dense, csr


def test_objective_agrees_across_storage(pair):
    dense, csr = pair
    W = np.random.default_rng(3).normal(0.0, 0.5, size=(6, 3))
    for temps in TEMPS:
        v_dense, g_dense = regularized_objective(dense, W, temps, 1e-3)
        v_csr, g_csr = regularized_objective(csr, W, temps, 1e-3)
        assert v_dense == pytest.approx(v_csr, rel=1e-12)
        assert np.allclose(g_dense, g_csr, rtol=1e-12, atol=1e-12 * np.abs(g_csr).max())


def test_fit_and_predict_agree_across_storage(pair):
    dense, csr = pair
    config = FitConfig(seed=5, optimizer=OptimizerConfig(max_iters=8))
    for temps in TEMPS:
        m_dense = fit(dense, temps, 1e-3, config)
        m_csr = fit(csr, temps, 1e-3, config)
        assert m_dense.trace.iterations == m_csr.trace.iterations
        assert m_dense.trace.termination == m_csr.trace.termination == "max_iterations"
        assert np.allclose(m_dense.W, m_csr.W, rtol=1e-10, atol=1e-12)
        assert np.array_equal(predict(m_csr, dense.X), predict(m_csr, csr.X))


def test_serialization_round_trips_both_storages(pair):
    dense, csr = pair
    for data in pair:
        back = parse_libsvm(serialize_libsvm(data), dim=data.dim)
        assert type(back.X) is type(data.X)
        assert back.X.nnz == data.X.nnz
        assert np.array_equal(sparse.csr_array(back.X).toarray(), dense.X)
    # a dense X writes its exact zeros too; on rows without one the bytes agree
    lines_dense = serialize_libsvm(dense).splitlines()
    lines_csr = serialize_libsvm(csr).splitlines()
    full = np.flatnonzero((dense.X != 0.0).all(axis=1))
    assert full.size
    assert [lines_dense[i] for i in full] == [lines_csr[i] for i in full]


def test_explicit_zero_column_survives_serialization():
    text = "1 1:1 2:0\n2 1:2 2:0\n"
    data = parse_libsvm(text)
    assert isinstance(data.X, np.ndarray)
    assert serialize_libsvm(data) == text
    assert parse_libsvm(serialize_libsvm(data)).dim == 2


def test_nnz_counts_stored_entries(pair):
    dense, csr = pair
    assert dense.X.nnz == dense.X.size
    assert csr.X.nnz == np.count_nonzero(dense.X)


def test_synthetic_data_is_dense():
    data = synth_gaussians(20, [(1.0, 0.0), (-1.0, 0.0)], seed=0)
    assert isinstance(data.X, np.ndarray)
    assert data.X.shape == (40, 2)


def test_fully_listed_file_parses_dense():
    data = parse_libsvm("1 1:0.5 2:-1\n2 1:0 2:3\n")
    assert isinstance(data.X, np.ndarray)
    assert data.X.tolist() == [[0.5, -1.0], [0.0, 3.0]]


def test_sparse_file_stays_csr():
    data = parse_libsvm("1 1:0.5\n2 2:3\n")
    assert isinstance(data.X, sparse.csr_array)
    assert data.X.nnz == 2


def test_subset_keeps_the_storage(pair):
    dense, csr = pair
    rows = np.flatnonzero((dense.X == 0.0).any(axis=1))[:5]
    assert isinstance(dense.subset(rows).X, np.ndarray)
    assert sparse.issparse(csr.subset(rows).X)
    assert np.array_equal(dense.subset(rows).X, csr.subset(rows).X.toarray())


def test_dataset_rejects_non_2d_features():
    for X in (np.ones(3), np.ones((3, 1, 1))):
        message = f"Dataset X must have shape (n, dim), got {X.shape}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Dataset(X, np.ones(3, dtype=int), 1)
