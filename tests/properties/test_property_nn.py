"""Property-based tests of the numpy NN substrate."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn.embedding import EmbeddingBag
from repro.nn.metrics import roc_auc
from repro.nn.mlp import MLP


@given(st.integers(1, 32), st.integers(1, 16), st.integers(0, 1000))
@settings(max_examples=40, deadline=None)
def test_embedding_forward_backward_shapes(batch, pooling, seed):
    rng = np.random.default_rng(seed)
    bag = EmbeddingBag(64, 8, rng, dtype=np.float64)
    indices = [rng.integers(0, 64, size=pooling) for _ in range(batch)]
    out = bag.forward(indices)
    assert out.shape == (batch, 8)
    grad = bag.backward(np.ones((batch, 8)))
    assert grad.values.shape[1] == 8
    assert grad.nnz <= batch * pooling
    # Total gradient mass equals batch * pooling (each lookup contributes 1s).
    assert grad.values.sum() == float(batch * pooling * 8)


@given(st.integers(0, 1000), st.integers(1, 24))
@settings(max_examples=30, deadline=None)
def test_mlp_deterministic_given_seed(seed, batch):
    rng_data = np.random.default_rng(seed)
    x = rng_data.normal(size=(batch, 6))
    a = MLP([6, 12, 3], np.random.default_rng(seed), dtype=np.float64)
    b = MLP([6, 12, 3], np.random.default_rng(seed), dtype=np.float64)
    np.testing.assert_allclose(a.forward(x), b.forward(x))


@given(st.integers(0, 5000))
@settings(max_examples=40, deadline=None)
def test_auc_invariant_under_monotone_transform(seed):
    rng = np.random.default_rng(seed)
    targets = rng.integers(0, 2, size=64).astype(float)
    if targets.min() == targets.max():
        targets[0] = 1.0 - targets[0]
    scores = rng.normal(size=64)
    base = roc_auc(targets, scores)
    transformed = roc_auc(targets, 3.0 * scores + 7.0)
    np.testing.assert_allclose(base, transformed, atol=1e-12)
    sigmoid = roc_auc(targets, 1.0 / (1.0 + np.exp(-scores)))
    np.testing.assert_allclose(base, sigmoid, atol=1e-12)
