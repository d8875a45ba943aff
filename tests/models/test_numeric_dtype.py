"""The numeric dtype follows ``ModelConfig.dtype_bytes`` end to end.

``dtype_bytes`` prices every embedding row in the DMA, tier and collective
costs; these checks pin that the numerics hold the same bytes.  After a
training step every parameter, dense gradient, sparse-gradient value,
pending-store buffer and lookahead flush is float32 at ``dtype_bytes=4``
and float64 at ``dtype_bytes=8`` — nothing upcasts silently on the way.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.core.distributed import ShardedHotlineTrainer
from repro.core.reducer import Reducer
from repro.data.loader import MiniBatchLoader
from repro.models import RM2, ModelConfig
from repro.models.dlrm import DLRM
from repro.models.tbsm import TBSM
from repro.nn.embedding import merge_sparse_gradients
from repro.nn.optim import SparseAdagrad


@pytest.mark.parametrize("dtype_bytes", [0, 1, 2, 3, 16])
def test_dtype_bytes_other_than_4_or_8_is_rejected(dtype_bytes):
    with pytest.raises(ValueError, match="dtype_bytes must be 4 .* or 8"):
        replace(RM2, dtype_bytes=dtype_bytes)


def test_numpy_dtype_follows_dtype_bytes():
    assert RM2.dtype_bytes == 4
    assert RM2.numpy_dtype == np.float32
    assert replace(RM2, dtype_bytes=8).numpy_dtype == np.float64


def test_dtype_adds_no_config_field():
    assert [field for field in ModelConfig.__dataclass_fields__] == [
        "name",
        "dataset",
        "embedding_dim",
        "bottom_mlp",
        "top_mlp",
        "uses_attention",
        "dtype_bytes",
    ]


def assert_model_dtype(model, dtype, dtype_bytes):
    for param, grad in model.dense_parameters():
        assert param.dtype == dtype
        assert grad.dtype == dtype
    for table in model.tables:
        assert table.weight.dtype == dtype
        assert table.weight.itemsize == dtype_bytes


@pytest.mark.parametrize("dtype_bytes", [4, 8])
def test_dlrm_step_stays_in_the_config_dtype(tiny_model_config, tiny_click_log, dtype_bytes):
    config = replace(tiny_model_config, dtype_bytes=dtype_bytes)
    dtype = config.numpy_dtype
    model = DLRM(config, seed=0)
    batch = tiny_click_log.batch(0, 64)
    segments = [np.arange(0, 64, 2), np.arange(1, 64, 2)]
    model.zero_grad()
    losses, table_grads = model.fused_loss_and_gradients(batch, segments, normalizer=64)
    assert all(np.isfinite(loss) for loss in losses)
    merged = [merge_sparse_gradients(grads) for grads in table_grads]
    for grads in table_grads:
        assert all(grad.values.dtype == dtype for grad in grads)
    assert all(grad.values.dtype == dtype for grad in merged)
    assert_model_dtype(model, dtype, dtype_bytes)
    model.apply_dense_update(0.1)
    model.apply_sparse_updates(merged, 0.1)
    optimizer = SparseAdagrad(lr=0.1)
    for table, grad in zip(model.tables, merged, strict=True):
        optimizer.step(table, grad)
    assert all(state.dtype == dtype for state in optimizer._state.values())
    assert_model_dtype(model, dtype, dtype_bytes)
    assert model.forward(batch).dtype == dtype
    pooled = Reducer().reduce_batch([table.weight[:3] for table in model.tables])
    assert pooled.dtype == dtype


@pytest.mark.parametrize("dtype_bytes", [4, 8])
def test_tbsm_k4_stale2_lookahead_step_stays_in_the_config_dtype(
    tiny_ts_model_config, tiny_ts_click_log, dtype_bytes
):
    config = replace(tiny_ts_model_config, dtype_bytes=dtype_bytes)
    dtype = config.numpy_dtype
    trainer = ShardedHotlineTrainer(
        TBSM(config, seed=0), 4, lr=0.05, mode="stale-2", lookahead_window=3
    )
    loader = MiniBatchLoader(tiny_ts_click_log, batch_size=128)
    trainer.bind(loader)
    for batch in list(loader)[:2]:
        assert np.isfinite(trainer.run_step(batch).loss)
    for replica in trainer.replicas:
        assert_model_dtype(replica.model, dtype, dtype_bytes)
    assert all(
        flat is None or flat.dtype == dtype for flat in trainer._pending_dense
    )
    store = trainer.lookahead.pending
    assert store.total_pending > 0
    slabs = [values for values in store._values if values is not None]
    assert slabs and all(values.dtype == dtype for values in slabs)
    flushed = trainer.lookahead.drain()
    assert flushed is not None
    assert all(grad.values.dtype == dtype for grad in flushed)
    # An empty take after the flush keeps the model's width and dtype.
    empty = store.take_all(0)
    assert empty.nnz == 0
    assert empty.values.shape == (0, config.embedding_dim)
    assert empty.values.dtype == dtype


def test_merging_zero_gradients_is_rejected():
    with pytest.raises(ValueError, match="at least one gradient"):
        merge_sparse_gradients([])
