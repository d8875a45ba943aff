"""Cross-table stacked fusion: store mechanics, parity, deepcopy safety.

:class:`~repro.nn.embedding.StackedEmbeddingStore` concatenates a model's
embedding tables into one ``(sum_rows, dim)`` buffer so the fused step
issues one gather and one segmented scatter per *step* instead of per
table.  Pinned here:

* store mechanics — offsets, views, stacked index arithmetic, and the
  combined :func:`~repro.nn.embedding.stacked_segmented_scatter` against
  the per-table :func:`~repro.nn.embedding.segmented_scatter` reference;
* **bit-parity** — ``stacked=True`` DLRM/TBSM training (fused and
  unfused, single- and multi-replica) is bit-identical to the per-table
  layout it replaces;
* **deepcopy safety** — replicating a stacked model copies the store once
  per replica and mutating one replica's buffer never reaches another's
  weights (the hazard the ``(store, slot)`` handle scheme exists to
  avoid: ndarray *views* stored as attributes would materialise into
  orphaned copies under ``copy.deepcopy``).
"""

import copy

import numpy as np
import pytest

from repro.core.distributed import ShardedHotlineTrainer
from repro.core.pipeline import HotlineTrainer
from repro.data.loader import MiniBatchLoader
from repro.models.dlrm import DLRM
from repro.models.tbsm import TBSM
from repro.nn.embedding import (
    EmbeddingBag,
    SparseGradient,
    StackedEmbeddingStore,
    segment_ids_for,
    segmented_scatter,
    stacked_segmented_scatter,
)
from repro.reference import SequentialHotlineTrainer


def make_tables(rows=(16, 8, 4), dim=4):
    return [
        EmbeddingBag(r, dim, np.random.default_rng(100 + i), name=f"t{i}", dtype=np.float64)
        for i, r in enumerate(rows)
    ]


# --------------------------------------------------------------------- #
# Store mechanics
# --------------------------------------------------------------------- #
def test_store_offsets_views_and_stacked_indices():
    tables = make_tables()
    originals = [table.weight.copy() for table in tables]
    store = StackedEmbeddingStore(tables)
    np.testing.assert_array_equal(store.offsets, [0, 16, 24, 28])
    assert store.total_rows == 28
    for slot, (table, original) in enumerate(zip(tables, originals, strict=True)):
        # Adoption rebinds each table's weight to a view of the buffer...
        assert table.weight.base is store.buffer
        np.testing.assert_array_equal(table.weight, original)
        np.testing.assert_array_equal(store.table_view(slot), original)
    # ...so updates through either side are the same storage.
    tables[1].weight[3, :] = 7.5
    np.testing.assert_array_equal(store.buffer[16 + 3], 7.5)
    block = np.array([[[2], [3], [1]]])  # (batch=1, tables=3, pooling=1)
    stacked = store.stacked_indices(block)
    np.testing.assert_array_equal(stacked[0, :, 0], [2, 16 + 3, 24 + 1])
    np.testing.assert_array_equal(store.gather(stacked)[0, 2, 0], store.buffer[25])


def test_store_rejects_mixed_dims_and_empty():
    with pytest.raises(ValueError, match="zero tables"):
        StackedEmbeddingStore([])
    rng = np.random.default_rng(0)
    mixed = [EmbeddingBag(4, 2, rng, dtype=np.float64), EmbeddingBag(4, 3, rng, dtype=np.float64)]
    with pytest.raises(ValueError, match="one dim"):
        StackedEmbeddingStore(mixed)


def test_adopted_weight_is_read_only_handle():
    """No setter: accidental ``table.weight = ...`` must raise, adopted or
    not — the handle scheme is what keeps deepcopy safe."""
    tables = make_tables()
    StackedEmbeddingStore(tables)
    with pytest.raises(AttributeError):
        tables[0].weight = np.zeros((16, 4))


def test_stacked_scatter_matches_per_table_reference():
    """The combined scatter returns, per table and segment, exactly the
    per-table ``segmented_scatter``'s buckets — same rows, same bits (the
    (b, t, p) ravel restricted to one table is (b, p)-lexicographic, i.e.
    the per-table flat order)."""
    rng = np.random.default_rng(5)
    rows, dim, batch, pooling = (16, 8, 4), 4, 12, 3
    store = StackedEmbeddingStore(make_tables(rows, dim))
    sparse = np.stack(
        [rng.integers(0, r, size=(batch, pooling)) for r in rows], axis=1
    )
    grads = rng.standard_normal((batch, len(rows), pooling, dim))
    segments = [np.arange(0, 5), np.arange(5, batch)]
    segment_ids = segment_ids_for(segments, batch)

    stacked_block = store.stacked_indices(sparse)
    combined = stacked_segmented_scatter(
        stacked_block.reshape(-1),
        grads.reshape(-1, dim),
        np.repeat(segment_ids, len(rows) * pooling),
        len(segments),
        store.offsets,
        dim,
    )
    for t in range(len(rows)):
        reference = segmented_scatter(
            sparse[:, t].reshape(-1),
            grads[:, t].reshape(-1, dim),
            np.repeat(segment_ids, pooling),
            len(segments),
            rows[t],
            dim,
        )
        for s in range(len(segments)):
            np.testing.assert_array_equal(
                combined[t][s].indices, reference[s].indices, err_msg=f"t{t}s{s}"
            )
            np.testing.assert_array_equal(
                combined[t][s].values, reference[s].values, err_msg=f"t{t}s{s}"
            )


def test_stacked_scatter_empty_input():
    store = StackedEmbeddingStore(make_tables())
    out = stacked_segmented_scatter(
        np.empty(0, dtype=np.int64),
        np.empty((0, 4)),
        np.empty(0, dtype=np.int64),
        2,
        store.offsets,
        4,
    )
    assert len(out) == 3
    for per_segment in out:
        assert len(per_segment) == 2
        assert all(grad.nnz == 0 for grad in per_segment)


# --------------------------------------------------------------------- #
# Model-level bit-parity
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("fused", [True, False])
def test_stacked_dlrm_training_bit_identical(
    tiny_model_config, tiny_click_log, fused
):
    """A stacked DLRM trains bit-identically to the per-table layout on
    both the fused and the sequential two-pass µ-batch schedule."""
    results = {}
    for stacked in (False, True):
        model = DLRM(tiny_model_config, seed=9, stacked=stacked)
        trainer_cls = HotlineTrainer if fused else SequentialHotlineTrainer
        trainer = trainer_cls(model, lr=0.05, sample_fraction=0.25)
        result = trainer.train(
            MiniBatchLoader(tiny_click_log, batch_size=128),
            epochs=1,
            eval_batch=tiny_click_log.batch(0, 256),
        )
        results[stacked] = (result, model.state_snapshot())
    assert results[True][0].losses == results[False][0].losses
    assert results[True][0].final_metrics == results[False][0].final_metrics
    for key, value in results[False][1].items():
        np.testing.assert_array_equal(results[True][1][key], value, err_msg=key)


def test_stacked_tbsm_training_bit_identical(tiny_ts_model_config, tiny_ts_click_log):
    """TBSM (history sequence + pooled tables) shares the guarantee."""
    states = {}
    for stacked in (False, True):
        model = TBSM(tiny_ts_model_config, seed=9, stacked=stacked)
        trainer = HotlineTrainer(model, lr=0.05, sample_fraction=0.25)
        result = trainer.train(
            MiniBatchLoader(tiny_ts_click_log, batch_size=128), epochs=1
        )
        states[stacked] = (result.losses, model.state_snapshot())
    assert states[True][0] == states[False][0]
    for key, value in states[False][1].items():
        np.testing.assert_array_equal(states[True][1][key], value, err_msg=key)


def test_stacked_sharded_training_bit_identical(tiny_model_config, tiny_click_log):
    """K=2 replicas of a stacked model — deepcopied stores and all —
    reproduce the per-table sharded run exactly."""
    losses = {}
    states = {}
    for stacked in (False, True):
        model = DLRM(tiny_model_config, seed=9, stacked=stacked)
        trainer = ShardedHotlineTrainer(model, 2, lr=0.05, sample_fraction=0.25)
        result = trainer.train(MiniBatchLoader(tiny_click_log, batch_size=128), epochs=1)
        assert trainer.replica_drift() == 0.0
        losses[stacked] = result.losses
        states[stacked] = model.state_snapshot()
    assert losses[True] == losses[False]
    for key, value in states[False].items():
        np.testing.assert_array_equal(states[True][key], value, err_msg=key)


def test_stacked_state_snapshot_matches_per_table(tiny_model_config):
    """Snapshots see through the stacked layout: same keys, same arrays."""
    per_table = DLRM(tiny_model_config, seed=9).state_snapshot()
    stacked = DLRM(tiny_model_config, seed=9, stacked=True).state_snapshot()
    assert per_table.keys() == stacked.keys()
    for key, value in per_table.items():
        np.testing.assert_array_equal(stacked[key], value, err_msg=key)


# --------------------------------------------------------------------- #
# Deepcopy safety
# --------------------------------------------------------------------- #
def test_deepcopy_rebinds_handles_to_the_copied_store(tiny_model_config):
    model = DLRM(tiny_model_config, seed=3, stacked=True)
    clone = copy.deepcopy(model)
    assert clone.stacked is not model.stacked
    assert not np.shares_memory(clone.stacked.buffer, model.stacked.buffer)
    for table, original in zip(clone.tables, model.tables, strict=True):
        # Every cloned table resolves into the *cloned* store's buffer
        # (deepcopy memoisation: one store copy per replica, not per table).
        assert table.weight.base is clone.stacked.buffer
        assert not np.shares_memory(table.weight, original.weight)
        np.testing.assert_array_equal(table.weight, original.weight)


def test_mutating_one_replica_never_aliases_another(tiny_model_config):
    """The acceptance claim: an in-place sparse update on one replica's
    stacked store leaves every other replica's weights untouched."""
    model = DLRM(tiny_model_config, seed=3, stacked=True)
    trainer = ShardedHotlineTrainer(model, 2, sample_fraction=0.25)
    replica_a, replica_b = (replica.model for replica in trainer.replicas)
    before_b = [table.weight.copy() for table in replica_b.tables]
    grad = SparseGradient(np.array([0, 1]), np.full((2, model.config.embedding_dim), 3.0))
    replica_a.tables[0].apply_sparse_update(grad, lr=1.0)
    assert not np.allclose(replica_a.tables[0].weight[:2], before_b[0][:2])
    for table, before in zip(replica_b.tables, before_b, strict=True):
        np.testing.assert_array_equal(table.weight, before)
