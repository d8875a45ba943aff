"""Reference implementations of the training hot path: the parity oracles.

Each class or function here is the plain original of something the
production path replaced with a faster equivalent.  They are kept —
deliberately outside the ``core``/``data`` hot-path packages — for two
jobs:

* the parity test-suite asserts the production paths produce
  *bit-for-bit* identical outputs to these references (the Eq. 5
  equivalence guarantee must survive the optimisation);
* the speedup benchmarks measure the production paths against them.

The oracles:

* :func:`reference_forward` / :func:`reference_backward` — per-sample
  loops behind the batched :class:`~repro.nn.embedding.EmbeddingBag`.
* :func:`split_minibatch_reference` — the ``np.isin`` scan behind the
  bitmap :func:`~repro.core.classifier.split_minibatch`.
* :class:`SequentialHotlineTrainer` — the two-pass Hotline step (one
  gather, forward and backward per µ-batch) behind
  :class:`~repro.core.pipeline.HotlineTrainer`'s fused step.
* :class:`SequentialShardedTrainer` — one µ-batch at a time on each
  replica's own model, behind
  :class:`~repro.core.distributed.ShardedHotlineTrainer`'s single stacked
  dense pass, in every reducer mode.
* :class:`MergedGradientShardedTrainer` — every shard accumulating into one
  shared model, the sync-mode oracle of the K-replica trainer.
* :class:`ReferencePendingStore` — the dict-of-rows deferred write-back
  store behind :class:`~repro.core.lookahead.FlatPendingStore`.

Nothing in the training loop may call into this module.
"""

from __future__ import annotations

import numpy as np

from repro.core.classifier import MicroBatches, split_minibatch
from repro.core.distributed import ShardedHotlineTrainer
from repro.core.lookahead import _UNSEEN_LAYOUT, _empty_gradient
from repro.core.pipeline import HotlineTrainer
from repro.data.batch import MiniBatch
from repro.nn.embedding import (
    SparseGradient,
    merge_sparse_gradients,
    reference_backward,
    reference_forward,
)

__all__ = [
    "reference_forward",
    "reference_backward",
    "split_minibatch_reference",
    "SequentialHotlineTrainer",
    "SequentialShardedTrainer",
    "MergedGradientShardedTrainer",
    "ReferencePendingStore",
]


def split_minibatch_reference(
    batch: MiniBatch, hot_sets: list[np.ndarray]
) -> MicroBatches:
    """The pre-bitmap ``np.isin``-based split, retained as parity ground truth."""
    if len(hot_sets) != batch.num_tables:
        raise ValueError(
            f"expected {batch.num_tables} hot sets (one per table), got {len(hot_sets)}"
        )
    mask = np.ones(batch.size, dtype=bool)
    for table, hot in enumerate(hot_sets):
        if hot.size == 0:
            mask[:] = False
            break
        mask &= np.isin(batch.sparse[:, table, :], hot).all(axis=1)
    popular, non_popular = batch.split(mask)
    return MicroBatches(popular=popular, non_popular=non_popular, popular_mask=mask)


class SequentialHotlineTrainer(HotlineTrainer):
    """Hotline with the sequential two-pass step: one pass per µ-batch."""

    def train_step(self, batch: MiniBatch) -> tuple[float, MicroBatches]:
        """Train the materialised µ-batches one after the other.

        Each µ-batch runs its own gather, forward, backward and scatter;
        gradients accumulate in the layers and one update is applied.
        """
        if self.placement is None:
            raise RuntimeError("learning_phase must run before training")
        micro = split_minibatch(batch, self.placement.index)
        self.model.zero_grad()
        total_loss = 0.0
        partial_sparse: list[list[SparseGradient]] = [[] for _ in range(batch.num_tables)]
        for micro_batch in micro.segments():
            loss, sparse_grads = self.model.loss_and_gradients(
                micro_batch, normalizer=batch.size
            )
            total_loss += loss
            for table, grad in enumerate(sparse_grads):
                partial_sparse[table].append(grad)
        merged = [merge_sparse_gradients(grads) for grads in partial_sparse]
        self.model.apply_dense_update(self.lr)
        self.model.apply_sparse_updates(merged, self.lr)
        return total_loss, micro


class SequentialShardedTrainer(ShardedHotlineTrainer):
    """K-replica Hotline with one pass per µ-batch on each replica's model.

    Only the dense pass differs from the production trainer: the
    reduction, staleness deque, lookahead and partitioning are inherited,
    so the stacked pass can be checked against it in every mode.
    """

    def _dense_pass(
        self, batch: MiniBatch, parts: list[tuple[int, MicroBatches]]
    ) -> tuple[list[float], list[np.ndarray], list[list[SparseGradient]]]:
        losses: list[float] = []
        dense_partials: list[np.ndarray] = []
        sparse_partials: list[list[SparseGradient]] = [[] for _ in range(batch.num_tables)]
        for shard, micro in parts:
            model = self.replicas[shard].model
            for micro_batch in micro.segments():
                model.zero_grad()
                loss, sparse_grads = model.loss_and_gradients(
                    micro_batch, normalizer=batch.size
                )
                losses.append(loss)
                dense_partials.append(self._flat_dense_gradient(model))
                for table, grad in enumerate(sparse_grads):
                    sparse_partials[table].append(grad)
        return losses, dense_partials, sparse_partials


class MergedGradientShardedTrainer(ShardedHotlineTrainer):
    """K shards accumulating into one shared model — the sync-mode oracle.

    Every shard's µ-batch gradients accumulate in the layers of
    ``self.model`` (the functional equivalent of a dense all-reduce when
    all updates are identical) and per-table sparse gradients merge once
    across shards.  Every µ-batch is normalised by the *global* mini-batch
    size, so the accumulated K-shard update equals the single-replica one
    (Eq. 5 across shards).  The dense all-reduce is priced as one
    unbucketed collective.  The step ignores the reducer mode and the
    lookahead: it models ``sync`` training only.
    """

    def __init__(self, model, num_shards: int, **kwargs):
        super().__init__(
            model,
            num_shards,
            bucket_bytes=max(4, model.num_dense_parameters * 4),
            **kwargs,
        )

    def train_step(self, batch: MiniBatch) -> tuple[float, float]:
        """One merged-gradient step over the K shards of ``batch``.

        Returns:
            ``(loss, popular_fraction)`` summed / averaged over the batch.
        """
        if any(replica.placement is None for replica in self.replicas):
            raise RuntimeError("learning_phase must run before training")
        self.model.zero_grad()
        total_loss = 0.0
        popular_size = 0
        partial_sparse: list[list[SparseGradient]] = [[] for _ in range(batch.num_tables)]
        for shard_batch, replica in zip(batch.shards(self.num_shards), self.replicas, strict=True):
            if shard_batch.size == 0:
                continue
            micro = split_minibatch(shard_batch, replica.placement.index)
            popular_size += micro.popular.size
            for micro_batch in micro.segments():
                loss, sparse_grads = self.model.loss_and_gradients(
                    micro_batch, normalizer=batch.size
                )
                total_loss += loss
                for table, grad in enumerate(sparse_grads):
                    partial_sparse[table].append(grad)
        merged = [merge_sparse_gradients(grads) for grads in partial_sparse]
        self.model.apply_dense_update(self.lr)
        self.model.apply_sparse_updates(merged, self.lr)
        popular_fraction = popular_size / batch.size if batch.size else 0.0
        return total_loss, popular_fraction


class ReferencePendingStore:
    """Dict-of-rows deferred write-back store — the bit-parity reference.

    The original (pre-flat-store) implementation: one ``dict[int,
    np.ndarray]`` of accumulated gradient rows plus one ``dict[int, int]``
    of birth steps per table.  Every ``defer``/``take`` walks the step's
    rows in the Python interpreter — O(nnz) dict churn per training step —
    which is exactly the overhead
    :class:`~repro.core.lookahead.FlatPendingStore` removes.  It is the
    ground truth the parity suite and the pending-store benchmark compare
    against; to run a pipeline on it, assign it to
    :attr:`~repro.core.lookahead.CachedEmbeddingPipeline.pending` right
    after construction.
    """

    def __init__(self, rows_per_table: tuple[int, ...]):
        self.rows_per_table = tuple(int(rows) for rows in rows_per_table)
        self._pending: list[dict[int, np.ndarray]] = [{} for _ in self.rows_per_table]
        self._births: list[dict[int, int]] = [{} for _ in self.rows_per_table]
        self._layout = _UNSEEN_LAYOUT

    @property
    def num_tables(self) -> int:
        """Number of tables the store covers."""
        return len(self.rows_per_table)

    @property
    def total_pending(self) -> int:
        """Deferred (not yet written back) rows across tables."""
        return sum(len(pending) for pending in self._pending)

    def pending_count(self, table: int) -> int:
        """Deferred rows of one table."""
        return len(self._pending[table])

    @property
    def pending_bytes(self) -> int:
        """Bytes held by the dict store (value rows + per-row id/birth ints).

        API symmetry with :attr:`~repro.core.lookahead.FlatPendingStore.pending_bytes`; the dict
        store is inherently window-bounded (it only ever holds deferred
        rows), it just pays the interpreter for it.
        """
        total = 0
        for pending in self._pending:
            for value in pending.values():
                total += value.nbytes + 16
        return total

    def defer(self, table: int, grad: SparseGradient, step: int) -> None:
        """Accumulate one merged gradient; new rows are born at ``step``."""
        self._layout = (grad.values.shape[1], grad.values.dtype)
        pending = self._pending[table]
        births = self._births[table]
        for row, value in zip(grad.indices.tolist(), grad.values, strict=True):
            if row in pending:
                pending[row] = pending[row] + value
            else:
                pending[row] = value.copy()
                births[row] = step

    def pending_mask(self, table: int, rows: np.ndarray) -> np.ndarray:
        """Boolean mask over ``rows``: True where the row is deferred."""
        pending = self._pending[table]
        return np.fromiter(
            (int(row) in pending for row in rows), dtype=bool, count=rows.size
        )

    def aged_rows(self, table: int, step: int, staleness: int) -> np.ndarray:
        """Sorted rows whose oldest contribution is ``staleness`` steps old."""
        births = self._births[table]
        aged = sorted(row for row, birth in births.items() if step - birth >= staleness)
        return np.asarray(aged, dtype=np.int64)

    def birth_steps(self, table: int) -> dict[int, int]:
        """``{row: birth step}`` of one table's deferred rows (tests)."""
        return dict(self._births[table])

    def take(self, table: int, rows: np.ndarray) -> SparseGradient:
        """Remove the deferred subset of ``rows`` as one sparse gradient.

        ``rows`` must be sorted; rows with nothing pending are skipped, so
        the result's indices are the sorted deferred subset.
        """
        pending = self._pending[table]
        births = self._births[table]
        taken = [int(row) for row in rows if int(row) in pending]
        if not taken:
            return _empty_gradient(self._layout)
        values = np.stack([pending.pop(row) for row in taken], axis=0)
        for row in taken:
            births.pop(row, None)
        return SparseGradient(np.asarray(taken, dtype=np.int64), values)

    def take_all(self, table: int) -> SparseGradient:
        """Remove and return everything deferred for one table."""
        return self.take(table, np.asarray(sorted(self._pending[table]), dtype=np.int64))

    def clear(self) -> None:
        """Drop all deferred gradients and their birth steps."""
        for pending, births in zip(self._pending, self._births, strict=True):
            pending.clear()
            births.clear()
