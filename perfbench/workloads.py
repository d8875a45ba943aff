"""The benchmark's workloads: one model, trainer and input size each.

Importing this module does not import numpy or the library, so the parent
process (``run.py``) can list workloads without loading BLAS; :meth:`build`
imports the library inside the worker process, after the BLAS pin is set.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

#: Seed of the fixed synthetic dataset every run samples from.  ``--seed``
#: draws the samples, their order and the initial weights; a fixed dataset
#: keeps the held-out quality comparable across seeds, as with a real one.
DATASET_SEED = 2024
#: SGD learning rate of every workload (the fig18 AUC benchmark's rate).
LEARNING_RATE = 0.3


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    Attributes:
        name: Workload name as passed to ``--workload``.
        why: The layer mix the workload stresses (one line).
        model: ``"dlrm"`` (RM2, the Figure 18 model) or ``"tbsm"`` (RM1,
            the Taobao model).
        max_rows: Row cap per embedding table (``ModelConfig.scaled``).
        batch_size: Samples per mini-batch.
        epoch_batches: Mini-batches per epoch of the generated training log.
        eval_samples: Held-out samples carved from the tail of the same log.
        warmup_steps: Steps run before timing starts; they absorb lazy
            one-time work (GEMM row-stability certification, buffer pools)
            and count toward ``setup_s``.
        quality_steps: Timed steps after which the held-out batch is scored;
            a fixed count, so ``final_auc``/``final_logloss`` depend only on
            the seed, never on how fast the host ran.
        auc_floor: ``final_auc`` must exceed this for the run to be correct.
        shards: ``1`` trains with ``HotlineTrainer``; ``K > 1`` with
            ``ShardedHotlineTrainer`` over K replicas.
        mode: Reducer mode of the sharded trainer.
        lookahead_window: Lookahead cache window of the sharded trainer.
    """

    name: str
    why: str
    model: str
    max_rows: int
    batch_size: int
    epoch_batches: int
    eval_samples: int
    warmup_steps: int
    quality_steps: int
    auc_floor: float
    shards: int = 1
    mode: str = "sync"
    lookahead_window: int = 0

    @property
    def train_samples(self) -> int:
        """Samples in one epoch of the training part of the log."""
        return self.epoch_batches * self.batch_size

    def smoke(self) -> Workload:
        """A tiny-length copy that runs every code path in a few seconds."""
        return replace(
            self,
            epoch_batches=4,
            eval_samples=512,
            warmup_steps=2,
            quality_steps=3,
            auc_floor=0.0,
        )

    def config(self):
        """The model configuration (imports the library)."""
        from repro.models import RM1, RM2

        base = RM2 if self.model == "dlrm" else RM1
        return base.scaled(max_rows_per_table=self.max_rows)

    def build(self, seed: int):
        """A fresh model and trainer for ``seed`` (imports the library)."""
        from repro.core.distributed import ShardedHotlineTrainer
        from repro.core.pipeline import HotlineTrainer
        from repro.models.dlrm import DLRM
        from repro.models.tbsm import TBSM

        config = self.config()
        model = (DLRM if self.model == "dlrm" else TBSM)(config, seed=seed)
        if self.shards == 1:
            return HotlineTrainer(model, lr=LEARNING_RATE)
        return ShardedHotlineTrainer(
            model,
            self.shards,
            lr=LEARNING_RATE,
            mode=self.mode,
            lookahead_window=self.lookahead_window,
        )


# Why these three: Hotline moves the bottleneck between dense compute and
# embedding traffic, and BagPipe-style lookahead defers sparse writes.  One
# workload is dense-bound, one adds the K-replica sync collectives on the
# same dense kernels, and one is sparse/lookahead-bound, so a change to one
# layer shows on the workload that exercises it and not on one that bypasses
# it.
WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="fig18-single",
            why=(
                "RM2 fig18 model on one HotlineTrainer: dense GEMM/interaction-bound, "
                "no collectives or lookahead"
            ),
            model="dlrm",
            max_rows=1200,
            batch_size=256,
            epoch_batches=200,
            eval_samples=8192,
            warmup_steps=20,
            quality_steps=150,
            auc_floor=0.68,
        ),
        Workload(
            name="fig18-k4-sync",
            why=(
                "same model and data on K=4 sync replicas: same dense kernels plus "
                "sharding glue, bucket reduce and sparse exchange"
            ),
            model="dlrm",
            max_rows=1200,
            batch_size=256,
            epoch_batches=200,
            eval_samples=8192,
            warmup_steps=20,
            quality_steps=150,
            auc_floor=0.68,
            shards=4,
            mode="sync",
        ),
        Workload(
            name="taobao-k4-stale2-lookahead",
            why=(
                "RM1 TBSM with 100k-row tables on K=4 stale-2 replicas with an 8-batch "
                "lookahead cache: sparse/lookahead-bound"
            ),
            model="tbsm",
            max_rows=100_000,
            batch_size=1024,
            epoch_batches=256,
            eval_samples=16384,
            warmup_steps=30,
            quality_steps=300,
            auc_floor=0.55,
            shards=4,
            mode="stale-2",
            lookahead_window=8,
        ),
    )
}
