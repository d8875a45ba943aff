"""Cross-table stacked fusion: parity, sparse-path crossover, step time.

PR 6's :class:`~repro.nn.embedding.StackedEmbeddingStore` concatenates all
embedding tables of one model into a single ``(sum_rows, dim)`` buffer so
the fused µ-batch step issues **one** gather and **one** segmented scatter
per *step* instead of per table.  The combined layout is bit-identical to
the per-table path (same per-bucket ``np.add.at`` addition order — see the
module docstring of :mod:`repro.nn.embedding`), which this benchmark
asserts end-to-end before timing anything.

Two measurements:

* **Sparse-path crossover** — gather+pool+scatter alone, swept over
  (tables, batch).  This is where stacking actually pays: measured on the
  single-core container, stacked wins ~2.1-2.7x at 26 tables (the RM2
  shape) and ~3.4-4.6x at 64 tables; even at 8 tables it holds a
  ~1.4-1.7x edge, shrinking toward parity as the per-step work gets too
  small to amortise the stacked key sort.  The 26-table/batch-2048 point
  is gated >= 1.25x under ``BENCH_STRICT``.
* **End-to-end fig18-style step at batch 2048** — Amdahl-capped: the MLP
  and interaction GEMMs dominate the step, so the measured end-to-end
  ratio is ~0.99-1.01x.  That is why ``stacked`` defaults to **False**
  (opt-in knob on DLRM/TBSM): the feature was gated on the end-to-end
  benchmark winning at batch 2048, and it does not — it only wins where
  the sparse path is the bottleneck.  Recorded, not gated, so the artifact
  tracks when a future MLP optimisation shifts the balance.

  Re-measured after PR 7's packed dense path: still ~0.98-1.00x at batch
  2048 — packing trims GEMM-launch overhead, not GEMM FLOPs, so the dense
  share (~90% measured via ``StepOutcome.dense_time_s``) remains the
  bottleneck at large batch and the default stays per-table.  See ROADMAP
  item 4 for the measured crossover ratio this records.
"""

import os
import time

import numpy as np

from benchmarks.figutils import record_bench
from repro.core.accelerator import HotlineAccelerator
from repro.core.eal import EALConfig
from repro.core.pipeline import HotlineTrainer
from repro.data import MiniBatchLoader, generate_click_log
from repro.models import RM2
from repro.models.dlrm import DLRM
from repro.nn.embedding import (
    EmbeddingBag,
    StackedEmbeddingStore,
    stacked_segmented_scatter,
)

#: The stacked sparse path must beat per-table by this factor at the RM2
#: table count (26) and batch 2048 — measured ~1.6x on one core.
MIN_SPARSE_SPEEDUP = 1.25
#: End-to-end the stacked step must stay within noise of per-table.
MAX_STEP_SLOWDOWN = 1.05


def make_trainer(config, log, stacked, batch_size):
    accelerator = HotlineAccelerator(
        row_bytes=config.embedding_dim * 4,
        eal_config=EALConfig(size_bytes=1 << 17, ways=16),
    )
    trainer = HotlineTrainer(
        DLRM(config, seed=13, stacked=stacked),
        accelerator,
        lr=0.3,
        sample_fraction=0.25,
    )
    trainer.learning_phase(MiniBatchLoader(log, batch_size=batch_size))
    return trainer


def sparse_path_best_of(num_tables, batch_size, *, dim=16, rows=1200, rounds=7):
    """Best-of interleaved times of the two sparse paths, in seconds."""
    rng = np.random.default_rng(num_tables * 100_003 + batch_size)
    def make_tables():
        return [
            EmbeddingBag(rows, dim, np.random.default_rng(t), dtype=np.float64)
            for t in range(num_tables)
        ]

    tables = make_tables()
    store = StackedEmbeddingStore(make_tables())
    sparse = rng.integers(0, rows, size=(batch_size, num_tables, 1))
    half = batch_size // 2
    segments = [np.arange(0, half), np.arange(half, batch_size)]
    grads = rng.standard_normal((batch_size, num_tables, 1, dim))
    segment_ids = np.repeat(np.arange(2), [half, batch_size - half])

    def per_table():
        out = []
        for t in range(num_tables):
            tables[t].weight[sparse[:, t]].sum(axis=1)
            per_segment = []
            for segment in segments:
                flat_idx = sparse[segment][:, t].reshape(-1)
                flat_grad = grads[segment][:, t].reshape(-1, dim)
                unique, inverse = np.unique(flat_idx, return_inverse=True)
                acc = np.zeros((unique.size, dim))
                np.add.at(acc, inverse, flat_grad)
                per_segment.append((unique, acc))
            out.append(per_segment)
        return out

    def stacked():
        block = store.stacked_indices(sparse)
        gathered = store.gather(block)
        _ = [gathered[:, t].sum(axis=1) for t in range(num_tables)]
        return stacked_segmented_scatter(
            block.reshape(-1),
            grads.reshape(-1, dim),
            np.repeat(segment_ids, num_tables),
            2,
            store.offsets,
            dim,
        )

    best = {"per_table": np.inf, "stacked": np.inf}
    for round_index in range(rounds):
        contenders = [("per_table", per_table), ("stacked", stacked)]
        if round_index % 2:
            contenders.reverse()
        for name, fn in contenders:
            start = time.perf_counter()
            fn()
            best[name] = min(best[name], time.perf_counter() - start)
    return best["per_table"], best["stacked"]


def test_stacked_sparse_path_crossover():
    """Where one-gather-one-scatter beats the per-table loop, and by what."""
    strict = bool(os.environ.get("BENCH_STRICT"))
    print("\nstacked sparse-path crossover (gather+pool+scatter, best-of):")
    gated_speedup = None
    for num_tables in (8, 26, 64):
        for batch_size in (256, 2048):
            per_table_s, stacked_s = sparse_path_best_of(num_tables, batch_size)
            speedup = per_table_s / stacked_s
            print(
                f"  T={num_tables:3d} B={batch_size:5d}: per-table "
                f"{per_table_s * 1e3:7.2f} ms, stacked {stacked_s * 1e3:7.2f} ms, "
                f"{speedup:.2f}x"
            )
            if num_tables == 26 and batch_size == 2048:
                gated_speedup = speedup
                record_bench(
                    "stacked_sparse_path_T26",
                    config="26 tables x 1200 rows, dim 16, batch 2048, "
                    "2 segments, stacked vs per-table gather+scatter",
                    seconds=stacked_s,
                    speedup=speedup,
                    gate=MIN_SPARSE_SPEEDUP,
                    enforced=strict,
                )
    if strict:
        assert gated_speedup >= MIN_SPARSE_SPEEDUP


def test_stacked_step_matches_and_records_batch_2048(benchmark):
    config = RM2.scaled(max_rows_per_table=1200, samples_per_epoch=8192)
    log = generate_click_log(config.dataset, 8192, seed=51)
    batch_size = 2048
    batches = list(MiniBatchLoader(log, batch_size=batch_size))

    per_table = make_trainer(config, log, stacked=False, batch_size=batch_size)
    stacked = make_trainer(config, log, stacked=True, batch_size=batch_size)

    # Bit-identity first (one full epoch): losses and every parameter.
    per_table_losses = [per_table.train_step(batch)[0] for batch in batches]
    stacked_losses = [stacked.train_step(batch)[0] for batch in batches]
    assert stacked_losses == per_table_losses
    stacked_state = stacked.model.state_snapshot()
    for key, value in per_table.model.state_snapshot().items():
        np.testing.assert_array_equal(stacked_state[key], value, err_msg=key)

    rounds = 6
    per_table_steps = np.full(len(batches), np.inf)
    stacked_steps = np.full(len(batches), np.inf)
    for round_index in range(rounds):
        for i, batch in enumerate(batches):
            contenders = [
                (per_table, per_table_steps),
                (stacked, stacked_steps),
            ]
            if round_index % 2:
                contenders.reverse()
            for trainer, steps in contenders:
                start = time.perf_counter()
                trainer.train_step(batch)
                steps[i] = min(steps[i], time.perf_counter() - start)
    best_per_table = float(per_table_steps.sum())
    best_stacked = float(stacked_steps.sum())
    benchmark.pedantic(
        lambda: [stacked.train_step(batch) for batch in batches],
        rounds=1,
        iterations=1,
    )
    speedup = best_per_table / best_stacked
    strict = bool(os.environ.get("BENCH_STRICT"))
    print(
        f"\nfig18-style epoch at batch {batch_size} ({len(batches)} steps): "
        f"per-table {best_per_table * 1e3:.1f} ms, stacked "
        f"{best_stacked * 1e3:.1f} ms, speedup {speedup:.3f}x "
        f"(bit-identical losses; Amdahl-capped, stacked stays opt-in)"
    )
    record_bench(
        "stacked_step_fig18_batch2048",
        config="RM2.scaled(1200) batch=2048, 26 tables, stacked vs "
        "per-table fused epoch",
        seconds=best_stacked / len(batches),
        speedup=speedup,
        gate=1.0 / MAX_STEP_SLOWDOWN,
        enforced=strict,
    )
    if strict:
        assert best_stacked <= best_per_table * MAX_STEP_SLOWDOWN
