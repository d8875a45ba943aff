"""Table V — accuracy metrics (accuracy / AUC / log-loss), DLRM vs Hotline.

Paper claim: the metrics are *identical* between the baseline and Hotline on
every dataset, because Hotline only reorders inputs within a mini-batch.
The parity check trains in float64 (``dtype_bytes=8``), where reordering
moves no metric by more than ``1e-9``.  A second check trains Hotline in
float32, the default, and bounds how far each metric may move from the
float64 run (:data:`FLOAT32_TOLERANCE`).
"""

from dataclasses import replace

import pytest

from repro.analysis.report import format_table
from repro.core.accelerator import HotlineAccelerator
from repro.core.eal import EALConfig
from repro.core.pipeline import HotlineTrainer, ReferenceTrainer
from repro.data import MiniBatchLoader, generate_click_log
from repro.models import RM1, RM2, RM4
from repro.models.dlrm import DLRM
from repro.models.tbsm import TBSM

#: Largest absolute change of each metric, float32 vs float64 training.
#: Measured on a 2-core x86-64 host with OpenBLAS: accuracy 0, AUC <= 1.7e-5,
#: log-loss <= 1.5e-9.  512 held-out samples, so one flipped prediction
#: moves accuracy by 0.002.
FLOAT32_TOLERANCE = {"accuracy": 4e-3, "auc": 1e-3, "logloss": 1e-3}

SCALED = [
    ("Criteo Kaggle", RM2.scaled(max_rows_per_table=800), DLRM),
    ("Taobao Alibaba", RM1.scaled(max_rows_per_table=800), TBSM),
    ("Avazu", RM4.scaled(max_rows_per_table=800), DLRM),
]


def run_all(dtype_bytes=8, *, baseline=True):
    rows = []
    for label, config, model_cls in SCALED:
        config = replace(config, dtype_bytes=dtype_bytes)
        log = generate_click_log(config.dataset, 2048, seed=51)
        loader = MiniBatchLoader(log, batch_size=256)
        eval_batch = log.batch(1536, 512)
        accelerator = HotlineAccelerator(
            row_bytes=config.embedding_dim * 4,
            eal_config=EALConfig(size_bytes=1 << 16, ways=16),
        )
        hotline = HotlineTrainer(
            model_cls(config, seed=29), accelerator, lr=0.2, sample_fraction=0.3
        )
        hotline.learning_phase(loader)
        hotline_metrics = hotline.train(loader, epochs=2, eval_batch=eval_batch).final_metrics
        baseline_metrics = None
        if baseline:
            baseline_metrics = (
                ReferenceTrainer(model_cls(config, seed=29), lr=0.2)
                .train(loader, epochs=2, eval_batch=eval_batch)
                .final_metrics
            )
        rows.append((label, baseline_metrics, hotline_metrics))
    return rows


def test_table5_accuracy_parity(benchmark):
    rows = benchmark.pedantic(run_all, rounds=1, iterations=1)
    printable = [
        (
            label,
            round(base["accuracy"] * 100, 2),
            round(base["auc"], 4),
            round(base["logloss"], 4),
            round(hot["accuracy"] * 100, 2),
            round(hot["auc"], 4),
            round(hot["logloss"], 4),
        )
        for label, base, hot in rows
    ]
    print()
    print(
        format_table(
            ["dataset", "DLRM acc%", "DLRM AUC", "DLRM logloss",
             "Hotline acc%", "Hotline AUC", "Hotline logloss"],
            printable,
            title="Table V: accuracy metrics, baseline vs Hotline (scaled datasets)",
        )
    )
    for label, base, hot in rows:
        assert hot["accuracy"] == pytest.approx(base["accuracy"], abs=1e-9), label
        assert hot["auc"] == pytest.approx(base["auc"], abs=1e-9), label
        assert hot["logloss"] == pytest.approx(base["logloss"], abs=1e-9), label


def test_table5_float32_quality_within_bound_of_float64():
    """Training in float32 moves no Table V metric past its stated bound."""
    rows_64 = run_all(dtype_bytes=8, baseline=False)
    rows_32 = run_all(dtype_bytes=4, baseline=False)
    for (label, _, hot_64), (_, _, hot_32) in zip(rows_64, rows_32, strict=True):
        for metric, bound in FLOAT32_TOLERANCE.items():
            delta = abs(hot_32[metric] - hot_64[metric])
            print(f"{label} {metric}: float32 {hot_32[metric]:.6f} "
                  f"float64 {hot_64[metric]:.6f} |delta| {delta:.2e}")
            assert delta <= bound, (label, metric)
