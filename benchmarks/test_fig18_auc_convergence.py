"""Figure 18 / Table V companion — AUC convergence: baseline vs Hotline.

Paper claim: Hotline's µ-batch schedule follows the baseline's training and
test accuracy exactly — the AUC curves coincide because the parameter
updates are identical.  A second check trains the same run in float64
(``dtype_bytes=8``) and bounds how far the default float32 AUC curve may
sit from it (:data:`FLOAT32_AUC_TOLERANCE`).
"""

from dataclasses import replace

import pytest

from repro.analysis.report import format_table
from repro.core.accelerator import HotlineAccelerator
from repro.core.eal import EALConfig
from repro.core.pipeline import HotlineTrainer, ReferenceTrainer
from repro.data import MiniBatchLoader, generate_click_log
from repro.models import RM2
from repro.models.dlrm import DLRM


#: Largest absolute AUC change at any evaluation point, float32 vs float64
#: (measured 4.1e-6 on a 2-core x86-64 host with OpenBLAS).
FLOAT32_AUC_TOLERANCE = 1e-3


def run_convergence(dtype_bytes=4, *, reference=True):
    config = replace(
        RM2.scaled(max_rows_per_table=1200, samples_per_epoch=3072), dtype_bytes=dtype_bytes
    )
    log = generate_click_log(config.dataset, 3072, seed=41)
    loader = MiniBatchLoader(log, batch_size=256)
    eval_batch = log.batch(2048, 1024)

    accelerator = HotlineAccelerator(
        row_bytes=config.embedding_dim * 4, eal_config=EALConfig(size_bytes=1 << 17, ways=16)
    )
    hotline = HotlineTrainer(DLRM(config, seed=13), accelerator, lr=0.3, sample_fraction=0.25)
    hotline.learning_phase(loader)
    hotline_result = hotline.train(loader, epochs=2, eval_batch=eval_batch, eval_every=2)
    if not reference:
        return hotline_result, None

    reference = ReferenceTrainer(DLRM(config, seed=13), lr=0.3)
    reference_result = reference.train(loader, epochs=2, eval_batch=eval_batch, eval_every=2)
    return hotline_result, reference_result


def test_fig18_auc_curves_coincide(benchmark):
    hotline_result, reference_result = benchmark.pedantic(run_convergence, rounds=1, iterations=1)
    rows = [
        (it_b, round(auc_b, 4), round(auc_h, 4))
        for (it_b, auc_b), (_, auc_h) in zip(
            reference_result.auc_history, hotline_result.auc_history, strict=True
        )
    ]
    print()
    print(
        format_table(
            ["iteration", "baseline AUC", "Hotline AUC"],
            rows,
            title="Figure 18: AUC convergence (scaled Criteo Kaggle)",
        )
    )
    # The two curves are identical point-for-point.
    for (it_b, auc_b), (it_h, auc_h) in zip(
        reference_result.auc_history, hotline_result.auc_history, strict=True
    ):
        assert it_b == it_h
        assert auc_h == pytest.approx(auc_b, abs=1e-9)
    # And training actually converges to a useful AUC.
    assert hotline_result.final_metrics["auc"] > 0.6


def test_fig18_float32_auc_curve_within_bound_of_float64():
    """The float32 AUC curve stays within the stated bound of float64's."""
    result_32, _ = run_convergence(dtype_bytes=4, reference=False)
    result_64, _ = run_convergence(dtype_bytes=8, reference=False)
    worst = 0.0
    for (it_32, auc_32), (it_64, auc_64) in zip(
        result_32.auc_history, result_64.auc_history, strict=True
    ):
        assert it_32 == it_64
        worst = max(worst, abs(auc_32 - auc_64))
    print(f"\nfig18 float32 vs float64: worst |AUC delta| {worst:.2e}")
    assert worst <= FLOAT32_AUC_TOLERANCE
    assert result_32.final_metrics["auc"] > 0.6
