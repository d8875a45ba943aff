"""Tests of the benchmark itself: tracing hygiene, accounting, names, smoke."""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import worker
from perfbench.run import END_TO_END_UNITS
from perfbench.tracing import _MAIN_LAYER, PER_LAYER_UNITS, Tracer, entry_points
from perfbench.workloads import WORKLOADS
from repro.core.engine import StepExecutor, StepOutcome

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


@pytest.fixture(scope="module")
def traced_reports():
    """One tiny traced run per workload, in this process."""
    return {
        name: worker.run(workload.smoke(), seed=3, seconds=0.3, mode="trace")
        for name, workload in WORKLOADS.items()
    }


def test_uninstall_restores_every_entry_point():
    originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, _n, _m in entry_points()]
    tracer = Tracer()
    tracer.install()
    try:
        assert all(owner.__dict__[attr] is not fn for owner, attr, fn in originals)
    finally:
        tracer.uninstall()
    assert all(owner.__dict__[attr] is fn for owner, attr, fn in originals)


def test_traced_run_leaves_code_unpatched(traced_reports):
    originals = {(id(owner), attr): owner.__dict__[attr] for owner, attr, _n, _m in entry_points()}
    for owner, attr, _n, _m in entry_points():
        assert getattr(owner.__dict__[attr], "__wrapped__", None) is None, (owner, attr)
        assert owner.__dict__[attr] is originals[(id(owner), attr)]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_self_times_add_up_to_the_step_wall(traced_reports, workload):
    report = traced_reports[workload]
    layers = report["layers"]
    assert set(layers) == set(PER_LAYER_UNITS)
    for name, unit in PER_LAYER_UNITS.items():
        if unit == "ms":
            assert layers[name] >= 0.0, name
    main_thread = sum(layers[m] for m in set(_MAIN_LAYER.values()))
    assert main_thread + layers["trace.unattributed_ms"] == pytest.approx(
        layers["trace.step_ms"], rel=1e-9, abs=1e-9
    )
    assert abs(report["residual_ms"]) < 1e-9
    assert layers["trace.step_ms"] > 0.0
    assert math.isfinite(layers["trace.overhead_pct"])
    trace = json.loads((ROOT / report["trace_file"]).read_text())
    assert any(event["ph"] == "X" for event in trace["traceEvents"])


def test_layers_run_where_the_workload_says(traced_reports):
    single = traced_reports["fig18-single"]["layers"]
    k4 = traced_reports["fig18-k4-sync"]["layers"]
    taobao = traced_reports["taobao-k4-stale2-lookahead"]["layers"]
    assert single["core.reducer.reduce_ms"] == 0.0 and k4["core.reducer.reduce_ms"] > 0.0
    assert single["core.distributed.self_ms"] == 0.0 and single["core.pipeline.self_ms"] > 0.0
    assert k4["core.lookahead.observe_ms"] == 0.0 and taobao["core.lookahead.observe_ms"] > 0.0
    assert taobao["nn.attention.fwd_ms"] > 0.0 and taobao["nn.interaction.fwd_ms"] == 0.0
    for layers in (single, k4, taobao):
        assert layers["nn.gemm.gflops"] > 0.0
        assert layers["nn.embedding.lookups"] > 0.0


def test_metric_names_are_well_formed_and_listed():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for name in list(END_TO_END_UNITS) + list(PER_LAYER_UNITS) + list(WORKLOADS):
        assert NAME.match(name), name
    assert [m["name"] for m in spec["end_to_end"]] == list(END_TO_END_UNITS)
    assert [m["name"] for m in spec["per_layer"]] == list(PER_LAYER_UNITS)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for metric in spec["end_to_end"]:
        assert metric["unit"] == END_TO_END_UNITS[metric["name"]]
    for metric in spec["per_layer"]:
        assert metric["unit"] == PER_LAYER_UNITS[metric["name"]]


def test_quality_repeats_exactly_at_one_seed():
    workload = WORKLOADS["fig18-single"].smoke()
    first = worker.run(workload, seed=5, seconds=0.1, mode="run")
    second = worker.run(workload, seed=5, seconds=0.1, mode="run")
    assert first["final_auc"] == second["final_auc"]
    assert first["final_logloss"] == second["final_logloss"]


class _NanTrainer(StepExecutor):
    """Every other step reports a non-finite loss."""

    model = None

    def __init__(self):
        self.calls = 0

    def run_step(self, batch):
        self.calls += 1
        return StepOutcome(loss=float("nan") if self.calls % 2 else 1.0)

    def prepare_batch(self, batch):
        return batch


def test_non_finite_losses_count_as_failed_steps():
    from repro.core.engine import TrainingEngine
    from repro.data import generate_click_log

    workload = WORKLOADS["fig18-single"].smoke()
    log = generate_click_log(workload.config().dataset, workload.train_samples, seed=1)
    loader = worker.BoundedLoader(log, workload.batch_size, seed=1, clock=worker.BusyClock())
    segments = [worker.Segment(0.0, traced=False)]
    probe = worker.Probe(
        _NanTrainer(), loader, workload, segments, score=lambda m: {}, tracer=None
    )
    TrainingEngine(probe).train(loader, epochs=3)
    assert probe.attempted == workload.warmup_steps + workload.quality_steps
    assert probe.failed == (probe.attempted + 1) // 2


def _bench(args, cwd):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_smoke_mode_runs_every_workload():
    proc = _bench(["--smoke"], ROOT)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.strip().splitlines()[-1])["correct"] is True


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench(["--workload", "fig18-single", "--seed", "1", "--seconds", "1",
                   "--trace", "0"], tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
