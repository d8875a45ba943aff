"""One benchmark process: set up a workload, train it, and report.

Run by ``run.py`` as ``python -m perfbench.worker ...`` with the BLAS pools
already pinned in the environment.  Prints one JSON object as its last line.

Modes:

* ``setup`` -- construct, bind and run the warm-up steps, then stop.  The
  parent runs several of these in fresh processes, so every ``setup_s``
  sample pays the process's lazy one-time work.
* ``run`` -- setup, then one untraced timed segment of ``--seconds``.
* ``trace`` -- setup, an untraced segment and a traced segment of
  ``--seconds / 2`` each; reports the per-layer table and writes the spans
  as a Chrome trace.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, thread_time

import numpy as np

from perfbench.tracing import (
    ITERATION,
    LOADER_WAIT,
    RUN_STEP,
    Tracer,
    layer_metrics,
    write_chrome_trace,
)
from perfbench.workloads import DATASET_SEED, WORKLOADS, Workload
from repro.core.engine import StepExecutor, TrainingEngine
from repro.data import MiniBatchLoader, generate_click_log
from repro.data.synthetic import SyntheticClickLog
from repro.nn.metrics import log_loss, roc_auc

OUT_DIR = Path(__file__).resolve().parent / "out"


def held_out_quality(model, log: SyntheticClickLog, chunk: int) -> dict:
    """AUC and log-loss of ``model`` on every sample of ``log``.

    Predicts in chunks of training-batch size, so scoring does not set the
    process's peak memory.
    """
    probabilities = np.concatenate(
        [model.predict(log.batch(lo, chunk)) for lo in range(0, log.num_samples, chunk)]
    )
    return {
        "auc": roc_auc(log.labels, probabilities),
        "logloss": log_loss(log.labels, probabilities),
    }


def subset(log: SyntheticClickLog, rows: np.ndarray) -> SyntheticClickLog:
    """The samples ``rows`` of ``log`` as a log of their own."""
    return SyntheticClickLog(
        spec=log.spec,
        dense=log.dense[rows],
        sparse=log.sparse[rows],
        labels=log.labels[rows],
        rank_to_row=log.rank_to_row,
    )


class BusyClock:
    """Wall time and busy time of the training thread.

    Busy time is the thread's CPU time plus the wall time it spends blocked
    on the loader.  Linux accounts hypervisor steal apart from a thread's CPU
    time, so busy time is wall time minus the time the host stole from the
    training thread.  On a shared virtual machine steal comes in phases of
    minutes (up to a quarter of the CPU was measured), which moved wall-time
    figures by 2x between runs; busy time is what the program costs.
    """

    def __init__(self) -> None:
        self.blocked = 0.0

    def now(self) -> tuple[float, float]:
        """``(wall, busy)`` seconds; only differences are meaningful."""
        return perf_counter(), thread_time() + self.blocked


class BoundedLoader(MiniBatchLoader):
    """A shuffled loader whose epochs end as soon as ``stopped`` is set.

    The benchmark measures for a time budget, not a fixed number of epochs;
    stopping the epoch iterator lets the engine leave its loop normally
    (draining pipelined state in ``finalize``).  Each wait of the training
    loop on the iterator adds its blocked time to ``clock``; with a tracer
    attached it is also a ``data.loader.wait`` span.
    """

    def __init__(self, log: SyntheticClickLog, batch_size: int, *, seed: int, clock: BusyClock):
        super().__init__(log, batch_size, shuffle=True, seed=seed)
        self.clock = clock
        self.stopped = False
        self.tracer: Tracer | None = None

    def epoch(self, prefetch=None, transform=None):
        if self.stopped:
            return iter(())
        return self._until_stopped(super().epoch(prefetch=prefetch, transform=transform))

    def _until_stopped(self, batches):
        try:
            while not self.stopped:
                tracer = self.tracer
                span = tracer.begin(LOADER_WAIT) if tracer is not None else None
                wall, cpu = perf_counter(), thread_time()
                try:
                    batch = next(batches)
                except StopIteration:
                    return
                finally:
                    self.clock.blocked += (perf_counter() - wall) - (thread_time() - cpu)
                    if span is not None:
                        tracer.end(span)
                yield batch
        finally:
            close = getattr(batches, "close", None)
            if close is not None:
                close()


#: Timed segments are cut into this many runs of consecutive steps.  Each
#: timing is computed per window and the median over the windows is reported,
#: so a burst of host noise moves one window rather than the whole figure.
WINDOWS = 10


@dataclass
class Segment:
    """A timed stretch of steady-state steps, traced or not.

    Per step it keeps the ``run_step`` time (``step``) and the engine
    iteration time (``iteration``: from the end of the previous step, or the
    segment start, to the end of this one, so loader waits and the engine's
    own work count and the held-out scoring does not), each as wall and busy
    seconds (see :class:`BusyClock`).
    """

    seconds: float
    traced: bool
    start: float = 0.0
    paused: float = 0.0
    boundary: tuple[float, float] = (0.0, 0.0)
    sizes: list[int] = field(default_factory=list)
    step: list[tuple[float, float]] = field(default_factory=list)
    iteration: list[tuple[float, float]] = field(default_factory=list)
    outcomes: list = field(default_factory=list)
    spans: list = field(default_factory=list)

    def _windowed(self, statistic) -> float:
        """Median over :data:`WINDOWS` step windows of ``statistic(window)``."""
        steps = np.arange(len(self.sizes))
        windows = np.array_split(steps, min(WINDOWS, steps.size))
        return float(np.median([statistic(w) for w in windows]))

    def samples_per_s(self, busy: bool = True) -> float:
        sizes, times = np.asarray(self.sizes), np.asarray(self.iteration)[:, int(busy)]
        return self._windowed(lambda w: sizes[w].sum() / times[w].sum())

    def step_ms(self, q: float, busy: bool = True) -> float:
        times = np.asarray(self.step)[:, int(busy)] * 1e3
        return self._windowed(lambda w: np.percentile(times[w], q))

    def summary(self) -> dict:
        return {
            "traced": self.traced,
            "steps": len(self.sizes),
            "samples": int(sum(self.sizes)),
            "wall_s": float(np.asarray(self.iteration)[:, 0].sum()),
            "busy_s": float(np.asarray(self.iteration)[:, 1].sum()),
            "samples_per_s": self.samples_per_s(),
            "step_ms_p50": self.step_ms(50),
            "step_ms_p90": self.step_ms(90),
            "wall_samples_per_s": self.samples_per_s(busy=False),
            "wall_step_ms_p50": self.step_ms(50, busy=False),
            "wall_step_ms_p90": self.step_ms(90, busy=False),
        }


class Probe(StepExecutor):
    """Drives a trainer under ``TrainingEngine`` and times it from outside.

    Counts warm-up steps, then walks the timed segments, scoring the held-out
    batch once after ``quality_steps`` timed steps (that time is excluded).
    In a traced segment it installs the tracer and opens one
    ``core.engine.iteration`` span per step, from the end of one
    ``run_step`` to the end of the next.
    """

    def __init__(self, trainer, loader: BoundedLoader, workload: Workload,
                 segments: list[Segment], score, tracer: Tracer | None):
        self.clock = loader.clock
        self.trainer = trainer
        self.model = trainer.model
        self.loader = loader
        self.workload = workload
        self.segments = segments
        self.score = score
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.timed_steps = 0
        self.bind_s = 0.0
        self.warmup_end = (0.0, 0.0)
        self.quality: dict[str, float] | None = None
        self.bind_spans: list = []
        self._index = -1
        self._iteration = None

    @property
    def _segment(self) -> Segment | None:
        return self.segments[self._index] if 0 <= self._index < len(self.segments) else None

    def bind(self, loader) -> None:
        start = self.clock.now()[1]
        if self.tracer is not None:
            self.tracer.install()
        try:
            self.trainer.bind(loader)
        finally:
            if self.tracer is not None:
                self.tracer.uninstall()
                self.bind_spans = self.tracer.take()
        self.bind_s = self.clock.now()[1] - start

    def prepare_batch(self, batch):
        return self.trainer.prepare_batch(batch)

    def recalibrate(self, loader, seed: int = 0) -> None:
        self.trainer.recalibrate(loader, seed=seed)

    def finalize(self):
        return self.trainer.finalize()

    def _advance(self, now: tuple[float, float]) -> None:
        """Close the current segment at ``now`` and open the next one."""
        current = self._segment
        if current is not None and current.traced:
            self.loader.tracer = None
            self.tracer.uninstall()
            current.spans = self.tracer.take()
        self._index += 1
        segment = self._segment
        if segment is None:
            self.loader.stopped = True
            return
        segment.start = now[0]
        segment.boundary = now
        if segment.traced:
            self.tracer.install()
            self.loader.tracer = self.tracer
            self._iteration = self.tracer.begin(ITERATION)

    def run_step(self, batch):
        segment = self._segment
        traced = segment is not None and segment.traced
        span = self.tracer.begin(RUN_STEP) if traced else None
        start = self.clock.now()
        outcome = self.trainer.run_step(batch)
        end = self.clock.now()
        if traced:
            self.tracer.end(span)
            self.tracer.end(self._iteration)
        self.attempted += 1
        if not math.isfinite(outcome.loss):
            self.failed += 1
        if segment is None:
            if self.attempted == self.workload.warmup_steps:
                self.warmup_end = end
                self._advance(self.clock.now())
            return outcome
        segment.step.append((end[0] - start[0], end[1] - start[1]))
        segment.iteration.append((end[0] - segment.boundary[0], end[1] - segment.boundary[1]))
        segment.outcomes.append(outcome)
        segment.sizes.append(batch.size)
        self.timed_steps += 1
        if self.timed_steps == self.workload.quality_steps:
            pause = perf_counter()
            self.quality = self.score(self.model)
            segment.paused += perf_counter() - pause
        now = segment.boundary = self.clock.now()
        last = self._index == len(self.segments) - 1
        done = now[0] - segment.start - segment.paused >= segment.seconds
        if done and (not last or self.timed_steps >= self.workload.quality_steps):
            self._advance(now)
        elif traced:
            self._iteration = self.tracer.begin(ITERATION)
        return outcome


def environment() -> dict:
    """numpy/BLAS build and the thread pin this process runs under."""
    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_pin": {
            k: os.environ.get(k)
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }


def run(workload: Workload, seed: int, seconds: float, mode: str) -> dict:
    """Set up and train ``workload``; return the report dictionary."""
    if mode == "setup":
        segments: list[Segment] = []
    elif mode == "run":
        segments = [Segment(seconds, traced=False)]
    else:
        segments = [Segment(seconds / 2, traced=False), Segment(seconds / 2, traced=True)]

    # Input generation is not part of set-up.  Held-out samples must come from
    # the same generated log: a separately generated log has a different
    # hidden label model.
    n, held_out = workload.train_samples, workload.eval_samples
    population = generate_click_log(
        workload.config().dataset, 2 * (n + held_out), seed=DATASET_SEED
    )
    rows = np.random.default_rng(seed).permutation(population.num_samples)
    train_log = subset(population, rows[:n])
    eval_log = subset(population, rows[n : n + held_out])
    del population

    def score(model):
        return held_out_quality(model, eval_log, workload.batch_size)

    tracer = Tracer() if mode == "trace" else None
    clock = BusyClock()
    setup_start = clock.now()
    trainer = workload.build(seed)
    loader = BoundedLoader(train_log, workload.batch_size, seed=seed, clock=clock)
    probe = Probe(trainer, loader, workload, segments, score, tracer)
    # Enough epochs that the wall-clock budget, not the epoch count, ends the
    # run on any host slower than 1 ms per step; the loader stops the loop.
    max_steps = workload.warmup_steps + workload.quality_steps + int(seconds * 1000)
    epochs = max_steps // len(loader) + 2
    TrainingEngine(probe).train(loader, epochs=epochs)
    if probe._index < len(segments):
        raise RuntimeError("the epoch cap ended the run before its segments")

    report: dict = {
        "workload": workload.name,
        "seed": seed,
        "mode": mode,
        "setup_s": probe.warmup_end[1] - setup_start[1],
        "wall_setup_s": probe.warmup_end[0] - setup_start[0],
        "bind_s": probe.bind_s,
        "warmup_s": probe.warmup_end[1] - setup_start[1] - probe.bind_s,
        "attempted": probe.attempted,
        "failed": probe.failed,
        "segments": [segment.summary() for segment in segments],
        "env": environment(),
    }
    checks = {"finite_losses": probe.failed == 0}
    if segments:
        auc = probe.quality["auc"]
        logloss = probe.quality["logloss"]
        report["final_auc"] = auc
        report["final_logloss"] = logloss
        report["quality_samples"] = (
            workload.warmup_steps + workload.quality_steps
        ) * workload.batch_size
        checks["finite_quality"] = math.isfinite(auc) and math.isfinite(logloss)
        checks["auc_above_floor"] = auc > workload.auc_floor
    if workload.shards > 1:
        drift = trainer.replica_drift()
        report["replica_drift"] = drift
        checks["replica_drift_zero"] = drift == 0.0
    report["checks"] = checks
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    if mode == "trace":
        untraced, traced = segments
        metrics, residual_ms = layer_metrics(
            traced.spans,
            threading.get_ident(),
            traced.outcomes,
            setup_spans=probe.bind_spans,
            warmup_s=report["warmup_s"],
            untraced_samples_per_s=untraced.samples_per_s(),
            traced_samples_per_s=traced.samples_per_s(),
        )
        report["layers"] = metrics
        report["residual_ms"] = residual_ms
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"{workload.name}-seed{seed}.trace.json"
        write_chrome_trace(
            path,
            probe.bind_spans + traced.spans,
            {"workload": workload.name, "seed": seed, "nproc": os.cpu_count(), **report["env"]},
            main_tid=threading.get_ident(),
        )
        report["trace_file"] = str(path.relative_to(OUT_DIR.parent.parent))
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs and step counts")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    if args.smoke:
        workload = workload.smoke()
    report = run(workload, args.seed, args.seconds, args.mode)
    sys.stdout.write(json.dumps(report) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
