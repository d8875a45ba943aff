"""In-memory span tracer that wraps the library's layer entry points.

The tracer records spans from the benchmark's side only: :meth:`Tracer.install`
replaces each entry point in :func:`entry_points` with a timing wrapper and
:meth:`Tracer.uninstall` puts the original objects back, so the untraced runs
execute unpatched code.  Module-level functions are patched in the module that
calls them (``from x import f`` binds ``f`` into the caller's namespace).

A span is a name, start, end, parent and thread id.  A span's self time is its
duration minus its children's; spans of the prefetch thread are reported on
their own, never subtracted from main-thread spans.  :func:`layer_metrics`
folds the spans of a traced segment into the per-layer table.
"""

from __future__ import annotations

import functools
import json
import threading
from collections import defaultdict
from dataclasses import dataclass, field
from time import perf_counter

#: Root span of one engine iteration: from the end of one ``run_step`` to the
#: end of the next, i.e. the loader wait, the step, and the engine's own loop
#: bookkeeping.  The benchmark opens and closes it (see ``worker.Probe``).
ITERATION = "core.engine.iteration"
#: The executor's ``run_step`` as the engine calls it.  Its self time (schedule
#: pricing and ``StepOutcome`` assembly around ``train_step``) belongs to no
#: layer below, so it is reported as ``trace.unattributed_ms``.
RUN_STEP = "executor.run_step"
LOADER_WAIT = "data.loader.wait"


@dataclass(eq=False)
class Span:
    """One timed call: ``[start, end]`` seconds on ``perf_counter``."""

    name: str
    start: float
    parent: Span | None
    tid: int
    end: float = 0.0
    counts: dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans per thread and patches entry points in and out."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------ #
    # Spans
    # ------------------------------------------------------------------ #
    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> Span:
        """Open a span as a child of this thread's innermost open span."""
        stack = self._stack()
        span = Span(name, perf_counter(), stack[-1] if stack else None, threading.get_ident())
        stack.append(span)
        return span

    def end(self, span: Span) -> None:
        """Close ``span`` (the innermost open span of this thread) and keep it."""
        span.end = perf_counter()
        stack = self._stack()
        if not stack or stack[-1] is not span:
            raise RuntimeError(f"span {span.name!r} closed out of order")
        stack.pop()
        self.spans.append(span)

    def take(self) -> list[Span]:
        """Return the kept spans and start a fresh list."""
        spans, self.spans = self.spans, []
        return spans

    # ------------------------------------------------------------------ #
    # Patching
    # ------------------------------------------------------------------ #
    def _wrap(self, fn, name: str, measure):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(span)
            if measure is not None:
                span.counts = measure(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every entry point of :func:`entry_points`."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        for owner, attr, name, measure in entry_points():
            original = owner.__dict__[attr]
            if any(o is owner and a == attr for o, a, _ in self._patches):
                raise RuntimeError(f"{owner!r}.{attr} listed twice")
            setattr(owner, attr, self._wrap(original, name, measure))
            self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        """Restore every patched entry point, last patched first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def _defining_class(cls, attr: str):
    """The class in ``cls``'s MRO whose ``__dict__`` defines ``attr``."""
    for klass in cls.__mro__:
        if attr in klass.__dict__:
            return klass
    raise AttributeError(f"{cls.__name__} has no attribute {attr!r}")


# ---------------------------------------------------------------------- #
# Work counted at the wrapped boundaries
# ---------------------------------------------------------------------- #
def _gemm_flops(mlp, rows: int, skip_first: bool = False) -> float:
    units = mlp.units[1:] if skip_first else mlp.units
    return float(sum(2 * rows * u.linear.in_features * u.linear.out_features for u in units))


def _forward_flops(args, kwargs, result):
    mlp, x = args[0], args[1]
    return {"flops": _gemm_flops(mlp, x.shape[0])}


def _backward_flops(args, kwargs, result):
    mlp, grad = args[0], args[1]
    need_input_grad = kwargs.get("need_input_grad", True)
    # Every unit forms its input gradient except the first when the caller
    # discards it; the weight gradients are formed in accumulate_segment.
    return {"flops": _gemm_flops(mlp, grad.shape[0], skip_first=not need_input_grad)}


def _accumulate_flops(args, kwargs, result):
    mlp, lo, hi = args[0], args[1], args[2]
    return {"flops": _gemm_flops(mlp, hi - lo)}


def _update_rows(args, kwargs, result):
    return {"grad_rows": float(args[1].nnz)}


def _reduce_counts(args, kwargs, result):
    reducer = args[0]
    return {
        "dense_bytes": float(result.nbytes),
        "buckets": float(len(reducer.bucket_slices(result.shape[0]))),
    }


def _step_lookups(args, kwargs, result):
    return {"lookups": float(args[1].sparse.size)}


def entry_points():
    """``(owner, attribute, span name, measure)`` for every wrapped call."""
    from repro.core import distributed, lookahead, pipeline, reducer
    from repro.core.hotset import HotSetIndex
    from repro.models import dlrm, tbsm
    from repro.nn import embedding
    from repro.nn.attention import DotProductAttention
    from repro.nn.gemm import PackedMLP
    from repro.nn.interaction import DotInteractionKernel

    methods = [
        (PackedMLP, "forward", "nn.gemm.fwd", _forward_flops),
        (PackedMLP, "forward_prelogits", "nn.gemm.fwd", _forward_flops),
        (PackedMLP, "backward", "nn.gemm.bwd", _backward_flops),
        (PackedMLP, "accumulate_segment", "nn.gemm.accumulate", _accumulate_flops),
        (DotInteractionKernel, "forward", "nn.interaction.fwd", None),
        (DotInteractionKernel, "backward", "nn.interaction.bwd", None),
        (DotProductAttention, "forward", "nn.attention.fwd", None),
        (DotProductAttention, "backward", "nn.attention.bwd", None),
        (embedding.EmbeddingBag, "forward", "nn.embedding.gather", None),
        (embedding.EmbeddingBag, "backward_segments", "nn.embedding.scatter", None),
        (embedding.EmbeddingBag, "apply_sparse_update", "nn.embedding.update", _update_rows),
        (reducer.GradientBucketReducer, "reduce", "core.reducer.reduce", _reduce_counts),
        (reducer.SparseGradientExchange, "exchange", "core.reducer.exchange", None),
        (lookahead.CachedEmbeddingPipeline, "observe", "core.lookahead.observe", None),
        (lookahead.CachedEmbeddingPipeline, "defer", "core.lookahead.defer", None),
        (HotSetIndex, "classify", "core.hotset.classify", None),
        (pipeline.HotlineTrainer, "train_step", "core.pipeline", _step_lookups),
        (distributed.ShardedHotlineTrainer, "train_step", "core.distributed", _step_lookups),
        (dlrm.DLRM, "fused_loss_and_gradients", "models.fused", None),
        (tbsm.TBSM, "fused_loss_and_gradients", "models.fused", None),
        (dlrm.DLRM, "apply_dense_update", "models.dense_update", None),
        (tbsm.TBSM, "apply_dense_update", "models.dense_update", None),
        (pipeline.HotlineTrainer, "learning_phase", "core.accelerator.learning_phase", None),
        (
            distributed.ShardedHotlineTrainer,
            "learning_phase",
            "core.accelerator.learning_phase",
            None,
        ),
    ]
    functions = [
        (dlrm, "fused_bce_epilogue", "nn.loss.epilogue"),
        (tbsm, "fused_bce_epilogue", "nn.loss.epilogue"),
        (pipeline, "merge_sparse_gradients", "nn.embedding.merge"),
        (reducer, "merge_sparse_gradients", "nn.embedding.merge"),
        (lookahead, "merge_sparse_gradients", "nn.embedding.merge"),
        (embedding, "segmented_scatter", "nn.embedding.scatter"),
        (tbsm, "segmented_scatter", "nn.embedding.scatter"),
        (pipeline, "split_minibatch", "core.classifier.split"),
        (distributed, "split_minibatch", "core.classifier.split"),
    ]
    points = [
        (_defining_class(cls, attr), attr, name, measure)
        for cls, attr, name, measure in methods
    ]
    points += [(module, attr, name, None) for module, attr, name in functions]
    return points


# ---------------------------------------------------------------------- #
# Per-layer table
# ---------------------------------------------------------------------- #
#: Per-layer metric -> unit, in report order.  Time metrics are per-step self
#: time on the main thread unless noted; ``sim_ms`` values are prices from
#: ``core.schedule`` reported as counts next to host time, not measurements.
PER_LAYER_UNITS: dict[str, str] = {
    "data.loader.wait_ms": "ms",
    "core.classifier.split_ms": "ms",
    "core.hotset.classify_ms": "ms",
    "core.classifier.popular_frac": "ratio",
    "models.fused_self_ms": "ms",
    "models.dense_update_ms": "ms",
    "nn.embedding.gather_ms": "ms",
    "nn.embedding.scatter_ms": "ms",
    "nn.embedding.merge_ms": "ms",
    "nn.embedding.update_ms": "ms",
    "nn.embedding.lookups": "count",
    "nn.embedding.grad_rows": "count",
    "nn.gemm.fwd_ms": "ms",
    "nn.gemm.bwd_ms": "ms",
    "nn.gemm.accumulate_ms": "ms",
    "nn.gemm.gflops": "GFLOP/s",
    "nn.interaction.fwd_ms": "ms",
    "nn.interaction.bwd_ms": "ms",
    "nn.attention.fwd_ms": "ms",
    "nn.attention.bwd_ms": "ms",
    "nn.loss.epilogue_ms": "ms",
    "core.pipeline.self_ms": "ms",
    "core.distributed.self_ms": "ms",
    "core.reducer.reduce_ms": "ms",
    "core.reducer.exchange_ms": "ms",
    "core.reducer.dense_mb": "MB",
    "core.reducer.buckets": "count",
    "core.reducer.sim_wire_ms": "sim_ms",
    "core.reducer.sim_exposed_ms": "sim_ms",
    "core.lookahead.observe_ms": "ms",
    "core.lookahead.defer_ms": "ms",
    "core.lookahead.hit_rate": "ratio",
    "core.lookahead.fill_rows": "count",
    "core.lookahead.stale_rows": "count",
    "core.lookahead.pending_peak_kb": "kB",
    "core.lookahead.sim_prefetch_ms": "sim_ms",
    "core.engine.self_ms": "ms",
    "core.accelerator.learning_phase_s": "s",
    "setup.warmup_s": "s",
    "trace.step_ms": "ms",
    "trace.unattributed_ms": "ms",
    "trace.overhead_pct": "%",
}

#: Main-thread span name -> the per-layer time metric its self time joins.
#: ``core.hotset.classify`` on the main thread is the inline fallback inside
#: ``split_minibatch`` and joins the split time; on the prefetch thread it is
#: ``core.hotset.classify_ms``.
_MAIN_LAYER = {
    LOADER_WAIT: "data.loader.wait_ms",
    ITERATION: "core.engine.self_ms",
    "core.classifier.split": "core.classifier.split_ms",
    "core.hotset.classify": "core.classifier.split_ms",
    "models.fused": "models.fused_self_ms",
    "models.dense_update": "models.dense_update_ms",
    "nn.embedding.gather": "nn.embedding.gather_ms",
    "nn.embedding.scatter": "nn.embedding.scatter_ms",
    "nn.embedding.merge": "nn.embedding.merge_ms",
    "nn.embedding.update": "nn.embedding.update_ms",
    "nn.gemm.fwd": "nn.gemm.fwd_ms",
    "nn.gemm.bwd": "nn.gemm.bwd_ms",
    "nn.gemm.accumulate": "nn.gemm.accumulate_ms",
    "nn.interaction.fwd": "nn.interaction.fwd_ms",
    "nn.interaction.bwd": "nn.interaction.bwd_ms",
    "nn.attention.fwd": "nn.attention.fwd_ms",
    "nn.attention.bwd": "nn.attention.bwd_ms",
    "nn.loss.epilogue": "nn.loss.epilogue_ms",
    "core.pipeline": "core.pipeline.self_ms",
    "core.distributed": "core.distributed.self_ms",
    "core.reducer.reduce": "core.reducer.reduce_ms",
    "core.reducer.exchange": "core.reducer.exchange_ms",
    "core.lookahead.observe": "core.lookahead.observe_ms",
    "core.lookahead.defer": "core.lookahead.defer_ms",
}


def self_times(spans: list[Span]) -> dict[int, float]:
    """Self time of every span, keyed by ``id(span)``."""
    child_total: dict[int, float] = defaultdict(float)
    for span in spans:
        if span.parent is not None:
            child_total[id(span.parent)] += span.duration
    return {id(span): span.duration - child_total[id(span)] for span in spans}


def _root(span: Span) -> Span:
    while span.parent is not None:
        span = span.parent
    return span


def layer_metrics(
    spans: list[Span],
    main_tid: int,
    outcomes: list,
    *,
    setup_spans: list[Span],
    warmup_s: float,
    untraced_samples_per_s: float,
    traced_samples_per_s: float,
) -> tuple[dict[str, float], float]:
    """Fold a traced segment into the per-layer table.

    Args:
        spans: Spans kept while tracing the timed segment.
        main_tid: Thread id of the training loop.
        outcomes: The segment's ``StepOutcome`` objects, one per step.
        setup_spans: Spans kept during ``bind`` (the learning phase).
        warmup_s: Wall time of the warm-up steps.
        untraced_samples_per_s: Throughput of the untraced segment.
        traced_samples_per_s: Throughput of the traced segment.

    Returns:
        ``(metrics, residual_ms)``: every metric of :data:`PER_LAYER_UNITS`
        (``0.0`` for a layer the workload never calls), and the per-step
        difference between the traced step wall time and the sum of the
        main-thread self times plus ``trace.unattributed_ms`` -- zero up to
        rounding, kept so tests can check the accounting.
    """
    steps = len(outcomes)
    if steps == 0:
        raise ValueError("a traced segment needs at least one step")
    selfs = self_times(spans)
    totals: dict[str, float] = defaultdict(float)
    counts: dict[str, float] = defaultdict(float)
    iteration_wall = 0.0
    main_self = 0.0
    for span in spans:
        for key, value in span.counts.items():
            counts[key] += value
        own = selfs[id(span)]
        if span.tid != main_tid:
            if span.name == "core.hotset.classify":
                totals["core.hotset.classify_ms"] += own
            continue
        if _root(span).name != ITERATION:
            continue
        if span.name == ITERATION:
            iteration_wall += span.duration
        main_self += own
        metric = _MAIN_LAYER.get(span.name)
        if metric is not None:
            totals[metric] += own
    gemm_busy = sum(
        totals[k] for k in ("nn.gemm.fwd_ms", "nn.gemm.bwd_ms", "nn.gemm.accumulate_ms")
    )
    attributed = sum(totals[m] for m in set(_MAIN_LAYER.values()))
    per_step_ms = 1e3 / steps

    metrics = {name: 0.0 for name in PER_LAYER_UNITS}
    for name, seconds in totals.items():
        metrics[name] = seconds * per_step_ms
    metrics["trace.step_ms"] = iteration_wall * per_step_ms
    metrics["trace.unattributed_ms"] = (iteration_wall - attributed) * per_step_ms
    metrics["nn.gemm.gflops"] = counts["flops"] / gemm_busy / 1e9 if gemm_busy else 0.0
    metrics["nn.embedding.lookups"] = counts["lookups"] / steps
    metrics["nn.embedding.grad_rows"] = counts["grad_rows"] / steps
    metrics["core.reducer.dense_mb"] = counts["dense_bytes"] / steps / 1e6
    metrics["core.reducer.buckets"] = counts["buckets"] / steps

    popular = [o.popular_fraction for o in outcomes if o.popular_fraction is not None]
    metrics["core.classifier.popular_frac"] = sum(popular) / len(popular) if popular else 0.0
    metrics["core.reducer.sim_wire_ms"] = sum(sum(o.bucket_times_s) for o in outcomes) * per_step_ms
    metrics["core.reducer.sim_exposed_ms"] = (
        sum(o.communication_time_s for o in outcomes) * per_step_ms
    )
    hits = sum(o.cache_hits for o in outcomes)
    misses = sum(o.cache_misses for o in outcomes)
    metrics["core.lookahead.hit_rate"] = hits / (hits + misses) if hits + misses else 0.0
    metrics["core.lookahead.fill_rows"] = sum(o.cache_fill_rows for o in outcomes) / steps
    metrics["core.lookahead.stale_rows"] = sum(o.stale_rows for o in outcomes) / steps
    metrics["core.lookahead.pending_peak_kb"] = max(o.pending_bytes for o in outcomes) / 1024
    metrics["core.lookahead.sim_prefetch_ms"] = (
        sum(o.prefetch_time_s for o in outcomes) * per_step_ms
    )
    metrics["core.accelerator.learning_phase_s"] = sum(
        s.duration for s in setup_spans if s.name == "core.accelerator.learning_phase"
    )
    metrics["setup.warmup_s"] = warmup_s
    metrics["trace.overhead_pct"] = (
        100.0 * (untraced_samples_per_s - traced_samples_per_s) / untraced_samples_per_s
    )
    residual_ms = (iteration_wall - main_self) * per_step_ms
    return metrics, residual_ms


def chrome_trace(spans: list[Span], metadata: dict, main_tid: int) -> dict:
    """Spans as Chrome trace-event JSON (opens in Perfetto and chrome://tracing)."""
    origin = min((s.start for s in spans), default=0.0)
    others = sorted({s.tid for s in spans} - {main_tid})
    lane = {main_tid: 0, **{tid: i + 1 for i, tid in enumerate(others)}}
    events: list[dict] = [
        {
            "name": "thread_name",
            "ph": "M",
            "pid": 1,
            "tid": i,
            "args": {"name": "main" if tid == main_tid else f"worker-{i}"},
        }
        for tid, i in lane.items()
    ]
    for span in sorted(spans, key=lambda s: s.start):
        event = {
            "name": span.name,
            "cat": span.name.split(".")[0],
            "ph": "X",
            "ts": (span.start - origin) * 1e6,
            "dur": span.duration * 1e6,
            "pid": 1,
            "tid": lane[span.tid],
        }
        if span.counts:
            event["args"] = dict(span.counts)
        events.append(event)
    return {"traceEvents": events, "displayTimeUnit": "ms", "otherData": metadata}


def write_chrome_trace(path, spans: list[Span], metadata: dict, main_tid: int) -> None:
    """Write :func:`chrome_trace` to ``path``."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(chrome_trace(spans, metadata, main_tid), handle)
