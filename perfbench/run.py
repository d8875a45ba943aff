"""Training benchmark: one command, three workloads, end-to-end and per-layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fig18-single --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload fig18-single --seed 1 --seconds 25 --trace 1
    python3 perfbench/run.py --smoke                      # every workload, tiny inputs
    python3 perfbench/run.py --steadiness 10 --seconds 25 # spread per metric

Every measurement runs in a fresh worker process (``perfbench/worker.py``)
whose BLAS pools are pinned to one thread before numpy loads, so a workload
uses at most its main thread plus the engine's prefetch thread.  ``--trace 0``
runs ``SETUP_RUNS`` processes: all but the last only set up (construct,
bind, warm up), the last also trains for ``--seconds``; ``setup_s`` is the
median over all of them.  ``--trace 1`` runs one process with an untraced and
a traced half and prints the per-layer table.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
only when every correctness check passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.workloads import WORKLOADS  # noqa: E402

#: Set for every worker before numpy loads: one BLAS thread per process.
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
#: End-to-end metric -> unit, as BENCHMARK.json lists them.
END_TO_END_UNITS = {
    "train_samples_per_s": "1/s",
    "step_ms_p50": "ms",
    "step_ms_p90": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "final_auc": "ratio",
    "final_logloss": "nats",
}
#: Worker processes per end-to-end run; each samples ``setup_s`` once.
SETUP_RUNS = 3
#: Each worker must finish well inside the 180 s a whole run may take.
WORKER_TIMEOUT_S = 150


class WorkerFailed(RuntimeError):
    """A worker process exited non-zero or printed no report."""


def run_worker(workload: str, seed: int, seconds: float, mode: str, smoke: bool) -> dict:
    """Run one worker process to completion and return its report."""
    env = dict(os.environ, **BLAS_PIN)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    cmd = [
        sys.executable, "-m", "perfbench.worker",
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--mode", mode,
    ]
    if smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S
        )
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed(f"{workload} {mode} worker timed out after {exc.timeout} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerFailed(
            f"{workload} {mode} worker exited {proc.returncode}:\n{proc.stderr.strip()}"
        )
    return json.loads(lines[-1])


def source_identity() -> dict:
    """The git commit when there is one, and a digest of the library source."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=False
        )
        commit = proc.stdout.strip() or None
    return {"commit": commit, "source_sha256": digest.hexdigest()[:16]}


def measure(workload: str, seed: int, seconds: float, trace: bool,
            smoke: bool = False) -> tuple[dict, dict]:
    """One benchmark run: ``(result, metadata)``.

    ``result`` has the final-line keys; with ``trace`` its metrics are the
    per-layer table, otherwise the end-to-end metrics.
    """
    load_before = os.getloadavg()
    if trace:
        reports = [run_worker(workload, seed, seconds, "trace", smoke)]
    else:
        reports = [
            run_worker(workload, seed, seconds, "setup", smoke) for _ in range(SETUP_RUNS - 1)
        ]
        reports.append(run_worker(workload, seed, seconds, "run", smoke))
    main = reports[-1]
    checks = {
        f"{r['mode']}{i}.{name}": ok
        for i, r in enumerate(reports)
        for name, ok in r["checks"].items()
    }
    timed = main["segments"][0]
    if trace:
        from perfbench.tracing import PER_LAYER_UNITS

        values = main["layers"]
        units = PER_LAYER_UNITS
    else:
        values = {
            "train_samples_per_s": timed["samples_per_s"],
            "step_ms_p50": timed["step_ms_p50"],
            "step_ms_p90": timed["step_ms_p90"],
            "setup_s": statistics.median(r["setup_s"] for r in reports),
            "peak_rss_mb": main["peak_rss_mb"],
            "final_auc": main["final_auc"],
            "final_logloss": main["final_logloss"],
        }
        units = END_TO_END_UNITS
    result = {
        "correct": all(checks.values()),
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    meta = {
        "workload": workload,
        "seed": seed,
        **source_identity(),
        "nproc": os.cpu_count(),
        **main["env"],
        "load_avg_before": load_before,
        "load_avg_after": os.getloadavg(),
        "segments": main["segments"],
        "setup_s_samples": [r["setup_s"] for r in reports],
        "wall_setup_s_samples": [r["wall_setup_s"] for r in reports],
        "quality_samples": main.get("quality_samples"),
        "checks": checks,
    }
    if trace:
        meta["trace_file"] = main["trace_file"]
        meta["trace_residual_ms"] = main["residual_ms"]
    return result, meta


def print_table(result: dict) -> None:
    for name, metric in result["metrics"].items():
        print(f"  {name:36s} {metric['value']:14.4f} {metric['unit']}")


def steadiness(workloads: list[str], first_seed: int, runs: int, seconds: float) -> bool:
    """Run each workload ``runs`` times on successive seeds; print the spread."""
    ok = True
    for workload in workloads:
        samples: dict[str, list[float]] = {name: [] for name in END_TO_END_UNITS}
        for seed in range(first_seed, first_seed + runs):
            result, _meta = measure(workload, seed, seconds, False)
            ok = ok and result["correct"] and result["failed"] == 0
            for name, metric in result["metrics"].items():
                samples[name].append(metric["value"])
            print(f"{workload} seed {seed}: " + json.dumps(
                {k: round(v["value"], 4) for k, v in result["metrics"].items()}), flush=True)
        print(f"{workload}: {runs} runs, seeds {first_seed}..{first_seed + runs - 1}")
        print(f"  {'metric':24s} {'median':>12s} {'IQR/median':>11s} {'(max-min)/median':>17s}")
        for name, values in samples.items():
            median = statistics.median(values)
            q1, _q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
            print(f"  {name:24s} {median:12.4f} {(q3 - q1) / median:11.4f} "
                  f"{(max(values) - min(values)) / median:17.4f}")
    return ok


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Hotline training benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs; every workload (or --workload), untraced and traced")
    parser.add_argument("--steadiness", type=int, default=0, metavar="N",
                        help="run each workload (or --workload) N times and print spreads")
    args = parser.parse_args(argv)
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    try:
        if args.smoke:
            ok = True
            for workload in workloads:
                for trace in (False, True):
                    result, _meta = measure(workload, args.seed, args.seconds or 0.5, trace,
                                            smoke=True)
                    ok = ok and result["correct"]
                    print(f"{workload} trace={int(trace)}: {json.dumps(result)}")
            print(json.dumps({"smoke": workloads, "correct": ok}))
            return 0 if ok else 1
        if args.steadiness:
            ok = steadiness(workloads, args.seed, args.steadiness, args.seconds or 25)
            return 0 if ok else 1
        if args.workload is None or args.seconds is None:
            parser.error("--workload and --seconds are required for a measured run")
        result, meta = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except WorkerFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print("meta: " + json.dumps(meta))
    kind = "per-layer, traced" if args.trace else "end to end"
    print(f"{args.workload} seed {args.seed} ({kind}):")
    print_table(result)
    if args.trace:
        print(f"  trace written to {meta['trace_file']} (Chrome trace-event JSON)")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
