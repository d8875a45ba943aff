"""Audit ``BENCH_sparse_path.json`` for silently-skipped speedup gates.

Benchmarks in this directory record every measurement but only *enforce*
their wall-clock gates where the measurement means something (quiet
hardware via ``BENCH_STRICT``).  That
honesty has a failure mode: a benchmark could measure a speedup below its
own gate, skip the in-test assertion, and the suite would still go green.

This checker closes the loop in CI.  It reads the artifact the benchmark
run just wrote and **fails (exit 1)** for any entry whose measured
``speedup`` sits below its declared ``gate`` while ``enforced`` is false —
i.e. the regression was observed but no assertion guarded it.  Entries
that enforced their gate in-test are trusted (pytest already failed if
they regressed), and entries without a gate are informational.

Usage::

    python benchmarks/check_bench_gates.py [path/to/BENCH_sparse_path.json]

With no argument the default artifact location (or ``BENCH_JSON``) is
used.  A missing artifact is an error — the checker exists to make sure
the benchmarks actually ran.
"""

from __future__ import annotations

import json
import os
import sys


def check(path: str) -> int:
    """Print a per-entry verdict; return the number of unguarded misses."""
    if not os.path.exists(path):
        print(f"error: benchmark artifact not found: {path}", file=sys.stderr)
        return 1
    with open(path) as handle:
        entries = json.load(handle)
    misses = 0
    for entry in entries:
        op = entry.get("op", "?")
        speedup = entry.get("speedup")
        gate = entry.get("gate")
        if gate is None or speedup is None:
            print(f"  {op}: speedup={speedup} (no gate, informational)")
            continue
        enforced = bool(entry.get("enforced"))
        below = speedup < gate
        if below and not enforced:
            misses += 1
            verdict = "FAIL (below gate, assertion was skipped)"
        elif below:
            verdict = "below gate but enforced in-test (pytest already judged it)"
        else:
            verdict = "ok"
        print(
            f"  {op}: speedup={speedup} gate={gate} "
            f"enforced={enforced} -> {verdict}"
        )
    return misses


def main(argv: list[str]) -> int:
    default = os.environ.get("BENCH_JSON") or os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        "BENCH_sparse_path.json",
    )
    path = argv[1] if len(argv) > 1 else default
    print(f"checking benchmark gates in {path}")
    misses = check(path)
    if misses:
        print(
            f"{misses} gated benchmark(s) measured below their gate without "
            "an enforced assertion",
            file=sys.stderr,
        )
        return 1
    print("all gated benchmarks accounted for")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
