"""The repository benchmark: one command per workload, correctness-gated.

Run from the root of a checkout::

    python3 perfbench/run.py --workload batch-mixed --seed 1 --seconds 15 --trace 0

Workloads (see ``perfbench/predictions.json`` for why each was chosen and
which layers it should and should not move):

* ``batch-mixed`` — the file CLI's in-process path answers mixed streams;
* ``serve-zipf`` — ``python -m repro.service serve --shards 2`` under an
  open-loop Zipf multi-tenant stream over 2 connections;
* ``long-session`` — one ``Session`` answers distinct ``implies`` calls one
  at a time, with a few Γ-growth writes.

``--trace 0`` measures the end-to-end metrics (``setup_s``,
``throughput_rps``, ``latency_p50_ms``, ``latency_p95_ms``, ``peak_rss_mb``).
For the two in-process closed loops, the durations and the throughput are
scaled to a nominal machine speed by an interleaved calibration loop
(:mod:`speed`); the raw figures are kept in the metadata.

``--trace 1`` is the separate traced run that prints the per-layer table and
metrics.  The last line of standard output is the result object; the line
before it carries the run metadata (seed, rates, counts, error rate, p99
latency, drift, ``nproc``, Python version, commit, validity).  Every answer
is compared byte for byte with an in-process oracle after the timed region;
a mismatch makes the command exit 1.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: A seed kept out of tuning, for checking later claims on unseen inputs.
HELD_OUT_SEED = 20261017

#: Where the seed-fixed counts of earlier runs are kept (ignored by git).
COUNTS_DIR = ROOT / ".perfbench_out" / "counts"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        completed = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return completed.stdout.strip() or None


def check_counts(workload: str, seed: int, trace: int, counts: dict) -> bool | None:
    """Compare seed-fixed counts with the last run of the same seed in this checkout.

    Returns ``None`` for a first run (the counts are recorded), else whether
    they repeated exactly.
    """
    if not counts:
        return None
    path = COUNTS_DIR / f"{workload}-seed{seed}-trace{trace}.json"
    if path.exists():
        previous = json.loads(path.read_text())
        return previous == counts
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(counts, sort_keys=True))
    return None


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program source at {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import END_TO_END_UNITS, PER_LAYER_UNITS, WORKLOADS

    if args.workload not in WORKLOADS:
        known = ", ".join(sorted(WORKLOADS))
        print(f"error: unknown workload {args.workload!r}; expected one of {known}", file=sys.stderr)
        return 2
    outcome = WORKLOADS[args.workload](args.seed, args.seconds, bool(args.trace))

    repeated = check_counts(args.workload, args.seed, args.trace, outcome.counts)
    if repeated is False:
        print("warning: seed-fixed counts differ from the previous run of this seed", file=sys.stderr)
    if not outcome.valid:
        print("warning: the load generator fell behind its schedule; run is invalid", file=sys.stderr)
    correct = outcome.mismatched == 0
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "mismatched": outcome.mismatched,
        "error_rate": outcome.failed / outcome.attempted,
        "valid": outcome.valid,
        "counts": outcome.counts,
        "counts_repeat": repeated,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "commit": git_commit(),
        **outcome.meta,
    }
    if args.trace:
        units, values = PER_LAYER_UNITS, outcome.per_layer
        for row in outcome.table:
            print(row)
    else:
        units, values = END_TO_END_UNITS, outcome.metrics
    print(json.dumps({"perfbench_run": meta}, sort_keys=True))
    result = {
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": float(values[name]), "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
