"""EXP-FLT: fault tolerance — supervision overhead and restart-to-warm latency.

The supervision claim: replacing the unsupervised ``multiprocessing.Pool``
execution path (PR 7) with the supervised worker pool — liveness sentinels,
reply validation, dynamic unit dealing, the retry/split/quarantine ladder —
costs **under 5%** on fault-free throughput, and a worker crashed mid-stream
comes back *warm* (snapshot-shipped restore) fast enough that the stream's
wall clock barely moves.  Series on the 200-request acceptance-shaped mix:

* **fault-free overhead** — (a) :func:`pool_map_encoded`, the unsupervised
  ``multiprocessing.Pool`` baseline kept here (static greedy deal, no
  supervision, one ``pool.map``); (b) the supervised
  :class:`ShardExecutor` on the same encoded lines.  Both build their worker
  pools inside the timed region, so the comparison includes process spawn
  and warm-up on both sides.
* **restart-to-warm** — the supervised executor with snapshot-shipped
  workers, (a) fault-free and (b) under a seeded plan that SIGKILLs worker 0
  on its first unit (incarnation 0 only — a transient crash).  The timed
  difference is the cost of detecting the crash, respawning from the
  snapshot and retrying the lost unit; :func:`measure_fault_report` also
  reports the supervisor's own ``restart_seconds`` accounting.

Every round asserts byte-identity against the in-process planner pipeline —
supervision and recovery must never change an answer.
"""

import multiprocessing
import time
from typing import Optional

import pytest

from repro.service.executor import ShardExecutor
from repro.service.faults import Fault, FaultPlan
from repro.service.planner import execute_plan
from repro.service.session import Session
from repro.service.snapshot import dump_snapshot
from repro.service.wire import dump_request_line, dump_result_line, load_request_line
from repro.workloads.random_service import random_service_requests

#: The acceptance-shaped mix: 200 mixed requests over two small theories.
STREAM_COUNT = 200

#: A transient crash: worker 0 dies starting its first unit, first life only.
CRASH_ONCE = FaultPlan(
    seed=20260617, faults=(Fault(kind="crash_worker", worker=0, unit=0, incarnation=0),)
)


# Worker-global session of the Pool baseline.
_WORKER_SESSION: Optional[Session] = None


def _initialize_worker() -> None:
    """The Pool baseline's initializer: build the worker's warm session."""
    global _WORKER_SESSION
    _WORKER_SESSION = Session()


def _execute_shard(lines: list[tuple[int, str]]) -> list[tuple[int, str]]:
    """Answer one shard of the Pool baseline: decode, plan, encode."""
    requests = [load_request_line(line) for _, line in lines]
    results = _WORKER_SESSION.execute_many(requests, batch=True)
    return [(index, dump_result_line(result)) for (index, _), result in zip(lines, results)]


def pool_map_encoded(lines: list[str], shards: int = 2) -> list[str]:
    """The unsupervised ``multiprocessing.Pool`` execution path (the baseline).

    No supervision, no deadlines, no fault isolation: the executor's
    batch-aligned work units dealt statically, largest first, to the least
    loaded shard, then one ``pool.map``.
    """
    requests = [load_request_line(line) for line in lines]
    buckets: list[list[int]] = [[] for _ in range(shards)]
    loads = [0] * shards
    units = ShardExecutor(shards=shards)._work_units(requests)
    for unit in sorted(units, key=len, reverse=True):  # stable: ties keep plan order
        shard = loads.index(min(loads))
        buckets[shard].extend(unit)
        loads[shard] += len(unit)
    payloads = [[(index, lines[index]) for index in sorted(bucket)] for bucket in buckets if bucket]
    start_method = "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
    out: list[Optional[str]] = [None] * len(lines)
    with multiprocessing.get_context(start_method).Pool(shards, _initialize_worker) as pool:
        for chunk in pool.map(_execute_shard, payloads):
            for index, line in chunk:
                out[index] = line
    return out


def _stream(seed: int):
    return random_service_requests(
        STREAM_COUNT,
        seed=seed,
        attribute_count=5,
        theory_count=2,
        pds_per_theory=3,
        max_complexity=2,
        kind_weights={"implies": 5, "equivalent": 3, "consistent": 3, "counterexample": 1},
    )


def _expected(requests):
    return [dump_result_line(result) for result in execute_plan(Session(), requests)]


@pytest.mark.benchmark(group="EXP-FLT fault-free: unsupervised Pool baseline vs supervised executor")
@pytest.mark.parametrize("mode", ["pool_baseline", "supervised"])
def test_supervision_overhead(benchmark, mode, rng_seed):
    requests = _stream(rng_seed)
    lines = [dump_request_line(request) for request in requests]
    expected = _expected(requests)

    if mode == "pool_baseline":

        def run():
            return pool_map_encoded(lines, shards=2)

    else:

        def run():
            with ShardExecutor(shards=2) as executor:
                return executor.execute_encoded(lines, requests=requests)

    out = benchmark(run)
    assert out == expected


@pytest.mark.benchmark(group="EXP-FLT restart-to-warm: snapshot-shipped workers, transient crash")
@pytest.mark.parametrize("mode", ["fault_free", "crash_once"])
def test_restart_to_warm(benchmark, mode, rng_seed):
    requests = _stream(rng_seed)
    lines = [dump_request_line(request) for request in requests]
    expected = _expected(requests)
    snapshot = dump_snapshot(Session())
    fault_plan = CRASH_ONCE.to_json() if mode == "crash_once" else None

    def run():
        with ShardExecutor(shards=2, snapshot=snapshot, fault_plan=fault_plan) as executor:
            out = executor.execute_encoded(lines, requests=requests)
            return out, executor.supervision_stats()

    out, stats = benchmark(run)
    assert out == expected  # recovery never changes an answer
    if mode == "crash_once":
        assert stats["crashes"] == 1
        assert stats["restarts"] == 1


def measure_fault_report(seed: int = 20260617, rounds: int = 3) -> dict:
    """The acceptance measurement: supervision overhead and restart latency.

    Min-of-``rounds`` wall times for the Pool baseline and the supervised
    executor (fault-free), plus one crash-injected supervised run reporting
    the supervisor's restart accounting.  Importable so the CI smoke and the
    README numbers are computed the same way.
    """
    requests = _stream(seed)
    lines = [dump_request_line(request) for request in requests]
    expected = _expected(requests)

    def _time(fn):
        best = float("inf")
        for _ in range(rounds):
            started = time.perf_counter()
            out = fn()
            best = min(best, time.perf_counter() - started)
            assert out == expected
        return best

    def _supervised():
        with ShardExecutor(shards=2) as executor:
            return executor.execute_encoded(lines, requests=requests)

    pool_seconds = _time(lambda: pool_map_encoded(lines, shards=2))
    supervised_seconds = _time(_supervised)

    snapshot = dump_snapshot(Session())
    with ShardExecutor(shards=2, snapshot=snapshot, fault_plan=CRASH_ONCE.to_json()) as executor:
        assert executor.execute_encoded(lines, requests=requests) == expected
        crash_stats = executor.supervision_stats()
    assert crash_stats["restarts"] == 1

    return {
        "stream": {"count": STREAM_COUNT, "seed": seed},
        "pool_seconds": pool_seconds,
        "supervised_seconds": supervised_seconds,
        "overhead": supervised_seconds / pool_seconds - 1.0,
        "restart_to_warm_seconds": crash_stats["restart_seconds"],
        "crash_stats": crash_stats,
    }


def test_supervision_overhead_meets_the_5_percent_bar(rng_seed):
    """The ISSUE 8 acceptance criterion, pinned: supervised within 5% of Pool."""
    report = measure_fault_report(seed=rng_seed, rounds=3)
    assert report["overhead"] < 0.05, report
