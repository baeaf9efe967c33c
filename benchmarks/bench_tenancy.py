"""EXP-TEN: multi-tenant serving — the parent-side result cache vs no cache.

The tenancy claim: on a Zipf-skewed multi-tenant stream, the sharded
executor's one result cache (held in the parent, in front of cacheless
workers) answers **more than half** of the stream without shipping it to a
worker, and serves the stream **≥ 2× faster** end to end than cacheless
dispatch — while every served answer stays byte-identical to naive
single-shard no-cache dispatch, including under a seeded transient worker
crash.

The workload is :func:`~repro.workloads.random_service.zipf_multitenant_requests`:
50 tenants drawing from fixed per-tenant request pools with Zipf skew
``s = 1.0``, served over 2 shards in micro-batch-sized windows (so repeats
cross windows — exactly the serving shape).  The arms:

* **no_cache** (``result_cache_size=0``): every request is dispatched to a
  worker; only identical requests inside one window are deduplicated.
* **shared** (``result_cache_size=1024``): the parent answers repeats
  before any work unit is formed; the hit rate is compulsory-miss-bound.
"""

import time

import pytest

from repro.service.executor import ShardExecutor
from repro.service.faults import Fault, FaultPlan
from repro.service.planner import naive_dispatch
from repro.service.wire import dump_request_line, dump_result_line
from repro.workloads.random_service import zipf_multitenant_requests

#: The acceptance-shaped stream: ≥ 50 tenants and skew ≥ 1.0.
STREAM_COUNT, TENANTS, SKEW, POOL_PER_TENANT = 400, 50, 1.0, 4

#: Requests per serving window — small enough that repeats cross windows.
WINDOW = 25

#: The arms' parent-side result-cache sizes.
CACHE_SIZES = {"no_cache": 0, "shared": 1024}

#: A transient crash: worker 0 dies on its first unit, once.
CRASH_ONCE = FaultPlan(
    seed=20260617, faults=(Fault(kind="crash_worker", worker=0, unit=0, incarnation=0),)
)


def _stream(seed: int):
    return zipf_multitenant_requests(
        STREAM_COUNT,
        seed=seed,
        tenants=TENANTS,
        skew=SKEW,
        pool_per_tenant=POOL_PER_TENANT,
        theory_count=2,
        pds_per_theory=3,
        max_complexity=2,
    )


def _expected(requests):
    """Naive single-shard no-cache dispatch: the byte-identity reference."""
    return [dump_result_line(result) for result in naive_dispatch(requests)]


def _serve_windows(executor, lines, requests):
    """Serve the stream in ``WINDOW``-sized calls, like the micro-batch loop."""
    out = []
    for start in range(0, len(lines), WINDOW):
        stop = start + WINDOW
        out.extend(executor.execute_encoded(lines[start:stop], requests=requests[start:stop]))
    return out


def _run_stream(lines, requests, mode, fault_plan=None):
    """One serving pass; returns (encoded answers, cache hit rate, stats)."""
    with ShardExecutor(
        shards=2, result_cache_size=CACHE_SIZES[mode], fault_plan=fault_plan
    ) as executor:
        out = _serve_windows(executor, lines, requests)
        cache = executor.cache_info()
        supervision = executor.supervision_stats()
    return out, cache["hits"] / len(lines), {"cache": cache, "supervision": supervision}


@pytest.mark.benchmark(group="EXP-TEN Zipf multi-tenant stream: no cache vs parent-side cache")
@pytest.mark.parametrize("mode", ["no_cache", "shared"])
def test_no_cache_vs_shared_cache(benchmark, mode, rng_seed):
    requests = _stream(rng_seed)
    lines = [dump_request_line(request) for request in requests]
    expected = _expected(requests)

    out, rate, _ = benchmark(lambda: _run_stream(lines, requests, mode))
    assert out == expected  # caching must never change an answer
    if mode == "shared":
        assert rate > 0.5  # compulsory-miss-bound on this stream


@pytest.mark.benchmark(group="EXP-TEN shared cache under a transient worker crash")
def test_shared_cache_with_crash(benchmark, rng_seed):
    requests = _stream(rng_seed)
    lines = [dump_request_line(request) for request in requests]
    expected = _expected(requests)

    def run():
        return _run_stream(lines, requests, "shared", fault_plan=CRASH_ONCE.to_json())

    out, _, stats = benchmark(run)
    assert out == expected  # recovery + caching still byte-identical
    assert stats["supervision"]["crashes"] >= 1


def measure_tenancy_report(seed: int = 20260617, rounds: int = 3) -> dict:
    """The acceptance measurement: cache hit rate and end-to-end speedup.

    Min-of-``rounds`` wall times per arm (each round builds its own pool —
    steady-state caches must not leak across rounds), the hit rate of the
    last shared round, plus one crash-injected shared run.  Every pass is
    checked byte-identical to naive single-shard no-cache dispatch.
    Importable so the CI smoke and the README table are computed the same
    way.
    """
    requests = _stream(seed)
    lines = [dump_request_line(request) for request in requests]
    expected = _expected(requests)

    def _time(mode, fault_plan=None):
        best, rate, stats = float("inf"), 0.0, {}
        for _ in range(rounds):
            started = time.perf_counter()
            out, rate, stats = _run_stream(lines, requests, mode, fault_plan=fault_plan)
            best = min(best, time.perf_counter() - started)
            assert out == expected
        return best, rate, stats

    no_cache_seconds, _, no_cache_stats = _time("no_cache")
    shared_seconds, shared_rate, shared_stats = _time("shared")
    _, crash_rate, crash_stats = _time("shared", fault_plan=CRASH_ONCE.to_json())
    assert crash_stats["supervision"]["crashes"] >= 1

    return {
        "stream": {
            "count": STREAM_COUNT,
            "tenants": TENANTS,
            "skew": SKEW,
            "pool_per_tenant": POOL_PER_TENANT,
            "window": WINDOW,
            "seed": seed,
        },
        "no_cache_seconds": no_cache_seconds,
        "shared_seconds": shared_seconds,
        "speedup": no_cache_seconds / shared_seconds if shared_seconds else float("inf"),
        "shared_hit_rate": shared_rate,
        "crash_hit_rate": crash_rate,
        "no_cache_units": no_cache_stats["supervision"]["units_dispatched"],
        "shared_units": shared_stats["supervision"]["units_dispatched"],
        "shared_cache": shared_stats["cache"],
    }


def test_shared_cache_meets_the_acceptance_bar(rng_seed):
    """The acceptance criterion, pinned: hit rate > 0.5 and ≥ 2× end-to-end speedup."""
    report = measure_tenancy_report(seed=rng_seed, rounds=3)
    assert report["shared_hit_rate"] > 0.5, report
    assert report["speedup"] >= 2.0, report
