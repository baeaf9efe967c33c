"""The multiprocess shard executor: fan a request stream out across workers.

Python's decision kernels are CPU-bound and single-threaded, so horizontal
scale means processes.  :class:`ShardExecutor` partitions a stream across
``shards`` supervised worker processes:

* **Transport is the wire format** — requests cross the process boundary as
  canonical JSONL strings and results come back the same way, so the worker
  boundary exercises exactly the codecs a networked deployment would (and
  the hash-consed AST re-interns per process via the parser, never by
  pickling live objects).
* **Per-worker session warm-up** — each worker builds one cacheless
  :class:`~repro.service.session.Session` over the executor's base Γ (or
  restores the configured snapshot), then answers its units through the
  batch planner.  Workers therefore amortize exactly like the in-process
  service; the executor adds parallelism on top.
* **One parent-side result cache** — a
  :class:`~repro.service.result_cache.ResultCache` answers repeats before
  any unit is formed (a hit never crosses a process boundary) and is warmed
  with every computed result on reassembly.  A snapshot boot seeds it with
  the snapshot's result entries.
* **Plan-aware sharding** — the parent plans the stream first
  (:func:`repro.service.planner.plan`) and deals *batch-aligned work units*
  instead of raw requests round-robin.  Amortization lives in the batches
  (one Γ closure per implication chunk, one normalization per consistency
  group); a round-robin deal would scatter every batch over every worker
  and re-pay each group's setup ``shards`` times — measured, it made 4
  shards *slower* than one process.  Units are the planner's own
  amortization quanta and are dealt dynamically, largest first, to whichever
  worker is idle.
* **Supervision, not hope** — the unit loop lives in
  :class:`~repro.service.supervisor.SupervisedPool`: a crashed worker is
  restarted (warm, when a snapshot is configured), its unit retried, split
  and at worst quarantined to a single typed ``WorkerCrashed`` error line;
  budget-carrying units get a hard wall-clock kill surfacing as typed
  ``Timeout`` results.  :meth:`supervision_stats` exposes the counters the
  server's health endpoint and circuit breaker read.
* **Deterministic ordering** — every result is reassembled at the request's
  original stream position, so a fault-free run is byte-identical to the
  single-process planner run on the same stream, regardless of worker
  scheduling (``tests/test_service_executor.py`` asserts this).

The default start method is ``fork`` where available (cheap warm-up —
children inherit the parent's interned AST; safe since PR 5's
``os.register_at_fork`` hooks rebuild the weak intern tables and drop the
Whitman memo in the child) with ``spawn`` as the portable fallback.  The
pool is created lazily and kept alive across :meth:`execute` calls so
benchmark loops measure steady-state throughput; use the executor as a
context manager (or call :meth:`close`, which shuts workers down
*gracefully* — in-flight units finish, terminate is the fallback).
"""

from __future__ import annotations

import multiprocessing
from collections.abc import Iterable, Sequence
from typing import Optional

from repro.dependencies.pd import PartitionDependencyLike, as_partition_dependency
from repro.errors import ServiceError
from repro.service.planner import IMPLICATION_CHUNK, plan
from repro.service.result_cache import ResultCache
from repro.service.supervisor import SupervisedPool, SupervisorStats, WorkItem, WorkUnit
from repro.service.wire import (
    QueryRequest,
    QueryResult,
    dump_result_line,
    encode_pd,
    error_result_for_line,
    load_request_line,
    load_result_line,
    request_cache_key,
)

class ShardExecutor:
    """Execute request streams across a supervised pool of warm worker processes."""

    def __init__(
        self,
        shards: int = 2,
        dependencies: Iterable[PartitionDependencyLike] = (),
        start_method: Optional[str] = None,
        snapshot: Optional[str] = None,
        fault_plan: Optional[str] = None,
        unit_timeout_ms: Optional[float] = None,
        deadline_grace_ms: float = 2000.0,
        max_unit_attempts: int = 2,
        result_cache_size: int = 1024,
    ) -> None:
        if shards < 1:
            raise ServiceError(f"shard count must be positive, got {shards}")
        if max_unit_attempts < 1:
            raise ServiceError(f"max_unit_attempts must be positive, got {max_unit_attempts}")
        self.shards = shards
        self._cache = ResultCache(result_cache_size)
        self._dependencies = [as_partition_dependency(pd) for pd in dependencies]
        if snapshot is not None:
            # Validate once in the parent — a corrupt or mismatched snapshot
            # should fail loudly at construction, not inside every worker.
            from repro.service.snapshot import decode_snapshot
            from repro.service.wire import decode_pd

            payload = decode_snapshot(snapshot)
            if self._dependencies:
                encoded = [encode_pd(pd) for pd in self._dependencies]
                if encoded != list(payload["dependencies"]):
                    raise ServiceError(
                        "snapshot Γ mismatch: the snapshot captures "
                        f"{payload['dependencies']!r} but the executor was "
                        f"configured with {encoded!r}"
                    )
            else:
                self._dependencies = [decode_pd(text) for text in payload["dependencies"]]
            self._cache.load_entries(payload["results"])
        self._snapshot = snapshot
        self._fault_plan = fault_plan
        self._unit_timeout_ms = unit_timeout_ms
        self._deadline_grace_ms = deadline_grace_ms
        self._max_unit_attempts = max_unit_attempts
        if start_method is None:
            available = multiprocessing.get_all_start_methods()
            start_method = "fork" if "fork" in available else "spawn"
        self._start_method = start_method
        self._pool: Optional[SupervisedPool] = None
        self._final_stats: Optional[SupervisorStats] = None

    # -- lifecycle -------------------------------------------------------------

    def _ensure_pool(self) -> SupervisedPool:
        if self._pool is None:
            self._pool = SupervisedPool(
                workers=self.shards,
                encoded_dependencies=[encode_pd(pd) for pd in self._dependencies],
                snapshot=self._snapshot,
                start_method=self._start_method,
                fault_plan_json=self._fault_plan,
                unit_timeout_ms=self._unit_timeout_ms,
                deadline_grace_ms=self._deadline_grace_ms,
            )
        return self._pool

    def close(self, timeout: float = 5.0) -> None:
        """Gracefully shut the workers down (a later :meth:`execute` re-creates them).

        Workers finish whatever unit they hold and exit on the shutdown
        sentinel; only a worker that outlives ``timeout`` is terminated.
        """
        if self._pool is not None:
            self._final_stats = self._pool.stats
            self._pool.close(timeout=timeout)
            self._pool = None

    def __enter__(self) -> "ShardExecutor":
        self._ensure_pool()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def supervision_stats(self) -> dict:
        """The supervisor's counters (live pool, or the last closed pool's)."""
        if self._pool is not None:
            return self._pool.stats.as_dict()
        if self._final_stats is not None:
            return self._final_stats.as_dict()
        return SupervisorStats().as_dict()

    def cache_info(self) -> dict:
        """The parent-side result cache's counters and per-tenant traffic."""
        return self._cache.info()

    def invalidate_tenant(self, tenant: Optional[str] = None) -> int:
        """Drop a tenant's base-Γ entries from the result cache (Γ-growth hook)."""
        return self._cache.invalidate_tenant(tenant)

    # -- sharding --------------------------------------------------------------

    def _work_units(self, requests: Sequence[QueryRequest]) -> list[list[int]]:
        """Batch-aligned work units: the planner's amortization quanta.

        Implication/equivalence batches split at the planner's own chunk
        size (each chunk shares one engine wherever it lands); consistency
        and FD-implication groups split into at most ``shards`` slices (one
        normalization / translated engine per slice); the per-request kinds
        (CAD, quotient, counterexample) and every deadline-carrying batch
        split all the way down — a budgeted request must be its own unit so
        a hard kill takes nobody else with it.
        """
        units: list[list[int]] = []
        for batch in plan(requests):
            indices = list(batch.indices)
            if batch.deadline:
                step = 1
            elif batch.kind in ("implies", "equivalent"):
                step = IMPLICATION_CHUNK
            elif batch.kind in ("consistent", "fd_implies") and batch.method != "cad":
                step = max(1, -(-len(indices) // self.shards))
            else:
                step = 1
            for start in range(0, len(indices), step):
                units.append(indices[start : start + step])
        return units

    # -- execution -------------------------------------------------------------

    def execute_encoded(
        self, lines: Sequence[str], requests: Optional[Sequence[QueryRequest]] = None
    ) -> list[str]:
        """Answer wire-encoded request lines; returns result lines in input order.

        This is the transport-level entry point the CLI uses — nothing but
        strings crosses the process boundary in either direction.  A caller
        that already decoded the stream (the CLI validates every line first)
        passes ``requests`` so the parent-side planning pass does not re-parse
        each line; the two sequences must be position-aligned.  When the
        executor decodes the stream itself, an undecodable line becomes an
        in-place error result and the rest of the stream still computes.
        """
        if not lines:
            return []
        out: list[Optional[str]] = [None] * len(lines)
        if requests is None:
            decoded: list[QueryRequest] = []
            index_map: list[int] = []
            for position, line in enumerate(lines):
                try:
                    decoded.append(load_request_line(line))
                    index_map.append(position)
                except Exception as exc:  # isolate the bad line
                    out[position] = dump_result_line(
                        error_result_for_line(line, position + 1, exc)
                    )
            requests = decoded
        elif len(requests) != len(lines):
            raise ServiceError(
                f"{len(requests)} decoded requests for {len(lines)} encoded lines"
            )
        else:
            index_map = list(range(len(lines)))
        # Answer cache hits parent-side, before any unit is formed — a hit
        # never crosses a process boundary at all.
        keys: dict[int, str] = {}
        if self._cache.enabled:
            for i, request in enumerate(requests):
                keys[i] = request_cache_key(request)
                hit = self._cache.lookup(keys[i], request)
                if hit is not None:
                    out[index_map[i]] = dump_result_line(hit)
        misses = [i for i in range(len(requests)) if out[index_map[i]] is None]
        units = []
        for unit in self._work_units(requests):
            items = tuple(
                WorkItem(
                    index=index_map[i],
                    line=lines[index_map[i]],
                    request_id=requests[i].id,
                    kind=requests[i].kind,
                    deadline_ms=requests[i].deadline_ms,
                    trace=requests[i].trace,
                )
                for i in unit
                if out[index_map[i]] is None  # hits drop out of their unit
            )
            if items:
                units.append(WorkUnit(items=items, attempts_left=self._max_unit_attempts))
        if units:
            pool = self._ensure_pool()
            for original_index, line in pool.run_units(units).items():
                out[original_index] = line
        missing = [i for i, line in enumerate(out) if line is None]
        if missing:  # pragma: no cover - reassembly invariant
            raise ServiceError(f"shard executor lost results for requests {missing[:5]}")
        if self._cache.enabled:
            # Every computed answer warms the cache for every later caller
            # (the cache itself refuses error results).
            for i in misses:
                self._cache.store(keys[i], requests[i], load_result_line(out[index_map[i]]))
        return out  # type: ignore[return-value]

    def execute(self, requests: Sequence[QueryRequest]) -> list[QueryResult]:
        """Answer decoded requests; convenience wrapper over :meth:`execute_encoded`."""
        from repro.service.wire import dump_request_line

        lines = [dump_request_line(request) for request in requests]
        return [load_result_line(line) for line in self.execute_encoded(lines, requests=requests)]
