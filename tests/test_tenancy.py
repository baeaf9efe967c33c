"""Multi-tenant keyspaces: wire v3, tenant isolation, and the one result cache.

The tenancy invariants pinned here:

* wire version 3 carries an optional ``tenant`` field (omitted for the
  default tenant); pre-v3 envelopes are refused;
* ``tenant`` stays inside :func:`request_cache_key`, so no cache tier can
  serve one tenant's answer to another;
* per-tenant Γ is isolated — growing tenant A's theory invalidates only A's
  Γ-dependent result entries (pinned by ``cache_info`` counters, not vibes);
* snapshots round-trip the whole tenant keyspace byte-identically;
* :class:`ResultCache` keeps one contract whoever holds it (a bare cache or
  a :class:`Session`): LRU accounting, id re-stamping, no error results,
  tenant-scoped invalidation;
* the 2-shard executor answers repeats — and a warm snapshot's entries —
  parent-side, byte-identical to the cacheless path, and the server's
  stats/health expose exactly one tier per backend.
"""

import asyncio
import json

import pytest

from repro.dependencies.pd import PartitionDependency
from repro.errors import ServiceError
from repro.service.config import ServiceConfig
from repro.service.executor import ShardExecutor
from repro.service.result_cache import ResultCache
from repro.service.server import QueryServer
from repro.service.session import Session
from repro.service.snapshot import dump_snapshot, restore_session
from repro.relational.functional_dependencies import FunctionalDependency
from repro.service.wire import (
    QueryRequest,
    QueryResult,
    decode_request,
    dump_request_line,
    dump_result_line,
    encode_request,
    load_request_line,
    request_cache_key,
)

GAMMA = ["A = A*B", "B = B*C"]


def _pd(text: str) -> PartitionDependency:
    return PartitionDependency.parse(text)


def _implies(text: str, tenant=None, id=None) -> QueryRequest:
    return QueryRequest(kind="implies", id=id, tenant=tenant, query=_pd(text))


class TestWireV3Tenant:
    def test_tenant_round_trips_at_version_3(self):
        request = _implies("A = A*C", tenant="acme", id="q1")
        payload = encode_request(request)
        assert payload["v"] == 3
        assert payload["tenant"] == "acme"
        assert decode_request(payload) == request
        assert load_request_line(dump_request_line(request)) == request

    def test_default_tenant_is_omitted_from_the_envelope(self):
        payload = encode_request(_implies("A = A*C"))
        assert "tenant" not in payload

    def test_tenantless_payloads_decode_as_the_default_tenant(self):
        payload = {"v": 3, "kind": "implies", "query": "A = A*C"}
        assert decode_request(payload).tenant is None

    @pytest.mark.parametrize("version", [1, 2])
    def test_pre_v3_envelopes_are_refused(self, version):
        payload = {"v": version, "kind": "implies", "query": "A = A*C"}
        with pytest.raises(ServiceError, match="this service speaks version 3"):
            decode_request(payload)

    def test_invalid_tenants_are_rejected(self):
        for bad in ("", 7, ["t"]):
            with pytest.raises(ServiceError, match="tenant"):
                encode_request(QueryRequest(kind="implies", tenant=bad, query=_pd("A = A*C")))

    def test_tenant_stays_in_the_cache_key(self):
        default = request_cache_key(_implies("A = A*C", id="x"))
        acme = request_cache_key(_implies("A = A*C", tenant="acme", id="y"))
        globex = request_cache_key(_implies("A = A*C", tenant="globex"))
        assert len({default, acme, globex}) == 3
        # ...while the id never is: same question, same slot.
        assert request_cache_key(_implies("A = A*C", tenant="acme", id="z")) == acme


class TestTenantKeyspaces:
    def test_new_tenants_start_with_an_empty_gamma(self):
        session = Session(GAMMA)
        assert session.execute(_implies("A = A*C")).value == {"implied": True}
        # Tenant "acme" owns its own Γ, which starts empty: nothing non-trivial holds.
        assert session.execute(_implies("A = A*C", tenant="acme")).value == {"implied": False}
        assert session.dependencies_for("acme") == []
        assert session.dependencies_for(None) == [_pd(t) for t in GAMMA]

    def test_tenant_gammas_grow_independently(self):
        session = Session([])
        session.add_dependencies(["A = A*B"], tenant="acme")
        session.add_dependencies(["B = B*C"], tenant="globex")
        assert session.execute(_implies("A = A*B", tenant="acme")).value == {"implied": True}
        assert session.execute(_implies("A = A*B", tenant="globex")).value == {"implied": False}
        assert session.execute(_implies("A = A*B")).value == {"implied": False}
        assert session.tenant_names() == [None, "acme", "globex"]

    def test_growing_one_tenant_invalidates_only_its_entries(self):
        session = Session([])
        a = _implies("A = A*D", tenant="acme")
        b = _implies("A = A*D", tenant="globex")
        for request in (a, b):
            assert session.execute(request).value == {"implied": False}
        # Both answers are warm now; pin that with the per-tenant counters.
        session.execute(a), session.execute(b)
        per_tenant = session.cache_info()["per_tenant"]
        assert per_tenant["acme"]["hits"] == 1 and per_tenant["globex"]["hits"] == 1

        session.add_dependencies(["A = A*D"], tenant="acme")
        assert session.generation_for("acme") == 1
        assert session.generation_for("globex") == 0
        # acme recomputes under its grown Γ; globex still answers from cache.
        assert session.execute(a).value == {"implied": True}
        assert session.execute(b).value == {"implied": False}
        per_tenant = session.cache_info()["per_tenant"]
        assert per_tenant["globex"]["hits"] == 2  # B's entry survived
        assert per_tenant["acme"]["misses"] == 2  # A's entry did not

    def test_explicit_dependency_requests_are_gamma_independent(self):
        session = Session([])
        request = QueryRequest(
            kind="implies", tenant="acme", dependencies=(_pd("A = A*B"),), query=_pd("A = A*B")
        )
        assert session.execute(request).value == {"implied": True}
        session.add_dependencies(["B = B*C"], tenant="acme")
        # Explicit-Γ entries never depend on the tenant's session Γ: still cached.
        session.execute(request)
        assert session.cache_info()["per_tenant"]["acme"]["hits"] == 1


class TestContextCacheCounters:
    def test_foreign_context_hits_misses_and_evictions_are_counted(self):
        session = Session(GAMMA, foreign_context_limit=2)
        deps = [(_pd(f"A = A*{name}"),) for name in ("C", "D", "E")]
        requests = [
            QueryRequest(kind="implies", dependencies=d, query=_pd("A = A*B")) for d in deps
        ]
        for request in requests:  # three distinct foreign theories, limit 2
            session.execute(request)
        # A *different* question over the warm theory (a repeat of the same
        # request would be served by the result cache, never reaching the
        # context LRU).
        session.execute(
            QueryRequest(kind="implies", dependencies=deps[-1], query=_pd("B = B*C"))
        )
        info = session.cache_info()["contexts"]
        assert info["misses"] == 3
        assert info["evictions"] == 1
        assert info["hits"] >= 1
        assert info["size"] <= info["maxsize"] == 2

    def test_create_false_probes_without_inserting_or_evicting(self):
        session = Session(GAMMA, foreign_context_limit=2)
        request = QueryRequest(
            kind="implies", dependencies=(_pd("A = A*Z"),), query=_pd("A = A*Z")
        )
        before = session.cache_info()["contexts"]
        assert session.context_for(request, create=False) is None
        after = session.cache_info()["contexts"]
        assert after["size"] == before["size"] == 0
        assert after["evictions"] == before["evictions"]


class TestSnapshotTenantRoundTrip:
    def _warm_session(self) -> Session:
        session = Session(GAMMA)
        session.add_dependencies(["C = C*D"], tenant="acme")
        session.add_dependencies(["D = D*E"], tenant="globex")
        session.execute(_implies("A = A*C"))
        session.execute(_implies("C = C*D", tenant="acme"))
        session.execute(_implies("C = C*D", tenant="globex"))
        return session

    def test_export_restore_export_is_byte_identical(self):
        text = dump_snapshot(self._warm_session())
        assert dump_snapshot(restore_session(text)) == text

    def test_restored_tenants_answer_like_the_original(self):
        session = self._warm_session()
        restored = restore_session(dump_snapshot(session))
        assert restored.tenant_names() == session.tenant_names()
        for tenant in (None, "acme", "globex"):
            assert restored.dependencies_for(tenant) == session.dependencies_for(tenant)
            assert restored.generation_for(tenant) == session.generation_for(tenant)
            assert (
                restored.execute(_implies("C = C*D", tenant=tenant)).value
                == session.execute(_implies("C = C*D", tenant=tenant)).value
            )

    def test_restored_result_entries_keep_their_tenant(self):
        restored = restore_session(dump_snapshot(self._warm_session()))
        restored.add_dependencies(["E = E*F"], tenant="acme")  # invalidates acme only
        restored.execute(_implies("C = C*D", tenant="globex"))
        assert restored.cache_info()["per_tenant"]["globex"]["hits"] == 1


def _ok(value=True) -> QueryResult:
    return QueryResult(kind="implies", ok=True, value={"implied": value})


class _Holder:
    """The one cache contract seen through either holder: a bare cache or a session."""

    def __init__(self, holder: str, maxsize: int) -> None:
        self.session = Session([], result_cache_size=maxsize) if holder == "session" else None
        self.cache = ResultCache(maxsize) if holder == "cache" else None

    def store(self, request: QueryRequest, result: QueryResult) -> None:
        if self.session is not None:
            self.session.cache_store(request, result)
        else:
            self.cache.store(request_cache_key(request), request, result)

    def lookup(self, request: QueryRequest):
        if self.session is not None:
            return self.session.cache_lookup(request)
        return self.cache.lookup(request_cache_key(request), request)

    def grow_gamma(self, tenant) -> None:
        if self.session is not None:
            self.session.add_dependencies(["Z = Z*Y"], tenant=tenant)
        else:
            self.cache.invalidate_tenant(tenant)

    def info(self) -> dict:
        return self.session.cache_info() if self.session is not None else self.cache.info()


HOLDERS = ["cache", "session"]


class TestResultCache:
    @pytest.mark.parametrize("holder", HOLDERS)
    def test_hits_restamp_the_caller_id(self, holder):
        cache = _Holder(holder, maxsize=4)
        cache.store(_implies("A = A*C", tenant="acme", id="q1"), _ok())
        hit = cache.lookup(_implies("A = A*C", tenant="acme", id="q42"))
        assert hit is not None and hit.id == "q42" and hit.cached
        assert cache.lookup(_implies("A = A*D", tenant="acme")) is None
        info = cache.info()
        assert info["hits"] == 1 and info["misses"] == 1 and info["stores"] == 1
        assert info["per_tenant"] == {"acme": {"hits": 1, "misses": 1}}

    @pytest.mark.parametrize("holder", HOLDERS)
    def test_lru_eviction_is_counted(self, holder):
        cache = _Holder(holder, maxsize=2)
        requests = [_implies(f"A = A*{name}") for name in "CDE"]
        for request in requests:
            cache.store(request, _ok())
        info = cache.info()
        assert info["size"] == 2 and info["evictions"] == 1
        assert cache.lookup(requests[0]) is None  # the oldest fell out
        assert cache.lookup(requests[2]) is not None

    @pytest.mark.parametrize("holder", HOLDERS)
    def test_error_results_are_never_stored(self, holder):
        cache = _Holder(holder, maxsize=4)
        failed = QueryResult(kind="implies", ok=False, error={"type": "X", "message": "m"})
        cache.store(_implies("A = A*C"), failed)
        assert cache.info()["size"] == 0 and cache.info()["stores"] == 0

    @pytest.mark.parametrize("holder", HOLDERS)
    def test_gamma_growth_drops_only_that_tenants_gamma_entries(self, holder):
        cache = _Holder(holder, maxsize=8)
        base = _implies("A = A*C", tenant="acme")
        explicit = QueryRequest(
            kind="implies", tenant="acme", dependencies=(_pd("A = A*B"),), query=_pd("A = A*B")
        )
        fd = QueryRequest(
            kind="fd_implies",
            tenant="acme",
            fds=(FunctionalDependency("A", "B"),),
            target=FunctionalDependency("A", "B"),
        )
        other = _implies("A = A*C", tenant="globex")
        for request in (base, explicit, fd, other):
            cache.store(request, _ok())
        cache.grow_gamma("acme")
        assert cache.lookup(base) is None
        assert cache.lookup(explicit) is not None  # its own Γ
        assert cache.lookup(fd) is not None  # its own Σ
        assert cache.lookup(other) is not None  # another tenant
        assert cache.info()["size"] == 3

    @pytest.mark.parametrize("holder", HOLDERS)
    def test_size_zero_disables_the_cache(self, holder):
        cache = _Holder(holder, maxsize=0)
        request = _implies("A = A*C")
        cache.store(request, _ok())
        assert cache.lookup(request) is None
        info = cache.info()
        assert info["size"] == 0 and info["maxsize"] == 0
        assert info["hits"] == info["misses"] == 0  # a disabled cache counts nothing

    def test_snapshot_entries_round_trip_and_respect_capacity(self):
        cache = ResultCache(8)
        requests = [_implies(f"A = A*{name}", tenant="acme") for name in "CDE"]
        for request in requests:
            cache.store(request_cache_key(request), request, _ok())
        entries = cache.export_entries()
        assert [entry[0] for entry in entries] == [request_cache_key(r) for r in requests]
        copy = ResultCache(8)
        copy.load_entries(entries)
        assert copy.export_entries() == entries
        small = ResultCache(2)
        small.load_entries(entries)
        assert small.export_entries() == entries[1:]  # the cold end is dropped
        assert small.info()["stores"] == 0  # loading is not traffic

    def test_concurrent_traffic_loses_no_update(self):
        # The window thread and control lines share the cache; every lookup
        # must land in exactly one counter and the LRU must stay bounded.
        import sys
        import threading

        cache = ResultCache(16)
        requests = [_implies(f"A = A*{name}", tenant=f"t{i % 3}") for i, name in enumerate("CDEFGHIJ")]
        keys = [request_cache_key(request) for request in requests]
        rounds, workers = 300, 8

        def hammer(offset):
            for step in range(rounds):
                index = (offset + step) % len(requests)
                if cache.lookup(keys[index], requests[index]) is None:
                    cache.store(keys[index], requests[index], _ok())

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=hammer, args=(i,)) for i in range(workers)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        info = cache.info()
        assert info["hits"] + info["misses"] == rounds * workers
        assert sum(t["hits"] + t["misses"] for t in info["per_tenant"].values()) == rounds * workers
        assert info["stores"] == info["misses"] and info["size"] == len(requests)

    def test_snapshot_entries_refuse_error_results(self):
        entry = ["k", True, None, {"v": 3, "kind": "implies", "ok": False, "error": {}}]
        with pytest.raises(ServiceError, match="error result"):
            ResultCache(4).load_entries([entry])


class TestExecutorResultCache:
    @pytest.fixture(scope="class")
    def stream(self):
        requests = [
            _implies("A = A*C", tenant=f"t{i % 5}", id=f"q{i}") for i in range(20)
        ]
        return requests, [dump_request_line(r) for r in requests]

    def test_repeats_are_answered_parent_side_byte_identically(self, stream):
        requests, lines = stream
        with ShardExecutor(shards=2, result_cache_size=0) as executor:
            expected = executor.execute_encoded(lines, requests=requests)
        with ShardExecutor(shards=2, result_cache_size=64) as executor:
            first = executor.execute_encoded(lines, requests=requests)
            dispatched = executor.supervision_stats()["units_dispatched"]
            again = executor.execute_encoded(lines, requests=requests)
            info = executor.cache_info()
            assert executor.supervision_stats()["units_dispatched"] == dispatched
        assert first == expected
        assert again == expected
        # Pass 1 probes all miss (the probe runs before any compute), every
        # reassembled line is published; pass 2 is answered entirely parent-side.
        assert info["size"] == 5  # 5 distinct (tenant, question) slots
        assert info["misses"] == len(requests)
        assert info["hits"] == len(requests)
        assert list(info["per_tenant"]) == [f"t{i}" for i in range(5)]

    def test_invalidate_tenant_reaches_the_parent_cache(self, stream):
        requests, lines = stream
        with ShardExecutor(shards=2, result_cache_size=64) as executor:
            first = executor.execute_encoded(lines, requests=requests)
            assert executor.invalidate_tenant("t0") == 1
            # The dropped tenant recomputes; answers are still byte-identical.
            assert executor.execute_encoded(lines, requests=requests) == first
            assert executor.cache_info()["size"] == 5  # t0 re-published

    def test_snapshot_boot_answers_the_shipped_entries_parent_side(self):
        warm = Session(GAMMA)
        requests = [
            _implies("A = A*C", id="d1"),
            _implies("C = C*A", id="d2"),
            _implies("A = A*C", tenant="acme", id="a1"),
        ]
        expected = [dump_result_line(r) for r in warm.execute_many(requests)]
        snapshot = dump_snapshot(warm)
        lines = [dump_request_line(r) for r in requests]
        with ShardExecutor(shards=2, snapshot=snapshot) as executor:
            assert executor.execute_encoded(lines, requests=requests) == expected
            info = executor.cache_info()
            supervision = executor.supervision_stats()
        assert info["hits"] == len(requests) and info["misses"] == 0
        assert supervision["units_dispatched"] == 0


async def _converse(host, port, payload):
    reader, writer = await asyncio.open_connection(host, port)
    writer.write(("".join(line + "\n" for line in payload)).encode("utf-8"))
    await writer.drain()
    writer.write_eof()
    answers = [(await reader.readline()).decode("utf-8").rstrip("\n") for _ in payload]
    writer.close()
    return answers


def _stats_and_health(config: ServiceConfig, lines: list[str]) -> tuple[dict, dict]:
    """Serve ``lines``, then read ``stats`` and ``health`` on a second connection.

    The controls go *after* every request is answered — a control line
    snapshots stats the moment it is read.
    """

    async def scenario():
        async with QueryServer(config) as server:
            await _converse(server.host, server.port, lines)
            return await _converse(
                server.host, server.port, ['{"control":"stats"}', '{"control":"health"}']
            )

    stats_line, health_line = asyncio.run(asyncio.wait_for(scenario(), 60))
    return json.loads(stats_line)["stats"], json.loads(health_line)["health"]


class TestServerTenancyStats:
    REQUESTS = [
        _implies("A = A*C", tenant="acme", id="a1"),
        _implies("A = A*C", tenant="acme", id="a2"),
        _implies("A = A*C", tenant="globex", id="g1"),
    ]

    def test_stats_and_health_expose_tier_and_tenant_rates(self):
        lines = [dump_request_line(r) for r in self.REQUESTS]
        # max_batch=1 closes a window per request, so the repeat reaches
        # the session's result cache instead of its window's batch closure.
        stats, health = _stats_and_health(ServiceConfig(max_batch=1), lines)
        cache = stats["result_cache"]
        assert set(cache["tiers"]) == {"session"}
        tier = cache["tiers"]["session"]
        assert tier["hits"] == 1 and tier["misses"] == 2
        assert tier["hit_rate"] == pytest.approx(1 / 3)
        acme, globex = cache["per_tenant"]["acme"], cache["per_tenant"]["globex"]
        assert acme["hits"] == 1 and acme["misses"] == 1
        assert globex["hits"] == 0 and globex["misses"] == 1
        assert set(health["cache"]) == {"session"}

    def test_sharded_server_reports_exactly_the_shared_tier(self):
        lines = [dump_request_line(r) for r in self.REQUESTS]
        stats, health = _stats_and_health(ServiceConfig(shards=2, max_batch=1), lines)
        cache = stats["result_cache"]
        assert set(cache["tiers"]) == {"shared"}
        assert set(health["cache"]) == {"shared"}
        tier = cache["tiers"]["shared"]
        assert tier["hits"] == 1 and tier["misses"] == 2
        assert cache["per_tenant"]["acme"]["hits"] == 1
        assert "worker_cache_hits" not in stats["supervision"]
