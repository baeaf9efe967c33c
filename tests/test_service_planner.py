"""Planner properties: stable grouping, byte-identical results, real amortization."""

import pytest

from repro.dependencies.pd import PartitionDependency
from repro.relational.database import Database
from repro.relational.functional_dependencies import FunctionalDependency
from repro.relational.relations import Relation
from repro.service.planner import (
    IMPLICATION_CHUNK,
    execute_plan,
    naive_dispatch,
    plan,
    plan_summary,
)
from repro.service.session import Session
from repro.service.wire import QueryRequest, dump_result_line
from repro.workloads.random_service import random_service_requests


def _pd(text: str) -> PartitionDependency:
    return PartitionDependency.parse(text)


def _encoded(results):
    return [dump_result_line(r) for r in results]


class TestPlanShape:
    def test_groups_by_kind_and_dependency_set(self):
        gamma1 = (_pd("A = A*B"),)
        gamma2 = (_pd("B = B*C"),)
        requests = [
            QueryRequest(kind="implies", dependencies=gamma1, query=_pd("A = A*B")),
            QueryRequest(kind="implies", dependencies=gamma2, query=_pd("B = B*C")),
            QueryRequest(kind="implies", dependencies=gamma1, query=_pd("B = B*A")),
            QueryRequest(kind="equivalent", dependencies=gamma1, left=_pd("A=A").left, right=_pd("B=B").left),
        ]
        batches = plan(requests)
        assert [(b.kind, b.indices) for b in batches] == [
            ("implies", (0, 2)),
            ("implies", (1,)),
            ("equivalent", (3,)),
        ]

    def test_consistency_methods_do_not_mix(self):
        db = Database([Relation.from_strings("r", "AB", ["a.b"])])
        requests = [
            QueryRequest(kind="consistent", database=db, method="weak_instance"),
            QueryRequest(kind="consistent", database=db, method="cad"),
            QueryRequest(kind="consistent", database=db, method="weak_instance"),
        ]
        batches = plan(requests)
        assert [(b.method, b.indices) for b in batches] == [
            ("weak_instance", (0, 2)),
            ("cad", (1,)),
        ]

    def test_fd_implies_groups_on_fd_set(self):
        sigma1 = (FunctionalDependency.parse("A -> B"),)
        sigma2 = (FunctionalDependency.parse("B -> C"),)
        target = FunctionalDependency.parse("A -> B")
        requests = [
            QueryRequest(kind="fd_implies", fds=sigma1, target=target),
            QueryRequest(kind="fd_implies", fds=sigma2, target=target),
            QueryRequest(kind="fd_implies", fds=sigma1, target=FunctionalDependency.parse("A -> A")),
        ]
        batches = plan(requests)
        assert [b.indices for b in batches] == [(0, 2), (1,)]

    def test_plan_summary(self):
        requests = random_service_requests(40, seed=13, theory_count=2)
        summary = plan_summary(requests)
        assert summary["requests"] == 40
        assert summary["batches"] >= 2
        assert sum(summary["requests_per_kind"].values()) == 40
        assert summary["largest_batch"] <= 40


class TestByteIdenticalResults:
    @pytest.mark.parametrize("seed", [3, 17, 91])
    def test_planner_equals_naive_and_sequential_on_mixed_streams(self, seed):
        requests = random_service_requests(
            60, seed=seed, include_cad=True, theory_count=3, pds_per_theory=3
        )
        planned = _encoded(execute_plan(Session(), requests))
        sequential = _encoded(Session().execute_many(requests, batch=False))
        naive = _encoded(naive_dispatch(requests))
        assert planned == sequential == naive

    def test_results_preserve_input_order_and_ids(self):
        requests = random_service_requests(25, seed=5)
        results = execute_plan(Session(), requests)
        assert [r.id for r in results] == [f"q{i}" for i in range(25)]

    def test_base_gamma_stream_against_session_dependencies(self):
        requests = [
            QueryRequest(kind="implies", id=f"q{i}", query=_pd(f"A = A*{n}"))
            for i, n in enumerate("BCDBC")
        ]
        session = Session(["A = A*B", "B = B*C"])
        planned = _encoded(execute_plan(session, requests))
        naive = _encoded(naive_dispatch(requests, ["A = A*B", "B = B*C"]))
        assert planned == naive

    def test_chunking_boundary_exact(self):
        # A group larger than one chunk must still answer every query.
        count = IMPLICATION_CHUNK * 2 + 3
        gamma = (_pd("A = A*B"), _pd("B = B*C"))
        requests = [
            QueryRequest(kind="implies", id=f"q{i}", dependencies=gamma, query=_pd("A = A*C"))
            if i % 2
            else QueryRequest(kind="implies", id=f"q{i}", dependencies=gamma, query=_pd("C = C*A"))
            for i in range(count)
        ]
        results = execute_plan(Session(), requests)
        assert len(results) == count
        for i, result in enumerate(results):
            assert result.value == {"implied": bool(i % 2)}


class TestCacheInterplay:
    def test_second_plan_run_is_fully_cached(self):
        requests = random_service_requests(30, seed=9, theory_count=2)
        session = Session()
        first = execute_plan(session, requests)
        second = execute_plan(session, requests)
        assert _encoded(first) == _encoded(second)
        oks = [r for r in first if r.ok]
        assert all(r.cached for r, f in zip(second, first) if f.ok)
        assert session.cache_info()["hits"] >= len(oks)

    def test_misses_counted_once_per_uncached_request(self):
        db = Database([Relation.from_strings("r", "AB", ["a.b"])])
        requests = [
            QueryRequest(kind="consistent", id="c", database=db),
            QueryRequest(kind="implies", id="i", query=_pd("A = A*B")),
        ]
        session = Session(["A = A*B"])
        execute_plan(session, requests)
        info = session.cache_info()
        assert info["misses"] == 2  # one probe per uncached request, not two
        assert info["hits"] == 0

    def test_duplicate_requests_within_one_stream_hit_cache(self):
        request = QueryRequest(kind="implies", query=_pd("A = A*B"))
        session = Session(["A = A*B"])
        results = execute_plan(session, [request.with_id("a"), request.with_id("b")])
        assert results[0].value == results[1].value == {"implied": True}
        assert results[1].id == "b"
        assert results[1].cached  # deduped within the batch, not recomputed

    def test_duplicate_expensive_requests_compute_once(self, monkeypatch):
        import repro.service.session as session_module

        calls = {"n": 0}
        real = session_module.finite_counterexample

        def counting(*args, **kwargs):
            calls["n"] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(session_module, "finite_counterexample", counting)
        request = QueryRequest(
            kind="counterexample",
            dependencies=(_pd("A = A*B"),),
            query=_pd("B = B*A"),
            max_pool=200,
        )
        results = execute_plan(
            Session(), [request.with_id("a"), request.with_id("b"), request.with_id("c")]
        )
        assert calls["n"] == 1  # one L_H construction for three identical requests
        assert [r.id for r in results] == ["a", "b", "c"]
        assert results[0].value == results[1].value == results[2].value
        assert results[1].cached and results[2].cached

    @pytest.mark.parametrize("deadline_ms", [None, 60_000])
    def test_in_batch_dedupe_does_not_need_a_result_cache(self, deadline_ms):
        session = Session(result_cache_size=0)
        evaluated = []
        real = session._evaluate

        def counting(request):
            evaluated.append(request.id)
            return real(request)

        session._evaluate = counting
        request = QueryRequest(
            kind="counterexample",
            dependencies=(_pd("A = A*B"),),
            query=_pd("B = B*A"),
            max_pool=200,
            deadline_ms=deadline_ms,
        )
        results = execute_plan(session, [request.with_id(i) for i in ("a", "b", "c")])
        assert evaluated == ["a"]  # one evaluation for three identical requests
        assert [r.id for r in results] == ["a", "b", "c"]
        assert results[0].value == results[1].value == results[2].value
        assert session.cache_info()["size"] == 0
