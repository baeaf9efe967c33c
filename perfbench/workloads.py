"""The three benchmark workloads: ``batch-mixed``, ``serve-zipf`` and ``long-session``.

Each workload builds its inputs from the seed, measures the program through
its public entry points for about ``seconds`` seconds, and afterwards (outside
the timed region) compares every answer byte for byte with an in-process
oracle.  It returns an :class:`Outcome`; ``run.py`` turns that into the
result line.  With ``trace=True`` the layer entry points are wrapped
(:mod:`tracing`) and the per-layer metrics are filled in.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import os
import random
import resource
import signal
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional

from repro import profiling
from repro.service import api
from repro.service.cli import serve_lines
from repro.service.config import ServiceConfig
from repro.service.planner import execute_plan, naive_dispatch
from repro.service.session import Session
from repro.service.wire import (
    QueryRequest,
    QueryResult,
    dump_request_line,
    dump_result_line,
    encode_pd,
    request_cache_key,
)
from repro.workloads.random_dependencies import random_pd, random_pd_set
from repro.workloads.random_implication import implication_query_stream
from repro.workloads.random_relations import attribute_names
from repro.workloads.random_service import (
    poisson_arrival_times,
    random_service_requests,
    zipf_multitenant_requests,
)

from speed import SpeedProbe
from tracing import Tracer, layer_table, span_overhead_seconds

ROOT = Path(__file__).resolve().parent.parent

#: batch-mixed: streams of STREAM_LENGTH requests, each over 2 theories × 8 PDs.
#: One pass answers BATCH_STREAMS distinct streams; the run repeats passes.
BATCH_STREAMS, STREAM_LENGTH = 16, 50
#: Calibration loops (speed.py) timed after each batch-mixed call.
CALIBRATION_PER_CALL = 2

#: serve-zipf: Poisson arrivals at RATE_RPS over CONNECTIONS connections.
RATE_RPS, CONNECTIONS, TENANTS, SKEW, SERVER_SHARDS = 300.0, 2, 50, 1.0, 2
#: The first WARMUP_SECONDS of the stream fill the caches and are checked
#: for correctness but not timed; the next ``--seconds`` are measured.
WARMUP_SECONDS = 3.0
#: A run whose generator sent its 99th-percentile request later than this
#: after its due time measured the client's stalls, not the server.
LAG_LIMIT_MS = 10.0
#: serve-zipf set-up is timed over this many server launches.
SERVER_LAUNCHES = 5

#: long-session: one Session over an 8-PD Γ answers SESSION_QUERIES distinct
#: queries, with SESSION_WRITES Γ-growth writes spaced evenly through them.
SESSION_PDS, SESSION_QUERIES, SESSION_WRITES = 8, 600, 3
#: long-session set-up is timed SETUP_BUILDS times on each of SETUP_THEORIES
#: seeded Γs (the first ones are the sessions' own), so one Γ cannot set it.
SETUP_THEORIES, SETUP_BUILDS = 24, 2
#: A calibration loop is timed after every CALIBRATION_EVERY session calls.
CALIBRATION_EVERY = 20

#: The end-to-end metrics and their units; every workload reports all of them.
END_TO_END_UNITS = {
    "setup_s": "s",
    "throughput_rps": "req/s",
    "latency_p50_ms": "ms",
    "latency_p95_ms": "ms",
    "peak_rss_mb": "MB",
}

#: The per-layer metrics and their units; every traced run reports all of them
#: (0 where the workload bypasses the layer).
PER_LAYER_UNITS = {
    "wire.decode_ms": "ms/req",
    "wire.encode_ms": "ms/req",
    "planner.plan_ms": "ms/req",
    "planner.batches": "count",
    "planner.alg_engines": "count",
    "implication.kernel_ms": "ms/req",
    "implication.share_pct": "%",
    "implication.vertices": "count",
    "implication.arcs": "count",
    "implication.classes": "count",
    "consistency.kernel_ms": "ms/req",
    "kernel.chase_steps": "count",
    "quotient.kernel_ms": "ms/req",
    "kernel.closure_pops": "count",
    "fd.kernel_ms": "ms/req",
    "session.cache_hit_rate": "ratio",
    "session.write_ms": "ms",
    "session.latency_drift": "ratio",
    "microbatch.queue_wait_p50_ms": "ms",
    "microbatch.queue_wait_p99_ms": "ms",
    "microbatch.execute_p50_ms": "ms",
    "microbatch.respond_p50_ms": "ms",
    "microbatch.windows": "count",
    "microbatch.window_mean_size": "count",
    "microbatch.timer_close_share": "ratio",
    "result_cache.shared_hit_rate": "ratio",
    "result_cache.worker_hit_rate": "ratio",
    "result_cache.evictions": "count",
    "executor.units_dispatched": "count",
    "supervisor.retries": "count",
    "supervisor.crashes": "count",
    "supervisor.timeouts": "count",
    "generator.lag_p99_ms": "ms",
    "trace.overhead_pct": "%",
}

#: Durations scaled by a closed loop's speed factor.
SCALED_DURATIONS = ("setup_s", "latency_p50_ms", "latency_p95_ms")

#: Layer (as named in tracing.LAYER_ENTRY_POINTS) -> per-request time metric.
LAYER_TIME_METRICS = {
    "wire.decode": "wire.decode_ms",
    "wire.encode": "wire.encode_ms",
    "planner": "planner.plan_ms",
    "implication": "implication.kernel_ms",
    "consistency": "consistency.kernel_ms",
    "quotient": "quotient.kernel_ms",
    "fd": "fd.kernel_ms",
}


@dataclass
class Outcome:
    """What one run measured and checked."""

    attempted: int = 0
    failed: int = 0
    mismatched: int = 0
    metrics: dict = field(default_factory=dict)
    per_layer: dict = field(default_factory=dict)
    #: Counts a seed fixes; they must repeat exactly between runs of that seed.
    counts: dict = field(default_factory=dict)
    meta: dict = field(default_factory=dict)
    table: list = field(default_factory=list)
    valid: bool = True


def percentile(values, point: int) -> float:
    """The ``point``-th percentile (1..99), interpolated between samples."""
    return statistics.quantiles(values, n=100, method="inclusive")[point - 1]


def drift(latencies) -> float:
    """Median of the last tenth of the samples over the median of the first tenth."""
    tenth = max(1, len(latencies) // 10)
    return statistics.median(latencies[-tenth:]) / statistics.median(latencies[:tenth])


def peak_rss_mb() -> float:
    """This process's peak resident set size (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def repeat_key_share(requests) -> float:
    """Share of requests whose cache key an earlier request of the input already had."""
    seen: set = set()
    repeats = 0
    for request in requests:
        key = request_cache_key(request)
        repeats += key in seen
        seen.add(key)
    return repeats / len(requests) if requests else 0.0


def check_answers(observed, expected) -> tuple[int, int]:
    """(failed, mismatched) over aligned answer lines; ``None`` is a missing answer.

    An answer fails when it is missing, differs from the oracle's bytes, or
    is an ``ok=false`` result.
    """
    failed = mismatched = 0
    for line, reference in zip(observed, expected):
        if line != reference:
            mismatched += 1
            failed += 1
        elif '"ok":false' in line:
            failed += 1
    missing = len(expected) - min(len(observed), len(expected))
    return failed + missing, mismatched + missing


def index_sizes(index) -> dict:
    return {
        "implication.vertices": index.vertex_count,
        "implication.arcs": index.arc_count(),
        "implication.classes": index.class_count,
    }


def layer_metrics(tracer: Tracer, wall_seconds: float, requests: int) -> dict:
    """Per-request self time of each traced layer, the implication share, and call counts."""
    layers = tracer.layer_self_seconds()
    out = {
        metric: 1000.0 * layers.get(layer, 0.0) / requests
        for layer, metric in LAYER_TIME_METRICS.items()
    }
    out["implication.share_pct"] = 100.0 * layers.get("implication", 0.0) / wall_seconds
    lookups = tracer.calls("session.cache_lookup")
    hits = tracer.counters.get("session.cache_hits", 0)
    out["session.cache_hit_rate"] = hits / lookups if lookups else 0.0
    writes = tracer.calls("session.add_dependencies")
    out["session.write_ms"] = 1000.0 * layers.get("session.write", 0.0) / writes if writes else 0.0
    return out


def round_counts(tracer: Tracer, prof: profiling.KernelProfile) -> dict:
    """The seed-fixed counts of one round of work."""
    return {
        "planner.batches": tracer.counters.get("planner.batches", 0),
        "planner.alg_engines": tracer.calls("planner.lattice_word_problems"),
        "session.cache_hits": tracer.counters.get("session.cache_hits", 0),
        "kernel.chase_steps": prof.chase_steps,
        "kernel.closure_pops": prof.closure_pops,
    }


def zero_layers() -> dict:
    return {name: 0.0 for name in PER_LAYER_UNITS}


def at_nominal_speed(outcome: Outcome, raw: dict, probe: SpeedProbe) -> None:
    """Set a closed in-process loop's end-to-end metrics at the nominal machine speed.

    All of such a run's measured time is this process's own computation, so
    its durations are multiplied by the speed factor and its throughput is
    divided by it.  The raw figures and the factor go into the metadata.
    """
    factor = probe.factor()
    outcome.metrics = dict(raw)
    for name in SCALED_DURATIONS:
        outcome.metrics[name] = raw[name] * factor
    outcome.metrics["throughput_rps"] = raw["throughput_rps"] / factor
    outcome.meta["speed_factor"] = factor
    outcome.meta["calibration_samples"] = len(probe.samples)
    outcome.meta["raw_metrics"] = raw


# -- batch-mixed --------------------------------------------------------------


def batch_streams(seed: int) -> list[list[QueryRequest]]:
    return [
        random_service_requests(
            STREAM_LENGTH,
            seed=random.Random(f"batch-mixed/{seed}/{k}"),
            theory_count=2,
            pds_per_theory=8,
            max_complexity=3,
        )
        for k in range(BATCH_STREAMS)
    ]


def _warm_session(requests) -> float:
    """Seconds to build a session and warm every Γ the stream names."""
    start = time.perf_counter()
    session = ServiceConfig().make_session()
    seen = set()
    for request in requests:
        if request.dependencies is None or request.kind == "fd_implies":
            continue
        key = tuple(encode_pd(pd) for pd in request.dependencies)
        if key in seen:
            continue
        seen.add(key)
        context = session.context_for(request)
        context.warm_up()
        context.chase_engine  # noqa: B018 - property access builds the chase artifacts
    return time.perf_counter() - start


class _RecordingEngines:
    """Swaps the engine class the batch word-problem kernel builds, keeping each one."""

    def __init__(self) -> None:
        from repro.implication import word_problems

        self._module = word_problems
        self._original = word_problems.ImplicationEngine
        self.engines: list = []
        engines = self.engines

        class Recorded(self._original):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                engines.append(self)

        word_problems.ImplicationEngine = Recorded

    def restore(self) -> dict:
        self._module.ImplicationEngine = self._original
        totals = {"implication.vertices": 0, "implication.arcs": 0, "implication.classes": 0}
        for engine in self.engines:
            if engine.index is not None:
                for name, value in index_sizes(engine.index).items():
                    totals[name] += value
        self.engines.clear()
        return totals


def run_batch_mixed(seed: int, seconds: float, trace: bool) -> Outcome:
    streams = batch_streams(seed)
    lines = [[dump_request_line(request) for request in stream] for stream in streams]
    probe = SpeedProbe()
    setups = []
    for stream in streams:
        setups.append(_warm_session(stream))
        probe.sample()

    tracer = Tracer() if trace else None
    recorder = None
    if tracer is not None:
        tracer.install()
        recorder = _RecordingEngines()
    config = ServiceConfig()
    prof_total = profiling.KernelProfile()
    counts: dict = {}
    outputs: list[tuple[int, list[str]]] = []
    latencies: list[float] = []
    calls = 0
    started = time.perf_counter()
    # Closed loop, one caller: each call answers one stream, cycling through
    # the streams at least once and until the time is used up.
    while calls < BATCH_STREAMS or time.perf_counter() - started < seconds:
        k = calls % BATCH_STREAMS
        call_start = time.perf_counter()
        if tracer is not None:
            with profiling.profile() as prof:
                out, _ = serve_lines(lines[k], config=config)
            prof_total.merge(prof)
        else:
            out, _ = serve_lines(lines[k], config=config)
        latencies.append(time.perf_counter() - call_start)
        outputs.append((k, out))
        calls += 1
        probe.sample(CALIBRATION_PER_CALL)
        if tracer is not None and calls == BATCH_STREAMS:
            counts = round_counts(tracer, prof_total)
            counts.update(recorder.restore())
    wall = sum(latencies)
    rss = peak_rss_mb()
    if tracer is not None:
        tracer.uninstall()

    oracle = [[dump_result_line(r) for r in execute_plan(Session(), stream)] for stream in streams]
    outcome = Outcome(counts=counts)
    for k, out in outputs:
        failed, mismatched = check_answers(out, oracle[k])
        outcome.attempted += len(oracle[k])
        outcome.failed += failed
        outcome.mismatched += mismatched

    first: dict[int, float] = {}
    last: dict[int, float] = {}
    for (k, _), latency in zip(outputs, latencies):
        if k in first:
            last[k] = latency
        first.setdefault(k, latency)
    # Each stream's last call over its first: the same work, late and early
    # in the process's life (every call gets a fresh session).
    stream_drift = statistics.median(last[k] / first[k] for k in last) if last else 0.0
    raw = {
        "setup_s": statistics.median(setups),
        "throughput_rps": outcome.attempted / wall,
        "latency_p50_ms": 1000.0 * statistics.median(latencies),
        "latency_p95_ms": 1000.0 * percentile(latencies, 95),
        "peak_rss_mb": rss,
    }
    all_requests = [request for stream in streams for request in stream]
    outcome.meta = {
        "streams": BATCH_STREAMS,
        "stream_length": STREAM_LENGTH,
        "calls": calls,
        "latency_samples": len(latencies),
        "latency_unit": "one file-CLI call answering one stream",
        "latency_p99_ms": 1000.0 * percentile(latencies, 99),
        "latency_drift": stream_drift,
        "repeat_key_share": round(
            statistics.mean(repeat_key_share(stream) for stream in streams), 4
        ),
        "requests_per_kind": _kinds(all_requests),
    }
    at_nominal_speed(outcome, raw, probe)
    if tracer is not None:
        outcome.per_layer = _traced_layers(tracer, counts, wall, outcome.attempted)
        outcome.per_layer["session.latency_drift"] = stream_drift
        outcome.per_layer["trace.overhead_pct"] = _interleaved_overhead(
            lambda: serve_lines(lines[0], config=config)
        )
        outcome.table = layer_table(tracer, wall, outcome.attempted)
    return outcome


def _kinds(requests) -> dict:
    return dict(sorted(Counter(request.kind for request in requests).items()))


def _traced_layers(tracer, counts, wall, requests) -> dict:
    layers = zero_layers()
    layers.update(layer_metrics(tracer, wall, requests))
    layers.update({name: value for name, value in counts.items() if name in layers})
    return layers


def _interleaved_overhead(work, pairs: int = 3) -> float:
    """Tracing overhead on ``work``, as a percentage of its untraced time.

    The work runs untraced and traced (wrappers plus kernel counters) in
    alternation, so a change in machine speed hits both sides alike; the
    medians of the two sides are compared.
    """
    plain: list[float] = []
    traced: list[float] = []
    for _ in range(pairs):
        start = time.perf_counter()
        work()
        plain.append(time.perf_counter() - start)
        tracer = Tracer()
        tracer.install()
        try:
            with profiling.profile():
                start = time.perf_counter()
                work()
                traced.append(time.perf_counter() - start)
        finally:
            tracer.uninstall()
    return 100.0 * (statistics.median(traced) / statistics.median(plain) - 1.0)


# -- long-session -------------------------------------------------------------


@dataclass
class SessionInputs:
    theory: list
    queries: list
    writes: list

    def write_points(self) -> dict[int, object]:
        step = len(self.queries) // (len(self.writes) + 1)
        return {step * (w + 1): pd for w, pd in enumerate(self.writes)}


def _session_rng(seed: int, index: int) -> random.Random:
    return random.Random(f"long-session/{seed}/{index}")


def session_theory(seed: int, index: int) -> list:
    """Session ``index``'s Γ (the first draw of its generator)."""
    return random_pd_set(5, SESSION_PDS, seed=_session_rng(seed, index), max_complexity=3)


def session_inputs(seed: int, index: int) -> SessionInputs:
    rng = _session_rng(seed, index)
    universe = attribute_names(5)
    theory = random_pd_set(5, SESSION_PDS, seed=rng, max_complexity=3)
    seen: set = set()
    queries = []
    stream = implication_query_stream(theory, universe, seed=rng, max_complexity=3)
    for query in itertools.islice(stream, 100 * SESSION_QUERIES):
        key = encode_pd(query)
        if key not in seen:
            seen.add(key)
            queries.append(query)
            if len(queries) == SESSION_QUERIES:
                break
    writes = [random_pd(universe, rng, 2) for _ in range(SESSION_WRITES)]
    return SessionInputs(theory, queries, writes)


def _implies_line(index: int, implied: bool) -> str:
    result = QueryResult(kind="implies", ok=True, id=f"q{index}", value={"implied": implied})
    return dump_result_line(result)


def _session_oracle(inputs: SessionInputs) -> list[str]:
    """execute_plan on a fresh session, replaying the writes between segments."""
    session = Session(inputs.theory)
    points = inputs.write_points()
    lines: list[str] = []
    segment: list[QueryRequest] = []
    for index, query in enumerate(inputs.queries + [None]):
        if index in points or query is None:
            lines.extend(dump_result_line(r) for r in execute_plan(session, segment))
            segment = []
            if query is None:
                break
            session.add_dependencies([points[index]])
        segment.append(api.implies_request(query, id=f"q{index}"))
    return lines


def _gamma_index(session: Session, inputs: SessionInputs):
    """The session's persistent implication index for its own Γ."""
    return session.context_for(api.implies_request(inputs.queries[0])).engine.index


@dataclass
class SessionRun:
    """One long session's answers and timings."""

    lines: list
    latencies: list
    #: Seconds of the whole loop, and the parts of them spent on the replay
    #: calls and on calibration loops.
    loop_seconds: float = 0.0
    replay_seconds: float = 0.0
    calibration_seconds: float = 0.0
    #: Median latency of the last tenth of calls over that of the first tenth.
    drift: float = 0.0
    failed: int = 0
    mismatched: int = 0


def _answer_session(
    session: Session, inputs: SessionInputs, trajectory=None, probe: Optional[SpeedProbe] = None
) -> SessionRun:
    """One caller, one call at a time, through the typed ``Session.implies``.

    The last tenth of the calls alternates with a replay of the first tenth
    on a fresh session over the same Γ, so the two medians the drift compares
    are taken in the same stretch of time and a change in machine speed
    during the session cancels out.  The replay's answers must equal the
    first tenth's.  With a ``probe``, a calibration loop runs every
    CALIBRATION_EVERY calls.
    """
    points = inputs.write_points()
    count = len(inputs.queries)
    tenth = max(1, count // 10)
    fresh = Session(inputs.theory)
    replay: list[float] = []
    run = SessionRun(lines=[], latencies=[])

    def ask(target: Session, position: int) -> tuple[Optional[str], float]:
        start = time.perf_counter()
        try:
            answer = target.implies(inputs.queries[position])
        except Exception:  # a failed call is a failed request
            return None, time.perf_counter() - start
        return _implies_line(position, answer.implied), time.perf_counter() - start

    started = time.perf_counter()
    for position in range(count):
        if position in points:
            try:
                session.add_dependencies([points[position]])
            except Exception:  # a failed write is a failed request
                run.failed += 1
        if position >= count - tenth:
            line, seconds = ask(fresh, position - (count - tenth))
            replay.append(seconds)
            run.replay_seconds += seconds
            if line != run.lines[position - (count - tenth)]:
                run.failed += 1
                run.mismatched += 1
        line, seconds = ask(session, position)
        run.lines.append(line)
        run.latencies.append(seconds)
        if trajectory is not None and (position + 1) % tenth == 0:
            trajectory.append(_gamma_index(session, inputs).vertex_count)
        if probe is not None and (position + 1) % CALIBRATION_EVERY == 0:
            spent = probe.seconds
            probe.sample()
            run.calibration_seconds += probe.seconds - spent
    run.loop_seconds = time.perf_counter() - started
    run.drift = statistics.median(run.latencies[-tenth:]) / statistics.median(replay)
    return run


def run_long_session(seed: int, seconds: float, trace: bool) -> Outcome:
    tracer = Tracer() if trace else None
    outcome = Outcome()
    setups: list[float] = []
    latencies: list[float] = []
    drifts: list[float] = []
    answered: list[tuple[SessionInputs, list[Optional[str]]]] = []
    trajectory: list[int] = []
    probe = SpeedProbe()
    for theory_index in range(SETUP_THEORIES):
        theory = session_theory(seed, theory_index)
        for _ in range(SETUP_BUILDS):
            start = time.perf_counter()
            Session(theory)  # construction includes the Γ warm-up
            setups.append(time.perf_counter() - start)
            probe.sample()
    # wall: the session's own calls (throughput); traced_wall adds the replay
    # calls, which the traced spans also cover.  Calibration is in neither.
    wall = traced_wall = 0.0
    index = 0
    # Whole sessions until the time is used up: every session is the same
    # size, so its drift does not depend on how fast the program is.
    while index == 0 or wall < seconds:
        inputs = session_inputs(seed, index)
        session = Session(inputs.theory)
        if tracer is None:
            run = _answer_session(session, inputs, trajectory if index == 0 else None, probe)
        else:
            tracer.install()
            with profiling.profile() as prof:
                run = _answer_session(session, inputs, trajectory if index == 0 else None, probe)
            tracer.uninstall()
        wall += run.loop_seconds - run.replay_seconds - run.calibration_seconds
        traced_wall += run.loop_seconds - run.calibration_seconds
        if index == 0:
            outcome.counts = index_sizes(_gamma_index(session, inputs))
            if tracer is not None:
                outcome.counts.update(round_counts(tracer, prof))
        outcome.attempted += len(inputs.queries) + len(inputs.writes)
        outcome.failed += run.failed
        outcome.mismatched += run.mismatched
        latencies.extend(run.latencies)
        drifts.append(run.drift)
        answered.append((inputs, run.lines))
        index += 1
    rss = peak_rss_mb()

    for inputs, lines in answered:
        failed, mismatched = check_answers(lines, _session_oracle(inputs))
        outcome.failed += failed
        outcome.mismatched += mismatched

    raw = {
        "setup_s": statistics.median(setups),
        "throughput_rps": outcome.attempted / wall,
        "latency_p50_ms": 1000.0 * statistics.median(latencies),
        "latency_p95_ms": 1000.0 * percentile(latencies, 95),
        "peak_rss_mb": rss,
    }
    outcome.meta = {
        "sessions": index,
        "queries_per_session": SESSION_QUERIES,
        "writes_per_session": SESSION_WRITES,
        "gamma_pds": SESSION_PDS,
        "latency_samples": len(latencies),
        "latency_p99_ms": 1000.0 * percentile(latencies, 99),
        "latency_drift": statistics.median(drifts),
        "session_drifts": [round(value, 3) for value in drifts],
        "vertex_trajectory": trajectory,
        "repeat_key_share": 0.0,
    }
    at_nominal_speed(outcome, raw, probe)
    if tracer is not None:
        first = answered[0][0]
        outcome.per_layer = _traced_layers(tracer, outcome.counts, traced_wall, outcome.attempted)
        outcome.per_layer["session.latency_drift"] = statistics.median(drifts)
        opening = SessionInputs(first.theory, first.queries[: len(first.queries) // 4], [])
        outcome.per_layer["trace.overhead_pct"] = _interleaved_overhead(
            lambda: _answer_session(Session(first.theory), opening)
        )
        outcome.table = layer_table(tracer, traced_wall, outcome.attempted)
    return outcome


# -- serve-zipf ---------------------------------------------------------------


def zipf_inputs(seed: int, seconds: float) -> tuple[list[QueryRequest], list[float]]:
    """The warm-up prefix and the measured stream, with their Poisson due times."""
    rng = random.Random(f"serve-zipf/{seed}")
    count = int(RATE_RPS * WARMUP_SECONDS) + max(1, int(RATE_RPS * seconds))
    requests = zipf_multitenant_requests(count, seed=rng, tenants=TENANTS, skew=SKEW)
    return requests, poisson_arrival_times(count, RATE_RPS, seed=rng)


def warmup_lines(count: int = 4) -> list[str]:
    """Requests outside the stream (own tenant) that bring both workers up."""
    requests = random_service_requests(count, seed=random.Random("serve-zipf/warmup"))
    return [dump_request_line(replace(r, tenant="perfbench-warmup")) for r in requests]


class Server:
    """``python -m repro.service serve`` as a child process."""

    def __init__(self, traced: bool) -> None:
        self.traced = traced
        self.process: Optional[asyncio.subprocess.Process] = None
        self.host = ""
        self.port = 0

    async def start(self, timeout: float = 60.0) -> float:
        """Launch, connect and wait for the first ``pong``; returns the seconds taken."""
        if self.traced:
            program = [str(ROOT / "perfbench" / "traced_server.py")]
        else:
            program = ["-m", "repro.service"]
        env = dict(os.environ)
        env["PYTHONPATH"] = str(ROOT / "src")
        started = time.perf_counter()
        self.process = await asyncio.create_subprocess_exec(
            sys.executable,
            *program,
            "serve",
            "--shards",
            str(SERVER_SHARDS),
            "--port",
            "0",
            stdin=asyncio.subprocess.DEVNULL,
            stdout=asyncio.subprocess.DEVNULL,
            stderr=asyncio.subprocess.PIPE,
            env=env,
            cwd=str(ROOT),
            start_new_session=True,
        )
        while True:
            raw = await asyncio.wait_for(self.process.stderr.readline(), timeout)
            if not raw:
                raise RuntimeError("server exited before announcing its address")
            text = raw.decode("utf-8", "replace")
            if "serving on" in text:
                self.host, _, port = text.strip().rpartition(" ")[2].rpartition(":")
                self.port = int(port)
                break
        reader, writer = await asyncio.open_connection(self.host, self.port)
        writer.write(b'{"control":"ping"}\n')
        pong = await asyncio.wait_for(reader.readline(), timeout)
        elapsed = time.perf_counter() - started
        writer.close()
        await writer.wait_closed()
        if b"pong" not in pong:
            raise RuntimeError(f"unexpected ping answer {pong!r}")
        return elapsed

    def descendants(self) -> list[int]:
        children: dict[int, list[int]] = {}
        for entry in os.listdir("/proc"):
            if not entry.isdigit():
                continue
            try:
                with open(f"/proc/{entry}/stat", "rb") as handle:
                    stat = handle.read()
            except OSError:
                continue
            ppid = int(stat[stat.rindex(b")") + 2 :].split()[1])
            children.setdefault(ppid, []).append(int(entry))
        found, frontier = [], [self.process.pid]
        while frontier:
            pid = frontier.pop()
            found.append(pid)
            frontier.extend(children.get(pid, ()))
        return found

    def peak_rss_mb(self) -> float:
        """Sum of VmHWM (peak resident set) over the server and its workers."""
        total_kb = 0
        for pid in self.descendants():
            try:
                with open(f"/proc/{pid}/status") as handle:
                    for line in handle:
                        if line.startswith("VmHWM:"):
                            total_kb += int(line.split()[1])
            except OSError:
                continue
        return total_kb / 1024.0

    async def stop(self, timeout: float = 30.0) -> str:
        """SIGTERM (graceful drain), wait, and return what is left on stderr."""
        process = self.process
        if process is None or process.returncode is not None:
            return ""
        process.send_signal(signal.SIGTERM)
        try:
            _, err = await asyncio.wait_for(process.communicate(), timeout)
        except asyncio.TimeoutError:
            os.killpg(process.pid, signal.SIGKILL)
            _, err = await process.communicate()
        return err.decode("utf-8", "replace")


async def _exchange(host: str, port: int, lines: list[str]) -> list[str]:
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write("".join(line + "\n" for line in lines).encode("utf-8"))
        await writer.drain()
        return [(await asyncio.wait_for(reader.readline(), 60)).decode().rstrip("\n") for _ in lines]
    finally:
        writer.close()
        await writer.wait_closed()


async def _open_loop(host: str, port: int, lines: list[str], arrivals: list[float]):
    """Send each line at its due time over CONNECTIONS connections.

    Returns (answers, due times, answer times, send lags), times in
    ``perf_counter`` seconds; a missing answer is ``None``.
    """
    count = len(lines)
    connections = [await asyncio.open_connection(host, port) for _ in range(CONNECTIONS)]
    due = [0.0] * count
    answers: list[Optional[str]] = [None] * count
    answered_at: list[Optional[float]] = [None] * count

    async def read_answers(connection: int) -> None:
        reader = connections[connection][0]
        # The server answers each connection strictly in its request order.
        for index in range(connection, count, CONNECTIONS):
            raw = await reader.readline()
            if not raw:
                return
            answered_at[index] = time.perf_counter()
            answers[index] = raw.decode("utf-8").rstrip("\n")

    readers = [asyncio.ensure_future(read_answers(c)) for c in range(CONNECTIONS)]
    lags: list[float] = []
    origin = time.perf_counter() + 0.05
    for index, line in enumerate(lines):
        due[index] = origin + arrivals[index]
        while (delay := due[index] - time.perf_counter()) > 0:
            await asyncio.sleep(delay)
        lags.append(time.perf_counter() - due[index])
        connections[index % CONNECTIONS][1].write(line.encode("utf-8") + b"\n")
    try:
        await asyncio.wait_for(asyncio.gather(*readers), timeout=120)
    except asyncio.TimeoutError:
        for task in readers:
            task.cancel()
    for _, writer in connections:
        writer.close()
    return answers, due, answered_at, lags


async def _serve_zipf(seed: int, seconds: float, trace: bool) -> Outcome:
    requests, arrivals = zipf_inputs(seed, seconds)
    lines = [dump_request_line(request) for request in requests]
    setups: list[float] = []
    servers: list[Server] = []
    try:
        for _ in range(SERVER_LAUNCHES - 1):
            server = Server(traced=trace)
            servers.append(server)
            setups.append(await server.start())
            await server.stop()
        server = Server(traced=trace)
        servers.append(server)
        setups.append(await server.start())
        await _exchange(server.host, server.port, warmup_lines())
        answers, due, answered_at, lags = await _open_loop(server.host, server.port, lines, arrivals)
        stats_line = (await _exchange(server.host, server.port, ['{"control":"stats"}']))[0]
        rss = server.peak_rss_mb()
        stderr = await server.stop()
    finally:
        for leftover in servers:
            await leftover.stop()

    outcome = Outcome(attempted=len(requests))
    oracle = [dump_result_line(r) for r in execute_plan(Session(), requests)]
    naive = _naive_unique(requests)
    outcome.failed, outcome.mismatched = check_answers(answers, oracle)
    disagree = sum(a != b for a, b in zip(oracle, naive))
    outcome.failed += disagree
    outcome.mismatched += disagree

    first = int(RATE_RPS * WARMUP_SECONDS)
    done = [(due[i], answered_at[i]) for i in range(first, len(requests)) if answered_at[i] is not None]
    measured = [answered - sent for sent, answered in done]
    wall = max(answered for _, answered in done) - due[first]
    lag_p99_ms = 1000.0 * percentile(lags[first:], 99)
    outcome.valid = lag_p99_ms <= LAG_LIMIT_MS
    # Not scaled to the nominal machine speed: most of a request's latency
    # here is micro-batch window time, which runs on the wall clock.
    outcome.metrics = {
        "setup_s": statistics.median(setups),
        "throughput_rps": len(measured) / wall,
        "latency_p50_ms": 1000.0 * statistics.median(measured),
        "latency_p95_ms": 1000.0 * percentile(measured, 95),
        "peak_rss_mb": rss,
    }
    stats = json.loads(stats_line).get("stats", {})
    outcome.meta = {
        "rate_rps": RATE_RPS,
        "connections": CONNECTIONS,
        "tenants": TENANTS,
        "skew": SKEW,
        "shards": SERVER_SHARDS,
        "warmup_requests": first,
        "measured_requests": len(requests) - first,
        "latency_samples": len(measured),
        "latency_p99_ms": 1000.0 * percentile(measured, 99),
        "latency_drift": drift(measured),
        "generator_lag_p99_ms": round(lag_p99_ms, 3),
        "repeat_key_share": round(repeat_key_share(requests), 4),
        "shared_cache_hits": stats.get("result_cache", {}).get("tiers", {}).get("shared", {}).get("hits"),
    }
    if trace:
        # The traced spans cover the warm-up too, so they are set against the
        # whole stream: every request, from the first due time to the last answer.
        stream_wall = max(t for t in answered_at if t is not None) - due[0]
        outcome.per_layer = _server_layers(stats, stderr, len(requests), stream_wall)
        outcome.per_layer["generator.lag_p99_ms"] = lag_p99_ms
        outcome.per_layer["session.latency_drift"] = drift(measured)
        outcome.table = outcome.per_layer.pop("_table")
    return outcome


def _naive_unique(requests: list[QueryRequest]) -> list[str]:
    """naive_dispatch once per distinct question, re-stamped with each request's id."""
    keys = [request_cache_key(request) for request in requests]
    distinct: dict[str, QueryRequest] = {}
    for key, request in zip(keys, requests):
        distinct.setdefault(key, request)
    answers = dict(zip(distinct, naive_dispatch(list(distinct.values()))))
    return [dump_result_line(replace(answers[key], id=request.id)) for key, request in zip(keys, requests)]


def _server_layers(stats: dict, stderr: str, requests: int, wall: float) -> dict:
    layers = zero_layers()
    tracer = Tracer()
    for line in stderr.splitlines():
        if line.startswith("perfbench-trace "):
            snapshot = json.loads(line[len("perfbench-trace ") :])
            tracer.spans = snapshot["spans"]
            tracer.counters = snapshot["counters"]
    layers.update(layer_metrics(tracer, wall, requests))
    layers["planner.batches"] = tracer.counters.get("planner.batches", 0)
    latency = stats.get("latency_ms", {})
    windows = stats.get("windows", {})
    window_count = windows.get("count") or 0
    layers["microbatch.queue_wait_p50_ms"] = latency.get("queue_wait", {}).get("p50") or 0.0
    layers["microbatch.queue_wait_p99_ms"] = latency.get("queue_wait", {}).get("p99") or 0.0
    layers["microbatch.execute_p50_ms"] = latency.get("execute", {}).get("p50") or 0.0
    layers["microbatch.respond_p50_ms"] = latency.get("respond", {}).get("p50") or 0.0
    layers["microbatch.windows"] = window_count
    layers["microbatch.window_mean_size"] = windows.get("mean_size") or 0.0
    layers["microbatch.timer_close_share"] = (
        windows.get("closed_by", {}).get("timer", 0) / window_count if window_count else 0.0
    )
    tiers = stats.get("result_cache", {}).get("tiers", {})
    layers["result_cache.shared_hit_rate"] = tiers.get("shared", {}).get("hit_rate", 0.0)
    layers["result_cache.worker_hit_rate"] = tiers.get("worker", {}).get("hit_rate", 0.0)
    layers["result_cache.evictions"] = tiers.get("shared", {}).get("evictions", 0)
    layers["session.cache_hit_rate"] = layers["result_cache.worker_hit_rate"]
    supervision = stats.get("supervision", {})
    layers["executor.units_dispatched"] = supervision.get("units_dispatched", 0)
    for name in ("retries", "crashes", "timeouts"):
        layers[f"supervisor.{name}"] = supervision.get(name, 0)
    spans = sum(entry[1] for entry in tracer.spans.values())
    layers["trace.overhead_pct"] = 100.0 * spans * span_overhead_seconds() / wall
    layers["_table"] = layer_table(tracer, wall, requests)
    return layers


def run_serve_zipf(seed: int, seconds: float, trace: bool) -> Outcome:
    return asyncio.run(_serve_zipf(seed, seconds, trace))


WORKLOADS = {
    "batch-mixed": run_batch_mixed,
    "serve-zipf": run_serve_zipf,
    "long-session": run_long_session,
}

