"""Benchmark-side spans: timing wrappers around the service's layer entry points.

The traced run replaces module attributes that callers look up at call time
(``repro.service.planner.lattice_word_problems``, ``Session.implies``, ...)
with wrappers that time each call.  Spans nest per thread; a span's *self
time* is its duration minus the time covered by its child spans, and a
layer's time is the sum of the self times of its spans.  Nothing under
``src/`` is changed: :meth:`Tracer.uninstall` puts every original back.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from typing import Any, Callable

#: (module, attribute path, span name, layer).  Attribute paths with a dot
#: name a class attribute (``Session.implies``).  Entries whose module or
#: attribute does not exist are skipped, so one table serves the in-process
#: workloads and the traced server alike.
LAYER_ENTRY_POINTS = (
    ("repro.service.cli", "load_request_line", "cli.load_request_line", "wire.decode"),
    ("repro.service.cli", "dump_result_line", "cli.dump_result_line", "wire.encode"),
    ("repro.service.server", "canonical_loads", "server.canonical_loads", "wire.decode"),
    ("repro.service.server", "decode_request", "server.decode_request", "wire.decode"),
    ("repro.service.server", "dump_result_line", "server.dump_result_line", "wire.encode"),
    ("repro.service.executor", "load_result_line", "executor.load_result_line", "wire.decode"),
    ("repro.service.executor", "load_request_line", "executor.load_request_line", "wire.decode"),
    ("repro.service.executor", "dump_result_line", "executor.dump_result_line", "wire.encode"),
    ("repro.service.planner", "plan", "planner.plan", "planner"),
    ("repro.service.executor", "plan", "executor.plan", "planner"),
    ("repro.service.planner", "execute_plan", "planner.execute_plan", "planner"),
    ("repro.service.planner", "lattice_word_problems", "planner.lattice_word_problems", "implication"),
    ("repro.service.planner", "fd_implies_all_via_pds", "planner.fd_implies_all_via_pds", "fd"),
    ("repro.service.session", "fd_implies_via_pds", "session.fd_implies_via_pds", "fd"),
    ("repro.service.session", "pd_consistency", "session.pd_consistency", "consistency"),
    ("repro.service.session", "normalize_dependencies", "session.normalize_dependencies", "consistency"),
    ("repro.service.session", "cad_consistency_for_fpds", "session.cad_consistency", "consistency"),
    ("repro.service.session", "quotient_fragment", "session.quotient_fragment", "quotient"),
    ("repro.service.session", "finite_counterexample", "session.finite_counterexample", "quotient"),
    ("repro.implication.alg", "ImplicationEngine.implies", "engine.implies", "implication"),
    ("repro.service.session", "Session.execute", "session.execute", "session"),
    ("repro.service.session", "Session.cache_lookup", "session.cache_lookup", "session"),
    ("repro.service.session", "Session.implies", "session.implies", "session"),
    ("repro.service.session", "Session.add_dependencies", "session.add_dependencies", "session.write"),
)

#: Span names whose results feed a counter: span name -> (counter, result -> increment).
RESULT_COUNTERS: dict[str, tuple[str, Callable[[Any], int]]] = {
    "planner.plan": ("planner.batches", len),
    "executor.plan": ("planner.batches", len),
    "session.cache_lookup": ("session.cache_hits", lambda result: int(result is not None)),
}


class Tracer:
    """Aggregated spans per name and layer, plus named counters."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        # span name -> [layer, calls, total seconds, self seconds]
        self.spans: dict[str, list] = {}
        self.counters: dict[str, int] = {}
        self._installed: list[tuple[Any, str, Any]] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn: Callable, name: str, layer: str) -> Callable:
        counter = RESULT_COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            children = [0.0]
            stack.append(children)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                with self._lock:
                    entry = self.spans.setdefault(name, [layer, 0, 0.0, 0.0])
                    entry[1] += 1
                    entry[2] += elapsed
                    entry[3] += elapsed - children[0]
            if counter is not None:
                self.count(counter[0], counter[1](result))
            return result

        return traced

    def count(self, name: str, increment: int = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + increment

    def install(self, entry_points=LAYER_ENTRY_POINTS) -> None:
        """Wrap every entry point that exists in this process."""
        for module_name, path, name, layer in entry_points:
            try:
                owner: Any = importlib.import_module(module_name)
            except ImportError:
                continue
            *owners, attr = path.split(".")
            for part in owners:
                owner = getattr(owner, part, None)
            if owner is None or not hasattr(owner, attr):
                continue
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._installed.append((owner, attr, original))
            setattr(owner, attr, self.wrap(original, name, layer))

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def calls(self, name: str) -> int:
        entry = self.spans.get(name)
        return entry[1] if entry else 0

    def layer_self_seconds(self) -> dict[str, float]:
        layers: dict[str, float] = {}
        for layer, _, _, self_seconds in self.spans.values():
            layers[layer] = layers.get(layer, 0.0) + self_seconds
        return layers

    def snapshot(self) -> dict:
        """A JSON-able copy (the traced server prints one on exit)."""
        with self._lock:
            return {
                "spans": {name: list(entry) for name, entry in self.spans.items()},
                "counters": dict(self.counters),
            }


def span_overhead_seconds(samples: int = 20000) -> float:
    """The measured cost of one wrapper call over a bare call, in seconds."""
    tracer = Tracer()

    def bare() -> None:
        return None

    wrapped = tracer.wrap(bare, "calibrate", "calibrate")
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        for _ in range(samples):
            bare()
        plain = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(samples):
            wrapped()
        traced = time.perf_counter() - start
        best = min(best, max(0.0, (traced - plain) / samples))
    return best


def layer_table(tracer: Tracer, wall_seconds: float, requests: int) -> list[str]:
    """The per-layer rows printed by a traced run: self time, share of wall."""
    rows = [f"{'layer':<14} {'calls':>8} {'self_ms':>10} {'ms/req':>8} {'share':>7}"]
    calls: dict[str, int] = {}
    for layer, count, _, _ in tracer.spans.values():
        calls[layer] = calls.get(layer, 0) + count
    layers = tracer.layer_self_seconds()
    covered = sum(layers.values())
    layers["(untraced)"] = max(0.0, wall_seconds - covered)
    for layer, seconds in sorted(layers.items(), key=lambda item: -item[1]):
        share = 100.0 * seconds / wall_seconds if wall_seconds else 0.0
        per_request = 1000.0 * seconds / requests if requests else 0.0
        rows.append(
            f"{layer:<14} {calls.get(layer, 0):>8} {seconds * 1000.0:>10.1f} "
            f"{per_request:>8.3f} {share:>6.1f}%"
        )
    return rows
