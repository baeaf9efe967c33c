"""The service's one result cache.

Every answer the service gives is a pure function of the canonical request
bytes (:func:`repro.service.wire.request_cache_key`: tenant embedded; id,
deadline and trace excluded) and the tenant's Γ.  A cache keyed that way is
exact wherever it sits, so one tier is enough:

* the in-process backend's :class:`~repro.service.session.Session` holds one;
* the sharded backend's :class:`~repro.service.executor.ShardExecutor` holds
  one in the parent — hits are answered before any work unit is formed,
  computed results are published on reassembly — and its workers run
  cacheless.

:class:`ResultCache` owns every caching rule: results are stored without the
caller's id (re-stamped on hit), error results are never stored, and growing
a tenant's Γ drops exactly the entries answered against it.  It keeps per-tenant hit/miss counters for the
stats surface and exports/loads the snapshot's result entries.  All
operations take a lock — the micro-batcher's window thread and control lines
may race.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from collections.abc import Iterable
from dataclasses import replace
from typing import Optional

from repro.errors import ServiceError
from repro.service.wire import QueryRequest, QueryResult, decode_result, encode_result

__all__ = ["ResultCache", "tenant_label"]


def tenant_label(tenant: Optional[str]) -> str:
    """The display name of a tenant key (``None`` is the default tenant)."""
    return "default" if tenant is None else tenant


class ResultCache:
    """A lock-protected LRU of wire results keyed on canonical request bytes."""

    def __init__(self, maxsize: int = 1024) -> None:
        self._maxsize = max(0, maxsize)
        self._lock = threading.Lock()
        # key -> (uses_tenant_gamma, tenant, result-without-caller-id)
        self._entries: "OrderedDict[str, tuple[bool, Optional[str], QueryResult]]" = OrderedDict()
        self._hits = 0
        self._misses = 0
        self._stores = 0
        self._evictions = 0
        self._tenant_hits: dict[Optional[str], int] = {}
        self._tenant_misses: dict[Optional[str], int] = {}

    @property
    def enabled(self) -> bool:
        return self._maxsize > 0

    def lookup(self, key: str, request: QueryRequest) -> Optional[QueryResult]:
        """The cached result re-stamped with the request's id, or ``None``."""
        if not self._maxsize:
            return None
        tenant = request.tenant
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self._hits += 1
                self._tenant_hits[tenant] = self._tenant_hits.get(tenant, 0) + 1
                return replace(entry[2], id=request.id, cached=True)
            self._misses += 1
            self._tenant_misses[tenant] = self._tenant_misses.get(tenant, 0) + 1
            return None

    def store(self, key: str, request: QueryRequest, result: QueryResult) -> None:
        """Insert a computed result (error results are never cached)."""
        if not self._maxsize or not result.ok:
            return
        # Only answers over the tenant's base Γ go stale when it grows:
        # explicit-Γ requests and fd_implies (which reasons over its own Σ)
        # survive invalidate_tenant.
        uses_tenant_gamma = request.dependencies is None and request.kind != "fd_implies"
        entry = (uses_tenant_gamma, request.tenant, replace(result, id=None, cached=False))
        with self._lock:
            self._entries[key] = entry
            self._stores += 1
            while len(self._entries) > self._maxsize:
                self._entries.popitem(last=False)
                self._evictions += 1

    def invalidate_tenant(self, tenant: Optional[str]) -> int:
        """Drop the tenant's base-Γ entries (its Γ grew); returns the count dropped."""
        with self._lock:
            keep = OrderedDict(
                (key, entry)
                for key, entry in self._entries.items()
                if not (entry[0] and entry[1] == tenant)
            )
            dropped = len(self._entries) - len(keep)
            self._entries = keep
            return dropped

    def info(self) -> dict:
        """Counters and per-tenant traffic, shaped for the stats surface.

        ``per_tenant`` is sorted by label so the dict itself (not just its
        canonical-JSON rendering) is deterministic.
        """
        with self._lock:
            tenants = sorted(set(self._tenant_hits) | set(self._tenant_misses), key=tenant_label)
            return {
                "hits": self._hits,
                "misses": self._misses,
                "stores": self._stores,
                "evictions": self._evictions,
                "size": len(self._entries),
                "maxsize": self._maxsize,
                "per_tenant": {
                    tenant_label(tenant): {
                        "hits": self._tenant_hits.get(tenant, 0),
                        "misses": self._tenant_misses.get(tenant, 0),
                    }
                    for tenant in tenants
                },
            }

    # -- snapshot entries ------------------------------------------------------

    def export_entries(self) -> list:
        """The snapshot's ``[key, uses_gamma, tenant, result]`` entries, in LRU order."""
        with self._lock:
            return [
                [key, uses_gamma, tenant, encode_result(result)]
                for key, (uses_gamma, tenant, result) in self._entries.items()
            ]

    def load_entries(self, entries: Iterable[list]) -> None:
        """Install snapshot entries (shape-checked by the snapshot decoder).

        Results re-enter through the wire codec.  Entries beyond the capacity
        are dropped from the cold (least recent) end; counters are untouched
        — they are per-process diagnostics, not snapshot state.
        """
        loaded = []
        for key, uses_gamma, tenant, payload in entries:
            result = decode_result(payload)
            if not result.ok:
                raise ServiceError("snapshot result cache contains an error result (never cached)")
            loaded.append((key, (bool(uses_gamma), tenant, result)))
        with self._lock:
            self._entries.update(loaded)
            while len(self._entries) > self._maxsize:
                self._entries.popitem(last=False)
