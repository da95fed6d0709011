"""The serving backend: admission → dedup → warm pool.

Every request flows through one funnel, keyed by the same
``sha256(bytecode) + config fingerprint`` identity the sweep journal,
:class:`~repro.core.orchestrator.ResultCache`, and
:class:`~repro.core.pipeline.ArtifactCache` use:

1. **completed-work reuse** — an identity already served resolves from an
   in-memory LRU of entry rows (``report_cache_hits``), or from the
   optional disk :class:`ResultCache` (``result_cache_hits``) — the very
   directory a ``repro sweep --result-cache`` run populates, so a sweep
   warms the daemon and vice versa;
2. **in-flight coalescing** — a duplicate of a request currently being
   analyzed shares its future instead of queueing twice
   (``coalesced``), the §6.1 duplicate-heavy regime where throughput
   must scale with *unique* bytecode;
3. **bounded admission** — at most ``max_queue`` submissions may be
   open; past that, :class:`QueueFull` (the daemon's HTTP 429);
4. **warm pool** — misses dispatch to the
   :class:`~repro.core.orchestrator.PersistentPool`, whose worker
   processes hold :class:`~repro.core.bytecode_datalog.WarmEngineCache`
   and :class:`~repro.core.pipeline.ArtifactCache` state across requests.

Thread-safe by a single lock: the asyncio handler threads submit, the
pool's supervision thread resolves.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.analysis import AnalysisConfig
from repro.core.batch import BatchEntry
from repro.core.orchestrator import (
    PersistentPool,
    ResultCache,
    _entry_from_dict,
    _entry_to_dict,
    _is_harness_fault_row,
)

__all__ = ["QueueFull", "ServingBackend", "BackendStats"]


class QueueFull(Exception):
    """Admission rejected: too many open requests (HTTP 429)."""


@dataclass
class BackendStats:
    """Serving-funnel counters, rendered into ``/metrics``."""

    requests: int = 0
    analyzed: int = 0  # requests that actually dispatched to the pool
    coalesced: int = 0  # shared an in-flight duplicate's future
    report_cache_hits: int = 0  # resolved from the in-memory LRU
    result_cache_hits: int = 0  # resolved from the cross-run disk cache
    rejections: int = 0  # QueueFull (HTTP 429)

    def as_dict(self) -> Dict[str, int]:
        return dict(vars(self))


class ServingBackend:
    """Admission, dedup, and completed-work reuse over a warm pool."""

    def __init__(
        self,
        pool: PersistentPool,
        max_queue: int = 64,
        dedup: bool = True,
        result_cache: Optional[ResultCache] = None,
        memory_entries: int = 1024,
    ):
        self.pool = pool
        self.max_queue = max(1, max_queue)
        self.dedup = dedup
        self.result_cache = result_cache
        self.memory_entries = max(0, memory_entries)
        self.stats = BackendStats()
        self._lock = threading.Lock()
        self._inflight: Dict[str, "Future[Tuple[BatchEntry, ...]]"] = {}
        self._memory: "OrderedDict[str, List[Dict]]" = OrderedDict()

    # -- submission (any thread)

    def submit(
        self, runtime: bytes, config: AnalysisConfig, identity: str
    ) -> "Future[Tuple[BatchEntry, ...]]":
        """Resolve one request, reusing completed or in-flight work.

        Returns a future of the entry row (1-tuple).  Raises
        :class:`QueueFull` when admission is at capacity — cached and
        coalesced resolutions are *never* rejected: a duplicate costs no
        pool capacity, so it is always admitted.
        """
        with self._lock:
            self.stats.requests += 1
            if self.dedup:
                cached = self._lookup_locked(identity)
                if cached is not None:
                    future: "Future[Tuple[BatchEntry, ...]]" = Future()
                    future.set_result(cached)
                    return future
                inflight = self._inflight.get(identity)
                if inflight is not None:
                    self.stats.coalesced += 1
                    return inflight
            if self.pool.outstanding >= self.max_queue:
                self.stats.rejections += 1
                raise QueueFull(
                    "analysis queue is full (%d open request(s), max %d)"
                    % (self.pool.outstanding, self.max_queue)
                )
            self.stats.analyzed += 1
            future = self.pool.submit(runtime, config)
            if not self.dedup:
                return future
            self._inflight[identity] = future
        # Registered outside the lock: a future the pool has already
        # resolved runs ``_resolved`` on this thread, which takes the lock.
        future.add_done_callback(lambda f, key=identity: self._resolved(key, f))
        return future

    @property
    def open_requests(self) -> int:
        return self.pool.outstanding

    @property
    def inflight_identities(self) -> int:
        with self._lock:
            return len(self._inflight)

    # -- internals

    def _lookup_locked(
        self, identity: str
    ) -> Optional[Tuple[BatchEntry, ...]]:
        entries = self._memory.get(identity)
        if entries is not None:
            self._memory.move_to_end(identity)
            self.stats.report_cache_hits += 1
            return tuple(_entry_from_dict(e) for e in entries)
        if self.result_cache is not None:
            stored = self.result_cache.get(identity)
            if stored is not None and len(stored) == 1:
                self.stats.result_cache_hits += 1
                self._remember_locked(identity, stored)
                return tuple(_entry_from_dict(e) for e in stored)
        return None

    def _remember_locked(self, identity: str, entries: List[Dict]) -> None:
        if self.memory_entries <= 0:
            return
        self._memory[identity] = entries
        self._memory.move_to_end(identity)
        while len(self._memory) > self.memory_entries:
            self._memory.popitem(last=False)

    def _resolved(
        self, identity: str, future: "Future[Tuple[BatchEntry, ...]]"
    ) -> None:
        """Pool-thread callback: publish a completed row for reuse."""
        with self._lock:
            self._inflight.pop(identity, None)
            if future.cancelled() or future.exception() is not None:
                return
            row = future.result()
            if _is_harness_fault_row(row):
                # Crash/watchdog/exhausted-retry outcomes may be
                # environmental: never cached, the next duplicate retries.
                return
            entries = [_entry_to_dict(entry) for entry in row]
            self._remember_locked(identity, entries)
            if self.result_cache is not None:
                try:
                    self.result_cache.put(identity, entries)
                except OSError:  # pragma: no cover - disk full/unwritable
                    pass
