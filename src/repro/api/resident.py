"""Cross-request resident-operand cache of the simulated backend.

The paper's server keeps operands in the FPGA board's DDR between
jobs. This module is the software twin of that policy at request
granularity: a bounded cache keyed by ciphertext handle
(expression-graph node identity) that remembers, across program
executions of :class:`~repro.api.simulated.SimulatedBackend`, the fact
that the server already holds an operand, so the lowered
:class:`~repro.system.workloads.Job` stream prices its upload at zero
polynomial transfers. (The functional
:class:`~repro.api.backends.LocalBackend` needs no such cache: its
ciphertexts rest NTT-resident on their graph nodes.)

Entries are keyed by ``id(node)`` but hold the node only through a
weak reference: a client dropping every handle to an operand lets the
whole expression graph (and the multi-megabyte ciphertexts its nodes
cache) be collected — the cache entry dies with it via the weakref
callback, which also makes ``id`` reuse safe. Eviction at the bound is
FIFO, mirroring the session's plaintext-constant pool.
"""

from __future__ import annotations

import weakref
from typing import Any

from ..obs import counter as _obs_counter

_CACHE_EVENTS = _obs_counter(
    "repro_resident_cache_events_total",
    "Resident-operand cache outcomes (hit/miss/eviction) per cache.",
    labels=("cache", "event"),
)


class ResidentOperandCache:
    """Bounded FIFO cache of server-resident operands, with telemetry.

    ``hits``/``misses`` count :meth:`get` outcomes; ``evictions``
    counts entries dropped at the bound. :meth:`stats` snapshots all
    three plus the live entry count — the numbers the simulated backend
    exposes through its telemetry, and every event is mirrored to the
    ``repro_resident_cache_events_total`` instrument on the scoped
    :mod:`repro.obs` registry (labelled by the cache's ``name``), so
    registry snapshots embedded in reports carry the cache story too.
    Keys are weak: the cache never keeps an operand's expression graph
    alive on its own.
    """

    def __init__(self, limit: int = 64, name: str = "resident") -> None:
        if limit < 1:
            raise ValueError("cache limit must be at least 1")
        self.limit = limit
        self.name = name
        self._entries: dict[int, tuple[weakref.ref, Any]] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, node: object) -> bool:
        entry = self._entries.get(id(node))
        return entry is not None and entry[0]() is node

    def get(self, node: object):
        """The cached value for ``node``, or None (counted as miss)."""
        entry = self._entries.get(id(node))
        if entry is None or entry[0]() is not node:
            self.misses += 1
            _CACHE_EVENTS.inc(cache=self.name, event="miss")
            return None
        self.hits += 1
        _CACHE_EVENTS.inc(cache=self.name, event="hit")
        return entry[1]

    def put(self, node: object, value: Any) -> None:
        key = id(node)
        entry = self._entries.get(key)
        if entry is not None and entry[0]() is node:
            self._entries[key] = (entry[0], value)
            return
        if len(self._entries) >= self.limit:
            self._entries.pop(next(iter(self._entries)))
            self.evictions += 1
            _CACHE_EVENTS.inc(cache=self.name, event="eviction")
        # The callback removes the entry the moment the node is
        # collected, so a recycled id can never alias a dead entry and
        # the cached ciphertext is freed with its operand.
        self._entries[key] = (
            weakref.ref(node, lambda _ref, key=key: self._forget(key)),
            value,
        )

    def _forget(self, key: int) -> None:
        self._entries.pop(key, None)

    def clear(self) -> None:
        self._entries.clear()

    def stats(self) -> dict[str, int]:
        return {
            "entries": len(self._entries),
            "limit": self.limit,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ResidentOperandCache(entries={len(self._entries)}, "
                f"hits={self.hits}, misses={self.misses})")
