"""Worker-resident blob caches and the coordinator's view of them.

The content-addressed wire protocol has two halves:

* **Workers** keep a byte-budgeted LRU :class:`BlobCache` of *decoded*
  objects keyed by blob digest — guest pages, shared log/hint tuples,
  and the decoded :class:`~repro.isa.program.ProgramImage` itself (whose
  lazily-built handler table in ``__dict__`` therefore survives across
  units instead of being re-decoded per dispatch). The cache charges the
  encoded blob size, not the decoded object's footprint, because the
  budget exists to bound what the *wire* saved, and evictions must be
  reported so the coordinator stops assuming the worker still holds them.

* The **coordinator** keeps a :class:`WorkerCacheTracker`: per worker
  pid, the set of digests it is believed to hold. A dispatch ships only
  the blobs some worker of the current pool may lack —
  ``ProcessPoolExecutor`` gives no control over which worker picks a
  unit up, so a blob may be omitted only when *every* live worker holds
  it. The tracker is advisory, never authoritative: a worker that finds
  a digest missing (restart after a crash, eviction racing an in-flight
  dispatch) answers with a structured ``NeedBlobs`` instead of failing,
  and the coordinator re-dispatches with the full blob set.

A worker's budget is the coordinator's ``blob_cache_bytes`` runtime
option (:mod:`repro.options`), carried on every dispatch and adopted
before the dispatch's blobs are absorbed — tests shrink it to force the
eviction and miss/resend paths deterministically.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, Iterable, List, Set, Tuple

from repro.memory.blob import decode_blob
from repro.memory.page import Page

def decode_blob_object(blob: bytes):
    """Decode a wire blob into its live object (pages become ``Page``)."""
    kind, payload = decode_blob(blob)
    if kind == "page":
        return Page(payload)
    return payload


class BlobCache:
    """Byte-budgeted LRU of decoded wire objects, keyed by digest.

    Lives once per worker process (in ``repro.host.worker``)
    and once in the coordinator for its serial-fallback-free bookkeeping
    tests. Pages stored here are shared into hydrated snapshots by
    reference; the hydration pin (``refs += 1`` per table entry) plus the
    cache's own reference guarantee ``refs > 1``, so an engine write
    always copies-on-write and a cached page is never mutated in place.
    """

    def __init__(self, capacity_bytes: int):
        self.capacity = max(0, int(capacity_bytes))
        self._entries: "OrderedDict[int, Tuple[object, int]]" = OrderedDict()
        self._bytes = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def used_bytes(self) -> int:
        return self._bytes

    def has(self, digest: int) -> bool:
        return digest in self._entries

    def get(self, digest: int):
        """The decoded object, refreshed to most-recently-used."""
        entry = self._entries.get(digest)
        if entry is None:
            return None
        self._entries.move_to_end(digest)
        return entry[0]

    def insert(self, digest: int, blob: bytes) -> List[int]:
        """Decode and cache one blob; returns the digests evicted for it.

        An already-present digest is refreshed, not re-decoded. A blob
        larger than the whole budget is decoded but not retained (it
        reports itself as evicted), so a tiny test budget still executes
        every unit — the dispatch's own blobs remain resolvable via the
        per-dispatch memo in the pool layer.
        """
        if digest in self._entries:
            self._entries.move_to_end(digest)
            return []
        size = len(blob)
        self._entries[digest] = (decode_blob_object(blob), size)
        self._bytes += size
        return self.resize(self.capacity)

    def resize(self, capacity_bytes: int) -> List[int]:
        """Adopt a byte budget; returns the digests evicted to fit it."""
        self.capacity = max(0, int(capacity_bytes))
        evicted: List[int] = []
        while self._bytes > self.capacity and self._entries:
            old_digest, (_, old_size) = self._entries.popitem(last=False)
            self._bytes -= old_size
            evicted.append(old_digest)
        return evicted

    def missing(self, digests: Iterable[int]) -> List[int]:
        """Digests not currently resident (no LRU refresh, no counting)."""
        return [d for d in digests if d not in self._entries]


class WorkerCacheTracker:
    """Coordinator-side model of which worker pid holds which digests.

    Updated from dispatch acks (what was shipped to the pid that answered,
    minus what it reported evicting); consulted at dispatch-build time.
    Wrong-in-either-direction is safe: over-estimation is corrected by the
    worker's ``NeedBlobs`` answer, under-estimation merely re-ships bytes.

    Internally locked: the tracker is a module global shared by every
    executor (worker caches persist across executors), and with the
    service layer many session threads fold acks and query held sets
    concurrently — an unlocked query could read a set another session's
    ack is mutating.
    """

    def __init__(self):
        self._held: Dict[int, Set[int]] = {}
        self._lock = threading.Lock()

    def note_inserted(self, pid: int, digests: Iterable[int]) -> None:
        if not pid:
            return
        with self._lock:
            self._held.setdefault(pid, set()).update(digests)

    def note_evicted(self, pid: int, digests: Iterable[int]) -> None:
        with self._lock:
            held = self._held.get(pid)
            if held:
                held.difference_update(digests)

    def forget_worker(self, pid: int) -> None:
        with self._lock:
            self._held.pop(pid, None)

    def held_by_all(self, pids: Iterable[int], digests: Iterable[int]) -> Set[int]:
        """Those of ``digests`` every one of ``pids`` holds (none if any
        pid is unknown, or there are no pids).

        This is the omission rule: a blob may be left out of a dispatch
        only when no matter which worker pops the unit, it has the blob.
        Asked per dispatch about the unit's own digests, so it costs
        O(digests asked about), never the size of a worker's cache.
        """
        with self._lock:
            caches = [self._held.get(pid) for pid in pids]
            if not caches or not all(caches):
                return set()
            return {
                digest for digest in digests
                if all(digest in held for held in caches)
            }

    def prune(self, live_pids: Iterable[int]) -> None:
        """Drop state for pids no longer in the pool (post-rebuild hygiene)."""
        live = set(live_pids)
        with self._lock:
            for pid in list(self._held):
                if pid not in live:
                    del self._held[pid]
