"""The blob plane: one scratch pack the coordinator appends, workers read.

The contract has one sentence: *a unit names digests and a pack; whoever
lacks a digest reads it.*

* The **coordinator** owns :class:`ScratchPacks`. Before a unit is
  submitted, every blob it references (pages, log chunks, hints,
  signals, the program image) is ``put`` into the current scratch pack —
  a :class:`~repro.record.pack.BlobStore` in a temporary directory,
  never the durable ``log_dir`` — and flushed. A digest the pack already
  holds is not written again, whoever put it first: dedup across units,
  segments, recordings and sessions is ``BlobStore.put`` returning
  False. The dispatch then carries the pack's path and nothing else.

* A **worker** keeps a :class:`BlobCache`, an LRU of *decoded* objects
  keyed by digest (pages, log/hint tuples, the decoded program image),
  at a constant budget; a digest it lacks is read from the pack its
  dispatch names (:mod:`repro.host.worker`). Nothing about a worker's
  cache is reported back: the coordinator keeps no model of it.

A pack that has grown past :data:`SCRATCH_PACK_BYTES` is replaced at the
next dispatch, which re-puts what it needs; a replaced pack is deleted
once no in-flight dispatch names it, and so is the current one when the
worker pool goes (:mod:`repro.host.pool`).
"""

from __future__ import annotations

import os
import shutil
import tempfile
import threading
from collections import OrderedDict
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from repro.memory.blob import decode_blob
from repro.memory.page import Page
from repro.record.pack import BlobStore

#: scratch-pack size past which the next dispatch starts a fresh pack
SCRATCH_PACK_BYTES = 64 << 20

#: a worker's decoded-object cache budget, in encoded blob bytes
WORKER_CACHE_BYTES = 64 << 20


def decode_blob_object(blob: bytes):
    """Decode a wire blob into its live object (pages become ``Page``)."""
    kind, payload = decode_blob(blob)
    if kind == "page":
        return Page(payload)
    return payload


class BlobCache:
    """Byte-budgeted LRU of decoded wire objects, keyed by digest.

    Lives once per worker process (in ``repro.host.worker``). It charges
    the encoded blob size, not the decoded object's footprint. Pages
    stored here are shared into hydrated snapshots by reference; the
    hydration pin (``refs += 1`` per table entry) plus the cache's own
    reference guarantee ``refs > 1``, so an engine write always
    copies-on-write and a cached page is never mutated in place.
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

    def insert(self, digest: int, blob: bytes):
        """Decode and cache one blob; returns the decoded object.

        An already-present digest is refreshed, not re-decoded. The
        least recently used entries are dropped to fit the budget; a
        blob larger than the whole budget is decoded but not retained.
        """
        cached = self.get(digest)
        if cached is not None:
            return cached
        obj = decode_blob_object(blob)
        self._entries[digest] = (obj, len(blob))
        self._bytes += len(blob)
        while self._bytes > self.capacity and self._entries:
            _, (_, old_size) = self._entries.popitem(last=False)
            self._bytes -= old_size
        return obj


class ScratchPacks:
    """The coordinator's scratch packs: the current one and its leftovers.

    Internally locked: one instance serves every executor of the process
    (module-level in :mod:`repro.host.pool`, because the worker caches it
    feeds persist across executors), and under the service layer many
    session threads place blobs concurrently. The per-digest state is
    the current pack's index, which the size cap bounds.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._dir: Optional[str] = None
        self._store: Optional[BlobStore] = None
        self._serial = 0
        #: pack root -> in-flight dispatches naming it
        self._named: Dict[str, int] = {}

    def place(
        self, digests: Iterable[int], blobs: Mapping[int, bytes]
    ) -> Tuple[str, List[int]]:
        """Make ``digests`` readable from the current pack, for one dispatch.

        Returns the pack's root (what the dispatch names; held until the
        matching :meth:`release`) and the digests newly written. Raises
        ``OSError`` when the pack cannot be written; the pack is then
        dropped, so the next call starts a fresh one.
        """
        with self._lock:
            store = self._store
            if store is None or store.pack_bytes > SCRATCH_PACK_BYTES:
                store = self._rotate()
            try:
                fresh = [d for d in digests if store.put(d, blobs[d])]
                store.flush()
            except OSError:
                self._store = None
                self._drop(store)
                raise
            self._named[store.root] = self._named.get(store.root, 0) + 1
            return store.root, fresh

    def _rotate(self) -> BlobStore:
        old = self._store
        if self._dir is None:
            self._dir = tempfile.mkdtemp(prefix="repro-blobs-")
        self._serial += 1
        self._store = BlobStore(os.path.join(self._dir, f"pack-{self._serial}"))
        if old is not None:
            self._drop(old)
        return self._store

    def _drop(self, store: BlobStore) -> None:
        """Close a pack that is no longer current; delete it unless an
        in-flight dispatch still names it (its release deletes it then)."""
        try:
            store.close()
        except OSError:
            pass  # unwritable: what it still buffered nobody was told to read
        if store.root not in self._named:
            shutil.rmtree(store.root, ignore_errors=True)

    def release(self, root: str) -> None:
        """One dispatch naming ``root`` is no longer in flight."""
        with self._lock:
            left = self._named.get(root, 0) - 1
            if left > 0:
                self._named[root] = left
                return
            self._named.pop(root, None)
            if self._store is None or self._store.root != root:
                shutil.rmtree(root, ignore_errors=True)
                self._prune()

    def close(self, abandon: bool = False) -> None:
        """Retire every pack: the pool they fed is going away.

        A pack some dispatch still names (another session's, queued
        behind the pool that broke) stays until that dispatch is done —
        unless ``abandon`` says nothing will ever be done again (the
        interpreter is exiting; a future the pool lost never releases).
        """
        with self._lock:
            if abandon:
                self._named.clear()
            if self._store is not None:
                self._drop(self._store)
                self._store = None
            self._prune()

    def _prune(self) -> None:
        """Delete the directory once no pack is left in it."""
        if self._store is None and not self._named and self._dir is not None:
            shutil.rmtree(self._dir, ignore_errors=True)
            self._dir = None
