"""The content-addressed blob layer: encoding, caches, and the tracker.

Unit-level contracts under the wire protocol's parity guarantee: blob
encoding is exact (``-1`` and ``2**64 - 1`` are different pages), the
worker cache honours its byte budget and reports evictions, and the
coordinator's mirror of worker caches only ever errs on the side of
shipping more bytes.
"""

from __future__ import annotations

import pytest

from repro.checkpoint.checkpoint import Checkpoint
from repro.host.blobs import (
    BlobCache,
    WorkerCacheTracker,
    decode_blob_object,
)
from repro.memory.address_space import AddressSpace, MemorySnapshot
from repro.memory.blob import (
    TAG_PAGE_RAW,
    TAG_PAGE_WIDE,
    blob_digest,
    decode_blob,
    encode_object,
    encode_page_words,
)
from repro.memory.layout import PAGE_WORDS
from repro.memory.page import Page


# ----------------------------------------------------------------------
# Blob encoding
# ----------------------------------------------------------------------
def test_page_blob_roundtrip_raw():
    words = [i * 3 for i in range(PAGE_WORDS)]
    blob = encode_page_words(words)
    assert blob[:1] == TAG_PAGE_RAW
    kind, decoded = decode_blob(blob)
    assert kind == "page"
    assert decoded == words


def test_page_blob_roundtrip_wide_for_signed_words():
    words = [0] * PAGE_WORDS
    words[7] = -1
    blob = encode_page_words(words)
    assert blob[:1] == TAG_PAGE_WIDE
    kind, decoded = decode_blob(blob)
    assert kind == "page"
    assert decoded == words


def test_signed_and_unsigned_words_get_distinct_digests():
    # -1 and 2**64 - 1 are different page contents (``words ==``
    # distinguishes them even though the FNV page hash wraps both the
    # same way) — the wire must never conflate them.
    negative = [0] * PAGE_WORDS
    negative[0] = -1
    wrapped = [0] * PAGE_WORDS
    wrapped[0] = 2**64 - 1
    assert blob_digest(encode_page_words(negative)) != blob_digest(
        encode_page_words(wrapped)
    )


def test_object_blob_roundtrip():
    obj = (("lock", 3, 1), ("sem", 0, 2))
    kind, decoded = decode_blob(encode_object(obj))
    assert kind == "object"
    assert decoded == obj


def test_decode_blob_object_builds_pages():
    words = [11] * PAGE_WORDS
    page = decode_blob_object(encode_page_words(words))
    assert isinstance(page, Page)
    assert page.words == words
    assert page.refs == 1


def test_page_wire_blob_cached_and_invalidated_on_write():
    space = AddressSpace()
    space.map_addr(0)
    space.write(0, 42)
    page = next(iter(space.pages.values()))
    digest, blob = page.wire_blob()
    assert page.wire_blob() == (digest, blob)  # cached
    # A clone is content-equal, so the cache carries over...
    assert page.clone().wire_blob() == (digest, blob)
    # ...and any write invalidates it alongside the content hash.
    space.write(0, 43)
    written = next(iter(space.pages.values()))
    assert written.wire_blob()[0] != digest


# ----------------------------------------------------------------------
# Worker blob cache
# ----------------------------------------------------------------------
def _blob(tag: bytes, size: int) -> bytes:
    return encode_object(tag * size)


def test_blob_cache_lru_eviction_reports_digests():
    a, b, c = _blob(b"a", 100), _blob(b"b", 100), _blob(b"c", 100)
    cache = BlobCache(len(a) + len(b))
    assert cache.insert(1, a) == []
    assert cache.insert(2, b) == []
    assert cache.has(1) and cache.has(2)
    cache.get(1)  # refresh: 2 becomes least recently used
    assert cache.insert(3, c) == [2]
    assert cache.has(1) and cache.has(3) and not cache.has(2)
    assert cache.used_bytes == len(a) + len(c)
    assert cache.missing([1, 2, 3, 4]) == [2, 4]


def test_blob_cache_zero_capacity_never_retains():
    blob = _blob(b"x", 10)
    cache = BlobCache(0)
    # The blob is decoded but immediately reported as evicted, so the
    # coordinator's mirror nets to "worker holds nothing" — consistent.
    assert cache.insert(5, blob) == [5]
    assert len(cache) == 0 and cache.used_bytes == 0
    assert not cache.has(5)


def test_blob_cache_reinsert_refreshes_without_redecoding():
    blob = _blob(b"y", 10)
    cache = BlobCache(1024)
    cache.insert(7, blob)
    first = cache.get(7)
    assert cache.insert(7, blob) == []
    assert cache.get(7) is first
    assert cache.used_bytes == len(blob)


# ----------------------------------------------------------------------
# Coordinator-side tracker
# ----------------------------------------------------------------------
def test_tracker_common_is_intersection_over_live_pids():
    tracker = WorkerCacheTracker()
    tracker.note_inserted(10, {1, 2, 3})
    tracker.note_inserted(11, {2, 3, 4})
    everything = {1, 2, 3, 4, 5}
    assert tracker.held_by_all([10, 11], everything) == {2, 3}
    assert tracker.held_by_all([10, 11], {1, 3}) == {3}
    # Any unknown pid means the omission rule cannot fire at all.
    assert tracker.held_by_all([10, 11, 12], everything) == set()
    assert tracker.held_by_all([], everything) == set()


def test_tracker_evictions_and_forgetting():
    tracker = WorkerCacheTracker()
    tracker.note_inserted(10, {1, 2, 3})
    tracker.note_evicted(10, {2, 99})  # unknown digests are a no-op
    assert tracker.held_by_all([10], {1, 2, 3, 99}) == {1, 3}
    tracker.forget_worker(10)
    assert tracker.held_by_all([10], {1, 2, 3}) == set()


def test_tracker_prune_drops_dead_pids():
    tracker = WorkerCacheTracker()
    tracker.note_inserted(10, {1})
    tracker.note_inserted(11, {1})
    tracker.prune([11])
    assert tracker.held_by_all([10], {1}) == set()
    assert tracker.held_by_all([11], {1}) == {1}


# ----------------------------------------------------------------------
# Skeleton checkpoints end-to-end over the blob layer
# ----------------------------------------------------------------------
def _checkpoint(space: AddressSpace, index: int) -> Checkpoint:
    return Checkpoint(
        index=index, time=index * 100, memory=space.snapshot(), contexts={},
        sync_state=(),
    )


def test_wire_delta_carries_only_dirty_pages():
    space = AddressSpace()
    for addr in (0, 1 * PAGE_WORDS, 2 * PAGE_WORDS):
        space.map_addr(addr)
        space.write(addr, addr + 1)
    base = _checkpoint(space, 0)
    space.write(PAGE_WORDS, 777)  # dirty exactly one page
    space.map_addr(3 * PAGE_WORDS)
    space.write(3 * PAGE_WORDS, 9)  # and map a brand-new one
    nxt = _checkpoint(space, 1)

    delta = nxt.wire_delta(base)
    assert delta.is_delta
    assert set(delta.page_changes) == {1, 3}
    assert delta.page_drops == ()

    blobs = {}
    for checkpoint in (base, nxt):
        for page in checkpoint.memory.pages.values():
            digest, blob = page.wire_blob()
            blobs[digest] = blob

    import pickle

    shipped = pickle.loads(pickle.dumps((base.to_wire(), delta)))
    decoded = {}

    def resolve(digest):
        if digest not in decoded:
            decoded[digest] = decode_blob_object(blobs[digest])
        return decoded[digest]

    start = shipped[0].hydrate(resolve)
    boundary = shipped[1].hydrate(resolve, base_pages=start.memory.pages)
    assert start.digest() == base.digest()
    assert boundary.digest() == nxt.digest()
    # Clean pages hydrate to the *same* object in both checkpoints.
    assert start.memory.pages[0] is boundary.memory.pages[0]
    assert start.memory.pages[2] is boundary.memory.pages[2]
    assert start.memory.pages[1] is not boundary.memory.pages[1]


def test_wire_delta_records_unmapped_pages_as_drops():
    space = AddressSpace()
    for addr in (0, PAGE_WORDS):
        space.map_addr(addr)
        space.write(addr, 5)
    base = _checkpoint(space, 0)
    # The guest machine never unmaps today, but the delta encoding covers
    # it: build the boundary snapshot with page 1 gone.
    pruned = MemorySnapshot(
        {no: page for no, page in base.memory.pages.items() if no != 1}
    )
    nxt = Checkpoint(index=1, time=100, memory=pruned, contexts={}, sync_state=())
    delta = nxt.wire_delta(base)
    assert delta.page_drops == (1,)
    assert delta.page_changes == {}

    start = base.to_wire().hydrate(None)
    boundary = delta.hydrate(None)
    assert boundary is nxt  # coordinator shortcut
    # And through the worker path (no shortcuts):
    import pickle

    blobs = {p.wire_blob()[0]: p.wire_blob()[1] for p in base.memory.pages.values()}
    cold_base, cold_delta = pickle.loads(pickle.dumps((base.to_wire(), delta)))
    hydrated_base = cold_base.hydrate(lambda d: decode_blob_object(blobs[d]))
    hydrated = cold_delta.hydrate(
        lambda d: decode_blob_object(blobs[d]), base_pages=hydrated_base.memory.pages
    )
    assert 1 not in hydrated.memory.pages
    assert hydrated.digest() == nxt.digest()


def test_delta_hydration_without_base_raises():
    space = AddressSpace()
    space.map_addr(0)
    space.write(0, 1)
    base = _checkpoint(space, 0)
    space.write(0, 2)
    nxt = _checkpoint(space, 1)
    import pickle

    cold = pickle.loads(pickle.dumps(nxt.wire_delta(base)))
    with pytest.raises(ValueError):
        cold.hydrate(lambda d: None)
