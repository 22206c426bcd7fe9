"""The content-addressed blob layer: encoding, the cache, the scratch packs.

Unit-level contracts under the wire protocol's parity guarantee: blob
encoding is exact (``-1`` and ``2**64 - 1`` are different pages), the
worker cache honours its byte budget, the coordinator's scratch packs
write a digest once, rotate at their size cap and never outlive what
names them, and a reader of a pack another process is appending copes
with whatever it finds there.
"""

from __future__ import annotations

import os
import shutil

import pytest

from repro.checkpoint.checkpoint import Checkpoint
from repro.errors import ReplayError
from repro.host import blobs as host_blobs
from repro.host.blobs import BlobCache, ScratchPacks, decode_blob_object
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
from repro.record.pack import CODEC_RAW, PACK_NAME, BlobStore, entry_header


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
    assert cache.insert(1, a) == b"a" * 100  # the decoded object
    cache.insert(2, b)
    assert cache.has(1) and cache.has(2)
    cache.get(1)  # refresh: 2 becomes least recently used
    cache.insert(3, c)
    assert cache.has(1) and cache.has(3) and not cache.has(2)
    assert cache.get(2) is None
    assert cache.used_bytes == len(a) + len(c)


def test_blob_cache_zero_capacity_never_retains():
    blob = _blob(b"x", 10)
    cache = BlobCache(0)
    # The blob is decoded for its caller but not kept.
    assert cache.insert(5, blob) == b"x" * 10
    assert len(cache) == 0 and cache.used_bytes == 0
    assert not cache.has(5)


def test_blob_cache_reinsert_refreshes_without_redecoding():
    blob = _blob(b"y", 10)
    cache = BlobCache(1024)
    first = cache.insert(7, blob)
    assert cache.insert(7, blob) is first
    assert cache.get(7) is first
    assert cache.used_bytes == len(blob)


# ----------------------------------------------------------------------
# Coordinator-side scratch packs
# ----------------------------------------------------------------------
@pytest.fixture
def packs():
    packs = ScratchPacks()
    yield packs
    for root, dispatches in list(packs._named.items()):
        for _ in range(dispatches):
            packs.release(root)
    packs.close()
    assert packs._dir is None


def test_scratch_pack_writes_a_digest_once(packs):
    blobs = {1: b"one", 2: b"two", 3: b"three"}
    root, fresh = packs.place([1, 2], blobs)
    assert sorted(fresh) == [1, 2]
    again, fresh = packs.place([1, 2, 3], blobs)
    assert again == root and fresh == [3]
    # Another process's reader sees everything a place() returned from.
    reader = BlobStore(root)
    assert [reader.get(d) for d in (1, 2, 3)] == [b"one", b"two", b"three"]
    reader.close()


def test_scratch_pack_rotates_at_the_cap_and_outlives_no_dispatch(
    packs, monkeypatch
):
    monkeypatch.setattr(host_blobs, "SCRATCH_PACK_BYTES", 64)
    blobs = {n: bytes([n]) * 40 for n in range(1, 5)}
    first, _ = packs.place([1, 2], blobs)  # now past the cap
    second, fresh = packs.place([2, 3], blobs)
    assert second != first
    assert sorted(fresh) == [2, 3], "a fresh pack is re-put what a unit needs"
    # The first pack is still named by its in-flight dispatch...
    assert os.path.exists(os.path.join(first, PACK_NAME))
    packs.release(first)
    assert not os.path.exists(first)
    # ...while the current pack survives its dispatches.
    packs.release(second)
    assert os.path.exists(os.path.join(second, PACK_NAME))
    # Per-digest coordinator state is the current pack's index alone.
    assert set(packs._store._index) == {2, 3}
    assert list(packs._named) == []
    packs.close()
    assert not os.path.exists(os.path.dirname(second))
    # At interpreter exit nothing in flight will ever finish: all goes.
    named, _ = packs.place([1], blobs)
    packs.close()
    assert os.path.exists(named)
    packs.close(abandon=True)
    assert not os.path.exists(os.path.dirname(named)) and packs._dir is None


def test_scratch_pack_that_cannot_be_written_is_dropped(packs, monkeypatch):
    root, _ = packs.place([1], {1: b"one"})

    def disk_full(self):
        raise OSError(28, "No space left on device")

    with monkeypatch.context() as patch:
        patch.setattr(BlobStore, "flush", disk_full)
        with pytest.raises(OSError):
            packs.place([2], {2: b"two"})
    # The next dispatch starts a fresh pack and re-puts what it needs.
    again, fresh = packs.place([1, 2], {1: b"one", 2: b"two"})
    assert again != root and sorted(fresh) == [1, 2]


# ----------------------------------------------------------------------
# Reading a pack another process is appending
# ----------------------------------------------------------------------
def test_reader_picks_up_appends_and_skips_a_torn_tail(tmp_path):
    root = str(tmp_path / "pack")
    writer = BlobStore(root)
    writer.put(1, b"first")
    writer.flush()
    reader = BlobStore(root)
    assert reader.get(1) == b"first"
    # An append in progress: the entry header and half the payload.
    entry = entry_header(2, CODEC_RAW, 6) + b"second"
    with open(writer.path, "ab") as handle:
        handle.write(entry[:-3])
    with pytest.raises(ReplayError, match="not in pack"):
        reader.get(2)  # torn: the scan ends there, without error
    assert reader.get(1) == b"first"
    with open(writer.path, "ab") as handle:
        handle.write(entry[-3:])
    assert reader.get(2) == b"second"  # the next rescan takes it whole
    # ... and whatever an appender flushes after it.
    writer.close()
    writer = BlobStore(root)
    writer.put(3, b"third")
    writer.flush()
    assert reader.get(3) == b"third"
    for store in (reader, writer):
        store.close()


def test_reader_of_a_wrong_magic_an_unlinked_path_or_an_absent_digest(tmp_path):
    root = str(tmp_path / "pack")
    os.makedirs(root)
    with open(os.path.join(root, PACK_NAME), "wb") as handle:
        handle.write(b"NOTPACK" + b"\0" * 32)
    with pytest.raises(ReplayError, match="not a blob pack"):
        BlobStore(root)
    shutil.rmtree(root)
    gone = BlobStore(root)  # reading creates nothing
    with pytest.raises(ReplayError, match="not in pack"):
        gone.get(1)
    assert not os.path.exists(root)
    writer = BlobStore(root)
    writer.put(1, b"one")
    writer.flush()
    with pytest.raises(ReplayError, match="not in pack"):
        BlobStore(root).get(2)
    writer.close()


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
