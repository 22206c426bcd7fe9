"""Wire round-trips: pickling guest state preserves behaviour exactly.

The host-parallelism layer ships checkpoints, recordings and work units
to worker processes via pickle. The contract (DESIGN.md "Host
performance layer"): content-derived caches transfer, host-local caches
(TLBs, decoded handler table, page refcounts) are stripped and rebuilt
cold — and a cold-cache object behaves identically to a warm one.
"""

from __future__ import annotations

import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro import options
from repro.baselines import run_native
from repro.core import DoublePlayConfig, DoublePlayRecorder
from repro.exec.interpreter import decode_program
from repro.host import executor as host_executor
from repro.host.blobs import ScratchPacks, decode_blob_object
from repro.host.executor import HostExecutor, SpeculativeSession
from repro.host.wire import _record_unit, replay_spans, replay_units_for_recording
from repro.machine.config import MachineConfig
from repro.memory.address_space import AddressSpace, MemorySnapshot
from repro.memory.layout import PAGE_WORDS
from repro.isa.assembler import Assembler
from repro.memory.page import Page
from repro.obs.lifecycle import Lives
from repro.obs.metrics import process_stats
from repro.record.log_index import SegmentLogs, signal_slice, syscall_slice
from repro.workloads import build_workload


def roundtrip(obj):
    return pickle.loads(pickle.dumps(obj))


def _record(name="pbzip", workers=2, scale=2, seed=11):
    instance = build_workload(name, workers=workers, scale=scale, seed=seed)
    machine = MachineConfig(cores=workers)
    native = run_native(instance.image, instance.setup, machine)
    config = DoublePlayConfig(
        machine=machine, epoch_cycles=max(native.duration // 12, 500)
    )
    result = DoublePlayRecorder(instance.image, instance.setup, config).record()
    return instance, machine, result


# ----------------------------------------------------------------------
# Pages and snapshots
# ----------------------------------------------------------------------
@given(
    words=st.lists(
        st.integers(min_value=0, max_value=2**64 - 1),
        min_size=PAGE_WORDS,
        max_size=PAGE_WORDS,
    )
)
@settings(max_examples=25, deadline=None)
def test_page_roundtrip_preserves_content_and_hash(words):
    page = Page(list(words))
    warm = page.content_hash()
    page.refs = 7  # host-local sharing state must NOT transfer

    clone = roundtrip(page)
    assert clone.words == page.words
    assert clone.refs == 1
    assert clone.content_hash() == warm

    # Cold-cache path: a page pickled before hashing hashes identically.
    cold = roundtrip(Page(list(words)))
    assert cold._hash is None or cold._hash == warm
    assert cold.content_hash() == warm


def test_snapshot_roundtrip_preserves_digest_and_sharing():
    space = AddressSpace()
    for addr in (0, 100, 1000):
        space.map_addr(addr)
        space.write(addr, addr * 3 + 1)
    snap = space.snapshot()
    warm = snap.content_hash()

    clone = roundtrip(snap)
    assert isinstance(clone, MemorySnapshot)
    assert clone.content_hash() == warm
    assert clone.page_count() == snap.page_count()
    # Unpickled pages are private to the receiving process.
    assert all(page.refs == 1 for page in clone.pages.values())
    assert clone.read(100) == snap.read(100)
    # release() must work (and be idempotent) on the restored side.
    clone.release()
    clone.release()


def test_address_space_roundtrip_strips_tlbs_identical_behaviour():
    space = AddressSpace()
    for addr in range(0, 200, 7):
        space.map_addr(addr)
        space.write(addr, addr + 5)
    space.read(7)  # warm both TLBs
    warm_hash = space.content_hash()

    clone = roundtrip(space)
    assert clone._rtlb_no is None and clone._wtlb_no is None
    assert clone.content_hash() == warm_hash
    assert clone.read(7) == space.read(7)
    assert clone.cow_copies == space.cow_copies
    # Writes through the cold TLB behave identically.
    clone.write(7, 99)
    space.write(7, 99)
    assert clone.content_hash() == space.content_hash()


# ----------------------------------------------------------------------
# Program images: the decoded handler table is host-local
# ----------------------------------------------------------------------
def test_program_image_roundtrip_rebuilds_decode_cache():
    asm = Assembler(name="wiretest")
    with asm.function("main"):
        asm.li("r1", 5)
        asm.li("r2", 37)
        asm.add("r3", "r1", "r2")
        asm.exit_()
    image = asm.assemble()
    decode_program(image)  # warm the cache
    assert "_decoded" in image.__dict__

    clone = roundtrip(image)
    assert "_decoded" not in clone.__dict__  # stripped at the boundary
    assert clone.code == image.code
    assert clone.entry == image.entry
    assert clone.name == image.name
    # Rebuilt table drives the same handlers over equal instructions.
    rebuilt = decode_program(clone)
    original = decode_program(image)
    assert len(rebuilt) == len(original)
    assert all(r[0] is o[0] for r, o in zip(rebuilt, original))


def test_program_image_pickle_strips_superblock_tables():
    """Fused-block tables are host-local: stripped at the wire, rebuilt.

    The table holds generated function objects (like the decode cache),
    so it must never travel; the wire form is exactly the declared
    dataclass fields, whatever caches warmed up in ``__dict__``.
    """
    from repro.exec.interpreter import pure_table
    from repro.exec.superblock import table_for

    instance = build_workload("fft", workers=2, scale=2, seed=11)
    image = instance.image
    machine = MachineConfig(cores=2)
    decode_program(image)
    pure_table(image)
    table_for(image, machine.costs)
    assert "_superblocks" in image.__dict__ and "_pure" in image.__dict__

    assert set(image.__getstate__()) == {
        "code", "entry", "data", "symbols", "functions",
        "register_count", "heap_base", "name",
    }
    clone = roundtrip(image)
    assert "_superblocks" not in clone.__dict__
    assert "_decoded" not in clone.__dict__
    assert "_pure" not in clone.__dict__
    assert pure_table(clone) == pure_table(image)
    # The cold clone lazily rebuilds an equivalent table: same fusable
    # block heads discovered from the identical code tuple.
    rebuilt = table_for(clone, machine.costs)
    original = table_for(image, machine.costs)
    assert [s is not None for s in rebuilt] == [s is not None for s in original]


def test_worker_program_memo_decodes_once_and_caps(monkeypatch):
    """Worker-side decode-table rebuilds are memoised per program digest.

    A worker decodes (and block-discovers) each program image once per
    process, keyed by the program blob digest; the memo pins the decoded
    image so its tables survive blob-cache eviction, FIFO-capped so a
    long-lived worker can't accumulate stale images.
    """
    from repro.host import worker as host_pool

    monkeypatch.setattr(host_pool, "_worker_programs", {})
    calls = []

    def resolve(digest):
        calls.append(digest)
        return f"image-{digest}"

    assert host_pool._worker_program(1, resolve) == "image-1"
    assert host_pool._worker_program(1, resolve) == "image-1"
    assert calls == [1], "second lookup must hit the memo"
    for digest in range(2, 2 + host_pool._WORKER_PROGRAM_CAP - 1):
        host_pool._worker_program(digest, resolve)
    assert len(host_pool._worker_programs) == host_pool._WORKER_PROGRAM_CAP
    host_pool._worker_program(99, resolve)
    assert len(host_pool._worker_programs) == host_pool._WORKER_PROGRAM_CAP
    assert 1 not in host_pool._worker_programs, "FIFO evicts the oldest"
    host_pool._worker_program(1, resolve)
    assert calls.count(1) == 2, "evicted image re-resolves"


def test_program_image_roundtrip_runs_identically():
    instance = build_workload("fft", workers=2, scale=2, seed=11)
    machine = MachineConfig(cores=2)
    native = run_native(instance.image, instance.setup, machine)
    clone_native = run_native(roundtrip(instance.image), instance.setup, machine)
    assert clone_native.duration == native.duration
    assert clone_native.final_digest == native.final_digest


# ----------------------------------------------------------------------
# Checkpoints and recordings
# ----------------------------------------------------------------------
def _blob_resolver(blobs):
    """A coordinator-free resolve(): decode each blob once, memoised."""
    decoded = {}

    def resolve(digest):
        if digest not in decoded:
            decoded[digest] = decode_blob_object(blobs[digest])
        return decoded[digest]

    return resolve


def test_checkpoint_skeleton_roundtrip_hydrates_identically():
    _, _, result = _record()
    for epoch in result.recording.epochs[:4]:
        checkpoint = epoch.start_checkpoint
        warm = checkpoint.digest()
        blobs = {}
        for page in checkpoint.memory.pages.values():
            digest, blob = page.wire_blob()
            blobs[digest] = blob
        skeleton = checkpoint.to_wire()
        # On the coordinator, hydration is the original object — free.
        assert skeleton.hydrate(None) is checkpoint

        clone = roundtrip(skeleton)
        assert clone._local is None  # coordinator shortcut never ships
        hydrated = clone.hydrate(_blob_resolver(blobs))
        assert hydrated.kernel_state is None  # executors never need it
        assert hydrated.digest() == warm
        assert hydrated.contexts_digest() == checkpoint.contexts_digest()
        assert hydrated.targets() == checkpoint.targets()
        assert hydrated.time == checkpoint.time

        # Cold caches: wipe them and recompute from transferred content.
        hydrated._digest = None
        hydrated._ctx_digest = None
        hydrated.memory._hash = None
        hydrated.memory._sorted = None
        for page in hydrated.memory.pages.values():
            page.invalidate_hash()
        assert hydrated.digest() == warm


def test_recording_roundtrip_preserves_plain_form():
    _, _, result = _record("fft", workers=3)
    recording = result.recording
    clone = roundtrip(recording)
    assert clone.to_plain() == recording.to_plain()
    assert clone.final_digest == recording.final_digest
    assert clone.total_log_bytes() == recording.total_log_bytes()
    assert clone.initial_checkpoint.digest() == recording.initial_checkpoint.digest()


# ----------------------------------------------------------------------
# Work units and log slices
# ----------------------------------------------------------------------
def test_log_slices_keep_exactly_the_reachable_records():
    _, _, result = _record()
    recording = result.recording
    for epoch in recording.epochs:
        start = epoch.start_checkpoint
        counts = {t: c.syscall_count for t, c in start.contexts.items()}
        kept = syscall_slice(recording.syscall_records, start)
        assert all(r.seq >= counts.get(r.tid, 0) for r in kept)
        dropped = set(recording.syscall_records) - set(kept)
        assert all(r.seq < counts[r.tid] for r in dropped)

        retired = {t: c.retired for t, c in start.contexts.items()}
        for record in signal_slice(recording.signal_records, start):
            assert record[1] >= retired.get(record[0], 0)


@given(
    durations=st.lists(st.integers(min_value=0, max_value=5000), max_size=40),
    jobs=st.integers(min_value=1, max_value=6),
)
@settings(max_examples=60, deadline=None)
def test_replay_spans_cover_the_epochs_in_balanced_runs(durations, jobs):
    """``3 * jobs`` contiguous, non-empty spans cover every epoch once,
    and each span but the last ends at the first epoch whose cumulative
    recorded cycles reach its share (unless later spans need the epochs)."""
    spans = replay_spans(durations, jobs)
    count = min(len(durations), 3 * jobs)
    assert len(spans) == count and all(spans)
    assert [i for span in spans for i in span] == list(range(len(durations)))
    total = sum(durations)
    for k, span in enumerate(spans[:-1], start=1):
        reached = sum(durations[:span.stop])
        latest = len(durations) - (count - k)
        assert reached * count >= total * k or span.stop == latest
        shorter = reached - durations[span.stop - 1]
        assert len(span) == 1 or shorter * count < total * k


def test_replay_units_roundtrip_preserves_digests():
    """A replay unit is a span of epochs: the first ships its start whole,
    every later one as a delta against the one before, and each hydrates
    to its own start checkpoint."""
    _, _, result = _record()
    epochs = result.recording.epochs
    batch = replay_units_for_recording(result.recording)
    spans = replay_spans([epoch.duration for epoch in epochs], 2)
    assert len(batch.units) == len(spans) < len(epochs)
    resolve = _blob_resolver(batch.blobs)
    for unit, span in zip(batch.units, spans):
        clone = roundtrip(unit)
        assert [epoch.index for epoch in clone.epochs] == [
            epochs[i].index for i in span
        ]
        base = None
        for shipped, epoch in zip(clone.epochs, epochs[span.start:span.stop]):
            assert shipped.start.is_delta == (base is not None)
            start = shipped.start.hydrate(resolve, base_pages=base)
            assert start.digest() == epoch.start_checkpoint.digest()
            assert start.sync_state == epoch.start_checkpoint.sync_state
            base = start.memory.pages
            assert shipped.end_digest == epoch.end_digest
            assert shipped.targets == epoch.targets
            assert shipped.sync_events == epoch.sync_log.events
            assert shipped.schedule.slices == epoch.schedule.slices
        # The shared log references strip their coordinator shortcut and
        # resolve (through the batch blob set) to the serial path's logs.
        (chunk,) = clone.syscalls  # a replay's log is one chunk
        assert chunk._local is None
        assert resolve(chunk.digest) == tuple(result.recording.syscalls_for_epochs())
        assert resolve(clone.signals.digest) == tuple(
            result.recording.signal_records
        )


@pytest.mark.parametrize("name", ["pbzip", "fft"])
def test_steady_state_dispatch_is_skeleton_only(name, monkeypatch):
    """A dispatch is the skeleton and a pack path, cold or warm.

    Built against an empty scratch pack, a recording's dispatches put
    every blob once; built again they put nothing. Either way what is
    pickled for the worker is the same skeleton, and together the
    dispatches pickle to under a fifth of what shipping each unit as
    whole objects costs (exact ``pickle.dumps`` lengths, no pool
    involved).
    """
    instance, machine, result = _record(name, scale=8)
    recording = result.recording
    whole_objects = sum(
        len(pickle.dumps((
            instance.image, machine, epoch.start_checkpoint, epoch.targets,
            epoch.schedule, epoch.sync_log.events,
            syscall_slice(recording.syscall_records, epoch.start_checkpoint),
            signal_slice(recording.signal_records, epoch.start_checkpoint),
            epoch.end_digest,
        )))
        for epoch in recording.epochs
    )
    wire = replay_units_for_recording(recording)
    packs = ScratchPacks()
    monkeypatch.setattr(host_executor, "_scratch_packs", packs)
    try:
        sizes = []
        for history in ("cold", "warm"):
            executor = HostExecutor(options.resolve(host_jobs=2), Lives())
            session = SpeculativeSession(executor, "replay", instance.image, machine)
            session.blobs.update(wire.blobs)
            for unit in wire.units:
                session._add_unit(unit)
            dispatches = [
                session._make_dispatch(index) for index in range(len(session.units))
            ]
            assert len(dispatches) == len(wire.units)
            assert recording.epoch_count() >= 8
            assert len({dispatch.pack for dispatch in dispatches}) == 1
            blobs_put = sum(dispatch.placed[0] for dispatch in dispatches)
            bytes_put = sum(dispatch.placed[1] for dispatch in dispatches)
            if history == "cold":
                assert blobs_put == len(session.blobs)
                assert bytes_put == sum(map(len, session.blobs.values()))
            else:
                assert bytes_put == blobs_put == 0
            sizes.append([len(pickle.dumps(dispatch)) for dispatch in dispatches])
            for dispatch in dispatches:
                packs.release(dispatch.pack)
    finally:
        packs.close()
    assert packs._dir is None
    assert sizes[0] == sizes[1]
    assert whole_objects >= 5 * sum(sizes[0])


def _cut_every_position(recording):
    """A finished recording's epochs, each cut as a record unit by the one
    builder: ``(checkpoints, units, logs, blobs, interned)``."""
    checkpoints = [epoch.start_checkpoint for epoch in recording.epochs]
    logs = SegmentLogs(
        recording.syscall_records, recording.signal_records, checkpoints[0]
    )
    blobs, interned = {}, set()
    units = [
        _record_unit(
            position, position, checkpoints[position], checkpoints[position + 1],
            (), logs, True, blobs, interned,
        )
        for position in range(len(checkpoints) - 1)
    ]
    return checkpoints, units, logs, blobs, interned


def test_record_units_share_pages_by_content():
    """A page unchanged across the epoch must never be re-shipped.

    The unit's boundary is a pure delta against its start: pages shared
    by object identity (copy-on-write) or equal by content stay out of
    ``page_changes``, and hydration maps both tables to the *same* page
    object — so the worker's divergence check keeps its O(1) identity
    fast path, and the wire carries only the epoch's dirty pages.
    """
    _, _, result = _record()
    checkpoints, units, _, blobs, _ = _cut_every_position(result.recording)
    checked = 0
    for unit in units:
        start_cp = checkpoints[unit.position]
        boundary_cp = checkpoints[unit.position + 1]
        assert not unit.start.is_delta
        assert unit.boundary.is_delta
        shared_before = {
            no
            for no, page in start_cp.memory.pages.items()
            if boundary_cp.memory.pages.get(no) is page
        }
        # Object-shared pages never appear in the delta.
        assert not (set(unit.boundary.page_changes) & shared_before)
        clone = roundtrip(unit)
        resolve = _blob_resolver(blobs)
        start = clone.start.hydrate(resolve)
        boundary = clone.boundary.hydrate(resolve, base_pages=start.memory.pages)
        shared_after = {
            no
            for no, page in start.memory.pages.items()
            if boundary.memory.pages.get(no) is page
        }
        # Content addressing can only widen sharing (digest-equal pages
        # collapse onto one object even when the originals were distinct).
        assert shared_before <= shared_after, "hydration lost page sharing"
        assert start.kernel_state is None
        assert boundary.kernel_state is None
        assert start.digest() == start_cp.digest()
        assert boundary.digest() == boundary_cp.digest()
        if shared_before:
            checked += 1
    assert checked, "no unit had a surviving shared page — widen the workload"


def test_a_position_cut_twice_yields_equal_units_and_re_puts_nothing(monkeypatch):
    """What the merge lacks it cuts again, with the same builder: over
    finished logs the second cut of a position is the first one — equal
    unit, no blob interned, no log record encoded, nothing put into the
    scratch pack by its dispatch.

    Fails if ``_record_unit`` interns the hint window under a per-cut key
    (say, a tuple carrying the cut's ordinal).
    """
    instance, machine, result = _record("apache", scale=24)
    checkpoints, units, logs, blobs, interned = _cut_every_position(result.recording)
    assert len(units) >= 8 and all(unit.syscalls for unit in units)
    held = dict(blobs)
    stats = process_stats()
    encoded = stats.get("work.syscall_records_encoded")
    packs = ScratchPacks()
    monkeypatch.setattr(host_executor, "_scratch_packs", packs)
    try:
        executor = HostExecutor(options.resolve(host_jobs=2), Lives())
        session = SpeculativeSession(executor, "record", instance.image, machine)
        session.blobs.update(blobs)
        shipped = 0
        for unit in units:
            dispatch = session._make_dispatch(session._add_unit(unit))
            packs.release(dispatch.pack)
            shipped += dispatch.placed[1]
        assert shipped > 0
        for position in (0, len(units) // 2, len(units) - 1):
            again = _record_unit(
                position, position, checkpoints[position],
                checkpoints[position + 1], (), logs, True, blobs, interned,
            )
            assert again == units[position] and again is not units[position]
            assert session._add_unit(again) == position
            dispatch = session._make_dispatch(position)
            packs.release(dispatch.pack)
            assert dispatch.placed[:2] == (0, 0)
        assert blobs == held
        assert stats.get("work.syscall_records_encoded") == encoded
    finally:
        packs.close()
