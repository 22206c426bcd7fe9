"""The durable sharded event log: segments, blobs, writer/reader.

Covers the storage layers bottom-up — block round trips per codec, the
crash-truncation rule (torn tails truncate, interior corruption raises),
content-addressed blob dedup — then the full writer/reader path on real
recordings: durable round trips, ``--from-epoch`` suffix loads, spill
(flight-recorder) mode, and the group-commit/fsync knobs.
"""

import io
import json
import os
import struct
import tempfile
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import run_native
from repro.checkpoint.checkpoint import WireCheckpoint
from repro.core import DoublePlayConfig, DoublePlayRecorder, Replayer
from repro.errors import ReplayError
from repro.machine.config import MachineConfig
from repro.memory.blob import TAG_PAGE_RAW, blob_digest, encode_object
from repro.record import pack
from repro.record.pack import (
    CODEC_RAW, CODEC_ZLIB1, PACK_MAGIC, PACK_NAME, BlobStore, blob_of,
    iter_entries,
)
from repro.record.segment import (
    SEGMENT_MAGIC,
    SegmentCorruption,
    SegmentReader,
    SegmentWriter,
)
from repro.record.shards import ShardedLogReader, persist_recording
from repro.record.storage import UNSYNCED
from repro.workloads import build_workload
from tests.conftest import BLOB_CORRUPTIONS, edit_pack, on_blob

FRAMES = [b"alpha", b"b" * 200, b"", b"gamma" * 50]


# ----------------------------------------------------------------------
# Segment files
# ----------------------------------------------------------------------
def _block_by_hand(frames, level):
    """One block laid out from the format's description, not the writer."""
    body = b"".join(struct.pack("<I", len(frame)) + frame for frame in frames)
    stored = zlib.compress(body, level) if level else body
    header = struct.pack(
        "<4sBIII", b"DPBK", level, len(body), len(stored), zlib.crc32(stored)
    )
    return header + stored


@pytest.mark.parametrize("codec", ["raw", "zlib1", "zlib6"])
def test_segment_round_trip(tmp_path, codec):
    """Every codec byte a writer ever stamped reads; zlib1 is what it writes."""
    level = {"raw": 0, "zlib1": 1, "zlib6": 6}[codec]
    by_hand = [_block_by_hand(FRAMES, level), _block_by_hand([b"second block"], level)]
    path = tmp_path / "seg.dpseg"
    path.write_bytes(SEGMENT_MAGIC + b"".join(by_hand))

    reader = SegmentReader(str(path))
    blocks = list(reader.iter_blocks())
    assert [frames for _, frames in blocks] == [FRAMES, [b"second block"]]
    assert [offset for offset, _ in blocks] == [
        len(SEGMENT_MAGIC), len(SEGMENT_MAGIC) + len(by_hand[0])
    ]

    written = str(tmp_path / "written.dpseg")
    writer = SegmentWriter(written, UNSYNCED)
    for frame in FRAMES:
        writer.append(frame)
    first = writer.flush()
    writer.append(b"second block")
    writer.close()
    assert first == 0
    assert len(writer.blocks) == 2
    # the writer's own bytes are the zlib1 layout, and no other
    same_bytes = open(written, "rb").read() == path.read_bytes()
    assert same_bytes == (codec == "zlib1")
    # extents recorded by the writer address the same blocks
    reread = SegmentReader(written)
    for extent, frames in zip(writer.blocks, (FRAMES, [b"second block"])):
        assert reread.read_block(extent.offset) == frames


def test_empty_flush_is_a_noop(tmp_path):
    writer = SegmentWriter(str(tmp_path / "seg.dpseg"), UNSYNCED)
    assert writer.flush() is None
    assert writer.blocks == []


def test_torn_tail_truncates(tmp_path):
    path = str(tmp_path / "seg.dpseg")
    writer = SegmentWriter(path, UNSYNCED)
    writer.append(b"kept")
    writer.flush()
    writer.append(b"torn away")
    writer.close()
    # A crash mid-write leaves a partial second block: cut its body.
    size = os.path.getsize(path)
    with open(path, "r+b") as handle:
        handle.truncate(size - 4)
    blocks = list(SegmentReader(path).iter_blocks())
    assert [frames for _, frames in blocks] == [[b"kept"]]


def test_garbage_tail_truncates(tmp_path):
    path = str(tmp_path / "seg.dpseg")
    writer = SegmentWriter(path, UNSYNCED)
    writer.append(b"kept")
    writer.close()
    with open(path, "ab") as handle:
        handle.write(b"DPBK\x00garbage that is no block")
    blocks = list(SegmentReader(path).iter_blocks())
    assert [frames for _, frames in blocks] == [[b"kept"]]


def test_interior_corruption_raises(tmp_path):
    path = str(tmp_path / "seg.dpseg")
    writer = SegmentWriter(path, UNSYNCED)
    writer.append(b"first block body")
    first = writer.flush()
    writer.append(b"second block")
    writer.close()
    offset = writer.blocks[first].offset
    # Flip a byte inside the FIRST block's stored body — a later block
    # still verifies, so this is corruption, not a torn tail.
    with open(path, "r+b") as handle:
        handle.seek(offset + 24)
        byte = handle.read(1)
        handle.seek(offset + 24)
        handle.write(bytes([byte[0] ^ 0xFF]))
    reader = SegmentReader(path)
    with pytest.raises(SegmentCorruption):
        list(reader.iter_blocks())
    with pytest.raises(SegmentCorruption):
        reader.read_block(offset)


def test_not_a_segment_file(tmp_path):
    path = tmp_path / "nope.dpseg"
    path.write_bytes(b"hello world, definitely not a segment")
    with pytest.raises(SegmentCorruption):
        SegmentReader(str(path))


# ----------------------------------------------------------------------
# Blob store
# ----------------------------------------------------------------------
def test_blob_store_dedup(tmp_path):
    store = BlobStore(str(tmp_path / "blobs"))
    assert store.put(0xAB, b"payload") is True
    assert store.put(0xAB, b"payload") is False
    assert store.blobs_written == 1
    assert store.bytes_written == len(b"payload")
    assert store.get(0xAB) == b"payload"
    assert store.has(0xAB)
    assert not store.has(0xCD)
    store.close()
    # A second store over the same pack rediscovers on-disk blobs and
    # never appends them again.
    other = BlobStore(str(tmp_path / "blobs"))
    assert other.put(0xAB, b"payload") is False
    assert other.blobs_written == 0
    assert other.get(0xAB) == b"payload"


def test_blob_pack_torn_tail_truncates(tmp_path):
    store = BlobStore(str(tmp_path / "blobs"))
    store.put(0xAB, b"first blob")
    store.put(0xCD, b"second blob")
    store.close()
    # A crash mid-append leaves a partial trailing entry; the scan must
    # keep every complete blob and drop the torn one.
    with open(store.path, "r+b") as handle:
        handle.truncate(os.path.getsize(store.path) - 3)
    reopened = BlobStore(str(tmp_path / "blobs"))
    assert reopened.get(0xAB) == b"first blob"
    assert not reopened.has(0xCD)
    # The torn tail is overwritten by the next append at the same spot.
    assert reopened.put(0xCD, b"second blob") is True


@settings(max_examples=20, deadline=None)
@given(st.lists(st.binary(max_size=48), min_size=1, max_size=5, unique=True))
def test_a_pack_truncated_anywhere_indexes_a_prefix_of_whole_entries(blobs):
    """Every crash prefix of a small pack (enumerated, not sampled):
    a reader never raises, indexes exactly the entries that are whole,
    and never returns bytes that do not hash to the digest asked for;
    an appender that resumes on the prefix puts the rest back."""
    with tempfile.TemporaryDirectory() as scratch:
        whole = BlobStore(os.path.join(scratch, "whole"))
        ends = [len(PACK_MAGIC)]
        for blob in blobs:
            whole.put(blob_digest(blob), blob)
            ends.append(whole.pack_bytes)
        whole.close()
        data = open(whole.path, "rb").read()
        assert len(data) == ends[-1]
        for cut in range(len(data) + 1):
            root = os.path.join(scratch, f"cut{cut}")
            os.makedirs(root)
            with open(os.path.join(root, "pack.dppack"), "wb") as handle:
                handle.write(data[:cut])
            torn = BlobStore(root)
            survivors = sum(1 for end in ends[1:] if end <= cut)
            for number, blob in enumerate(blobs):
                digest = blob_digest(blob)
                assert torn.has(digest) == (number < survivors)
                if number < survivors:
                    assert blob_digest(torn.get(digest)) == digest
                else:
                    with pytest.raises(ReplayError):
                        torn.get(digest)
                    assert torn.put(digest, blob) is True
            torn.close()
            again = BlobStore(root)
            assert all(again.get(blob_digest(blob)) == blob for blob in blobs)
            again.close()


# ----------------------------------------------------------------------
# Sharded writer/reader end-to-end
# ----------------------------------------------------------------------
def _record(name="prodcons", workers=2, **overrides):
    instance = build_workload(name, workers=workers, scale=2, seed=11)
    machine = MachineConfig(cores=workers)
    native = run_native(instance.image, instance.setup, machine)
    config = DoublePlayConfig(
        machine=machine,
        epoch_cycles=max(native.duration // 12, 500),
        **overrides,
    )
    result = DoublePlayRecorder(instance.image, instance.setup, config).record()
    return instance, machine, result


def test_durable_round_trip_matches_in_memory(tmp_path):
    log_dir = str(tmp_path / "log")
    _, _, in_memory = _record("pbzip")
    _, _, durable = _record("pbzip", log_dir=log_dir)
    loaded = ShardedLogReader(log_dir).load_recording()
    assert json.dumps(loaded.to_plain(), sort_keys=True) == json.dumps(
        in_memory.recording.to_plain(), sort_keys=True
    )
    manifest = json.load(open(os.path.join(log_dir, "manifest.json")))
    assert manifest["complete"] is True
    assert manifest["final_digest"] == durable.recording.final_digest
    assert {manifest["codec"]} | {s["codec"] for s in manifest["segments"]} == {"zlib1"}
    assert ShardedLogReader(log_dir).verify() == []


def test_from_epoch_loads_only_the_suffix(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_LOG_GROUP_KB", "1")  # a block every epoch or two
    log_dir = str(tmp_path / "log")
    instance, machine, result = _record("pbzip", log_dir=log_dir)
    total = result.recording.epoch_count()
    assert total >= 4, "need a multi-epoch run for a mid-run start"
    mid = total // 2
    reader = ShardedLogReader(log_dir)
    reads = []
    read_block = SegmentReader.read_block
    monkeypatch.setattr(
        SegmentReader, "read_block",
        lambda self, offset: reads.append(offset) or read_block(self, offset),
    )
    suffix = reader.load_recording(from_epoch=mid)
    # Read cost follows the suffix: its distinct blocks, each once.
    blocks = [tuple(entry["block"]) for entry in reader.manifest["epochs"]]
    assert len(reads) == len(set(blocks[mid:])) < len(set(blocks))
    assert suffix.epoch_count() == total - mid
    assert [e.index for e in suffix.epochs] == list(range(mid, total))
    # The suffix starts from epoch mid's checkpoint, materialised from
    # the blob store — not from program start.
    assert suffix.initial_checkpoint.index == result.recording.epochs[
        mid
    ].start_checkpoint.index
    outcome = Replayer(instance.image, machine).replay_sequential(suffix)
    assert outcome.verified, outcome.details
    assert outcome.epochs_replayed == total - mid


def test_from_epoch_out_of_range(tmp_path):
    log_dir = str(tmp_path / "log")
    _record(log_dir=log_dir)
    reader = ShardedLogReader(log_dir)
    with pytest.raises(ReplayError):
        reader.load_recording(from_epoch=reader.epoch_count() + 1)
    with pytest.raises(ReplayError):
        reader.load_recording(from_epoch=-1)


def test_missing_manifest_raises(tmp_path):
    with pytest.raises(ReplayError):
        ShardedLogReader(str(tmp_path))


def test_unsupported_manifest_format_raises(tmp_path):
    (tmp_path / "manifest.json").write_text(json.dumps({"format": 99}))
    with pytest.raises(ReplayError):
        ShardedLogReader(str(tmp_path))


def _edited(change):
    def corrupt(text):
        manifest = json.loads(text)
        change(manifest)
        return json.dumps(manifest)

    return corrupt


MALFORMED = {
    "not-json": lambda text: "{not json",
    "truncated": lambda text: text[: len(text) // 2],
    "keys-missing": lambda text: '{"format": 1}',
    "not-an-object": lambda text: "[1]",
    "checkpoint-not-hex": _edited(lambda m: m["epochs"][1].update(checkpoint="zz")),
    "block-outside-segment": _edited(lambda m: m["epochs"][1].update(block=[0, 99])),
    "block-mistyped": _edited(lambda m: m["epochs"][1].update(block="0,0")),
    "extents-mistyped": _edited(lambda m: m["segments"][0].update(blocks=[[8]])),
    "stats-missing": _edited(lambda m: m.pop("stats")),
}


@pytest.mark.parametrize("corrupt", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_manifest_is_a_replay_error(tmp_path, corrupt):
    """Open yields a committed prefix or a typed error — never a
    JSONDecodeError / KeyError / ValueError from some later read."""
    log_dir = tmp_path / "log"
    _record(log_dir=str(log_dir))
    manifest = log_dir / "manifest.json"
    manifest.write_text(corrupt(manifest.read_text()))
    with pytest.raises(ReplayError, match="manifest"):
        ShardedLogReader(str(log_dir))


def test_spill_mode_bounds_memory_and_matches_durable(tmp_path):
    plain_dir = str(tmp_path / "plain")
    spill_dir = str(tmp_path / "spill")
    _, _, plain = _record("pbzip", log_dir=plain_dir)
    instance, machine, spilled = _record(
        "pbzip", log_dir=spill_dir, log_spill=True
    )
    # Spilled epochs hold no resident log data and refuse to_plain().
    assert spilled.recording.resident_log_bytes() == 0
    assert spilled.recording.stats["log_spilled"] == 1
    with pytest.raises(ValueError):
        spilled.recording.to_plain()
    # Per-epoch size accounting survives the spill; full accounting
    # (syscall/signal bytes included) lives on the durable load below.
    assert (
        spilled.recording.schedule_log_bytes()
        == plain.recording.schedule_log_bytes()
    )
    assert (
        spilled.recording.sync_log_bytes() == plain.recording.sync_log_bytes()
    )
    # The durable artefacts are byte-identical: spill changes only what
    # stays resident, never what is written.
    plain_manifest = open(os.path.join(plain_dir, "manifest.json")).read()
    spill_manifest = open(os.path.join(spill_dir, "manifest.json")).read()
    assert plain_manifest == spill_manifest
    loaded = ShardedLogReader(spill_dir).load_recording()
    assert loaded.total_log_bytes() == plain.recording.total_log_bytes()
    outcome = Replayer(instance.image, machine).replay_sequential(loaded)
    assert outcome.verified, outcome.details


def test_spill_requires_log_dir():
    with pytest.raises(ValueError):
        _record(log_spill=True)


def test_crash_tail_never_strands_a_sealed_epoch(tmp_path):
    # Garbage appended past the last flushed block (a crash mid-write)
    # is invisible: the manifest only references completed blocks.
    log_dir = str(tmp_path / "log")
    instance, machine, _ = _record("pbzip", log_dir=log_dir)
    segments = sorted(os.listdir(os.path.join(log_dir, "segments")))
    with open(os.path.join(log_dir, "segments", segments[-1]), "ab") as handle:
        handle.write(b"DPBK partial block torn by a crash")
    reader = ShardedLogReader(log_dir)
    assert reader.verify() == []
    loaded = reader.load_recording()
    outcome = Replayer(instance.image, machine).replay_sequential(loaded)
    assert outcome.verified, outcome.details


def test_verify_reports_missing_blobs(tmp_path):
    log_dir = str(tmp_path / "log")
    _record(log_dir=log_dir)
    os.remove(os.path.join(log_dir, "blobs", "pack.dppack"))
    problems = ShardedLogReader(log_dir).verify()
    assert any("checkpoint blob missing" in problem for problem in problems)


def test_verify_reports_a_page_that_no_longer_matches_its_address(tmp_path):
    """One payload byte of one page entry flipped in a fresh fft log.

    ``verify()`` walks what the manifest names — not just that each
    skeleton digest is indexed — so the page is reported with the epoch
    and page number that name it, and ``repro log recover`` refuses the
    log. (At the parent ``verify()`` returned ``[]``, recover printed a
    clean bill and the replay failed with an unattributed "epoch 0
    replayed to a different state".)
    """
    from repro.cli import main as cli_main

    log_dir = str(tmp_path / "log")
    _record("fft", log_dir=log_dir)
    reader = ShardedLogReader(log_dir)
    assert reader.verify() == []
    entry = reader.manifest["epochs"][1]
    skeleton = _skeleton(reader, entry["checkpoint"])
    initial_pages = _skeleton(reader, reader.manifest["initial"]).page_table
    # A page epoch 1's start is the first to name: one it dirtied.
    page_no, digest = next(
        (no, d) for no, d in sorted(skeleton.page_table.items())
        if initial_pages.get(no) != d
    )
    reader.store.close()

    @on_blob
    def flip(found, payload):
        if found == digest:
            middle = len(payload) // 2
            flipped = bytes([payload[middle] ^ 0x01])
            return payload[:middle] + flipped + payload[middle + 1:]

    assert edit_pack(log_dir, flip) == [digest]

    problems = ShardedLogReader(log_dir).verify()
    assert problems == [
        f"epoch {entry['index']}: page {page_no} blob does not hash to its "
        f"address: {digest:032x}"
    ]
    out = io.StringIO()
    assert cli_main(["log", "recover", log_dir], out=out) == 1
    assert f"page {page_no}" in out.getvalue() and "recover FAILED" in out.getvalue()


# ----------------------------------------------------------------------
# Checkpoint skeletons: the wire's codec, checked on the load path
# ----------------------------------------------------------------------
def _skeleton(reader, ref):
    digest = int(ref, 16)
    return WireCheckpoint.from_blob(reader.store.get(digest), digest)


def test_the_log_and_the_wire_name_checkpoints_identically(tmp_path):
    """A durable skeleton is ``to_wire().to_blob()`` of the in-memory
    checkpoint, under that blob's digest, and decodes back to it."""
    log_dir = str(tmp_path / "log")
    _, _, result = _record("pbzip", log_dir=log_dir)
    recording = result.recording
    reader = ShardedLogReader(log_dir)
    entries = reader.manifest["epochs"]
    assert len(entries) == len(recording.epochs) > 2
    named = [(reader.manifest["initial"], recording.initial_checkpoint)] + [
        (entry["checkpoint"], epoch.start_checkpoint)
        for entry, epoch in zip(entries, recording.epochs)
    ]
    for ref, checkpoint in named:
        wire, stored = checkpoint.to_wire(), _skeleton(reader, ref)
        blob = wire.to_blob()
        assert ref == f"{blob_digest(blob):032x}"
        assert (stored.index, stored.time, stored.dirty_pages, stored.page_table) == (
            wire.index, wire.time, wire.dirty_pages, wire.page_table,
        )
        assert WireCheckpoint.from_blob(blob, blob_digest(blob)).to_blob() == blob


def _entries(log_dir):
    """``(digest, codec, stored, blob)`` of every entry of a log's pack."""
    data = open(os.path.join(log_dir, "blobs", PACK_NAME), "rb").read()
    return [
        (digest, codec, bytes(stored), blob_of(digest, codec, stored))
        for _, digest, codec, stored in iter_entries(data, len(PACK_MAGIC))
    ]


@pytest.mark.parametrize("name", ["pbzip", "fft"])
def test_a_blob_is_stored_compressed_exactly_when_that_halves_it(tmp_path, name):
    """The durable pack's codec rule, entry by entry: zlib level 1 where
    that at least halves the blob, the blob as it is otherwise, under the
    blob's own digest. pbzip's mostly-zero pages halve, so its log stores
    under half its blobs' bytes; fft's dense pages do not, and stay raw.
    Both byte counters count what is stored."""
    log_dir = str(tmp_path / "log")
    _, _, result = _record(name, log_dir=log_dir)
    entries = _entries(log_dir)
    for digest, codec, _, blob in entries:
        assert blob_digest(blob) == digest
        halves = 2 * len(zlib.compress(blob, 1)) <= len(blob)
        assert codec == (CODEC_ZLIB1 if halves else CODEC_RAW)
    stored = sum(len(stored) for _, _, stored, _ in entries)
    assert result.metrics.snapshot()["durable"]["blob_bytes"] == stored
    again = persist_recording(result.recording, str(tmp_path / "again"))
    assert again["blob_bytes"] == stored
    if name == "pbzip":
        assert 2 * stored < sum(len(blob) for *_, blob in entries)
    else:
        assert any(
            codec == CODEC_RAW and blob[:1] == TAG_PAGE_RAW
            for _, codec, _, blob in entries
        )


def test_a_log_of_raw_entries_and_pickled_contexts_still_replays(tmp_path, monkeypatch):
    """A pack as earlier writers left it — every entry raw, each skeleton's
    contexts a pickled ``{tid: ThreadContext}`` — loads, verifies and
    replays, sequentially and in parallel, to the figures of the same
    recording written now."""
    instance, machine, result = _record("prodcons")
    now, before = str(tmp_path / "now"), str(tmp_path / "before")
    persist_recording(result.recording, now)
    with monkeypatch.context() as patch:
        patch.setattr(pack, "stored_form", lambda blob, compress: (CODEC_RAW, blob))
        patch.setattr(WireCheckpoint, "to_blob", lambda self: encode_object((
            self.index, self.time, self.contexts,
            self.sync_state, self.dirty_pages, self.page_table,
        )))
        persist_recording(result.recording, before)
    entries = _entries(before)
    assert {codec for _, codec, _, _ in entries} == {CODEC_RAW}
    assert any(b"ThreadContext" in blob for *_, blob in entries)
    replayer = Replayer(instance.image, machine)
    figures = []
    for log_dir in (now, before):
        reader = ShardedLogReader(log_dir)
        assert reader.verify() == []
        recording = reader.load_recording(materialize=True)
        figures.append([
            (got.verified, got.total_cycles, got.makespan, got.epochs_replayed)
            for got in (
                replayer.replay_sequential(recording),
                replayer.replay_parallel(recording),
            )
        ])
    assert figures[0] == figures[1] and figures[0][0][0] and figures[0][1][0]


#: what the load path says of the blob each corruption class leaves
NOT_DECODED = {
    "page-tag": "is not a page",
    "zlib-flip": "does not decompress",
    "zlib-cut": "does not decompress",
}


@pytest.mark.parametrize("corruption", BLOB_CORRUPTIONS)
def test_a_blob_that_does_not_decode_is_a_replay_error(tmp_path, corruption):
    """The load path trusts the pack's hashes, not its bytes: a page or a
    skeleton that does not decode raises ReplayError naming its digest
    (it used to escape as ``ValueError: unknown blob tag``), and
    ``verify()`` names every edited blob, and nothing else."""
    log_dir = str(tmp_path / "log")
    _record("pbzip", log_dir=log_dir)
    edited = edit_pack(log_dir, BLOB_CORRUPTIONS[corruption])
    assert edited
    with pytest.raises(ReplayError) as info:
        ShardedLogReader(log_dir).load_recording()
    kind = NOT_DECODED.get(corruption, "is not a checkpoint skeleton")
    assert str(info.value) in {f"blob {digest:032x} {kind}" for digest in edited}
    problems = ShardedLogReader(log_dir).verify()
    assert sorted(problem.rsplit(": ", 1)[1] for problem in problems) == sorted(
        f"{digest:032x}" for digest in edited
    )


def test_group_commit_and_fsync_knobs(tmp_path, monkeypatch):
    # A 1 KiB threshold forces many group commits; REPRO_LOG_FSYNC=0
    # skips the log force entirely (throwaway-dir benchmarks).
    monkeypatch.setenv("REPRO_LOG_GROUP_KB", "1")
    monkeypatch.setenv("REPRO_LOG_FSYNC", "0")
    log_dir = str(tmp_path / "log")
    _, _, result = _record("pbzip", log_dir=log_dir)
    durable = result.metrics.snapshot()["durable"]
    assert durable["group_commits"] > 1
    assert durable.get("fsyncs", 0) == 0
    manifest = json.load(open(os.path.join(log_dir, "manifest.json")))
    blocks = sum(len(seg["blocks"]) for seg in manifest["segments"])
    assert blocks == durable["group_commits"]
    # Knobs change physical layout only — the logical content survives.
    loaded = ShardedLogReader(log_dir).load_recording()
    _, _, baseline = _record("pbzip")
    assert json.dumps(loaded.to_plain(), sort_keys=True) == json.dumps(
        baseline.recording.to_plain(), sort_keys=True
    )


def test_manifest_fsyncs_are_counted(tmp_path, monkeypatch):
    """With fsync mode on, ``durable.fsyncs`` is exactly the syncs the
    storage made: every block, pack flush, manifest tmp file and
    directory sync, counted in one place. (Once the count left out the
    manifest's own two, so the commit point could vanish on power loss
    without a trace.)"""
    from tests.storage_log import record_storage

    monkeypatch.delenv("REPRO_LOG_FSYNC", raising=False)
    monkeypatch.setenv("REPRO_LOG_GROUP_KB", "1")
    log_dir = str(tmp_path / "log")
    seams = record_storage(monkeypatch, log_dir)
    _, _, result = _record("pbzip", log_dir=log_dir)
    durable = result.metrics.snapshot()["durable"]
    (seam,) = seams
    assert durable["group_commits"] > 1
    assert durable["fsyncs"] == seam.count("sync", "sync_dir")
    # each group commit synced its block and its manifest
    assert seam.count("sync") > 2 * durable["group_commits"]


@pytest.mark.parametrize("name", ["pbzip", "racy-counter"])
def test_offline_persist_matches_streamed_log(tmp_path, name):
    # persist_recording (offline, final epoch unbounded) and the
    # recorder's streaming path must produce byte-identical logs —
    # including through forward recoveries (racy-counter prunes logs).

    streamed_dir = str(tmp_path / "streamed")
    _, _, streamed = _record(name, log_dir=streamed_dir)
    offline_dir = str(tmp_path / "offline")
    _, _, in_memory = _record(name)
    totals = persist_recording(in_memory.recording, offline_dir)
    assert totals["epochs"] == in_memory.recording.epoch_count()

    streamed_manifest = open(os.path.join(streamed_dir, "manifest.json")).read()
    offline_manifest = open(os.path.join(offline_dir, "manifest.json")).read()
    assert streamed_manifest == offline_manifest
    for segment in sorted(os.listdir(os.path.join(streamed_dir, "segments"))):
        a = open(os.path.join(streamed_dir, "segments", segment), "rb").read()
        b = open(os.path.join(offline_dir, "segments", segment), "rb").read()
        assert a == b, f"{segment} differs between streamed and offline"


def test_persist_refuses_spilled_recordings(tmp_path):

    _, _, spilled = _record(log_dir=str(tmp_path / "log"), log_spill=True)
    with pytest.raises(ValueError):
        persist_recording(spilled.recording, str(tmp_path / "again"))
