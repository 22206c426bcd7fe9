"""The sharded durable event log: per-thread append streams on disk.

This is the durable backend behind ``record --log-dir`` and
``replay --from-epoch``. The in-memory :class:`~repro.record.recording.
Recording` funnels every logged event into one stream whose resident
size is O(run); here the same events become **per-thread, per-epoch log
shards** appended to compressed segment files
(:mod:`repro.record.segment`) as epochs commit, with a **manifest**
tying every epoch's shard extents to its start checkpoint's
content-addressed blob digests. A recording on disk is::

    <dir>/manifest.json        epoch directory: shard extents, checkpoint
                               digests, stats — the commit point
    <dir>/segments/seg-*.dpseg append-only blocks of shard frames
    <dir>/blobs/pack.dppack    content-addressed blob pack: checkpoint
                               pages (wire digests) + skeletons
                               (``WireCheckpoint.to_blob``), one
                               append-only file (:mod:`repro.record.pack`)

Ordering: LSN vectors, not a global stream
------------------------------------------
Shards are per-thread, so no shard encodes the cross-thread order by
position. Instead every shard record carries its **epoch-local sequence
number** (its rank in the epoch's committed order), and per-thread
syscall/signal records additionally keep their ``(tid, seq)`` /
``(tid, retired)`` keys — the per-record vectors that make the merge
deterministic: a reader k-way-merges a stream's per-thread shards by
rank and provably reconstructs the exact committed order (within an
epoch ranks are a permutation of ``0..n-1``; across epochs the
per-thread key floors at checkpoints make concatenation order-exact,
see ``ThreadLogIndex.positions_between``). This is Taurus's design
point: parallel log streams stay independent at append time and the
ordering metadata rides in the records.

Group commit and crash rule
---------------------------
Epoch commits buffer frames; a group commit (past the threshold, and at
close) writes one synced block, then republishes the manifest, so a
crash leaves at most a torn tail no manifest names. Every byte goes
through one :class:`~repro.record.storage.Storage`; the orderings a
crash relies on are DESIGN.md's *Durable-log ordering*.

Shard extents reuse the epoch index
-----------------------------------
Which records belong to epoch *e* for thread *t* is exactly the
``[start_floor, end_floor)`` per-thread key window between consecutive
checkpoints — the query :class:`~repro.record.log_index.ThreadLogIndex`
answers for wire slicing too, so ``commit_epoch`` asks the index pair
the recorder already keeps over its segment's logs
(:meth:`~repro.record.log_index.SegmentLogs.epoch_records`) and builds
none of its own.

Flight window: the manifest is the only bookkeeping
---------------------------------------------------
With ``flight_window=K`` each manifest write keeps the last K sealed
epochs, and what may be deleted is derived from that manifest, never
counted: segments no kept entry's block sits in, and pack blobs no live
checkpoint skeleton names. Both go only after the manifest that stopped
naming them is renamed into place.
"""

from __future__ import annotations

import json
import os
import pickle
import struct
from typing import Dict, List, Optional, Sequence, Tuple

from repro.checkpoint.checkpoint import Checkpoint, WireCheckpoint
from repro.errors import ReplayError
from repro.record.log_index import SegmentLogs
from repro.memory.blob import blob_digest, decode_blob
from repro.memory.page import Page
from repro import options
from repro.obs import events as obs_events
from repro.obs import metrics as obs_metrics
from repro.oskernel.syscalls import SyscallRecord, decode_record, encode_record
from repro.record.pack import BlobStore, _hex
from repro.record.recording import EpochRecord, Recording
from repro.record.schedule_log import ScheduleLog, Timeslice
from repro.record.segment import WRITE_CODEC, SegmentReader, SegmentWriter
from repro.record.storage import Storage
from repro.record.sync_log import SyncOrderLog

#: manifest format generation (bump on incompatible layout changes)
MANIFEST_FORMAT = 1
MANIFEST_NAME = "manifest.json"

#: shard stream codes (one byte in every frame header)
STREAM_SCHEDULE = 1
STREAM_SYNC = 2
STREAM_SYSCALL = 3
STREAM_SIGNAL = 4
STREAM_META = 5

_FRAME_HEADER = struct.Struct("<BII")  # stream, tid, epoch index
_SCHED_REC = struct.Struct("<IQB")     # rank, ops, flags
_SYNC_REC = struct.Struct("<IQB")      # rank, object addr, kind code

#: repeated-record packers, keyed by record count ("<" means no padding,
#: so one pack of "<IQBIQB…" is byte-identical to concatenated "<IQB"
#: packs — ``iter_unpack`` on the read side never notices)
_REPEAT_PACKERS: Dict[int, struct.Struct] = {}


def _packed(flat: list) -> bytes:
    """A thread's fixed ``<IQB`` records, flattened, as one payload."""
    count = len(flat) // 3
    packer = _REPEAT_PACKERS.get(count)
    if packer is None:
        packer = _REPEAT_PACKERS[count] = struct.Struct("<" + "IQB" * count)
    return packer.pack(*flat)


def _pickled(entries: list) -> bytes:
    return pickle.dumps(tuple(entries), protocol=4)


#: dead pack bytes that trigger a compaction mid-run. Compaction rewrites
#: the whole pack, so slides accumulate dead checkpoint blobs until the
#: reclaimable bytes justify the copy; a clean close always compacts
#: whatever is left so the final footprint is exactly the live window.
PACK_COMPACT_BYTES = 256 << 10


class ShardedLogWriter:
    """Streams committed epochs into the durable sharded log."""

    def __init__(
        self,
        directory: str,
        initial_checkpoint: Checkpoint,
        program_name: str,
        worker_threads: int,
        meta: Optional[dict] = None,
        group_commit_bytes: int = options.RuntimeOptions.log_group_bytes,
        segment_max_bytes: int = 4 << 20,
        flight_window: Optional[int] = None,
        pack_compact_bytes: int = PACK_COMPACT_BYTES,
        storage: Optional[Storage] = None,
    ):
        self.directory = directory
        if storage is None:
            storage = Storage(sync=options.current().log_fsync)
        self.storage = storage
        storage.makedirs(directory)
        storage.makedirs(os.path.join(directory, "segments"))
        self.store = BlobStore(os.path.join(directory, "blobs"), storage)
        self.group_commit_bytes = group_commit_bytes
        self.segment_max_bytes = segment_max_bytes
        self.program_name = program_name
        self.worker_threads = worker_threads
        self.meta = dict(meta or {})
        self._sync_kinds: Dict[str, int] = {}
        self._segments: List[dict] = []
        self._segment: Optional[SegmentWriter] = None
        #: manifest entries already assigned a block
        self._sealed: List[dict] = []
        #: manifest entries whose frames sit in the group-commit buffer
        self._pending: List[dict] = []
        self._final: dict = {"final_digest": 0, "stats": {}, "complete": False}
        self._closed = False
        self.peak_buffered = 0
        self.epochs_written = 0
        self._last_checkpoint_ref: Optional[tuple] = None
        # -- flight-recorder window state --------------------------------
        if flight_window is not None and flight_window < 1:
            raise ValueError("flight_window must be >= 1")
        self.flight_window = flight_window
        self.pack_compact_bytes = pack_compact_bytes
        #: skeleton hex ref -> every pack digest the checkpoint names
        #: (window mode only; pruned to the live refs after each manifest)
        self._ref_digests: Dict[str, Tuple[int, ...]] = {}
        self.epochs_dropped = 0
        self.segments_deleted = 0
        self.bytes_reclaimed = 0
        self.pack_compactions = 0
        self.initial_ref = self._put_checkpoint(initial_checkpoint)
        self._write_manifest()

    # -- storage helpers ------------------------------------------------
    def _put_checkpoint(self, checkpoint: Checkpoint) -> str:
        """Persist a checkpoint (pages + skeleton) into the blob store.

        Pages go in under their wire digests — identical content across
        epochs is written once. The skeleton is the checkpoint's
        :class:`WireCheckpoint` (contexts, sync state, page digest table;
        no kernel state — replay never needs it) as
        :meth:`~WireCheckpoint.to_blob`, itself a content-addressed blob
        whose hex digest the manifest records. Either is stored
        zlib-compressed where that halves it (:func:`~repro.record.pack.
        stored_form`); ``durable.blob_bytes`` counts the stored bytes.
        """
        memo = self._last_checkpoint_ref
        if memo is not None and memo[0] is checkpoint:
            return memo[1]
        store = self.store
        blobs_before, bytes_before = store.blobs_written, store.bytes_written
        page_table: Dict[int, int] = {}
        for no, page in checkpoint.memory.pages.items():
            digest, blob = page.wire_blob()
            page_table[no] = digest
            store.put(digest, blob, compress=True)
        skeleton = WireCheckpoint(
            checkpoint.index, checkpoint.time, checkpoint.contexts,
            checkpoint.sync_state, checkpoint.dirty_pages, page_table,
        ).to_blob()
        digest = blob_digest(skeleton)
        store.put(digest, skeleton, compress=True)
        if store.blobs_written > blobs_before:
            stats = obs_metrics.process_stats()
            stats.add("durable.blobs_written", store.blobs_written - blobs_before)
            stats.add("durable.blob_bytes", store.bytes_written - bytes_before)
        ref = _hex(digest)
        if self.flight_window is not None:
            self._ref_digests[ref] = (digest, *page_table.values())
        # Pin only the most recent checkpoint: each epoch's start is put
        # exactly once except the initial one (put again by epoch 0's
        # commit), so one entry is all the dedup this path ever needs —
        # and pinning more would hold pages the spill mode wants freed.
        self._last_checkpoint_ref = (checkpoint, ref)
        return ref

    def _segment_writer(self) -> SegmentWriter:
        if self._segment is not None and (
            self._segment.stored_bytes < self.segment_max_bytes
        ):
            return self._segment
        if self._segment is not None:
            self._retire_segment()
        name = f"seg-{len(self._segments):05d}.dpseg"
        path = os.path.join(self.directory, "segments", name)
        self._segment = SegmentWriter(path, self.storage)
        self._segments.append(
            {"file": f"segments/{name}", "codec": WRITE_CODEC, "blocks": []}
        )
        return self._segment

    def _retire_segment(self) -> None:
        self._flush()
        self.peak_buffered = max(self.peak_buffered, self._segment.peak_buffered)
        self._segment.close()
        self._segment = None

    # -- frame encoding -------------------------------------------------
    def _kind_code(self, kind: str) -> int:
        code = self._sync_kinds.get(kind)
        if code is None:
            code = self._sync_kinds[kind] = len(self._sync_kinds)
            if code > 0xFF:
                raise ValueError("too many sync kinds for a one-byte code")
        return code

    @staticmethod
    def _frames(stream: int, epoch: int, per_tid: dict, encode) -> List[bytes]:
        """One frame per thread, in tid order, carrying ``encode(records)``."""
        return [
            _FRAME_HEADER.pack(stream, tid, epoch) + encode(records)
            for tid, records in sorted(per_tid.items())
        ]

    def _schedule_frames(self, epoch: int, schedule: ScheduleLog) -> List[bytes]:
        per_tid: Dict[int, list] = {}
        setdefault = per_tid.setdefault
        for rank, timeslice in enumerate(schedule):
            setdefault(timeslice.tid, []).extend(
                (rank, timeslice.ops, 1 if timeslice.ended_blocked else 0)
            )
        return self._frames(STREAM_SCHEDULE, epoch, per_tid, _packed)

    def _sync_frames(self, epoch: int, sync_log: SyncOrderLog) -> List[bytes]:
        per_tid: Dict[int, list] = {}
        setdefault = per_tid.setdefault
        kind_code = self._kind_code
        for rank, (kind, addr, tid) in enumerate(sync_log.events):
            setdefault(tid, []).extend((rank, addr, kind_code(kind)))
        return self._frames(STREAM_SYNC, epoch, per_tid, _packed)

    def _syscall_frames(
        self, epoch: int, records: Sequence[SyscallRecord]
    ) -> List[bytes]:
        per_tid: Dict[int, list] = {}
        for rank, record in enumerate(records):
            per_tid.setdefault(record.tid, []).append(
                (rank, encode_record(record))
            )
        return self._frames(STREAM_SYSCALL, epoch, per_tid, _pickled)

    def _signal_frames(self, epoch: int, records: Sequence[tuple]) -> List[bytes]:
        per_tid: Dict[int, list] = {}
        for rank, record in enumerate(records):
            per_tid.setdefault(record[0], []).append((rank, tuple(record)))
        return self._frames(STREAM_SIGNAL, epoch, per_tid, _pickled)

    # -- commit path ----------------------------------------------------
    def commit_epoch(
        self,
        record: EpochRecord,
        start_checkpoint: Checkpoint,
        end_checkpoint: Optional[Checkpoint],
        logs: SegmentLogs,
    ) -> None:
        """Append one committed epoch's shards to the group-commit buffer.

        ``start_checkpoint``/``end_checkpoint`` bound the epoch's shard
        extents: per-thread syscall records with ``seq`` in
        ``[start.syscall_count, end.syscall_count)`` and signal records
        with ``retired`` in the matching window belong to this epoch —
        disjoint across epochs and (by checkpoint monotonicity)
        concatenation-exact in global log order. ``logs`` is the index
        pair over the raw logs that the caller keeps (the recorder's,
        per segment): the sink indexes nothing. ``end_checkpoint=None``
        means no upper bound (the run's final epoch when the closing
        checkpoint is not at hand — offline persistence): the logs were
        already pruned to the committed prefix, so unbounded selects the
        exact same records the live floors would.
        """
        if self._closed:
            raise ValueError("durable log already closed")
        stats = obs_metrics.process_stats()
        epoch = record.index
        syscalls, signals = logs.epoch_records(start_checkpoint, end_checkpoint)

        frames = self._schedule_frames(epoch, record.schedule)
        frames += self._sync_frames(epoch, record.sync_log)
        frames += self._syscall_frames(epoch, syscalls)
        frames += self._signal_frames(epoch, signals)
        meta = {
            "index": epoch,
            "targets": dict(record.targets),
            "end_digest": record.end_digest,
            "duration": record.duration,
            "recovered": record.recovered,
            "counts": {
                "schedule": len(record.schedule),
                "sync": len(record.sync_log),
                "syscall": len(syscalls),
                "signal": len(signals),
            },
        }
        frames.append(
            _FRAME_HEADER.pack(STREAM_META, 0, epoch) + pickle.dumps(meta, protocol=4)
        )

        writer = self._segment_writer()
        shard_bytes = 0
        for frame in frames:
            writer.append(frame)
            shard_bytes += len(frame)
        checkpoint_ref = self._put_checkpoint(start_checkpoint)
        self._pending.append(
            {
                "index": epoch,
                "recovered": record.recovered,
                "checkpoint": checkpoint_ref,
                "block": None,
                "records": sum(meta["counts"].values()),
                "bytes": shard_bytes,
            }
        )
        self.epochs_written += 1
        stats.add("durable.epochs")
        stats.add("durable.shard_bytes", shard_bytes)
        if writer.buffered_bytes >= self.group_commit_bytes:
            self._flush()
            self._write_manifest()

    def _flush(self) -> None:
        """Force the buffer: one block, one fsync, seal pending epochs."""
        if self._segment is None:
            return
        before = self._segment.stored_bytes
        block_index = self._segment.flush()
        if block_index is None:
            return
        stats = obs_metrics.process_stats()
        segment_index = len(self._segments) - 1
        extent = self._segment.blocks[block_index]
        self._segments[segment_index]["blocks"].append(list(extent))
        for entry in self._pending:
            entry["block"] = [segment_index, block_index]
            self._sealed.append(entry)
        sealed = len(self._pending)
        self._pending = []
        stats.add("durable.group_commits")
        stats.add("durable.group_commit_epochs", sealed)
        stats.add("durable.segment_bytes", self._segment.stored_bytes - before)

    # -- flight-recorder window: the live set is the manifest's -----------
    def _slide_window(self, stats) -> List[str]:
        """Drop pre-window epochs from the manifest; returns doomed segments.

        Bookkeeping only: manifest entries for the dropped epochs are
        removed, the window base moves to the oldest kept epoch's start,
        and every sealed segment no kept entry's block sits in is
        *marked* dropped (file set to null). The unlink and any pack
        compaction run only once the slid manifest is durably published:
        it must stop naming bytes before they go.
        """
        if self.flight_window is None:
            return []
        drop = len(self._sealed) - self.flight_window
        if drop > 0:
            self._sealed = self._sealed[drop:]
            self.initial_ref = self._sealed[0]["checkpoint"]
            self.epochs_dropped += drop
            stats.add("durable.window_slides")
            stats.add("durable.window_epochs_dropped", drop)
            obs_events.emit(
                "flight-window-slide", dropped=drop, window=self.flight_window,
            )
        live_blocks = {tuple(entry["block"]) for entry in self._sealed}
        # Retire the open segment early when the window slid past any of
        # its blocks: no further appends means the file becomes fully
        # dead — and deletable — as soon as its remaining epochs slide.
        if self._segment is not None and self._segment.buffered_bytes == 0:
            open_index = len(self._segments) - 1
            flushed = len(self._segments[open_index]["blocks"])
            if any((open_index, block) not in live_blocks for block in range(flushed)):
                self._retire_segment()
        live_segments = {segment for segment, _block in live_blocks}
        if self._segment is not None:
            live_segments.add(len(self._segments) - 1)
        doomed: List[str] = []
        for index, seg_entry in enumerate(self._segments):
            if index not in live_segments and seg_entry["blocks"]:
                doomed.append(os.path.join(self.directory, seg_entry["file"]))
                seg_entry.update(file=None, blocks=[], dropped=True)
        return doomed

    def _collect_garbage(self, doomed: List[str], stats) -> None:
        """Unlink dead segment files and compact the pack when it pays.

        No directory sync follows the unlinks: one a crash rolls back
        leaves a file no manifest names, which nothing reads.
        """
        for path in doomed:
            reclaimed = os.path.getsize(path)
            self.storage.unlink(path)
            self.segments_deleted += 1
            self.bytes_reclaimed += reclaimed
            stats.add("durable.segments_deleted")
            stats.add("durable.segment_bytes_reclaimed", reclaimed)
            obs_events.emit("segment-gc", bytes_reclaimed=reclaimed)
        self._maybe_compact(stats)

    def _maybe_compact(self, stats, force: bool = False) -> None:
        """Rewrite the pack without the blobs no live checkpoint names.

        The live checkpoints are the window base and every sealed and
        pending entry's start — what this manifest and the next can name;
        ``_ref_digests`` is pruned to them. Mid-run the dead blobs go only
        once their bytes clear the compaction threshold (the rewrite is
        O(pack)); ``force`` on clean close reclaims the remainder so the
        final footprint is exactly the live window. Always runs *after* a
        manifest that no longer names the dead digests is durably in place.
        """
        if self.flight_window is None:
            return
        live = {self.initial_ref}
        live.update(entry["checkpoint"] for entry in self._sealed + self._pending)
        self._ref_digests = {ref: self._ref_digests[ref] for ref in live}
        named = set().union(*self._ref_digests.values())
        dead = [digest for digest in self.store.digests() if digest not in named]
        if not dead or not force and (
            sum(map(self.store.entry_bytes, dead)) < self.pack_compact_bytes
        ):
            return
        freed = self.store.compact(dead)
        self.pack_compactions += 1
        self.bytes_reclaimed += freed
        stats.add("durable.pack_compactions")
        stats.add("durable.pack_bytes_reclaimed", freed)
        obs_events.emit("pack-compaction", bytes_reclaimed=freed)

    # -- manifest -------------------------------------------------------
    def _manifest_payload(self) -> dict:
        payload = {
            "format": MANIFEST_FORMAT,
            "codec": WRITE_CODEC,
            "program": self.program_name,
            "worker_threads": self.worker_threads,
            "workload": self.meta,
            "initial": self.initial_ref,
            "sync_kinds": [
                kind
                for kind, _ in sorted(
                    self._sync_kinds.items(), key=lambda item: item[1]
                )
            ],
            "flight_window": self.flight_window,
            "epochs_dropped": self.epochs_dropped,
            "epochs": list(self._sealed),
            "segments": self._segments,
            "final_digest": self._final["final_digest"],
            "stats": self._final["stats"],
            "complete": self._final["complete"],
        }
        if self._final.get("crash_reason"):
            payload["crash_reason"] = self._final["crash_reason"]
        return payload

    def _write_manifest(self) -> None:
        stats = obs_metrics.process_stats()
        doomed = self._slide_window(stats)
        # The manifest is the commit point: the pack it names goes
        # first, the garbage it stopped naming only after it.
        self.store.flush()
        payload = json.dumps(
            self._manifest_payload(), separators=(",", ":")
        ).encode("utf-8")
        self.storage.publish(os.path.join(self.directory, MANIFEST_NAME), payload)
        self._collect_garbage(doomed, stats)

    def close(self, final_digest: int = 0, stats: Optional[dict] = None) -> None:
        """Seal the log: flush, close segments, write the final manifest."""
        if not self._closed:
            stats = dict(stats or {})
            self._seal(final_digest=final_digest, stats=stats, complete=True)

    def close_partial(self, reason: str = "") -> None:
        """Crash-path close: seal whatever committed, mark the log torn.

        The recorder calls this when the run dies with the sink open
        (workload fault, ``KeyboardInterrupt``, an escaped host error):
        buffered epochs are group-committed, the manifest is rewritten
        with ``complete: false`` and the crash reason, and the pack is
        left un-compacted (reclaim is a clean-close luxury; the crash
        path optimises for never losing a committed epoch). The
        resulting directory is exactly what ``repro log recover`` /
        ``replay --tail`` open.
        """
        if self._closed:
            return
        obs_metrics.process_stats().add("durable.partial_closes")
        obs_events.emit("partial-close", reason=str(reason)[:120])
        self._seal(
            final_digest=0, stats={}, complete=False, crash_reason=str(reason)[:500]
        )

    def _seal(self, **final) -> None:
        self._final = final
        try:
            if self._segment is not None:
                self._retire_segment()
        except Exception:
            if final["complete"]:
                raise
            # Best effort on the crash path: a failed final flush must
            # not stop the manifest from sealing the epochs on disk.
            self._segment = None
        obs_metrics.process_stats().add("durable.buffered_peak", self.peak_buffered)
        self._write_manifest()
        if final["complete"]:
            self._maybe_compact(obs_metrics.process_stats(), force=True)
        self.store.close()
        self._closed = True

    @property
    def closed(self) -> bool:
        return self._closed

    def totals(self) -> dict:
        """On-disk accounting for reports and benchmarks."""
        segment_bytes = sum(
            stored
            for seg_entry in self._segments
            for _offset, stored, _raw in seg_entry["blocks"]
        )
        return {
            "epochs": self.epochs_written,
            "segments": sum(
                1 for seg_entry in self._segments
                if seg_entry.get("file") is not None
            ),
            "segment_bytes": segment_bytes,
            "blob_bytes": self.store.bytes_written,
            "blobs_written": self.store.blobs_written,
            "peak_buffered": self.peak_buffered,
            "epochs_dropped": self.epochs_dropped,
            "segments_deleted": self.segments_deleted,
            "pack_compactions": self.pack_compactions,
            "bytes_reclaimed": self.bytes_reclaimed,
        }


def persist_recording(
    recording: Recording,
    directory: str,
    meta: Optional[dict] = None,
    group_commit_bytes: Optional[int] = None,
    flight_window: Optional[int] = None,
    segment_max_bytes: int = 4 << 20,
    pack_compact_bytes: int = PACK_COMPACT_BYTES,
    storage: Optional[Storage] = None,
) -> dict:
    """Write a finished in-memory recording out as a durable sharded log.

    The offline twin of the recorder's streaming path (``log_dir``):
    identical epochs and floors produce a byte-identical log —
    the final epoch just commits with no upper floor, which selects the
    same records because the retained logs already end at the committed
    prefix. Used by benchmarks and the log-size experiments; spilled
    recordings no longer hold their logs and cannot be re-persisted.
    ``group_commit_bytes`` and ``storage`` left at None follow the
    runtime options (``log_group_bytes``, ``log_fsync``). Returns the writer's
    :meth:`~ShardedLogWriter.totals`.
    """
    if any(epoch.spilled for epoch in recording.epochs):
        raise ValueError("recording was spilled; its logs live on disk only")
    opts = options.resolve(log_group_bytes=group_commit_bytes)
    writer = ShardedLogWriter(
        directory,
        recording.initial_checkpoint,
        recording.program_name,
        recording.worker_threads,
        meta=meta,
        group_commit_bytes=opts.log_group_bytes,
        flight_window=flight_window,
        segment_max_bytes=segment_max_bytes,
        pack_compact_bytes=pack_compact_bytes,
        storage=storage,
    )
    epochs = recording.epochs
    logs = SegmentLogs(
        recording.syscall_records,
        recording.signal_records,
        recording.initial_checkpoint,
    )
    for position, record in enumerate(epochs):
        end = (
            epochs[position + 1].start_checkpoint
            if position + 1 < len(epochs)
            else None
        )
        writer.commit_epoch(record, record.start_checkpoint, end, logs)
    writer.close(final_digest=recording.final_digest, stats=recording.stats)
    return writer.totals()


def _ints(value, count: int) -> bool:
    """``value`` is a list of exactly ``count`` ints (a JSON tuple)."""
    return (
        isinstance(value, list)
        and len(value) == count
        and all(isinstance(item, int) for item in value)
    )


def _hex_ref(value) -> bool:
    try:
        int(value, 16)
    except (TypeError, ValueError):
        return False
    return True


def _load_manifest(directory: str) -> dict:
    """Parse the manifest and check its shape, once.

    The manifest is outside input: a torn or edited file must surface as
    a :class:`ReplayError` here, not as a ``KeyError`` / ``ValueError``
    wherever a later read first touches the bad field. Checked: it
    parses, it is format 1, every key the reader uses is present with
    its type, refs are hex, and each epoch's block lies inside its
    segment's block list.
    """
    try:
        with open(os.path.join(directory, MANIFEST_NAME), "rb") as handle:
            manifest = json.loads(handle.read())
    except FileNotFoundError:
        raise ReplayError(f"{directory}: no durable log manifest") from None
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        raise ReplayError(f"{directory}: manifest is not JSON: {exc}") from None

    def check(ok, what: str) -> None:
        if not ok:
            raise ReplayError(f"{directory}: malformed manifest: bad {what}")

    check(isinstance(manifest, dict), "top level")
    if manifest.get("format") != MANIFEST_FORMAT:
        raise ReplayError(
            f"{directory}: unsupported manifest format {manifest.get('format')!r}"
        )
    for key, kind in (
        ("program", str), ("worker_threads", int), ("sync_kinds", list),
        ("epochs", list), ("segments", list), ("final_digest", int), ("stats", dict),
    ):
        check(isinstance(manifest.get(key), kind), key)
    check(_hex_ref(manifest.get("initial")), "initial")
    segments = manifest["segments"]
    for number, segment in enumerate(segments):
        check(
            isinstance(segment, dict)
            and isinstance(segment.get("file"), (str, type(None)))
            and isinstance(segment.get("blocks"), list)
            and all(_ints(extent, 3) for extent in segment["blocks"]),
            f"segment {number}",
        )
    for number, entry in enumerate(manifest["epochs"]):
        check(
            isinstance(entry, dict)
            and isinstance(entry.get("index"), int)
            and _hex_ref(entry.get("checkpoint")),
            f"epoch entry {number}",
        )
        # Only sealed epochs reach a manifest: each names its block.
        block = entry.get("block")
        check(
            _ints(block, 2)
            and 0 <= block[0] < len(segments)
            and 0 <= block[1] < len(segments[block[0]]["blocks"]),
            f"epoch {entry['index']}: block {block!r} is not in its segment's list",
        )
    return manifest


class ShardedLogReader:
    """Reads a durable sharded recording back into replayable form."""

    def __init__(self, directory: str):
        self.directory = directory
        self.manifest = _load_manifest(directory)
        self.store = BlobStore(os.path.join(directory, "blobs"))
        self._readers: Dict[int, SegmentReader] = {}
        self._pages: Dict[int, Page] = {}

    # -- introspection --------------------------------------------------
    @property
    def workload(self) -> dict:
        return dict(self.manifest.get("workload") or {})

    def epoch_count(self) -> int:
        return len(self.manifest["epochs"])

    def first_epoch(self) -> int:
        """Absolute index of the oldest epoch still in the log.

        0 for an ordinary log; for a flight-recorder log the window base
        — everything before it slid out and is gone from disk.
        """
        entries = self.manifest["epochs"]
        if entries:
            return entries[0]["index"]
        return self.manifest.get("epochs_dropped", 0)

    @property
    def complete(self) -> bool:
        """False for a crashed/unsealed log (``close_partial`` or torn)."""
        return bool(self.manifest.get("complete"))

    @property
    def crash_reason(self) -> Optional[str]:
        return self.manifest.get("crash_reason")

    @property
    def flight_window(self) -> Optional[int]:
        return self.manifest.get("flight_window")

    # -- blob resolution ------------------------------------------------
    def _page(self, digest: int) -> Page:
        """The page at ``digest``; ReplayError for a blob that is none."""
        page = self._pages.get(digest)
        if page is None:
            blob = self.store.get(digest)
            try:
                kind, words = decode_blob(blob)
                if kind == "page":
                    page = Page(words)
            except Exception:  # noqa: BLE001 - torn bytes decode to any error
                pass
            if page is None:
                raise ReplayError(f"blob {_hex(digest)} is not a page")
            self._pages[digest] = page
        return page

    def materialize_checkpoint(self, skeleton_hex: str) -> Checkpoint:
        """Rebuild a :class:`Checkpoint` from its stored skeleton.

        The skeleton decodes to the :class:`WireCheckpoint` a host-wire
        unit would carry, and hydrates the same way. Pages resolve
        through a shared digest→``Page`` cache, so checkpoints of
        consecutive epochs share page *objects* exactly like in-memory
        copy-on-write snapshots do — the divergence check's identity
        fast path survives the round trip.
        """
        digest = int(skeleton_hex, 16)
        wire = WireCheckpoint.from_blob(self.store.get(digest), digest)
        return wire.hydrate(self._page)

    # -- shard reads ----------------------------------------------------
    def _segment_reader(self, segment_index: int) -> SegmentReader:
        reader = self._readers.get(segment_index)
        if reader is None:
            entry = self.manifest["segments"][segment_index]
            reader = SegmentReader(os.path.join(self.directory, entry["file"]))
            self._readers[segment_index] = reader
        return reader

    def _frames_for(self, entries: Sequence[dict]) -> Dict[int, List[bytes]]:
        """Read exactly the blocks the chosen epochs live in.

        Blocks are the unit of compression, so a suffix load decompresses
        only the suffix's blocks — this is what makes ``--from-epoch N``
        I/O proportional to the suffix, not the run.
        """
        wanted = {entry["index"] for entry in entries}
        blocks: Dict[Tuple[int, int], None] = {}
        for entry in entries:
            blocks[tuple(entry["block"])] = None
        frames: Dict[int, List[bytes]] = {index: [] for index in wanted}
        for segment_index, block_index in blocks:
            segment = self.manifest["segments"][segment_index]
            offset = segment["blocks"][block_index][0]
            for frame in self._segment_reader(segment_index).read_block(offset):
                stream, tid, epoch = _FRAME_HEADER.unpack_from(frame, 0)
                if epoch in wanted:
                    frames[epoch].append(frame)
        return frames

    def _decode_epoch(
        self, frames: List[bytes]
    ) -> Tuple[EpochRecord, List[SyscallRecord], List[tuple]]:
        """Merge one epoch's shard frames back into its record and its
        syscall and signal records, each in committed order."""
        sync_kinds = self.manifest["sync_kinds"]
        schedule: List[Tuple[int, Timeslice]] = []
        sync_events: List[Tuple[int, tuple]] = []
        syscalls: List[Tuple[int, SyscallRecord]] = []
        signals: List[Tuple[int, tuple]] = []
        meta: Optional[dict] = None
        for frame in frames:
            stream, tid, _epoch = _FRAME_HEADER.unpack_from(frame, 0)
            payload = frame[_FRAME_HEADER.size :]
            if stream == STREAM_SCHEDULE:
                for rank, ops, flags in _SCHED_REC.iter_unpack(payload):
                    schedule.append(
                        (rank, Timeslice(tid, ops, bool(flags & 1)))
                    )
            elif stream == STREAM_SYNC:
                for rank, addr, code in _SYNC_REC.iter_unpack(payload):
                    sync_events.append((rank, (sync_kinds[code], addr, tid)))
            elif stream == STREAM_SYSCALL:
                for rank, plain in pickle.loads(payload):
                    syscalls.append((rank, decode_record(plain)))
            elif stream == STREAM_SIGNAL:
                for rank, record in pickle.loads(payload):
                    signals.append((rank, tuple(record)))
            elif stream == STREAM_META:
                meta = pickle.loads(payload)
        if meta is None:
            raise ReplayError("epoch shard set has no meta frame")
        for counted, merged in (
            ("schedule", schedule),
            ("sync", sync_events),
            ("syscall", syscalls),
            ("signal", signals),
        ):
            if meta["counts"][counted] != len(merged):
                raise ReplayError(
                    f"epoch {meta['index']}: {counted} shard records "
                    f"{len(merged)} != manifest count {meta['counts'][counted]}"
                )
        schedule.sort()
        sync_events.sort()
        syscalls.sort()
        signals.sort()
        record = EpochRecord(
            index=meta["index"],
            start_checkpoint=None,
            targets={int(t): ops for t, ops in meta["targets"].items()},
            schedule=ScheduleLog(tuple(ts for _, ts in schedule)),
            sync_log=SyncOrderLog(tuple(ev for _, ev in sync_events)),
            end_digest=meta["end_digest"],
            duration=meta["duration"],
            recovered=meta["recovered"],
        )
        return record, [r for _, r in syscalls], [r for _, r in signals]

    # -- loading --------------------------------------------------------
    def load_recording(
        self, from_epoch: Optional[int] = None, materialize: bool = False
    ) -> Recording:
        """Rebuild a :class:`Recording` from the durable shards.

        ``from_epoch=N`` loads only the suffix: the returned recording's
        ``initial_checkpoint`` is epoch N's start state **materialised
        from the blob store** — no prefix re-execution — and its epochs,
        syscall and signal logs are the suffix shards. ``materialize``
        additionally hydrates every epoch's start checkpoint (what
        parallel replay needs), again from the store rather than by
        sequential re-execution.

        Epoch indices are *absolute* run indices: on a flight-recorder
        log whose window slid, the valid range starts at
        :meth:`first_epoch`, not 0. ``None`` (the default) loads
        everything still in the log.
        """
        entries = self.manifest["epochs"]
        base = self.first_epoch()
        if from_epoch is None:
            from_epoch = base
        if not entries:
            raise ReplayError("durable log holds no epochs")
        if not base <= from_epoch < base + len(entries):
            raise ReplayError(
                f"epoch {from_epoch} outside recorded range "
                f"{base}..{base + len(entries) - 1}"
            )
        chosen = entries[from_epoch - base :]
        frames = self._frames_for(chosen)
        initial = self.materialize_checkpoint(chosen[0]["checkpoint"])
        recording = Recording(
            program_name=self.manifest["program"],
            worker_threads=self.manifest["worker_threads"],
            initial_checkpoint=initial,
            final_digest=self.manifest["final_digest"],
            stats=dict(self.manifest["stats"]),
        )
        for position, entry in enumerate(chosen):
            record, syscalls, signals = self._decode_epoch(frames[entry["index"]])
            if position == 0:
                # The suffix's first epoch starts from ``initial`` — the
                # very checkpoint just materialised from its manifest ref.
                record.start_checkpoint = initial
            elif materialize:
                record.start_checkpoint = self.materialize_checkpoint(
                    entry["checkpoint"]
                )
            recording.epochs.append(record)
            recording.syscall_records.extend(syscalls)
            recording.signal_records.extend(signals)
        return recording

    def verify(self) -> List[str]:
        """Integrity sweep: every block and blob the manifest names verifies.

        Walks what the manifest names — ``initial`` and every epoch's
        checkpoint skeleton, and every page in each skeleton's table —
        reading each blob once and reporting one that is missing or does
        not hash to its address. Only here: the load path trusts the
        pack, so replay does not pay for the digests.
        """
        problems: List[str] = []
        seen = set()

        def blob(digest: int, what: str) -> Optional[bytes]:
            """The blob at ``digest`` if this is its first, sound, read."""
            if digest in seen:
                return None
            seen.add(digest)
            if not self.store.has(digest):
                problems.append(f"{what} blob missing: {_hex(digest)}")
                return None
            try:
                data = self.store.get(digest)
            except ReplayError:
                problems.append(f"{what} blob does not decompress: {_hex(digest)}")
                return None
            if blob_digest(data) != digest:
                problems.append(
                    f"{what} blob does not hash to its address: {_hex(digest)}"
                )
                return None
            return data

        named = [("initial", self.manifest["initial"])] + [
            (f"epoch {entry['index']}", entry["checkpoint"])
            for entry in self.manifest["epochs"]
        ]
        for who, ref in named:
            digest = int(ref, 16)
            skeleton = blob(digest, f"{who}: checkpoint")
            if skeleton is None:
                continue
            try:
                table = WireCheckpoint.from_blob(skeleton, digest).page_table
            except ReplayError:
                problems.append(f"{who}: checkpoint blob is not a skeleton")
                continue
            for page_no, page_digest in sorted(table.items()):
                blob(page_digest, f"{who}: page {page_no}")
        for segment_index, segment in enumerate(self.manifest["segments"]):
            if segment.get("file") is None:
                continue  # slid out of the flight window and deleted
            try:
                reader = self._segment_reader(segment_index)
                for offset, _stored, _raw in segment["blocks"]:
                    reader.read_block(offset)
            except Exception as exc:  # noqa: BLE001 - report, don't raise
                problems.append(f"{segment['file']}: {exc}")
        return problems
