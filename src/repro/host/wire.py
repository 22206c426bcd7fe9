"""Content-addressed epoch work units and the shared blobs they reference.

A work unit must let a worker process reproduce the coordinator's serial
epoch execution *exactly*, with nothing but the unit, the blobs it
references, and the program image. Units carry *skeletons* and
*references*; the heavy bytes are content-addressed blobs
(:mod:`repro.memory.blob`) that never travel with a unit — the
coordinator puts them in a scratch pack and a worker reads the ones it
lacks (:mod:`repro.host.blobs`), so they dedupe across units, segments,
and whole recordings:

* **Checkpoints as skeletons.** A unit's ``start`` is a full
  :class:`~repro.checkpoint.checkpoint.WireCheckpoint` (contexts plus a
  ``{page_no: digest}`` table); a record unit's ``boundary`` is a pure
  *delta* against its start — consecutive checkpoints share almost every
  page object under copy-on-write, so the delta is exactly the epoch's
  dirty pages. Kernel state is stripped: epoch executors inject logged
  syscalls and never touch a live kernel, and forward recovery (which
  does) always runs on the coordinator.

* **A log travels as chunks.** Syscall injection is keyed lookup —
  ``(tid, seq)`` — so any superset of an epoch's reachable records
  behaves identically (the serial paths pass the *full* log). The
  segment's :class:`SegmentLogs` cuts the syscall log wherever a unit
  is cut, each chunk is encoded and interned exactly once, and a unit
  names the chunks covering the log from the first record its start
  can reach to the cut — cut ahead, on the tail or again at the merge
  alike. A chunk is an ``InjectionLog`` of plain-form
  records (:func:`~repro.oskernel.syscalls.encode_record`), so a worker
  decodes and indexes it once per cached blob and joins the indices of
  the chunks a unit names. Never the tighter per-epoch window: what a
  *diverging* attempt finds past its boundary is part of its result. A
  replay unit — a contiguous span of committed epochs — names one chunk,
  the recording's whole log. Signal
  deliveries (rare) are one slice per unit.

* **Hints by window.** The sync hints a record unit needs are the
  suffix of the segment's acquisition hints from its epoch's start mark
  (cutting them at the epoch boundary would change how the oracle hands
  objects out — see ``DoublePlayRecorder``). A unit carries that window
  as it stood when the unit was cut, as its own tuple: the window so
  far for a unit cut mid-segment, the whole suffix for one cut once the
  thread-parallel run is over.

``BlobRef`` and ``WireCheckpoint`` keep coordinator-side ``_local``
shortcuts to the original objects. They are stripped at the pickle
boundary — a worker always resolves through its cache and the pack —
but the executor's serial fallback rehydrates to the exact original
objects, zero-decode and trivially bit-identical to the ``jobs=1`` path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, NamedTuple, Sequence, Set, Tuple

from repro.checkpoint.checkpoint import Checkpoint, WireCheckpoint
from repro.exec.services import InjectionLog
from repro.memory.blob import blob_digest, encode_object
from repro.obs import metrics as obs_metrics
from repro.oskernel.syscalls import SyscallRecord
from repro.record.log_index import SegmentLogs


@dataclass
class BlobRef:
    """A by-digest reference to a shared batch blob.

    ``_local`` is the decoded object itself, kept on the coordinator for
    the serial fallback and stripped at the pickle boundary (workers
    resolve the digest through their cache / the scratch pack).
    """

    digest: int
    _local: object = field(default=None, repr=False, compare=False)

    def __getstate__(self):
        # A 1-tuple, not the bare int: a falsy state would make pickle
        # skip __setstate__ entirely.
        return (self.digest,)

    def __setstate__(self, state):
        self.digest = state[0]
        self._local = None


@dataclass
class RecordEpochUnit:
    """One epoch of a segment, packaged for a worker process."""

    #: position within the segment (0-based; orders the merge)
    position: int
    #: global epoch index (naming/diagnostics only)
    epoch_index: int
    #: epoch start state as a full skeleton (kernel-stripped)
    start: WireCheckpoint
    #: next checkpoint — per-thread targets + the end state to verify —
    #: as a pure delta against ``start``
    boundary: WireCheckpoint
    #: the syscall log from the first record ``start`` can reach to the
    #: unit's cut: the segment's chunks covering it, in log order
    syscalls: Tuple[BlobRef, ...]
    #: the signal deliveries reachable from ``start``, logged by the cut
    signals: BlobRef
    #: the acquisition hints from the epoch's start mark to the cut
    sync_events: BlobRef
    use_sync_hints: bool = True
    #: fault-injection directives for this unit (testing knob; stamped by
    #: the executor from ``REPRO_FAULT``, applied by the worker — see
    #: :mod:`repro.host.faults`). Never part of the recording.
    faults: Tuple = ()

    def required_digests(self) -> Set[int]:
        """Every blob digest a worker must resolve to run this unit."""
        required = set(self.start.blob_digests())
        required.update(self.boundary.blob_digests())
        required.update(chunk.digest for chunk in self.syscalls)
        required.add(self.signals.digest)
        required.add(self.sync_events.digest)
        return required


class SpanEpoch(NamedTuple):
    """One committed epoch of a replay unit's span."""

    index: int
    #: the epoch's start state (kernel-stripped): a full skeleton for
    #: the span's first epoch, a delta against the epoch before it for
    #: every later one
    start: WireCheckpoint
    #: per-thread retired-op targets at the epoch's end boundary
    targets: dict
    #: the committed timeslice schedule to follow
    schedule: object
    #: the committed acquisition order (per-epoch and disjoint)
    sync_events: Tuple[tuple, ...]
    #: guest-state digest the replay must reach
    end_digest: int


@dataclass
class ReplayEpochUnit:
    """A contiguous span of a recording's committed epochs, packaged for
    parallel replay (a span of one epoch is the smallest unit)."""

    #: the span's position within the replay (0-based; orders the merge)
    position: int
    #: the span's first epoch's index
    epoch_index: int
    #: the span's epochs, in order
    epochs: Tuple[SpanEpoch, ...]
    #: the recording's syscall log: one chunk (shared by every unit)
    syscalls: Tuple[BlobRef, ...]
    #: the recording's signal-delivery log (shared by every unit)
    signals: BlobRef
    #: fault-injection directives for this unit (see ``RecordEpochUnit``)
    faults: Tuple = ()

    def required_digests(self) -> Set[int]:
        """Every blob digest a worker must resolve to run this unit."""
        required = set()
        for epoch in self.epochs:
            required.update(epoch.start.blob_digests())
        required.update(chunk.digest for chunk in self.syscalls)
        required.add(self.signals.digest)
        return required


@dataclass
class UnitBatch:
    """A recording's replay units plus their shared blob set.

    ``blobs`` holds every blob any unit in the batch references, keyed by
    digest — the executor puts into the scratch pack only those the pack
    does not hold yet.
    """

    units: List[object]
    blobs: Dict[int, bytes]

    def __len__(self) -> int:
        return len(self.units)


# ----------------------------------------------------------------------
# Unit builders.
# ----------------------------------------------------------------------
def intern_object(obj, blobs: Dict[int, bytes]) -> BlobRef:
    """Encode ``obj`` into the batch blob set and return its reference."""
    blob = encode_object(obj)
    digest = blob_digest(blob)
    blobs.setdefault(digest, blob)
    return BlobRef(digest, obj)


def _intern_chunk(records: Sequence[SyscallRecord], blobs: Dict[int, bytes]) -> BlobRef:
    """Encode one log chunk into the batch blob set and return its reference.

    It ships as an ``InjectionLog``: a worker decodes and indexes it
    once per cached blob.
    """
    obs_metrics.process_stats().add("work.syscall_records_encoded", len(records))
    return intern_object(InjectionLog(records), blobs)


def _intern_pages(pages: Iterable, blobs: Dict[int, bytes]) -> None:
    """Add ``pages`` to the batch blob set."""
    visited = 0
    for page in pages:
        visited += 1
        digest, blob = page.wire_blob()
        if digest not in blobs:
            blobs[digest] = blob
    obs_metrics.process_stats().add("work.pages_interned", visited)


def _record_unit(
    position: int,
    epoch_index: int,
    start: Checkpoint,
    boundary: Checkpoint,
    hints: Sequence[tuple],
    logs: SegmentLogs,
    use_sync_hints: bool,
    blobs: Dict[int, bytes],
    interned: Set[int],
) -> RecordEpochUnit:
    """The record unit of the epoch ``start`` → ``boundary``, cut now.

    The one place a :class:`RecordEpochUnit` is built — pushed while its
    segment is in progress, on the tail, or again at the merge. It ships
    what exists *now*: ``hints`` is the acquisition window from the
    epoch's start mark so far, the logs are what ``start`` can reach of
    everything logged so far — the syscalls as ``logs``' chunks (only
    those not cut before are encoded now), the signals as one slice. The
    recorder validates, when it merges the result, that nothing arriving
    after the cut could have been consulted (see ``DoublePlayRecorder``)
    — trivially so once the thread-parallel run has finished. The
    boundary ships as a delta and only the pages that delta names are
    interned: ``blobs`` is one segment's set and ``interned`` the
    positions whose start checkpoint's pages it holds in full, so a
    unit whose start is among them interns only its delta, and any other
    (position 0, or a position whose predecessor has no unit) walks its
    start table once. A position cut twice interns nothing twice.
    """
    delta = boundary.wire_delta(start)
    if position not in interned:
        _intern_pages(start.memory.pages.values(), blobs)
    pages = boundary.memory.pages
    _intern_pages((pages[no] for no in delta.page_changes), blobs)
    interned.update((position, position + 1))
    chunks = logs.syscall_chunks(
        start, lambda records: _intern_chunk(records, blobs)
    )
    obs_metrics.process_stats().add("work.units_built")
    return RecordEpochUnit(
        position=position,
        epoch_index=epoch_index,
        start=start.to_wire(),
        boundary=delta,
        syscalls=tuple(chunks),
        signals=intern_object(logs.signals_from(start), blobs),
        sync_events=intern_object(tuple(hints), blobs),
        use_sync_hints=use_sync_hints,
    )


def replay_spans(durations: Sequence[int], jobs: int) -> List[range]:
    """Cut epochs of recorded ``durations`` into contiguous spans for a
    pool of ``jobs`` workers.

    ``3 * jobs`` spans (one per epoch when there are fewer epochs). The
    pool writes two units to a worker at once; the last ``jobs`` spans
    wait and go to whichever worker is free first, so a span slower than
    its recorded cycles predict (replay wall per cycle varies almost
    threefold between fft's epochs) is caught up. A span ends at the
    first epoch whose cumulative recorded cycles reach its share of the
    total, and each keeps at least one epoch.
    """
    count = min(len(durations), 3 * jobs)
    if not count:
        return []
    total = sum(durations)
    bounds, reached, end = [0], 0, 0
    for k in range(1, count):
        reached += durations[end]
        end += 1
        while end < len(durations) - (count - k) and reached * count < total * k:
            reached += durations[end]
            end += 1
        bounds.append(end)
    bounds.append(len(durations))
    return [range(first, stop) for first, stop in zip(bounds, bounds[1:])]


def replay_units(
    recording, blobs: Dict[int, bytes], jobs: int
) -> Iterator[ReplayEpochUnit]:
    """Cut a recording's committed epochs into one replay unit per span
    (:func:`replay_spans`), one at a time: a unit's blobs are in
    ``blobs`` when it is yielded, so unit *p* can be pushed before unit
    *p + 1* is built.

    Requires recorded start checkpoints (like any parallel replay).
    Every epoch replays from its own: a span's first ships whole, each
    later one as a delta against the one before it, so only its dirty
    pages are interned. The logs ship whole — exactly what the serial
    replayer consumes — as one chunk and one signal blob shared by every
    unit.
    """
    from repro.errors import ReplayError

    epochs = recording.epochs
    syscalls = (_intern_chunk(recording.syscalls_for_epochs(), blobs),)
    signals_ref = intern_object(tuple(recording.signal_records), blobs)
    spans = replay_spans([epoch.duration for epoch in epochs], jobs)
    for position, span in enumerate(spans):
        members, base = [], None
        for epoch in epochs[span.start:span.stop]:
            start = epoch.start_checkpoint
            if start is None:
                raise ReplayError(
                    f"epoch {epoch.index} has no recorded start checkpoint; "
                    "replay a JSON recording sequentially"
                )
            if base is None:
                _intern_pages(start.memory.pages.values(), blobs)
                wire = start.to_wire()
            else:
                wire = start.wire_delta(base)
                pages = start.memory.pages
                _intern_pages((pages[no] for no in wire.page_changes), blobs)
            members.append(SpanEpoch(
                epoch.index, wire, dict(epoch.targets), epoch.schedule,
                epoch.sync_log.events, epoch.end_digest,
            ))
            base = start
        yield ReplayEpochUnit(
            position=position,
            epoch_index=members[0].index,
            epochs=tuple(members),
            syscalls=syscalls,
            signals=signals_ref,
        )


def replay_units_for_recording(recording) -> UnitBatch:
    """Every replay unit of a recording, cut for the smallest pool a
    parallel replay uses (two workers), and their blob set, built at once."""
    blobs: Dict[int, bytes] = {}
    return UnitBatch(list(replay_units(recording, blobs, 2)), blobs)
