"""Content-addressed epoch work units and the shared blobs they reference.

A work unit must let a worker process reproduce the coordinator's serial
epoch execution *exactly*, with nothing but the unit, the blobs it
references, and the program image. Units used to carry whole pickled
checkpoints and per-unit log slices; they now carry *skeletons* and
*references*, and the heavy bytes travel separately as content-addressed
blobs (:mod:`repro.memory.blob`) that worker caches dedupe across units,
segments, and whole recordings:

* **Checkpoints as skeletons.** A unit's ``start`` is a full
  :class:`~repro.checkpoint.checkpoint.WireCheckpoint` (contexts plus a
  ``{page_no: digest}`` table); a record unit's ``boundary`` is a pure
  *delta* against its start — consecutive checkpoints share almost every
  page object under copy-on-write, so the delta is exactly the epoch's
  dirty pages. Kernel state is stripped: epoch executors inject logged
  syscalls and never touch a live kernel, and forward recovery (which
  does) always runs on the coordinator.

* **Shared log blobs.** Syscall/signal injection is keyed lookup —
  ``(tid, seq)`` and ``(tid, retired)`` — so any superset of an epoch's
  reachable records behaves identically (the serial paths pass the
  *full* logs). A unit cut while its segment is still running ships
  what is reachable from its own start and logged so far; units built
  at the merge share ONE segment-level slice per log. Either way the
  slice comes out of the segment's :class:`SegmentLogs` index, which
  only ever absorbs the records appended since the last cut, and the
  syscall slice ships as an ``InjectionLog``, so a worker builds its
  lookup table once per cached blob, not once per unit.

* **Hints by window.** The sync hints a record unit needs are the
  suffix of the segment's acquisition hints from its epoch's start mark
  (cutting them at the epoch boundary would change how the oracle hands
  objects out — see ``DoublePlayRecorder``). A unit cut mid-segment
  carries its window so far as its own tuple; units built at the merge
  share the whole segment tuple and carry an integer start offset.

``BlobRef`` and ``WireCheckpoint`` keep coordinator-side ``_local``
shortcuts to the original objects. They are stripped at the pickle
boundary — a worker always resolves through its cache — but the
executor's serial fallback rehydrates to the exact original objects,
zero-decode and trivially bit-identical to the ``jobs=1`` path.

A worker that cannot resolve every digest a unit references (cache
eviction racing an in-flight dispatch, a fresh pool after a crash)
answers with a structured :class:`NeedBlobs` instead of failing; the
coordinator re-dispatches that unit with the full blob set.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.checkpoint.checkpoint import Checkpoint, WireCheckpoint
from repro.exec.services import InjectionLog
from repro.memory.blob import blob_digest, encode_object
from repro.obs import metrics as obs_metrics
from repro.oskernel.syscalls import SyscallRecord
from repro.record.log_index import (  # noqa: F401 — long-standing import path
    SegmentLogs,
    ThreadLogIndex,
    signal_slice,
    syscall_slice,
)


@dataclass
class UnitTiming:
    """Host-side cost of one work unit.

    ``wall``/``cpu``, the blob-cache fields, and the observability
    piggybacks (``spans``/``metrics``) are measured in the worker;
    ``bytes_shipped``/``blobs_sent`` are filled by the coordinator (it is
    the side that knows what crossed the wire, including resends).
    """

    #: worker wall-clock seconds spent executing the unit
    wall: float = 0.0
    #: worker CPU seconds spent executing the unit. On an oversubscribed
    #: host (more workers than cores) this is the honest per-unit cost:
    #: wall time there includes time-slicing against sibling workers.
    cpu: float = 0.0
    #: referenced digests already resident in the worker's blob cache
    blob_cache_hits: int = 0
    #: referenced digests that had to be decoded from the dispatch
    blob_cache_misses: int = 0
    #: pid of the process that ran the unit — a worker's, or the
    #: coordinator's own for serial fallbacks (every executed unit is
    #: attributable to a real track; 0 only on never-run placeholders)
    worker_pid: int = 0
    #: digests the worker evicted while absorbing this unit's dispatch
    evicted: Tuple[int, ...] = ()
    #: wire bytes shipped for this unit (all dispatch attempts)
    bytes_shipped: int = 0
    #: blobs shipped for this unit (all dispatch attempts)
    blobs_sent: int = 0
    #: raw-clock worker spans ``(name, cat, start, end, args)`` collected
    #: when the dispatch asked for tracing (see :mod:`repro.obs.spans`);
    #: the coordinator re-bases them onto its trace timeline
    spans: Tuple[tuple, ...] = ()
    #: worker-process counter delta for this unit, as sorted
    #: ``(name, amount)`` pairs (see :mod:`repro.obs.metrics`)
    metrics: Tuple[Tuple[str, int], ...] = ()


@dataclass
class BlobRef:
    """A by-digest reference to a shared batch blob.

    ``_local`` is the decoded object itself, kept on the coordinator for
    the serial fallback and stripped at the pickle boundary (workers
    resolve the digest through their cache / the dispatch blobs).
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
class NeedBlobs:
    """A worker's structured "I cannot resolve these digests" response.

    Returned in place of a unit result when a required digest is neither
    in the worker's cache nor in the dispatch; the coordinator answers by
    re-dispatching the unit with every blob it references.
    """

    position: int
    missing: Tuple[int, ...]
    worker_pid: int = 0
    #: digests evicted while absorbing the dispatch that still failed
    evicted: Tuple[int, ...] = ()


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
    #: the segment-level syscall-log slice (shared by every unit)
    syscalls: BlobRef
    #: the segment-level signal-delivery slice (shared by every unit)
    signals: BlobRef
    #: the segment's whole acquisition-hint tuple (shared by every unit)
    sync_events: BlobRef
    #: this unit's start offset into the hint tuple (its hints are the
    #: suffix ``hints[sync_start:]``)
    sync_start: int = 0
    use_sync_hints: bool = True
    #: fault-injection directives for this unit (testing knob; stamped by
    #: the executor from ``REPRO_FAULT``, applied by the worker — see
    #: :mod:`repro.host.faults`). Never part of the recording.
    faults: Tuple = ()

    def required_digests(self) -> Set[int]:
        """Every blob digest a worker must resolve to run this unit."""
        required = set(self.start.blob_digests())
        required.update(self.boundary.blob_digests())
        required.add(self.syscalls.digest)
        required.add(self.signals.digest)
        required.add(self.sync_events.digest)
        return required


@dataclass
class ReplayEpochUnit:
    """One committed epoch of a recording, packaged for parallel replay."""

    #: position within the recording (0-based; orders the merge)
    position: int
    #: the committed epoch's index
    epoch_index: int
    #: epoch start state as a full skeleton (kernel-stripped)
    start: WireCheckpoint
    #: per-thread retired-op targets at the epoch's end boundary
    targets: dict
    #: the committed timeslice schedule to follow (per-epoch, inline)
    schedule: object
    #: the committed acquisition order (per-epoch and disjoint, inline)
    sync_events: Tuple[tuple, ...]
    #: guest-state digest the replay must reach
    end_digest: int
    #: the recording's epoch-reachable syscall log (shared by every unit)
    syscalls: BlobRef
    #: the recording's signal-delivery log (shared by every unit)
    signals: BlobRef
    #: fault-injection directives for this unit (see ``RecordEpochUnit``)
    faults: Tuple = ()

    def required_digests(self) -> Set[int]:
        """Every blob digest a worker must resolve to run this unit."""
        required = set(self.start.blob_digests())
        required.add(self.syscalls.digest)
        required.add(self.signals.digest)
        return required


@dataclass
class UnitBatch:
    """A segment's (or recording's) units plus their shared blob set.

    ``blobs`` holds every blob any unit in the batch references, keyed by
    digest — the executor ships each worker only the subset it is not
    already believed to hold.
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


def _intern_syscalls(records: tuple, blobs: Dict[int, bytes]) -> BlobRef:
    """Intern a syscall log as an ``InjectionLog``: a worker indexes it
    once per cached blob. The coordinator's shortcut stays the plain
    records, so a serial fallback runs the unit as a cold worker would."""
    ref = intern_object(InjectionLog(records), blobs)
    ref._local = records
    return ref


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
    position: int, start: Checkpoint, boundary: Checkpoint,
    blobs: Dict[int, bytes], **fields,
) -> RecordEpochUnit:
    """The record unit of the epoch ``start`` → ``boundary``.

    The one place a :class:`RecordEpochUnit` is built. The boundary
    ships as a delta and only the pages that delta names are interned:
    ``blobs`` is one segment's set, filled in position order, so every
    other page of either checkpoint came in with an earlier position —
    or, at position 0, with the one full walk of the start table.
    """
    delta = boundary.wire_delta(start)
    if position == 0:
        _intern_pages(start.memory.pages.values(), blobs)
    pages = boundary.memory.pages
    _intern_pages((pages[no] for no in delta.page_changes), blobs)
    obs_metrics.process_stats().add("work.units_built")
    return RecordEpochUnit(
        position=position, start=start.to_wire(), boundary=delta, **fields
    )


def record_units_for_segment(
    checkpoints: Sequence[Checkpoint],
    hints: Sequence[tuple],
    hint_marks: Sequence[int],
    syscall_log: Sequence[SyscallRecord],
    signal_log: Sequence[tuple],
    first_epoch_index: int,
    use_sync_hints: bool,
    positions: Optional[Iterable[int]] = None,
    blobs: Optional[Dict[int, bytes]] = None,
    logs: Optional[SegmentLogs] = None,
) -> UnitBatch:
    """Package epochs of a finished segment as full-knowledge work units.

    ``positions`` names the epochs to build (default: all) — the merge
    asks only for those it has no usable result for; ``blobs`` is the
    segment's blob set they join (default: a fresh one, which needs
    position 0 among them) and ``logs`` its index (default: built here).

    The logs are sliced ONCE, at segment level: everything reachable from
    the segment's first checkpoint. Per-unit tighter slices would be
    redundant (injection is keyed lookup; extra records are never
    consulted) and would defeat blob sharing across the segment's units.
    """
    blobs = {} if blobs is None else blobs
    logs = logs or SegmentLogs(syscall_log, signal_log)
    syscalls, signals = logs.reachable_from(checkpoints[0])
    syscalls_ref = _intern_syscalls(syscalls, blobs)
    signals_ref = intern_object(signals, blobs)
    hints_ref = intern_object(tuple(hints), blobs)
    if positions is None:
        positions = range(len(checkpoints) - 1)
    units = [
        _record_unit(
            position,
            checkpoints[position],
            checkpoints[position + 1],
            blobs,
            epoch_index=first_epoch_index + position,
            syscalls=syscalls_ref,
            signals=signals_ref,
            sync_events=hints_ref,
            sync_start=hint_marks[position],
            use_sync_hints=use_sync_hints,
        )
        for position in positions
    ]
    return UnitBatch(units, blobs)


def speculative_record_unit(
    position: int,
    epoch_index: int,
    start: Checkpoint,
    boundary: Checkpoint,
    hints_window: Sequence[tuple],
    syscalls: Sequence[SyscallRecord],
    signals: Sequence[tuple],
    use_sync_hints: bool,
    blobs: Dict[int, bytes],
) -> RecordEpochUnit:
    """Package one epoch for dispatch while its segment is in progress.

    Unlike :func:`record_units_for_segment` the unit ships snapshots cut
    at dispatch time: the hint window ``hints[mark:cut]`` as its own
    tuple (``sync_start=0``) and the records reachable from ``start``
    logged *so far*. The recorder validates, when it merges the result,
    that nothing arriving after the cut could have been consulted (see
    ``DoublePlayRecorder``) — trivially so for the tail units it cuts
    once the thread-parallel run has finished. Blob interning goes
    through the session-shared ``blobs`` dict so consecutive units
    dedupe their checkpoint pages.
    """
    return _record_unit(
        position,
        start,
        boundary,
        blobs,
        epoch_index=epoch_index,
        syscalls=_intern_syscalls(syscalls, blobs),
        signals=intern_object(tuple(signals), blobs),
        sync_events=intern_object(tuple(hints_window), blobs),
        sync_start=0,
        use_sync_hints=use_sync_hints,
    )


def replay_units_for_recording(recording) -> UnitBatch:
    """Package every committed epoch of a recording for parallel replay.

    Requires materialised start checkpoints (like any parallel replay).
    The logs ship whole — exactly what the serial replayer consumes — as
    two blobs shared by every unit.
    """
    from repro.errors import ReplayError

    blobs: Dict[int, bytes] = {}
    syscalls_ref = _intern_syscalls(tuple(recording.syscalls_for_epochs()), blobs)
    signals_ref = intern_object(tuple(recording.signal_records), blobs)
    units = []
    for position, epoch in enumerate(recording.epochs):
        start = epoch.start_checkpoint
        if start is None:
            raise ReplayError(
                f"epoch {epoch.index} has no materialised checkpoint; "
                "run materialize_checkpoints() or replay sequentially"
            )
        _intern_pages(start.memory.pages.values(), blobs)
        units.append(
            ReplayEpochUnit(
                position=position,
                epoch_index=epoch.index,
                start=start.to_wire(),
                targets=dict(epoch.targets),
                schedule=epoch.schedule,
                sync_events=epoch.sync_log.events,
                end_digest=epoch.end_digest,
                syscalls=syscalls_ref,
                signals=signals_ref,
            )
        )
    return UnitBatch(units, blobs)
