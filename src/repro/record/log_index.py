"""Per-thread indices over the raw syscall and signal logs.

Both logs are appended in global completion order and consumed by
per-thread key — ``(tid, seq)`` for syscalls, ``(tid, retired)`` for
signal deliveries — so every consumer asks the same question: *which
records of thread t lie at or above (or between) these counts?* The
durable log cuts per-epoch shards that way (:mod:`repro.record.shards`),
the recorder cuts epoch work units and checks its speculation that way
(:mod:`repro.core.recorder`), and the host wire slices what a unit
ships (:mod:`repro.host.wire`). :class:`ThreadLogIndex` answers it with
a bisect per thread; :class:`SegmentLogs` keeps a pair of them current
over a growing log at O(new records) per query — the one index pair of
a segment, which every one of those consumers asks — and cuts the
syscall log into the chunks the wire encodes once each.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.checkpoint.checkpoint import Checkpoint
from repro.obs import metrics as obs_metrics
from repro.oskernel.syscalls import SyscallRecord


class ThreadLogIndex:
    """Per-thread key index over a log, for suffix queries without rescans.

    Built once per log in O(records); each :meth:`slice_from` then costs
    O(selected) plus a bisect per thread, instead of a full-log filter.
    Selection is by per-thread key floor and the result preserves log
    order, so it is exactly equivalent to the old linear filters.
    """

    def __init__(self, records: Sequence, tid_of: Callable, key_of: Callable):
        self._tid_of = tid_of
        self._key_of = key_of
        self._records: List = []
        self._by_tid: Dict[int, Tuple[List[int], List[int]]] = {}
        #: every thread's keys arrived in increasing order, so its
        #: positions are increasing too (see :meth:`late_below`)
        self._in_order = True
        self._absorb(records, 0)

    def _absorb(self, records: Sequence, start: int) -> None:
        append = self._records.append
        by_tid = self._by_tid
        tid_of, key_of = self._tid_of, self._key_of
        unsorted_tail = False
        for position in range(start, len(records)):
            record = records[position]
            append(record)
            tid, key = tid_of(record), key_of(record)
            entry = by_tid.get(tid)
            if entry is None:
                entry = by_tid[tid] = ([], [])
            keys = entry[0]
            # Per-thread keys are appended in increasing order, so this
            # is a linear pass; a sort below keeps the bisect correct
            # regardless.
            if keys and key < keys[-1]:
                unsorted_tail = True
            keys.append(key)
            entry[1].append(position)
        obs_metrics.process_stats().add(
            "work.log_index_records", len(records) - start
        )
        if unsorted_tail:
            self._in_order = False
            for tid, (keys, positions) in by_tid.items():
                pairs = sorted(zip(keys, positions))
                by_tid[tid] = (
                    [k for k, _ in pairs], [p for _, p in pairs]
                )

    def extend_to(self, records: Sequence) -> "ThreadLogIndex":
        """Absorb records appended to the same log since the index was
        built — O(new records), the streaming commit path's amortizer.

        Only valid when ``records`` is the already-indexed log plus new
        entries at the tail; callers seeing a shrink or an in-place
        rewrite must rebuild instead.
        """
        if len(records) < len(self._records):
            raise ValueError(
                "log shrank since the index was built — rebuild it"
            )
        self._absorb(records, len(self._records))
        return self

    @classmethod
    def for_syscalls(cls, records: Sequence[SyscallRecord]) -> "ThreadLogIndex":
        return cls(records, lambda r: r.tid, lambda r: r.seq)

    @classmethod
    def for_signals(cls, records: Sequence[tuple]) -> "ThreadLogIndex":
        return cls(records, lambda r: r[0], lambda r: r[1])

    def slice_from(self, floors: Dict[int, int]) -> tuple:
        """Records whose key is at least their thread's floor, in log order.

        Threads absent from ``floors`` (spawned after the slicing point)
        keep all their records.
        """
        selected: List[int] = []
        for tid, (keys, positions) in self._by_tid.items():
            lowest = bisect_left(keys, floors.get(tid, 0))
            selected.extend(positions[lowest:])
        selected.sort()
        return tuple(self._records[p] for p in selected)

    def first_from(self, floors: Dict[int, int]) -> int:
        """Log position of the first record :meth:`slice_from` selects;
        the log's length when it selects none."""
        first = len(self._records)
        for tid, (keys, positions) in self._by_tid.items():
            lowest = bisect_left(keys, floors.get(tid, 0))
            if lowest < len(keys):
                reached = (
                    positions[lowest] if self._in_order else min(positions[lowest:])
                )
                first = min(first, reached)
        return first

    def late_below(self, floors: Dict[int, int], cut: int) -> bool:
        """Does any record at log position >= ``cut`` lie below its
        thread's floor? A bisect per thread, not a scan of ``log[cut:]``.

        Threads absent from ``floors`` have no floor to lie below.
        """
        for tid, floor in floors.items():
            keys, positions = self._by_tid.get(tid, ((), ()))
            below = bisect_left(keys, floor)
            if not below:
                continue
            if self._in_order:
                if positions[below - 1] >= cut:
                    return True
            elif max(positions[:below]) >= cut:
                return True
        return False

    def positions_between(
        self, start_floors: Dict[int, int], end_floors: Optional[Dict[int, int]]
    ) -> Tuple[int, ...]:
        """Log positions of records in the half-open per-thread key window
        ``[start_floors[tid], end_floors[tid])``, in log order.

        This is the *shard extent* query of the durable log
        (:mod:`repro.record.shards`): per-epoch per-thread shards are
        exactly these windows between consecutive checkpoints' per-thread
        counts. Floor semantics match :meth:`slice_from`: a thread absent
        from ``start_floors`` starts at 0 (spawned mid-epoch), a thread
        absent from ``end_floors`` keeps everything from its start floor
        (the final, unbounded slice), and ``end_floors=None`` means no
        upper bound for anyone. Records at exactly a checkpoint's count —
        boundary-straddling calls logged at their later completion —
        land in the *following* window, mirroring the floor rule.
        """
        selected: List[int] = []
        for tid, (keys, positions) in self._by_tid.items():
            lowest = bisect_left(keys, start_floors.get(tid, 0))
            if end_floors is None or tid not in end_floors:
                highest = len(keys)
            else:
                highest = bisect_left(keys, end_floors[tid])
            selected.extend(positions[lowest:highest])
        selected.sort()
        return tuple(selected)

    def slice_between(
        self, start_floors: Dict[int, int], end_floors: Optional[Dict[int, int]]
    ) -> tuple:
        """Records of the ``[start, end)`` per-thread window, in log order."""
        return tuple(
            self._records[p]
            for p in self.positions_between(start_floors, end_floors)
        )

    def record_at(self, position: int):
        """The record at a global log position (shard frame rebuild)."""
        return self._records[position]


def syscall_slice(
    records: Sequence[SyscallRecord], start: Checkpoint
) -> Tuple[SyscallRecord, ...]:
    """Records an epoch starting at ``start`` can reach.

    Injection looks up ``(tid, ctx.syscall_count)`` and a thread's count
    starts at the checkpoint's value and only grows, so records below it
    are unreachable. Threads absent from the checkpoint (spawned later)
    start at count 0 and keep everything.
    """
    return ThreadLogIndex.for_syscalls(records).slice_from(start.syscall_counts())


def signal_slice(records: Sequence[tuple], start: Checkpoint) -> Tuple[tuple, ...]:
    """Signal deliveries an epoch starting at ``start`` can reach.

    Delivery fires at ``(tid, ctx.retired)`` and retired counts start at
    the checkpoint's values; records below them can never match.
    """
    return ThreadLogIndex.for_signals(records).slice_from(start.targets())


class SegmentLogs:
    """One recorded segment's raw logs under a :class:`ThreadLogIndex` pair.

    Built once per segment (a restart prunes the logs in place, so the
    next segment builds afresh) and grown by what the engines appended
    since the last query: every cut costs O(new records), not O(log).
    """

    def __init__(
        self,
        syscall_log: Sequence[SyscallRecord],
        signal_log: Sequence[tuple],
        start: Checkpoint,
    ):
        #: (index, the log it grows with, a checkpoint's floors in it)
        self._logs = (
            (ThreadLogIndex.for_syscalls(syscall_log), syscall_log,
             Checkpoint.syscall_counts),
            (ThreadLogIndex.for_signals(signal_log), signal_log, Checkpoint.targets),
        )
        #: syscall-log positions the chunks are cut at, ascending: chunk
        #: k is ``log[bounds[k]:bounds[k + 1]]``. The first is the first
        #: record the segment's ``start`` can reach — after a recovery
        #: the log below it is committed history no unit of this segment
        #: consults.
        self._chunk_bounds: List[int] = [
            self._logs[0][0].first_from(start.syscall_counts())
        ]
        #: what ``make`` made of each chunk (see :meth:`syscall_chunks`)
        self._chunks: List = []

    def signals_from(self, start: Checkpoint) -> tuple:
        """The signal deliveries logged so far that an epoch starting at
        ``start`` can reach (see :func:`signal_slice`)."""
        index, log, floors = self._logs[1]
        return index.extend_to(log).slice_from(floors(start))

    def syscall_chunks(self, start: Checkpoint, make: Callable) -> list:
        """The syscall log from the first record ``start`` can reach to
        its end so far, as the chunks covering it.

        Each call cuts the log at its present length — the recorder
        asks at boundary checkpoints only — and ``make(records)`` is
        called once per chunk, ever: what it returns (the wire's encoded
        form) is what later calls hand out again. An interval that
        logged nothing makes no chunk. A ``start`` that falls inside a
        chunk gets that whole chunk: injection is keyed lookup, and the
        extra records lie below the floors the epoch starts at.
        """
        index, log, floors = self._logs[0]
        index.extend_to(log)
        bounds = self._chunk_bounds
        if bounds[-1] < len(log):
            self._chunks.append(make(log[bounds[-1] :]))
            bounds.append(len(log))
        first = index.first_from(floors(start))
        if first < bounds[0]:
            raise ValueError("start lies before the segment's own start")
        return self._chunks[bisect_right(bounds, first) - 1 :]

    def epoch_records(
        self, start: Checkpoint, end: Optional[Checkpoint]
    ) -> Tuple[tuple, tuple]:
        """The ``(syscall, signal)`` records of the epoch ``start`` →
        ``end``, in log order: the durable log's shard extents
        (:meth:`ThreadLogIndex.positions_between`). ``end=None`` means
        no upper bound — the final epoch of a finished log."""
        return tuple(
            index.extend_to(log).slice_between(
                floors(start), None if end is None else floors(end)
            )
            for index, log, floors in self._logs
        )

    def late_below(self, boundary: Checkpoint, cuts: Sequence[int]) -> bool:
        """Was anything logged at or past ``cuts`` (a log length per log)
        that an epoch ending at ``boundary`` would have consumed?"""
        return any(
            index.extend_to(log).late_below(floors(boundary), cut)
            for (index, log, floors), cut in zip(self._logs, cuts)
        )
