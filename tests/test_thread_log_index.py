"""ThreadLogIndex edge cases: the shard-extent query of the durable log.

``positions_between`` defines which records belong to an epoch's shard
(``repro.record.shards``): the half-open per-thread key window between
consecutive checkpoints' counts. These tests pin the edge cases that
matter for durability — empty-tid streams, records straddling an epoch
boundary, and the partition property (consecutive windows are disjoint
and concatenation-exact) — first on synthetic logs, then on a real
recording's checkpoint floors.
"""

from repro.baselines import run_native
from repro.core import DoublePlayConfig, DoublePlayRecorder
from repro.machine.config import MachineConfig
from repro.record.log_index import ThreadLogIndex
from repro.workloads import build_workload


def _index(records):
    """Index over synthetic ``(tid, key)`` records."""
    return ThreadLogIndex(records, lambda r: r[0], lambda r: r[1])


class TestEmptyStreams:
    def test_empty_log(self):
        index = _index([])
        assert index.slice_from({}) == ()
        assert index.positions_between({}, None) == ()
        assert index.slice_between({1: 0}, {1: 5}) == ()

    def test_floor_for_absent_tid_is_harmless(self):
        # A thread named in the floors but owning no records (it did no
        # syscalls this epoch) contributes an empty shard, not an error.
        records = [(1, 0), (1, 1)]
        index = _index(records)
        assert index.slice_between({1: 0, 9: 3}, {1: 2, 9: 7}) == tuple(records)

    def test_tid_absent_from_start_floors_starts_at_zero(self):
        # A thread spawned mid-epoch has no entry in the start
        # checkpoint; all its records up to the end floor belong here.
        records = [(1, 0), (2, 0), (2, 1), (1, 1)]
        index = _index(records)
        assert index.slice_between({1: 0}, {1: 2, 2: 1}) == (
            (1, 0), (2, 0), (1, 1),
        )

    def test_tid_absent_from_end_floors_is_unbounded(self):
        # The final window has no end checkpoint for threads that exited
        # after it — absent from end_floors means "keep everything".
        records = [(1, 0), (1, 1), (2, 0)]
        index = _index(records)
        assert index.slice_between({1: 1}, {2: 1}) == ((1, 1), (2, 0))
        assert index.slice_between({1: 1, 2: 1}, {2: 1}) == ((1, 1),)

    def test_empty_window_when_floors_equal(self):
        records = [(1, 0), (1, 1), (1, 2)]
        index = _index(records)
        assert index.positions_between({1: 1}, {1: 1}) == ()


class TestBoundaryStraddle:
    """A record at exactly a checkpoint's count belongs to the NEXT epoch.

    Boundary-straddling calls are logged at completion, after the
    checkpoint at count k was cut — so ``seq == k`` must land in the
    following window (the ``[start, end)`` rule), never be duplicated,
    never be dropped.
    """

    def test_record_at_end_floor_excluded(self):
        records = [(1, 0), (1, 1), (1, 2)]
        index = _index(records)
        assert index.slice_between({1: 0}, {1: 2}) == ((1, 0), (1, 1))

    def test_record_at_start_floor_included(self):
        records = [(1, 0), (1, 1), (1, 2)]
        index = _index(records)
        assert index.slice_between({1: 2}, None) == ((1, 2),)

    def test_straddler_lands_in_exactly_one_window(self):
        # Epoch boundary at count 2 for tid 1: the record with key 2
        # shows up in the second window only.
        records = [(1, 0), (2, 0), (1, 1), (1, 2), (2, 1), (1, 3)]
        index = _index(records)
        first = index.slice_between({}, {1: 2, 2: 1})
        second = index.slice_between({1: 2, 2: 1}, None)
        assert (1, 2) not in first
        assert (1, 2) in second
        assert sorted(first + second) == sorted(records)


class TestWindowAlgebra:
    RECORDS = [
        (1, 0), (2, 0), (1, 1), (3, 0), (2, 1), (1, 2), (3, 1), (2, 2),
    ]

    def test_none_end_floors_equals_slice_from(self):
        index = _index(self.RECORDS)
        floors = {1: 1, 2: 2}
        assert index.slice_between(floors, None) == index.slice_from(floors)

    def test_log_order_preserved(self):
        index = _index(self.RECORDS)
        window = index.slice_between({}, None)
        assert window == tuple(self.RECORDS)

    def test_consecutive_windows_partition_the_log(self):
        # Monotone per-thread floors cut the log into disjoint windows
        # whose concatenation is the full log in order — the property
        # that makes per-epoch shards concatenation-exact. Intermediate
        # boundaries name every live thread, exactly as real checkpoints
        # do (a tid omitted from an end boundary reads as unbounded).
        index = _index(self.RECORDS)
        boundaries = [{}, {1: 1, 2: 1, 3: 1}, {1: 2, 2: 2, 3: 2}, None]
        windows = [
            index.slice_between(boundaries[i], boundaries[i + 1])
            for i in range(len(boundaries) - 1)
        ]
        merged = tuple(record for window in windows for record in window)
        assert sorted(merged) == sorted(self.RECORDS)
        positions = [
            p
            for i in range(len(boundaries) - 1)
            for p in index.positions_between(boundaries[i], boundaries[i + 1])
        ]
        assert sorted(positions) == list(range(len(self.RECORDS)))

    def test_record_at(self):
        index = _index(self.RECORDS)
        for position, record in enumerate(self.RECORDS):
            assert index.record_at(position) == record


def test_checkpoint_floors_partition_a_real_syscall_log():
    """Epoch windows from real checkpoints reconstruct the global log.

    This is the exact slicing the durable log's shard extents use:
    floors from consecutive epoch start checkpoints, final window
    unbounded. Each window must be disjoint and their concatenation the
    committed syscall log, record for record.
    """
    instance = build_workload("pbzip", workers=2, scale=2, seed=11)
    machine = MachineConfig(cores=2)
    native = run_native(instance.image, instance.setup, machine)
    config = DoublePlayConfig(
        machine=machine, epoch_cycles=max(native.duration // 12, 500)
    )
    recording = DoublePlayRecorder(
        instance.image, instance.setup, config
    ).record().recording
    assert recording.syscall_records, "workload produced no syscalls"

    index = ThreadLogIndex.for_syscalls(recording.syscall_records)
    floors = [
        epoch.start_checkpoint.syscall_counts() for epoch in recording.epochs
    ]
    windows = [
        index.slice_between(
            floors[i], floors[i + 1] if i + 1 < len(floors) else None
        )
        for i in range(len(floors))
    ]
    merged = [record for window in windows for record in window]
    assert merged == list(recording.syscall_records)


def test_segment_chunks_cover_what_each_start_reaches_and_encode_each_record_once():
    """``SegmentLogs.syscall_chunks`` over a log grown epoch by epoch.

    A segment that starts at epoch 3 (the log already holds the
    committed history of epochs 0-2, as after a recovery) is cut the way
    the recorder cuts it: position *p*'s unit once boundary *p* + 2
    exists, the last two when the run ends. Every unit's chunks, joined,
    hold everything its start can reach and nothing logged before the
    segment; every record of the segment is made into a chunk exactly
    once, the history never.
    """
    from repro.record.log_index import SegmentLogs, syscall_slice

    instance = build_workload("pbzip", workers=2, scale=4, seed=11)
    machine = MachineConfig(cores=2)
    native = run_native(instance.image, instance.setup, machine)
    config = DoublePlayConfig(
        machine=machine, epoch_cycles=max(native.duration // 12, 500)
    )
    recording = DoublePlayRecorder(
        instance.image, instance.setup, config
    ).record().recording
    starts = [epoch.start_checkpoint for epoch in recording.epochs]
    index = ThreadLogIndex.for_syscalls(recording.syscall_records)
    floors = [start.syscall_counts() for start in starts]
    windows = [
        index.slice_between(floors[i], floors[i + 1] if i + 1 < len(floors) else None)
        for i in range(len(floors))
    ]
    first, last = 3, len(starts) - 1
    assert last - first >= 6 and sum(map(len, windows[first:])) > 20

    log = [record for window in windows[:first] for record in window]
    history = len(log)
    assert history > 0
    logs = SegmentLogs(log, [], starts[first])
    made = []

    def make(records):
        made.append(tuple(records))
        return made[-1]

    def cut(position):
        chunks = logs.syscall_chunks(starts[position], make)
        joined = [record for chunk in chunks for record in chunk]
        reachable = syscall_slice(log, starts[position])
        assert set(reachable) <= set(joined)
        assert not set(joined) & set(log[:history])
        return chunks

    for epoch in range(first, last + 1):
        log.extend(windows[epoch])  # epoch ran; its end boundary exists
        if epoch - 1 >= first:
            cut(epoch - 1)
    tail = [cut(position) for position in (last - 1, last)]
    # The run is over: both tail units end in the same, last chunk.
    assert tail[0][-1] is tail[1][-1]
    assert [r for chunk in made for r in chunk] == log[history:]
    # An interval that logged nothing makes no chunk.
    chunks_made = len(made)
    assert cut(last) == tail[1] and len(made) == chunks_made and all(made)
