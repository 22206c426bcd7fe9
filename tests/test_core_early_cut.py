"""Forced divergence: the verdict schedule and the early cut.

Once a run has recovered, the recorder consumes each epoch's verdict a
fixed number of boundaries behind the thread-parallel run — a restarted
segment's first epoch already at boundary 1 — and squashes that run at
the divergent epoch. Which boundary consumes which verdict,
and whether it cuts, must be a function of the committed history alone:
every test here records a diverging program — at ``jobs`` 2 and 3, with
a verdict unit lost to a host fault, through a service fleet — and holds
each run to the program's ``jobs=1`` oracle (``tests/parity.py``): the
recording, the stats, the bytes on disk, the ``exec.*`` counters, the
boundaries each segment reached and every verdict judged. (Every sink,
and a unit lost at each position of the streaming merge, are axes of the
parity table, ``tests/test_parity.py``.) The same harness then records a
racy program that does I/O to watch what only a recovery exercises: the
kernel restored from a copy-on-write snapshot, the log a new segment
chunks, and the scratch pack full of a squashed future's blobs.
"""

from __future__ import annotations

import pytest

from repro.core import DoublePlayRecorder
from repro.core.recorder import VerdictSchedule
from repro.host import blobs as host_blobs
from repro.host import executor as host_executor
from repro.host.faults import FaultSpec
from repro.host.pool import invalidate_shared_pool
from repro.oskernel.kernel import Kernel
from repro.record.log_index import SegmentLogs
from repro.record.shards import ShardedLogReader
from repro.workloads import WORKLOADS
from tests import parity
from tests.parity import Program
from tests.test_oskernel_kernel import _with_order, full_copy


def _first_epochs(recording):
    """Each segment's first epoch: 0, then the one after each recovery."""
    return [0] + [epoch.index + 1 for epoch in recording.epochs if epoch.recovered]


def _never_cut(monkeypatch):
    """Disable the verdict schedule: no segment is ever armed."""
    init = VerdictSchedule.__init__
    monkeypatch.setattr(
        VerdictSchedule, "__init__",
        lambda self, lag, armed, pooled: init(self, lag, False, pooled),
    )


@pytest.mark.parametrize("workers", [2, 3])
def test_the_cut_fires_and_changes_nothing_recorded(monkeypatch, workers):
    """Squashing the doomed future is an optimisation, not a behaviour.

    With the schedule disabled every segment runs the thread-parallel
    engine to program exit, as before this rule existed; the recording
    and the (committed-timeline) stats are the same either way.
    """
    cut = parity.oracle(Program("racy-counter", workers, scale=8))
    _never_cut(monkeypatch)
    uncut = parity.observe(cut.program, jobs=None)
    assert cut.tp_entries < uncut.tp_entries
    assert cut.fields["exec"]["ops_executed"] < uncut.fields["exec"]["ops_executed"]
    for key in ("plain", "stats", "timing"):
        assert cut.fields[key] == uncut.fields[key]


def test_a_starved_failing_verdict_does_not_cut(monkeypatch):
    """``parity.HELD_LOCK``: the verdict unit of the epoch that asks for
    the held lock is cut before the grant is hinted and starves."""
    reference = parity.oracle(parity.HELD_LOCK)
    serial_judged = reference.fields["judged"]
    firsts = _first_epochs(reference.result.recording)
    # Some segment's verdict closed the cut without squashing: not final.
    closed = [row[0] for row in serial_judged if row[-1] == "disarm"]
    assert closed
    assert not any(row[-1] == "squash" for row in serial_judged if row[0] in closed)
    # ...and that segment's first epoch did diverge, found at segment end.
    epochs = reference.result.recording.epochs
    assert all(epochs[firsts[segment]].recovered for segment in closed)
    for segment in closed:
        # (boundary, position, final, ok, consumed before, armed before,
        # consumed after, armed after, action): position 0's early
        # verdict, at boundary 1, failed but was not final, so it neither
        # counted as consumed nor closed the cut; it was cut again and
        # consumed at 0 + inflight_bound() = 3, and only that consumption
        # closed the cut. Boundary 2 judges nothing (position 2 - 3 < 0).
        rows = [row[1:] for row in serial_judged if row[0] == segment]
        assert rows == [
            (1, 0, False, False, 0, True, 0, True, "recut"),
            (3, 0, False, False, 0, True, 0, False, "disarm"),
        ]
    assert any(
        row[1] == 1 and row[-1] == "squash" for row in serial_judged
    ), "no other segment was cut at its first boundary"
    for jobs in (2, 3):
        # The same verdicts judged at the same boundaries, as at jobs=1.
        parallel = parity.observe(parity.HELD_LOCK, jobs=jobs)
        parity.assert_parity(parallel)
        # The starved verdict was consumed (and counted, as at jobs=1),
        # then rejected at segment end and its position run again.
        assert parallel.host["speculation"]["invalidated"] >= 1
    _never_cut(monkeypatch)
    uncut = parity.observe(parity.HELD_LOCK, jobs=None)
    for key in ("plain", "stats"):
        assert uncut.fields[key] == reference.fields[key]


@pytest.mark.parametrize(
    "fault,timeout,counter",
    [
        (FaultSpec("crash", 0, scope="record"), None, "crashes"),
        (FaultSpec("hang", 0, scope="record", seconds=30.0), 0.5, "timeouts"),
    ],
)
def test_a_lost_verdict_is_reobtained_at_its_boundary(
    monkeypatch, fault, timeout, counter
):
    """A consumed verdict that comes from the pool is lost.

    ``parity.HELD_LOCK``: a segment whose position 0's early verdict
    (run on the coordinator at boundary 1) was not final cuts position 0
    again at boundary 2, pushes it and consumes its verdict at boundary
    3. Every dispatch of that unit faults, so its pushed attempt
    (attempt 0) and its one contained retry (attempt 1) fail and the
    serial fallback produces the verdict — at the same consumption
    boundary, with the same cut.
    """
    reference = parity.oracle(parity.HELD_LOCK)
    firsts = _first_epochs(reference.result.recording)
    (segment, *_) = [
        row[0] for row in reference.fields["judged"]
        if row[1:3] == (3, 0) and row[-1] == "disarm"
    ]
    add_unit = host_executor.SpeculativeSession._add_unit
    faulted_at = []

    def faulting(self, unit):
        # The pushed unit only: the merge's full-knowledge re-cut of the
        # same position (its verdict was not final) runs clean.
        index = add_unit(self, unit)
        if (unit.epoch_index, unit.position) == (firsts[segment], 0) and not faulted_at:
            unit.faults = (fault,)
            faulted_at.append(unit.epoch_index)
        return index

    # Which contained runs the verdict schedule's consume asked for.
    waiting, contained = [], []
    wait = host_executor.SpeculativeSession.wait
    run_contained = host_executor.SpeculativeSession._run_contained

    def waited(self, position):
        waiting.append(position)
        try:
            return wait(self, position)
        finally:
            waiting.pop()

    def counted(self, position):
        contained.append(bool(waiting))
        return run_contained(self, position)

    monkeypatch.setattr(host_executor.SpeculativeSession, "_add_unit", faulting)
    monkeypatch.setattr(host_executor.SpeculativeSession, "wait", waited)
    monkeypatch.setattr(host_executor.SpeculativeSession, "_run_contained", counted)
    faulted = parity.observe(parity.HELD_LOCK, jobs=2, unit_timeout=timeout)
    parity.assert_parity(faulted)
    assert faulted_at, "the re-cut position 0 was never pushed"
    assert True in contained, "the lost verdict was not re-obtained at its boundary"
    counts = faulted.host["faults"]
    # Both pool attempts died, then the serial fallback ran it.
    assert counts[counter] == 2 and counts["serial_fallbacks"] == 1
    assert [event["attempt"] for event in faulted.host["fault_events"]] == [0, 1]


@pytest.mark.parametrize("jobs", [2, 3])
@pytest.mark.parametrize("workers", [2, 4])
def test_a_restarted_segment_judges_position_0_on_the_coordinator(workers, jobs):
    """A restarted segment's first verdict is judged at boundary 1, the
    boundary that first cuts it, so it runs where it is awaited: at lags
    3 and 5, lifecycle rule 8 (``parity.observe`` runs the rules) holds
    of every restarted segment, and a segment that diverged there made
    no dispatch at all, its fate ``inline``. Everything else is the
    ``jobs=1`` oracle.
    """
    program = Program("racy-counter", workers, scale=8)
    parity.oracle(program)
    got = parity.observe(program, jobs=jobs)
    parity.assert_parity(got)
    boundaries = got.fields["boundaries"]
    at_once = [
        life for life in got.lives.all
        if life.position == 0 and life.recovery and boundaries[life.epoch] == 1
    ]
    assert len(at_once) > 1 and {life.fate for life in at_once} == {"inline"}
    assert not any(a.dispatch for life in at_once for a in life.attempts)


# ----------------------------------------------------------------------
# The streaming merge: epochs commit while the units behind the merge
# head still execute (a unit lost there is a parity table fault position)
# ----------------------------------------------------------------------
#: one segment run to its end: pushes mid-run, then a two-unit tail
STREAM = Program("apache", 2, scale=24)


def test_a_sink_failure_mid_stream_seals_the_committed_prefix(
    monkeypatch, tmp_path
):
    """The merge commits while tail units still run; a sink that fails
    under it leaves a sealed, replayable prefix and nothing in flight."""
    from repro.core import Replayer
    from repro.record.shards import ShardedLogWriter

    built = parity.build(STREAM)
    image, setup, config = built.instance.image, built.instance.setup, built.config
    log_dir = str(tmp_path / "log")
    commit_epoch = ShardedLogWriter.commit_epoch

    def failing(self, record, *args, **kwargs):
        if record.index == 3:
            raise OSError("disk full")
        return commit_epoch(self, record, *args, **kwargs)

    monkeypatch.setattr(ShardedLogWriter, "commit_epoch", failing)
    with pytest.raises(OSError, match="disk full"):
        DoublePlayRecorder(
            image, setup, config.replace(host_jobs=2, log_dir=log_dir)
        ).record()
    reader = ShardedLogReader(log_dir)
    assert not reader.complete and reader.crash_reason == "OSError: disk full"
    assert reader.epoch_count() == 3 and reader.verify() == []
    prefix = reader.load_recording()
    outcome = Replayer(image, config.machine).replay_sequential(prefix)
    assert outcome.verified, outcome.details
    # The pool outlived the failure: the next record runs on it, clean.
    monkeypatch.setattr(ShardedLogWriter, "commit_epoch", commit_epoch)
    again = DoublePlayRecorder(image, setup, config.replace(host_jobs=2)).record()
    assert not any(again.host["faults"].values())


# ----------------------------------------------------------------------
# Recovery of a run that does I/O
#
# ``racy-counter`` makes one syscall, at its end. ``parity.RACY_IO``
# races the same way and prints and appends to a file on every
# iteration, so each recovery restores a kernel that has state, and
# restarts a segment whose log has committed history below it. Recorded
# at ``jobs`` 2 and 3, with and without a durable sink, through a fleet
# — against a scratch pack that is empty, that already holds the blobs
# of an earlier run's squashed futures, or that is replaced at every
# dispatch — everything observed is what ``jobs=1`` observes.
# ----------------------------------------------------------------------
@pytest.fixture
def recovery_watch(monkeypatch):
    """Checks, wherever they happen, the two things only a recovery does.

    Every snapshot of a kernel that was restored must equal a full copy
    of its live state (``restore`` re-seeds the copy-on-write frozen
    forms), and no log chunk of a segment may hold a record below the
    floors of the checkpoint the segment started at (its first chunk
    starts above the committed history). Counts the restored snapshots,
    the chunks above a committed history, the restarted segments that
    made them and the restarted segments that cut a unit (one whose only
    verdict ran on the coordinator cuts none, so chunks nothing).
    """
    seen = {
        "restored_snapshots": 0, "chunks_above_history": 0,
        "segments_above_history": 0, "restarted_segments_cut": 0,
    }
    restored, chunked, cut = set(), set(), set()
    restore, snapshot = Kernel.restore, Kernel.snapshot
    init, chunks = SegmentLogs.__init__, SegmentLogs.syscall_chunks
    cut_unit = DoublePlayRecorder._cut_unit

    def restoring(self, state):
        restore(self, state)
        restored.add(id(self))

    def snapshotting(self):
        state = snapshot(self)
        if id(self) in restored:
            assert _with_order(state) == _with_order(full_copy(self))
            seen["restored_snapshots"] += 1
        return state

    def starting(self, syscall_log, signal_log, start):
        init(self, syscall_log, signal_log, start)
        self.history = start.syscall_counts()
        assert (self._chunk_bounds[0] > 0) == any(self.history.values())

    def chunking(self, start, make):
        def checked(records):
            assert all(r.seq >= self.history.get(r.tid, 0) for r in records)
            if any(self.history.values()):
                seen["chunks_above_history"] += 1
                chunked.add(self)
                seen["segments_above_history"] = len(chunked)
            return make(records)

        return chunks(self, start, checked)

    def cutting(self, segment, position):
        if any(self._logs.history.values()):
            cut.add(self._logs)
            seen["restarted_segments_cut"] = len(cut)
        return cut_unit(self, segment, position)

    monkeypatch.setattr(Kernel, "restore", restoring)
    monkeypatch.setattr(Kernel, "snapshot", snapshotting)
    monkeypatch.setattr(SegmentLogs, "__init__", starting)
    monkeypatch.setattr(SegmentLogs, "syscall_chunks", chunking)
    monkeypatch.setattr(DoublePlayRecorder, "_cut_unit", cutting)
    return seen


def _scratch_pack_in(state):
    """Put the scratch pack in ``state`` before the record under test;
    returns the scratch-pack cap that record runs with."""
    if state != "warm":
        invalidate_shared_pool()
        # "rotated": every dispatch starts a fresh pack, so one is
        # replaced between any squash and the recovery that follows it.
        return 0 if state == "rotated" else None
    # The pack keeps what this very program's squashed futures put.
    built = parity.build(parity.RACY_IO)
    primed = DoublePlayRecorder(
        built.instance.image, built.instance.setup,
        built.config.replace(host_jobs=2),
    ).record()
    assert primed.host["speculation"]["discarded"] > 0
    return None


#: (jobs, sink, scratch pack): each ``jobs`` meets every pack state, each
#: sink every pack state
RECOVERY_IO = [
    (2, "memory", "cold"),
    (2, "log", "warm"),
    (2, "memory", "rotated"),
    (3, "log", "cold"),
    (3, "memory", "warm"),
    (3, "log", "rotated"),
]


@pytest.mark.parametrize("jobs,sink,state", RECOVERY_IO)
def test_recovery_with_io_is_the_serial_one_whatever_the_scratch_pack_holds(
    recovery_watch, jobs, sink, state
):
    reference = parity.oracle(parity.RACY_IO, sink)
    assert reference.result.stats["recoveries"] > 10
    assert len(reference.result.recording.syscall_records) > 100
    restored_at_jobs_1 = recovery_watch["restored_snapshots"]
    cap = _scratch_pack_in(state)
    got = parity.observe(parity.RACY_IO, jobs=jobs, sink=sink, scratch_cap=cap)
    # The recording, the stats, the counters — and, with a sink, every
    # byte under log_dir: nothing a squashed future put is among them.
    parity.assert_parity(got)
    assert got.host["speculation"]["discarded"] > 0
    assert not any(got.host["faults"].values()), got.host["fault_events"][:3]
    if state == "warm":
        assert got.host["wire"]["bytes_shipped"] == 0  # even the squashed futures' pages
    else:
        assert got.host["wire"]["bytes_shipped"] > 0
    assert recovery_watch["restored_snapshots"] > restored_at_jobs_1 + 10
    # Every restarted segment that cut a unit chunked its log above the
    # committed history; the others judged position 0 on the coordinator.
    assert recovery_watch["segments_above_history"] == (
        recovery_watch["restarted_segments_cut"]
    ) >= 2


def test_recovery_with_io_through_a_fleet_is_the_serial_one(
    monkeypatch, recovery_watch
):
    from repro.service import RecordService, ServiceConfig, SessionRequest

    parity.oracle(parity.RACY_IO)
    monkeypatch.setitem(WORKLOADS, "racy-io", parity.EXTRA["racy-io"])
    monkeypatch.setattr(host_blobs, "SCRATCH_PACK_BYTES", 4096)
    report = RecordService(ServiceConfig(jobs=2, max_active=2)).run([
        SessionRequest(
            sid=f"io-{tenant}", workload="racy-io", workers=2,
            epoch_cycles=parity.build(parity.RACY_IO).config.epoch_cycles,
        )
        for tenant in range(2)
    ])
    assert report.ok, [r.error for r in report.results]
    for result in report.results:
        parity.assert_parity(parity.served(parity.RACY_IO, result))
        assert not any(result.metrics["faults"].values())
    assert recovery_watch["segments_above_history"] == (
        recovery_watch["restarted_segments_cut"]
    ) >= 4
