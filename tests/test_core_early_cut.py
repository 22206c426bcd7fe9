"""Forced divergence: the verdict schedule and the early cut.

Once a run has recovered, the recorder consumes each epoch's verdict a
fixed number of boundaries behind the thread-parallel run — a restarted
segment's first epoch already at boundary 1 — and squashes that run at
the divergent epoch. Which boundary consumes which verdict,
and whether it cuts, must be a function of the committed history alone:
every test here records a diverging program several ways — ``jobs`` 1, 2
and 3, twice, with and without a durable sink, with a verdict unit lost
to a host fault, through a service fleet — and requires the recording,
the stats, the bytes on disk, the ``exec.*`` counters and the number of
thread-parallel engine entries to be identical. The same harness then
loses units under the streaming merge (tail and in-flight positions,
clean and recovering runs), and records a racy
program that does I/O to watch what only a recovery exercises: the
kernel restored from a copy-on-write snapshot, the log a new segment
chunks, and the scratch pack full of a squashed future's blobs.
"""

from __future__ import annotations

import collections
import copy
import json
import os

import pytest

from repro.baselines import run_native
from repro.core import DoublePlayConfig, DoublePlayRecorder
from repro.core.recorder import VerdictSchedule
from repro.exec.multicore import MulticoreEngine
from repro.host import blobs as host_blobs
from repro.host import executor as host_executor
from repro.host.faults import FaultSpec
from repro.host.pool import shutdown_shared_pool
from repro.host.wire import BlobRef
from repro.isa.assembler import Assembler
from repro.machine.config import MachineConfig
from repro.oskernel.kernel import Kernel, KernelSetup
from repro.oskernel.syscalls import SyscallKind
from repro.record.pack import PACK_NAME, BlobStore
from repro.record.log_index import SegmentLogs
from repro.record.shards import ShardedLogReader
from repro.workloads import WORKLOADS, Workload, WorkloadInstance, build_workload
from tests.test_oskernel_kernel import _with_order, full_copy


@pytest.fixture
def tp_entries(monkeypatch):
    """Counts ``MulticoreEngine.run`` calls: the thread-parallel extent."""
    calls = [0]
    original = MulticoreEngine.run

    def counted(self, *args, **kwargs):
        calls[0] += 1
        return original(self, *args, **kwargs)

    monkeypatch.setattr(MulticoreEngine, "run", counted)
    return calls


@pytest.fixture
def segment_boundaries(monkeypatch):
    """``{segment's first epoch: boundaries its thread-parallel run reached}``."""
    reached = collections.Counter()
    original = DoublePlayRecorder._run_to_boundary

    def counted(self, engine, policy, segment):
        reached[segment.first_epoch] += 1
        return original(self, engine, policy, segment)

    monkeypatch.setattr(DoublePlayRecorder, "_run_to_boundary", counted)
    return reached


class _JudgeTrace(list):
    """Rows ``(segment, boundary, position, final, ok, consumed before,
    armed before, consumed after, armed after, action)``, one per call."""

    def __init__(self):
        super().__init__()
        #: the run's schedules in creation order: ``segment`` indexes it
        self.schedules = []

    def clear(self):
        super().clear()
        self.schedules.clear()


@pytest.fixture
def judged(monkeypatch):
    """Traces every ``VerdictSchedule.judge`` call of the records that
    follow (``clear()`` it between records)."""
    trace = _JudgeTrace()
    init, judge = VerdictSchedule.__init__, VerdictSchedule.judge

    def numbered(self, *args):
        init(self, *args)
        trace.schedules.append(self)

    def traced(self, boundary, position, final, ok):
        before = (self.consumed, self.armed)
        action = judge(self, boundary, position, final, ok)
        trace.append((
            trace.schedules.index(self), boundary, position, final, ok,
            *before, self.consumed, self.armed, action,
        ))
        return action

    monkeypatch.setattr(VerdictSchedule, "__init__", numbered)
    monkeypatch.setattr(VerdictSchedule, "judge", traced)
    return trace


def _first_epochs(recording):
    """Each segment's first epoch: 0, then the one after each recovery."""
    return [0] + [epoch.index + 1 for epoch in recording.epochs if epoch.recovered]


def _workload(name, workers, scale=8):
    instance = build_workload(name, workers=workers, scale=scale, seed=11)
    machine = MachineConfig(cores=workers)
    native = run_native(instance.image, instance.setup, machine)
    config = DoublePlayConfig(
        machine=machine, epoch_cycles=max(native.duration // 12, 500)
    )
    return instance.image, instance.setup, config


def _tree(directory):
    """``{relative path: bytes}`` of every file under ``directory``."""
    found = {}
    for root, _, names in os.walk(directory):
        for name in names:
            path = os.path.join(root, name)
            with open(path, "rb") as handle:
                found[os.path.relpath(path, directory)] = handle.read()
    return found


def _observe(image, setup, config, tp_entries):
    """Everything one ``record()`` may not vary with ``jobs`` or the run."""
    tp_entries[0] = 0
    result = DoublePlayRecorder(image, setup, config).record()
    recording = result.recording
    if config.log_spill:
        recording = ShardedLogReader(config.log_dir).load_recording()
    return result, {
        "plain": json.dumps(recording.to_plain(), sort_keys=True),
        "stats": result.stats,
        "timing": (result.makespan, result.tp_finish, result.app_time),
        "exec": result.metrics.snapshot()["exec"],
        "tp_entries": tp_entries[0],
        "files": _tree(config.log_dir) if config.log_dir else None,
    }


SINKS = {
    "memory": {},
    "log": {"log_dir": True},
    "spill": {"log_dir": True, "log_spill": True},
    "window": {"log_dir": True, "log_spill": True, "flight_window": 4},
}

#: (workload, workers, scale)
PROGRAMS = [
    ("racy-counter", 2, 8),
    ("racy-counter", 3, 4),
    ("racy-lazyinit", 2, 8),
    ("racy-lazyinit", 3, 8),
]


@pytest.mark.parametrize("sink", SINKS)
@pytest.mark.parametrize("name,workers,scale", PROGRAMS)
def test_identical_at_any_jobs_and_across_runs(
    tmp_path, tp_entries, segment_boundaries, judged, name, workers, scale, sink
):
    image, setup, config = _workload(name, workers, scale)
    observed = []
    for run, jobs in enumerate((1, 2, 2, 3)):
        overrides = dict(SINKS[sink], host_jobs=jobs)
        if overrides.get("log_dir"):
            overrides["log_dir"] = str(tmp_path / f"run{run}")
        segment_boundaries.clear()
        judged.clear()
        result, got = _observe(image, setup, config.replace(**overrides), tp_entries)
        # The same verdicts are judged at the same boundaries, to the
        # same effect, at any jobs.
        got["judged"] = list(judged)
        observed.append((result, got))
        # A restarted segment whose first epoch diverges is squashed at
        # its first boundary: that epoch's verdict is consumed there.
        epochs = result.recording.epochs
        squashed_at_once = [
            first for first in segment_boundaries if first and epochs[first].recovered
        ]
        assert all(segment_boundaries[first] == 1 for first in squashed_at_once)
        if name == "racy-counter":
            assert len(squashed_at_once) > 1
    (reference, expected), *others = observed
    for _, got in others:
        assert got == expected
    if name == "racy-counter":
        assert reference.stats["recoveries"] > 1
        assert any(row[-1] == "squash" for row in expected["judged"])
    else:
        # Never diverges, so never armed: one segment, run to its end.
        assert reference.stats["recoveries"] == 0
        assert expected["tp_entries"] == reference.stats["epochs"]


def _never_cut(monkeypatch):
    """Disable the verdict schedule: no segment is ever armed."""
    init = VerdictSchedule.__init__
    monkeypatch.setattr(
        VerdictSchedule, "__init__",
        lambda self, lag, armed, pooled: init(self, lag, False, pooled),
    )


@pytest.mark.parametrize("workers", [2, 3])
def test_the_cut_fires_and_changes_nothing_recorded(
    monkeypatch, tp_entries, workers
):
    """Squashing the doomed future is an optimisation, not a behaviour.

    With the schedule disabled every segment runs the thread-parallel
    engine to program exit, as before this rule existed; the recording
    and the (committed-timeline) stats are the same either way.
    """
    image, setup, config = _workload("racy-counter", workers)
    _, cut = _observe(image, setup, config, tp_entries)
    _never_cut(monkeypatch)
    _, uncut = _observe(image, setup, config, tp_entries)
    assert cut["tp_entries"] < uncut["tp_entries"]
    assert cut["exec"]["ops_executed"] < uncut["exec"]["ops_executed"]
    for key in ("plain", "stats", "timing"):
        assert cut[key] == uncut[key]


def held_lock_racy_program(hold=400, wait=120):
    """Racy counter under a long-held lock the other thread asks for.

    Both threads increment ``counter`` without synchronisation, so most
    epochs diverge. ``holder`` keeps ``mutex`` for its whole loop;
    ``waiter`` asks for it part-way through the run and is granted it
    many epochs later — so the verdict unit of the epoch that asks is
    cut before the grant is hinted and its oracle starves on ``mutex``.
    """
    asm = Assembler(name="racy-held-lock")
    asm.word("counter", 0)
    asm.word("mutex", 0)

    def racy_loop(label, iters):
        asm.li("r2", 0)
        asm.label(label)
        asm.loadg("r4", "counter")
        asm.work(3)
        asm.addi("r4", "r4", 1)
        asm.storeg("r4", "counter")
        asm.work(5)
        asm.addi("r2", "r2", 1)
        asm.blti("r2", iters, label)

    with asm.function("holder"):
        asm.li("r3", "mutex")
        asm.lock("r3")
        racy_loop("held", hold)
        asm.unlock("r3")
        asm.exit_()
    with asm.function("waiter"):
        racy_loop("before", wait)
        asm.li("r3", "mutex")
        asm.lock("r3")
        racy_loop("after", 10)
        asm.unlock("r3")
        asm.exit_()
    with asm.function("main"):
        asm.spawn("r10", "holder")
        asm.spawn("r11", "waiter")
        asm.join("r10")
        asm.join("r11")
        asm.loadg("r2", "counter")
        asm.syscall("r3", SyscallKind.PRINT, args=["r2"])
        asm.exit_()
    return asm.assemble()


def test_a_starved_failing_verdict_does_not_cut(monkeypatch, tp_entries, judged):
    image = held_lock_racy_program()
    config = DoublePlayConfig(machine=MachineConfig(cores=2), epoch_cycles=400)
    setup = KernelSetup()
    reference, expected = _observe(image, setup, config.replace(host_jobs=1), tp_entries)
    serial_judged = list(judged)
    firsts = _first_epochs(reference.recording)
    # Some segment's verdict closed the cut without squashing: not final.
    closed = [row[0] for row in serial_judged if row[-1] == "disarm"]
    assert closed
    assert not any(row[-1] == "squash" for row in serial_judged if row[0] in closed)
    # ...and that segment's first epoch did diverge, found at segment end.
    assert all(reference.recording.epochs[firsts[segment]].recovered for segment in closed)
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
        judged.clear()
        parallel, got = _observe(
            image, setup, config.replace(host_jobs=jobs), tp_entries
        )
        assert got == expected
        assert judged == serial_judged
        # The starved verdict was consumed (and counted, as at jobs=1),
        # then rejected at segment end and its position run again.
        assert parallel.host["speculation"]["invalidated"] >= 1
    _never_cut(monkeypatch)
    _, uncut = _observe(image, setup, config, tp_entries)
    assert (uncut["plain"], uncut["stats"]) == (expected["plain"], expected["stats"])


@pytest.mark.parametrize(
    "fault,timeout,counter",
    [
        (FaultSpec("crash", 0, scope="record"), None, "crashes"),
        (FaultSpec("hang", 0, scope="record", seconds=30.0), 0.5, "timeouts"),
    ],
)
def test_a_lost_verdict_is_reobtained_at_its_boundary(
    monkeypatch, tp_entries, fault, timeout, counter
):
    """The verdict unit of epoch 1 — an armed segment's position 0 — is lost.

    Every dispatch of it faults, so the speculative attempt and both
    contained pool attempts fail and the serial fallback produces the
    verdict — at the same consumption boundary, with the same cut.
    """
    image, setup, config = _workload("racy-counter", 2)
    _, expected = _observe(image, setup, config.replace(host_jobs=1), tp_entries)
    add_unit = host_executor._Batch._add_unit

    def faulting(self, unit):
        index = add_unit(self, unit)
        # Epoch 1 at position 0 is the second segment's first unit (the
        # first segment numbers epoch 1 as its position 1).
        if (unit.epoch_index, unit.position) == (1, 0):
            unit.faults = (fault,)
        return index

    monkeypatch.setattr(host_executor._Batch, "_add_unit", faulting)
    overrides = {} if timeout is None else {"unit_timeout": timeout}
    faulted, got = _observe(
        image, setup, config.replace(host_jobs=2, **overrides), tp_entries
    )
    assert got == expected
    counts = faulted.host["faults"]
    # Both contained pool attempts died, then the serial fallback ran it.
    assert counts[counter] >= 2 and counts["serial_fallbacks"] >= 1
    spec = faulted.host["speculation"]
    assert spec["dispatched"] == (
        spec["accepted"] + spec["invalidated"] + spec["discarded"]
    )


def test_attempt_waste_counts_every_failed_attempt(tp_entries):
    """``stats["attempt_waste"]`` sums the cycles of every epoch-parallel
    attempt that failed — a run whose last segment is clean wasted them
    all the same — and is the same at any jobs."""
    image, setup, config = _workload("racy-counter", 2)
    wasted = set()
    for jobs in (1, 2, 3):
        result, _ = _observe(image, setup, config.replace(host_jobs=jobs), tp_entries)
        assert not result.recording.epochs[-1].recovered
        assert result.stats["divergences"] > 1
        wasted.add(result.stats["attempt_waste"])
    assert len(wasted) == 1 and wasted.pop() > 0


def test_speculation_accounting_counts_the_verdicts_it_used(tp_entries):
    image, setup, config = _workload("racy-counter", 2)
    result, _ = _observe(image, setup, config.replace(host_jobs=2), tp_entries)
    spec = result.host["speculation"]
    # Every divergence after the first was found by a consumed verdict.
    assert spec["accepted"] >= result.stats["recoveries"] - 1
    assert min(spec.values()) >= 0
    assert spec["dispatched"] == (
        spec["accepted"] + spec["invalidated"] + spec["discarded"]
    )


def test_a_fleet_session_of_a_racy_tenant_returns_the_solo_recording(tp_entries):
    from repro.service import RecordService, ServiceConfig, SessionRequest

    image, setup, config = _workload("racy-counter", 2)
    _, solo = _observe(image, setup, config.replace(host_jobs=1), tp_entries)
    report = RecordService(ServiceConfig(jobs=2, max_active=2)).run([
        SessionRequest(
            sid=f"racy-{tenant}", workload="racy-counter", workers=2,
            scale=8, seed=11, epoch_cycles=config.epoch_cycles,
        )
        for tenant in range(2)
    ])
    assert report.ok, [r.error for r in report.results]
    for result in report.results:
        assert json.dumps(result.recording_plain, sort_keys=True) == solo["plain"]
        assert result.metrics["exec"] == solo["exec"]


@pytest.mark.parametrize("workers", [2, 3])
def test_committed_chain_indices_are_the_epoch_sequence(workers):
    """Checkpoint indices count the committed chain, not squashed futures."""
    image, setup, config = _workload("racy-counter", workers)
    chains = []
    for jobs in (1, 2):
        recording = DoublePlayRecorder(
            image, setup, config.replace(host_jobs=jobs)
        ).record().recording
        chains.append([epoch.start_checkpoint.index for epoch in recording.epochs])
    serial, parallel = chains
    assert all(later > earlier for earlier, later in zip(serial, serial[1:]))
    assert serial == list(range(len(serial))) == parallel


# ----------------------------------------------------------------------
# The streaming merge under host faults
#
# At the end of a segment's thread-parallel run the recorder pushes the
# tail units and walks the positions in order — wait, validate, commit —
# so the units behind the merge head execute while earlier epochs
# commit. A unit lost there (on the tail itself, or one position behind
# the head, in flight while the head's epoch commits) is cut again, now
# with full knowledge, and run through the contained path. Whatever is lost,
# however, the recording, the stats, the ``exec.*`` counters and the
# bytes on disk are those of ``jobs=1``.
# ----------------------------------------------------------------------
#: one segment run to its end (pushes mid-run, then a two-unit tail) and
#: many short segments cut at their divergent epoch (doomed tails)
STREAM_PROGRAMS = {
    "clean": ("apache", 2, 24),
    "recovering": ("racy-counter", 2, 8),
}

_serial_observations = {}


def _serial_observation(program, sink, tmp_path, tp_entries):
    """What ``jobs=1`` records of ``program`` into ``sink`` (once per pair)."""
    key = (program, sink)
    if key not in _serial_observations:
        image, setup, config = _workload(*STREAM_PROGRAMS[program])
        overrides = dict(SINKS[sink], host_jobs=1)
        if overrides.get("log_dir"):
            overrides["log_dir"] = str(tmp_path / "serial")
        _serial_observations[key] = _observe(
            image, setup, config.replace(**overrides), tp_entries
        )
    return _serial_observations[key]


def _lose_unit(monkeypatch, tmp_path, kind, position):
    """Config overrides under which ``position``'s unit is lost to ``kind``.

    ``crash-once`` kills the worker under the first dispatch only (the
    attempt pushed ahead); every other kind strikes
    each dispatch of the position, so the contained path has to retry
    and then run the unit on the coordinator. The ``PACK_LOSSES`` kinds
    are what a worker can find wrong with the scratch pack a dispatch
    names — it is outside input to the worker, a file another process
    appends — and each is a task error there.
    """
    if kind in PACK_LOSSES:
        make_dispatch = host_executor.HostExecutor._make_dispatch
        packs = iter(range(1 << 30))

        def absent(ref):
            """The same blob under a digest no worker has cached and no
            pack holds, so the worker has to go to the pack for it."""
            return BlobRef(ref.digest ^ 1, ref._local)

        def lost(self, batch, index):
            dispatch = make_dispatch(self, batch, index)
            if batch.kind != "record" or index != position:
                return dispatch
            host_executor._scratch_packs.release(dispatch.pack)
            dispatch.pack = root = str(tmp_path / f"pack-{next(packs)}")
            dispatch.unit = unit = copy.copy(dispatch.unit)
            if kind == "evicted-chunk":
                # A pack with everything the unit names but its chunks.
                assert unit.syscalls, "the unit sees no log chunk: pick another position"
                store = BlobStore(root)
                for digest in dispatch.required_digests():
                    store.put(digest, batch.blobs[digest])
                store.close()
                unit.syscalls = tuple(absent(chunk) for chunk in unit.syscalls)
                return dispatch
            unit.signals = absent(unit.signals)
            if kind == "bad-magic":
                os.makedirs(root)
                with open(os.path.join(root, PACK_NAME), "wb") as handle:
                    handle.write(b"not a blob pack, whatever it is")
            return dispatch  # "needblobs": a pack that is not there at all

        monkeypatch.setattr(host_executor.HostExecutor, "_make_dispatch", lost)
        return {}
    if kind == "crash-once":
        monkeypatch.setenv("REPRO_FAULT_STATE", str(tmp_path / "fuses"))
        return {"host_faults": f"record:crash:unit{position}:once"}
    if kind == "hang":
        return {
            "host_faults": f"record:hang:unit{position}:30", "unit_timeout": 0.5,
        }
    return {"host_faults": f"record:{kind}:unit{position}"}


#: what a worker can find wrong with the pack a dispatch names: it was
#: unlinked ("needblobs"), it holds everything but the unit's log chunks
#: ("evicted-chunk"), it is not a pack
PACK_LOSSES = ("needblobs", "evicted-chunk", "bad-magic")

#: (program, jobs, sink, fault kind, position); a negative position
#: counts back from the segment's last unit: -1 is the tail's last, -2
#: the unit in flight behind it while earlier epochs commit
STREAM_FAULTS = [
    ("clean", 2, "log", "error", -1),
    ("clean", 2, "log", "error", -2),
    ("clean", 3, "memory", "crash", -1),
    ("clean", 2, "log", "crash-once", -2),
    ("clean", 2, "memory", "hang", -1),
    ("clean", 2, "log", "needblobs", -1),
    ("clean", 3, "spill", "needblobs", -2),
    # The log travels as chunks a unit shares with its neighbours: one
    # missing under the unit that needs it, and the worker that read a
    # chunk first dying with it (mid-run and on the tail).
    ("clean", 2, "log", "evicted-chunk", -6),
    ("clean", 3, "spill", "evicted-chunk", -2),
    ("clean", 2, "log", "bad-magic", -2),
    ("clean", 2, "log", "crash-once", -7),
    ("clean", 2, "memory", "crash-once", -2),
    ("recovering", 2, "log", "error", 0),
    ("recovering", 3, "memory", "needblobs", 1),
    ("recovering", 2, "spill", "crash-once", 1),
    ("recovering", 2, "log", "error", 1),
    ("recovering", 2, "window", "needblobs", 0),
    ("recovering", 2, "log", "bad-magic", 1),
]


@pytest.mark.parametrize("program,jobs,sink,kind,position", STREAM_FAULTS)
def test_a_unit_lost_under_the_streaming_merge_changes_nothing_recorded(
    monkeypatch, tmp_path, tp_entries, program, jobs, sink, kind, position
):
    reference, expected = _serial_observation(program, sink, tmp_path, tp_entries)
    if program == "recovering":
        assert reference.stats["recoveries"] > 1
    else:
        assert reference.stats["recoveries"] == 0
        position += reference.stats["epochs"]
    image, setup, config = _workload(*STREAM_PROGRAMS[program])
    overrides = dict(SINKS[sink], host_jobs=jobs)
    if overrides.get("log_dir"):
        overrides["log_dir"] = str(tmp_path / "faulted")
    overrides.update(_lose_unit(monkeypatch, tmp_path, kind, position))
    try:
        faulted, got = _observe(
            image, setup, config.replace(**overrides), tp_entries
        )
    finally:
        if kind != "error":
            shutdown_shared_pool()  # killed or starved workers stay out of later tests
    assert got == expected
    counts, spec = faulted.host["faults"], faulted.host["speculation"]
    assert spec["dispatched"] == (
        spec["accepted"] + spec["invalidated"] + spec["discarded"]
    )
    assert spec["discarded"] >= 1
    if kind == "crash-once":
        assert counts["crashes"] <= 1 and counts["serial_fallbacks"] == 0
    else:
        counter = {"crash": "crashes", "hang": "timeouts"}.get(kind, "task_errors")
        assert counts[counter] >= 2 and counts["serial_fallbacks"] >= 1


def test_a_sink_failure_mid_stream_seals_the_committed_prefix(
    monkeypatch, tmp_path
):
    """The merge commits while tail units still run; a sink that fails
    under it leaves a sealed, replayable prefix and nothing in flight."""
    from repro.core import Replayer
    from repro.record.shards import ShardedLogWriter

    image, setup, config = _workload(*STREAM_PROGRAMS["clean"])
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
# ``racy-counter`` makes one syscall, at its end. This program races the
# same way and prints and appends to a file on every iteration, so each
# recovery restores a kernel that has state, and restarts a segment whose
# log has committed history below it. Recorded at ``jobs`` 2 and 3, with
# and without a durable sink, through a fleet — against a scratch pack
# that is empty, that already holds the blobs of an earlier run's
# squashed futures, or that is replaced at every dispatch — everything
# observed is what ``jobs=1`` observes.
# ----------------------------------------------------------------------
def racy_io_program(iterations=80):
    asm = Assembler(name="racy-io")
    asm.word("counter", 0)
    asm.word("cell0", 0)
    asm.word("cell1", 0)
    for worker in (0, 1):
        with asm.function(f"worker{worker}"):
            asm.li("r5", worker + 1)
            asm.syscall("r6", SyscallKind.OPEN, args=["r5"])
            asm.li("r8", f"cell{worker}")
            asm.li("r9", 1)
            asm.li("r2", 0)
            asm.label(f"loop{worker}")
            asm.loadg("r3", "counter")
            asm.work(4)
            asm.addi("r3", "r3", 1)
            asm.storeg("r3", "counter")
            asm.syscall("r7", SyscallKind.PRINT, args=["r2"])
            asm.syscall("r7", SyscallKind.WRITE, args=["r6", "r8", "r9"])
            asm.work(9)
            asm.addi("r2", "r2", 1)
            asm.blti("r2", iterations, f"loop{worker}")
            asm.exit_()
    with asm.function("main"):
        asm.spawn("r10", "worker0")
        asm.spawn("r11", "worker1")
        asm.join("r10")
        asm.join("r11")
        asm.loadg("r2", "counter")
        asm.syscall("r3", SyscallKind.PRINT, args=["r2"])
        asm.exit_()
    return asm.assemble()


class RacyIoWorkload(Workload):
    """The program above under a name a fleet session can ask for."""

    name = "racy-io"
    racy = True

    def build(self, workers=2, scale=1, seed=0):
        return WorkloadInstance(
            name=self.name, image=racy_io_program(),
            setup=KernelSetup(files={1: [7], 2: [9]}),
            workers=2, racy=True, validate=lambda kernel: True,
        )


def _racy_io():
    instance = RacyIoWorkload().build()
    machine = MachineConfig(cores=2)
    native = run_native(instance.image, instance.setup, machine)
    config = DoublePlayConfig(
        machine=machine, epoch_cycles=max(native.duration // 12, 500)
    )
    return instance.image, instance.setup, config


@pytest.fixture
def recovery_watch(monkeypatch):
    """Checks, wherever they happen, the two things only a recovery does.

    Every snapshot of a kernel that was restored must equal a full copy
    of its live state (``restore`` re-seeds the copy-on-write frozen
    forms), and no log chunk of a segment may hold a record below the
    floors of the checkpoint the segment started at (its first chunk
    starts above the committed history).
    """
    seen = {"restored_snapshots": 0, "chunks_above_history": 0}
    restored = set()
    restore, snapshot = Kernel.restore, Kernel.snapshot
    init, chunks = SegmentLogs.__init__, SegmentLogs.syscall_chunks

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
            seen["chunks_above_history"] += any(self.history.values())
            return make(records)

        return chunks(self, start, checked)

    monkeypatch.setattr(Kernel, "restore", restoring)
    monkeypatch.setattr(Kernel, "snapshot", snapshotting)
    monkeypatch.setattr(SegmentLogs, "__init__", starting)
    monkeypatch.setattr(SegmentLogs, "syscall_chunks", chunking)
    return seen


_racy_io_serial = {}


def _racy_io_serial_observation(sink, tmp_path, tp_entries):
    if sink not in _racy_io_serial:
        image, setup, config = _racy_io()
        overrides = dict(SINKS[sink], host_jobs=1)
        if overrides.get("log_dir"):
            overrides["log_dir"] = str(tmp_path / "serial")
        _racy_io_serial[sink] = _observe(
            image, setup, config.replace(**overrides), tp_entries
        )
    return _racy_io_serial[sink]


def _scratch_pack_in(monkeypatch, state):
    """Put the scratch pack in ``state`` before the record under test."""
    if state == "rotated":
        # Every dispatch starts a fresh pack: one is replaced between
        # any squash and the recovery that follows it.
        monkeypatch.setattr(host_blobs, "SCRATCH_PACK_BYTES", 0)
    if state != "warm":
        shutdown_shared_pool()
        return
    # The pack keeps what this very program's squashed futures put.
    image, setup, config = _racy_io()
    primed = DoublePlayRecorder(image, setup, config.replace(host_jobs=2)).record()
    assert primed.host["speculation"]["discarded"] > 0


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
    monkeypatch, tmp_path, tp_entries, recovery_watch, jobs, sink, state
):
    reference, expected = _racy_io_serial_observation(sink, tmp_path, tp_entries)
    assert reference.stats["recoveries"] > 10
    assert len(reference.recording.syscall_records) > 100
    restored_at_jobs_1 = recovery_watch["restored_snapshots"]
    _scratch_pack_in(monkeypatch, state)
    image, setup, config = _racy_io()
    overrides = dict(SINKS[sink], host_jobs=jobs)
    if overrides.get("log_dir"):
        overrides["log_dir"] = str(tmp_path / "parallel")
    result, got = _observe(image, setup, config.replace(**overrides), tp_entries)
    # The recording, the stats, the counters — and, with a sink, every
    # byte under log_dir: nothing a squashed future put is among them.
    assert got == expected
    assert result.host["speculation"]["discarded"] > 0
    assert not any(result.host["faults"].values()), result.host["fault_events"][:3]
    wire = result.host["wire"]
    if state == "warm":
        assert wire["bytes_shipped"] == 0  # even the squashed futures' pages
    else:
        assert wire["bytes_shipped"] > 0
    assert recovery_watch["restored_snapshots"] > restored_at_jobs_1 + 10
    assert recovery_watch["chunks_above_history"] > 10


def test_recovery_with_io_through_a_fleet_is_the_serial_one(
    monkeypatch, tmp_path, tp_entries, recovery_watch
):
    from repro.service import RecordService, ServiceConfig, SessionRequest

    _, solo = _racy_io_serial_observation("memory", tmp_path, tp_entries)
    monkeypatch.setitem(WORKLOADS, "racy-io", RacyIoWorkload)
    monkeypatch.setattr(host_blobs, "SCRATCH_PACK_BYTES", 4096)
    _, _, config = _racy_io()
    report = RecordService(ServiceConfig(jobs=2, max_active=2)).run([
        SessionRequest(
            sid=f"io-{tenant}", workload="racy-io", workers=2,
            epoch_cycles=config.epoch_cycles,
        )
        for tenant in range(2)
    ])
    assert report.ok, [r.error for r in report.results]
    for result in report.results:
        assert json.dumps(result.recording_plain, sort_keys=True) == solo["plain"]
        assert result.metrics["exec"] == solo["exec"]
        assert not any(result.metrics["faults"].values())
    assert recovery_watch["chunks_above_history"] > 20
