"""Forced divergence: the verdict schedule and the early cut.

Once a run has recovered, the recorder consumes each epoch's verdict a
fixed number of boundaries behind the thread-parallel run and squashes
that run at the divergent epoch. Which boundary consumes which verdict,
and whether it cuts, must be a function of the committed history alone:
every test here records a diverging program several ways — ``jobs`` 1, 2
and 3, twice, with and without a durable sink, with a verdict unit lost
to a host fault, through a service fleet — and requires the recording,
the stats, the bytes on disk, the ``exec.*`` counters and the number of
thread-parallel engine entries to be identical. The same harness then
loses units under the streaming merge (tail and in-flight positions,
pipeline on and off, clean and recovering runs).
"""

from __future__ import annotations

import json
import os

import pytest

from repro.baselines import run_native
from repro.core import DoublePlayConfig, DoublePlayRecorder
from repro.exec.multicore import MulticoreEngine
from repro.host import executor as host_executor
from repro.host.faults import FaultSpec
from repro.host.pool import shutdown_shared_pool
from repro.isa.assembler import Assembler
from repro.machine.config import MachineConfig
from repro.oskernel.kernel import KernelSetup
from repro.oskernel.syscalls import SyscallKind
from repro.record.shards import ShardedLogReader
from repro.workloads import build_workload


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
    tmp_path, tp_entries, name, workers, scale, sink
):
    image, setup, config = _workload(name, workers, scale)
    observed = []
    for run, jobs in enumerate((1, 2, 2, 3)):
        overrides = dict(SINKS[sink], host_jobs=jobs)
        if overrides.get("log_dir"):
            overrides["log_dir"] = str(tmp_path / f"run{run}")
        observed.append(
            _observe(image, setup, config.replace(**overrides), tp_entries)
        )
    (reference, expected), *others = observed
    for _, got in others:
        assert got == expected
    if name == "racy-counter":
        assert reference.stats["recoveries"] > 1
    else:
        # Never diverges, so never armed: one segment, run to its end.
        assert reference.stats["recoveries"] == 0
        assert expected["tp_entries"] == reference.stats["epochs"]


def _never_cut(monkeypatch):
    monkeypatch.setattr(
        DoublePlayRecorder, "_consume_verdict", lambda self, segment, lag: False
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


def test_a_starved_failing_verdict_does_not_cut(monkeypatch, tp_entries):
    image = held_lock_racy_program()
    config = DoublePlayConfig(machine=MachineConfig(cores=2), epoch_cycles=400)
    consumed = []
    original = DoublePlayRecorder._consume_verdict

    def spy(self, segment, lag):
        armed = segment.may_cut
        cut = original(self, segment, lag)
        consumed.append((segment.first_epoch, armed, segment.may_cut, cut))
        return cut

    monkeypatch.setattr(DoublePlayRecorder, "_consume_verdict", spy)
    setup = KernelSetup()
    reference, expected = _observe(image, setup, config.replace(host_jobs=1), tp_entries)
    serial_consumed = list(consumed)
    # Some segment's verdict closed the cut without squashing: not final.
    closed = [first for first, armed, still, cut in consumed if armed and not still]
    assert closed and not any(cut for first, _, _, cut in consumed if first in closed)
    # ...and that segment's first epoch did diverge, found at segment end.
    assert all(reference.recording.epochs[first].recovered for first in closed)
    assert any(cut for _, _, _, cut in consumed), "no other segment was cut"
    for jobs in (2, 3):
        del consumed[:]
        parallel, got = _observe(
            image, setup, config.replace(host_jobs=jobs), tp_entries
        )
        assert got == expected
        assert consumed == serial_consumed
        # The starved verdict was consumed (and counted, as at jobs=1),
        # then rejected at segment end and its position run again.
        assert parallel.host["speculation"]["invalidated"] >= 1
    monkeypatch.setattr(DoublePlayRecorder, "_consume_verdict", original)
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
# the head, in flight while the head's epoch commits) is rebuilt with
# full knowledge and run through the contained path. Whatever is lost,
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
    attempt pushed ahead, when there is one); every other kind strikes
    each dispatch of the position, so the contained path has to retry
    and then run the unit on the coordinator.
    """
    if kind == "needblobs":
        # Cold workers hold nothing, and this position's dispatches ship
        # nothing until the coordinator answers a NeedBlobs in full.
        shutdown_shared_pool()
        make_dispatch = host_executor.HostExecutor._make_dispatch

        def starved(self, batch, index, pids=(), full=False):
            dispatch = make_dispatch(self, batch, index, pids=pids, full=full)
            if batch.kind == "record" and index == position and not full:
                dispatch.blobs = {}
                batch.last_shipped[index] = set()
            return dispatch

        monkeypatch.setattr(host_executor.HostExecutor, "_make_dispatch", starved)
        return {}
    if kind == "evicted-chunk":
        # Workers keep nothing — a zero budget evicts every blob as it
        # lands, and says so — and this position's dispatches leave its
        # log chunks out, as they do when the mirror still believes a
        # chunk held that a worker has just evicted: the worker answers
        # NeedBlobs and the coordinator resends in full.
        monkeypatch.setenv("REPRO_BLOB_CACHE_MB", "0")
        make_dispatch = host_executor.HostExecutor._make_dispatch

        def evicted(self, batch, index, pids=(), full=False):
            dispatch = make_dispatch(self, batch, index, pids=pids, full=full)
            if batch.kind == "record" and index == position and not full:
                chunks = [chunk.digest for chunk in dispatch.unit.syscalls]
                assert chunks, "the unit sees no log chunk: pick another position"
                for digest in chunks:
                    dispatch.blobs.pop(digest, None)
                batch.last_shipped[index] -= set(chunks)
            return dispatch

        monkeypatch.setattr(host_executor.HostExecutor, "_make_dispatch", evicted)
        return {}
    if kind == "crash-once":
        monkeypatch.setenv("REPRO_FAULT_STATE", str(tmp_path / "fuses"))
        return {"host_faults": f"record:crash:unit{position}:once"}
    if kind == "hang":
        return {
            "host_faults": f"record:hang:unit{position}:30", "unit_timeout": 0.5,
        }
    return {"host_faults": f"record:{kind}:unit{position}"}


#: (program, jobs, sink, pipeline, fault kind, position); a negative
#: position counts back from the segment's last unit: -1 is the tail's
#: last, -2 the unit in flight behind it while earlier epochs commit
STREAM_FAULTS = [
    ("clean", 2, "log", "1", "error", -1),
    ("clean", 2, "log", "1", "error", -2),
    ("clean", 3, "memory", "1", "crash", -1),
    ("clean", 2, "log", "1", "crash-once", -2),
    ("clean", 2, "memory", "1", "hang", -1),
    ("clean", 2, "log", "1", "needblobs", -1),
    ("clean", 3, "spill", "1", "needblobs", -2),
    # The log travels as chunks a unit shares with its neighbours: one
    # evicted under the unit that needs it, and the worker that took a
    # chunk's first shipment dying with it (mid-run and on the tail).
    ("clean", 2, "log", "1", "evicted-chunk", -6),
    ("clean", 3, "spill", "0", "evicted-chunk", -2),
    ("clean", 2, "log", "1", "crash-once", -7),
    ("clean", 2, "log", "0", "error", -1),
    ("clean", 2, "memory", "0", "crash-once", -2),
    ("recovering", 2, "log", "1", "error", 0),
    ("recovering", 3, "memory", "1", "needblobs", 1),
    ("recovering", 2, "spill", "1", "crash-once", 1),
    ("recovering", 2, "log", "0", "error", 1),
    ("recovering", 2, "window", "0", "needblobs", 0),
]


@pytest.mark.parametrize("program,jobs,sink,pipeline,kind,position", STREAM_FAULTS)
def test_a_unit_lost_under_the_streaming_merge_changes_nothing_recorded(
    monkeypatch, tmp_path, tp_entries, program, jobs, sink, pipeline, kind, position
):
    reference, expected = _serial_observation(program, sink, tmp_path, tp_entries)
    if program == "recovering":
        assert reference.stats["recoveries"] > 1
    else:
        assert reference.stats["recoveries"] == 0
        position += reference.stats["epochs"]
    image, setup, config = _workload(*STREAM_PROGRAMS[program])
    monkeypatch.setenv("REPRO_PIPELINE", pipeline)
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
    if pipeline == "0":
        assert spec["dispatched"] == 0  # units held for a verdict are not speculation
    if kind in ("needblobs", "evicted-chunk"):
        assert faulted.host["wire"]["blob_resends"] >= 1
        assert not any(counts.values())
    elif kind == "crash-once":
        assert counts["crashes"] <= 1 and counts["serial_fallbacks"] == 0
    else:
        counter = {"error": "task_errors", "crash": "crashes", "hang": "timeouts"}
        assert counts[counter[kind]] >= 2 and counts["serial_fallbacks"] >= 1
        if pipeline == "1":
            assert spec["discarded"] >= 1


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
