"""Work counts: what one record or replay costs the coordinator, as counts.

No timing anywhere. Each test reads the ``work.*`` counters of one
``server_sync``-shaped run (the apache server, ``jobs=2``) and asserts
that the work done is proportional to what is new — the log records
logged, the positions actually missing at the merge, the pages actually
dirtied, the log blobs actually decoded, the kernel state actually
touched, the log records actually encoded, the blobs actually put into
the scratch pack and the bytes actually written to a worker's pipe —
not to the run so far. A record's and a replay's units take one path
(cut, pushed, merged in order by one stream), so the same counts say
what that stream does: each position cut once, what is lost cut again
alone, and the positions behind a crash still executing concurrently.
Two tests read the epoch lives themselves: the stream's order (every
push before the segment's first commit, no commit before its own unit
finished) and the calls into the telemetry plane, which follow the
epochs, never the guest ops.
"""

from __future__ import annotations

import os
import pickle

import pytest

from repro.baselines import run_native
from repro.checkpoint.manager import CheckpointManager
from repro.core import DoublePlayConfig, DoublePlayRecorder, Replayer
from repro.host import executor as host_executor
from repro.host.executor import HostExecutor
from repro.host.pool import shared_pool, shutdown_shared_pool
from repro.host.wire import replay_spans
from repro.host.worker import UnitDispatch
from repro.machine.config import MachineConfig
from repro.obs import events as obs_events
from repro.obs import histo as obs_histo
from repro.obs import spans as obs_spans
from repro.obs.lifecycle import Lives
from repro.obs.metrics import process_stats
from repro.record.log_index import SegmentLogs
from repro.workloads import build_workload
from tests import parity

JOBS = 2


@pytest.fixture(scope="module")
def server():
    instance = build_workload("apache", workers=2, scale=60, seed=11)
    machine = MachineConfig(cores=2)
    native = run_native(instance.image, instance.setup, machine)
    config = DoublePlayConfig(
        machine=machine,
        epoch_cycles=max(native.duration // 12, 500),
        host_jobs=JOBS,
    )
    return instance, machine, config


def _record(server, **overrides):
    instance, _, config = server
    return DoublePlayRecorder(
        instance.image, instance.setup, config.replace(**overrides)
    ).record()


def _work(result, name):
    return result.metrics.get("work", name)


@pytest.fixture
def contained_runs(monkeypatch):
    """Every entry into the counted path, as ``(batch kind, position)``."""
    entered = []
    run_contained = HostExecutor._run_contained

    def counted(self, batch, position):
        entered.append((batch.kind, position))
        return run_contained(self, batch, position)

    monkeypatch.setattr(HostExecutor, "_run_contained", counted)
    return entered


@pytest.mark.parametrize("program", ["server", "racy-io"])
@pytest.mark.parametrize("sink", ["memory", "log_dir"])
def test_each_log_record_is_indexed_once_per_segment(
    server, monkeypatch, tmp_path, program, sink
):
    """One index pair per segment, and nobody else indexes anything.

    Cutting a unit absorbs the records logged since the last cut; the
    durable sink takes an epoch's shard extents from that same index. So
    the records indexed are, per segment, the log as that segment saw it
    — with a sink or without, in a run that never diverges (one segment:
    each record once) and in one that recovers a dozen times (a recovery
    prunes the log in place, so the next segment indexes what is left).

    Fails if ``ShardedLogWriter.commit_epoch`` builds a ``ThreadLogIndex``
    of its own over the raw logs (the parent's, with a sink, indexed
    12 032 records for the 6 016 logged).
    """
    segments = []
    init = SegmentLogs.__init__

    def tracked(self, *args):
        init(self, *args)
        segments.append(self)

    monkeypatch.setattr(SegmentLogs, "__init__", tracked)
    overrides = {"log_dir": str(tmp_path / "log")} if sink == "log_dir" else {}
    if program == "server":
        result = _record(server, **overrides)
        assert result.stats["recoveries"] == 0 and result.stats["epochs"] >= 8
    else:
        built = parity.build(parity.RACY_IO)
        result = DoublePlayRecorder(
            built.instance.image, built.instance.setup,
            built.config.replace(host_jobs=JOBS, **overrides),
        ).record()
        assert result.stats["recoveries"] > 10
    recording = result.recording
    logged = len(recording.syscall_records) + len(recording.signal_records)
    assert logged > 100 * result.stats["epochs"] // 8
    assert len(segments) == result.stats["recoveries"] + 1
    indexed = sum(
        len(index._records) for logs in segments for index, _, _ in logs._logs
    )
    assert _work(result, "log_index_records") == indexed >= logged
    if program == "server":
        assert indexed == logged


def test_the_merge_builds_only_the_positions_not_in_hand(
    server, monkeypatch, contained_runs
):
    """Every position is cut once and pushed; one task error on a pushed
    position cuts that position again, alone.

    Fails if ``SpeculativeSession.harvest`` cuts again a position whose
    pushed value stands.
    """
    clean = _record(server)
    epochs = clean.stats["epochs"]
    assert clean.host["speculation"] == {
        "dispatched": epochs, "accepted": epochs, "invalidated": 0, "discarded": 0,
    }
    assert _work(clean, "units_built") == epochs and not contained_runs

    # One position's pushed unit is lost to a task error: it alone is
    # cut again (and contained: the error fires on every dispatch).
    monkeypatch.setenv("REPRO_FAULT", "error:unit3")
    faulted = _record(server)
    assert faulted.host["speculation"]["discarded"] == 1
    assert faulted.host["faults"]["serial_fallbacks"] == 1
    assert _work(faulted, "units_built") == epochs + 1
    assert contained_runs == [("record", 3)]
    assert faulted.recording.to_plain() == clean.recording.to_plain()


@pytest.mark.parametrize(
    "name,scale", [("fft", 8), ("apache", 60), ("racy-counter", 8)]
)
def test_a_fault_free_record_cuts_each_position_exactly_once(
    monkeypatch, contained_runs, name, scale
):
    """Units built == units pushed, nothing invalidated, no counted run —
    on a page-heavy program, a syscall-heavy one and one that recovers in
    most epochs (whose squashed futures' units are pushed and discarded,
    never cut twice, and whose restarted segments judge position 0 on
    the coordinator, with no unit).

    Fails if ``harvest`` treats every pushed value as invalid.
    """
    settled = []
    settle = host_executor.SpeculativeSession.settle

    def counted(self, position, value):
        settled.append(position)
        settle(self, position, value)

    monkeypatch.setattr(host_executor.SpeculativeSession, "settle", counted)
    instance = build_workload(name, workers=2, scale=scale, seed=11)
    machine = MachineConfig(cores=2)
    native = run_native(instance.image, instance.setup, machine)
    config = DoublePlayConfig(
        machine=machine, epoch_cycles=max(native.duration // 12, 500), host_jobs=JOBS
    )
    result = DoublePlayRecorder(instance.image, instance.setup, config).record()
    spec = result.host["speculation"]
    assert _work(result, "units_built") == spec["dispatched"]
    assert spec["dispatched"] + len(settled) >= result.stats["epochs"]
    assert spec["invalidated"] == 0 and not contained_runs
    assert not any(result.host["faults"].values())
    if name == "racy-counter":
        assert result.stats["recoveries"] > 1 and spec["discarded"] > 0
    else:
        assert spec["accepted"] == spec["dispatched"] == result.stats["epochs"]


def test_a_fleet_tenant_cuts_each_position_exactly_once(contained_runs):
    from repro.service import RecordService, ServiceConfig, SessionRequest

    report = RecordService(ServiceConfig(jobs=JOBS, max_active=2)).run([
        SessionRequest(sid=f"fft-{tenant}", workload="fft", workers=2, scale=4, seed=11)
        for tenant in range(2)
    ])
    assert report.ok, [r.error for r in report.results]
    for result in report.results:
        metrics = result.metrics
        assert metrics["work"]["units_built"] == metrics["record"]["epochs"] >= 8
        assert metrics["host"]["units"] == metrics["record"]["epochs"]
        assert not any(metrics["faults"].values())
    assert not contained_runs


def test_interning_visits_the_dirty_pages_and_one_table(server, monkeypatch):
    taken = []
    take = CheckpointManager.take

    def spy(self, engine, index):
        checkpoint = take(self, engine, index)
        taken.append(checkpoint)
        return checkpoint

    monkeypatch.setattr(CheckpointManager, "take", spy)
    result = _record(server)
    first_table = result.recording.initial_checkpoint.memory.page_count()
    dirty = sum(checkpoint.dirty_pages for checkpoint in taken)
    assert len(taken) == result.stats["epochs"] and dirty > 0
    assert 0 < _work(result, "pages_interned") <= dirty + first_table


@pytest.mark.parametrize("jobs", [2, 3, 4])
def test_a_replay_runs_every_unit_once_through_the_session(
    server, contained_runs, jobs
):
    """A replay is a session like a record segment's: N units pushed, N
    accepted, none through the counted path — and the ``jobs=1`` verdict.
    A unit is a span of epochs: ``3 * jobs`` of them (at most one per
    epoch), not one per epoch.

    Fails if ``harvest`` cuts again a position whose pushed value
    stands (at the parent a replay had its own loop, and
    ``host["speculation"]`` read all-zero).
    """
    instance, machine, _ = server
    recording = _record(server, host_jobs=1).recording
    replayer = Replayer(instance.image, machine)
    serial = replayer.replay_parallel(recording, jobs=1)
    pooled = replayer.replay_parallel(recording, jobs=jobs)
    units = len(replay_spans([epoch.duration for epoch in recording.epochs], jobs))
    assert units == min(3 * jobs, len(recording.epochs)) == pooled.host["units"]
    assert pooled.host["speculation"] == {
        "dispatched": units, "accepted": units, "invalidated": 0, "discarded": 0,
    }
    assert not contained_runs and not any(pooled.host["faults"].values())
    assert pooled.verified and serial.verified
    assert (pooled.total_cycles, pooled.makespan, pooled.epochs_replayed) == (
        serial.total_cycles, serial.makespan, serial.epochs_replayed,
    )
    assert pooled.jobs == pooled.host["jobs"] == jobs


#: the position whose every first two dispatches crash their worker: an
#: interior unit of a record segment (one unit per epoch) or of a replay
#: (one unit per span, ``3 * JOBS`` of them)
CRASHED = {"record": 3, "replay": 1}


@pytest.mark.parametrize("kind", ["replay", "record"])
def test_the_positions_behind_a_crash_keep_executing_concurrently(
    server, monkeypatch, tmp_path, contained_runs, kind
):
    """One crash does not serialise what is behind it.

    Position K's pushed attempt kills its worker, and with it the pool
    and every attempt in its windows; so does K's first counted attempt;
    its retry runs clean. What died is pushed again, without blame, when
    containment abandons the pool — before K's retry is even dispatched
    — and what was still queued moves to the rebuilt pool, so no
    position behind K goes through the counted path, the fault counters
    name K alone, and the result is the ``jobs=1`` one. (The last unit
    is slowed so that it is in the pool when K's counted attempt kills
    it: a record segment pushes it last; a replay pushes all its units
    up front, so the last one moves to the first rebuilt pool queued
    just ahead of K's counted attempt — unslowed, it may be home before
    that attempt dies, and then nothing is pushed again. A replay's
    units behind K run on two pools: what was queued on the first
    rebuilt one, what was in a window on the next.)

    Fails if ``_run_contained`` does not push the dead attempts again
    after ``abandon`` — the parent's record merge, where each position
    that died went through the counted path after K, one at a time.
    """
    instance, machine, config = server
    monkeypatch.setenv("REPRO_FAULT_STATE", str(tmp_path / "fuses"))
    serial = _record(server, host_jobs=1)
    recording = serial.recording
    assert len(recording.epochs) >= 12
    crashed = CRASHED[kind]
    units = len(recording.epochs) if kind == "record" else 3 * JOBS
    # Two one-shot fuses for K (they differ in scope); the last unit slow.
    faults = (
        f"crash:unit{crashed}:once,{kind}:crash:unit{crashed}:once,"
        f"{kind}:slow:unit{units - 1}:0.4"
    )
    replayer = Replayer(instance.image, machine)
    # Outside the trace: an inline replay's execute spans name positions too.
    expected = replayer.replay_parallel(recording, jobs=1)
    tracer = obs_spans.start_trace()
    try:
        if kind == "record":
            result = _record(server, host_faults=faults)
            assert result.recording.to_plain() == recording.to_plain()
            assert result.stats == serial.stats
            host = result.host
        else:
            outcome = replayer.replay_parallel(recording, jobs=JOBS, fault_specs=faults)
            assert outcome.verified and (outcome.total_cycles, outcome.makespan) == (
                expected.total_cycles, expected.makespan,
            )
            host = outcome.host
    finally:
        obs_spans.stop_trace()
        shutdown_shared_pool()  # killed workers stay out of later tests
    # Blame: K's one counted crash, saved by its retry.
    assert {event["position"] for event in host["fault_events"]} == {crashed}
    assert host["faults"] == {
        "crashes": 1, "timeouts": 0, "task_errors": 0, "retries": 1,
        "serial_fallbacks": 0,
    }
    # Nothing behind K went through the counted path, or ran here.
    assert (kind, crashed) in contained_runs
    assert all(position <= crashed for _, position in contained_runs)
    behind = host["unit_pids"][crashed + 1:]
    assert os.getpid() not in behind
    # Every attempt pushed again started before K's retry had finished.
    spans = [s for s in tracer.spans if s.args.get("position") is not None]
    dispatched = sorted(
        (s for s in spans if s.name == "dispatch" and s.args["position"] == crashed),
        key=lambda s: s.start,
    )
    (retried,) = [
        s for s in spans if s.name == "execute"
        and s.args["position"] == crashed and s.args["kind"] == kind
    ]
    assert len(dispatched) == 3 and retried.track != tracer.pid
    pushed_again = [
        s for s in spans if s.name == "dispatch" and s.args["position"] > crashed
        and s.start > dispatched[1].start
    ]
    assert all(s.args.get("speculative") for s in pushed_again)
    assert all(s.start < dispatched[2].start < retried.end for s in pushed_again)
    if kind == "replay":
        assert pushed_again and len(set(behind)) >= 2  # two workers, still


def test_a_replay_indexes_the_log_once_per_worker(server):
    _, machine, _ = server
    instance = server[0]
    recording = _record(server).recording
    assert len(recording.epochs) > JOBS + 1
    replayer = Replayer(instance.image, machine)
    shutdown_shared_pool()  # cold workers: each must decode the log blob
    try:
        pooled = replayer.replay_parallel(recording, jobs=JOBS)
        assert pooled.verified
        assert 1 <= _work(pooled, "injection_index_builds") <= JOBS + 1
    finally:
        shutdown_shared_pool()
    serial = replayer.replay_parallel(recording, jobs=1)
    assert serial.verified
    assert _work(serial, "injection_index_builds") == 1


def _kernel_words(state):
    """Guest words a kernel snapshot holds: files, conversations, output."""
    (files, _, _), net, _, _, output, *_ = state
    return (
        sum(len(words) for words in files.values())
        + sum(len(payload) + len(sent) for payload, _, sent in net[3].values())
        + len(output)
    )


def test_snapshots_freeze_what_the_epoch_touched(server):
    """Checkpointing the kernel costs what the epochs did, not the run so far.

    A server's kernel state is its conversations, and it grows all run
    long. Copy-on-write snapshots freeze a connection again only when an
    epoch touched it, so all the snapshots of a record together copy
    about the final state once — at 4x the requests 4x the words, at
    twice the checkpoints no more. (Copying every connection at every
    checkpoint costs half the epoch count times that, and doubles with
    the checkpoints.)
    """
    _, machine, config = server

    def frozen(scale, epochs):
        instance = build_workload("apache", workers=2, scale=scale, seed=11)
        native = run_native(instance.image, instance.setup, machine)
        result = DoublePlayRecorder(
            instance.image, instance.setup,
            config.replace(epoch_cycles=native.duration // epochs, host_jobs=1),
        ).record()
        assert abs(result.stats["epochs"] - epochs) <= 1
        return (
            _work(result, "snapshot_words"),
            _kernel_words(result.final_kernel_state),
        )

    words, state = frozen(60, 12)
    more_words, more_state = frozen(240, 12)
    assert more_state > 3.5 * state > 0
    assert state <= words <= 1.5 * state
    assert more_state <= more_words <= 1.5 * more_state
    finer_words, same_state = frozen(60, 24)
    assert same_state == state and finer_words <= 1.2 * words


def test_each_log_record_is_encoded_once_per_segment(server):
    """The log travels as chunks: however many units can see a record —
    cut ahead, on the tail or again at the merge — it is encoded for
    the wire exactly once."""
    result = _record(server)
    assert result.stats["recoveries"] == 0
    assert result.host["speculation"]["dispatched"] == result.stats["epochs"]
    logged = len(result.recording.syscall_records)
    assert _work(result, "syscall_records_encoded") == logged > 1000


class _WatchedPool:
    """The shared ``JOBS``-worker pool, keeping what crossed it; patched in
    as the executor's ``shared_pool``.

    Per dispatch: the unit, the bytes pickled for the worker's pipe, and
    what building it put into the scratch pack (blobs, bytes).
    """

    def __init__(self, monkeypatch):
        self.seen = []
        monkeypatch.setattr(host_executor, "shared_pool", lambda jobs: self)

    def submit(self, fn, dispatch):
        self.seen.append(
            (dispatch.unit, len(pickle.dumps(dispatch)), dispatch.placed[:2], dispatch)
        )
        return shared_pool(JOBS).submit(fn, dispatch)


@pytest.mark.parametrize("jobs", [1, 2, 3, 4])
def test_a_unit_crosses_the_pipe_as_its_skeleton_cold_or_warm(server, monkeypatch, jobs):
    """What is pickled for a worker is the skeleton dispatch, nothing else.

    The same program recorded against an empty scratch pack and again
    against a full one: at any ``jobs`` (executor-side: the window, the
    pipeline; one two-worker pool serves them all, warm from whatever ran
    before) each unit's pickled dispatch is exactly ``pickle.dumps`` of
    its machine, unit, program digest, pack path and options
    — while the pack took every blob the first time and none the second.
    (``jobs=1`` never builds a dispatch at all.)

    Fails if ``UnitDispatch.__getstate__`` stops blanking
    ``_local_program``.
    """
    shutdown_shared_pool()
    runs = []
    for _ in ("cold", "warm"):
        seam = _WatchedPool(monkeypatch)
        result = _record(server, host_jobs=jobs)
        runs.append((seam.seen, result))
    if jobs == 1:
        assert not runs[0][0] and not runs[1][0]
        return
    for seen, result in runs:
        assert len(seen) == result.stats["epochs"]
        for unit, pickled, _, dispatch in seen:
            skeleton = UnitDispatch(
                machine=dispatch.machine, unit=unit,
                program_digest=dispatch.program_digest, pack=dispatch.pack,
                options=dispatch.options,
            )
            assert pickled == len(pickle.dumps(skeleton))
    (cold, cold_result), (warm, warm_result) = runs
    assert [size for _, size, _, _ in cold] == [size for _, size, _, _ in warm]
    assert cold_result.host["wire"]["bytes_shipped"] > 100 * len(cold)
    assert sum(blobs for _, _, (blobs, _), _ in cold) > 3 * len(cold)
    assert warm_result.host["wire"]["bytes_shipped"] == 0
    assert all(placed == (0, 0) for _, _, placed, _ in warm)


def test_replaying_a_recording_again_puts_nothing():
    """One recording, replayed five times on one ``jobs=4`` pool: the
    first replay puts its blobs, replays 2-5 put none — whichever of the
    four workers took a unit reads what it lacks (at the parent, where a
    blob was omitted only once *every* worker was known to hold it, fft
    shipped the same 150 kB on each of the five).

    Fails if ``BlobStore.put`` stops returning early for a digest it
    already indexes.
    """
    instance = build_workload("fft", workers=2, scale=2, seed=11)
    machine = MachineConfig(cores=2)
    native = run_native(instance.image, instance.setup, machine)
    config = DoublePlayConfig(
        machine=machine, epoch_cycles=max(native.duration // 12, 500), host_jobs=1
    )
    recording = DoublePlayRecorder(instance.image, instance.setup, config).record().recording
    replayer = Replayer(instance.image, machine)
    shutdown_shared_pool()
    try:
        shipped = []
        for _ in range(5):
            outcome = replayer.replay_parallel(recording, jobs=4)
            assert outcome.verified and not any(outcome.host["faults"].values())
            shipped.append(outcome.host["wire"]["bytes_shipped"])
    finally:
        shutdown_shared_pool()
    assert shipped[0] > 5_000 and shipped[1:] == [0, 0, 0, 0]


def test_a_unit_cut_mid_segment_puts_its_delta_and_its_new_chunk(server, monkeypatch):
    """O(new), carried onto the scratch pack: a unit names its whole
    page table and every log chunk it can reach, and puts only what no
    earlier unit named — its epoch's dirty pages, the chunk logged since
    the last cut, its hint window and its signal slice.

    Fails if ``ScratchPacks.place`` rotates at every call.
    """
    shutdown_shared_pool()
    seam = _WatchedPool(monkeypatch)
    result = _record(server)
    assert result.host["speculation"]["accepted"] == result.stats["epochs"] >= 8
    named = set()
    for position, (unit, _, (blobs, _), dispatch) in enumerate(seam.seen):
        assert unit.position == position
        required = dispatch.required_digests()
        new = required - named
        named |= required
        assert blobs == len(new)
        if position:
            pages = set(unit.boundary.page_changes.values())
            assert len(new - pages) <= 3
            assert 0 < blobs <= len(pages) + 3 and blobs < len(required)
    # ...of the chunks a unit names, at most the last one is new.
    assert max(len(unit.syscalls) for unit, *_ in seam.seen) > 1
    first_table = result.recording.initial_checkpoint.memory.page_count()
    assert seam.seen[0][2][0] >= first_table


#: ``wire.bytes_shipped`` of the cold record below at the parent commit
#: (49be383), where every unit shipped its own slice of the log, each
#: record pickled as a frozen dataclass. Measured there five times over,
#: the same every time: the record is over before the pool is up, so
#: all its units are submitted together, against an empty cache mirror.
PARENT_COLD_BYTES = 534_209


def test_a_cold_record_ships_the_log_as_shared_chunks():
    """Cold workers and an empty scratch pack: chunks in plain form, each
    put once, are at most 0.7x the bytes of per-unit slices."""
    instance = build_workload("apache", workers=2, scale=240, seed=11)
    machine = MachineConfig(cores=2)
    native = run_native(instance.image, instance.setup, machine)
    config = DoublePlayConfig(
        machine=machine, epoch_cycles=native.duration // 12, host_jobs=JOBS
    )
    shutdown_shared_pool()
    try:
        result = DoublePlayRecorder(instance.image, instance.setup, config).record()
    finally:
        shutdown_shared_pool()
    assert result.stats["epochs"] == 12 and not any(result.host["faults"].values())
    assert 0 < result.host["wire"]["bytes_shipped"] <= 0.7 * PARENT_COLD_BYTES


@pytest.mark.parametrize("jobs", [2, 4])
@pytest.mark.parametrize("program", ["pbzip", "racy-counter"])
def test_the_merge_is_one_in_order_stream(program, jobs):
    """The stream's order, read off the epoch lives (no wall-clock ratio).

    When the thread-parallel run of a segment ends its tail units are
    pushed first, then epochs commit while the units behind the merge
    head still execute: every pushed attempt's dispatch starts before
    its segment's first commit does, and no epoch commits before the
    execution it commits — its unit's, its inline verdict's, or its
    recovery — has finished. pbzip never diverges (one segment, every
    push accepted); racy-counter squashes, recovers and restarts most of
    its segments, and a restarted segment that pushed nothing is one
    squashed at boundary 1 by position 0's verdict, run on the
    coordinator.
    """
    instance = build_workload(program, workers=2, scale=16, seed=11)
    machine = MachineConfig(cores=2)
    native = run_native(instance.image, instance.setup, machine)
    config = DoublePlayConfig(
        machine=machine, epoch_cycles=max(native.duration // 12, 500), host_jobs=jobs
    )
    tracer = obs_spans.start_trace()
    try:
        result = DoublePlayRecorder(instance.image, instance.setup, config).record()
    finally:
        obs_spans.stop_trace()
    (lives,) = tracer.runs
    segments = []
    for life in lives.all:
        if life.position == 0:
            segments.append([])
        segments[-1].append(life)
    assert len(segments) == result.stats["recoveries"] + (
        0 if lives.all[-1].recovery else 1
    )
    committed = [life for life in lives.all if life.commit]
    assert len(committed) == result.stats["epochs"] > 2
    for segment in segments:
        commits = [life.commit[0] for life in segment if life.commit]
        pushes = [
            attempt.dispatch[0]
            for life in segment for attempt in life.attempts if attempt.pushed
        ]
        assert commits
        if pushes:
            assert max(pushes) < min(commits)
        else:
            assert [life.fate for life in segment] == ["inline"]
            assert segment[0].position == 0 and segment[0].recovery
    for life in committed:
        timing = life.attempts[-1].timing
        finished = timing.started + timing.wall
        if life.recovery:
            assert life.fate in ("accepted", "inline")
            assert finished <= life.divergence[0]
            finished = life.recovery[1]
        assert finished <= life.commit[0], f"epoch {life.epoch} committed early"
    if program == "pbzip":
        assert len(segments) == 1
        assert {life.fate for life in lives.all} == {"accepted"}


def test_telemetry_off_costs_per_epoch_never_per_op(monkeypatch):
    """Always on, O(epochs), as a count: 4x the guest ops, the same calls.

    Every hook a record passes through — process counters, the epoch
    lives' transitions, histogram observes, journal emits — is spied on
    during a ``jobs=1`` record with no tracer and no journal. Two fft
    runs cut into the same number of epochs, one with four times the
    guest ops, must make exactly the same number of calls into each.

    Fails if a hook moves onto the guest's path, e.g. with
    ``obs_metrics.process_stats().add("exec.timeslices")`` beside
    ``budget = self.config.quantum`` in ``UniprocessorEngine.run`` (one
    call per timeslice: 4x the ops, 4x the calls). The engines are handed
    no ``Lives``, so a transition cannot get there at all.
    """
    transitions = [
        name for name, member in vars(Lives).items()
        if callable(member) and not name.startswith("_")
    ]

    def calls_of_a_record(scale):
        instance = build_workload("fft", workers=2, scale=scale, seed=11)
        machine = MachineConfig(cores=2)
        native = run_native(instance.image, instance.setup, machine)
        config = DoublePlayConfig(
            machine=machine, epoch_cycles=max(native.duration // 18, 500), host_jobs=1
        )
        calls = dict.fromkeys(("add", "lives", "observe", "emit"), 0)
        with monkeypatch.context() as patch:
            for owner, name, counted in (
                (process_stats(), "add", "add"), (obs_histo, "observe", "observe"),
                (obs_events, "emit", "emit"),
                *((Lives, name, "lives") for name in transitions),
            ):
                def spy(*args, _name=counted, _hook=getattr(owner, name), **kwargs):
                    calls[_name] += 1
                    return _hook(*args, **kwargs)

                patch.setattr(owner, name, spy)
            result = DoublePlayRecorder(instance.image, instance.setup, config).record()
        ops = sum(ctx.retired for ctx in native.engine.contexts.values())
        return ops, result.stats["epochs"], calls

    assert not obs_spans.enabled()
    ops, epochs, calls = calls_of_a_record(8)
    more_ops, same_epochs, same_calls = calls_of_a_record(32)
    assert more_ops > 3.5 * ops and same_epochs == epochs >= 16
    assert same_calls == calls and min(calls.values()) >= epochs
