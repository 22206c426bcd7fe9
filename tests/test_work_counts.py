"""Work counts: what one record or replay costs the coordinator, as counts.

No timing anywhere. Each test reads the ``work.*`` counters of one
``server_sync``-shaped run (the apache server, ``jobs=2``) and asserts
that the work done is proportional to what is new — the log records
logged, the positions actually missing at the merge, the pages actually
dirtied, the log blobs actually decoded, the kernel state actually
touched, the log records actually encoded, the blobs actually put into
the scratch pack and the bytes actually written to a worker's pipe —
not to the run so far. The last one counts the calls into the telemetry
plane itself: with telemetry off they follow the epochs, never the
guest ops.
"""

from __future__ import annotations

import pickle

import pytest

from repro.baselines import run_native
from repro.checkpoint.manager import CheckpointManager
from repro.core import DoublePlayConfig, DoublePlayRecorder, Replayer
from repro.host.executor import _DirectDispatcher
from repro.host.pool import shutdown_shared_pool
from repro.host.worker import UnitDispatch
from repro.machine.config import MachineConfig
from repro.obs import events as obs_events
from repro.obs import histo as obs_histo
from repro.obs import spans as obs_spans
from repro.obs.metrics import process_stats
from repro.workloads import build_workload

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


def test_each_log_record_is_indexed_once_per_segment(server):
    """Cutting a unit absorbs the records logged since the last cut.

    One segment, no durable sink (which keeps an index of its own): the
    segment's index pair absorbed each record exactly once, however
    many units were cut from it.
    """
    result = _record(server)
    recording = result.recording
    assert result.stats["recoveries"] == 0 and result.stats["epochs"] >= 8
    logged = len(recording.syscall_records) + len(recording.signal_records)
    assert logged > 100 * result.stats["epochs"] // 8
    assert _work(result, "log_index_records") == logged


def test_the_merge_builds_only_the_positions_not_in_hand(server, monkeypatch):
    """Every position is cut once, ahead; the merge rebuilds what it lost."""
    clean = _record(server)
    epochs = clean.stats["epochs"]
    assert clean.host["speculation"] == {
        "dispatched": epochs, "accepted": epochs, "invalidated": 0, "discarded": 0,
    }
    assert _work(clean, "units_built") == epochs

    # One position's pushed unit is lost to a task error: it alone is
    # built again (and contained: the error fires on every dispatch).
    monkeypatch.setenv("REPRO_FAULT", "error:unit3")
    faulted = _record(server)
    assert faulted.host["speculation"]["discarded"] == 1
    assert faulted.host["faults"]["serial_fallbacks"] == 1
    assert _work(faulted, "units_built") == epochs + 1

    # Nothing pushed ahead: every position is missing at the merge.
    monkeypatch.delenv("REPRO_FAULT")
    monkeypatch.setenv("REPRO_PIPELINE", "0")
    phased = _record(server)
    assert phased.host["speculation"]["dispatched"] == 0
    assert _work(phased, "units_built") == epochs
    assert phased.recording.to_plain() == clean.recording.to_plain()


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


@pytest.mark.parametrize("pipeline", ["1", "0"])
def test_each_log_record_is_encoded_once_per_segment(server, monkeypatch, pipeline):
    """The log travels as chunks: however many units can see a record —
    cut ahead, on the tail or rebuilt at the merge — it is encoded for
    the wire exactly once."""
    monkeypatch.setenv("REPRO_PIPELINE", pipeline)
    result = _record(server)
    assert result.stats["recoveries"] == 0
    assert result.host["speculation"]["dispatched"] == (
        result.stats["epochs"] if pipeline == "1" else 0
    )
    logged = len(result.recording.syscall_records)
    assert _work(result, "syscall_records_encoded") == logged > 1000


class _WatchedDispatcher(_DirectDispatcher):
    """The direct submission path, keeping what crossed it.

    Per dispatch: the unit, the bytes pickled for the worker's pipe, and
    what building it put into the scratch pack (blobs, bytes).
    """

    def __init__(self, jobs):
        super().__init__(jobs)
        self.seen = []

    def submit(self, fn, dispatch):
        self.seen.append(
            (dispatch.unit, len(pickle.dumps(dispatch)), dispatch.placed[:2], dispatch)
        )
        return super().submit(fn, dispatch)


@pytest.mark.parametrize("jobs", [1, 2, 3, 4])
def test_a_unit_crosses_the_pipe_as_its_skeleton_cold_or_warm(server, jobs):
    """What is pickled for a worker is the skeleton dispatch, nothing else.

    The same program recorded against an empty scratch pack and again
    against a full one: at any ``jobs`` (executor-side: the window, the
    pipeline; one two-worker pool serves them all, warm from whatever ran
    before) each unit's pickled dispatch is exactly ``pickle.dumps`` of
    its machine, unit, program digest, pack path, trace flag and options
    — while the pack took every blob the first time and none the second.
    (``jobs=1`` never builds a dispatch at all.)

    Fails if ``UnitDispatch.__getstate__`` stops blanking
    ``_local_program``.
    """
    shutdown_shared_pool()
    runs = []
    for _ in ("cold", "warm"):
        seam = _WatchedDispatcher(JOBS)
        result = _record(server, host_jobs=jobs, host_dispatcher=seam)
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
                trace=dispatch.trace, options=dispatch.options,
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


def test_a_unit_cut_mid_segment_puts_its_delta_and_its_new_chunk(server):
    """O(new), carried onto the scratch pack: a unit names its whole
    page table and every log chunk it can reach, and puts only what no
    earlier unit named — its epoch's dirty pages, the chunk logged since
    the last cut, its hint window and its signal slice.

    Fails if ``ScratchPacks.place`` rotates at every call.
    """
    shutdown_shared_pool()
    seam = _WatchedDispatcher(JOBS)
    result = _record(server, host_dispatcher=seam)
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


def test_telemetry_off_costs_per_epoch_never_per_op(monkeypatch):
    """Disabled means free, as a count: 4x the guest ops, the same calls.

    Every hook a record passes through — process counters, span sites,
    histogram observes, journal emits — is spied on during a ``jobs=1``
    record with no tracer and no journal. Two fft runs cut into the same
    number of epochs, one with four times the guest ops, must make
    exactly the same number of calls into each.
    """
    def calls_of_a_record(scale):
        instance = build_workload("fft", workers=2, scale=scale, seed=11)
        machine = MachineConfig(cores=2)
        native = run_native(instance.image, instance.setup, machine)
        config = DoublePlayConfig(
            machine=machine, epoch_cycles=max(native.duration // 18, 500), host_jobs=1
        )
        calls = dict.fromkeys(("add", "span", "observe", "emit"), 0)
        with monkeypatch.context() as patch:
            for owner, name in (
                (process_stats(), "add"), (obs_spans, "span"),
                (obs_histo, "observe"), (obs_events, "emit"),
            ):
                def spy(*args, _name=name, _hook=getattr(owner, name), **kwargs):
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
