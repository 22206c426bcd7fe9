"""One epoch-unit path: execute and dispatch exist once each.

The host layer runs a unit through one routine wherever it runs — a pool
worker (pushed or counted attempt, solo or a service tenant's) or the
coordinator's serial fallback. These tests pin that directly: the two
callers of the one execute routine agree on values and counters, the
one dispatch routine records every attempt (so every span derives from
it), for a record and a replay, a bug in building a dispatch is not
mistaken for a host fault, and a warm pool honours the coordinator's
runtime options (the superblock switch), not its spawn environment.
"""

from __future__ import annotations

import dataclasses
import pickle

import pytest

from repro.host import executor as host_executor
from repro.host import worker as host_worker
from repro.host.blobs import BlobCache
from repro.host.pool import shared_pool, shutdown_shared_pool
from repro.host.wire import RecordEpochUnit, ReplayEpochUnit, replay_spans
from repro.obs import metrics as obs_metrics
from repro.obs import spans as obs_spans
from tests import parity
from tests.parity import Program

PBZIP = Program("pbzip", 2)


class _CapturingPool:
    """Stands in for the shared pool, with no worker behind it.

    Every dispatch the executor builds is kept and then refused, so
    each unit exhausts its pool attempts and runs through the
    coordinator's serial fallback. Abandoning it is a no-op, so the
    scratch pack the dispatches name stays readable.
    """

    def __init__(self):
        self.dispatches = []

    def __call__(self, jobs):
        return self  # as ``shared_pool(jobs)``

    def submit(self, fn, dispatch):
        assert fn is host_worker.run_unit, "a second worker entry point exists"
        self.dispatches.append(dispatch)
        raise RuntimeError("no worker behind this pool")


@pytest.fixture
def captured(monkeypatch):
    """One record and one replay dispatch, captured pool-free."""
    seam = _CapturingPool()
    monkeypatch.setattr(host_executor, "shared_pool", seam)
    monkeypatch.setattr(host_executor, "abandon", lambda future, kill: None)
    got = parity.observe(PBZIP, jobs=2)
    # Every unit fell back to the serial wrapper and the oracle held.
    parity.assert_parity(got)
    assert got.host["faults"]["serial_fallbacks"] == got.host["units"]
    parity.assert_parity(parity.observe_replay(PBZIP, got.recording, jobs=2))
    by_kind = {}
    for dispatch in seam.dispatches:
        by_kind.setdefault(type(dispatch.unit), []).append(dispatch)
    # The record unit whose log spans the most chunks: the worker joins
    # them out of its cache, the fallback out of the coordinator's.
    record = max(by_kind[RecordEpochUnit], key=lambda d: len(d.unit.syscalls))
    assert len(record.unit.syscalls) > 1
    return record, by_kind[ReplayEpochUnit][0]


def _run_both_ways(monkeypatch, dispatch):
    """(worker outcome, serial outcome), each as (value, counters)."""
    # run_unit is about to run in *this* process: keep its per-worker
    # state (pinned programs, blob cache, pack reader) out of later tests.
    monkeypatch.setattr(host_worker, "_worker_programs", {})
    monkeypatch.setattr(host_worker, "_worker_cache", BlobCache(0))
    monkeypatch.setattr(host_worker, "_worker_pack", None)
    stats = obs_metrics.process_stats()
    saved = stats.snapshot()
    try:
        shipped = pickle.loads(pickle.dumps(dispatch))
        assert shipped._local_program is None
        unit = shipped.unit
        if isinstance(unit, ReplayEpochUnit):
            assert all(epoch.start._local is None for epoch in unit.epochs)
        else:
            assert unit.start._local is None
        assert all(chunk._local is None for chunk in shipped.unit.syscalls)
        _, worker_value, timing = host_worker.run_unit(shipped)
        assert not isinstance(worker_value, Exception), worker_value
        # Nothing travelled with it: every digest was read from the pack.
        assert timing.blob_cache_misses == len(shipped.required_digests())
        assert timing.blob_cache_hits == 0

        local = host_worker.UnitDispatch(
            dispatch.machine,
            dispatch.unit,
            dispatch.program_digest,
            _local_program=dispatch._local_program,
        )
        stats.clear()
        _, serial_value, _ = host_worker.run_unit_serial(local)
        serial_counters = obs_metrics.drain_process()
    finally:
        stats.clear()
        stats.update_from(saved)
    return (worker_value, dict(timing.metrics)), (serial_value, serial_counters)


def test_record_unit_worker_entry_equals_serial_fallback(monkeypatch, captured):
    # Fusion counters depend on how warm a program image's block table is
    # (a shipped image starts cold), so they are switched off — through
    # the dispatch, which is the only channel a worker listens to.
    record_dispatch, _ = captured
    record_dispatch.options = dataclasses.replace(
        record_dispatch.options, superblocks=False
    )
    monkeypatch.setenv("REPRO_SUPERBLOCKS", "0")
    (worker, worker_counters), (serial, serial_counters) = _run_both_ways(
        monkeypatch, record_dispatch
    )
    for name in (
        "epoch_index", "ok", "duration", "end_digest", "reason",
        "syscalls_consumed", "starved",
    ):
        assert getattr(worker, name) == getattr(serial, name), name
    assert worker.ok
    assert worker.schedule.slices == serial.schedule.slices
    assert worker.committed_sync.events == serial.committed_sync.events
    assert worker_counters == serial_counters
    assert worker_counters["exec.epochs"] == 1


def test_replay_unit_worker_entry_equals_serial_fallback(monkeypatch, captured):
    _, replay_dispatch = captured
    replay_dispatch.options = dataclasses.replace(
        replay_dispatch.options, superblocks=False
    )
    monkeypatch.setenv("REPRO_SUPERBLOCKS", "0")
    (worker, worker_counters), (serial, serial_counters) = _run_both_ways(
        monkeypatch, replay_dispatch
    )
    # (cycles, failure) per epoch of the span; every epoch but the
    # first started from a delta against the one before it.
    assert worker == serial
    assert len(worker) == len(replay_dispatch.unit.epochs) > 1
    assert all(cycles > 0 and failure is None for cycles, failure in worker)
    assert worker_counters == serial_counters
    assert worker_counters["replay.epochs"] == len(worker)


def test_one_dispatch_routine_emits_every_span():
    """Pushes (record and replay), contained retry and serial fallback, traced.

    A jobs=2 record where unit 1 raises in the worker on both pool
    attempts (it must fall back to the coordinator).
    """
    shutdown_shared_pool()  # an empty scratch pack: every span ships bytes
    tracer = obs_spans.start_trace()
    try:
        record = parity.observe(PBZIP, jobs=2, fault="record:error:unit1")
        replay = parity.observe_replay(PBZIP, record.recording, jobs=2)
    finally:
        obs_spans.stop_trace()
    parity.assert_parity(record)
    parity.assert_parity(replay)
    result, outcome = record.result, replay.result

    def spans(name):
        return [s for s in tracer.spans if s.name == name]

    dispatches = spans("dispatch")
    assert all(s.cat == obs_spans.CAT_WIRE for s in dispatches)
    speculative = [s for s in dispatches if s.args.get("speculative")]
    assert speculative, "no pushed dispatch span"
    assert all(s.args["speculative"] is True for s in speculative)
    # Every push is one such span, a record's and a replay's alike; a
    # healthy replay pushes each unit (a span of epochs) once and accepts it.
    epochs = result.recording.epochs
    units = len(replay_spans([epoch.duration for epoch in epochs], 2))
    assert units < len(epochs)
    assert outcome.host["speculation"] == {
        "dispatched": units, "accepted": units, "invalidated": 0, "discarded": 0,
    }
    assert result.host["speculation"]["dispatched"] + units == len(speculative)
    for span in dispatches:
        assert set(span.args) - {"speculative"} == {"position", "bytes"}
    # What the spans say was put is what the run accounts, and no other
    # wire span exists: nothing is ever sent twice.
    assert {s.name for s in tracer.spans if s.cat == obs_spans.CAT_WIRE} == {
        "dispatch", "wire-decode",
    }
    assert [run.host["wire"]["blob_resends"] for run in (result, outcome)] == [0, 0]
    assert sum(s.args["bytes"] for s in dispatches) == sum(
        run.host["wire"]["bytes_shipped"] for run in (result, outcome)
    ) > 0
    kinds = {}
    for span in spans("execute"):
        kinds.setdefault(span.args["kind"], []).append(span)
    assert set(kinds) == {"record", "record-serial", "replay"}
    assert len(kinds["replay"]) == units
    assert result.host["faults"]["serial_fallbacks"] == len(kinds["record-serial"])
    assert all(s.args["position"] == 1 for s in kinds["record-serial"])
    assert all(s.track == tracer.pid for s in kinds["record-serial"])
    assert all(s.track != tracer.pid for s in kinds["record"])


def test_a_bug_in_building_a_dispatch_is_not_contained(monkeypatch):
    """Regression: ``_dispatch`` swallowed builder errors with submit's.

    A programming error while a dispatch is built used to be reported as
    a broken pool, retried on a rebuilt one and hidden behind the serial
    fallback. Only host failures are contained; this one raises.
    """
    def broken(self, batch, position):
        raise KeyError("a digest the batch never interned")

    monkeypatch.setattr(host_executor.HostExecutor, "_make_dispatch", broken)
    with pytest.raises(KeyError, match="never interned"):
        parity.observe(PBZIP, jobs=2)


def test_an_unwritable_scratch_pack_is_contained(monkeypatch, tmp_path):
    """A pack that cannot be flushed (disk full, its directory gone) is a
    host failure: journalled, retried, then run on the coordinator —
    and the recording is the ``jobs=1`` one."""
    from repro.obs import events as obs_events
    from repro.record.pack import BlobStore

    def disk_full(self, fsync=False):
        raise OSError(28, "No space left on device")

    sink = str(tmp_path / "events.jsonl")
    obs_events.install_journal(sink)
    try:
        with monkeypatch.context() as patch:
            patch.setattr(BlobStore, "flush", disk_full)
            got = parity.observe(PBZIP, jobs=2)
        contained = [
            e for e in obs_events.read_events(sink) if e["kind"] == "fault-contained"
        ]
    finally:
        obs_events.uninstall_journal()
        shutdown_shared_pool()
    parity.assert_parity(got)
    result = got.result
    faults = result.host["faults"]
    assert faults["serial_fallbacks"] == result.host["units"] > 0
    assert contained and all(e["fault"] == "crash" for e in contained)
    assert all(
        "scratch pack cannot be written" in event["error"]
        for event in result.host["fault_events"]
    )
    assert result.host["wire"]["bytes_shipped"] == 0


def test_warm_pool_honours_the_coordinators_superblock_switch(monkeypatch):
    """Regression: workers kept the fusion setting they were spawned with."""
    shutdown_shared_pool()
    monkeypatch.delenv("REPRO_SUPERBLOCKS", raising=False)
    try:
        shared_pool(2)  # spawned with fusion ON in their environment
        warm = parity.observe(Program("fft", 3), jobs=2)
        fused = warm.result.metrics.snapshot()["superblock"]["fused_calls"]
        assert fused > 0, "fusion never ran: the regression below is vacuous"

        # The coordinator switches fusion off; the warm workers follow.
        result = parity.observe(Program("fft", 3), jobs=2, superblocks=False)
        parity.assert_parity(result)  # and no fused call anywhere
        assert result.host["units"] > 0
    finally:
        shutdown_shared_pool()


def test_a_pool_that_never_comes_up_is_accounted_as_lost_units(monkeypatch):
    """``submit`` raises every time: nothing is ever pushed, every
    verdict and every merge position goes through the contained path —
    and the recording is still the ``jobs=1`` one.

    The speculation counts are counts of fates, so they partition the
    units handed to the session whatever the pool did. (At the parent
    this run read dispatched 0 / accepted 10 / discarded -10: ``wait``
    re-obtained verdicts nothing had pushed, ``harvest`` counted them
    accepted, and ``discarded`` was a remainder.)
    """
    def no_pool(jobs):
        raise RuntimeError("the pool cannot be brought up")

    program = Program("racy-counter", 2)
    assert parity.oracle(program).result.stats["recoveries"] >= 3
    monkeypatch.setattr(host_executor, "shared_pool", no_pool)
    got = parity.observe(program, jobs=2)
    parity.assert_parity(got)
    speculation = got.host["speculation"]
    assert all(count >= 0 for count in speculation.values()), speculation
    assert speculation["dispatched"] == (
        speculation["accepted"] + speculation["invalidated"]
        + speculation["discarded"]
    ) >= got.host["units"] > 0
    assert speculation["accepted"] == 0
    assert got.host["faults"]["serial_fallbacks"] >= got.host["units"]
