"""Work counts: what one record or replay costs the coordinator, as counts.

No timing anywhere. Each test reads the ``work.*`` counters of one
``server_sync``-shaped run (the apache server, ``jobs=2``) and asserts
that the work done is proportional to what is new — the log records
logged, the positions actually missing at the merge, the pages actually
dirtied, the log blobs actually decoded — not to the run so far. The
last one counts the calls into the telemetry plane itself: with
telemetry off they follow the epochs, never the guest ops.
"""

from __future__ import annotations

import pytest

from repro.baselines import run_native
from repro.checkpoint.manager import CheckpointManager
from repro.core import DoublePlayConfig, DoublePlayRecorder, Replayer
from repro.host.pool import shutdown_shared_pool
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
