"""Host-parallel execution: bit-identical results, structured failures.

``host_jobs`` may change only wall-clock time. Every recording byte,
digest and simulated-time metric must be identical at any jobs count —
these tests compare jobs=2 directly against the serial path (the full
28-config golden matrix additionally runs through the parallel path in
the ``REPRO_TEST_JOBS=2`` CI leg).
"""

from __future__ import annotations

import json

import pytest

from repro import options
from repro.baselines import run_native
from repro.core import (
    DoublePlayConfig,
    DoublePlayRecorder,
    ReplayFailure,
    Replayer,
)
from repro.cli import main as cli_main
from repro.machine.config import MachineConfig
from repro.workloads import build_workload


def run_cli(*argv):
    import io

    out = io.StringIO()
    code = cli_main(list(argv), out=out)
    return code, out.getvalue()


def _build(name, workers, scale=2, seed=11):
    instance = build_workload(name, workers=workers, scale=scale, seed=seed)
    machine = MachineConfig(cores=workers)
    native = run_native(instance.image, instance.setup, machine)
    config = DoublePlayConfig(
        machine=machine, epoch_cycles=max(native.duration // 12, 500)
    )
    return instance, machine, config


def _record(name, workers, jobs):
    instance, machine, config = _build(name, workers)
    recorder = DoublePlayRecorder(
        instance.image, instance.setup, config.replace(host_jobs=jobs)
    )
    return instance, machine, recorder.record()


# ----------------------------------------------------------------------
# Record determinism
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "name,workers,jobs",
    [
        ("pbzip", 2, 2),
        ("pbzip", 2, 4),
        ("fft", 3, 2),
        ("racy-counter", 2, 2),  # exercises divergence + cancel + recovery
        ("prodcons-sem", 3, 2),
    ],
)
def test_record_jobs_bit_identical(name, workers, jobs):
    _, _, serial = _record(name, workers, jobs=1)
    _, _, parallel = _record(name, workers, jobs=jobs)

    assert json.dumps(parallel.recording.to_plain(), sort_keys=True) == json.dumps(
        serial.recording.to_plain(), sort_keys=True
    ), f"{name}: recording bytes differ at jobs={jobs}"
    assert parallel.makespan == serial.makespan
    assert parallel.tp_finish == serial.tp_finish
    assert parallel.app_time == serial.app_time
    assert parallel.stats == serial.stats
    assert parallel.recording.final_digest == serial.recording.final_digest
    assert [e.end_digest for e in parallel.recording.epochs] == [
        e.end_digest for e in serial.recording.epochs
    ]
    # Host accounting reflects what actually ran, and never leaks into
    # the recording itself.
    assert serial.host == {"jobs": 1}
    assert parallel.host["jobs"] == jobs
    assert parallel.host["units"] >= parallel.recording.epoch_count() - parallel.stats[
        "recoveries"
    ]
    assert "host" not in parallel.recording.stats


def test_record_divergence_cancels_and_recovers_identically():
    _, _, serial = _record("racy-counter", 3, jobs=1)
    _, _, parallel = _record("racy-counter", 3, jobs=2)
    assert serial.stats["divergences"] > 0  # the workload actually diverges
    assert parallel.stats == serial.stats
    assert [e.recovered for e in parallel.recording.epochs] == [
        e.recovered for e in serial.recording.epochs
    ]


# ----------------------------------------------------------------------
# Fault slice: a misbehaving worker changes accounting, never results.
# (tests/test_host_faults.py covers the full containment matrix.)
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "spec,counter",
    [("crash:unit1", "crashes"), ("error:unit1", "task_errors")],
)
def test_record_jobs_bit_identical_under_faults(monkeypatch, spec, counter):
    _, _, serial = _record("pbzip", 2, jobs=1)
    monkeypatch.setenv("REPRO_FAULT", spec)
    _, _, faulted = _record("pbzip", 2, jobs=4)
    assert json.dumps(faulted.recording.to_plain(), sort_keys=True) == json.dumps(
        serial.recording.to_plain(), sort_keys=True
    ), f"recording bytes differ under injected {spec}"
    assert faulted.stats == serial.stats
    assert faulted.makespan == serial.makespan
    assert faulted.host["faults"][counter] >= 1
    assert faulted.host["faults"]["serial_fallbacks"] >= 1


# ----------------------------------------------------------------------
# Replay determinism + structured failure details
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name,workers", [("pbzip", 2), ("fft", 3)])
def test_replay_parallel_jobs_bit_identical(name, workers):
    instance, machine, result = _record(name, workers, jobs=1)
    replayer = Replayer(instance.image, machine)
    serial = replayer.replay_parallel(result.recording)
    parallel = replayer.replay_parallel(result.recording, jobs=2)
    assert parallel.verified and serial.verified
    assert parallel.total_cycles == serial.total_cycles
    assert parallel.makespan == serial.makespan
    assert parallel.epochs_replayed == serial.epochs_replayed
    assert parallel.workers == serial.workers
    assert (serial.jobs, parallel.jobs) == (1, 2)
    assert parallel.host["jobs"] == 2
    assert len(parallel.host["unit_cpu"]) == parallel.epochs_replayed


def test_a_one_epoch_recording_replays_through_the_pool_it_reports():
    """Regression: ``replay_parallel`` ran a one-epoch recording serially
    at any ``jobs`` — ``host == {"jobs": 1}`` — and still returned
    ``ReplayResult.jobs == 2`` (the CLI printed ``parallel[jobs=2]`` for
    a replay that never touched a pool). A one-unit session is a session.
    """
    instance, machine, config = _build("fft", 2)
    recording = DoublePlayRecorder(
        instance.image, instance.setup, config.replace(epoch_cycles=10**9)
    ).record().recording
    assert recording.epoch_count() == 1
    replayer = Replayer(instance.image, machine)
    serial = replayer.replay_parallel(recording, jobs=1)
    pooled = replayer.replay_parallel(recording, jobs=2)
    assert (serial.jobs, serial.host["jobs"]) == (1, 1)
    assert pooled.jobs == pooled.host["jobs"] == 2
    assert pooled.host["units"] == 1 and pooled.host["unit_pids"][0] > 0
    assert pooled.verified and serial.verified
    assert (pooled.total_cycles, pooled.makespan, pooled.epochs_replayed) == (
        serial.total_cycles, serial.makespan, 1,
    )


@pytest.mark.parametrize("jobs", [1, 2])
def test_replay_failure_reports_epoch_index(jobs):
    instance, machine, result = _record("fft", 2, jobs=1)
    recording = result.recording
    victim = recording.epochs[2]
    original = victim.end_digest
    victim.end_digest = original ^ 0xDEAD
    try:
        outcome = Replayer(instance.image, machine).replay_parallel(
            recording, jobs=jobs
        )
    finally:
        victim.end_digest = original
    assert not outcome.verified
    assert len(outcome.details) == 1
    failure = outcome.details[0]
    assert isinstance(failure, ReplayFailure)
    assert failure.epoch == victim.index
    assert "digest mismatch" in failure.message
    assert str(failure).startswith(f"epoch {victim.index} ")


def test_sequential_replay_failures_are_structured():
    instance, machine, result = _record("fft", 2, jobs=1)
    recording = result.recording
    recording.final_digest ^= 1
    outcome = Replayer(instance.image, machine).replay_sequential(recording)
    recording.final_digest ^= 1
    assert not outcome.verified
    assert isinstance(outcome.details[0], ReplayFailure)
    assert outcome.details[0].epoch is None
    assert str(outcome.details[0]) == "final state digest mismatch"


def test_replay_result_surfaces_workers():
    instance, machine, result = _record("fft", 2, jobs=1)
    replayer = Replayer(instance.image, machine)
    bounded = replayer.replay_parallel(result.recording, workers=3)
    assert bounded.workers == 3
    unbounded = replayer.replay_parallel(result.recording)
    assert unbounded.workers == result.recording.epoch_count()
    assert replayer.replay_sequential(result.recording).workers == 1


# ----------------------------------------------------------------------
# Config + CLI threading
# ----------------------------------------------------------------------
def test_host_jobs_env_default(monkeypatch):
    # The field is "not set here" until a run resolves it; the variable's
    # own parsing is tabled in tests/test_options.py.
    monkeypatch.setenv("REPRO_TEST_JOBS", "3")
    assert DoublePlayConfig().host_jobs is None
    assert options.resolve(DoublePlayConfig()).host_jobs == 3
    assert options.resolve(DoublePlayConfig(host_jobs=4)).host_jobs == 4
    assert options.resolve(DoublePlayConfig(host_jobs=0)).host_jobs == 1


def test_cli_record_jobs(tmp_path):
    path = tmp_path / "rec.json"
    code, out = run_cli(
        "record", "fft", "--scale", "2", "--seed", "11",
        "--jobs", "2", "-o", str(path),
    )
    assert code == 0
    assert "recorded fft" in out
    code_serial, _ = run_cli(
        "record", "fft", "--scale", "2", "--seed", "11",
        "-o", str(tmp_path / "serial.json"),
    )
    assert code_serial == 0
    parallel = json.loads(path.read_text())
    serial = json.loads((tmp_path / "serial.json").read_text())
    assert parallel == serial  # saved artefacts identical at any jobs count


def test_cli_replay_jobs(tmp_path):
    path = tmp_path / "rec.json"
    code, _ = run_cli(
        "record", "fft", "--scale", "2", "--seed", "11", "-o", str(path)
    )
    assert code == 0
    code, out = run_cli("replay", str(path), "--jobs", "2")
    assert code == 0
    assert "parallel[jobs=2] replay" in out
    assert "verified" in out

