"""Host-parallel execution: bit-identical results, structured failures.

``host_jobs`` may change only wall-clock time. Every recording byte,
digest and simulated-time metric must be identical at any jobs count —
each run here is held to its program's cached ``jobs=1`` oracle by
``tests/parity.py`` (the golden matrix's own parity slices live in
``test_integration_matrix.py``, and the CI ``dispatch-parity`` job
runs that whole file through the pool with ``REPRO_TEST_JOBS=2``).
"""

from __future__ import annotations

import copy
import json

import pytest

from repro import options
from repro.core import (
    DoublePlayConfig,
    DoublePlayRecorder,
    ReplayFailure,
    Replayer,
)
from repro.cli import main as cli_main
from repro.host.wire import replay_spans
from tests import parity
from tests.parity import Program

FFT = Program("fft", 2)


def run_cli(*argv):
    import io

    out = io.StringIO()
    code = cli_main(list(argv), out=out)
    return code, out.getvalue()


def _replayer(program=FFT):
    built = parity.build(program)
    return Replayer(built.instance.image, built.machine)


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
    program = Program(name, workers)
    parallel = parity.observe(program, jobs=jobs)
    parity.assert_parity(parallel)
    # Host accounting reflects what actually ran, and never leaks into
    # the recording itself.
    assert parity.oracle(program).result.host == {"jobs": 1}
    assert parallel.host["jobs"] == jobs
    recording = parallel.result.recording
    assert parallel.host["units"] >= recording.epoch_count() - recording.stats[
        "recoveries"
    ]
    assert "host" not in recording.stats


def test_record_divergence_cancels_and_recovers_identically():
    program = Program("racy-counter", 3)
    # the workload actually diverges
    assert parity.oracle(program).result.stats["divergences"] > 0
    # (which epochs recovered is part of the recording)
    parity.assert_parity(parity.observe(program, jobs=2))


# ----------------------------------------------------------------------
# Fault slice: a misbehaving worker changes accounting, never results.
# (tests/test_host_faults.py covers the full containment matrix.)
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "spec,counter",
    [("crash:unit1", "crashes"), ("error:unit1", "task_errors")],
)
def test_record_jobs_bit_identical_under_faults(spec, counter):
    faulted = parity.observe(Program("pbzip", 2), jobs=4, fault=spec)
    parity.assert_parity(faulted)  # and the fault fired: faults[counter] >= 1
    assert faulted.host["faults"]["serial_fallbacks"] >= 1


# ----------------------------------------------------------------------
# Replay determinism + structured failure details
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name,workers", [("pbzip", 2), ("fft", 3)])
def test_replay_parallel_jobs_bit_identical(name, workers):
    program = Program(name, workers)
    parallel = parity.observe_replay(program, jobs=2)
    parity.assert_parity(parallel)
    assert parity.oracle(program, kind="parallel").result.jobs == 1
    assert parallel.result.jobs == parallel.host["jobs"] == 2
    # One unit per span of epochs (3 * jobs spans), not per epoch.
    assert len(parallel.host["unit_cpu"]) == 6 < parallel.result.epochs_replayed


def test_a_one_epoch_recording_replays_through_the_pool_it_reports():
    """Regression: ``replay_parallel`` ran a one-epoch recording serially
    at any ``jobs`` — ``host == {"jobs": 1}`` — and still returned
    ``ReplayResult.jobs == 2`` (the CLI printed ``parallel[jobs=2]`` for
    a replay that never touched a pool). A one-unit session is a session.
    """
    built = parity.build(FFT)
    recording = DoublePlayRecorder(
        built.instance.image, built.instance.setup,
        built.config.replace(epoch_cycles=10**9),
    ).record().recording
    assert recording.epoch_count() == 1
    replayer = _replayer()
    serial = replayer.replay_parallel(recording, jobs=1)
    pooled = replayer.replay_parallel(recording, jobs=2)
    assert (serial.jobs, serial.host["jobs"]) == (1, 1)
    assert pooled.jobs == pooled.host["jobs"] == 2
    assert pooled.host["units"] == 1 and pooled.host["unit_pids"][0] > 0
    assert pooled.verified and serial.verified
    assert (pooled.total_cycles, pooled.makespan, pooled.epochs_replayed) == (
        serial.total_cycles, serial.makespan, 1,
    )


#: the recordings the span rows replay: racy-counter/3 has 11 epochs (2
#: jobs cut 6 spans, 3 jobs an odd split into 9), pbzip/2 has 12
RACY3 = Program("racy-counter", 3)


@pytest.mark.parametrize(
    "program,jobs,fault",
    [
        (RACY3, 2, None),
        (RACY3, 3, None),
        (Program("pbzip", 2), 3, None),
        (Program("fft", 3), 2, "replay:crash:unit5"),  # the last span
    ],
    ids=["racy-counter-2", "racy-counter-3", "pbzip-3", "fft-crash-last-span"],
)
def test_replay_spans_match_jobs1(program, jobs, fault):
    """A pooled replay ships one unit per contiguous span of epochs and
    reports exactly what ``jobs=1`` does (a crashed span is contained)."""
    got = parity.observe_replay(program, jobs=jobs, fault=fault)
    parity.assert_parity(got)  # and the crash fired: faults["crashes"] >= 1
    epochs = got.recording.epochs
    spans = replay_spans([epoch.duration for epoch in epochs], jobs)
    assert got.host["units"] == len(spans) == 3 * jobs < len(epochs)
    assert max(len(span) for span in spans) > 1


@pytest.mark.parametrize("jobs", [1, 2, 3])
def test_replay_failure_reports_epoch_index(jobs):
    """Two tampered end digests — one inside a span, one in a later
    span — are both reported, each against its epoch, as ``jobs=1``
    reports them: no epoch's verdict rests on another's replay."""
    recording = copy.deepcopy(parity.oracle(RACY3).recording)
    spans = replay_spans([epoch.duration for epoch in recording.epochs], 2)
    inside = next(k for k, span in enumerate(spans) if len(span) > 1)
    victims = [recording.epochs[spans[inside][1]], recording.epochs[spans[-1][-1]]]
    for victim in victims:
        victim.end_digest ^= 0xDEAD
    got = parity.observe_replay(RACY3, recording, jobs=jobs)
    parity.assert_parity(got, parity.observe_replay(RACY3, recording, jobs=1))
    outcome = got.result
    assert not outcome.verified
    assert [failure.epoch for failure in outcome.details] == [
        victim.index for victim in victims
    ]
    for failure in outcome.details:
        assert isinstance(failure, ReplayFailure)
        assert "digest mismatch" in failure.message
        assert str(failure).startswith(f"epoch {failure.epoch} ")


def test_sequential_replay_failures_are_structured():
    recording = copy.deepcopy(parity.oracle(FFT).recording)
    recording.final_digest ^= 1
    outcome = _replayer().replay_sequential(recording)
    assert not outcome.verified
    assert isinstance(outcome.details[0], ReplayFailure)
    assert outcome.details[0].epoch is None
    assert str(outcome.details[0]) == "final state digest mismatch"


def test_replay_result_surfaces_workers():
    recording, replayer = parity.oracle(FFT).recording, _replayer()
    bounded = replayer.replay_parallel(recording, workers=3)
    assert bounded.workers == 3
    unbounded = replayer.replay_parallel(recording)
    assert unbounded.workers == recording.epoch_count()
    assert replayer.replay_sequential(recording).workers == 1


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

