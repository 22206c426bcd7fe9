"""Host-pool fault tolerance: crashes, hangs, and worker exceptions.

The epoch-parallel attempt is disposable by design, so a host fault must
never change an observable result — only wall-clock time and the host
accounting. Every test here injects a deterministic fault (a
``REPRO_FAULT`` directive, see :mod:`repro.host.faults`), lets the
containment policy (retry once, then serial fallback) finish the run,
and holds the recording or replay verdict to the program's clean
``jobs=1`` oracle (``tests/parity.py``), with the failure counters
reporting what happened.

Also covers the pool-management regressions: a broken shared pool used
to be cached (and returned, broken) forever; growing the pool used to
cancel in-flight units; spawning workers used to leak ``PYTHONPATH``
into the coordinator's environment permanently. And the scratch packs
the workers read their blobs from go when the pool does.
"""

from __future__ import annotations

import json
import os
import pickle
import subprocess
import sys
import time

import pytest

from repro.errors import (
    HostPoolError,
    WorkerCrashError,
    WorkerTaskError,
    WorkerTimeoutError,
)
from repro.host import faults as fault_mod
from repro.host.pool import (
    _scratch_packs,
    invalidate_shared_pool,
    shared_pool,
    shutdown_shared_pool,
)
from tests import parity
from tests.parity import Program

FFT = Program("fft", 2)
RACY = Program("racy-counter", 2)


# ----------------------------------------------------------------------
# Pool management regressions
# ----------------------------------------------------------------------
def test_shared_pool_rebuilds_after_worker_death():
    pool = shared_pool(2)
    with pytest.raises(HostPoolError, match="died with this unit in its window"):
        pool.submit(os._exit, 70).result(timeout=60)
    # Regression: the broken pool used to be cached and returned forever.
    rebuilt = shared_pool(2)
    assert rebuilt is not pool
    assert rebuilt.submit(os.getpid).result(timeout=60) > 0


def test_record_succeeds_after_pool_poisoned():
    """A worker death in one run must not poison the next recording."""
    pool = shared_pool(2)
    with pytest.raises(HostPoolError, match="died with this unit in its window"):
        pool.submit(os._exit, 70).result(timeout=60)
    parallel = parity.observe(FFT, jobs=2)
    parity.assert_parity(parallel)
    assert not any(parallel.host["faults"].values())


def test_shared_pool_growth_drains_in_flight_units():
    shutdown_shared_pool()
    pool = shared_pool(1)
    future = pool.submit(time.sleep, 0.4)
    grown = shared_pool(2)
    assert grown is not pool
    # Regression: growth used to shutdown(wait=False, cancel_futures=True),
    # yanking the old pool out from under still-draining units.
    assert future.done() and not future.cancelled()
    assert future.result(timeout=0) is None


@pytest.mark.parametrize("teardown", [shutdown_shared_pool, invalidate_shared_pool])
def test_scratch_packs_go_with_the_pool(teardown):
    result = parity.observe(FFT, jobs=2)
    parity.assert_parity(result)
    assert result.host["units"] > 0
    directory, pack = _scratch_packs._dir, _scratch_packs._store.root
    assert os.path.dirname(pack) == directory and os.listdir(pack)
    teardown()
    assert not os.path.exists(directory)
    # A pool that stays holds the current pack and nothing else.
    again = parity.observe(FFT, jobs=2)
    parity.assert_parity(again)
    assert again.host["wire"]["bytes_shipped"] > 0
    assert os.listdir(_scratch_packs._dir) == [
        os.path.basename(_scratch_packs._store.root)
    ]


def test_scratch_packs_go_with_the_interpreter(tmp_path):
    script = tmp_path / "record.py"
    script.write_text(
        "from tests.parity import Program, observe\n"
        "from repro.host.pool import _scratch_packs\n"
        "if __name__ == '__main__':\n"
        "    observe(Program('fft', 2), jobs=2)\n"
        "    print(_scratch_packs._store.path)\n"
    )
    done = subprocess.run(
        [sys.executable, str(script)], capture_output=True, text=True, timeout=120,
        cwd=os.path.dirname(os.path.dirname(__file__)),
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert done.returncode == 0, done.stderr
    pack = done.stdout.strip()
    assert pack.endswith("pack.dppack"), done.stdout
    assert not os.path.exists(os.path.dirname(os.path.dirname(pack)))


def test_worker_import_path_is_scoped(monkeypatch):
    """Spawning workers must not mutate os.environ, and needs nothing from
    it: spawn hands a worker the coordinator's ``sys.path``."""
    shutdown_shared_pool()
    monkeypatch.setenv("PYTHONPATH", "/tmp/unrelated-entry")
    pool = shared_pool(1)
    assert pool.submit(os.getpid).result(timeout=60) > 0
    assert os.environ["PYTHONPATH"] == "/tmp/unrelated-entry"
    shutdown_shared_pool()
    monkeypatch.delenv("PYTHONPATH")
    pool = shared_pool(1)
    assert pool.submit(os.getpid).result(timeout=60) > 0
    assert "PYTHONPATH" not in os.environ
    shutdown_shared_pool()


# ----------------------------------------------------------------------
# Failure taxonomy
# ----------------------------------------------------------------------
def test_worker_errors_are_structured_and_picklable():
    crash = WorkerCrashError("worker died", position=2, attempt=1)
    timeout = WorkerTimeoutError("too slow", position=1, attempt=0, timeout=1.5)
    task = WorkerTaskError(
        "ValueError: boom", position=3, attempt=1,
        exc_type="ValueError", traceback_text="Traceback ...",
    )
    for err in (crash, timeout, task):
        assert isinstance(err, HostPoolError)
        clone = pickle.loads(pickle.dumps(err))
        assert type(clone) is type(err)
        assert (clone.position, clone.attempt) == (err.position, err.attempt)
        assert str(clone) == str(err)
    assert pickle.loads(pickle.dumps(timeout)).timeout == 1.5
    roundtrip = pickle.loads(pickle.dumps(task))
    assert roundtrip.exc_type == "ValueError"
    assert roundtrip.traceback_text == "Traceback ..."
    assert (crash.kind, timeout.kind, task.kind) == (
        "crash", "timeout", "task-error",
    )


def test_parse_fault_specs():
    specs = fault_mod.parse_fault_specs(
        "crash:unit2, replay:hang:unit1:2.5, slow:unit0:0.1, record:error:unit3"
    )
    assert [s.kind for s in specs] == ["crash", "hang", "slow", "error"]
    assert [s.position for s in specs] == [2, 1, 0, 3]
    assert specs[1].scope == "replay" and specs[1].seconds == 2.5
    assert specs[0].matches("record", 2) and specs[0].matches("replay", 2)
    assert not specs[1].matches("record", 1)
    assert fault_mod.faults_for(specs, "record", 3) == (specs[3],)
    assert fault_mod.parse_fault_specs("") == ()
    with pytest.raises(ValueError):
        fault_mod.parse_fault_specs("nonsense")
    with pytest.raises(ValueError):
        fault_mod.parse_fault_specs("explode:unit1")
    with pytest.raises(ValueError):
        fault_mod.parse_fault_specs("crash:unit")
    with pytest.raises(ValueError):
        fault_mod.parse_fault_specs("crash:unit1:wat")
    with pytest.raises(ValueError):
        # 'once' needs a fuse directory (REPRO_FAULT_STATE)
        fault_mod.parse_fault_specs("crash:unit1:once")
    once = fault_mod.parse_fault_specs("crash:unit1:once", state_dir="/tmp/x")
    assert once[0].once and once[0].state_dir == "/tmp/x"


# ----------------------------------------------------------------------
# Fault-injected recording: always completes, always bit-identical
# (``parity.assert_parity`` also checks that each injected fault fired)
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "spec,counter,expect_fallback",
    [
        ("crash:unit1", "crashes", True),
        ("error:unit2", "task_errors", True),
        ("slow:unit1:0.05", None, False),
    ],
)
def test_record_faults_bit_identical(spec, counter, expect_fallback):
    faulted = parity.observe(FFT, jobs=4, fault=spec)
    parity.assert_parity(faulted)
    counts = faulted.host["faults"]
    if counter is None:
        assert not any(counts.values())
    else:
        assert counts["retries"] >= 1
        if expect_fallback:
            assert counts["serial_fallbacks"] >= 1
        assert faulted.host["fault_events"], "events missing from accounting"
        assert all(
            set(event) == {"kind", "position", "attempt", "error"}
            for event in faulted.host["fault_events"]
        )


def test_record_hang_contained_by_unit_timeout():
    faulted = parity.observe(FFT, jobs=4, fault="hang:unit1:30", unit_timeout=1.0)
    parity.assert_parity(faulted)
    assert faulted.host["faults"]["serial_fallbacks"] >= 1


def test_record_crash_and_hang_complete_via_fallback():
    """The acceptance scenario: a crash AND a hang in one jobs=4 recording."""
    faulted = parity.observe(
        FFT, jobs=4, fault="crash:unit1,hang:unit3:30", unit_timeout=1.0
    )
    parity.assert_parity(faulted)
    counts = faulted.host["faults"]
    assert counts["serial_fallbacks"] >= 2
    assert counts["retries"] >= 2


def test_record_crash_once_recovers_on_retry(monkeypatch, tmp_path):
    """With a one-shot fault the retry (not the fallback) saves the unit.

    Two fuses, because every unit is pushed first and a pushed attempt
    is free: the push burns the ``error`` fuse silently, the merge's
    first counted attempt burns the ``crash`` fuse — a contained crash —
    and its retry runs clean (a one-shot crash that only ever meets the
    push is the pipelined test further down).
    """
    monkeypatch.setenv("REPRO_FAULT_STATE", str(tmp_path))
    faulted = parity.observe(FFT, jobs=4, fault="error:unit1:once,crash:unit1:once")
    parity.assert_parity(faulted)
    counts = faulted.host["faults"]
    assert counts["crashes"] == 1
    assert counts["retries"] == 1
    # Both fuses were blown by then, so nothing ever needed the serial
    # fallback: the retry ran clean.
    assert counts["serial_fallbacks"] == 0
    assert counts["timeouts"] == 0 and counts["task_errors"] == 0


def test_record_fault_with_divergence_and_recovery(monkeypatch, tmp_path):
    """Host containment composes with guest forward recovery."""
    # the workload actually diverges
    assert parity.oracle(RACY).result.stats["divergences"] > 0
    monkeypatch.setenv("REPRO_FAULT_STATE", str(tmp_path))
    # One fuse for the free pushed attempt, one for the counted one.
    faulted = parity.observe(RACY, jobs=2, fault="error:unit0:once,crash:unit0:once")
    parity.assert_parity(faulted)
    assert faulted.host["faults"]["crashes"] >= 1


# ----------------------------------------------------------------------
# Pipelined speculation under faults
#
# Epoch N's unit is pushed while the thread-parallel run executes N+1
# and beyond. A pushed attempt is disposable twice over: host faults
# silently discard it (the merge cuts the position again and runs that
# with normal containment), and segment-end validation drops any run
# whose snapshot cuts proved stale. Either way the recording must stay
# byte-identical to jobs=1.
# ----------------------------------------------------------------------
def test_pipelined_clean_run_accepts_speculation():
    """No faults: speculative results are accepted, never re-run."""
    parallel = parity.observe(FFT, jobs=4)
    parity.assert_parity(parallel)
    spec = parallel.host["speculation"]
    assert spec["dispatched"] >= 1
    assert spec["accepted"] >= 1
    assert spec["discarded"] == 0
    assert not any(parallel.host["faults"].values())


@pytest.mark.parametrize(
    "spec,timeout,counter",
    [
        ("crash:unit1", None, "crashes"),
        ("hang:unit1:30", 1.0, "timeouts"),
        ("error:unit1", None, "task_errors"),
    ],
)
def test_pipelined_faults_discard_speculation(spec, timeout, counter):
    """A host fault during speculation is contained twice.

    The fault fires on *every* dispatch of the position: the speculative
    attempt dies (silently discarded), then the batch attempts die and
    the retry/serial-fallback containment finishes the unit — recording
    byte-identical to jobs=1 throughout.
    """
    faulted = parity.observe(FFT, jobs=4, fault=spec, unit_timeout=timeout)
    parity.assert_parity(faulted)  # the batch path saw the fault: counter >= 1
    assert faulted.host["speculation"]["discarded"] >= 1
    assert faulted.host["faults"]["serial_fallbacks"] >= 1


def test_pipelined_speculative_crash_only_is_invisible(monkeypatch, tmp_path):
    """A one-shot crash consumed by the speculation leaves no fault trace.

    The fuse blows on the speculative dispatch, so the batch re-run of
    the position runs clean: zero entries in the fault counters (those
    count only batch containment), one discarded speculation, and a
    byte-identical recording.
    """
    monkeypatch.setenv("REPRO_FAULT_STATE", str(tmp_path))
    faulted = parity.observe(FFT, jobs=4, fault="crash:unit1:once")
    parity.assert_parity(faulted)  # the fuse blew, speculation discarded
    assert not any(faulted.host["faults"].values())


def test_pipelined_divergence_while_speculating():
    """A divergence in epoch N must void in-flight speculation cleanly.

    racy-counter diverges mid-segment while later epochs' speculative
    units are already in the pool. The merge loop stops at the diverged
    position, recovery rolls the segment back, and whatever speculation
    returned for the discarded tail must leave no trace — recording and
    stats byte-identical to jobs=1.
    """
    assert parity.oracle(RACY).result.stats["divergences"] > 0
    parallel = parity.observe(RACY, jobs=2)
    parity.assert_parity(parallel)
    assert parallel.host["speculation"]["dispatched"] >= 1
    assert not any(parallel.host["faults"].values())


# ----------------------------------------------------------------------
# Fault-injected parallel replay
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "spec,timeout,counter",
    [
        ("crash:unit1", None, "crashes"),
        ("hang:unit1:30", 1.0, "timeouts"),
        ("error:unit1", None, "task_errors"),
    ],
)
def test_replay_parallel_faults_bit_identical(spec, timeout, counter):
    faulted = parity.observe_replay(FFT, jobs=4, fault=spec, unit_timeout=timeout)
    parity.assert_parity(faulted)  # verified, cycles, makespan; counter >= 1
    assert faulted.host["faults"]["serial_fallbacks"] >= 1


def test_fault_scope_filters_by_phase():
    """A record-scoped fault must not fire during replay, and vice versa."""
    outcome = parity.observe_replay(FFT, jobs=2, fault="record:error:unit1")
    parity.assert_parity(outcome)
    assert not any(outcome.host["faults"].values())
    recorded = parity.observe(FFT, jobs=2, fault="replay:error:unit1")
    parity.assert_parity(recorded)
    assert not any(recorded.host["faults"].values())


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------
def run_cli(*argv):
    import io

    from repro.cli import main as cli_main

    out = io.StringIO()
    code = cli_main(list(argv), out=out)
    return code, out.getvalue()


def test_cli_record_reports_contained_faults(monkeypatch, tmp_path):
    clean = tmp_path / "clean.json"
    code, _ = run_cli(
        "record", "fft", "--scale", "2", "--seed", "11", "-o", str(clean)
    )
    assert code == 0
    monkeypatch.setenv("REPRO_FAULT", "crash:unit1")
    faulted = tmp_path / "faulted.json"
    code, out = run_cli(
        "record", "fft", "--scale", "2", "--seed", "11",
        "--jobs", "4", "-o", str(faulted),
    )
    assert code == 0
    assert "host faults contained" in out
    assert "crash(es)" in out
    assert json.loads(faulted.read_text()) == json.loads(clean.read_text())


def test_cli_replay_reports_contained_faults(monkeypatch, tmp_path):
    path = tmp_path / "rec.json"
    code, _ = run_cli(
        "record", "fft", "--scale", "2", "--seed", "11", "-o", str(path)
    )
    assert code == 0
    monkeypatch.setenv("REPRO_FAULT", "error:unit1")
    code, out = run_cli(
        "replay", str(path), "--jobs", "2", "--unit-timeout", "30"
    )
    assert code == 0
    assert "verified" in out
    assert "host faults contained" in out
