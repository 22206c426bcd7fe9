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
cancel in-flight units; a smaller run after a larger one used to keep
the larger pool; starting workers used to leak ``PYTHONPATH`` into the
coordinator's environment permanently. And the scratch packs the
workers read their blobs from go when the pool does, and the fork
server and its workers when the shared pool is shut down.
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
APACHE = Program("apache", 2)
#: the unit timeout of the clock tests: short, because a unit is never
#: charged for time queued behind others
UNIT_TIMEOUT = 0.5


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
    pool = shared_pool(1)
    future = pool.submit(time.sleep, 0.4)
    grown = shared_pool(2)
    assert grown is not pool
    # Regression: growth used to shutdown(wait=False, cancel_futures=True),
    # yanking the old pool out from under still-draining units.
    assert future.done() and not future.cancelled()
    assert future.result(timeout=0) is None


def test_shared_pool_is_exactly_the_size_asked_for():
    """Regression: the shared pool only grew, so a ``jobs=2`` run after a
    ``jobs=3`` one executed on 3 workers while its host accounting said 2."""
    larger = shared_pool(3)
    assert len(shared_pool(2)._workers) == 2
    assert not any(worker.process.is_alive() for worker in larger._workers)
    assert shared_pool(2) is shared_pool(2)


def test_what_the_coordinator_adds_after_the_fork_server_starts_changes_no_unit(
    monkeypatch, tmp_path
):
    """Workers fork from a server started with the first pool: they keep
    its environment, get ``sys.path`` with each fork and their options
    with each unit. A variable and a ``sys.path`` entry the coordinator
    adds after that, seen by workers forked after both, change nothing a
    unit computes: a ``jobs=2`` record and replay are the ``jobs=1``
    oracle's."""
    shared_pool(2).submit(os.getpid).result(timeout=60)  # the server is up
    monkeypatch.setenv("REPRO_SUPERBLOCKS", "0")
    monkeypatch.syspath_prepend(str(tmp_path))
    invalidate_shared_pool()
    parity.assert_parity(parity.observe(FFT, jobs=2, superblocks=True))
    parity.assert_parity(parity.observe_replay(FFT, jobs=2))


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


def test_nothing_outlives_the_shared_pool(tmp_path):
    """After ``shutdown_shared_pool()`` neither the worker nor the fork
    server it was forked from is alive, and the worker's memory counts as
    this process's children's — what the benchmark's ``peak_rss_mb``
    reads right after that call."""
    script = tmp_path / "touch.py"
    script.write_text(
        "import os, resource\n"
        "from multiprocessing import forkserver\n"
        "from repro.host.pool import shared_pool, shutdown_shared_pool\n"
        "def touch(megabytes):\n"
        "    block = b'x' * (megabytes << 20)\n"
        "    return os.getpid()\n"
        "def alive(pid):\n"
        "    try:\n"
        "        os.kill(pid, 0)\n"
        "    except ProcessLookupError:\n"
        "        return False\n"
        "    return True\n"
        "if __name__ == '__main__':\n"
        "    worker = shared_pool(1).submit(touch, 64).result(60)\n"
        "    server = forkserver._forkserver._forkserver_pid\n"
        "    shutdown_shared_pool()\n"
        "    children = resource.getrusage(resource.RUSAGE_CHILDREN)\n"
        "    print(alive(worker), alive(server), children.ru_maxrss)\n"
    )
    done = subprocess.run(
        [sys.executable, str(script)], capture_output=True, text=True, timeout=120,
        cwd=os.path.dirname(os.path.dirname(__file__)),
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert done.returncode == 0, done.stderr
    worker_alive, server_alive, maxrss_kib = done.stdout.split()
    assert (worker_alive, server_alive) == ("False", "False"), done.stdout
    assert int(maxrss_kib) >= 64 * 1024, done.stdout


def test_worker_import_path_is_scoped(monkeypatch):
    """Starting workers must not mutate os.environ, and needs nothing from
    it: each fork hands a worker the coordinator's ``sys.path``, whatever
    ``PYTHONPATH`` the fork server started with."""
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
# Faults of their own (one fault per run, of each kind, at each position
# is an axis of the parity table, ``tests/test_parity.py``)
# ----------------------------------------------------------------------
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

    Every unit is pushed first, so the push burns the fuse: a contained
    crash, the position's attempt 0, and its retry runs clean.
    """
    monkeypatch.setenv("REPRO_FAULT_STATE", str(tmp_path))
    faulted = parity.observe(FFT, jobs=4, fault="crash:unit1:once")
    parity.assert_parity(faulted)
    counts = faulted.host["faults"]
    assert counts["crashes"] == 1
    assert counts["retries"] == 1
    assert [event["attempt"] for event in faulted.host["fault_events"]] == [0]
    # The fuse was blown by then, so nothing ever needed the serial
    # fallback: the retry ran clean.
    assert counts["serial_fallbacks"] == 0
    assert counts["timeouts"] == 0 and counts["task_errors"] == 0


@pytest.mark.parametrize("kind", ["record", "replay"])
def test_a_hung_unit_costs_two_deadlines(kind):
    """A hang pays one unit timeout per pool attempt, the pushed one
    included, and each deadline runs from when a worker took the unit.

    Read off the epoch lives: the hung position's pushed attempt and its
    one retry each end in a ``WorkerTimeoutError`` (attempts 0 and 1),
    then the unit runs on the coordinator, about two unit timeouts after
    it was first dispatched. (A pushed attempt left unblamed would cost
    a third pool attempt, and a third timeout.)
    """
    parity.oracle(APACHE, kind="record" if kind == "record" else "parallel")
    observe = parity.observe if kind == "record" else parity.observe_replay
    got = observe(
        APACHE, jobs=2, fault=f"{kind}:hang:unit1:30", unit_timeout=UNIT_TIMEOUT
    )
    parity.assert_parity(got)
    (hung,) = [life for life in got.lives.all if any(a.failure for a in life.attempts)]
    *pool, serial = hung.attempts
    assert [type(a.failure) for a in pool] == [WorkerTimeoutError] * 2
    assert [a.failure.attempt for a in pool] == [0, 1]
    assert pool[0].pushed and not pool[1].pushed
    assert serial.kind == f"{kind}-serial" and serial.dispatch is None
    assert serial.timing.started - pool[0].dispatch[0] <= 2 * UNIT_TIMEOUT + 0.5
    assert got.host["faults"]["timeouts"] == 2


def test_a_unit_queued_behind_a_slow_one_is_not_blamed():
    """A unit's clock starts when a worker takes it, not when it is written.

    A replay pushes its units up front. Units 0 and 1 each sleep 0.7 of
    the unit timeout, one on each worker, so unit 2, which sleeps as
    long, is written while both are busy and waits in a window behind
    one of them. It comes home more than a unit timeout after its
    dispatch, but under one after its worker took it: no timeout, no
    fallback.
    """
    parity.oracle(APACHE, kind="parallel")
    slow = 0.7 * UNIT_TIMEOUT
    fault = ",".join(f"replay:slow:unit{unit}:{slow}" for unit in range(3))
    got = parity.observe_replay(APACHE, jobs=2, fault=fault, unit_timeout=UNIT_TIMEOUT)
    parity.assert_parity(got)
    assert not any(got.host["faults"].values()), got.host["faults"]
    (first,), (second,), (queued,) = (got.lives[unit].attempts for unit in range(3))
    pids = got.host["unit_pids"]
    assert pids[0] != pids[1] and pids[2] in pids[:2]
    ends = [a.timing.started + a.timing.wall for a in (first, second, queued)]
    assert queued.dispatch[1] < min(ends[:2])  # written while both were busy
    assert ends[2] - queued.dispatch[0] > UNIT_TIMEOUT


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
    monkeypatch.setenv("REPRO_LOG_FSYNC", "0")
    path = tmp_path / "log"
    code, _ = run_cli(
        "record", "fft", "--scale", "2", "--seed", "11", "--log-dir", str(path)
    )
    assert code == 0
    monkeypatch.setenv("REPRO_FAULT", "error:unit1")
    code, out = run_cli(
        "replay", str(path), "--jobs", "2", "--unit-timeout", "30"
    )
    assert code == 0
    assert "verified" in out
    assert "host faults contained" in out
