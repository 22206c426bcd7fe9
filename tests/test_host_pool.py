"""The worker pool itself: one pipe per worker, pumped by whoever calls it.

The contract (``repro/host/pool.py``): *a unit is written to a worker by
the thread that submits it and read by the thread that needs it; the
coordinator has no other thread.* These tests hold the pool to it
directly — the thread census of a record, a replay and a service run,
the window that bounds what sits in a pipe, a large pickle that must not
park the submitter, the cold start, a worker's death, a cancelled unit's
reply, and several threads at once: a lane each, one reader at a time,
no submit waiting on another thread's reply, a killed pool's queue
handed to its successor — with ``WorkerPool``
objects of their own, so a killed worker never outlives its test.
(Concurrent ``shared_pool`` / ``invalidate_shared_pool`` callers are
``tests/test_service_sessions.py``'s stress test.)
"""

from __future__ import annotations

import os
import pathlib
import random
import signal
import sys
import threading
import time

import pytest

from repro.core import DoublePlayRecorder, Replayer
from repro.errors import CollateralLossError, HostPoolError
from repro.host import executor as host_executor
from repro.host import pool as host_pool
from repro.host.pool import WorkerPool, _scratch_packs, shared_pool, shutdown_shared_pool
from tests import parity


def _until_ready(pool: WorkerPool) -> WorkerPool:
    while not all(worker.ready for worker in pool._workers):
        pool.submit(time.sleep, 0.01).result(60)  # a wait reads the hellos in
    return pool


@pytest.fixture
def pool_of():
    """``pool_of(jobs)``: a private pool, killed when the test is over."""
    pools = []

    def make(jobs: int, warm: bool = True) -> WorkerPool:
        pool = WorkerPool(jobs)
        pools.append(pool)
        return _until_ready(pool) if warm else pool

    yield make
    for pool in pools:
        pool.shutdown(kill=True)


def _in_pipes(pool: WorkerPool) -> int:
    return sum(len(worker.window) for worker in pool._workers)


def _queued(pool: WorkerPool) -> int:
    return sum(len(lane) for lane in pool._lanes.values())


# ----------------------------------------------------------------------
# (a) The thread census.
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", ["pbzip", "racy-counter"])
def test_a_record_and_a_replay_run_on_one_thread(monkeypatch, name):
    """No thread exists for the pool's sake: at every push of a warm
    ``jobs=2`` record and parallel replay, and when they are over, the
    process holds the threads it held before (under plain pytest, the
    main thread alone).

    The mutation that fails it: ``HostExecutor._dispatch`` handing the
    unit to a helper — ``future = ThreadPoolExecutor(1).submit(lambda:
    shared_pool(self.jobs).submit(run_unit, dispatch).result())`` — or any
    executor, queue feeder or reader thread that outlives a push.
    """
    shared_pool(2).submit(os.getpid).result(60)  # warm: spawned and said hello
    before = set(threading.enumerate())
    assert threading.main_thread() in before
    census = []

    def sampled(method):
        def wrapper(self, *args, **kwargs):
            census.append(set(threading.enumerate()) - before)
            return method(self, *args, **kwargs)
        return wrapper

    monkeypatch.setattr(
        DoublePlayRecorder, "_push_unit", sampled(DoublePlayRecorder._push_unit)
    )
    monkeypatch.setattr(
        host_executor.SpeculativeSession, "push",
        sampled(host_executor.SpeculativeSession.push),
    )
    built = parity.build(parity.Program(name, 2))
    instance, machine = built.instance, built.machine
    result = DoublePlayRecorder(
        instance.image, instance.setup, built.config.replace(host_jobs=2)
    ).record()
    pushes = len(census)
    assert pushes >= result.host["units"] > 0
    outcome = Replayer(instance.image, machine).replay_parallel(
        result.recording, jobs=2
    )
    assert outcome.verified and len(census) == pushes + outcome.host["units"]
    census.append(set(threading.enumerate()) - before)
    assert not any(census), [extra for extra in census if extra]


def test_the_library_pool_is_gone_from_the_source():
    source = pathlib.Path(host_pool.__file__).resolve().parents[1]
    for path in source.rglob("*.py"):
        assert "ProcessPoolExecutor" not in path.read_text(), path


# ----------------------------------------------------------------------
# (b) The window bounds what sits in a pipe, in both directions.
# ----------------------------------------------------------------------
def test_300_units_pushed_up_front_settle_without_a_reply_read(monkeypatch, pool_of):
    """Each reply (300 KB) is more than a pipe buffers, so a worker
    blocks writing its first until the coordinator reads it — and the
    coordinator, reading nothing while it submits, must never be
    blocked writing to that worker: the window keeps the other 296 on
    its own side."""
    pool = pool_of(2)
    bound = 2 * host_pool._WINDOW
    with monkeypatch.context() as patch:
        # Nothing is read during the submits: no reply, no end-of-file.
        patch.setattr(host_pool.connection, "wait", lambda objects, timeout=None: [])
        futures = []
        for _ in range(300):
            futures.append(pool.submit(bytes, 300_000))
            assert _in_pipes(pool) <= bound
        assert _in_pipes(pool) == bound and _queued(pool) == 300 - bound
        assert not any(future.done() for future in futures)
    for future in reversed(futures):
        assert len(future.result(60)) == 300_000
        assert _in_pipes(pool) <= bound
    assert not pool._lanes and not pool.broken


# ----------------------------------------------------------------------
# (c) A large pickle never parks the submitter behind a busy worker.
# ----------------------------------------------------------------------
def test_a_large_dispatch_to_a_busy_worker_returns_at_once(pool_of):
    """300 KB is more than the pipe buffers and the worker reads nothing
    for 200 ms: written now, the submit would return when the sleep
    does. (The mutation that fails it: drop the ``_INLINE_BYTES`` clause
    of ``WorkerPool._feed``.)"""
    pool = pool_of(1)
    busy = pool.submit(time.sleep, 0.2)
    payload = b"x" * 300_000
    start = time.perf_counter()
    large = pool.submit(len, payload)
    took = time.perf_counter() - start
    assert took < 0.02, f"submit blocked for {took * 1e3:.1f} ms"
    assert _queued(pool) == 1 and not busy.done()
    small = pool.submit(len, b"xy")  # keeps its place behind the large one
    assert _in_pipes(pool) == 1
    assert large.result(60) == len(payload) and busy.done()
    assert small.result(60) == 2


# ----------------------------------------------------------------------
# (d) Cold start.
# ----------------------------------------------------------------------
def test_units_submitted_before_the_hello_run_in_submit_order(pool_of):
    pool = pool_of(1, warm=False)
    futures = [pool.submit(time.monotonic_ns) for _ in range(6)]
    assert _queued(pool) == 6 and _in_pipes(pool) == 0, "written before the hello"
    stamps = [future.result(60) for future in reversed(futures)][::-1]
    assert stamps == sorted(stamps) and len(set(stamps)) == 6
    assert pool._workers[0].ready and not pool.broken


def _mute_worker(conn) -> None:
    """A worker that is spawned and never says hello."""
    time.sleep(60)


def test_a_worker_that_never_says_hello_fails_what_waited_for_it(monkeypatch, pool_of):
    monkeypatch.setattr(host_pool, "_SPAWN_TIMEOUT", 1.0)
    monkeypatch.setattr(host_pool, "_worker_main", _mute_worker)
    pool = pool_of(1, warm=False)
    futures = [pool.submit(os.getpid) for _ in range(3)]
    start = time.perf_counter()
    # The hello deadline is the first waiter's, not its own budget's.
    with pytest.raises(HostPoolError, match="said no hello in 1s"):
        futures[0].result(0.01)
    assert 0.5 < time.perf_counter() - start < 30
    for future in futures[1:]:
        assert "said no hello" in str(future.exception(0))
    assert "said no hello" in pool.broken
    assert not pool._workers[0].process.is_alive()


# ----------------------------------------------------------------------
# (e) A worker's death fails its window, and nothing else.
# ----------------------------------------------------------------------
def test_a_killed_worker_fails_exactly_its_window():
    shutdown_shared_pool()
    pool = _until_ready(shared_pool(2))
    futures = [pool.submit(time.sleep, 0.3) for _ in range(4)]
    queued = pool.submit(os.getpid)
    doomed, survivor = pool._workers
    assert len(doomed.window) == len(survivor.window) == 2
    lost, kept = list(doomed.window), list(survivor.window)
    os.kill(doomed.process.pid, signal.SIGKILL)
    for future in lost:
        with pytest.raises(HostPoolError, match="died with this unit in its window"):
            future.result(60)
    # It died running the first; the second was lost on that one's account.
    assert type(lost[0].exception(0)) is HostPoolError
    assert type(lost[1].exception(0)) is CollateralLossError
    assert sorted(map(id, lost + kept)) == sorted(map(id, futures))
    assert [future.result(60) for future in kept] == [None, None]
    assert queued.result(60) == survivor.process.pid, "the queue goes to the survivor"
    assert pool.broken
    fresh = shared_pool(2)
    assert fresh is not pool and not fresh.broken
    assert fresh.submit(os.getpid).result(60) not in (
        doomed.process.pid, survivor.process.pid
    )
    assert not survivor.process.is_alive(), "a broken pool is killed, not leaked"


# ----------------------------------------------------------------------
# (f) A cancelled unit's reply is drained and its pack released.
# ----------------------------------------------------------------------
def test_a_cancelled_units_reply_is_drained_and_its_callback_fires(pool_of):
    pool = pool_of(1)
    fired = []
    running = pool.submit(time.sleep, 0.1)
    in_pipe = pool.submit(len, b"written")
    queued = pool.submit(len, b"waiting")
    for name, future in (("in_pipe", in_pipe), ("queued", queued)):
        future.add_done_callback(lambda _, name=name: fired.append(name))
    assert queued.cancel() and fired == ["queued"]
    assert not in_pipe.cancel(), "a written unit cannot be recalled"
    pool.shutdown()  # drains what was written; nothing is left to run
    assert running.done() and in_pipe.result(0) == 7 and queued.cancelled()
    assert fired == ["queued", "in_pipe"]
    assert _in_pipes(pool) == 0 and not pool._lanes and not pool.broken


def test_a_diverging_record_leaves_no_scratch_pack_named():
    """racy-counter's divergence exits cancel pushed units, in a pipe and
    queued alike; every one of them still releases the pack it named."""
    built = parity.build(parity.Program("racy-counter", 2))
    result = DoublePlayRecorder(
        built.instance.image, built.instance.setup,
        built.config.replace(host_jobs=2),
    ).record()
    assert result.host["speculation"]["discarded"] > 0
    shutdown_shared_pool()
    assert _scratch_packs._named == {} and _scratch_packs._dir is None


def test_a_service_run_holds_the_loop_thread_and_the_session_threads_only(
    monkeypatch,
):
    """Sampled at every push of three tenants, ``RecordService.run`` adds
    session threads to what the process held before (its loop runs on
    the calling thread) and nothing else: no pump, no reader, no helper.

    The mutation that fails it: a dedicated reader thread, e.g.
    ``threading.Thread(target=shared_pool(jobs)._read_until, args=(lambda:
    False, 60), daemon=True).start()`` after ``shared_pool(jobs)`` in
    ``RecordService.serve``.
    """
    from repro.service import RecordService, ServiceConfig, SessionRequest

    shared_pool(2).submit(os.getpid).result(60)
    before = set(threading.enumerate())
    census = []
    push = host_executor.SpeculativeSession.push

    def sampled(session, unit):
        census.append(set(threading.enumerate()) - before)
        return push(session, unit)

    monkeypatch.setattr(host_executor.SpeculativeSession, "push", sampled)
    report = RecordService(ServiceConfig(jobs=2, max_active=3)).run([
        SessionRequest(sid=name, workload=name, scale=1, seed=11)
        for name in ("fft", "pbzip", "racy-counter")
    ])
    assert report.ok, [r.error for r in report.results]
    extra = set().union(*census)
    assert census and extra
    assert all(thread.name.startswith("repro-session") for thread in extra), extra


# ----------------------------------------------------------------------
# (g) Several threads: a lane each, one reader at a time.
# ----------------------------------------------------------------------
def test_a_waiting_thread_never_holds_up_another_threads_submit(pool_of):
    """Thread A waits on a 0.5 s unit: it holds the reader role. Thread
    B's submit returns at once, and B's unit, on the other worker,
    settles first — read for B by A's wait.

    The mutation that fails it: ``WorkerPool._pump`` calling
    ``connection.wait`` inside its first ``with self._lock:`` block (the
    lock held across the wait on the pipes): B's submit returns when A's
    unit does.
    """
    pool = pool_of(2)
    settled = []
    slow = pool.submit(time.sleep, 0.5)
    slow.add_done_callback(lambda _: settled.append("A"))
    waiter = threading.Thread(target=slow.result, args=(60,))
    waiter.start()
    time.sleep(0.05)  # A is in its wait on the pipes
    start = time.perf_counter()
    quick = pool.submit(os.getpid)
    took = time.perf_counter() - start
    quick.add_done_callback(lambda _: settled.append("B"))
    assert took < 0.05, f"submit blocked for {took * 1e3:.1f} ms"
    assert quick.result(60) in {worker.process.pid for worker in pool._workers}
    waiter.join(60)
    assert not waiter.is_alive() and settled == ["B", "A"]


def test_a_second_threads_units_do_not_queue_behind_the_first_threads(pool_of):
    """Thread A queues 20 units, then thread B queues 2: each thread is a
    lane and the lanes are served in turn, so both of B's units settle
    before A's 10th.

    The mutation that fails it: ``WorkerPool._feed`` leaving the lane it
    served at the front — its three lines that move the lane to the back
    replaced by ``if not lane: del self._lanes[owner]`` — which makes
    the lanes one FIFO.
    """
    pool = pool_of(2)
    order, futures = [], []
    queued, leave = threading.Semaphore(0), threading.Event()

    def tenant(tag, count):
        for index in range(count):
            future = pool.submit(time.sleep, 0.05)
            future.add_done_callback(lambda _, key=(tag, index): order.append(key))
            futures.append(future)
        queued.release()
        leave.wait(60)  # alive, so the next tenant's thread is another one

    tenants = []
    for tag, count in (("A", 20), ("B", 2)):
        tenants.append(threading.Thread(target=tenant, args=(tag, count)))
        tenants[-1].start()
        assert queued.acquire(timeout=60)
    assert len(pool._lanes) == 2
    for future in list(futures):
        future.result(60)
    leave.set()
    for thread in tenants:
        thread.join(60)
        assert not thread.is_alive()
    assert order.index(("B", 1)) < order.index(("A", 9)), order


def test_another_threads_shutdown_fails_its_units_as_lost(pool_of):
    """What dies with another thread's shutdown — written or still queued
    — fails with ``HostPoolError``, which the owner's containment takes
    as a lost attempt; nothing comes back cancelled.

    The mutation that fails it: ``WorkerPool.shutdown`` cancelling the
    queued units (``future.cancel()``) instead of failing them.
    """
    pool = pool_of(1)
    futures = []
    owner = threading.Thread(
        target=lambda: futures.extend(pool.submit(time.sleep, 0.3) for _ in range(4))
    )
    owner.start()
    owner.join(60)
    assert not owner.is_alive()
    assert _in_pipes(pool) == 2 and _queued(pool) == 2
    pool.shutdown(kill=True)
    for future in futures:
        assert not future.cancelled()
        assert isinstance(future.exception(0), HostPoolError)
    assert "shut down" in str(pool.submit(os.getpid).exception(0))


def test_a_replaced_pool_hands_another_threads_queue_to_its_successor():
    """Another thread's abandon kills the shared pool: what the owner has
    in the window fails as collateral, and what it has queued — never
    written — moves to the new pool, where the owner, waiting all along,
    gets its answers.

    The mutations that fail it: ``WorkerPool.shutdown`` failing the
    queued units even with a successor (its ``if successor is not None:``
    made ``if False:``), or ``_PoolFuture.result`` waiting on the first
    pool only (its loop made one ``self._pool._wait(self, timeout)``).
    """
    shutdown_shared_pool()
    pool = _until_ready(shared_pool(1))
    answers, errors, queued = [], [], threading.Event()

    def owner():
        futures = [pool.submit(time.sleep, 0.3) for _ in range(2)]
        futures += [pool.submit(os.getpid) for _ in range(2)]
        queued.set()
        for future in reversed(futures):  # first a queued one: its waiter moves
            try:
                answers.append(future.result(60))
            except Exception as exc:
                errors.append(exc)

    thread = threading.Thread(target=owner)
    thread.start()
    try:
        assert queued.wait(60)
        time.sleep(0.05)  # the owner is reading the pipe for a queued unit
        assert _in_pipes(pool) == 2 and _queued(pool) == 2
        host_pool.invalidate_shared_pool(kill=True)
        thread.join(60)
        assert not thread.is_alive()
        successor = shared_pool(1)
        assert successor is not pool
        assert [type(exc) for exc in errors] == [CollateralLossError] * 2, errors
        assert answers == [successor._workers[0].process.pid] * 2
    finally:
        shutdown_shared_pool()


def test_eight_threads_submitting_and_waiting_at_once_lose_nothing(pool_of):
    """More threads than cores, switching every few microseconds, each
    submitting a burst and waiting on it in a shuffled order: every
    future settles with its own answer, and the pool ends with no lane,
    no unit in a pipe and no reader."""
    pool = pool_of(2)
    answers, errors = {}, []

    def tenant(index):
        try:
            rng = random.Random(index)
            futures = {(index, k): pool.submit(abs, -(index * 1000 + k)) for k in range(40)}
            for key in rng.sample(sorted(futures), len(futures)):
                answers[key] = futures[key].result(60)
        except Exception as exc:  # pragma: no cover - the regression
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=tenant, args=(i,)) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(120)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert not errors, errors
    assert answers == {(i, k): i * 1000 + k for i in range(8) for k in range(40)}
    assert not pool._lanes and _in_pipes(pool) == 0 and not pool._reading
