"""The worker pool: spawned processes, one pipe each, and no helper thread.

*A unit is written to a worker by the thread that submits it and read by
the thread that needs it; the coordinator has no other thread.* The
thread-parallel run is a Python loop on the coordinator's main thread,
so a thread of the pool's would take the GIL from exactly the execution
that is meant to run at native speed. :meth:`WorkerPool.submit` pickles
the call where it stands and queues it on the submitting thread's *lane*;
the lanes are served round-robin, each unit written to the least-loaded
worker that has said hello and holds fewer than :data:`_WINDOW`
unanswered units. A solo run is one lane, a FIFO. Under ``serve`` every
session body runs on a thread of its own, so each tenant is a lane and
none waits behind another's backlog: there is no other scheduler.

Replies are read by whoever waits, one thread at a time. A future's
``result(timeout)`` takes the *reader role* and reads the workers' pipes
until it is settled, settling every reply that arrives, any thread's;
the other waiting threads sleep until their own future settles or the
role is free. Every ``submit`` reads what has already arrived if the role
is free, and never waits for it. The pool's lock guards the lanes and
windows and is never held across the wait on the pipes, so no ``submit``
waits for another thread's reply. A worker's death (end-of-file on its
pipe) fails exactly the units in its window and marks the pool broken:
the one it was running with :class:`~repro.errors.HostPoolError`, the
ones behind it with :class:`~repro.errors.CollateralLossError`, which
the executor never blames on their positions; the units still queued go
to the survivors. A pool shut down with its workers killed (broken, or
abandoned after a hang) fails what is in its windows as collateral,
whichever thread it belongs to, and hands what is still queued, never
written to a worker, to its replacement, lanes and waiters included
(with none, that fails too). Any other shutdown lets both run first.

Neither side can park the other. A worker's pipe holds at most one
unread unit when another is written (its window, less the unit it is
running), and a pickle above :data:`_INLINE_BYTES` — more than the pipe
is sure to buffer beside that one — is written only to an idle worker,
which is reading. A worker may block on a reply nobody reads yet, but
nothing is written to it until its window has room again, which takes
reading that reply.

Spawn (not fork) keeps workers safe on every platform and guarantees
they import a fresh ``repro`` — nothing leaks from the coordinator but
what the work units carry (:mod:`repro.host.worker` runs in them,
:mod:`repro.host.executor` feeds them). Spawning returns at once: a unit
submitted before a worker's hello waits in its lane, and the first
thread that waits enforces the hello deadline.

One shared pool is kept per coordinator process (``shared_pool``) so a
test suite, benchmark sweep or service pays the spawn cost once, not per
recording; a broken one is replaced on the next call, and growing it
lets what is in the windows finish first. The scratch packs the workers read blobs
from (:class:`~repro.host.blobs.ScratchPacks`) live here too — worker
caches persist across ``HostExecutor`` instances, so what fed them
should — and are deleted with the pool, or at interpreter exit.
"""

from __future__ import annotations

import atexit
import contextlib
import multiprocessing
import pickle
import threading
import time
from collections import deque
from concurrent.futures import Future
from multiprocessing import connection
from typing import Dict

from repro.errors import CollateralLossError, HostPoolError
from repro.host.blobs import ScratchPacks

_shared_pool = None
_shared_size = 0

#: guards ``_shared_pool``/``_shared_size``: concurrent sessions (the
#: service layer, or any threaded caller) reach shared_pool() and
#: invalidate_shared_pool() simultaneously, and the grow/rebuild path is
#: a multi-step read-modify-write — unlocked, two racing callers can
#: shut down a pool twice or leak one entirely. RLock because a locked
#: path may call another locked path (shared_pool → invalidate).
_pool_lock = threading.RLock()

#: where every dispatch's blobs are put for the pool's workers to read.
#: Thread-safe (internally locked): with the service layer many session
#: threads build dispatches concurrently.
_scratch_packs = ScratchPacks()
atexit.register(_scratch_packs.close, abandon=True)

#: ceiling on a worker's spawn, imports and hello (a stuck spawn is a
#: host bug); enforced by the first thread that waits on the pool
_SPAWN_TIMEOUT = 120.0

#: units a worker may hold unanswered: the one it runs and one already in
#: its pipe, so it starts the next without a round trip through the
#: coordinator, which reads replies only at a boundary or a wait. On
#: ``racy_recovery`` (0.4 ms units; EXPERIMENTS.md) window 1 costs the
#: parallel replay 16 % and 3 reads like 2 — and every slot past 2 is a
#: unit a divergence can no longer cancel.
_WINDOW = 2

#: the largest pickle written to a worker that is not idle. A duplex
#: pipe is a socket pair buffering >= 192 KiB here (three 64 KiB
#: messages, measured); at most one earlier unit is unread in it.
_INLINE_BYTES = 64 * 1024


def _worker_main(conn) -> None:
    """A worker process: say hello, then answer calls in order until told to stop.

    The unit path is imported before the hello: a worker that has said it
    is as warm as imports make it. A call that raises is answered with
    the exception; only the process dying fails to answer.
    """
    import repro.host.worker  # noqa: F401

    try:
        conn.send_bytes(b"")
        while message := conn.recv_bytes():
            try:
                fn, args = pickle.loads(message)
                reply = pickle.dumps((fn(*args), None), pickle.HIGHEST_PROTOCOL)
            except Exception as exc:
                try:
                    reply = pickle.dumps((None, exc), pickle.HIGHEST_PROTOCOL)
                except Exception:
                    reply = pickle.dumps((None, RuntimeError(repr(exc))))
            conn.send_bytes(reply)
    except (EOFError, OSError):
        pass  # the coordinator is gone


class _PoolFuture(Future):
    """A submitted call's future: waiting on its result reads the replies
    of the pool that holds it — the one it was handed to, if its own was
    replaced before writing it."""

    def __init__(self, pool: "WorkerPool"):
        super().__init__()
        self._pool = pool

    def result(self, timeout=None):
        waited = None
        while not self.done() and self._pool is not waited:
            waited = self._pool
            waited._wait(self, timeout)
        return super().result(0)


class _Worker:
    """One worker process and the coordinator's end of its pipe."""

    def __init__(self, context):
        self.conn, theirs = context.Pipe()
        self.process = context.Process(
            target=_worker_main, args=(theirs,), daemon=True
        )
        self.process.start()
        theirs.close()  # ours must read end-of-file when the worker dies
        self.ready = False  # until it has said hello
        #: the futures of the units written to it and not yet answered, in
        #: the order written — the order it answers in
        self.window: deque = deque()


class WorkerPool:
    """``jobs`` spawned workers, fed and read by the threads that call it.

    ``_lock`` (a condition) guards the lanes, the windows and the reader
    role, and is never held across the wait on the pipes; the threads
    that wait without the role sleep on it.
    """

    def __init__(self, jobs: int):
        self._lock = threading.Condition()
        #: submitting thread -> its ``(future, pickled call)`` not yet
        #: written; the lane served last moves to the back
        self._lanes: Dict[int, deque] = {}
        #: a thread is reading the pipes (see :meth:`_read_until`)
        self._reading = False
        #: shut down: a unit submitted now goes to ``_successor``, the
        #: pool that replaced this one, or fails at once without one
        self._closing = False
        self._successor = None
        #: what became of the first worker lost (it died, or never said
        #: hello); once set, ``shared_pool`` replaces the pool
        self.broken = ""
        self._hello_by = time.monotonic() + _SPAWN_TIMEOUT
        # (spawn hands a worker this process's ``sys.path`` as it stands)
        context = multiprocessing.get_context("spawn")
        self._workers = [_Worker(context) for _ in range(jobs)]

    def submit(self, fn, *args) -> Future:
        """Queue ``fn(*args)`` on the calling thread's lane: pickled here,
        written now if a worker has room; what has already been answered
        is settled on the way, unless another thread is reading."""
        payload = pickle.dumps((fn, args), pickle.HIGHEST_PROTOCOL)
        future = _PoolFuture(self)
        with self._lock:
            closing, successor = self._closing, self._successor
            if not closing:
                lane = self._lanes.setdefault(threading.get_ident(), deque())
                lane.append((future, payload))
                if self._reading:
                    self._feed()
                    return future
                self._reading = True
        if successor is not None:  # replaced since the caller was given it
            return successor.submit(fn, *args)
        if closing:
            future.set_exception(HostPoolError("the pool is shut down"))
            return future
        try:
            self._pump(0)
        finally:
            self._let_go()
        return future

    def _wait(self, future: Future, timeout) -> None:
        """Read until ``future`` is settled (or handed to a successor) or
        ``timeout`` seconds have passed since every worker said hello (or
        was given up on): a caller's budget is for its unit, not for a
        spawn."""
        def settled():
            return future.done() or future._pool is not self

        self._read_until(
            lambda: settled() or all(w.ready or w.conn is None for w in self._workers),
            None,
        )
        self._read_until(settled, timeout)

    def _read_until(self, done, timeout) -> None:
        """Hold the reader role and pump until ``done()`` or ``timeout``
        seconds (``None``: no limit). While another thread holds the role,
        sleep until it lets go — or ``done()``, which its reads may make so."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._lock:
            while self._reading:
                left = None if deadline is None else deadline - time.monotonic()
                if done() or (left is not None and left <= 0):
                    return
                self._lock.wait(left)
            self._reading = True
        try:
            while not done():
                left = None if deadline is None else max(0.0, deadline - time.monotonic())
                self._pump(left)
                if left == 0:
                    return
        finally:
            self._let_go()

    def _let_go(self) -> None:
        with self._lock:
            self._reading = False
            self._lock.notify_all()

    def _pump(self, timeout) -> None:
        """One wait on the live workers' pipes (``None``: until something
        arrives, or the hello deadline), then settle and refill; the
        caller holds the reader role."""
        with self._lock:
            live = {}
            for worker in self._workers:
                if worker.conn is not None:
                    # (a process sentinel: a worker another thread
                    # retires ends the wait too)
                    live[worker.conn] = live[worker.process.sentinel] = worker
            late = not all(worker.ready for worker in live.values())
            if late:
                hello_in = max(0.0, self._hello_by - time.monotonic())
                timeout = hello_in if timeout is None else min(timeout, hello_in)
        try:
            ready = connection.wait(list(live), timeout) if live else ()
        except OSError:  # a pipe another thread closed since
            ready = ()
        with self._lock:
            for worker in dict.fromkeys(live[obj] for obj in ready):
                if worker.conn is not None:
                    self._read(worker)
            if late and time.monotonic() >= self._hello_by:
                for worker in self._workers:
                    if not worker.ready and worker.conn is not None:
                        self._retire(worker, f"said no hello in {_SPAWN_TIMEOUT:g}s")
            self._feed()

    def _read(self, worker: _Worker) -> None:
        """Settle every reply ``worker`` has written; end-of-file is its death."""
        try:
            while worker.conn.poll():
                reply = worker.conn.recv_bytes()
                if not worker.ready:
                    worker.ready = True
                    continue
                future = worker.window.popleft()
                try:
                    value, raised = pickle.loads(reply)
                except Exception as exc:  # a reply this process cannot load
                    value, raised = None, exc
                if raised is None:
                    future.set_result(value)
                else:
                    future.set_exception(raised)
        except (EOFError, OSError):
            self._retire(worker, "died")

    def _feed(self) -> None:
        """Write queued units to the least-loaded workers with room, taking
        the lanes in turn; wake the threads waiting on what settled."""
        while self._lanes:
            owner, lane = next(iter(self._lanes.items()))
            future, payload = lane[0]
            live = [w for w in self._workers if w.conn is not None]
            if live:
                worker = min(live, key=lambda w: (not w.ready, len(w.window)))
                if (
                    not worker.ready
                    or len(worker.window) >= _WINDOW
                    or (worker.window and len(payload) > _INLINE_BYTES)
                ):
                    break
            lane.popleft()
            del self._lanes[owner]
            if lane:
                self._lanes[owner] = lane  # to the back: round-robin
            if not future.set_running_or_notify_cancel():
                continue  # cancelled while it waited
            if not live:
                future.set_exception(HostPoolError(
                    f"the pool has no worker left: {self.broken or 'shut down'}"
                ))
                continue
            worker.window.append(future)
            try:
                worker.conn.send_bytes(payload)
            except OSError:
                self._retire(worker, "died")
        self._lock.notify_all()

    def _retire(self, worker: _Worker, lost: str = "") -> None:
        """Close ``worker``'s pipe and reap it: asked to stop, or — ``lost``
        says how it went — terminated, its window failed, the pool broken.

        A worker that died was running the first unit of its window; the
        units behind it, and every unit of a worker terminated for another
        reason, are lost on another unit's account."""
        if lost or not worker.ready:
            worker.process.terminate()
        else:
            with contextlib.suppress(OSError):
                worker.conn.send_bytes(b"")
        worker.conn.close()
        worker.conn = None
        worker.process.join(5)
        if worker.process.is_alive():
            worker.process.kill()
            worker.process.join()
        if lost:
            error = HostPoolError if lost == "died" else CollateralLossError
            lost = f"worker {worker.process.pid} {lost}"
            self.broken = self.broken or lost
            while worker.window:
                worker.window.popleft().set_exception(
                    error(f"{lost} with this unit in its window")
                )
                error = CollateralLossError

    def shutdown(self, kill: bool = False, successor: "WorkerPool" = None) -> None:
        """Stop the workers; on return every future of the pool has settled
        or moved to ``successor``, and one submitted later goes there too
        (without a successor, it fails at once).

        Without ``kill``, what is queued or in a window runs first. With
        it — a worker may be hung — units in a window fail as the workers
        are terminated (the executor pushes again exactly those), and
        queued units, never written, move to ``successor``, each in its
        thread's lane, its waiters following it; without one they fail,
        whichever thread queued them.
        """
        with self._lock:
            self._closing, self._successor = True, successor
            lanes = {}
            if kill:
                lanes, self._lanes = self._lanes, {}
            for owner, lane in lanes.items():
                if successor is not None:
                    with successor._lock:
                        successor._lanes.setdefault(owner, deque()).extend(lane)
                        for future, _ in lane:
                            future._pool = successor
                    continue
                for future, _ in lane:
                    if future.set_running_or_notify_cancel():
                        future.set_exception(HostPoolError(
                            "the pool was shut down before this unit was written"
                        ))
            self._lock.notify_all()  # a waiter on a moved unit follows it
        if not kill:
            self._read_until(
                lambda: not self._lanes and not any(w.window for w in self._workers),
                None,
            )
        with self._lock:
            for worker in self._workers:
                if worker.conn is not None:
                    self._retire(worker, "was terminated" if kill else "")
            self._lock.notify_all()


def shared_pool(jobs: int) -> WorkerPool:
    """The coordinator-wide pool, grown (never shrunk) to ``jobs`` workers.

    A previously-broken pool (a worker died) is detected here and rebuilt
    transparently — the breakage of one recording must never poison the
    next. Growing lets what the old pool holds, queued or written,
    finish there first: growth never loses work.
    Returns as soon as the workers are started: what is submitted before
    their hello waits for it.
    """
    with _pool_lock:
        if _shared_pool is not None and _shared_pool.broken:
            invalidate_shared_pool()
        if _shared_pool is None or _shared_size < jobs:
            _replace(max(jobs, _shared_size), kill=False)
        return _shared_pool


def _replace(jobs: int, kill: bool) -> None:
    """Install a new shared pool of ``jobs`` workers, spawned now, and stop
    the old one (``kill``, or broken: at once, handing over its queue)."""
    global _shared_pool, _shared_size
    old, _shared_pool, _shared_size = _shared_pool, WorkerPool(jobs), jobs
    if old is not None:
        old.shutdown(kill=kill or bool(old.broken), successor=_shared_pool)


def invalidate_shared_pool(kill: bool = False) -> None:
    """Replace the shared pool with a new one of its size, and retire the
    scratch packs its workers read.

    What the old pool queues is never lost: it runs there first, or —
    the old workers killed — moves to the new pool, so a unit of another
    thread's dies only if it was in a window. ``kill=True`` terminates
    the old workers at once — required after a unit timeout, when one is
    hung and a drain would never end. A broken pool is always killed:
    whoever still wants its survivors' units pushes them again.
    """
    with _pool_lock:
        if _shared_pool is not None:
            _replace(_shared_size, kill)
        _scratch_packs.close()


def abandon(future: Future, kill: bool = False) -> None:
    """A counted attempt failed for a host reason: replace the shared pool
    it ran on (``kill``: see :func:`invalidate_shared_pool`) — unless that
    pool is gone already, taking the attempt with it, and the one that
    replaced it has done nothing wrong. An attempt that never reached a
    pool replaces the current one."""
    with _pool_lock:
        if getattr(future, "_pool", _shared_pool) is _shared_pool:
            invalidate_shared_pool(kill=kill)


def shutdown_shared_pool() -> None:
    """Tear down the shared pool, failing what it still queues, and the
    scratch packs with it (tests and benchmark hygiene)."""
    global _shared_pool, _shared_size
    with _pool_lock:
        if _shared_pool is not None:
            _shared_pool.shutdown()
        _scratch_packs.close()
        _shared_pool, _shared_size = None, 0
