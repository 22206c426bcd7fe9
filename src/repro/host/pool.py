"""The worker pool: forked processes, one pipe each, and no helper thread.

*A unit is written to a worker by the thread that submits it and read by
the thread that needs it; the coordinator has no other thread.* The
thread-parallel run is a Python loop on the coordinator's main thread,
so a thread of the pool's would take the GIL from exactly the execution
that is meant to run at native speed. :meth:`WorkerPool.submit` pickles
the call where it stands and queues it on the submitting thread's *lane*;
the lanes are served round-robin, each unit written to the least-loaded
worker that holds fewer than :data:`_WINDOW` unanswered units. A solo
run is one lane, a FIFO. Under ``serve`` every session body runs on a
thread of its own, so each tenant is a lane and none waits behind
another's backlog: there is no other scheduler.

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
to the survivors. A unit's ``timeout`` runs from when a worker takes
it — written to an idle worker, or the reply ahead of it read: never
before it starts, so a queued unit has no clock — and every waiting
thread watches every deadline: one run out terminates its worker like a
dead one, the unit failed with :class:`~repro.errors.WorkerTimeoutError`.
A pool shut down with its workers killed (broken, or abandoned after a
failure) fails what is in its windows as collateral,
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

Workers fork from a fork server (multiprocessing's ``forkserver``) that
has imported :mod:`repro.host.worker` and this module, and nothing of
the coordinator's: a worker starts warm in milliseconds and holds
nothing but what the units carry. It inherits the server's environment
as the server started with it, and gets ``sys.path`` with each fork and
its options with each unit. (The preload sees ``PYTHONPATH``, not
``sys.path``: without it, each worker imports the unit path itself —
slower, never different.) A pool is built ready: its constructor waits
for every hello under one deadline, and a worker that dies or stays
mute is retired there.

One shared pool, of exactly the size last asked for, is kept per
coordinator process (``shared_pool``); a broken one is replaced on the
next call, and one of another size once what its windows hold finishes.
The fork server outlives the pools — a replacement is a few forks —
until :func:`shutdown_shared_pool`. The scratch packs the workers read
blobs from (:class:`~repro.host.blobs.ScratchPacks`) live here too —
worker caches persist across ``HostExecutor`` instances, so what fed
them should — and are deleted with the pool, or at interpreter exit.
"""

from __future__ import annotations

import atexit
import contextlib
import math
import multiprocessing
import pickle
import threading
import time
from collections import deque
from concurrent.futures import Future
from multiprocessing import connection, forkserver
from typing import Dict, Optional

from repro.errors import CollateralLossError, HostPoolError, WorkerTimeoutError
from repro.host.blobs import ScratchPacks

_shared_pool = None

#: guards ``_shared_pool``: concurrent sessions (the service layer, or
#: any threaded caller) reach shared_pool() and invalidate_shared_pool()
#: simultaneously, and the resize/rebuild path is a multi-step
#: read-modify-write — unlocked, two racing callers can shut down a pool
#: twice or leak one entirely. RLock because a locked path may call
#: another locked path (abandon → invalidate).
_pool_lock = threading.RLock()

#: where every dispatch's blobs are put for the pool's workers to read.
#: Thread-safe (internally locked): with the service layer many session
#: threads build dispatches concurrently.
_scratch_packs = ScratchPacks()
atexit.register(_scratch_packs.close, abandon=True)

#: workers fork from one server that has imported the unit path and this
#: module, whose ``_worker_main`` each of them runs
_context = multiprocessing.get_context("forkserver")
_context.set_forkserver_preload(["repro.host.worker", __name__])

#: ceiling on a pool's construction: every worker's fork, imports and
#: hello (a stuck start is a host bug)
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

    def __init__(self, pool: "WorkerPool", timeout: Optional[float] = None):
        super().__init__()
        self._pool = pool
        #: seconds it may run once a worker takes it (0: no limit)
        self.timeout = timeout or math.inf
        #: when its clock runs out: never, until a worker takes it
        self.deadline = math.inf

    def start(self) -> None:
        """A worker took it: its clock starts."""
        self.deadline = time.monotonic() + self.timeout

    def result(self, timeout=None):
        waited = None
        while not self.done() and self._pool is not waited:
            waited = self._pool
            waited._read_until(
                lambda: self.done() or self._pool is not waited, timeout
            )
        return super().result(0)


class _Worker:
    """One worker process and the coordinator's end of its pipe."""

    def __init__(self):
        self.conn, theirs = _context.Pipe()
        self.process = _context.Process(
            target=_worker_main, args=(theirs,), daemon=True
        )
        self.process.start()
        theirs.close()  # ours must read end-of-file when the worker dies
        #: the futures of the units written to it and not yet answered, in
        #: the order written — the order it answers in
        self.window: deque = deque()


class WorkerPool:
    """``jobs`` forked workers, fed and read by the threads that call it.

    ``_lock`` (a condition) guards the lanes, the windows and the reader
    role, and is never held across the wait on the pipes; the threads
    that wait without the role sleep on it.
    """

    def __init__(self, jobs: int):
        self.jobs = jobs
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
        self._workers = [_Worker() for _ in range(jobs)]
        deadline = time.monotonic() + _SPAWN_TIMEOUT
        mute = {worker.conn: worker for worker in self._workers}
        while mute:
            heard = connection.wait(list(mute), max(0.0, deadline - time.monotonic()))
            if not heard:
                for worker in mute.values():
                    self._retire(worker, f"said no hello in {_SPAWN_TIMEOUT:g}s")
                break
            for conn in heard:
                try:
                    conn.recv_bytes()
                    del mute[conn]
                except (EOFError, OSError):
                    self._retire(mute.pop(conn), "died before its hello")

    def submit(self, fn, *args, timeout: Optional[float] = None) -> Future:
        """Queue ``fn(*args)`` on the calling thread's lane: pickled here,
        written now if a worker has room; what has already been answered
        is settled on the way, unless another thread is reading.
        ``timeout``: the seconds it may run once a worker takes it (None
        or 0: no limit)."""
        payload = pickle.dumps((fn, args), pickle.HIGHEST_PROTOCOL)
        future = _PoolFuture(self, timeout)
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
            return successor.submit(fn, *args, timeout=timeout)
        if closing:
            future.set_exception(HostPoolError("the pool is shut down"))
            return future
        try:
            self._pump(0)
        finally:
            self._let_go()
        return future

    def _read_until(self, done, timeout) -> None:
        """Hold the reader role and pump until ``done()`` or ``timeout``
        seconds (``None``: no limit). While another thread holds the role,
        sleep until it lets go — or ``done()``, which its reads may make so
        — waking at each unit's deadline to enforce it."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._lock:
            while self._reading:
                left = None if deadline is None else deadline - time.monotonic()
                if done() or (left is not None and left <= 0):
                    return
                self._lock.wait(self._expire(left))
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
        arrives or a deadline), then settle and refill; the caller holds
        the reader role."""
        with self._lock:
            timeout = self._expire(timeout)
            live = {}
            for worker in self._workers:
                if worker.conn is not None:
                    # (a process sentinel: a worker another thread
                    # retires ends the wait too)
                    live[worker.conn] = live[worker.process.sentinel] = worker
        try:
            ready = connection.wait(list(live), timeout) if live else ()
        except OSError:  # a pipe another thread closed since
            ready = ()
        with self._lock:
            for worker in dict.fromkeys(live[obj] for obj in ready):
                if worker.conn is not None:
                    self._read(worker)
            self._feed()

    def _read(self, worker: _Worker) -> None:
        """Settle every reply ``worker`` has written; end-of-file is its death."""
        try:
            while worker.conn.poll():
                reply = worker.conn.recv_bytes()
                future = worker.window.popleft()
                if worker.window:
                    worker.window[0].start()
                try:
                    value, raised = pickle.loads(reply)
                except Exception as exc:  # a reply this process cannot load
                    value, raised = None, exc
                if raised is None:
                    future.set_result(value)
                else:
                    future.set_exception(raised)
        except (EOFError, OSError):
            self._retire(worker, "died", HostPoolError)

    def _feed(self) -> None:
        """Write queued units to the least-loaded workers with room, taking
        the lanes in turn; wake the threads waiting on what settled."""
        while self._lanes:
            owner, lane = next(iter(self._lanes.items()))
            future, payload = lane[0]
            live = [w for w in self._workers if w.conn is not None]
            if live:
                worker = min(live, key=lambda w: len(w.window))
                if len(worker.window) >= _WINDOW or (
                    worker.window and len(payload) > _INLINE_BYTES
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
            if len(worker.window) == 1:
                future.start()
            try:
                worker.conn.send_bytes(payload)
            except OSError:
                self._retire(worker, "died", HostPoolError)
        self._lock.notify_all()

    def _expire(self, wait: Optional[float]) -> Optional[float]:
        """Terminate each worker whose unit's clock has run out, and cut
        ``wait`` (seconds; None: no limit) short at the next deadline —
        to 0 if one just ran out. The caller holds the lock."""
        now, due = time.monotonic(), math.inf
        for worker in self._workers:
            if worker.window:
                due = min(due, worker.window[0].deadline)
                if worker.window[0].deadline <= now:
                    self._retire(worker, "hung", WorkerTimeoutError)
        if due < math.inf:
            left = max(0.0, due - now)
            wait = left if wait is None else min(wait, left)
        return wait

    def _retire(
        self, worker: _Worker, lost: str = "", error: type = CollateralLossError
    ) -> None:
        """Close ``worker``'s pipe and reap it: asked to stop, or — ``lost``
        says how it went — terminated, its window failed, the pool broken.

        The first unit of its window fails with ``error``: the one a
        worker that died or hung was running. The units behind it, and
        every unit of a worker terminated for another reason, are lost on
        another unit's account."""
        if lost:
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
                        successor._feed()  # its workers are idle: no reply will
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
    """The coordinator-wide pool of exactly ``jobs`` workers, built ready.

    A broken pool (a worker died, or never said hello) is replaced here —
    the breakage of one recording must never poison the next — and so is
    one of another size, once what it holds, queued or written, has
    finished there: a resize never loses work.
    """
    with _pool_lock:
        broken = _shared_pool is not None and _shared_pool.broken
        if broken or _shared_pool is None or _shared_pool.jobs != jobs:
            _replace(jobs, kill=False)  # (a broken pool is killed)
        if broken:
            _scratch_packs.close()
        return _shared_pool


def _replace(jobs: int, kill: bool) -> None:
    """Install a new shared pool of ``jobs`` workers, built now, and stop
    the old one (``kill``, or broken: at once, handing over its queue)."""
    global _shared_pool
    old, _shared_pool = _shared_pool, WorkerPool(jobs)
    if old is not None:
        old.shutdown(kill=kill or bool(old.broken), successor=_shared_pool)


def invalidate_shared_pool(kill: bool = False) -> None:
    """Replace the shared pool with a new one of its size, and retire the
    scratch packs its workers read.

    What the old pool queues is never lost: it runs there first, or —
    the old workers killed — moves to the new pool, so a unit of another
    thread's dies only if it was in a window. ``kill=True`` terminates
    the old workers at once, for when one may be hung and a drain would
    never end. A broken pool (a worker died or ran out of time) is always
    killed: whoever still wants its survivors' units pushes them again.
    """
    with _pool_lock:
        if _shared_pool is not None:
            _replace(_shared_pool.jobs, kill)
        _scratch_packs.close()


def abandon(future: Future) -> None:
    """An attempt failed for a host reason: replace the shared pool it ran
    on (killed if a crash or a hang broke it) — unless that pool is gone
    already, taking the attempt with it, and the one that replaced it has
    done nothing wrong. An attempt that never reached a pool replaces the
    current one."""
    with _pool_lock:
        if getattr(future, "_pool", _shared_pool) is _shared_pool:
            invalidate_shared_pool()


def shutdown_shared_pool() -> None:
    """Tear down the shared pool, the scratch packs and the fork server
    (tests and benchmark hygiene). The workers are the server's children:
    once it is reaped, their resource use counts as this process's
    children's (``RUSAGE_CHILDREN``)."""
    global _shared_pool
    with _pool_lock:
        if _shared_pool is not None:
            _shared_pool.shutdown()
        _scratch_packs.close()
        _shared_pool = None
        # (private, and the only handle: ``_stop`` closes the server's
        # pipe and waits for it, which exits once no worker is left)
        forkserver._forkserver._stop()
