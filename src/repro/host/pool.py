"""The worker pool: spawned processes, one pipe each, and no helper thread.

*A unit is written to a worker by the thread that submits it and read by
the thread that needs it; the coordinator has no other thread.* The
thread-parallel run is a Python loop on the coordinator's main thread,
so a thread of the pool's would take the GIL from exactly the execution
that is meant to run at native speed. :meth:`WorkerPool.submit` pickles
the call where it stands and writes it to the least-loaded worker that
has said hello and holds fewer than :data:`_WINDOW` unanswered units;
with no such worker the unit waits in one coordinator-side FIFO. Replies
are read by whoever waits: a future's ``result(timeout)`` reads the
workers' pipes until it is settled, every ``submit`` reads what has
already arrived, and both refill the windows from the FIFO. A worker's
death (end-of-file on its pipe) fails exactly the units in its window
and marks the pool broken; the units still queued go to the survivors.

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
submitted before a worker's hello waits in the FIFO, and the first
thread that waits enforces the hello deadline.

One shared pool is kept per coordinator process (``shared_pool``) so a
test suite or benchmark sweep pays the spawn cost once, not per
recording; a broken one is replaced on the next call, and growing it
drains in-flight work first. The scratch packs the workers read blobs
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

from repro.errors import HostPoolError
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
    """A submitted call's future: waiting on its result reads the replies."""

    def __init__(self, pool: "WorkerPool"):
        super().__init__()
        self._pool = pool

    def result(self, timeout=None):
        if not self.done():
            self._pool._wait(self, timeout)
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

    One lock makes ``submit``, ``pump`` and ``shutdown`` atomic: a solo
    run never contends for it; under a fleet the event loop submits and
    pumps while a session thread may shut the pool down.
    """

    def __init__(self, jobs: int):
        self._lock = threading.Lock()
        #: ``(future, pickled call)`` not yet written to a worker
        self._queue: deque = deque()
        #: what became of the first worker lost (it died, or never said
        #: hello); once set, ``shared_pool`` replaces the pool
        self.broken = ""
        self._hello_by = time.monotonic() + _SPAWN_TIMEOUT
        # (spawn hands a worker this process's ``sys.path`` as it stands)
        context = multiprocessing.get_context("spawn")
        self._workers = [_Worker(context) for _ in range(jobs)]

    def filenos(self) -> list:
        """The descriptors replies arrive on (for an event loop's readers)."""
        with self._lock:
            return [w.conn.fileno() for w in self._workers if w.conn is not None]

    def submit(self, fn, *args) -> Future:
        """Queue ``fn(*args)``: pickled here, written now if a worker has
        room; what has already been answered is settled on the way."""
        payload = pickle.dumps((fn, args), pickle.HIGHEST_PROTOCOL)
        future = _PoolFuture(self)
        with self._lock:
            self._queue.append((future, payload))
            self._pump(0)
        return future

    def pump(self, timeout=0) -> None:
        """Settle what arrives within ``timeout`` seconds; refill the windows."""
        with self._lock:
            self._pump(timeout)

    def _wait(self, future: Future, timeout) -> None:
        """Pump until ``future`` is settled or ``timeout`` seconds have passed
        since every worker said hello (or was given up on): a caller's
        budget is for its unit, not for a spawn."""
        with self._lock:
            while not future.done() and any(
                w.conn is not None and not w.ready for w in self._workers
            ):
                self._pump(None)
            deadline = None if timeout is None else time.monotonic() + timeout
            while not future.done():
                left = None if deadline is None else deadline - time.monotonic()
                if left is not None and left <= 0:
                    return
                self._pump(left)

    def _pump(self, timeout) -> None:
        """One wait on the live workers' pipes (``None``: until something
        arrives, or the hello deadline); lock held."""
        live = {w.conn: w for w in self._workers if w.conn is not None}
        late = [w for w in live.values() if not w.ready]
        if late:
            hello_in = max(0.0, self._hello_by - time.monotonic())
            timeout = hello_in if timeout is None else min(timeout, hello_in)
        for conn in connection.wait(list(live), timeout) if live else ():
            self._read(live[conn])
        if late and time.monotonic() >= self._hello_by:
            for worker in late:
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
        """Write queued units, in order, to the least-loaded workers with room."""
        while self._queue:
            live = [w for w in self._workers if w.conn is not None]
            future, payload = self._queue[0]
            if live:
                worker = min(live, key=lambda w: (not w.ready, len(w.window)))
                if (
                    not worker.ready
                    or len(worker.window) >= _WINDOW
                    or (worker.window and len(payload) > _INLINE_BYTES)
                ):
                    return
            self._queue.popleft()
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

    def _retire(self, worker: _Worker, lost: str = "") -> None:
        """Close ``worker``'s pipe and reap it: asked to stop, or — ``lost``
        says how it went — terminated, its window failed, the pool broken."""
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
            lost = f"worker {worker.process.pid} {lost}"
            self.broken = self.broken or lost
            while worker.window:
                worker.window.popleft().set_exception(
                    HostPoolError(f"{lost} with this unit in its window")
                )

    def shutdown(self, kill: bool = False, cancel: bool = True) -> None:
        """Stop the workers; on return every future of the pool has settled
        (one submitted later fails at once).

        Queued units are cancelled (``cancel=False``: run first). Units in
        a window are waited for, or with ``kill`` — a worker may be hung —
        failed as the workers are terminated: the executor pushes again
        exactly those.
        """
        with self._lock:
            while cancel and self._queue:
                self._queue.popleft()[0].cancel()
            while not kill and (
                self._queue or any(w.window for w in self._workers)
            ):
                self._pump(None)
            for worker in self._workers:
                if worker.conn is not None:
                    self._retire(worker, "was terminated" if kill else "")


def shared_pool(jobs: int) -> WorkerPool:
    """The coordinator-wide pool, grown (never shrunk) to ``jobs`` workers.

    A previously-broken pool (a worker died) is detected here and rebuilt
    transparently — the breakage of one recording must never poison the
    next. Growing drains in-flight units before replacing the pool.
    Returns as soon as the workers are started: what is submitted before
    their hello waits for it.
    """
    global _shared_pool, _shared_size
    with _pool_lock:
        if _shared_pool is not None and _shared_pool.broken:
            invalidate_shared_pool()
        if _shared_pool is None or _shared_size < jobs:
            if _shared_pool is not None:
                # Drain, don't yank: both running and queued units complete
                # before the pool is replaced (growth must never lose work).
                _shared_pool.shutdown(cancel=False)
            _shared_pool = WorkerPool(jobs)
            _shared_size = jobs
        return _shared_pool


def shared_pool_is_up(jobs: int) -> bool:
    """Whether ``shared_pool(jobs)`` would return the live pool as it is
    (lock-free: a hint, a stale answer never costs correctness)."""
    pool = _shared_pool
    return pool is not None and _shared_size >= jobs and not pool.broken


def invalidate_shared_pool(kill: bool = False) -> None:
    """Drop the cached shared pool so the next ``shared_pool()`` rebuilds it,
    and the scratch packs its workers read with it.

    ``kill=True`` terminates the workers first — required after a unit
    timeout, when one is hung and a drain would never end. A broken pool
    is always killed: whoever still wants its survivors' units pushes
    them again.
    """
    global _shared_pool, _shared_size
    with _pool_lock:
        if _shared_pool is not None:
            _shared_pool.shutdown(kill=kill or bool(_shared_pool.broken))
        _scratch_packs.close()
        _shared_pool = None
        _shared_size = 0


def shutdown_shared_pool() -> None:
    """Tear down the shared pool (tests and benchmark hygiene)."""
    invalidate_shared_pool(kill=False)
