"""Worker-pool lifecycle: the coordinator-wide spawn-context process pool.

Spawn (not fork) keeps workers safe on every platform and guarantees
they import a fresh ``repro`` — nothing leaks from the coordinator
except what the work units carry (:mod:`repro.host.worker` is what runs
in them; :mod:`repro.host.executor` is what feeds them).

One shared pool is kept per coordinator process (``shared_pool``) so a
test suite or benchmark sweep pays the spawn cost once, not per
recording. A broken shared pool is detected and rebuilt transparently on
the next call; growing the pool drains in-flight work before replacing
it. The scratch packs the pool's workers read blobs from
(:class:`~repro.host.blobs.ScratchPacks`) live here too, for the same
reason the pool is module-level — worker caches persist across
``HostExecutor`` instances, so what fed them should too — and are
deleted with the pool, or at interpreter exit.
"""

from __future__ import annotations

import atexit
import contextlib
import multiprocessing
import os
import threading
from concurrent.futures import ProcessPoolExecutor

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

#: ceiling on worker spawn + first ping (a stuck spawn is a host bug)
_SPAWN_TIMEOUT = 120.0


@contextlib.contextmanager
def _worker_import_path():
    """Temporarily export the package root so spawned workers can ``import repro``.

    Spawn re-execs the interpreter, which builds ``sys.path`` from
    ``PYTHONPATH`` — the coordinator may instead have been launched with
    a ``sys.path`` hack (benchmarks do), so the package root is exported
    explicitly. The export is scoped to pool construction and restored
    exactly afterwards: a persistent mutation would leak into every
    unrelated subprocess the caller (or its test suite) spawns later.
    """
    root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    original = os.environ.get("PYTHONPATH")
    parts = [p for p in (original or "").split(os.pathsep) if p]
    if root in parts:
        yield
        return
    os.environ["PYTHONPATH"] = os.pathsep.join([root] + parts)
    try:
        yield
    finally:
        if original is None:
            os.environ.pop("PYTHONPATH", None)
        else:
            os.environ["PYTHONPATH"] = original


def _worker_ping() -> int:
    """No-op worker task: forces a spawn and proves the import worked."""
    return os.getpid()


def _new_pool(jobs: int) -> ProcessPoolExecutor:
    """A fresh spawn-context pool with all ``jobs`` workers pre-spawned.

    Workers must spawn while the scoped ``PYTHONPATH`` export is active,
    and ``ProcessPoolExecutor`` spawns lazily per submit — so every
    worker is forced up with a ping before the export is rolled back.
    (A pool never replaces dead workers — a death breaks it and we build
    a new one through here — so no worker can ever spawn later without
    the export.)
    """
    context = multiprocessing.get_context("spawn")
    with _worker_import_path():
        pool = ProcessPoolExecutor(max_workers=jobs, mp_context=context)
        try:
            pings = [pool.submit(_worker_ping) for _ in range(jobs)]
            for ping in pings:
                ping.result(timeout=_SPAWN_TIMEOUT)
        except Exception:
            pool.shutdown(wait=False, cancel_futures=True)
            raise
    return pool


def _kill_workers(pool: ProcessPoolExecutor) -> None:
    """Terminate a pool whose workers may be hung (they cannot be recalled).

    On return every future the pool still held has settled — failed or
    cancelled by the pool's manager thread, which is joined for that:
    the executor pushes again exactly the units that died here.
    """
    processes = list(getattr(pool, "_processes", {}).values())
    for process in processes:
        try:
            process.terminate()
        except Exception:
            pass
    pool.shutdown(wait=False, cancel_futures=True)
    manager = getattr(pool, "_executor_manager_thread", None)
    for joinable in filter(None, (*processes, manager)):
        try:
            joinable.join(timeout=5)
        except Exception:
            pass


def shared_pool(jobs: int) -> ProcessPoolExecutor:
    """The coordinator-wide pool, grown (never shrunk) to ``jobs`` workers.

    A previously-broken pool (a worker died) is detected here and rebuilt
    transparently — the breakage of one recording must never poison the
    next. Growing drains in-flight units before replacing the pool, so a
    still-running batch keeps its results.
    """
    global _shared_pool, _shared_size
    with _pool_lock:
        if getattr(_shared_pool, "_broken", False):
            invalidate_shared_pool()
        if _shared_pool is None or _shared_size < jobs:
            if _shared_pool is not None:
                # Drain, don't yank: both running and queued units complete
                # before the pool is replaced (growth must never lose work).
                _shared_pool.shutdown(wait=True, cancel_futures=False)
            _shared_pool = _new_pool(jobs)
            _shared_size = jobs
        return _shared_pool


def shared_pool_is_up(jobs: int) -> bool:
    """Whether ``shared_pool(jobs)`` would return the live pool at once.

    Lock-free on purpose — a hint for callers choosing between calling
    ``shared_pool`` inline and off-thread; a stale answer costs one or
    the other, never correctness.
    """
    pool = _shared_pool
    return (
        pool is not None
        and _shared_size >= jobs
        and not getattr(pool, "_broken", False)
    )


def invalidate_shared_pool(kill: bool = False) -> None:
    """Drop the cached shared pool so the next ``shared_pool()`` rebuilds it,
    and the scratch packs its workers read with it.

    ``kill=True`` terminates the worker processes first — required after
    a unit timeout, when a worker is hung and would otherwise block
    interpreter exit (the executor's atexit handler joins workers). A
    broken pool is always killed: its manager thread normally terminates
    the surviving workers itself, but before CPython 3.12.1 it dies
    first if a cancelled future is still queued (``set_exception`` on it
    raises), and the orphans would block interpreter exit the same way.
    """
    global _shared_pool, _shared_size
    with _pool_lock:
        if _shared_pool is not None:
            if kill or getattr(_shared_pool, "_broken", False):
                _kill_workers(_shared_pool)
            else:
                _shared_pool.shutdown(wait=True, cancel_futures=True)
        _scratch_packs.close()
        _shared_pool = None
        _shared_size = 0


def shutdown_shared_pool() -> None:
    """Tear down the shared pool (tests and benchmark hygiene)."""
    invalidate_shared_pool(kill=False)

