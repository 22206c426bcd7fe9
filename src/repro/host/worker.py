"""Executing one epoch unit: the dispatch envelope and its one routine.

An epoch-parallel execution is a pure, disposable function of (start
checkpoint, logs), so one routine serves every place a unit runs.
:func:`_execute` looks the unit's kind up in a two-entry table (input
hydration, pure body), hydrates the inputs, runs the body and stamps
when and for how long onto the attempt's
:class:`~repro.obs.lifecycle.UnitTiming` — the one record of an
execution, whichever process made it. Two thin callers wrap it:

* :func:`run_unit` — the worker entry point, for every pool submission
  (pushed or contained, solo or a service tenant's). It adopts the
  coordinator's runtime options from the dispatch (never this process's
  own environment),
  applies injected faults, resolves the unit's digests through this
  process's cache and, for those it lacks, the scratch pack the dispatch
  names, executes, ships its stamps and drained counters home on the
  timing, and converts any exception — a
  digest the pack does not hold, a pack that is gone or is not a pack
  included — into a structured :class:`~repro.errors.WorkerTaskError`
  *result*, so a bad unit can never break the pool.
* :func:`run_unit_serial` — the coordinator's serial fallback. It
  rehydrates through the units' ``_local`` shortcuts (the exact original
  objects, no decode) with no fault injection and no exception
  conversion, so a deterministic guest error raises there with full
  context, exactly as the ``jobs=1`` path would have raised it.
"""

from __future__ import annotations

import os
import time
import traceback
from dataclasses import dataclass, field
from typing import Dict, Optional, Set, Tuple

from repro import options
from repro.core.epoch_runner import run_epoch
from repro.core.replayer import run_replay_epoch
from repro.errors import WorkerTaskError
from repro.exec.services import InjectionLog
from repro.host import faults as fault_injection
from repro.host.blobs import WORKER_CACHE_BYTES, BlobCache
from repro.host.wire import RecordEpochUnit, ReplayEpochUnit
from repro.obs import metrics as obs_metrics
from repro.obs.lifecycle import UnitTiming
from repro.options import RuntimeOptions
from repro.record.pack import BlobStore
from repro.record.sync_log import SyncOrderLog


@dataclass
class UnitDispatch:
    """One unit skeleton and the scratch pack its blobs can be read from.

    ``_local_program`` and ``placed`` stay on the coordinator (stripped
    at the pickle boundary): the first keeps the serial fallback
    zero-decode, together with the ``_local`` shortcuts inside the unit
    itself.
    """

    machine: object
    unit: object
    program_digest: int
    #: root of the :class:`~repro.record.pack.BlobStore` that holds every
    #: digest the unit references (see :mod:`repro.host.blobs`)
    pack: str = ""
    #: the coordinator's resolved runtime options. Shipped, not inherited
    #: (a warm pool keeps its spawn environment): the worker adopts its
    #: fusion switch before any work.
    options: RuntimeOptions = RuntimeOptions()
    _local_program: object = field(default=None, repr=False)
    #: what building this dispatch did to the scratch pack, for the
    #: attempt's epoch life: ``(blobs, bytes)`` newly put, then
    #: ``(blobs, bytes)`` the pack already held from another run
    placed: Tuple[int, int, int, int] = field(default=(0, 0, 0, 0), repr=False)

    def __getstate__(self):
        state = dict(self.__dict__)
        state["_local_program"] = None
        del state["placed"]  # back to the class default on the other side
        return state

    def required_digests(self) -> Set[int]:
        required = self.unit.required_digests()
        required.add(self.program_digest)
        return required


#: decoded :class:`~repro.isa.program.ProgramImage` objects pinned per
#: worker process, keyed by program blob digest. The blob cache already
#: dedupes decoded blobs, but it is byte-budgeted and may evict the
#: program — and re-decoding an image also throws away the decode and
#: superblock tables lazily rebuilt on its ``__dict__`` (both are
#: stripped at the pickle boundary). Pinning a handful of images keeps
#: those tables memoised once per image per process.
_worker_programs: Dict[int, object] = {}
_WORKER_PROGRAM_CAP = 4


def _worker_program(digest: int, resolve) -> object:
    program = _worker_programs.get(digest)
    if program is None:
        program = resolve(digest)
        while len(_worker_programs) >= _WORKER_PROGRAM_CAP:
            _worker_programs.pop(next(iter(_worker_programs)))
        _worker_programs[digest] = program
    return program


#: this worker process's decoded-blob cache
_worker_cache = BlobCache(WORKER_CACHE_BYTES)

#: this worker process's reader over the scratch pack last named to it
_worker_pack: Optional[BlobStore] = None


def _pack_reader(root: str) -> BlobStore:
    """The reader over the pack at ``root``, opened once per pack."""
    global _worker_pack
    if _worker_pack is None or _worker_pack.root != root:
        if _worker_pack is not None:
            _worker_pack.close()
        _worker_pack = BlobStore(root)
    return _worker_pack


def _resolver(dispatch: UnitDispatch, timing: UnitTiming):
    """The digest resolver for one dispatch.

    It maps a digest to its decoded object: out of this worker's cache,
    else read from the pack the dispatch names (and cached). It raises
    when the pack does not hold the digest either. ``timing`` is told,
    of the digests the unit references, how many are already cached
    (hits) and how many the pack has to serve (misses).
    """
    cache = _worker_cache
    required = dispatch.required_digests()
    misses = sum(
        1 for digest in required
        if not cache.has(digest) and digest not in _worker_programs
    )

    def resolve(digest: int):
        obj = cache.get(digest)
        if obj is None:
            obj = cache.insert(digest, _pack_reader(dispatch.pack).get(digest))
        return obj

    timing.blob_cache_hits = len(required) - misses
    timing.blob_cache_misses = misses
    return resolve


# ----------------------------------------------------------------------
# The kind table: what differs between a record and a replay unit is
# which inputs are hydrated and which pure function consumes them.
# ``resolve=None`` means "rehydrate through the ``_local`` shortcuts".
# ----------------------------------------------------------------------
def _ref(ref, resolve):
    return ref._local if resolve is None else resolve(ref.digest)


def _log(chunks, resolve):
    """A unit's syscall log: its chunks' ``InjectionLog``s, joined.

    A serial fallback indexes its chunks afresh, as a cold worker does,
    so the two runs of a unit report the same counters.
    """
    if resolve is None:
        return InjectionLog.join([InjectionLog(chunk._local) for chunk in chunks])
    return InjectionLog.join([resolve(chunk.digest) for chunk in chunks])


def _record_inputs(unit, resolve):
    start = unit.start.hydrate(resolve)
    return (
        start,
        unit.boundary.hydrate(resolve, base_pages=start.memory.pages),
        _log(unit.syscalls, resolve),
        _ref(unit.signals, resolve),
        _ref(unit.sync_events, resolve),
    )


def _record_body(program, machine, unit, start, boundary, syscalls, signals, hints):
    return run_epoch(
        program,
        machine,
        unit.epoch_index,
        start,
        boundary,
        syscalls,
        SyncOrderLog(hints),
        unit.use_sync_hints,
        signal_records=signals,
    )


def _replay_inputs(unit, resolve):
    starts, base = [], None
    for epoch in unit.epochs:
        starts.append(epoch.start.hydrate(resolve, base_pages=base))
        base = starts[-1].memory.pages
    return (starts, _log(unit.syscalls, resolve), _ref(unit.signals, resolve))


def _replay_body(program, machine, unit, starts, syscalls, signals):
    return [
        run_replay_epoch(
            program,
            machine,
            epoch.index,
            start,
            epoch.targets,
            epoch.schedule,
            SyncOrderLog(epoch.sync_events),
            epoch.end_digest,
            syscalls,
            signals,
        )
        for epoch, start in zip(unit.epochs, starts)
    ]


#: unit type -> (input hydration, pure body)
_KINDS = {
    RecordEpochUnit: (_record_inputs, _record_body),
    ReplayEpochUnit: (_replay_inputs, _replay_body),
}


def _execute(dispatch: UnitDispatch, program, resolve, timing: UnitTiming):
    """Hydrate and run one unit; stamp the execution onto ``timing``.

    Returns the kind's result (an ``EpochRunResult``, or a replay
    unit's ``(cycles, failure)`` per epoch of its span). The body
    starts, and is timed, after hydration.
    """
    unit = dispatch.unit
    hydrate, body = _KINDS[type(unit)]
    inputs = hydrate(unit, resolve)
    timing.started = time.perf_counter()
    cpu0 = time.process_time()
    value = body(program, dispatch.machine, unit, *inputs)
    timing.wall = time.perf_counter() - timing.started
    timing.cpu = time.process_time() - cpu0
    return value


def run_unit(dispatch: UnitDispatch):
    """The worker entry point (module-level so it pickles by name)."""
    unit = dispatch.unit
    # A fresh registry per task: whatever an aborted or dropped previous
    # task accumulated must never ride home with this unit's counters.
    obs_metrics.process_stats().clear()
    try:
        with options.activate(dispatch.options):
            fault_injection.inject(unit.faults)
            timing = UnitTiming(
                worker_pid=os.getpid(), decode_started=time.perf_counter()
            )
            resolve = _resolver(dispatch, timing)
            value = _execute(
                dispatch, _worker_program(dispatch.program_digest, resolve),
                resolve, timing,
            )
        timing.metrics = tuple(sorted(obs_metrics.drain_process().items()))
        return unit.position, value, timing
    except Exception as exc:
        error = WorkerTaskError(
            f"{type(exc).__name__}: {exc}",
            position=unit.position,
            exc_type=type(exc).__name__,
            traceback_text=traceback.format_exc(),
        )
        return unit.position, error, UnitTiming(worker_pid=os.getpid())


def run_unit_serial(dispatch: UnitDispatch):
    """The coordinator's serial fallback for one unit (see module doc)."""
    timing = UnitTiming(worker_pid=os.getpid())
    value = _execute(dispatch, dispatch._local_program, None, timing)
    return dispatch.unit.position, value, timing
