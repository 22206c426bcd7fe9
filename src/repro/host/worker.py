"""Executing one epoch unit: the dispatch envelope and its one routine.

An epoch-parallel execution is a pure, disposable function of (start
checkpoint, logs), so one routine serves every place a unit runs.
:func:`_execute` looks the unit's kind up in a two-entry table (label,
input hydration, pure body), hydrates the inputs and times the body.
Two thin callers wrap it:

* :func:`run_unit` — the worker entry point, for every pool submission
  (batch, speculative, fleet). It adopts the coordinator's runtime
  options from the dispatch (never this process's own environment),
  applies injected faults, absorbs the dispatch's blobs into this
  process's cache, executes, ships spans and drained counters home on
  the :class:`~repro.host.wire.UnitTiming`, and converts any exception
  into a structured :class:`~repro.errors.WorkerTaskError` *result*, so
  a bad unit can never break the pool.
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
from typing import Dict, List, Set

from repro import options
from repro.core.epoch_runner import run_epoch
from repro.core.replayer import run_replay_epoch
from repro.errors import WorkerTaskError
from repro.exec.services import InjectionLog
from repro.host import faults as fault_injection
from repro.host.blobs import BlobCache, decode_blob_object
from repro.host.wire import NeedBlobs, RecordEpochUnit, ReplayEpochUnit, UnitTiming
from repro.obs import histo as obs_histo
from repro.obs import metrics as obs_metrics
from repro.obs import spans as obs_spans
from repro.options import RuntimeOptions
from repro.record.sync_log import SyncOrderLog


@dataclass
class UnitDispatch:
    """One unit skeleton plus exactly the blobs being shipped with it.

    ``_local_program`` (stripped at the pickle boundary) keeps the
    coordinator's serial fallback zero-decode, together with the
    ``_local`` shortcuts inside the unit itself.
    """

    machine: object
    unit: object
    program_digest: int
    blobs: Dict[int, bytes] = field(default_factory=dict)
    #: when True the worker collects observability spans for this unit
    #: and ships them home on ``UnitTiming.spans`` (set from the
    #: coordinator's active tracer; workers have no tracer of their own)
    trace: bool = False
    #: the coordinator's resolved runtime options. Shipped, not inherited
    #: (a warm pool keeps its spawn environment): the worker adopts its
    #: fusion switch, blob-cache budget and histogram switch before any work.
    options: RuntimeOptions = RuntimeOptions()
    _local_program: object = field(default=None, repr=False)

    def __getstate__(self):
        state = dict(self.__dict__)
        state["_local_program"] = None
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


#: this worker process's decoded-blob cache; every dispatch brings the
#: budget it is to be held to (see :func:`_absorb_dispatch`)
_worker_cache = BlobCache(0)


def _absorb_dispatch(dispatch: UnitDispatch):
    """Insert the dispatch's blobs into this worker's cache and check it.

    Returns ``(resolve, timing)`` on success — ``resolve`` maps a digest
    to its decoded object, falling back from the cache to the dispatch's
    own blobs (via a per-dispatch memo), so a digest that was shipped can
    ALWAYS be resolved even if a tiny cache evicted it during this very
    absorb; that fallback is what makes NeedBlobs loops impossible.
    Returns ``(None, NeedBlobs)`` when a required digest is neither
    cached nor shipped. The cache first adopts the dispatch's budget,
    evicting down to it if it shrank.
    """
    cache = _worker_cache
    evicted = cache.resize(dispatch.options.blob_cache_bytes)
    for digest, blob in dispatch.blobs.items():
        evicted.extend(cache.insert(digest, blob))
    hits = misses = 0
    missing: List[int] = []
    for digest in dispatch.required_digests():
        if digest in dispatch.blobs:
            misses += 1
        elif cache.has(digest) or digest in _worker_programs:
            hits += 1
        else:
            missing.append(digest)
    if missing:
        return None, NeedBlobs(
            position=dispatch.unit.position,
            missing=tuple(sorted(missing)),
            worker_pid=os.getpid(),
            evicted=tuple(evicted),
        )
    memo: Dict[int, object] = {}

    def resolve(digest: int):
        obj = cache.get(digest)
        if obj is not None:
            return obj
        obj = memo.get(digest)
        if obj is None:
            obj = decode_blob_object(dispatch.blobs[digest])
            memo[digest] = obj
        return obj

    timing = UnitTiming(
        blob_cache_hits=hits,
        blob_cache_misses=misses,
        worker_pid=os.getpid(),
        evicted=tuple(evicted),
    )
    return resolve, timing


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
        SyncOrderLog(hints[unit.sync_start :]),
        unit.use_sync_hints,
        signal_records=signals,
    )


def _replay_inputs(unit, resolve):
    return (
        unit.start.hydrate(resolve),
        _log(unit.syscalls, resolve),
        _ref(unit.signals, resolve),
    )


def _replay_body(program, machine, unit, start, syscalls, signals):
    return run_replay_epoch(
        program,
        machine,
        unit.epoch_index,
        start,
        unit.targets,
        unit.schedule,
        SyncOrderLog(unit.sync_events),
        unit.end_digest,
        syscalls,
        signals,
    )


#: unit type -> (label, input hydration, pure body)
_KINDS = {
    RecordEpochUnit: ("record", _record_inputs, _record_body),
    ReplayEpochUnit: ("replay", _replay_inputs, _replay_body),
}


def _execute(dispatch: UnitDispatch, program, resolve):
    """Hydrate and run one unit: ``(label, value, started, wall, cpu)``.

    ``value`` is the kind's result (an ``EpochRunResult``, or a replay's
    ``(cycles, failure)``); ``started`` is the raw ``perf_counter``
    instant the body began, after hydration.
    """
    unit = dispatch.unit
    label, hydrate, body = _KINDS[type(unit)]
    inputs = hydrate(unit, resolve)
    started = time.perf_counter()
    cpu0 = time.process_time()
    value = body(program, dispatch.machine, unit, *inputs)
    wall = time.perf_counter() - started
    return label, value, started, wall, time.process_time() - cpu0


def run_unit(dispatch: UnitDispatch):
    """The worker entry point (module-level so it pickles by name)."""
    unit = dispatch.unit
    # A fresh registry per task: whatever an aborted or dropped previous
    # task accumulated must never ride home with this unit's counters.
    obs_metrics.process_stats().clear()
    obs_histo.set_enabled(dispatch.options.histograms)
    try:
        with options.activate(dispatch.options):
            fault_injection.inject(unit.faults)
            decode_start = time.perf_counter()
            resolve, timing = _absorb_dispatch(dispatch)
            if resolve is None:
                return unit.position, timing, UnitTiming(worker_pid=os.getpid())
            label, value, started, timing.wall, timing.cpu = _execute(
                dispatch, _worker_program(dispatch.program_digest, resolve), resolve
            )
        if dispatch.trace:
            spanlog = obs_spans.WorkerSpanLog()
            spanlog.add(
                "wire-decode",
                obs_spans.CAT_WIRE,
                decode_start,
                started,
                position=unit.position,
                cache_hits=timing.blob_cache_hits,
                cache_misses=timing.blob_cache_misses,
            )
            spanlog.add(
                "execute",
                obs_spans.CAT_EPOCH,
                started,
                started + timing.wall,
                epoch=unit.epoch_index,
                position=unit.position,
                kind=label,
            )
            timing.spans = spanlog.export()
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
    unit = dispatch.unit
    label, value, started, wall, cpu = _execute(
        dispatch, dispatch._local_program, None
    )
    tracer = obs_spans.current()
    if tracer is not None:
        tracer.add(
            "execute",
            obs_spans.CAT_EPOCH,
            tracer.rebase(started),
            tracer.rebase(started + wall),
            args={
                "epoch": unit.epoch_index,
                "position": unit.position,
                "kind": label + "-serial",
            },
        )
    return unit.position, value, UnitTiming(
        wall=wall, cpu=cpu, worker_pid=os.getpid()
    )
