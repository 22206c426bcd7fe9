"""The coordinator side: dispatch, containment and ordered merge of units.

``HostExecutor`` runs epoch work units on a pool of worker processes.
Every unit — replay, pushed ahead, rebuilt at the merge, under the
direct pool or a service fleet — takes one path:
:meth:`HostExecutor._dispatch` puts it in a pool and
:func:`~repro.host.worker.run_unit` executes it there; a unit the pool
cannot finish runs through :func:`~repro.host.worker.run_unit_serial` on
the coordinator.

Results are consumed strictly in position order, so the merge on the
coordinator is deterministic regardless of completion order. A replay
runs every unit of its batch; a record segment is a
:class:`SpeculativeSession`: units are pushed while the thread-parallel
run is still going, the merge walks them in order, and the first
divergence cancels everything not yet started — epochs after a
divergence belong to an abandoned thread-parallel future and their
results would be discarded anyway. A worker that is already mid-epoch
runs to completion harmlessly; its result is dropped. Units built at
merge time are dispatched lazily inside a bounded submission window
(about two per worker), so blobs are encoded and put only for units
that will actually run.

**The blob plane, coordinator side.** A unit names digests and a pack;
whoever lacks a digest reads it. Before a unit is submitted, the blobs
it references that the scratch pack (:mod:`repro.host.blobs`, owned by
:mod:`repro.host.pool`) does not hold yet are appended to it and
flushed; the dispatch that crosses the pipe is always the skeleton plus
the pack's path. The coordinator keeps no model of any worker's cache,
and a unit costs the pack what is new — in steady state the epoch's
dirty pages and its new log chunk, nothing else. A worker that cannot
read a digest answers with a task error, contained like any other.

**Fault containment.** A failed epoch-parallel attempt is disposable by
design — that is the paper's core insight — so host faults are treated
the same way a guest divergence is: contain, re-execute, keep going.
Three failure classes, one policy (per unit: retry once on a fresh pool,
then fall back to in-coordinator serial execution):

* **crash** — a worker process died; ``concurrent.futures`` breaks the
  whole pool, so surviving results are harvested out of their futures,
  the pool is rebuilt, and unfinished units are resubmitted. The crash
  is attributed to the unit the coordinator was waiting on; collateral
  victims are resubmitted without blame (they may occasionally burn an
  attempt of their own — that costs parallelism, never correctness).
* **timeout** — a unit exceeded the per-unit wall-clock budget (the
  ``unit_timeout`` runtime option; 0 disables). The hung worker cannot
  be recalled, so the pool's processes are terminated and the pool
  rebuilt.
* **task error** — the unit raised inside the worker and came home as a
  structured :class:`~repro.errors.WorkerTaskError` result, so the pool
  stays healthy. A deterministic guest error reproduces during the
  serial fallback and is re-raised there.

Because epoch execution is a deterministic function of the checkpoints
and logs, and the serial fallback runs the identical pure function in
the coordinator, every recording and replay verdict is bit-identical to
``jobs=1`` no matter which workers crashed, hung or raised along the
way. Faults and blob traffic change only
wall-clock time and the host accounting (``timing_summary()["faults"]``
/ ``["wire"]``), which is surfaced on ``RecordResult.host`` /
``ReplayResult.host`` and never stored in a recording.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future
from concurrent.futures import TimeoutError as FutureTimeout
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.errors import (
    HostPoolError,
    WorkerCrashError,
    WorkerTaskError,
    WorkerTimeoutError,
)
from repro.host import faults as fault_injection
from repro.host.pool import _scratch_packs, invalidate_shared_pool, shared_pool
from repro.host.wire import UnitBatch, UnitTiming
from repro.host.worker import UnitDispatch, run_unit, run_unit_serial
from repro.memory.blob import blob_digest, encode_object
from repro.obs import events as obs_events
from repro.obs import histo as obs_histo
from repro.obs import metrics as obs_metrics
from repro.obs import spans as obs_spans
from repro.options import RuntimeOptions

#: pool attempts per unit before the serial fallback (initial + 1 retry)
_POOL_ATTEMPTS = 2

_COUNTER_BY_KIND = {
    "crash": "crashes",
    "timeout": "timeouts",
    "task-error": "task_errors",
}


@dataclass
class _Batch:
    """Coordinator-side state of one in-flight unit batch."""

    #: "record" or "replay": scopes fault specs and labels unit timings
    kind: str
    program: object
    machine: object
    program_digest: int
    #: every blob any unit references, keyed by digest
    blobs: Dict[int, bytes]
    fault_specs: Tuple = ()
    units: List[object] = field(default_factory=list)
    #: per-index blob bytes / blobs newly put into the scratch pack,
    #: accumulated across re-dispatches
    bytes_shipped: List[int] = field(default_factory=list)
    blobs_sent: List[int] = field(default_factory=list)

    def _add_unit(self, unit) -> int:
        """Stamp the unit's fault specs and slot it at its position; its index.

        Units arrive in position order, so a new position is the next
        slot. A position added again (the merge's full-knowledge rebuild
        of a unit cut earlier) replaces the unit and keeps the slot's
        wire accounting: what a position cost is every attempt's bytes.
        """
        unit.faults = fault_injection.faults_for(
            self.fault_specs, self.kind, unit.position
        )
        if unit.position < len(self.units):
            self.units[unit.position] = unit
            return unit.position
        self.units.append(unit)
        self.bytes_shipped.append(0)
        self.blobs_sent.append(0)
        return len(self.units) - 1

    def stamp(self, index: int, timing: UnitTiming) -> None:
        """Write what position ``index`` cost the scratch pack onto its timing."""
        timing.bytes_shipped = self.bytes_shipped[index]
        timing.blobs_sent = self.blobs_sent[index]


def _lost(position: int, why: str) -> Future:
    """A future that has already failed: the unit never reached a pool."""
    future: Future = Future()
    future.set_exception(
        WorkerCrashError(
            f"unit {position} was not submitted: {why}", position=position
        )
    )
    return future


class _DirectDispatcher:
    """The default submission path: the coordinator-wide shared pool.

    This is the seam the service layer replaces: a dispatcher owns how
    the pool is brought up (``warm``), *where* a built dispatch goes
    (``submit``) and what abandoning a suspect pool means (``abandon``).
    A fleet dispatcher (``repro.service``) routes the same calls through
    per-session queues into one multiplexed pool.
    """

    def __init__(self, jobs: int):
        self._jobs = jobs

    def warm(self) -> None:
        """Bring the pool up (speculative sessions warm off-thread)."""
        shared_pool(self._jobs)

    def submit(self, fn, dispatch: UnitDispatch):
        return shared_pool(self._jobs).submit(fn, dispatch)

    def abandon(self, kill: bool) -> None:
        """After a crash/timeout: drop the pool; the next call rebuilds."""
        invalidate_shared_pool(kill=kill)


class HostExecutor:
    """Runs epoch work units on a pool of worker processes.

    ``options`` is the run's resolved :class:`~repro.options.RuntimeOptions`:
    the executor takes its worker count (``host_jobs``), per-unit
    wall-clock budget (``unit_timeout``; 0 disables hang detection) and
    fault directives (``host_faults`` / ``fault_state``, parsed here —
    junk raises) from it, and carries it on every dispatch so workers follow
    the coordinator, never their spawn-time environment.

    ``dispatcher`` overrides the submission path (see
    :class:`_DirectDispatcher`); the service layer injects a per-session
    fleet dispatcher here so many concurrent sessions share one pool
    with fair-share scheduling and bounded backpressure.
    """

    def __init__(self, options: RuntimeOptions, dispatcher=None):
        self.options = options
        self.jobs = options.host_jobs
        self.unit_timeout = options.unit_timeout
        self._fault_specs = fault_injection.parse_fault_specs(
            options.host_faults, options.fault_state
        )
        self._dispatch_path = (
            dispatcher if dispatcher is not None else _DirectDispatcher(self.jobs)
        )
        #: every digest a dispatch of this executor has named: one the
        #: scratch pack already held *and* this set lacks was put by
        #: someone else (the fleet's cross-session dedup accounting)
        self._seen: Set[int] = set()
        #: (program object, digest, blob) of the last program shipped
        self._program_blob: Optional[Tuple[object, int, bytes]] = None
        #: per-unit worker timings, in merge order: (kind, position,
        #: UnitTiming). Serial-fallback units record coordinator timings
        #: under "<kind>-serial".
        self.unit_timings: List[Tuple[str, int, UnitTiming]] = []
        #: coordinator seconds spent building + submitting dispatches
        self.dispatch_wall = 0.0
        #: containment counters (crashes, timeouts, task_errors, retries,
        #: serial_fallbacks) — surfaced via ``timing_summary()``
        self.counters: Dict[str, int] = dict.fromkeys(
            ("crashes", "timeouts", "task_errors", "retries", "serial_fallbacks"),
            0,
        )
        #: one entry per observed failure: kind, position, attempt, error
        self.fault_events: List[Dict[str, object]] = []
        #: two-deep commit pipeline accounting (see
        #: :class:`SpeculativeSession`): units dispatched during the
        #: thread-parallel run, how many results were accepted into the
        #: merge (a failing verdict that sends the segment to recovery
        #: included — it was used) and how many were invalidated by
        #: late-arriving log/hint events. Every other dispatched unit
        #: was discarded — lost to a host reason, cancelled behind a
        #: divergence, or never reached by the merge — so
        #: ``timing_summary()`` derives ``discarded`` as the remainder.
        #: Kept out of ``counters`` — speculation failures are never
        #: faults, just discarded wall-clock.
        self.speculation: Dict[str, int] = dict.fromkeys(
            ("dispatched", "accepted", "invalidated"), 0
        )

    # ------------------------------------------------------------------
    def _program_wire(self, program) -> Tuple[int, bytes]:
        """The program image's blob, encoded once per program object."""
        cached = self._program_blob
        if cached is None or cached[0] is not program:
            blob = encode_object(program)
            self._program_blob = (program, blob_digest(blob), blob)
            cached = self._program_blob
        return cached[1], cached[2]

    def _begin_batch(self, kind: str, program, machine, units=(), blobs=()) -> _Batch:
        """A batch holding ``units``, their blobs and the program's."""
        digest, blob = self._program_wire(program)
        batch = _Batch(
            kind=kind,
            program=program,
            machine=machine,
            program_digest=digest,
            blobs={**dict(blobs), digest: blob},
            fault_specs=self._fault_specs,
        )
        for unit in units:
            batch._add_unit(unit)
        return batch

    def _make_dispatch(self, batch: _Batch, position: int) -> UnitDispatch:
        """Build one dispatch: put what the scratch pack lacks, name the pack.

        Raises ``OSError`` when the pack cannot be written.
        """
        unit = batch.units[position]
        required = unit.required_digests()
        required.add(batch.program_digest)
        pack, fresh = _scratch_packs.place(required, batch.blobs)
        found = required.difference(fresh, self._seen)
        self._seen |= required
        placed = (
            len(fresh), sum(len(batch.blobs[digest]) for digest in fresh),
            len(found), sum(len(batch.blobs[digest]) for digest in found),
        )
        batch.blobs_sent[position] += placed[0]
        batch.bytes_shipped[position] += placed[1]
        return UnitDispatch(
            machine=batch.machine,
            unit=unit,
            program_digest=batch.program_digest,
            pack=pack,
            trace=obs_spans.enabled(),
            options=self.options,
            _local_program=batch.program,
            placed=placed,
        )

    def _dispatch(self, batch: _Batch, index: int, **span_args) -> Future:
        """Submit one unit: the only place a unit enters a pool.

        Builds the dispatch (the unit's new blobs go into the scratch
        pack first), submits it through the dispatcher seam, accounts
        the coordinator time and emits the ``dispatch`` span. Two
        failures are contained: a scratch pack that cannot be written
        (``OSError`` — disk full, its directory gone) and a pool that
        cannot take the unit (broken, unbuildable, shutting down). The
        future returned has then already failed with the cause, and the
        caller's containment — or, for speculation, a discard — takes
        over. Anything else is a bug in building the dispatch, and
        raises.
        """
        t0 = time.perf_counter()
        tracer = obs_spans.current()
        span_start = tracer.now() if tracer is not None else 0.0
        bytes_before = batch.bytes_shipped[index]
        position = batch.units[index].position
        try:
            try:
                dispatch = self._make_dispatch(batch, index)
            except OSError as exc:
                return _lost(position, f"the scratch pack cannot be written ({exc!r})")
            try:
                future = self._dispatch_path.submit(run_unit, dispatch)
            except Exception as exc:
                _scratch_packs.release(dispatch.pack)
                return _lost(position, f"the pool refused it ({exc!r})")
        finally:
            self.dispatch_wall += time.perf_counter() - t0
        future.add_done_callback(
            lambda _, pack=dispatch.pack: _scratch_packs.release(pack)
        )
        if tracer is not None:
            tracer.add(
                "dispatch",
                obs_spans.CAT_WIRE,
                span_start,
                tracer.now(),
                args={
                    "position": position,
                    "bytes": batch.bytes_shipped[index] - bytes_before,
                    **span_args,
                },
            )
        return future

    def _fill_window(self, batch, futures, done, start, skip) -> None:
        """Keep the submission window full of live futures from ``start``.

        Dispatches are built lazily, at most ~2 per worker ahead of the
        merge head (the head position itself is always submitted): blobs
        are encoded and put only for units that will actually run, so
        a divergence exit wastes no dispatch work on cancelled tails. If
        a unit cannot be submitted (the pool broke under a unit submitted
        just before), the loop stops quietly: the head future carries the
        breakage, and waiting on it attributes the failure and rebuilds.
        """
        window = max(2 * self.jobs, 2)
        live = sum(1 for f in futures.values() if not f.done())
        for position in range(start, len(batch.units)):
            if position in done or position in futures or position in skip:
                continue
            if position > start and live >= window:
                break
            future = futures[position] = self._dispatch(batch, position)
            if future.done():
                break
            live += 1

    def _await(self, future, position: int):
        """Wait for one submitted unit: ``(outcome, failure)``, one is None."""
        if future is None:
            return None, WorkerCrashError(
                f"unit {position} was never submitted", position=position
            )
        try:
            return future.result(timeout=self.unit_timeout or None), None
        except FutureTimeout:
            future.cancel()
            return None, WorkerTimeoutError(
                f"unit {position} exceeded the {self.unit_timeout:g}s unit timeout",
                position=position,
                timeout=self.unit_timeout,
            )
        except WorkerCrashError as lost:
            return None, lost  # it never reached a pool (see _dispatch)
        except Exception as exc:
            return None, WorkerCrashError(
                f"worker died running unit {position}: {exc!r}",
                position=position,
            )

    def _ingest_observability(self, timing: UnitTiming) -> None:
        """Fold a merged unit's piggybacked counters/spans into this process.

        Called only for results that actually merge or that the verdict
        schedule consumed — dropped results (cancelled divergence tails,
        crashed attempts) drop their counters with them, which is what
        keeps ``jobs=1`` and ``jobs=N`` metrics identical. The
        piggybacks are drained as they fold, so a verdict ingested when
        it was consumed merges later without counting twice.
        """
        if timing.metrics:
            obs_metrics.process_stats().update_from(dict(timing.metrics))
            timing.metrics = ()
        if timing.spans:
            tracer = obs_spans.current()
            if tracer is not None:
                tracer.ingest(
                    timing.spans,
                    track=timing.worker_pid,
                    annotate={
                        "bytes_shipped": timing.bytes_shipped,
                        "blobs_sent": timing.blobs_sent,
                    },
                )
            timing.spans = ()

    def _note_fault(self, failure: HostPoolError) -> None:
        self.counters[_COUNTER_BY_KIND[failure.kind]] += 1
        self.fault_events.append(
            {
                "kind": failure.kind,
                "position": failure.position,
                "attempt": failure.attempt,
                "error": str(failure),
            }
        )
        obs_events.emit(
            "fault-contained", fault=failure.kind,
            position=failure.position, attempt=failure.attempt,
        )

    @staticmethod
    def _harvest(futures, done) -> None:
        """Salvage completed results out of a broken batch, drop the rest."""
        for position, future in list(futures.items()):
            if future.done() and not future.cancelled():
                try:
                    if future.exception(timeout=0) is None:
                        done[position] = future.result(timeout=0)
                except Exception:
                    pass
        futures.clear()

    def _run_contained(self, batch: _Batch, position: int, futures, done, skip):
        """Run the merge head to a value: ``(timing label, value, timing)``.

        Per-unit policy: run in the pool; on crash/timeout/task-error,
        retry once (crash and timeout also rebuild the pool); on a
        second failure, execute the unit serially in the coordinator.
        """
        attempt = 0
        while True:
            outcome, failure = done.pop(position, None), None
            if outcome is None:
                self._fill_window(batch, futures, done, position, skip)
                outcome, failure = self._await(futures.pop(position, None), position)
            if outcome is not None:
                _, value, timing = outcome
                if not isinstance(value, WorkerTaskError):
                    batch.stamp(position, timing)
                    self._ingest_observability(timing)
                    # Coordinator-side, merged results only: dropped
                    # speculation/divergence tails never observe.
                    obs_histo.observe("unit_wall_s", timing.wall)
                    obs_histo.observe("unit_bytes", timing.bytes_shipped)
                    return batch.kind, value, timing
                failure = value
            # Containment: the unit failed in the pool.
            failure.attempt = attempt
            self._note_fault(failure)
            if not isinstance(failure, WorkerTaskError):
                # Crash/hang: the pool itself is suspect — salvage
                # finished results, then rebuild on the next submit.
                self._harvest(futures, done)
                self._dispatch_path.abandon(
                    kill=isinstance(failure, WorkerTimeoutError)
                )
            attempt += 1
            if attempt < _POOL_ATTEMPTS:
                self.counters["retries"] += 1
                obs_events.emit("fault-retry", position=position)
                continue
            self.counters["serial_fallbacks"] += 1
            obs_events.emit("serial-fallback", position=position)
            _, value, timing = run_unit_serial(
                UnitDispatch(
                    batch.machine,
                    batch.units[position],
                    batch.program_digest,
                    _local_program=batch.program,
                )
            )
            batch.stamp(position, timing)
            return batch.kind + "-serial", value, timing

    def run_replay_units(
        self, program, machine, batch: UnitBatch
    ) -> List[Tuple[int, object]]:
        """Every unit's ``(cycles, failure)``, in position order.

        Worker crashes, hangs and exceptions are contained per unit
        (retry once, then serial fallback), so the list is always
        complete and bit-identical to the serial path.
        """
        state = self._begin_batch("replay", program, machine, batch.units, batch.blobs)
        futures: Dict[int, object] = {}
        done: Dict[int, tuple] = {}
        values = []
        try:
            for position in range(len(state.units)):
                label, value, timing = self._run_contained(
                    state, position, futures, done, ()
                )
                self.unit_timings.append((label, position, timing))
                values.append(value)
        finally:
            for pending in futures.values():
                pending.cancel()
        return values

    # ------------------------------------------------------------------
    def timing_summary(self) -> dict:
        """Host-cost accounting for benchmarks and ``RecordResult.host``."""
        timings = [t for _, _, t in self.unit_timings]
        return {
            "jobs": self.jobs,
            "units": len(self.unit_timings),
            "unit_wall": [round(t.wall, 6) for t in timings],
            "unit_cpu": [round(t.cpu, 6) for t in timings],
            "unit_pids": [t.worker_pid for t in timings],
            "dispatch_wall": round(self.dispatch_wall, 6),
            "faults": dict(self.counters),
            "fault_events": list(self.fault_events),
            "speculation": {
                **self.speculation,
                "discarded": self.speculation["dispatched"]
                - self.speculation["accepted"]
                - self.speculation["invalidated"],
            },
            "wire": {
                "bytes_shipped": sum(t.bytes_shipped for t in timings),
                "blobs_sent": sum(t.blobs_sent for t in timings),
                "blob_cache_hits": sum(t.blob_cache_hits for t in timings),
                "blob_cache_misses": sum(t.blob_cache_misses for t in timings),
                # Nothing is ever sent twice: constant until a benchmark
                # PR drops the row benchmarks/e2e reads it into.
                "blob_resends": 0,
                "unit_bytes": [t.bytes_shipped for t in timings],
            },
        }


class SpeculativeSession:
    """One segment's record units: pushed ahead, then merged in order.

    The recorder creates a session per segment. :meth:`push` hands it
    one cut epoch unit; with ``ahead`` (the commit pipeline, on by
    default) the unit ships to the pool at once — *while the
    thread-parallel run is still producing later epochs*, and, for the
    tail units cut when that run finishes, while the merge is committing
    earlier ones — strictly non-blocking, so a broken pool or full queue
    costs nothing but the speculation. Without ``ahead`` the unit is
    only held for the verdict that may ask for it. :meth:`wait` blocks
    for one unit's verdict (the recorder's verdict schedule, armed once
    a run has diverged); :meth:`harvest` is the segment's merge, a
    single in-order stream over everything the session holds.

    An attempt pushed ahead that crashes, hangs or raises is never
    retried on its own account and never counts as a fault: the merge
    rebuilds the position with full knowledge and runs that through the
    executor's contained path. Only a verdict the schedule *consumes*
    must not depend on host luck, so :meth:`wait` re-obtains a lost one
    through the contained path itself. Observability ingest and timing
    records are deferred to the consume or the merge — a never-consumed
    result leaves no trace in the run metrics, which is what keeps
    ``jobs=1`` and ``jobs=N`` metrics identical.
    """

    def __init__(self, executor: HostExecutor, program, machine, ahead: bool = True):
        self.executor = executor
        self.ahead = ahead
        self._batch = executor._begin_batch("record", program, machine)
        #: position -> in-flight future
        self._futures: Dict[int, object] = {}
        #: position -> settled ``(value, timing)``; ``value`` is None
        #: for an answer lost to a host reason
        self._outcomes: Dict[int, tuple] = {}
        #: positions pushed but not yet submitted (the pool was not up)
        self._deferred: List[int] = []
        #: position -> in-flight future of a unit the merge rebuilt
        self._reruns: Dict[int, object] = {}
        #: set by the warm-up thread; read (GIL-atomic) by push/harvest
        self._ready = False
        self._warm = threading.Thread(target=self._warm_pool, daemon=True)
        self._warm.start()

    @property
    def blobs(self) -> Dict[int, bytes]:
        """The segment's blob set every unit of the session interns into."""
        return self._batch.blobs

    def _warm_pool(self) -> None:
        """Bring the worker pool up off the thread-parallel run's path.

        Spawning worker processes costs ~a second of wall — paid inline
        it would stall the guest at the first speculative dispatch. The
        warm-up overlaps the thread-parallel run instead; pushes arriving
        before the pool is ready are buffered and flushed the moment it
        is (or at the first wait/harvest, whichever comes first). A
        failed spawn leaves ``_ready`` unset: the buffered units count
        as lost and the contained path reports the pool problem the
        normal way. (A fleet dispatcher's ``warm`` is a no-op — the
        service owns the pool.)
        """
        try:
            self.executor._dispatch_path.warm()
            self._ready = True
        except Exception:
            pass

    def _flush(self) -> None:
        """Submit every buffered unit, if the pool is up."""
        while self._ready and self._deferred:
            position = self._deferred.pop(0)
            self._futures[position] = self.executor._dispatch(
                self._batch, position, speculative=True
            )

    def push(self, unit) -> None:
        """Take one cut unit; non-blocking, and no host failure raises.

        Units arrive in position order from 0, so a unit's index in the
        session's batch *is* its position.
        """
        position = self._batch._add_unit(unit)
        if not self.ahead:
            return
        self._deferred.append(position)
        self.executor.speculation["dispatched"] += 1
        self._flush()

    def _resolve(self, position: int) -> tuple:
        """Resolve one unit's future, exactly once.

        Returns (and keeps in ``_outcomes``) ``(value, timing)`` with
        ``value`` of ``None`` for an answer lost to a host reason
        (crash, timeout, task error, failed or never-made submission);
        idempotent so :meth:`wait` and the walk in :meth:`harvest`
        compose.
        """
        if position not in self._outcomes:
            executor, batch = self.executor, self._batch
            outcome, _ = executor._await(self._futures.pop(position, None), position)
            value = timing = None
            if outcome is not None:
                _, value, timing = outcome
                if isinstance(value, WorkerTaskError):
                    value = None
                else:
                    batch.stamp(position, timing)
            self._outcomes[position] = (value, timing)
        return self._outcomes[position]

    def _join_pool(self) -> None:
        """Before anything blocks: the pool is up and every push is in it."""
        self._warm.join()
        self._flush()

    def wait(self, position: int):
        """Block for one pushed unit's result — the verdict schedule's consume.

        Which boundary consumes which verdict is the recorder's rule and
        a function of the committed history alone; so must the verdict
        be. One lost to a host reason (or, without ``ahead``, never
        submitted) is therefore obtained here through the contained path
        (retry, serial fallback — the same cut-at-push
        unit, so the same result), and its counters fold in now: a
        consumed verdict is part of the run at any ``jobs``, whatever
        the merge later makes of it.
        """
        self._join_pool()
        executor, batch = self.executor, self._batch
        value, timing = self._resolve(position)
        if value is None:
            _, value, timing = executor._run_contained(
                batch, position, {}, {}, range(position + 1, len(batch.units))
            )
            self._outcomes[position] = (value, timing)
        executor._ingest_observability(timing)
        return value

    def harvest(self, positions: int, valid, rebuild) -> Iterator[Tuple[int, object]]:
        """The segment's merge: yield ``(position, result)`` in order.

        Walks the segment's ``positions`` epochs, waiting for each unit
        in turn, so the caller commits epoch *p* while the units behind
        it still execute. A pushed unit's result stands when the
        recorder's ``valid(position, result)`` accepts it. A position
        without one — never pushed, lost to a host reason, invalidated —
        is built again with full knowledge (``rebuild(positions)``,
        asked together with every later position never pushed, so they
        share a submission window) and run through the contained path:
        the stream always completes, bit-identical to the serial path.
        It ends after the first failing result: a real divergence, past
        which everything belongs to a squashed future — cancelled, never
        awaited. Observability ingest and timing records happen here, in
        merge order, so a divergence drops later results' counters
        exactly as the serial loop never runs them.
        """
        self._join_pool()
        executor, batch = self.executor, self._batch
        #: what a pool that broke under a rebuilt unit salvaged
        done: Dict[int, tuple] = {}
        #: positions a pushed unit may still answer for; pushes and
        #: rebuilds both fill the batch in position order, so the
        #: positions never pushed are those past its end
        pushed = set(range(len(batch.units)))
        try:
            for position in range(positions):
                label, value, timing = batch.kind, None, None
                if position in pushed:
                    value, timing = self._resolve(position)
                    if value is not None and not valid(position, value):
                        if self.ahead:
                            executor.speculation["invalidated"] += 1
                        value = None
                if value is not None:
                    if self.ahead:
                        executor.speculation["accepted"] += 1
                    executor._ingest_observability(timing)
                else:
                    if position in pushed or position == len(batch.units):
                        pushed.discard(position)
                        never_pushed = range(
                            max(position + 1, len(batch.units)), positions
                        )
                        for unit in rebuild([position, *never_pushed]):
                            batch._add_unit(unit)
                    label, value, timing = executor._run_contained(
                        batch, position, self._reruns, done, pushed
                    )
                executor.unit_timings.append((label, position, timing))
                if not value.ok:
                    # Cancel *before* handing the divergence to the
                    # caller: its forward recovery must never compete
                    # for cores with units that are already doomed.
                    self.close()
                yield position, value
                if not value.ok:
                    return
        finally:
            self.close()

    def close(self) -> None:
        """Abandon whatever is still in flight."""
        for futures in (self._futures, self._reruns):
            for future in futures.values():
                future.cancel()
            futures.clear()
