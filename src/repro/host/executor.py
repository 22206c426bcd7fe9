"""The coordinator side: dispatch, containment and the one ordered merge.

``HostExecutor`` runs epoch work units on a pool of worker processes,
and one contract covers every unit — a record segment's or a replay's,
a solo run's or a service tenant's: *a unit is cut once per need,
pushed once per cut, merged in order; what the merge lacks it cuts
again.* :class:`SpeculativeSession` is that contract. ``push`` is the
only way a unit reaches the pool (through :meth:`HostExecutor._dispatch`,
the only place one enters: ``shared_pool(jobs).submit``, on the calling
thread's lane — a service tenant is a thread, so nothing else is needed
to share the workers), ``wait`` and ``settle`` serve the recorder's
verdict schedule — a verdict awaited from the pool, or one the
coordinator ran itself, for a position with no unit — and
``harvest`` is the only loop that walks positions and
awaits unit futures: the recorder commits each epoch as it arrives and
closes the session at the first divergence — everything behind it
belongs to an abandoned thread-parallel future and is cancelled, never
awaited — while a replay pushes every unit of its recording and
consumes the same stream to the end, collecting every failure.
:func:`~repro.host.worker.run_unit` executes a unit in a worker; a unit
the pool cannot finish runs through
:func:`~repro.host.worker.run_unit_serial` on the coordinator.

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
the same way a guest divergence is: contain, re-execute, keep going. A
pushed attempt is free and silent: one that crashes, hangs or raises is
never a fault. A position the merge (or the verdict schedule) must
re-obtain gets counted attempts, one policy for three failure classes
(two pool attempts, then in-coordinator serial execution):

* **crash** — a worker process died and took the units in its window
  with it (:mod:`repro.host.pool`); the pool is abandoned and rebuilt,
  and every not-yet-merged position whose pushed attempt died with it
  is pushed again, without blame, before the failed position's retry is
  awaited: one crash never serialises the positions behind it. The
  pool is shared: what other threads have in its windows dies as
  collateral — a pushed attempt is lost, a counted one goes again
  uncounted — and what they have queued moves to the new pool.
* **timeout** — a unit exceeded the per-unit wall-clock budget (the
  ``unit_timeout`` runtime option; 0 disables; a pool is built, every
  worker's hello in, before a unit is submitted to it, so its start is
  not on that clock). The hung worker cannot be recalled, so the pool's
  processes are terminated and the pool is abandoned the same way.
* **task error** — the unit raised inside the worker and came home as a
  structured :class:`~repro.errors.WorkerTaskError` result, so the pool
  stays healthy. A deterministic guest error reproduces during the
  serial fallback and is re-raised there.

Because epoch execution is a deterministic function of the checkpoints
and logs, and the serial fallback runs the identical pure function in
the coordinator, every recording and replay verdict is bit-identical to
``jobs=1`` no matter which workers crashed, hung or raised along the
way. Faults and blob traffic change only wall-clock time and the host
accounting, which is never stored in a recording.

**Accounting.** The executor keeps no tally. Every dispatch, consumed
execution, contained fault and fate is one call into the run's epoch
lives (:mod:`repro.obs.lifecycle`), and ``timing_summary()`` — what
``RecordResult.host`` / ``ReplayResult.host`` surface — is derived from
them.
"""

from __future__ import annotations

import time
from concurrent.futures import Future
from concurrent.futures import TimeoutError as FutureTimeout
from dataclasses import dataclass, field
from typing import Dict, Iterator, Optional, Set, Tuple

from repro.errors import (
    CollateralLossError,
    WorkerCrashError,
    WorkerTaskError,
    WorkerTimeoutError,
)
from repro.host import faults as fault_injection
from repro.host.pool import _scratch_packs, abandon, shared_pool
from repro.host.worker import UnitDispatch, run_unit, run_unit_serial
from repro.memory.blob import blob_digest, encode_object
from repro.obs import metrics as obs_metrics
from repro.obs.lifecycle import Lives, UnitTiming
from repro.options import RuntimeOptions

#: pool attempts per unit before the serial fallback (initial + 1 retry)
_POOL_ATTEMPTS = 2


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
    #: position -> its unit; a position whose verdict the coordinator
    #: computed itself has none
    units: Dict[int, object] = field(default_factory=dict)
    #: position -> its pushed attempt's future, until the merge (or the
    #: verdict schedule) resolves it
    futures: Dict[int, Future] = field(default_factory=dict)

    def _add_unit(self, unit) -> int:
        """Stamp the unit's fault specs and slot it at its position (returned).

        A position added again (the merge cutting it a second time)
        replaces the unit.
        """
        unit.faults = fault_injection.faults_for(
            self.fault_specs, self.kind, unit.position
        )
        self.units[unit.position] = unit
        return unit.position


def _lost(position: int, why: str) -> Future:
    """A future that has already failed: the unit never reached a pool."""
    future: Future = Future()
    future.set_exception(
        WorkerCrashError(
            f"unit {position} was not submitted: {why}", position=position
        )
    )
    return future


class HostExecutor:
    """Runs epoch work units on a pool of worker processes.

    ``options`` is the run's resolved :class:`~repro.options.RuntimeOptions`:
    the executor takes its worker count (``host_jobs``), per-unit
    wall-clock budget (``unit_timeout``; 0 disables hang detection) and
    fault directives (``host_faults`` / ``fault_state``, parsed here —
    junk raises) from it, and carries it on every dispatch so workers follow
    the coordinator, never the environment their fork server started with.

    ``lives`` is the run's epoch-lifecycle record
    (:mod:`repro.obs.lifecycle`): every dispatch, consumed execution,
    contained fault and fate is written there, once, and
    :meth:`timing_summary` is derived from it. The executor keeps no
    tally of its own.
    """

    def __init__(self, options: RuntimeOptions, lives: Lives):
        self.options = options
        self.lives = lives
        self.jobs = options.host_jobs
        self.unit_timeout = options.unit_timeout
        self._fault_specs = fault_injection.parse_fault_specs(
            options.host_faults, options.fault_state
        )
        #: every digest a dispatch of this executor has named: one the
        #: scratch pack already held *and* this set lacks was put by
        #: another run (the service's cross-session dedup accounting)
        self._seen: Set[int] = set()
        #: (program object, digest, blob) of the last program shipped
        self._program_blob: Optional[Tuple[object, int, bytes]] = None

    # ------------------------------------------------------------------
    def _program_wire(self, program) -> Tuple[int, bytes]:
        """The program image's blob, encoded once per program object."""
        cached = self._program_blob
        if cached is None or cached[0] is not program:
            blob = encode_object(program)
            self._program_blob = (program, blob_digest(blob), blob)
            cached = self._program_blob
        return cached[1], cached[2]

    def _begin_batch(self, kind: str, program, machine, blobs=()) -> _Batch:
        """An empty batch over ``blobs`` plus the program's."""
        digest, blob = self._program_wire(program)
        return _Batch(
            kind=kind,
            program=program,
            machine=machine,
            program_digest=digest,
            blobs={**dict(blobs), digest: blob},
            fault_specs=self._fault_specs,
        )

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
        return UnitDispatch(
            machine=batch.machine,
            unit=unit,
            program_digest=batch.program_digest,
            pack=pack,
            options=self.options,
            _local_program=batch.program,
            placed=(
                len(fresh), sum(len(batch.blobs[digest]) for digest in fresh),
                len(found), sum(len(batch.blobs[digest]) for digest in found),
            ),
        )

    def _dispatch(self, batch: _Batch, position: int, pushed: bool = False) -> Future:
        """Submit one unit: the only place a unit enters a pool.

        Builds the dispatch (the unit's new blobs go into the scratch
        pack first), submits it to the shared pool and records the
        attempt — its interval, what it put and what it found already
        put — on the position's life. Two failures are contained: a
        scratch pack that cannot be written (``OSError`` — disk full, its
        directory gone) and a pool that cannot take the unit (broken,
        unbuildable, shutting down).
        The future returned has then already failed with the cause, and
        the caller's containment — or, for a pushed attempt, a discard —
        takes over. Anything else is a bug in building the dispatch, and
        raises.
        """
        start = time.perf_counter()
        placed = (0, 0, 0, 0)
        try:
            try:
                dispatch = self._make_dispatch(batch, position)
            except OSError as exc:
                return _lost(position, f"the scratch pack cannot be written ({exc!r})")
            placed = dispatch.placed
            try:
                future = shared_pool(self.jobs).submit(run_unit, dispatch)
            except Exception as exc:
                _scratch_packs.release(dispatch.pack)
                return _lost(position, f"the pool refused it ({exc!r})")
        finally:
            self.lives.dispatched(
                position, batch.kind, pushed, start, time.perf_counter(), *placed
            )
        future.add_done_callback(
            lambda _, pack=dispatch.pack: _scratch_packs.release(pack)
        )
        return future

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
        except (WorkerCrashError, CollateralLossError) as lost:
            # it never reached a pool (see _dispatch), or died on another
            # unit's account
            return None, lost
        except Exception as exc:
            return None, WorkerCrashError(
                f"worker died running unit {position}: {exc!r}",
                position=position,
            )

    def _consume(self, position: int, timing: UnitTiming) -> None:
        """A unit's result is part of the run: fold its counters, attach
        its execution to the position's life.

        Called only for results that merge or that the verdict schedule
        consumed — dropped results (cancelled divergence tails, crashed
        attempts) drop their counters and their execution with them,
        which is what keeps ``jobs=1`` and ``jobs=N`` metrics identical.
        """
        obs_metrics.process_stats().update_from(dict(timing.metrics))
        timing.metrics = ()
        self.lives.executed(position, timing)

    def _push(self, batch: _Batch, position: int) -> None:
        """Dispatch one free attempt of ``position``: a failure is never a fault."""
        batch.futures[position] = self._dispatch(batch, position, pushed=True)

    def _run_contained(self, batch: _Batch, position: int):
        """Obtain one position's value, consumed.

        The counted path, for a position whose pushed attempt left no
        usable result: dispatch it, await it; on crash/timeout/task
        error retry once, then execute the unit serially in the
        coordinator. A crash or a hang makes the pool it ran on suspect:
        it is abandoned (the next dispatch rebuilds it) — unless another
        thread's abandon has replaced it already, so that one tenant's
        fault never has its neighbours' casualties tear down the pool
        again — and every other position of the batch whose pushed
        attempt has died with a pool — this one, or the one a pushed
        attempt's crash broke earlier — is pushed again, without blame,
        before this position's retry is dispatched: the positions behind a
        fault keep executing concurrently instead of arriving here one by
        one. (An attempt that never reached a pool — :func:`_lost` — is
        left alone: the wall it hit is still there.) A counted attempt
        never shares a pool with another counted attempt of its run, so a
        fault is blamed on the position that has it; one lost on another
        unit's account (:class:`~repro.errors.CollateralLossError` — a
        neighbour's crash, say) is no attempt: it is dispatched again,
        uncounted, with the dead pushed attempts.
        """
        attempt = 0
        while attempt < _POOL_ATTEMPTS:
            future = self._dispatch(batch, position)
            outcome, failure = self._await(future, position)
            if outcome is not None:
                _, value, timing = outcome
                if not isinstance(value, WorkerTaskError):
                    self._consume(position, timing)
                    return value
                failure = value
            if not isinstance(failure, CollateralLossError):
                failure.attempt = attempt
                attempt += 1
                self.lives.failed(position, failure)
                if isinstance(failure, WorkerTaskError):
                    continue
                abandon(future, kill=isinstance(failure, WorkerTimeoutError))
            for other, pushed in batch.futures.items():
                if pushed.done() and not isinstance(
                    pushed.exception(), (type(None), WorkerCrashError)
                ):
                    self._push(batch, other)
        _, value, timing = run_unit_serial(
            UnitDispatch(
                batch.machine,
                batch.units[position],
                batch.program_digest,
                _local_program=batch.program,
            )
        )
        self.lives.ran(position, batch.kind + "-serial", timing)
        return value

    # ------------------------------------------------------------------
    def timing_summary(self) -> dict:
        """Host-cost accounting for benchmarks and ``RecordResult.host``."""
        return self.lives.host_summary(self.jobs)


class SpeculativeSession:
    """One segment's (or one replay's) units: pushed, then merged in order.

    :meth:`push` hands the session one cut unit and ships it to the pool
    at once, strictly non-blocking on failure: a record segment pushes
    *while the thread-parallel run is still producing later epochs* and,
    for the tail units cut when that run finishes, while the merge is
    committing earlier ones; a replay pushes every unit of its
    recording. A broken pool or a failed submission costs nothing but
    the attempt. :meth:`wait` blocks for one unit's verdict (the
    recorder's verdict schedule, armed once a run has diverged), and
    :meth:`settle` takes a verdict the coordinator ran itself for a
    position with no unit; :meth:`harvest` is the merge, a single
    in-order stream over everything the session holds.

    A pushed attempt that crashes, hangs or raises is never retried on
    its own account and never counts as a fault: the merge cuts the
    position again and runs that through the executor's contained path.
    Only a verdict the schedule *consumes* must not depend on host luck,
    so :meth:`wait` re-obtains a lost one through the contained path
    itself. A result's counters and execution join the run at the
    consume or the merge (``HostExecutor._consume``) — a never-consumed
    result leaves no trace in the run metrics, which is what keeps
    ``jobs=1`` and ``jobs=N`` metrics identical. Each push opens its
    position's fate, written once, by whoever learns it first: ``lost``
    where the pushed attempt yields nothing, ``invalidated`` /
    ``accepted`` at the merge, ``discarded`` at :meth:`close` for
    whatever the merge never reached; a settled position keeps the
    ``inline`` of the run that made its verdict.
    """

    def __init__(self, executor: HostExecutor, kind: str, program, machine):
        self.executor = executor
        self._batch = executor._begin_batch(kind, program, machine)
        #: position -> settled ``(value, timing)``; ``value`` is None
        #: for an answer lost to a host reason, ``timing`` once consumed
        self._outcomes: Dict[int, tuple] = {}

    @property
    def blobs(self) -> Dict[int, bytes]:
        """The blob set every unit of the session interns into."""
        return self._batch.blobs

    def push(self, unit) -> None:
        """Take one cut unit; non-blocking, and no host failure raises.

        A position pushed again (the verdict schedule cutting anew one
        whose early verdict was not final) replaces its unit and forgets
        its result.
        """
        self._outcomes.pop(unit.position, None)
        self.executor._push(self._batch, self._batch._add_unit(unit))

    def settle(self, position: int, value) -> None:
        """A verdict the coordinator computed itself, consumed there: the
        position has no unit (the verdict schedule judged it at the
        boundary that first cut it). The merge takes the value as it
        takes one :meth:`wait` consumed; if it is invalid, the position
        is cut and run through the contained path like any other.
        """
        self._outcomes[position] = (value, None)

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
            outcome, _ = executor._await(batch.futures.pop(position, None), position)
            value = timing = None
            if outcome is not None:
                _, value, timing = outcome
                if isinstance(value, WorkerTaskError):
                    value = None
            if value is None:
                executor.lives.fate(position, "lost")
            self._outcomes[position] = (value, timing)
        return self._outcomes[position]

    def wait(self, position: int):
        """Block for one pushed unit's result — the verdict schedule's consume.

        Which boundary consumes which verdict is the recorder's rule and
        a function of the committed history alone; so must the verdict
        be. One lost to a host reason is therefore obtained here through
        the contained path (retry, serial fallback — the same
        cut-at-push unit, so the same result), and its counters fold in
        now: a consumed verdict is part of the run at any ``jobs``,
        whatever the merge later makes of it.
        """
        value, timing = self._resolve(position)
        if value is None:
            value = self.executor._run_contained(self._batch, position)
        elif timing is not None:
            self.executor._consume(position, timing)
        self._outcomes[position] = (value, None)
        return value

    def harvest(self, positions: int, valid, recut) -> Iterator[Tuple[int, object]]:
        """The merge: yield ``(position, value)`` for every position, in order.

        Waits for each unit in turn, so the caller commits epoch *p*
        while the units behind it still execute. A pushed unit's value
        stands when the caller's ``valid(position, value)`` accepts it.
        A position without one — lost to a host reason, or cut
        mid-segment and invalidated by what was logged since — is cut
        again now (``recut(position)``; the thread-parallel run is over,
        so a cut made now is full knowledge) and run through the
        contained path: the stream always completes, bit-identical to
        the serial path. What a value means is the caller's business: a
        recorder stops at its first divergence by closing the stream —
        everything behind it is cancelled, never awaited — and a replay
        consumes it to the end. Results are consumed here, in merge
        order, so those past a divergence drop their counters exactly as
        the serial loop never runs them.
        """
        executor, batch = self.executor, self._batch
        try:
            for position in range(positions):
                value, timing = self._resolve(position)
                if value is not None and not valid(position, value):
                    executor.lives.fate(position, "invalidated")
                    value = None
                if value is None:
                    batch._add_unit(recut(position))
                    value = executor._run_contained(batch, position)
                else:
                    executor.lives.fate(position, "accepted")
                    if timing is not None:
                        executor._consume(position, timing)
                yield position, value
        finally:
            self.close()

    def close(self) -> None:
        """Abandon whatever is still in flight."""
        for future in self._batch.futures.values():
            future.cancel()
        self._batch.futures.clear()
        for position in self._batch.units:
            self.executor.lives.fate(position, "discarded")
