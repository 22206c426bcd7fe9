"""The coordinator side: dispatch, containment and the one ordered merge.

Epoch work units run on a pool of worker processes, and one contract
covers every unit — a record segment's or a replay's, a solo run's or a
service tenant's: *a unit is cut once per need, pushed once per cut,
merged in order; what the merge lacks it cuts again.*
:class:`SpeculativeSession` is that contract; ``HostExecutor`` holds only
what a run's sessions share. ``push`` is the only way a unit reaches the
pool (through :meth:`SpeculativeSession._dispatch`, the only place one
enters: ``shared_pool(jobs).submit``, on the calling
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
the same way a guest divergence is: contain, re-execute, keep going.
Every dispatch of a position is an attempt — the one pushed ahead of
the merge is attempt 0 — and one routine judges each
(:meth:`SpeculativeSession._outcome`): a position gets two pool
attempts, then in-coordinator serial execution, one policy for three
failure classes:

* **crash** — a worker process died and took the units in its window
  with it (:mod:`repro.host.pool`); the pool is abandoned and rebuilt,
  and every not-yet-merged position whose pushed attempt died with it
  as collateral is pushed again at once, without blame: one crash never
  serialises the positions behind it. The pool is shared: what other
  threads have in its windows dies as collateral — no attempt of
  theirs, dispatched again — and what they have queued moves to the
  new pool.
* **timeout** — a unit ran past the per-unit wall-clock budget (the
  ``unit_timeout`` runtime option; 0 disables), counted from when a
  worker took it, so a unit queued behind others is never charged for
  their time (and a pool is built, every worker's hello in, before a
  unit is submitted to it). The hung worker cannot be recalled: the pool
  terminates it, and the pool is abandoned the same way.
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

#: pool attempts per position, the pushed one included, before the serial one
_POOL_ATTEMPTS = 2


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
    """What a run's sessions share. ``options`` is its resolved
    :class:`~repro.options.RuntimeOptions` — worker count (``host_jobs``),
    unit timeout (0 disables hang detection), fault directives (parsed
    here: junk raises) — carried on every dispatch so workers follow the
    coordinator, never the environment their fork server started with.
    ``lives`` is its epoch-lifecycle record (:mod:`repro.obs.lifecycle`):
    every dispatch, consumed execution, contained fault and fate is
    written there, once, and :meth:`timing_summary` is derived from it.
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

    def _program_wire(self, program) -> Tuple[int, bytes]:
        """The program image's blob, encoded once per program object."""
        cached = self._program_blob
        if cached is None or cached[0] is not program:
            blob = encode_object(program)
            self._program_blob = (program, blob_digest(blob), blob)
            cached = self._program_blob
        return cached[1], cached[2]

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
    recording. :meth:`wait` blocks for one unit's verdict (the
    recorder's verdict schedule, armed once a run has diverged), and
    :meth:`settle` takes a verdict the coordinator ran itself for a
    position with no unit; :meth:`harvest` is the merge, a single
    in-order stream over everything the session holds.

    The pushed attempt is a position's attempt 0: one that crashes,
    hangs or raises is blamed when the merge (or the verdict schedule)
    reaches it, and the position goes on through the contained path
    with the attempts it has left. A verdict the schedule *consumes*
    must not depend on host luck, so :meth:`wait` re-obtains a lost one
    through the contained path itself. A result's counters and execution
    join the run at the consume or the merge (:meth:`_consume`) — a
    never-consumed result leaves no trace in the run metrics, which is
    what keeps ``jobs=1`` and ``jobs=N`` metrics identical. Each push
    opens its position's fate, written once, by whoever learns it first:
    ``lost`` where the pushed attempt yields nothing, ``invalidated`` /
    ``accepted`` at the merge, ``discarded`` at :meth:`close` for
    whatever the merge never reached; a settled position keeps the
    ``inline`` of the run that made its verdict.
    """

    def __init__(self, executor: HostExecutor, kind: str, program, machine):
        self.executor = executor
        #: "record" or "replay": scopes fault specs and labels unit timings
        self.kind = kind
        self.program = program
        self.machine = machine
        self.program_digest, blob = executor._program_wire(program)
        #: the blob set every unit of the session interns into, by digest
        self.blobs: Dict[int, bytes] = {self.program_digest: blob}
        #: position -> its unit; a position whose verdict the coordinator
        #: computed itself has none
        self.units: Dict[int, object] = {}
        #: position -> its pushed attempt's future, until the merge (or
        #: the verdict schedule) resolves it
        self._futures: Dict[int, Future] = {}
        #: position -> the pool attempts its cut has failed
        self._failed: Dict[int, int] = {}
        #: position -> settled ``(value, timing)``; ``value`` is None
        #: for an answer lost to a host reason, ``timing`` once consumed
        self._outcomes: Dict[int, tuple] = {}

    def push(self, unit) -> None:
        """Take one cut unit; non-blocking, and no host failure raises.

        A position pushed again (the verdict schedule cutting anew one
        whose early verdict was not final) replaces its unit and forgets
        its result and its failed attempts.
        """
        self._outcomes.pop(unit.position, None)
        self._failed.pop(unit.position, None)
        self._push(self._add_unit(unit))

    def settle(self, position: int, value) -> None:
        """A verdict the coordinator computed itself, consumed there: the
        position has no unit (the verdict schedule judged it at the
        boundary that first cut it). The merge takes the value as it
        takes one :meth:`wait` consumed; if it is invalid, the position
        is cut and run through the contained path like any other.
        """
        self._outcomes[position] = (value, None)

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
            value = self._run_contained(position)
        elif timing is not None:
            self._consume(position, timing)
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
        lives = self.executor.lives
        try:
            for position in range(positions):
                value, timing = self._resolve(position)
                if value is not None and not valid(position, value):
                    lives.fate(position, "invalidated")
                    self._failed.pop(position, None)  # a new cut follows
                    value = None
                if value is None:
                    self._add_unit(recut(position))
                    value = self._run_contained(position)
                else:
                    lives.fate(position, "accepted")
                    if timing is not None:
                        self._consume(position, timing)
                yield position, value
        finally:
            self.close()

    def close(self) -> None:
        """Abandon whatever is still in flight."""
        for future in self._futures.values():
            future.cancel()
        self._futures.clear()
        for position in self.units:
            self.executor.lives.fate(position, "discarded")

    # ------------------------------------------------------------------
    def _add_unit(self, unit) -> int:
        """Stamp the unit's fault specs and slot it at its position (returned).

        A position added again (the merge cutting it a second time)
        replaces the unit.
        """
        unit.faults = fault_injection.faults_for(
            self.executor._fault_specs, self.kind, unit.position
        )
        self.units[unit.position] = unit
        return unit.position

    def _make_dispatch(self, position: int) -> UnitDispatch:
        """Build one dispatch: put what the scratch pack lacks, name the pack.

        Raises ``OSError`` when the pack cannot be written.
        """
        executor = self.executor
        unit = self.units[position]
        required = unit.required_digests()
        required.add(self.program_digest)
        pack, fresh = _scratch_packs.place(required, self.blobs)
        found = required.difference(fresh, executor._seen)
        executor._seen |= required
        return UnitDispatch(
            machine=self.machine,
            unit=unit,
            program_digest=self.program_digest,
            pack=pack,
            options=executor.options,
            _local_program=self.program,
            placed=(
                len(fresh), sum(len(self.blobs[digest]) for digest in fresh),
                len(found), sum(len(self.blobs[digest]) for digest in found),
            ),
        )

    def _dispatch(self, position: int, pushed: bool = False) -> Future:
        """Submit one attempt: the only place a unit enters a pool.

        Builds the dispatch (the unit's new blobs go into the scratch
        pack first), submits it to the shared pool with the run's unit
        timeout and records the attempt — its interval, what it put and
        what it found already put — on the position's life. Two failures
        are contained: a scratch pack that cannot be written (``OSError``
        — disk full, its directory gone) and a pool that cannot take the
        unit (broken, unbuildable, shutting down). The future returned
        has then already failed with the cause, and :meth:`_outcome`
        judges it like any other attempt. Anything else is a bug in
        building the dispatch, and raises.
        """
        executor = self.executor
        start = time.perf_counter()
        placed = (0, 0, 0, 0)
        try:
            try:
                dispatch = self._make_dispatch(position)
            except OSError as exc:
                return _lost(position, f"the scratch pack cannot be written ({exc!r})")
            placed = dispatch.placed
            try:
                future = shared_pool(executor.jobs).submit(
                    run_unit, dispatch, timeout=executor.unit_timeout
                )
            except Exception as exc:
                _scratch_packs.release(dispatch.pack)
                return _lost(position, f"the pool refused it ({exc!r})")
        finally:
            executor.lives.dispatched(
                position, self.kind, pushed, start, time.perf_counter(), *placed
            )
        future.add_done_callback(
            lambda _, pack=dispatch.pack: _scratch_packs.release(pack)
        )
        return future

    def _push(self, position: int) -> None:
        self._futures[position] = self._dispatch(position, pushed=True)

    def _outcome(self, position: int, future: Future) -> Optional[tuple]:
        """Await one attempt of ``position``, pushed or not: ``(value,
        timing)`` of a usable result, else None, the failure contained.

        A task error, crash or timeout is the position's, blamed as its
        next attempt; a crash or a timeout abandons the pool it ran on
        (:func:`~repro.host.pool.abandon`: unless another thread's
        abandon replaced it already). A unit lost on another unit's
        account (:class:`~repro.errors.CollateralLossError`) is no
        attempt. After any but a task error, every other position whose
        pushed attempt died with a pool as collateral is pushed again,
        so the positions behind a fault keep executing concurrently. (An
        attempt that never reached a pool — :func:`_lost` — is its
        position's own: the wall it hit is still there.)
        """
        timeout = self.executor.unit_timeout
        try:
            _, value, timing = future.result()  # the pool enforces the deadline
        except WorkerTimeoutError:
            failure = WorkerTimeoutError(
                f"unit {position} exceeded the {timeout:g}s unit timeout",
                position=position,
                timeout=timeout,
            )
        except (WorkerCrashError, CollateralLossError) as lost:
            failure = lost  # never submitted, or lost on another's account
        except Exception as exc:
            failure = WorkerCrashError(
                f"worker died running unit {position}: {exc!r}", position=position
            )
        else:
            if not isinstance(value, WorkerTaskError):
                return value, timing
            failure = value
        if not isinstance(failure, CollateralLossError):
            failure.attempt = self._failed.get(position, 0)
            self._failed[position] = failure.attempt + 1
            self.executor.lives.failed(position, failure)
            if isinstance(failure, WorkerTaskError):
                return None
            abandon(future)
        for other, pushed in self._futures.items():
            if pushed.done() and isinstance(pushed.exception(), CollateralLossError):
                self._push(other)
        return None

    def _resolve(self, position: int) -> tuple:
        """Resolve one position's pushed attempt, exactly once.

        Returns (and keeps in ``_outcomes``) ``(value, timing)`` with
        ``value`` of ``None`` for an answer lost to a host reason
        (crash, timeout, task error, collateral, failed or never-made
        submission); idempotent so :meth:`wait` and the walk in
        :meth:`harvest` compose.
        """
        if position not in self._outcomes:
            future = self._futures.pop(position, None)
            outcome = None if future is None else self._outcome(position, future)
            if outcome is None:
                self.executor.lives.fate(position, "lost")
            self._outcomes[position] = outcome or (None, None)
        return self._outcomes[position]

    def _run_contained(self, position: int):
        """Obtain one position's value, consumed: dispatch the pool
        attempts it has left (:data:`_POOL_ATTEMPTS`, the pushed one
        counted), each judged by :meth:`_outcome` — a collateral loss
        costs none, the unit goes again — then execute the unit serially
        in the coordinator.
        """
        while self._failed.get(position, 0) < _POOL_ATTEMPTS:
            outcome = self._outcome(position, self._dispatch(position))
            if outcome is not None:
                value, timing = outcome
                self._consume(position, timing)
                return value
        _, value, timing = run_unit_serial(
            UnitDispatch(
                self.machine,
                self.units[position],
                self.program_digest,
                _local_program=self.program,
            )
        )
        self.executor.lives.ran(position, self.kind + "-serial", timing)
        return value

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
        self.executor.lives.executed(position, timing)
