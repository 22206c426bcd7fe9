"""Replay of DoublePlay recordings.

Replay re-executes the *recorded* execution — the committed epoch-parallel
one. Each epoch is a uniprocessor run that starts from the epoch's start
state, injects logged syscall results, installs the epoch's sync-order
oracle, and follows the committed timeslice schedule exactly; the end
state digest must match the recording.

Two strategies, both offered by the paper:

* **Sequential replay** — one engine from the initial state, epochs in
  order. Needs only the durable logs (works on deserialised recordings);
  it is the bit-exact oracle.
* **Parallel replay** — every epoch re-executed concurrently from its
  checkpoint, exactly like the epoch-parallel execution at record time.
  Replay wall-time approaches the original multicore run's. It starts
  each epoch only from the checkpoint the recording run took: the
  in-memory recording's, or one hydrated from a durable log. With
  ``jobs > 1`` it is the mirror of a record segment: the epochs are cut
  into contiguous spans (``host.wire.replay_spans``), one unit each,
  every unit is pushed into a
  :class:`~repro.host.executor.SpeculativeSession` and the same in-order
  merge is consumed — to the end, collecting every failure, where a
  recorder stops at the first. ``jobs=1`` runs the epochs inline
  (``_replay_one``), the oracle the pooled path is compared against.

``replay_epoch`` replays one epoch in isolation — the debugging workflow
the paper motivates (jump straight to the interval containing the bug).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro import options
from repro.checkpoint.checkpoint import Checkpoint
from repro.core.pipeline import EpochTiming, schedule_spare_cores
from repro.errors import ReplayError
from repro.exec.services import InjectedSyscalls, InjectionLog
from repro.exec.uniprocessor import UniprocessorEngine
from repro.isa.program import ProgramImage
from repro.machine.config import MachineConfig
from repro.obs import lifecycle
from repro.obs import metrics as obs_metrics
from repro.obs.metrics import RunMetrics
from repro.record.recording import EpochRecord, Recording
from repro.record.sync_log import SyncOrderOracle


def run_replay_epoch(
    program,
    machine,
    index,
    start,
    targets,
    schedule,
    sync_log,
    end_digest,
    syscalls,
    signals,
):
    """Replay one committed epoch from its start checkpoint.

    The one engine set-up → run → verify → count routine behind every
    per-epoch replay: ``Replayer.replay_epoch``, serial
    ``replay_parallel`` and the host layer's replay units (worker or
    coordinator serial fallback, once per epoch of the unit's span) all
    call it, so they reach identical verdicts and cycle counts by
    construction. Returns ``(cycles, failure)``.
    """
    engine = UniprocessorEngine.from_checkpoint(
        program,
        machine,
        InjectedSyscalls(syscalls),
        memory_snapshot=start.memory,
        contexts=start.copy_contexts(),
        sync_state=start.sync_state,
        targets=dict(targets),
        wake_blocked_io=True,
        name=f"{program.name}/replay{index}",
    )
    engine.sync.oracle = SyncOrderOracle(sync_log)
    engine.install_signal_records(signals)
    engine.run_schedule(schedule)
    failure = _verify(engine, index, end_digest)
    _count_replayed_epoch(engine.time, failure)
    return engine.time, failure


def _verify(engine, index, end_digest) -> Optional[ReplayFailure]:
    if engine.state_digest() != end_digest:
        return ReplayFailure(
            message="replayed to a different state (digest mismatch)",
            epoch=index,
        )
    return None


def _count_replayed_epoch(cycles: int, failure) -> None:
    """Count one replayed epoch in this process's stats registry.

    Workers and the serial paths count identically, so the merged
    ``replay.*`` metrics match at any jobs count.
    """
    stats = obs_metrics.process_stats()
    stats.add("replay.epochs")
    stats.add("replay.epoch_cycles", cycles)
    if failure is not None:
        stats.add("replay.verify_failures")


@dataclass
class ReplayFailure:
    """One epoch's verification failure, with the epoch attributed.

    ``epoch`` is the recording's epoch index, or ``None`` for failures
    that are not attributable to a single epoch (the whole-run final
    digest check). Renders like the old bare string, so log output and
    assertion messages stay readable.
    """

    message: str
    epoch: Optional[int] = None

    def __str__(self) -> str:
        if self.epoch is None:
            return self.message
        return f"epoch {self.epoch} {self.message}"


@dataclass
class ReplayResult:
    """Outcome of a replay."""

    verified: bool
    #: simulated cycles of replay execution (sum over epochs)
    total_cycles: int
    #: wall-clock-style makespan when epochs replay in parallel
    makespan: int
    epochs_replayed: int
    #: simulated executor slots the makespan was scheduled onto
    workers: int = 0
    #: host worker processes the replay actually ran on (1 = serial)
    jobs: int = 1
    details: List[ReplayFailure] = field(default_factory=list)
    #: host-parallelism accounting (per-unit worker timings); never part
    #: of the verification verdict
    host: Dict[str, object] = field(default_factory=dict)
    #: merged run-wide counters (coordinator + workers + host wire/fault
    #: accounting); observability only, never part of the verdict
    metrics: RunMetrics = field(default_factory=RunMetrics)


class Replayer:
    """Replays a :class:`Recording` of ``program``."""

    def __init__(self, program: ProgramImage, machine: MachineConfig):
        self.program = program
        self.machine = machine

    # ------------------------------------------------------------------
    def _replay_one(self, lives, recording: Recording, epoch: EpochRecord, syscalls):
        """Replay ``epoch`` as the next life of ``lives``; ``syscalls`` is
        the recording's injectable log (an :class:`InjectionLog` shared
        by every epoch of one call)."""
        start = epoch.start_checkpoint
        if start is None:
            raise ReplayError(
                f"epoch {epoch.index} has no recorded start checkpoint; "
                "replay a JSON recording sequentially"
            )
        with lives.here(lives.cut(epoch.index), "replay"):
            return run_replay_epoch(
                self.program,
                self.machine,
                epoch.index,
                start,
                epoch.targets,
                epoch.schedule,
                epoch.sync_log,
                epoch.end_digest,
                syscalls,
                recording.signal_records,
            )

    # ------------------------------------------------------------------
    @options.run()
    def replay_epoch(self, recording: Recording, index: int) -> ReplayResult:
        """Replay one epoch from its checkpoint and verify its end state."""
        baseline = obs_metrics.process_stats().snapshot()
        cycles, failure = self._replay_one(
            lifecycle.begin(),
            recording,
            self.find_epoch(recording, index),
            recording.syscalls_for_epochs(),
        )
        return ReplayResult(
            verified=failure is None,
            total_cycles=cycles,
            makespan=cycles,
            epochs_replayed=1,
            workers=1,
            details=[failure] if failure else [],
            metrics=obs_metrics.build_run_metrics(
                obs_metrics.delta_since(baseline)
            ),
        )

    def replay_parallel(
        self,
        recording: Recording,
        workers: int = 0,
        jobs: int = 1,
        unit_timeout: Optional[float] = None,
        fault_specs: Optional[str] = None,
    ) -> ReplayResult:
        """Replay every epoch concurrently from its checkpoint.

        ``workers`` bounds *simulated* simultaneous epoch replays (0 =
        one per epoch); the returned makespan schedules the replays onto
        that pool — all checkpoints already exist, so unlike recording
        there is no pipeline-fill constraint. ``jobs`` is the *host*
        process count: with ``jobs > 1`` the epochs actually execute
        concurrently in worker processes (they are fully independent, so
        replay is the best-scaling phase of the system), with verdicts,
        cycles and makespans bit-identical to the serial path. A worker
        unit is a contiguous span of epochs (``3 * jobs`` spans balanced
        by recorded cycles, see :func:`~repro.host.wire.replay_spans`),
        so the pool round trip is paid per span, not per epoch.

        Host worker failures are contained per unit (two pool attempts,
        the pushed one included, then in-coordinator serial execution —
        see :mod:`repro.host.executor`), so the replay always completes
        with the serial verdict; ``unit_timeout`` bounds a hung worker's
        unit in wall-clock seconds from when a worker took it (None = the
        runtime option's value, 0 disables). Containment counters land
        in ``host["faults"]``, and ``host["speculation"]`` reads pushed /
        accepted like a record's (N / N / 0 / 0 on a healthy host).

        ``fault_specs`` scopes fault-injection directives to this replay
        (None = the runtime option's value, ``""`` = none).
        """
        baseline = obs_metrics.process_stats().snapshot()
        host: Dict[str, object] = {"jobs": 1}
        lives = lifecycle.begin()
        with options.run(
            host_jobs=jobs, unit_timeout=unit_timeout, host_faults=fault_specs
        ) as opts:
            if opts.host_jobs > 1:
                from repro.host.executor import HostExecutor, SpeculativeSession
                from repro.host.wire import replay_units

                executor = HostExecutor(opts, lives)
                session = SpeculativeSession(
                    executor, "replay", self.program, self.machine
                )
                units = []
                try:
                    # Unit p executes while unit p + 1 is being cut.
                    for unit in replay_units(recording, session.blobs, opts.host_jobs):
                        lives.cut(unit.epoch_index)
                        session.push(unit)
                        units.append(unit)
                    # A replay unit is full knowledge as pushed: any value
                    # stands, and cutting one again is looking it up. Its
                    # value is the outcome of each epoch of its span.
                    outcomes = [
                        outcome
                        for _, span in session.harvest(
                            len(units), lambda position, value: True,
                            units.__getitem__,
                        )
                        for outcome in span
                    ]
                finally:
                    session.close()
                host = executor.timing_summary()
            else:
                syscalls = InjectionLog(recording.syscalls_for_epochs())
                outcomes = [
                    self._replay_one(lives, recording, epoch, syscalls)
                    for epoch in recording.epochs
                ]
        details = [failure for _, failure in outcomes if failure]
        restore = self.machine.costs.restore_base
        durations = [cycles + restore for cycles, _ in outcomes]
        pool = workers or max(len(durations), 1)
        timings = [
            EpochTiming(index=i, ready_time=0, boundary_time=0, duration=d)
            for i, d in enumerate(durations)
        ]
        pipeline = schedule_spare_cores(
            timings,
            workers=pool,
            dispatch_cost=self.machine.costs.epoch_dispatch,
            max_inflight=len(durations) + 1,
        )
        return ReplayResult(
            verified=not details,
            total_cycles=sum(durations),
            makespan=pipeline.makespan,
            epochs_replayed=len(recording.epochs),
            workers=pool,
            jobs=opts.host_jobs,
            details=details,
            host=host,
            metrics=obs_metrics.build_run_metrics(
                obs_metrics.delta_since(baseline), host=host,
                histo=lives.distributions(),
            ),
        )

    @options.run()
    def replay_sequential(self, recording: Recording) -> ReplayResult:
        """Replay the whole execution on one engine, epoch by epoch."""
        engine = self.whole_run_engine(recording, "seqreplay")
        baseline = obs_metrics.process_stats().snapshot()
        lives = lifecycle.begin()
        details: List[ReplayFailure] = []
        for epoch in self.walk(engine, recording):
            epoch_start_time = engine.time
            with lives.here(lives.cut(epoch.index), "replay-seq"):
                engine.run_schedule(epoch.schedule)
            failure = _verify(engine, epoch.index, epoch.end_digest)
            # The engine runs continuously, so the per-epoch cycle count
            # is the delta (fresh-engine strategies count engine.time).
            _count_replayed_epoch(engine.time - epoch_start_time, failure)
            if failure:
                details.append(failure)
                break
        if not details and recording.final_digest:
            if engine.state_digest() != recording.final_digest:
                details.append(ReplayFailure(message="final state digest mismatch"))
        return ReplayResult(
            verified=not details,
            total_cycles=engine.time,
            makespan=engine.time,
            epochs_replayed=len(recording.epochs),
            workers=1,
            details=details,
            metrics=obs_metrics.build_run_metrics(
                obs_metrics.delta_since(baseline)
            ),
        )

    # ------------------------------------------------------------------
    def materialize_checkpoints(self, recording: Recording) -> None:
        """Rebuild per-epoch start checkpoints by sequential re-execution.

        Only the end-to-end benchmark (``benchmarks/e2e/e2e_scenario.py``)
        still calls this; parallel replay starts only from recorded
        checkpoints, and a JSON recording replays sequentially. These
        are not the recorded ones: the sync state folds hint-deferred
        threads into the wait queues (``merge_deferred``), which the end
        digest leaves out, so replays from them verify but 6 of the 28
        golden programs report other cycle counts (apache/2: 14 101,
        not 14 095). It goes once that benchmark keeps the recorded ones.
        """
        engine = self.whole_run_engine(recording, "materialize")
        for epoch in self.walk(engine, recording):
            epoch.start_checkpoint = Checkpoint(
                index=epoch.index,
                time=engine.time,
                memory=engine.mem.snapshot(),
                contexts={t: c.copy() for t, c in engine.contexts.items()},
                sync_state=engine.sync.snapshot(merge_deferred=True),
            )
            engine.run_schedule(epoch.schedule)
            if engine.state_digest() != epoch.end_digest:
                raise ReplayError(
                    f"cannot materialise checkpoints: epoch {epoch.index} "
                    "digest mismatch"
                )

    def whole_run_engine(self, recording: Recording, role: str):
        """One engine at the recording's initial state, to run every epoch on."""
        initial = recording.initial_checkpoint
        engine = UniprocessorEngine.from_checkpoint(
            self.program,
            self.machine,
            InjectedSyscalls(recording.syscalls_for_epochs()),
            memory_snapshot=initial.memory,
            contexts=initial.copy_contexts(),
            sync_state=initial.sync_state,
            targets=None,
            wake_blocked_io=True,
            name=f"{self.program.name}/{role}",
        )
        engine.install_signal_records(recording.signal_records)
        return engine

    @staticmethod
    def walk(engine: UniprocessorEngine, recording: Recording):
        """Yield each epoch in order with its grant oracle installed on
        ``engine`` (a :meth:`whole_run_engine`), for the caller to run:
        the sequential oracle's walk.

        Grants still pending across an oracle swap were decided under the
        previous epoch's oracle, but the committed log credits their
        acquisition to *this* epoch (the capture run inherited them from
        its start checkpoint). Marking them inherited makes their consume
        advance the new oracle identically.
        """
        for epoch in recording.epochs:
            engine.sync.oracle = SyncOrderOracle(epoch.sync_log)
            engine.inherited_grants = {
                tid
                for tid, ctx in engine.contexts.items()
                if ctx.pending_grant is not None and ctx.pending_grant[0] == "sync"
            }
            yield epoch

    @staticmethod
    def find_epoch(recording: Recording, index: int) -> EpochRecord:
        for epoch in recording.epochs:
            if epoch.index == index:
                return epoch
        raise ReplayError(f"recording has no epoch {index}")
