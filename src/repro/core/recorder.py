"""The DoublePlay recorder.

Record proceeds in *segments*. Within a segment:

1. The **thread-parallel execution** runs the program on the application's
   W cores with a live kernel, logging every syscall completion and every
   sync acquisition, and taking a checkpoint at each epoch boundary.
2. Each epoch is then re-executed by an **epoch-parallel executor**
   (``repro.core.epoch_runner``): one simulated CPU, injected syscalls,
   hint-ordered grants, stopping at the next checkpoint's per-thread
   retired-op targets. Matching end state ⇒ the epoch's timeslice schedule
   is committed to the recording. At ``jobs=1`` the epochs run here,
   inline, in order (``_run_inline`` — the oracle every parity slice
   compares against). At ``jobs>1`` a unit is cut once per need, pushed
   once per cut and merged in order: epoch *p*'s unit is cut
   (``_cut_unit``) and pushed to the pool once boundary *p*+2 exists,
   the last two when the thread-parallel run ends, and the segment's
   one merge (``SpeculativeSession.harvest``) commits each epoch as its
   result arrives; what the merge lacks — a result lost to a host
   fault, or invalidated by what was logged after its cut — it cuts
   again, with the same ``_cut_unit``.
3. On divergence, forward recovery (``repro.core.recovery``) re-executes
   the epoch live, commits its result, discards the abandoned
   thread-parallel future, and a new segment starts from the recovered
   state. Once a run has recovered, a *verdict schedule* consumes each
   epoch's verdict a fixed number of boundaries behind the
   thread-parallel run — a restarted segment's first epoch already at
   boundary 1 — and squashes that run at the divergent epoch instead of
   letting it finish a future nobody will keep.

Logical execution and timing are deliberately separated: step 2's results
cannot depend on *when* executors run (they are deterministic functions of
checkpoints and logs), so the recorder replays the commit sequence through
``repro.core.pipeline`` afterwards to obtain the recording makespan on a
machine with or without spare cores. Overhead numbers in the benchmarks
are ``makespan / native - 1``.
"""

from __future__ import annotations

import contextlib
import functools
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro import options
from repro.checkpoint.checkpoint import Checkpoint
from repro.checkpoint.manager import CheckpointManager
from repro.core.config import DoublePlayConfig
from repro.core.epoch_runner import EpochRunResult, run_epoch
from repro.core.epochs import AdaptiveEpochPolicy, FixedEpochPolicy
from repro.core.pipeline import (
    EpochTiming,
    PipelineResult,
    schedule_shared_cores,
    schedule_spare_cores,
)
from repro.core.recovery import recover_epoch
from repro.errors import SimulationError
from repro.exec.multicore import MulticoreEngine
from repro.exec.services import InjectionLog, LiveSyscalls
from repro.isa.program import ProgramImage
from repro.obs import lifecycle
from repro.obs import metrics as obs_metrics
from repro.obs.metrics import RunMetrics
from repro.oskernel.kernel import Kernel, KernelSetup
from repro.oskernel.syscalls import SyscallRecord
from repro.record.log_index import SegmentLogs
from repro.record.recording import (
    EpochRecord,
    Recording,
    prune_signal_records,
    prune_syscall_records,
)
from repro.record.sync_log import SyncOrderLog


@dataclass
class RecordResult:
    """A recording plus the timing the benchmarks report."""

    recording: Recording
    #: recording-timeline instant the last epoch committed
    makespan: int
    #: recording-timeline instant the thread-parallel execution finished
    tp_finish: int
    #: guest-visible duration of the committed execution
    app_time: int
    stats: Dict[str, int] = field(default_factory=dict)
    #: kernel state of the committed execution's final checkpoint
    final_kernel_state: object = None
    #: guest crash message when the recorded program faulted (the
    #: recording then reproduces the state at the instant before the crash)
    fault: Optional[str] = None
    #: host-parallelism accounting (jobs, per-unit worker timings). Never
    #: part of the recording — recordings are bit-identical at any jobs
    #: count, host numbers by construction are not.
    host: Dict[str, object] = field(default_factory=dict)
    #: merged run-wide counters: coordinator execution counters, worker
    #: counters harvested through unit results, host wire/fault
    #: accounting, and the recording stats — one queryable snapshot
    #: (see :mod:`repro.obs.metrics`). Observability only, never part
    #: of the recording.
    metrics: RunMetrics = field(default_factory=RunMetrics)

    def overhead_vs(self, native_time: int) -> float:
        """Fractional logging overhead relative to a native run."""
        if native_time <= 0:
            raise ValueError("native_time must be positive")
        return self.makespan / native_time - 1.0

    def committed_kernel(self, setup: KernelSetup, heap_base: int) -> Kernel:
        """Materialise the committed execution's final kernel.

        Lets workload validators check the *recorded* execution's output
        (files written, responses sent), not just state digests.
        """
        kernel = Kernel(setup, heap_base)
        kernel.restore(self.final_kernel_state)
        return kernel


@dataclass
class _Segment:
    """One thread-parallel segment in flight: boundaries, hints, verdicts."""

    #: global index of the epoch at position 0
    first_epoch: int
    #: ``[committed, boundary 1, boundary 2, ...]``
    checkpoints: List[Checkpoint]
    #: the run's raw logs (shared by every segment; the engines append)
    syscall_log: List[SyscallRecord]
    signal_log: List
    #: every verdict consumed so far was final, so a failing one may
    #: still squash the thread-parallel run. Armed by the first recovery.
    may_cut: bool
    #: the run's epoch lives (shared by every segment; observed, never read)
    lives: lifecycle.Lives
    #: the pool's side of the segment: units pushed ahead of the merge,
    #: then the merge itself (None at ``jobs=1``)
    session: Optional[object] = None
    #: index pair over the raw logs, grown as the segment is cut
    logs: Optional[SegmentLogs] = None
    #: acquisition hints of the thread-parallel run, in order
    hints: List = field(default_factory=list)
    #: ``len(hints)`` at each entry of ``checkpoints``
    hint_marks: List[int] = field(default_factory=lambda: [0])
    #: position -> (hint cut, syscall cut, signal cut) its unit was cut at
    cuts: Dict[int, tuple] = field(default_factory=dict)
    #: position -> verdict the schedule ran inline (no session)
    inline: Dict[int, EpochRunResult] = field(default_factory=dict)
    #: the next position whose verdict the schedule has not consumed
    #: (every one below it was final)
    consumed: int = 0
    #: the thread-parallel run was stopped at a final failing verdict
    squashed: bool = False


@dataclass
class _Timeline:
    """The recording timeline, composed one segment at a time."""

    #: when each epoch-parallel executor slot is next free
    worker_free: List[int]
    #: recording-time minus app-time for the current segment
    offset: int = 0
    makespan: int = 0
    tp_finish: int = 0


class DoublePlayRecorder:
    """Records one program execution with uniparallelism."""

    def __init__(
        self,
        program: ProgramImage,
        setup: KernelSetup,
        config: Optional[DoublePlayConfig] = None,
    ):
        self.program = program
        self.setup = setup
        self.config = config or DoublePlayConfig()
        self.machine = self.config.machine

    # ------------------------------------------------------------------
    def _run_inline(
        self, segment: _Segment, position: int, syscalls,
        cuts: Optional[tuple] = None,
    ) -> EpochRunResult:
        """Run one position's epoch here, on the coordinator.

        With ``cuts`` it is the unit as cut at push time — the run a
        worker would make of the speculative dispatch. Without, the
        full-knowledge run: the executor gets the hint *suffix* from its
        epoch's start to the segment end, because grants decided near
        the epoch boundary retire in later epochs, and cutting the hints
        at the boundary would make the executor hand objects out
        differently than the thread-parallel run did. ``syscalls`` is
        the segment's log — for the merge's runs, the finished log under
        one shared injection index.
        """
        signals = segment.signal_log
        c_hint = None
        if cuts is not None:
            c_hint, c_sys, c_sig = cuts
            syscalls, signals = syscalls[:c_sys], signals[:c_sig]
        window = segment.hints[segment.hint_marks[position] : c_hint]
        with segment.lives.here(position, "record"):
            return run_epoch(
                self.program,
                self.machine,
                segment.first_epoch + position,
                segment.checkpoints[position],
                segment.checkpoints[position + 1],
                syscalls,
                SyncOrderLog(tuple(window)),
                self.config.use_sync_hints,
                signal_records=signals,
            )

    def _segment_epoch_results(self, segment: _Segment):
        """Yield ``(position, EpochRunResult)`` for a segment, in order.

        With a session the stream is its merge over the units pushed
        ahead (:meth:`SpeculativeSession.harvest`): results are waited
        for, validated and yielded one position at a time, so the caller
        commits an epoch while the units behind it still execute, and
        only a position with no usable result is cut again — now, with
        full knowledge — and run. Without one (``jobs=1``) every
        position runs here, lazily, except a verdict the schedule
        already ran that may stand in. The caller closes the stream at
        the first failure, so an early divergence runs (and awaits)
        nothing past it; both produce identical result streams, because
        epoch execution is a deterministic function of the checkpoints
        and logs.
        """
        positions = len(segment.checkpoints) - 1
        valid = functools.partial(self._speculation_valid, segment)
        if segment.session is not None:
            yield from segment.session.harvest(
                positions, valid, functools.partial(self._cut_unit, segment)
            )
            return
        syscalls = InjectionLog(segment.syscall_log)
        for position in range(positions):
            result = segment.inline.get(position)
            if result is None or not valid(position, result):
                result = self._run_inline(segment, position, syscalls)
            yield position, result

    # ------------------------------------------------------------------
    # Stages of one segment's thread-parallel run.
    # ------------------------------------------------------------------
    def _run_to_boundary(self, engine, policy, manager, segment: _Segment) -> str:
        """Run the thread-parallel engine one epoch; checkpoint the boundary."""
        started = time.perf_counter()
        status = engine.run(
            stop_check=lambda e: policy.should_checkpoint(e.time),
            stop_after=policy.next_boundary(),
        )
        # Indices continue the committed chain: what a squashed future
        # numbered is handed out again after its recovery.
        checkpoint = manager.take(engine, index=segment.checkpoints[-1].index + 1)
        policy.note_checkpoint(engine.time)
        segment.checkpoints.append(checkpoint)
        segment.hint_marks.append(len(segment.hints))
        segment.lives.cut(
            segment.first_epoch + len(segment.checkpoints) - 2,
            (started, time.perf_counter()),
        )
        return status

    def _cut_unit(self, segment: _Segment, position: int):
        """Cut one position's unit: its hints and logs are the snapshots of *now*.

        The one way a record unit is made. Whether its result may stand
        in for the full-knowledge run is decided when it is merged
        (``_speculation_valid``, against the cuts noted here); a cut
        made once the thread-parallel run is over — on the tail, or
        again at the merge — *is* full knowledge. Without a session
        (``jobs=1``) there is no unit to build: the cuts alone say what
        an inline verdict may read.
        """
        segment.cuts[position] = (
            len(segment.hints), len(segment.syscall_log), len(segment.signal_log)
        )
        if segment.session is None:
            return None
        from repro.host.wire import _record_unit

        return _record_unit(
            position,
            segment.first_epoch + position,
            segment.checkpoints[position],
            segment.checkpoints[position + 1],
            segment.hints[segment.hint_marks[position] :],
            segment.logs,
            self.config.use_sync_hints,
            segment.session.blobs,
        )

    def _push_unit(self, segment: _Segment, position: int) -> None:
        """Cut ``position`` and push its unit, unless that was done before.

        The two-deep commit pipeline pushes epoch p once boundary p+2
        exists, and whatever is left when the thread-parallel run
        finishes: shipped to the pool while the thread-parallel run
        executes ahead, or while the merge commits earlier epochs. At
        ``jobs=1`` only an armed verdict schedule needs a cut.
        """
        session = segment.session
        if (
            position < 0
            or position in segment.cuts
            or not (segment.may_cut or session is not None)
        ):
            return
        unit = self._cut_unit(segment, position)
        if session is not None:
            session.push(unit)

    def _consume_verdict(self, segment: _Segment, lag: int) -> bool:
        """Verdict schedule: consume the verdict due at this boundary.

        True when it squashes the thread-parallel run. Position *q*'s
        verdict is due at boundary *q* + ``lag``, and position 0's first
        at boundary 1: a segment restarts right behind a divergence, so
        its first epoch is cut and judged at once. The verdict is the
        result of the unit as cut at push time — from the pool (blocking
        if it is not in yet) or, without a session, run here; the same
        pure function either way. It is *final* when the run was
        unstarved (hints that do not exist yet cannot change it) and
        nothing logged since its cut lands inside its window: then the
        full-knowledge run at segment end would return exactly it. A
        final verdict is consumed once (``segment.consumed``); a final
        failing one behind nothing but final passing ones is the
        segment's first divergence, known now: the segment is truncated
        to the divergent epoch and the thread-parallel run stops. A
        verdict that is not final closes the cut for this segment, which
        runs to its end under the segment-end rule — except an early
        one, which is dropped with its cut: the position is cut again at
        its usual boundary and consumed at *q* + ``lag``, and that
        verdict decides. Everything here is a function of the committed
        history — never of host timing or ``jobs``.
        """
        boundary = len(segment.checkpoints) - 1
        position = 0 if boundary == 1 else boundary - lag
        if position < segment.consumed:
            return False
        self._push_unit(segment, position)  # early, or lag 2: cut right now
        if segment.session is not None:
            result = segment.session.wait(position)
        else:
            result = segment.inline[position] = self._run_inline(
                segment, position, segment.syscall_log, segment.cuts[position]
            )
        if result.starved or not self._speculation_valid(segment, position, result):
            if boundary < position + lag:
                del segment.cuts[position]
                segment.inline.pop(position, None)
            else:
                segment.may_cut = False
            return False
        segment.consumed = position + 1
        if not result.ok:
            del segment.checkpoints[position + 2 :]
            del segment.hint_marks[position + 2 :]
            segment.squashed = True
        return segment.squashed

    # ------------------------------------------------------------------
    @staticmethod
    def _speculation_valid(segment: _Segment, position: int, result) -> bool:
        """May a speculative result stand in for the full-knowledge run?

        The unit of ``position`` ran on snapshots cut mid-segment — hints
        truncated at ``c_hint``, logs at ``c_sys``/``c_sig`` — while the
        full-knowledge unit would see the hints suffix and logs of the
        segment as it stands now (complete, at segment end). The
        speculative run is bit-identical to that run iff nothing arriving
        after its cuts could ever have been consulted:

        * The epoch's replay consumes syscall records with per-thread seq
          in ``[start.syscall_count, boundary.syscall_count)`` — exactly.
          The call straddling the boundary (seq == boundary count, logged
          at its later completion) is deliberately never re-issued
          (``boundary_blocked`` excludes syscalls), and a count below the
          boundary's means the call completed — and was logged — before
          the boundary checkpoint was taken, i.e. before any later cut.
          A late record inside the window therefore cannot normally
          exist; the floor check below enforces that invariant rather
          than assumes it. Signal deliveries are keyed by per-thread
          retired count and the same monotonicity argument applies.
        * A sync object the grant oracle starved on (consulted past its
          truncated queue) must have no hint events past the cut. The
          first grant decision where a truncated run differs from the
          full-suffix run is always such a consult, so no starved object
          with later events ⇒ every decision was identical.

        A failed run stops at its first divergence, so the rule covers
        failures too: a *validated* failure is a real divergence and goes
        straight to forward recovery, exactly as at ``jobs=1``.
        """
        c_hint, c_sys, c_sig = segment.cuts[position]
        boundary_cp = segment.checkpoints[position + 1]
        # A bisect per thread in the segment's index, not a scan.
        if segment.logs.late_below(boundary_cp, (c_sys, c_sig)):
            return False
        if result.starved:
            starved = set(result.starved)
            for _, addr, _ in segment.hints[c_hint:]:
                if addr in starved:
                    return False
        return True

    # ------------------------------------------------------------------
    # Stages of one segment's merge.
    # ------------------------------------------------------------------
    def _commit_epoch(
        self, recording, sink, manager, segment: _Segment, position: int,
        end_cp, outcome, logs, recovered=False,
    ) -> None:
        """Fold one epoch into the recording and the durable sink.

        ``outcome`` is the epoch's clean ``EpochRunResult`` or, after a
        divergence, its ``RecoveryResult``; ``end_cp`` the checkpoint it
        ended at; ``logs`` the index over the raw logs the sink takes
        the epoch's records from.
        """
        started = time.perf_counter()
        start_cp = segment.checkpoints[position]
        record = EpochRecord(
            index=segment.first_epoch + position,
            start_checkpoint=start_cp,
            targets=end_cp.targets(),
            schedule=outcome.schedule,
            # Store the grant order the committed run actually used —
            # replay pins its decisions from this, not from the raw hints.
            sync_log=outcome.committed_sync,
            end_digest=outcome.end_digest,
            duration=outcome.duration,
            recovered=recovered,
        )
        recording.epochs.append(record)
        manager.commit(end_cp, self.machine.costs)
        if sink is not None:
            sink.commit_epoch(record, start_cp, end_cp, logs)
            if self.config.log_spill:
                record.spill()
        segment.lives.committed(
            position, started, time.perf_counter(), outcome.duration
        )

    def _discard_future(self, segment: _Segment, position: int, result, manager) -> None:
        """Divergence: drop what the squashed thread-parallel future logged."""
        started = time.perf_counter()
        start_cp = segment.checkpoints[position]
        segment.syscall_log[:] = prune_syscall_records(
            segment.syscall_log, start_cp.syscall_counts()
        )
        segment.signal_log[:] = prune_signal_records(
            segment.signal_log, start_cp.targets()
        )
        # Release the squashed future's checkpoints.
        manager.discard_after(start_cp.index)
        segment.lives.diverged(
            position, result.reason[:120], started, time.perf_counter()
        )

    def _recover(self, segment: _Segment, position: int):
        """Forward recovery: re-execute the divergent epoch live."""
        started = time.perf_counter()
        recovery = recover_epoch(
            self.program,
            self.machine,
            self.setup,
            segment.checkpoints[position],
            self.config.epoch_cycles,
            segment.syscall_log,
            signal_log=segment.signal_log,
        )
        segment.lives.recovered(
            position, started, time.perf_counter(), recovery.duration
        )
        return recovery

    def _compose_timing(
        self, timeline: _Timeline, segment: _Segment, timings: List[EpochTiming],
        app_start: int, diverged_at: Optional[int], recovery,
    ) -> None:
        """Place one merged segment — and its recovery — on the timeline."""
        config, costs = self.config, self.machine.costs
        # The thread-parallel run is on the committed timeline up to the
        # boundary that ended the divergent epoch (or, clean, to its
        # last boundary); what it did past that was squashed.
        segment_tp_finish = segment.checkpoints[
            -1 if diverged_at is None else diverged_at + 1
        ].time
        if config.spare_cores:
            pipeline = schedule_spare_cores(
                timings,
                workers=len(timeline.worker_free),
                dispatch_cost=costs.epoch_dispatch,
                max_inflight=config.inflight_bound(),
                worker_free=timeline.worker_free,
            )
        else:
            pipeline = schedule_shared_cores(
                timings,
                tp_span=segment_tp_finish - app_start,
                cores=self.machine.cores,
                dispatch_cost=costs.epoch_dispatch,
                segment_start=app_start + timeline.offset,
            )
        timeline.makespan = max(timeline.makespan, pipeline.makespan)
        timeline.tp_finish = max(
            timeline.tp_finish,
            segment_tp_finish + timeline.offset + pipeline.throttle_stall,
        )
        if diverged_at is None:
            return
        detection = pipeline.commits[diverged_at].finish
        recovery_finish = detection + costs.restore_base + recovery.duration
        timeline.makespan = max(timeline.makespan, recovery_finish)
        timeline.worker_free = [recovery_finish] * len(timeline.worker_free)
        timeline.offset = recovery_finish - recovery.committed.time
        if recovery.finished:
            timeline.tp_finish = max(timeline.tp_finish, recovery_finish)

    def record(self) -> RecordResult:
        """Record one run; the durable sink never leaks on a crash.

        Everything that can go wrong mid-run — a workload fault escaping
        the engine, ``KeyboardInterrupt``, a host-layer error — used to
        skip ``sink.close()`` entirely, losing the group-commit buffer
        and the sealing manifest: the one scenario a durable log exists
        for. The sink is tracked on the instance so this wrapper can
        seal the committed prefix (``close_partial``) with the crash
        reason before re-raising; `repro log recover` / `replay --tail`
        then open exactly that artifact.
        """
        self._sink = None
        try:
            with options.run(self.config) as opts:
                return self._record(opts)
        except BaseException as exc:
            sink = self._sink
            if sink is not None and not sink.closed:
                try:
                    sink.close_partial(f"{type(exc).__name__}: {exc}")
                except Exception:
                    pass  # never mask the original failure
            raise

    def _record(self, opts: options.RuntimeOptions) -> RecordResult:
        config = self.config
        costs = self.machine.costs
        stats_baseline = obs_metrics.process_stats().snapshot()
        policy_cls = AdaptiveEpochPolicy if config.adaptive_epochs else FixedEpochPolicy
        policy = policy_cls(config.epoch_cycles)

        syscall_log: List[SyscallRecord] = []
        signal_log: List = []
        kernel = Kernel(self.setup, self.program.heap_base)
        services = LiveSyscalls(kernel, syscall_log)
        engine = MulticoreEngine.boot(self.program, self.machine, services)
        engine.signal_log = signal_log
        engine.halt_on_fault = True  # crashes are recorded, not raised
        manager = CheckpointManager()
        initial = manager.initial(engine)
        recording = Recording(
            program_name=self.program.name,
            worker_threads=self.machine.cores,
            initial_checkpoint=initial,
        )

        sink = None
        if config.log_dir:
            # Imported lazily: purely in-memory recordings never touch
            # the durable-log layer.
            from repro.record.shards import ShardedLogWriter

            sink = self._sink = ShardedLogWriter(
                config.log_dir,
                initial,
                self.program.name,
                self.machine.cores,
                meta=config.log_meta,
                group_commit_bytes=opts.log_group_bytes,
                fsync=opts.log_fsync,
                flight_window=opts.flight_window,
            )
        elif config.log_spill:
            raise ValueError("log_spill requires log_dir")
        elif opts.flight_window:
            raise ValueError("flight_window requires log_dir")

        lives = lifecycle.begin()
        executor = None
        if opts.host_jobs > 1:
            # Imported lazily: jobs=1 (the default) never touches the
            # host-parallelism layer at all.
            from repro.host.executor import HostExecutor, SpeculativeSession

            executor = HostExecutor(opts, lives)

        committed = initial
        #: the one index pair over the raw logs: cuts, validity checks
        #: and the sink's shard extents all ask it. Rebuilt only where
        #: the logs change in place — after a recovery's prune, and
        #: after flight-recorder mode clears them.
        logs = SegmentLogs(syscall_log, signal_log, initial)
        divergences = 0
        recoveries = 0
        epoch_index = 0
        #: boundaries between an epoch's end and its verdict's consumption
        #: (position 0's excepted, see ``_consume_verdict``): the in-flight
        #: bound the thread-parallel run is throttled at (a unit is pushed
        #: once the boundary two past its start exists)
        verdict_lag = max(config.inflight_bound(), 2)
        timeline = _Timeline(worker_free=[0] * config.executor_slots())
        finished = False

        while not finished:
            if engine is None:
                # Segment restart after recovery: rebuild the live machine
                # from the committed state.
                kernel = Kernel(self.setup, self.program.heap_base)
                kernel.restore(committed.kernel_state)
                services = LiveSyscalls(kernel, syscall_log)
                engine = MulticoreEngine.from_checkpoint(
                    self.program,
                    self.machine,
                    services,
                    memory_snapshot=committed.memory,
                    contexts=committed.copy_contexts(),
                    sync_state=committed.sync_state,
                    start_time=committed.time + costs.restore_base,
                    name=f"{self.program.name}/tp",
                )
                engine.signal_log = signal_log
                engine.halt_on_fault = True
            segment = _Segment(
                first_epoch=epoch_index,
                checkpoints=[committed],
                syscall_log=syscall_log,
                signal_log=signal_log,
                # Armed by the committed history, not by a setting: a run
                # that never diverged consumes nothing and pays nothing.
                may_cut=recoveries > 0,
                lives=lives,
                logs=logs,
            )
            lives.segment()
            if executor is not None:
                segment.session = SpeculativeSession(
                    executor, "record", self.program, self.machine
                )
            engine.acquisition_log = segment.hints
            policy.start_segment(engine.time)
            segment_app_start = engine.time

            fault = None
            try:
                while True:
                    status = self._run_to_boundary(engine, policy, manager, segment)
                    if status == "faulted":
                        # A crash ends recording at this boundary: the
                        # epochs up to here commit, and replay reproduces
                        # the program state the instant before the crash.
                        fault = engine.fault
                        break
                    if engine.all_exited():
                        break
                    if segment.may_cut and self._consume_verdict(
                        segment, verdict_lag
                    ):
                        break
                    self._push_unit(segment, len(segment.checkpoints) - 3)
                if segment.session is not None:
                    # The run is over, so these cuts are full knowledge:
                    # the tail executes while the merge below commits
                    # the epochs ahead of it.
                    for position in range(len(segment.checkpoints) - 1):
                        self._push_unit(segment, position)
            except BaseException:
                if segment.session is not None:
                    segment.session.close()
                raise

            # ----------------------------------------------------------
            # Epoch-parallel execution of the segment's epochs: the
            # merge stream, committed as it arrives.
            # ----------------------------------------------------------
            diverged_at: Optional[int] = None
            recovery = None
            attempt_duration = 0
            timings: List[EpochTiming] = []
            with contextlib.closing(self._segment_epoch_results(segment)) as results:
                for position, result in results:
                    start_cp = segment.checkpoints[position]
                    end_cp = segment.checkpoints[position + 1]
                    timings.append(
                        EpochTiming(
                            index=epoch_index,
                            ready_time=start_cp.time + timeline.offset,
                            boundary_time=end_cp.time + timeline.offset,
                            duration=result.duration,
                        )
                    )
                    epoch_index += 1
                    if result.ok:
                        self._commit_epoch(
                            recording, sink, manager, segment, position,
                            end_cp, result, logs,
                        )
                        committed = end_cp
                        continue
                    # ------------------------------------------------------
                    # Divergence: forward recovery. Everything past it
                    # belongs to a squashed future: the stream is closed
                    # first, so recovery never competes for cores with
                    # units that are already doomed.
                    # ------------------------------------------------------
                    results.close()
                    divergences += 1
                    attempt_duration = result.duration
                    self._discard_future(segment, position, result, manager)
                    recovery = self._recover(segment, position)
                    # The prune rewrote the logs in place: one new index,
                    # for this commit and for the segment that follows.
                    logs = SegmentLogs(syscall_log, signal_log, recovery.committed)
                    self._commit_epoch(
                        recording, sink, manager, segment, position,
                        recovery.committed, recovery, logs, recovered=True,
                    )
                    committed = recovery.committed
                    diverged_at = position
                    break
            if segment.squashed and diverged_at is None:
                raise SimulationError(
                    "a squashed segment committed clean: its failing verdict "
                    "was final and must have been merged"
                )
            self._compose_timing(
                timeline, segment, timings, segment_app_start, diverged_at, recovery
            )

            if diverged_at is None:
                finished = True
                recording.final_digest = committed.digest()
            else:
                # Anything the abandoned thread-parallel future saw —
                # including a crash — is discarded with it.
                fault = None
                recoveries += 1
                if recoveries > config.max_recoveries:
                    raise SimulationError(
                        f"recording exceeded {config.max_recoveries} recoveries"
                    )
                engine = None
                if recovery.finished:
                    finished = True
                    recording.final_digest = recovery.end_digest
            if config.log_spill and not finished:
                # Flight-recorder mode: at a segment restart every record
                # still in the raw logs belongs to a committed (hence
                # durable) epoch — the divergence prune dropped the
                # abandoned future and recovery's appends were committed
                # above. The next segment starts from the committed
                # checkpoint's per-thread counts, so nothing below them is
                # ever consulted again: clear the logs instead of letting
                # them grow with run length.
                syscall_log.clear()
                signal_log.clear()
                logs = SegmentLogs(syscall_log, signal_log, committed)

        recording.stats = {
            "divergences": divergences,
            "recoveries": recoveries,
            "faulted": 1 if fault is not None else 0,
            "epochs": len(recording.epochs),
            "checkpoint_cost": manager.committed_cost,
            "makespan": timeline.makespan,
            "tp_finish": timeline.tp_finish,
            "app_time": committed.time,
            "attempt_waste": attempt_duration if divergences else 0,
        }
        if fault is not None:
            recording.stats["fault_message"] = str(fault)
        if sink is not None:
            # Final manifest write — stats are sealed into it *before* any
            # spill-mode markers, so a durable log's stats are identical
            # whether or not the in-memory copy was dropped.
            sink.close(
                final_digest=recording.final_digest, stats=recording.stats
            )
        if config.log_spill:
            # The durable log holds the only full copy of the event
            # streams; retaining them here would re-grow memory with run
            # length, defeating flight-recorder mode.
            recording.stats["log_spilled"] = 1
        else:
            recording.syscall_records = list(syscall_log)
            recording.signal_records = list(signal_log)
        host_summary = executor.timing_summary() if executor else {"jobs": 1}
        run_metrics = obs_metrics.build_run_metrics(
            obs_metrics.delta_since(stats_baseline),
            host=host_summary,
            histo=lives.distributions(),
            record=recording.stats,
        )
        return RecordResult(
            recording=recording,
            makespan=timeline.makespan,
            tp_finish=timeline.tp_finish,
            app_time=committed.time,
            stats=dict(recording.stats),
            final_kernel_state=committed.kernel_state,
            fault=str(fault) if fault is not None else None,
            host=host_summary,
            metrics=run_metrics,
        )
