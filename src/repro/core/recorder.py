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
   again, with the same ``_cut_unit``. A verdict the schedule (step 3)
   judges at the boundary that first cuts it is the exception at any
   ``jobs``: it runs here, through ``_run_inline``, and no unit is cut
   or pushed for it — the coordinator would block on it at once.
3. On divergence, forward recovery (``repro.core.recovery``) re-executes
   the epoch live, commits its result, discards the abandoned
   thread-parallel future, and a new segment starts from the recovered
   state. Once a run has recovered, a *verdict schedule*
   (``VerdictSchedule``, whose rule table is DESIGN.md's *Verdict
   schedule*) judges each epoch's verdict a fixed number of boundaries
   behind the thread-parallel run — a restarted segment's first epoch
   already at boundary 1 — and squashes that run at the divergent epoch
   instead of letting it finish a future nobody will keep.

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
from typing import Dict, List, Optional, Set, Tuple

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


class VerdictSchedule:
    """When one segment's units are cut and its verdicts judged: the rule
    table of DESIGN.md's *Verdict schedule*, a function of the boundaries
    reached and the verdicts judged — never of an engine, the pool, host
    timing or ``jobs``. ``lag`` is ``config.inflight_bound()``; *armed*
    (the run has recovered) until a verdict that is not final disarms
    it; *pooled* when units go to a pool (``jobs > 1``).
    """

    def __init__(self, lag: int, armed: bool, pooled: bool):
        self.lag, self.armed, self.pooled = lag, armed, pooled
        #: position -> the marks its unit was cut at
        self.cuts: Dict[int, object] = {}
        #: the next position whose verdict was not consumed as final
        self.consumed = 0
        #: a final failing verdict stopped the thread-parallel run
        self.squashed = False

    def due(self, boundary: int, ended: bool = False) -> Tuple[Optional[int], range]:
        """``(position judged, positions cut)`` at ``boundary``, or where
        the thread-parallel run ``ended``."""
        if ended:
            return None, range(boundary if self.pooled else 0)
        position = 0 if boundary == 1 else boundary - self.lag
        judged = position if self.armed and position >= self.consumed else None
        return judged, range(max(boundary - 2, 0), boundary - 1)

    def take(self, position: int, marks) -> bool:
        """Is ``position``'s unit cut now? If so, ``marks`` is its cut."""
        if position in self.cuts or not (self.armed or self.pooled):
            return False
        self.cuts[position] = marks
        return True

    def here(self, position: int, marks) -> bool:
        """Take the cut of ``position``, judged now: is its verdict
        computed where it is awaited, on the coordinator, with no unit?

        Always without a pool. Pooled, exactly when this boundary first
        cuts it: a unit pushed now would be awaited at once, so the
        coordinator would block for its whole execution anyway. Only a
        unit cut at an earlier boundary is awaited from the pool.
        """
        return self.take(position, marks) or not self.pooled

    def judge(self, boundary: int, position: int, final: bool, ok: bool) -> str:
        """Apply ``position``'s verdict, judged at ``boundary``: returns
        ``"consume"``, ``"squash"`` (the segment ends at ``position``),
        ``"recut"`` (dropped with its cut) or ``"disarm"``."""
        if not final:
            if boundary < position + self.lag:
                del self.cuts[position]
                return "recut"
            self.armed = False
            return "disarm"
        self.consumed = position + 1
        if ok:
            return "consume"
        self.squashed = True
        return "squash"


@dataclass
class _Segment:
    """One thread-parallel segment in flight: boundaries, hints, verdicts."""

    #: global index of the epoch at position 0
    first_epoch: int
    #: ``[committed, boundary 1, boundary 2, ...]``
    checkpoints: List[Checkpoint]
    #: which boundary cuts which unit and judges which verdict
    schedule: VerdictSchedule
    #: the pool's side of the segment: units pushed ahead of the merge,
    #: then the merge itself (None at ``jobs=1``)
    session: Optional[object] = None
    #: acquisition hints of the thread-parallel run, in order
    hints: List = field(default_factory=list)
    #: ``len(hints)`` at each entry of ``checkpoints``
    hint_marks: List[int] = field(default_factory=lambda: [0])
    #: position -> verdict the schedule ran inline (no session)
    inline: Dict[int, EpochRunResult] = field(default_factory=dict)
    #: positions whose start checkpoint's pages are all in the
    #: session's blob set (see ``_record_unit``)
    interned: Set[int] = field(default_factory=set)


@dataclass
class _Timeline:
    """The recording timeline, composed one segment at a time."""

    #: when each epoch-parallel executor slot is next free
    worker_free: List[int]
    #: recording-time minus app-time for the current segment
    offset: int = 0
    makespan: int = 0
    tp_finish: int = 0


#: recoveries per run (a safety valve: see repro.core.recovery)
MAX_RECOVERIES = 1000


class DoublePlayRecorder:
    """Records one program execution with uniparallelism.

    ``record`` keeps the run-wide state here, once: the raw logs (the
    engines append) and their index, the epoch lives, the checkpoint
    manager, the sink, the recording and the last committed checkpoint.
    """

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

        With ``cuts`` it is the unit as cut — the verdict schedule's run
        of a verdict it awaits here (every one at ``jobs=1``, one judged
        at the boundary that first cuts it at any ``jobs``), exactly the
        run a worker would make of that unit. Without, the
        full-knowledge run: the executor gets the hint *suffix* from its
        epoch's start to the segment end, because grants decided near
        the epoch boundary retire in later epochs, and cutting the hints
        at the boundary would make the executor hand objects out
        differently than the thread-parallel run did. ``syscalls`` is
        the segment's log — for the merge's runs, the finished log under
        one shared injection index.
        """
        signals = self._signal_log
        c_hint = None
        if cuts is not None:
            c_hint, c_sys, c_sig = cuts
            syscalls, signals = syscalls[:c_sys], signals[:c_sig]
        window = segment.hints[segment.hint_marks[position] : c_hint]
        with self._lives.here(position, "record"):
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
        full knowledge — and run; a verdict the schedule ran here stands
        in for a unit (``SpeculativeSession.settle``). Without one
        (``jobs=1``) every position runs here, lazily, except a verdict
        the schedule already ran that may stand in. The caller closes
        the stream at the first failure, so an early divergence runs
        (and awaits) nothing past it; both produce identical result
        streams, because epoch execution is a deterministic function of
        the checkpoints and logs.
        """
        positions = len(segment.checkpoints) - 1
        valid = functools.partial(self._speculation_valid, segment)
        if segment.session is not None:
            yield from segment.session.harvest(
                positions, valid, functools.partial(self._cut_unit, segment)
            )
            return
        syscalls = InjectionLog(self._syscall_log)
        for position in range(positions):
            result = segment.inline.get(position)
            if result is None or not valid(position, result):
                result = self._run_inline(segment, position, syscalls)
            yield position, result

    # ------------------------------------------------------------------
    # Stages of one segment's thread-parallel run.
    # ------------------------------------------------------------------
    def _engine(self, committed: Optional[Checkpoint]) -> MulticoreEngine:
        """The live thread-parallel machine: booted or, for a segment
        restart after recovery, rebuilt from the ``committed`` state."""
        kernel = Kernel(self.setup, self.program.heap_base)
        services = LiveSyscalls(kernel, self._syscall_log)
        if committed is None:
            engine = MulticoreEngine.boot(self.program, self.machine, services)
        else:
            kernel.restore(committed.kernel_state)
            engine = MulticoreEngine.from_checkpoint(
                self.program,
                self.machine,
                services,
                memory_snapshot=committed.memory,
                contexts=committed.copy_contexts(),
                sync_state=committed.sync_state,
                start_time=committed.time + self.machine.costs.restore_base,
                name=f"{self.program.name}/tp",
            )
        engine.signal_log = self._signal_log
        engine.halt_on_fault = True  # crashes are recorded, not raised
        return engine

    def _run_to_boundary(self, engine, policy, segment: _Segment) -> str:
        """Run the thread-parallel engine one epoch; checkpoint the boundary."""
        started = time.perf_counter()
        status = engine.run(stop_after=policy.next_boundary())
        # Indices continue the committed chain: what a squashed future
        # numbered is handed out again after its recovery.
        checkpoint = self._manager.take(
            engine, index=segment.checkpoints[-1].index + 1
        )
        policy.note_checkpoint(engine.time)
        segment.checkpoints.append(checkpoint)
        segment.hint_marks.append(len(segment.hints))
        self._lives.cut(
            segment.first_epoch + len(segment.checkpoints) - 2,
            (started, time.perf_counter()),
        )
        return status

    def _cut_unit(self, segment: _Segment, position: int):
        """Cut one position's unit: its hints and logs are the snapshots of *now*.

        The one way a record unit is made. Whether its result may stand
        in for the full-knowledge run is decided when it is merged
        (``_speculation_valid``, against the marks the schedule noted at
        its cut); a cut made once the thread-parallel run is over — on
        the tail, or again at the merge — *is* full knowledge.
        """
        from repro.host.wire import _record_unit

        return _record_unit(
            position,
            segment.first_epoch + position,
            segment.checkpoints[position],
            segment.checkpoints[position + 1],
            segment.hints[segment.hint_marks[position] :],
            self._logs,
            self.config.use_sync_hints,
            segment.session.blobs,
            segment.interned,
        )

    def _marks(self, segment: _Segment) -> tuple:
        """What a cut made now may read: the hints and logs so far."""
        return len(segment.hints), len(self._syscall_log), len(self._signal_log)

    def _push_unit(self, segment: _Segment, position: int) -> None:
        """Cut ``position`` and push its unit, if the schedule cuts it now.

        Without a session (``jobs=1``) there is no unit to build: the
        marks alone say what an inline verdict may read.
        """
        taken = segment.schedule.take(position, self._marks(segment))
        if taken and segment.session is not None:
            segment.session.push(self._cut_unit(segment, position))

    def _consume_verdict(self, segment: _Segment, position: int) -> EpochRunResult:
        """The verdict of ``position``'s unit as cut — the same pure
        function wherever it runs. One rule (``VerdictSchedule.here``):
        a unit pushed at an earlier boundary is awaited from the pool
        (blocking if it is not in yet); any other verdict — every one at
        ``jobs=1``, and one judged at the boundary that first cuts it —
        runs here, and no unit is cut or pushed for it. The merge takes
        it as it takes a pool's (``SpeculativeSession.settle``).
        """
        schedule = segment.schedule
        if not schedule.here(position, self._marks(segment)):
            return segment.session.wait(position)
        result = self._run_inline(
            segment, position, self._syscall_log, schedule.cuts[position]
        )
        if segment.session is None:
            segment.inline[position] = result
        else:
            segment.session.settle(position, result)
        return result

    def _run_thread_parallel(self, engine, policy, segment: _Segment):
        """Stage 1: run the segment boundary by boundary, as its schedule
        says; returns the guest fault that ended it, if any. A verdict is
        *final* when unstarved and ``_speculation_valid``: the
        full-knowledge run at segment end would return exactly it.
        """
        schedule, fault = segment.schedule, None
        try:
            while True:
                status = self._run_to_boundary(engine, policy, segment)
                if status == "faulted":
                    # A crash ends recording at this boundary: the
                    # epochs up to here commit, and replay reproduces
                    # the program state the instant before the crash.
                    fault = engine.fault
                    break
                if engine.all_exited():
                    break
                boundary = len(segment.checkpoints) - 1
                judged, cut = schedule.due(boundary)
                if judged is not None:
                    result = self._consume_verdict(segment, judged)
                    final = not result.starved and self._speculation_valid(
                        segment, judged, result
                    )
                    action = schedule.judge(boundary, judged, final, result.ok)
                    if action == "recut":
                        segment.inline.pop(judged, None)
                    elif action == "squash":
                        del segment.checkpoints[judged + 2 :]
                        del segment.hint_marks[judged + 2 :]
                        break
                for position in cut:
                    self._push_unit(segment, position)
            # The run is over, so these cuts are full knowledge: the tail
            # executes while the merge commits the epochs ahead of it.
            _, tail = schedule.due(len(segment.checkpoints) - 1, ended=True)
            for position in tail:
                self._push_unit(segment, position)
        except BaseException:
            if segment.session is not None:
                segment.session.close()
            raise
        return fault

    # ------------------------------------------------------------------
    def _speculation_valid(self, segment: _Segment, position: int, result) -> bool:
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
        c_hint, c_sys, c_sig = segment.schedule.cuts[position]
        boundary_cp = segment.checkpoints[position + 1]
        # A bisect per thread in the run's index, not a scan.
        if self._logs.late_below(boundary_cp, (c_sys, c_sig)):
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
        self, segment: _Segment, position: int, end_cp, outcome, recovered=False,
    ) -> None:
        """Fold one epoch into the recording and the durable sink.

        ``outcome`` is the epoch's clean ``EpochRunResult`` or, after a
        divergence, its ``RecoveryResult``; ``end_cp`` the checkpoint it
        ended at, which becomes the committed one.
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
        self._recording.epochs.append(record)
        self._manager.commit(end_cp, self.machine.costs)
        if self._sink is not None:
            self._sink.commit_epoch(record, start_cp, end_cp, self._logs)
            if self.config.log_spill:
                record.spill()
        self._committed = end_cp
        self._lives.committed(
            position, started, time.perf_counter(), outcome.duration
        )

    def _discard_future(self, segment: _Segment, position: int, result) -> None:
        """Divergence: drop what the squashed thread-parallel future logged."""
        started = time.perf_counter()
        start_cp = segment.checkpoints[position]
        self._syscall_log[:] = prune_syscall_records(
            self._syscall_log, start_cp.syscall_counts()
        )
        self._signal_log[:] = prune_signal_records(
            self._signal_log, start_cp.targets()
        )
        # Release the squashed future's checkpoints.
        self._manager.discard_after(start_cp.index)
        self._lives.diverged(
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
            self._syscall_log,
            signal_log=self._signal_log,
        )
        self._lives.recovered(
            position, started, time.perf_counter(), recovery.duration
        )
        return recovery

    def _merge(self, segment: _Segment, timeline: _Timeline, app_start: int):
        """Stage 2: commit the segment's epochs in order, as they arrive.

        At the first divergence the stream is closed — recovery never
        competes for cores with units that are already doomed — and the
        epoch is recovered. Returns ``(the failed attempt's duration,
        RecoveryResult)``, or ``(0, None)`` when all commit clean.
        """
        wasted, diverged_at, recovery = 0, None, None
        timings: List[EpochTiming] = []
        with contextlib.closing(self._segment_epoch_results(segment)) as results:
            for position, result in results:
                start_cp, end_cp = segment.checkpoints[position : position + 2]
                timings.append(
                    EpochTiming(
                        index=segment.first_epoch + position,
                        ready_time=start_cp.time + timeline.offset,
                        boundary_time=end_cp.time + timeline.offset,
                        duration=result.duration,
                    )
                )
                if result.ok:
                    self._commit_epoch(segment, position, end_cp, result)
                    continue
                results.close()
                wasted, diverged_at = result.duration, position
                self._discard_future(segment, position, result)
                recovery = self._recover(segment, position)
                # The prune rewrote the logs in place: one new index, for
                # this commit and for the segment that follows.
                self._logs = SegmentLogs(
                    self._syscall_log, self._signal_log, recovery.committed
                )
                self._commit_epoch(
                    segment, position, recovery.committed, recovery, recovered=True
                )
                break
        if segment.schedule.squashed and diverged_at is None:
            raise SimulationError(
                "a squashed segment committed clean: its failing verdict "
                "was final and must have been merged"
            )
        self._compose_timing(
            timeline, segment, timings, app_start, diverged_at, recovery
        )
        return wasted, recovery

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

    def _open_sink(self, initial: Checkpoint, opts: options.RuntimeOptions):
        """The durable sink of a run with a ``log_dir`` (else None)."""
        if self.config.log_dir:
            # Imported lazily: purely in-memory recordings never touch
            # the durable-log layer.
            from repro.record.shards import ShardedLogWriter

            return ShardedLogWriter(
                self.config.log_dir,
                initial,
                self.program.name,
                self.machine.cores,
                meta=self.config.log_meta,
                group_commit_bytes=opts.log_group_bytes,
                fsync=opts.log_fsync,
                flight_window=opts.flight_window,
            )
        if self.config.log_spill:
            raise ValueError("log_spill requires log_dir")
        if opts.flight_window:
            raise ValueError("flight_window requires log_dir")
        return None

    def _record(self, opts: options.RuntimeOptions) -> RecordResult:
        """Drive the segment loop: thread-parallel run, merge, restart."""
        config = self.config
        stats_baseline = obs_metrics.process_stats().snapshot()
        policy_cls = AdaptiveEpochPolicy if config.adaptive_epochs else FixedEpochPolicy
        policy = policy_cls(config.epoch_cycles)

        self._syscall_log, self._signal_log = [], []
        engine = self._engine(None)
        self._manager = CheckpointManager()
        initial = self._committed = self._manager.initial(engine)
        self._recording = Recording(
            program_name=self.program.name,
            worker_threads=self.machine.cores,
            initial_checkpoint=initial,
        )
        self._sink = self._open_sink(initial, opts)
        self._lives = lifecycle.begin()
        executor = None
        if opts.host_jobs > 1:
            # Imported lazily: jobs=1 (the default) never touches the
            # host-parallelism layer at all.
            from repro.host.executor import HostExecutor, SpeculativeSession

            executor = HostExecutor(opts, self._lives)

        #: the one index pair over the raw logs: cuts, validity checks
        #: and the sink's shard extents all ask it. Rebuilt only where
        #: the logs change in place — after a recovery's prune, and
        #: after flight-recorder mode clears them.
        self._logs = SegmentLogs(self._syscall_log, self._signal_log, initial)
        recoveries = attempt_waste = 0
        timeline = _Timeline(worker_free=[0] * config.executor_slots())
        while True:
            segment = _Segment(
                first_epoch=len(self._recording.epochs),
                checkpoints=[self._committed],
                # Armed by the committed history, not by a setting: a run
                # that never diverged consumes nothing and pays nothing.
                schedule=VerdictSchedule(
                    config.inflight_bound(), recoveries > 0, executor is not None
                ),
            )
            self._lives.segment()
            if executor is not None:
                segment.session = SpeculativeSession(
                    executor, "record", self.program, self.machine
                )
            engine.acquisition_log = segment.hints
            policy.start_segment(engine.time)
            app_start = engine.time
            fault = self._run_thread_parallel(engine, policy, segment)
            wasted, recovery = self._merge(segment, timeline, app_start)
            if recovery is None:
                self._recording.final_digest = self._committed.digest()
                break
            # Anything the abandoned thread-parallel future saw —
            # including a crash — is discarded with it.
            fault = None
            recoveries += 1
            attempt_waste += wasted
            if recoveries > MAX_RECOVERIES:
                raise SimulationError(
                    f"recording exceeded {MAX_RECOVERIES} recoveries"
                )
            if recovery.finished:
                self._recording.final_digest = recovery.end_digest
                break
            if config.log_spill:
                # Flight-recorder mode: at a segment restart every record
                # still in the raw logs belongs to a committed (hence
                # durable) epoch — the divergence prune dropped the
                # abandoned future and recovery's appends were committed.
                # The next segment starts from the committed checkpoint's
                # per-thread counts, so nothing below them is ever
                # consulted again: clear the logs instead of letting them
                # grow with run length.
                self._syscall_log.clear()
                self._signal_log.clear()
                self._logs = SegmentLogs(
                    self._syscall_log, self._signal_log, self._committed
                )
            engine = self._engine(self._committed)

        self._recording.stats = {
            # Each merge recovers its one divergence: the two are equal.
            "divergences": recoveries,
            "recoveries": recoveries,
            "faulted": 1 if fault is not None else 0,
            "epochs": len(self._recording.epochs),
            "checkpoint_cost": self._manager.committed_cost,
            "makespan": timeline.makespan,
            "tp_finish": timeline.tp_finish,
            "app_time": self._committed.time,
            "attempt_waste": attempt_waste,
        }
        return self._result(executor, stats_baseline, timeline, fault)

    def _result(self, executor, stats_baseline, timeline: _Timeline, fault):
        """Stage 3: seal the durable log and assemble the ``RecordResult``."""
        recording, committed = self._recording, self._committed
        if fault is not None:
            recording.stats["fault_message"] = str(fault)
        if self._sink is not None:
            # Final manifest write — stats are sealed into it *before* any
            # spill-mode markers, so a durable log's stats are identical
            # whether or not the in-memory copy was dropped.
            self._sink.close(
                final_digest=recording.final_digest, stats=recording.stats
            )
        if self.config.log_spill:
            # The durable log holds the only full copy of the event
            # streams; retaining them here would re-grow memory with run
            # length, defeating flight-recorder mode.
            recording.stats["log_spilled"] = 1
        else:
            recording.syscall_records = list(self._syscall_log)
            recording.signal_records = list(self._signal_log)
        host_summary = executor.timing_summary() if executor else {"jobs": 1}
        run_metrics = obs_metrics.build_run_metrics(
            obs_metrics.delta_since(stats_baseline),
            host=host_summary,
            histo=self._lives.distributions(),
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
