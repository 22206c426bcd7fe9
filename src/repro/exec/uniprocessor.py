"""Uniprocessor timesliced execution.

All guest threads share one simulated CPU, scheduled round-robin with a
configurable quantum — DoublePlay's key simplification: threads in an epoch
never access memory simultaneously, so the *timeslice order is the whole
schedule log*.

Two modes:

* **capture** (:meth:`UniprocessorEngine.run`): scheduling decisions are
  the engine's own and are recorded into a :class:`ScheduleLog`. The
  epoch-parallel execution runs in this mode with injected syscalls,
  per-thread retired-op targets and (optionally) a sync-order oracle; the
  uniprocessor recording baseline runs in this mode with a live kernel and
  no targets.
* **enforce** (:meth:`UniprocessorEngine.run_schedule`): a previously
  captured schedule is followed slice by slice — this is replay. Any
  departure from the log raises :class:`ReplayError`.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Optional

from repro.errors import (
    DeadlockError,
    DivergenceSignal,
    GuestFault,
    ReplayError,
    SimulationError,
)
from repro.exec.engine import BaseEngine
from repro.exec.interpreter import step
from repro.isa.context import ThreadContext, ThreadStatus
from repro.isa.program import ProgramImage
from repro.machine.config import MachineConfig
from repro.memory.address_space import AddressSpace
from repro.oskernel.sync import SyncManager
from repro.record.schedule_log import ScheduleLog

#: cost bound meaning "no cycle budget" for a fused run (replay mode)
_UNBOUNDED_COST = 1 << 62


class EpochOutcome:
    """Result of a captured uniprocessor run."""

    def __init__(self, status: str, schedule: ScheduleLog, duration: int,
                 reason: str = ""):
        #: "complete" (all targets reached / all threads exited) or "stopped"
        self.status = status
        self.schedule = schedule
        self.duration = duration
        self.reason = reason

    def __repr__(self) -> str:
        return f"EpochOutcome({self.status!r}, duration={self.duration})"


class UniprocessorEngine(BaseEngine):
    """One simulated CPU, round-robin quantum scheduling."""

    def __init__(
        self,
        program: ProgramImage,
        config: MachineConfig,
        mem: AddressSpace,
        sync: SyncManager,
        services,
        targets: Optional[Dict[int, int]] = None,
        boundary_blocked: Optional[Dict[int, str]] = None,
        name: str = "",
    ):
        super().__init__(program, config, mem, sync, services, name)
        #: per-thread retired-op counts at which threads park (epoch mode)
        self.targets = targets
        #: tid → blocked-reason kind for threads the boundary checkpoint
        #: left blocked mid-op. On reaching its target such a thread must
        #: *issue* that op (and block) rather than park before it, so wait
        #: queue membership converges with the thread-parallel boundary.
        #: Kernel-blocked threads ("syscall") are excluded: under injection
        #: the issue would complete instead of blocking.
        self.boundary_blocked = boundary_blocked or {}
        self._ready: Deque[int] = deque()
        self.time = 0
        self.context_switches = 0
        self._run_ops = 0
        self._op_budget: Optional[int] = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_checkpoint(
        cls,
        program: ProgramImage,
        config: MachineConfig,
        services,
        memory_snapshot,
        contexts: Dict[int, ThreadContext],
        sync_state,
        targets: Optional[Dict[int, int]] = None,
        boundary_blocked: Optional[Dict[int, str]] = None,
        wake_blocked_io: bool = True,
        start_time: int = 0,
        name: str = "",
    ) -> "UniprocessorEngine":
        """Engine positioned at a checkpoint.

        ``wake_blocked_io=True`` is the epoch-parallel normalisation:
        threads the thread-parallel run left blocked in the kernel resume
        here and complete from the injected log (see
        ``interpreter._resume_blocked``). Pass ``False`` when restoring a
        live-kernel execution whose kernel still holds the waiters.
        """
        mem = AddressSpace.from_snapshot(memory_snapshot)
        sync = SyncManager()
        sync.restore(sync_state)
        engine = cls(
            program,
            config,
            mem,
            sync,
            services,
            targets=targets,
            boundary_blocked=boundary_blocked,
            name=name,
        )
        engine.time = start_time
        engine._adopt_checkpoint_contexts(contexts, wake_blocked_io=wake_blocked_io)
        return engine

    # ------------------------------------------------------------------
    # Scheduling plumbing
    # ------------------------------------------------------------------
    def _on_ready(self, tid: int, time: int) -> None:
        self._ready.append(tid)

    def _check_spawn(self, child_tid: int) -> None:
        if self.targets is not None and child_tid not in self.targets:
            raise DivergenceSignal(
                f"epoch execution spawned unexpected thread {child_tid}"
            )

    def _at_target(self, ctx: ThreadContext) -> bool:
        if self.targets is None:
            return False
        target = self.targets.get(ctx.tid)
        return target is not None and ctx.retired >= target

    def _all_done(self) -> bool:
        if self.targets is None:
            return self.all_exited()
        for tid, ctx in self.contexts.items():
            target = self.targets.get(tid)
            if target is None:
                return False
            if ctx.retired < target:
                return False
            if self._needs_boundary_issue(ctx):
                return False
        return True

    def _process_wakeups(self, now: int) -> None:
        for wakeup in self.services.wakeups(now, self.mem):
            self._now = now
            self.grant(
                wakeup.tid,
                ("syscall", wakeup.retval, wakeup.writes, wakeup.transferred),
            )
        for signal in self.services.signal_deliveries(now):
            self.deliver_signal(signal.tid, signal.handler_pc)

    def _needs_boundary_issue(self, ctx: ThreadContext) -> bool:
        """Must this at-target thread still issue a blocking op?"""
        kind = self.boundary_blocked.get(ctx.tid)
        return (
            kind is not None
            and kind != "syscall"
            and ctx.blocked is None
            and ctx.pending_grant is None
            and ctx.status != ThreadStatus.EXITED
        )

    def _issue_boundary_op(self, ctx: ThreadContext) -> None:
        """Execute the boundary-straddling op; it must not retire.

        Acceptable outcomes: the thread blocks (queued/arrived, like the
        thread-parallel run), or it is immediately granted (it completed a
        barrier) — either way its retired count stays at the target.
        """
        retired_before = ctx.retired
        self._now = self.time
        cost = step(self, ctx)
        self._count_run_op()
        self.time += cost
        issued_ok = ctx.status == ThreadStatus.BLOCKED or ctx.pending_grant is not None
        if ctx.retired != retired_before or not issued_ok:
            raise DivergenceSignal(
                f"thread {ctx.tid} had its boundary op pending in the "
                f"thread-parallel run but it completed here"
            )

    def _stall(self) -> None:
        blocked = self.blocked_tids()
        if self.targets is not None:
            raise DivergenceSignal(
                "epoch execution stalled before reaching its targets "
                f"(blocked threads: {blocked})"
            )
        raise DeadlockError(f"all threads blocked in {self.name!r}", blocked)

    def _count_run_op(self) -> None:
        self._guard_ops()
        self._run_ops += 1
        if self._op_budget is not None and self._run_ops > self._op_budget:
            raise DivergenceSignal(
                "epoch execution exceeded its op budget (runaway divergence)"
            )

    # ------------------------------------------------------------------
    # Capture mode
    # ------------------------------------------------------------------
    def run(self, stop_after: Optional[int] = None) -> EpochOutcome:
        """Run with the engine's own scheduling, capturing the schedule.

        With targets set, completes when every thread reaches its target
        (threads park there); stalls and runaway executions raise
        :class:`DivergenceSignal`. Without targets, runs until every
        thread exits. ``stop_after`` ends the run early with status
        ``"stopped"`` once ``self.time >= stop_after`` (used by forward
        recovery's epoch re-execution), like ``MulticoreEngine.run``; it
        bounds fused superblocks instead of disabling them.
        """
        ops_before = self.ops
        try:
            return self._run_capture(stop_after)
        finally:
            self._flush_exec_stats(self.ops - ops_before)

    def _run_capture(self, stop_after: Optional[int]) -> EpochOutcome:
        schedule = ScheduleLog()
        self._run_ops = 0
        if self.targets is not None:
            # Targets cover threads not yet spawned at epoch start, so the
            # work estimate must come from the targets, not from the
            # currently existing contexts.
            already_retired = sum(ctx.retired for ctx in self.contexts.values())
            needed = max(sum(self.targets.values()) - already_retired, 0)
            self._op_budget = 2 * needed + 64 * (len(self.targets) + 1)
        stopped = False
        ready = self._ready
        targets = self.targets
        costs = self.costs
        max_ops = self.config.max_ops
        op_budget = self._op_budget
        next_event_fn = self.services.next_event_time
        has_events = getattr(self.services, "HAS_EVENTS", True)
        running = ThreadStatus.RUNNING
        fused_table = self.fused
        may_fuse = (
            fused_table is not None
            and not self.observers
            and self.access_interceptor is None
        )
        table_len = len(fused_table) if fused_table is not None else 0
        while not stopped:
            if self._all_done():
                return EpochOutcome("complete", schedule, self.time)
            if not ready:
                next_event = next_event_fn()
                if next_event is not None:
                    self.time = max(self.time, next_event)
                    self._process_wakeups(self.time)
                    continue
                self._stall()
            tid = ready.popleft()
            ctx = self.contexts[tid]
            if ctx.status != ThreadStatus.READY:
                continue
            if self._at_target(ctx):
                if self._needs_boundary_issue(ctx):
                    ctx.status = ThreadStatus.RUNNING
                    self.time += self.costs.context_switch
                    self.context_switches += 1
                    self._issue_boundary_op(ctx)
                    schedule.append(tid, 0, True)
                elif ctx.blocked is not None:
                    # A wake-normalised thread that is still semantically
                    # mid-op (join/syscall wait): keep it waiting so an
                    # in-epoch exit can still grant it — matching the
                    # thread-parallel run, where such grants happen.
                    ctx.status = ThreadStatus.BLOCKED
                else:
                    ctx.status = ThreadStatus.PARKED
                continue
            ctx.status = ThreadStatus.RUNNING
            self.time += costs.context_switch
            self.context_switches += 1
            budget = self.config.quantum
            retired_at_start = ctx.retired
            target = None if targets is None else targets.get(tid)
            issue_ended = False
            while budget > 0 and ctx.status is running:
                if target is not None and ctx.retired >= target:
                    break
                if has_events:
                    next_event = next_event_fn()
                    if next_event is not None and next_event <= self.time:
                        self._process_wakeups(self.time)
                if may_fuse and 0 <= ctx.pc < table_len:
                    site = fused_table[ctx.pc]
                    if (
                        site is not None
                        and ctx.blocked is None
                        and ctx.pending_grant is None
                        and not ctx.pending_signals
                        and not self.injected_signals
                    ):
                        # Fuse only when the whole block fits inside
                        # every bound at which the generic loop would
                        # stop, raise, or interpose an event — a
                        # truncated fused run costs more than it saves
                        # and falls back to generic dispatch instead.
                        cost_max = budget
                        if has_events and next_event is not None:
                            room = next_event - self.time
                            if room < cost_max:
                                cost_max = room
                        if stop_after is not None:
                            room = stop_after - self.time
                            if room < cost_max:
                                cost_max = room
                        max_n = max_ops - self.ops
                        if op_budget is not None:
                            room = op_budget - self._run_ops
                            if room < max_n:
                                max_n = room
                        if target is not None:
                            room = target - ctx.retired
                            if room < max_n:
                                max_n = room
                        if cost_max >= site.min_cost and max_n >= site.length:
                            # Compilation counts only entries that would
                            # fuse, so blocks starved by their bounds
                            # never pay ``compile()``.
                            handler = site.handler
                            if handler is None:
                                site.count -= 1
                                if site.count <= 0:
                                    handler = site.compile()
                            if handler is not None:
                                n, cum, fault = handler(self, ctx, cost_max, max_n)
                                self.ops += n
                                self._run_ops += n
                                self.time += cum
                                budget -= cum
                                self._sb_calls += 1
                                self._sb_ops += n
                                if n % site.span or fault is not None:
                                    self._sb_exits += 1
                                if fault is not None:
                                    self._now = self.time
                                    if targets is not None:
                                        raise DivergenceSignal(
                                            "guest faulted during epoch "
                                            f"re-execution: {fault}"
                                        )
                                    if not self.halt_on_fault:
                                        raise fault
                                    self.fault = fault
                                    if ctx.retired > retired_at_start:
                                        schedule.append(
                                            tid,
                                            ctx.retired - retired_at_start,
                                            False,
                                        )
                                    return EpochOutcome(
                                        "faulted",
                                        schedule,
                                        self.time,
                                        reason=str(fault),
                                    )
                                if stop_after is not None and self.time >= stop_after:
                                    stopped = True
                                    break
                                continue
                self._now = self.time
                retired_before = ctx.retired
                try:
                    cost = step(self, ctx)
                except GuestFault as fault:
                    if targets is not None:
                        # The thread-parallel run retired past this point
                        # without crashing; a fault here is a divergence.
                        raise DivergenceSignal(
                            f"guest faulted during epoch re-execution: {fault}"
                        )
                    if not self.halt_on_fault:
                        raise
                    self.fault = fault
                    if ctx.retired > retired_at_start:
                        schedule.append(tid, ctx.retired - retired_at_start, False)
                    return EpochOutcome("faulted", schedule, self.time,
                                        reason=str(fault))
                ops = self.ops + 1
                self.ops = ops
                if ops > max_ops:
                    raise SimulationError(
                        f"execution exceeded {max_ops} ops (infinite loop?)"
                    )
                run_ops = self._run_ops + 1
                self._run_ops = run_ops
                if op_budget is not None and run_ops > op_budget:
                    raise DivergenceSignal(
                        "epoch execution exceeded its op budget "
                        "(runaway divergence)"
                    )
                self.time += cost
                budget -= cost
                if ctx.retired == retired_before:
                    # A non-retiring step is a blocking issue (possibly
                    # immediately granted, e.g. completing a barrier); it
                    # always ends the slice and replay must re-execute it.
                    issue_ended = True
                    break
                if stop_after is not None and self.time >= stop_after:
                    stopped = True
                    break
            if (
                ctx.status == ThreadStatus.RUNNING
                and self._at_target(ctx)
                and self._needs_boundary_issue(ctx)
            ):
                self._issue_boundary_op(ctx)
                issue_ended = True
            ops_retired = ctx.retired - retired_at_start
            if ops_retired or issue_ended:
                schedule.append(tid, ops_retired, issue_ended)
            if ctx.status == ThreadStatus.RUNNING:
                if self._at_target(ctx):
                    ctx.status = ThreadStatus.PARKED
                else:
                    ctx.status = ThreadStatus.READY
                    self._ready.append(tid)
        return EpochOutcome("stopped", schedule, self.time)

    # ------------------------------------------------------------------
    # Checkpoint support (forward recovery checkpoints its live re-run)
    # ------------------------------------------------------------------
    def quiesce(self) -> int:
        """One core: already quiescent at op boundaries."""
        return self.time

    def advance_all(self, cycles: int) -> None:
        self.time += cycles

    # ------------------------------------------------------------------
    # Enforce mode (replay)
    # ------------------------------------------------------------------
    def run_schedule(self, schedule: ScheduleLog) -> int:
        """Follow a captured schedule exactly; returns the elapsed cycles.

        Raises :class:`ReplayError` on any departure — a correct recording
        replayed on the starting state it was captured from never departs.
        """
        ops_before = self.ops
        try:
            return self._run_schedule(schedule)
        finally:
            self._flush_exec_stats(self.ops - ops_before)

    def _run_schedule(self, schedule: ScheduleLog) -> int:
        max_ops = self.config.max_ops
        fused_table = self.fused
        may_fuse = (
            fused_table is not None
            and not self.observers
            and self.access_interceptor is None
        )
        table_len = len(fused_table) if fused_table is not None else 0
        for timeslice in schedule:
            ctx = self.contexts.get(timeslice.tid)
            if ctx is None:
                raise ReplayError(
                    f"schedule references unknown thread {timeslice.tid}"
                )
            if ctx.status not in (ThreadStatus.READY, ThreadStatus.RUNNING):
                blocked_kind = (
                    ctx.blocked.kind
                    if ctx.status == ThreadStatus.BLOCKED and ctx.blocked is not None
                    else None
                )
                if (
                    blocked_kind is not None
                    and ctx.pending_grant is None
                    and timeslice.ops == 0
                    and timeslice.ended_blocked
                ):
                    # A capture-side probe: the epoch executor re-issues
                    # checkpoint-restored join/syscall waits each epoch and
                    # records a (0 ops, blocked) slice when they re-block.
                    # On a continuously-running replay the thread simply
                    # stayed blocked — the probe had no effects; skip it.
                    continue
                if blocked_kind in ("syscall", "join"):
                    # Lazily wake-normalise (the capture engine did this at
                    # restore): the interpreter's resume path completes the
                    # op from the log / the target's exit state.
                    ctx.status = ThreadStatus.READY
                else:
                    raise ReplayError(
                        f"schedule runs thread {timeslice.tid} but it is "
                        f"{ctx.status.value}"
                    )
            ctx.status = ThreadStatus.RUNNING
            self.time += self.costs.context_switch
            self.context_switches += 1
            executed = 0
            while executed < timeslice.ops:
                if ctx.status != ThreadStatus.RUNNING:
                    raise ReplayError(
                        f"thread {timeslice.tid} became {ctx.status.value} "
                        f"after {executed}/{timeslice.ops} ops of its slice"
                    )
                if may_fuse and 0 <= ctx.pc < table_len:
                    site = fused_table[ctx.pc]
                    if (
                        site is not None
                        # Cheapest bound first: short slices (contended
                        # replays) reject most probes, so the slice-room
                        # compare runs before the status-flag chain.
                        and timeslice.ops - executed >= site.length
                        and ctx.blocked is None
                        and ctx.pending_grant is None
                        and not ctx.pending_signals
                        and not self.injected_signals
                    ):
                        handler = site.handler
                        if handler is None:
                            site.count -= 1
                            if site.count <= 0:
                                handler = site.compile()
                        # Replay has no cycle budget: only the slice's
                        # remaining op count and max_ops bound fusion
                        # (fused ops always retire, so the mid-slice
                        # blocking check cannot be skipped over).
                        max_n = timeslice.ops - executed
                        room = max_ops - self.ops
                        if room < max_n:
                            max_n = room
                        if handler is not None and max_n >= site.length:
                            n, cum, fault = handler(
                                self, ctx, _UNBOUNDED_COST, max_n
                            )
                            self.ops += n
                            self.time += cum
                            executed += n
                            self._sb_calls += 1
                            self._sb_ops += n
                            if n % site.span or fault is not None:
                                self._sb_exits += 1
                            if fault is not None:
                                self._now = self.time
                                raise fault
                            continue
                retired_before = ctx.retired
                self._now = self.time
                cost = step(self, ctx)
                ops = self.ops + 1
                self.ops = ops
                if ops > max_ops:
                    raise SimulationError(
                        f"execution exceeded {max_ops} ops (infinite loop?)"
                    )
                self.time += cost
                if ctx.retired == retired_before:
                    raise ReplayError(
                        f"thread {timeslice.tid} blocked mid-slice at pc {ctx.pc}"
                    )
                executed += 1
            if timeslice.ended_blocked:
                if ctx.status != ThreadStatus.RUNNING:
                    raise ReplayError(
                        f"thread {timeslice.tid} cannot issue its recorded "
                        f"blocking op (status {ctx.status.value})"
                    )
                retired_before = ctx.retired
                self._now = self.time
                cost = step(self, ctx)
                self._guard_ops()
                self.time += cost
                issued_ok = (
                    ctx.status == ThreadStatus.BLOCKED
                    or ctx.pending_grant is not None
                )
                if ctx.retired != retired_before or not issued_ok:
                    raise ReplayError(
                        f"thread {timeslice.tid} was recorded issuing a "
                        f"blocking op at pc {ctx.pc} but it completed on replay"
                    )
            elif ctx.status == ThreadStatus.RUNNING:
                ctx.status = ThreadStatus.READY
        return self.time
