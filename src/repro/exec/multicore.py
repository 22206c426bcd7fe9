"""Discrete-event multiprocessor execution.

Each core has a local clock; at every step the engine executes one
instruction on the core whose clock is earliest (deterministic tie-break by
core id), so the global order of memory operations is the simulated-time
order — sequentially consistent and perfectly reproducible for a given
program, inputs and configuration. Ops run in *turns* (``_turn``) that
hold that scheduling state in locals from op to op; the order is the one
a fresh pick before every op gives.

This engine runs native executions, DoublePlay's thread-parallel execution
(with syscall logging and acquisition capture enabled), and the multicore
recording baselines (via the access interceptor).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Tuple

from repro.errors import DeadlockError, GuestFault, SimulationError
from repro.exec.engine import BaseEngine
from repro.exec.interpreter import pure_table, step
from repro.isa.context import ThreadContext, ThreadStatus
from repro.isa.program import ProgramImage
from repro.machine.config import MachineConfig
from repro.memory.address_space import AddressSpace
from repro.oskernel.sync import SyncManager


#: a clock or bound no simulated time reaches (no event, no stop)
_NEVER = 1 << 62


@dataclass
class _Core:
    cid: int
    time: int = 0
    tid: Optional[int] = None
    quantum_left: int = 0


def _pick(times: List[int]) -> Tuple[int, int]:
    """The turn's scheduling decision over the busy cores' clocks.

    Returns the index of the earliest clock (the lowest index, i.e. the
    lowest cid, on a tie) and its *limit*: the clock value at which
    another core becomes the earliest. The picked core keeps the turn
    while its clock stays below the limit.
    """
    time = min(times)
    cur = times.index(time)
    times[cur] = _NEVER
    runner_up = min(times)
    limit = runner_up + (times.index(runner_up) > cur)
    times[cur] = time
    return cur, limit


class MulticoreEngine(BaseEngine):
    """Runs one guest program on ``config.cores`` simulated cores."""

    def __init__(
        self,
        program: ProgramImage,
        config: MachineConfig,
        mem: AddressSpace,
        sync: SyncManager,
        services,
        name: str = "",
    ):
        super().__init__(program, config, mem, sync, services, name)
        self.cores = [_Core(cid) for cid in range(config.cores)]
        #: per-pc: may a turn run this op without ending? (see ``_turn``)
        self.pure = pure_table(program)
        #: the turn's tables when no op is pure (an observer or access
        #: interceptor is attached) and when fusion is off (no block head)
        self._impure = (False,) * len(self.pure)
        self._fused = self.fused or (None,) * len(self.decoded)
        self._ready: Deque[Tuple[int, int]] = deque()  # (tid, ready time)
        #: latest simulated time any core has reached
        self.time = 0
        self.context_switches = 0

    # ------------------------------------------------------------------
    # Construction from a checkpoint (forward-recovery restart)
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
        start_time: int = 0,
        name: str = "",
    ) -> "MulticoreEngine":
        mem = AddressSpace.from_snapshot(memory_snapshot)
        sync = SyncManager()
        sync.restore(sync_state)
        engine = cls(program, config, mem, sync, services, name=name)
        engine.time = start_time
        for core in engine.cores:
            core.time = start_time
        engine._adopt_checkpoint_contexts(contexts, wake_blocked_io=False)
        return engine

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def _on_ready(self, tid: int, time: int) -> None:
        self._ready.append((tid, time))

    def _dispatch(self) -> None:
        """Assign ready threads to idle cores, earliest core first."""
        while self._ready:
            core = None
            for candidate in self.cores:
                if candidate.tid is None and (
                    core is None or candidate.time < core.time
                ):
                    core = candidate
            if core is None:
                return
            tid, ready_time = self._ready.popleft()
            ctx = self.contexts[tid]
            if ctx.status != ThreadStatus.READY:
                continue  # exited or re-blocked while queued
            core.tid = tid
            core.time = max(core.time, ready_time) + self.costs.context_switch
            core.quantum_left = self.config.quantum
            ctx.status = ThreadStatus.RUNNING
            self.context_switches += 1

    def _process_wakeups(self, now: int) -> None:
        for wakeup in self.services.wakeups(now, self.mem):
            self._now = now
            self.grant(
                wakeup.tid,
                ("syscall", wakeup.retval, wakeup.writes, wakeup.transferred),
            )
        for signal in self.services.signal_deliveries(now):
            self.deliver_signal(signal.tid, signal.handler_pc)

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def run(self, stop_after: Optional[int] = None) -> str:
        """Execute until completion or until ``self.time >= stop_after``.

        Returns ``"done"`` when every thread exited, ``"stopped"`` when
        ``stop_after`` was reached (checked after every op; all committed
        ops are consistent, so the engine can be checkpointed and
        resumed — the epoch policies supply the value as
        ``next_boundary()``), or ``"faulted"`` when the guest crashed and
        ``halt_on_fault`` is set. Raises :class:`DeadlockError` when
        nothing can ever run again. Fused superblocks are bounded by the
        remaining cycles, not disabled.
        """
        ops_before = self.ops
        try:
            return self._run_loop(stop_after)
        finally:
            self._flush_exec_stats(self.ops - ops_before)

    def _run_loop(self, stop_after: Optional[int]) -> str:
        """The scheduler: dispatch ready threads, idle to the next kernel
        event, and hand the busy cores to :meth:`_turn`, which executes
        the ops."""
        cores = self.cores
        ready = self._ready
        next_event_fn = self.services.next_event_time
        stop = _NEVER if stop_after is None else stop_after
        while True:
            if self.live_threads == 0:
                return "done"
            if ready:
                self._dispatch()
            busy = [core for core in cores if core.tid is not None]
            if busy:
                status = self._turn(busy, stop)
                if status is not None:
                    return status
                continue
            next_event = next_event_fn()
            if next_event is None:
                raise DeadlockError(
                    f"all threads blocked in {self.name!r}", self.blocked_tids()
                )
            if next_event > self.time:
                self.time = next_event
            self._process_wakeups(self.time)

    def _turn(self, busy: List[_Core], stop: int) -> Optional[str]:
        """Execute ops on the busy cores until scheduling can change.

        Each op runs on the core with the earliest clock (lowest cid on a
        tie), so global memory order is core-time order, op by op, exactly
        as if the scheduler picked every op. The cores' clocks and quanta,
        the op count, ``self.time`` and the next event time live in locals
        and are written back when the turn ends. Pure ops never end it;
        any other op ends it when its thread left the core or when a
        thread became ready while a core is idle. ``stop_after``, a spent
        quantum with a thread ready and a fault end it too. A kernel event
        due before an op is delivered in the turn, which ends only if a
        woken thread can take an idle core. Returns ``"stopped"``,
        ``"faulted"``, or None to go on scheduling.
        """
        ready = self._ready
        next_event_fn = self.services.next_event_time
        max_ops = self.config.max_ops
        running = ThreadStatus.RUNNING
        decoded = self.decoded
        code_len = len(decoded)
        # ``pure[pc]`` (one entry past the code, for a thread that runs off
        # its end) says the op may run on the turn's fast path, and that
        # its successor pc indexes these tables. Observers and access
        # interceptors see every op with ``now`` written and none fused,
        # so with one attached no op is pure.
        if self.observers or self.access_interceptor is not None:
            pure = self._impure
        else:
            pure = self.pure
        fused = self._fused
        # Per busy core, in cid order: clock, the clock at which its
        # quantum is spent, thread, and whether the thread's next op skips
        # ``step`` (nothing pending, pc in range). Only ``step`` (a grant
        # consumed, a signal delivered), a branch out of the code and
        # event delivery change the last, so it is refreshed after those.
        times = [core.time for core in busy]
        qends = [core.time + core.quantum_left for core in busy]
        ctxs = [self.contexts[core.tid] for core in busy]
        cleans = [self._is_clean(ctx, code_len) for ctx in ctxs]
        # With a core idle, a thread made ready must be dispatched.
        full = len(busy) == len(self.cores)
        two = len(busy) == 2
        has_ready = bool(ready)
        next_event = next_event_fn()
        if next_event is None:
            next_event = _NEVER
        cur, limit = _pick(times)
        t = times[cur]
        self._now = t
        if t >= next_event:
            # A kernel event is due before this op: deliver it, and let
            # the scheduler dispatch whom it woke.
            self._process_wakeups(t)
            return None
        ctx = ctxs[cur]
        clean = cleans[cur]
        qend = qends[cur]
        ops = self.ops
        clock = self.time
        # Below ``horizon`` a pure op changes nothing the scheduler decides
        # on: the same core is still the earliest, no event is due,
        # ``stop_after`` is not reached and the quantum is not spent with
        # a thread ready. (``stop_after`` reached already, the first op
        # ends the turn and no block fuses.)
        far = next_event if next_event < stop else stop
        horizon = limit if limit < far else far
        if has_ready and qend < horizon:
            horizon = qend
        if clock >= stop:
            horizon = -_NEVER
        sb_calls = sb_ops = sb_exits = 0
        fault = None
        dispatch = False
        try:
            while True:
                pc = ctx.pc
                is_pure = clean and pure[pc]
                if is_pure:
                    site = fused[pc]
                    if site is not None:
                        # Whole-block-or-nothing: the block runs only if
                        # its static minimum cost fits below the horizon
                        # and its body fits the op budget. Entries count
                        # toward compilation only when they would fuse, so
                        # blocks whose windows never fit stay cold.
                        handler = None
                        cost_max = horizon - t
                        max_n = max_ops - ops
                        if cost_max >= site.min_cost and max_n >= site.length:
                            handler = site.handler
                            if handler is None:
                                site.count -= 1
                                if site.count <= 0:
                                    handler = site.compile()
                        if handler is None:
                            site = None
                        else:
                            n, cost, fault = handler(self, ctx, cost_max, max_n)
                            sb_calls += 1
                            sb_ops += n
                            if n % site.span or fault is not None:
                                sb_exits += 1
                                is_pure = fault is None
                    if site is None:
                        n = 1
                        pair = decoded[pc]
                        cost = pair[0](self, ctx, pair[1])
                else:
                    self._now = t
                    n = 1
                    if clean and pc < code_len:
                        pair = decoded[pc]
                        cost = pair[0](self, ctx, pair[1])
                    else:
                        # A grant to consume, a signal to deliver, a blocked
                        # op to resume, or a pc out of range.
                        cost = step(self, ctx)
                ops += n
                if ops > max_ops:
                    raise SimulationError(
                        f"execution exceeded {max_ops} ops (infinite loop?)"
                    )
                t += cost
                if t > clock:
                    clock = t
                if is_pure:
                    if t < horizon:
                        continue
                else:
                    if fault is not None:
                        raise fault
                    has_ready = bool(ready)
                    if ctx.status is not running or has_ready and not full:
                        break
                    # The op may have armed a timer or a sleep.
                    next_event = next_event_fn()
                    if next_event is None:
                        next_event = _NEVER
                    far = next_event if next_event < stop else stop
                    if not clean or not 0 <= ctx.pc <= code_len:
                        clean = cleans[cur] = self._is_clean(ctx, code_len)
                # The op may have changed what the scheduler decides on.
                if clock >= stop or has_ready and t >= qend:
                    break
                if t >= limit:
                    # Another core is now the earliest.
                    times[cur] = t
                    qends[cur] = qend
                    if two:
                        # The other core; it keeps the turn while its
                        # clock is below ``t`` (core 0 wins a tie). Lock-
                        # step runs hand over after most ops; with a
                        # ``_pick`` call here ``compute_clean`` records
                        # 39 % slower (EXPERIMENTS.md).
                        limit = t + cur
                        cur = 1 - cur
                    else:
                        cur, limit = _pick(times)
                    ctx = ctxs[cur]
                    t = times[cur]
                    clean = cleans[cur]
                    qend = qends[cur]
                if t >= next_event:
                    # A kernel event (arrival, sleep expiry, timer) is due
                    # before this op. Delivering it changes the schedule
                    # only if a woken thread can take an idle core; a
                    # signal may now be pending on any busy thread.
                    while True:
                        self._process_wakeups(t)
                        next_event = next_event_fn()
                        if next_event is None:
                            next_event = _NEVER
                        has_ready = bool(ready)
                        if has_ready and not full or t < next_event:
                            break
                    if has_ready and not full:
                        dispatch = True
                        break
                    far = next_event if next_event < stop else stop
                    cleans = [self._is_clean(other, code_len) for other in ctxs]
                    clean = cleans[cur]
                horizon = limit if limit < far else far
                if has_ready and qend < horizon:
                    horizon = qend
        except GuestFault as exc:
            if not self.halt_on_fault:
                raise
            # The faulting op applied no effects; the whole program stops
            # at this op boundary (a crash ends the process).
            self.fault = exc
            return "faulted"
        finally:
            times[cur] = t
            qends[cur] = qend
            for index, core in enumerate(busy):
                core.time = times[index]
                core.quantum_left = qends[index] - times[index]
            self.ops = ops
            self.time = clock
            # Between ops, "now" is the clock of the core to run next.
            self._now = t
            if sb_calls:
                self._sb_calls += sb_calls
                self._sb_ops += sb_ops
                self._sb_exits += sb_exits
        if dispatch:
            return None
        # The turn ended after an op of ``ctx``.
        if ctx.status is not running:
            busy[cur].tid = None
        elif qend <= t and ready:
            ctx.status = ThreadStatus.READY
            ready.append((ctx.tid, t))
            busy[cur].tid = None
        if clock >= stop:
            return "stopped"
        return None

    def _is_clean(self, ctx: ThreadContext, code_len: int) -> bool:
        """May ``ctx``'s next op skip ``step`` (see ``interpreter.step``)?"""
        return (
            not self.injected_signals
            and ctx.blocked is None
            and ctx.pending_grant is None
            and not ctx.pending_signals
            and 0 <= ctx.pc <= code_len
        )

    # ------------------------------------------------------------------
    # Checkpoint support
    # ------------------------------------------------------------------
    def quiesce(self) -> int:
        """Synchronise all cores to the latest core time (checkpoint
        barrier) and return that time. Threads stay scheduled."""
        latest = max([core.time for core in self.cores] + [self.time])
        for core in self.cores:
            core.time = latest
        self.time = latest
        return latest

    def advance_all(self, cycles: int) -> None:
        """Charge ``cycles`` to every core (checkpoint / restore cost)."""
        for core in self.cores:
            core.time += cycles
        self.time += cycles
