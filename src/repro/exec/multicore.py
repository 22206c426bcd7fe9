"""Discrete-event multiprocessor execution.

Each core has a local clock; at every step the engine executes one
instruction on the core whose clock is earliest (deterministic tie-break by
core id), so the global order of memory operations is the simulated-time
order — sequentially consistent and perfectly reproducible for a given
program, inputs and configuration.

This engine runs native executions, DoublePlay's thread-parallel execution
(with syscall logging and acquisition capture enabled), and the multicore
recording baselines (via the access interceptor).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, Optional, Tuple

from repro.errors import DeadlockError, GuestFault, SimulationError
from repro.exec.engine import BaseEngine
from repro.exec.interpreter import step
from repro.isa.context import ThreadContext, ThreadStatus
from repro.isa.program import ProgramImage
from repro.machine.config import MachineConfig
from repro.memory.address_space import AddressSpace
from repro.oskernel.sync import SyncManager


@dataclass
class _Core:
    cid: int
    time: int = 0
    tid: Optional[int] = None
    quantum_left: int = 0


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
    def run(
        self,
        stop_check: Optional[Callable[["MulticoreEngine"], bool]] = None,
        stop_after: Optional[int] = None,
    ) -> str:
        """Execute until completion or until ``stop_check`` fires.

        Returns ``"done"`` when every thread exited, ``"stopped"`` when the
        stop check fired (all committed ops are consistent; the engine can
        be checkpointed and resumed), or ``"faulted"`` when the guest
        crashed and ``halt_on_fault`` is set. Raises
        :class:`DeadlockError` when nothing can ever run again.

        ``stop_after`` *is* the stop condition ``e.time >= stop_after``
        (the epoch policies expose the value as ``next_boundary()``),
        compared inline after every op; ``stop_check`` is then never
        called. Fused superblocks are bounded by the remaining cycles
        instead of being disabled, as an opaque ``stop_check`` forces.
        """
        ops_before = self.ops
        try:
            return self._run_loop(stop_check, stop_after)
        finally:
            self._flush_exec_stats(self.ops - ops_before)

    def _run_loop(
        self,
        stop_check: Optional[Callable[["MulticoreEngine"], bool]],
        stop_after: Optional[int],
    ) -> str:
        cores = self.cores
        contexts = self.contexts
        ready = self._ready
        next_event_fn = self.services.next_event_time
        max_ops = self.config.max_ops
        running = ThreadStatus.RUNNING
        decoded = self.decoded
        decoded_len = len(decoded)
        if stop_after is not None:
            stop_check = None
        fused_table = self.fused
        may_fuse = (
            fused_table is not None
            and not self.observers
            and self.access_interceptor is None
            and (stop_check is None or stop_after is not None)
        )
        table_len = len(fused_table) if fused_table is not None else 0
        while True:
            if self.live_threads == 0:
                return "done"
            if ready:
                self._dispatch()
            # earliest busy core; strict < keeps the lowest-cid tie-break.
            # The runner-up's time bounds any fused run from above, so
            # tracking it here makes the common lock-step gate failure a
            # single comparison instead of a full bound computation.
            core = None
            runner = None
            for candidate in cores:
                if candidate.tid is None:
                    continue
                if core is None or candidate.time < core.time:
                    runner = core
                    core = candidate
                elif runner is None or candidate.time < runner.time:
                    runner = candidate
            if core is None:
                next_event = next_event_fn()
                if next_event is None:
                    raise DeadlockError(
                        f"all threads blocked in {self.name!r}",
                        self.blocked_tids(),
                    )
                if next_event > self.time:
                    self.time = next_event
                self._process_wakeups(self.time)
                continue
            core_time = core.time
            next_event = next_event_fn()
            if next_event is not None and next_event <= core_time:
                # A kernel event (arrival, sleep expiry) is due before this
                # op; deliver it first so a woken thread can claim an idle
                # core that is earlier in time.
                self._process_wakeups(core_time)
                continue
            ctx = contexts[core.tid]
            if may_fuse and 0 <= ctx.pc < table_len:
                site = fused_table[ctx.pc]
                if (
                    site is not None
                    # Fast reject: the exact window is at most the gap to
                    # the runner-up core plus the tie-break cycle, so a
                    # gap smaller than the block's minimum cost can never
                    # pass the full gate below.
                    and (
                        runner is None
                        or runner.time + 1 - core_time >= site.min_cost
                    )
                    and ctx.blocked is None
                    and ctx.pending_grant is None
                    and not ctx.pending_signals
                    and not self.injected_signals
                ):
                    max_n = max_ops - self.ops
                    if max_n >= site.length:
                        # Whole-block-or-nothing: every bound must leave
                        # room for the block's static minimum cost, else
                        # generic dispatch handles the op (measured
                        # lock-step windows are 2-3 ops wide; fusing
                        # prefixes that short costs more than it saves).
                        # Cheap bounds first; the core scan exits at the
                        # first core that makes the gate fail (the common
                        # lock-step case costs one comparison).
                        min_cost = site.min_cost
                        cost_max = 1 << 62
                        if next_event is not None:
                            cost_max = next_event - core_time
                        if ready and core.quantum_left < cost_max:
                            cost_max = core.quantum_left
                        if stop_after is not None:
                            room = stop_after - core_time
                            if room < cost_max:
                                cost_max = room
                        if cost_max >= min_cost:
                            # The fused run must stop while this core is
                            # still the earliest (global memory order is
                            # core-time order): strictly below every
                            # lower-cid busy core, at-or-below every
                            # higher-cid one.
                            for other in cores:
                                if other is core or other.tid is None:
                                    continue
                                room = other.time - core_time
                                if other.cid > core.cid:
                                    room += 1
                                if room < cost_max:
                                    if room < min_cost:
                                        cost_max = -1
                                        break
                                    cost_max = room
                        else:
                            cost_max = -1
                        handler = None
                        if cost_max >= min_cost:
                            # Count an entry toward compilation only when
                            # it would actually fuse: blocks whose windows
                            # never fit (lock-step phases) stay cold and
                            # never pay ``compile()``.
                            handler = site.handler
                            if handler is None:
                                site.count -= 1
                                if site.count <= 0:
                                    handler = site.compile()
                        if handler is not None:
                            n, cum, fault = handler(self, ctx, cost_max, max_n)
                            self.ops += n
                            self._sb_calls += 1
                            self._sb_ops += n
                            if n % site.span or fault is not None:
                                self._sb_exits += 1
                            core_time += cum
                            core.time = core_time
                            core.quantum_left -= cum
                            if core_time > self.time:
                                self.time = core_time
                            if fault is not None:
                                self._now = core_time
                                if not self.halt_on_fault:
                                    raise fault
                                self.fault = fault
                                return "faulted"
                            if core.quantum_left <= 0 and ready:
                                ctx.status = ThreadStatus.READY
                                ready.append((ctx.tid, core_time))
                                core.tid = None
                            if stop_after is not None:
                                if self.time >= stop_after:
                                    return "stopped"
                            elif stop_check is not None and stop_check(self):
                                return "stopped"
                            continue
            self._now = core_time
            try:
                pc = ctx.pc
                if (
                    ctx.blocked is None
                    and ctx.pending_grant is None
                    and not ctx.pending_signals
                    and not self.injected_signals
                    and 0 <= pc < decoded_len
                ):
                    # ``step``'s common case, without the call: nothing
                    # pending, so the op at ``pc`` simply executes.
                    pair = decoded[pc]
                    cost = pair[0](self, ctx, pair[1])
                else:
                    cost = step(self, ctx)
            except GuestFault as fault:
                if not self.halt_on_fault:
                    raise
                # The faulting op applied no effects; the whole program
                # stops at this op boundary (a crash ends the process).
                self.fault = fault
                return "faulted"
            ops = self.ops + 1
            self.ops = ops
            if ops > max_ops:
                raise SimulationError(
                    f"execution exceeded {max_ops} ops (infinite loop?)"
                )
            core_time += cost
            core.time = core_time
            core.quantum_left -= cost
            if core_time > self.time:
                self.time = core_time
            if ctx.status is not running:
                core.tid = None
            elif core.quantum_left <= 0 and ready:
                ctx.status = ThreadStatus.READY
                ready.append((ctx.tid, core_time))
                core.tid = None
            if stop_after is not None:
                if self.time >= stop_after:
                    return "stopped"
            elif stop_check is not None and stop_check(self):
                return "stopped"

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
