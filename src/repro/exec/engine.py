"""Shared machinery of the execution engines.

:class:`BaseEngine` owns thread lifecycle (spawn / exit / join wakeups),
blocking and grants, tracing, and construction from either a fresh program
image or a checkpoint. Scheduling — which thread runs when, on which core,
and what the simulated time is — belongs to the subclasses in
``multicore.py`` and ``uniprocessor.py``.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import GuestFault, SimulationError
from repro.exec import superblock
from repro.exec.interpreter import decode_program
from repro.exec.services import LiveSyscalls
from repro.exec.trace import TraceEvent, TraceObserver
from repro.isa.context import BlockedReason, ThreadContext, ThreadStatus
from repro.isa.program import ProgramImage
from repro.machine.config import MachineConfig
from repro.memory.address_space import AddressSpace
from repro.memory.hashing import combine_hashes, contexts_digest
from repro.obs import metrics as obs_metrics
from repro.oskernel.sync import SyncManager

#: Maximum children one thread may spawn; child tids are the deterministic
#: function ``parent_tid * _TID_RADIX + spawn_count + 1``, so identical
#: executions assign identical tids regardless of cross-thread timing.
_TID_RADIX = 1024

#: tid of the initial thread.
MAIN_TID = 1


class BaseEngine:
    """State and services common to both engines."""

    def __init__(
        self,
        program: ProgramImage,
        config: MachineConfig,
        mem: AddressSpace,
        sync: SyncManager,
        services,
        name: str = "",
    ):
        self.program = program
        #: per-pc ``(handler, instr)`` pairs; the interpreter's fetch+decode
        self.decoded = decode_program(program)
        #: per-pc superblock table (or None when fusion is disabled); the
        #: engines enter a fused handler only at a block head with no
        #: pending event — see :mod:`repro.exec.superblock`
        self.fused = superblock.table_for(program, config.costs)
        self.config = config
        self.costs = config.costs
        self.mem = mem
        self.sync = sync
        self.services = services
        self.name = name or program.name
        self.contexts: Dict[int, ThreadContext] = {}
        #: count of contexts not yet EXITED, so ``all_exited`` is O(1) in
        #: the engines' per-op loop. Maintained at every point a context
        #: enters the table (boot, spawn, checkpoint adoption) and the one
        #: place a thread exits (``on_exit``).
        self.live_threads = 0
        self.observers: List[TraceObserver] = []
        #: optional hook charging extra cycles per memory access
        #: (tid, addr, is_write) → cycles; the CREW baseline installs one
        self.access_interceptor: Optional[Callable[[int, int, bool], int]] = None
        #: when set, every successful sync acquisition is appended as
        #: (kind, addr, tid) — the thread-parallel recorder's hint capture
        self.acquisition_log: Optional[List[Tuple[str, int, int]]] = None
        #: when set, every signal delivery is appended as
        #: (tid, retired-at-delivery, handler pc) — live executions record
        self.signal_log: Optional[List[Tuple[int, int, int]]] = None
        #: (tid, retired) → handler pc; injected executions deliver from this
        self.injected_signals: Dict[Tuple[int, int], int] = {}
        self.ops = 0
        self._now = 0
        #: superblock telemetry for the current run (fused handler calls,
        #: ops retired fused, early exits); flushed by _flush_exec_stats
        self._sb_calls = 0
        self._sb_ops = 0
        self._sb_exits = 0
        #: set when the guest faulted: the GuestFault that ended the run.
        #: Faults are clean op boundaries (the faulting op applied no
        #: effects), so a faulted execution checkpoints and replays up to
        #: the instant before the crash — the paper's debugging use case.
        self.fault: Optional[GuestFault] = None
        #: when True, a guest fault ends the run (status "faulted") instead
        #: of propagating — the recorder sets this to record crashes
        self.halt_on_fault = False
        #: tids restored from a checkpoint with an unconsumed sync grant.
        #: Their grant was made by the *previous* execution, so this run's
        #: acquisition log must credit the acquisition at consume time
        #: (see synthetic_acquisition) to stay self-consistent for replay.
        self.inherited_grants: set = set()
        #: does the installed oracle's order include inherited grants?
        #: True for replay oracles (the committed log credits inherited
        #: grants at consume time, so consuming advances correctly); False
        #: for thread-parallel hint *suffixes* (the inherited grant's event
        #: was recorded before the suffix begins — consuming there would
        #: wrongly eat the thread's next acquisition of the same object).
        self.oracle_includes_inherited = True
        self.sync.acquisition_listener = self._on_acquisition

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def boot(cls, program: ProgramImage, config: MachineConfig, services, **kwargs):
        """Fresh engine: image data segment loaded, main thread at entry."""
        mem = AddressSpace.from_data(program.data)
        engine = cls(program, config, mem, SyncManager(), services, **kwargs)
        main = ThreadContext(
            tid=MAIN_TID,
            pc=program.entry,
            registers=[0] * program.register_count,
        )
        engine.contexts[MAIN_TID] = main
        engine.live_threads += 1
        engine._on_ready(MAIN_TID, 0)
        return engine

    def _adopt_checkpoint_contexts(self, contexts: Dict[int, ThreadContext],
                                   wake_blocked_io: bool) -> None:
        """Install copies of checkpointed contexts and build the run queue.

        ``wake_blocked_io`` is the epoch-parallel/replay normalisation: a
        thread that was blocked in the kernel (syscall) or on a join is
        made schedulable again; the interpreter's resume path completes
        its op from the injected log / exit state. Sync-blocked threads
        stay blocked — the restored sync state holds them in wait queues
        and re-execution will grant them.
        """
        for tid in sorted(contexts):
            ctx = contexts[tid].copy()
            if ctx.status == ThreadStatus.RUNNING:
                ctx.status = ThreadStatus.READY
            if ctx.status == ThreadStatus.PARKED:
                ctx.status = ThreadStatus.READY
            if (
                wake_blocked_io
                and ctx.status == ThreadStatus.BLOCKED
                and ctx.blocked is not None
                and ctx.blocked.kind in ("syscall", "join", "atomic")
            ):
                ctx.status = ThreadStatus.READY
            self.contexts[tid] = ctx
            if ctx.status != ThreadStatus.EXITED:
                self.live_threads += 1
        for tid in sorted(self.contexts):
            ctx = self.contexts[tid]
            if ctx.pending_grant is not None and ctx.pending_grant[0] == "sync":
                self.inherited_grants.add(tid)
            if ctx.status == ThreadStatus.READY:
                self._on_ready(tid, 0)

    # ------------------------------------------------------------------
    # Interpreter services
    # ------------------------------------------------------------------
    @property
    def now(self) -> int:
        """Simulated time at which the current op executes."""
        return self._now

    def trace(self, kind: str, tid: int, addr: int) -> None:
        if self.observers:
            event = TraceEvent(kind=kind, tid=tid, addr=addr, time=self._now)
            for observer in self.observers:
                observer.on_event(event)

    def access_extra(self, tid: int, addr: int, is_write: bool) -> int:
        if self.access_interceptor is None:
            return 0
        return self.access_interceptor(tid, addr, is_write)

    def _on_acquisition(self, kind: str, addr: int, tid: int) -> None:
        if self.acquisition_log is not None:
            self.acquisition_log.append((kind, addr, tid))
        self.trace("acquire", tid, addr)

    def synthetic_acquisition(self, ctx: ThreadContext, instr) -> None:
        """Credit an inherited grant's acquisition at its consume point.

        The grant itself happened in the execution this engine was
        restored from, so the sync manager never fires the listener here;
        without this, the acquisition would be invisible to this run's
        log and a replay's oracle would hand the object to the wrong
        thread.
        """
        from repro.isa.instructions import Op  # local to avoid cycle at import

        if instr.op is Op.LOCK:
            kind, addr = "lock", ctx.registers[instr.a]
        elif instr.op is Op.SEMWAIT:
            kind, addr = "sem", ctx.registers[instr.a]
        elif instr.op is Op.CONDWAIT:
            kind, addr = "lock", ctx.registers[instr.b]
        else:
            return  # barriers have no grant order to credit
        if self.sync.oracle is not None and self.oracle_includes_inherited:
            self.sync.oracle.consume(addr, ctx.tid)
        if self.acquisition_log is not None:
            self.acquisition_log.append((kind, addr, ctx.tid))
        self.trace("acquire", ctx.tid, addr)

    def install_signal_records(self, records) -> None:
        """Configure log-driven signal delivery (epoch runs and replay)."""
        self.injected_signals = {
            (tid, retired): handler_pc for tid, retired, handler_pc in records
        }

    def next_signal(self, ctx: ThreadContext):
        """Handler pc of a signal to deliver before ``ctx``'s next op.

        Live executions drain the thread's pending queue and record the
        delivery point; injected executions look the delivery point up.
        Delivery and the handler's first instruction are one atomic step
        (see ``interpreter.step``), so checkpoints never capture a
        delivered-but-unexecuted handler.
        """
        if self.injected_signals:
            handler_pc = self.injected_signals.pop((ctx.tid, ctx.retired), None)
            if handler_pc is not None:
                obs_metrics.process_stats().add("exec.signals_delivered")
            return handler_pc
        if ctx.pending_signals:
            handler_pc = ctx.pending_signals.pop(0)
            if self.signal_log is not None:
                self.signal_log.append((ctx.tid, ctx.retired, handler_pc))
            obs_metrics.process_stats().add("exec.signals_delivered")
            return handler_pc
        return None

    def deliver_signal(self, tid: int, handler_pc: int) -> None:
        """Queue a fired timer's signal on its target thread (live only)."""
        self.contexts[tid].pending_signals.append(handler_pc)

    def services_log_wakeup(self, ctx: ThreadContext, kind, grant: Tuple) -> None:
        """Log a wakeup-completed syscall at retirement (live engines only)."""
        if isinstance(self.services, LiveSyscalls):
            self.services.record_wakeup_completion(ctx, kind, grant)

    # ------------------------------------------------------------------
    # Thread lifecycle
    # ------------------------------------------------------------------
    def spawn_thread(self, parent: ThreadContext, pc: int, args: Tuple[int, ...]) -> int:
        if parent.spawn_count >= _TID_RADIX - 1:
            raise GuestFault(
                f"thread {parent.tid} exceeded {_TID_RADIX - 1} children", parent.tid
            )
        child_tid = parent.tid * _TID_RADIX + parent.spawn_count + 1
        parent.spawn_count += 1
        if child_tid in self.contexts:
            raise SimulationError(f"tid collision for {child_tid}")
        registers = [0] * self.program.register_count
        registers[: len(args)] = [*args]
        child = ThreadContext(
            tid=child_tid, pc=pc, registers=registers, parent=parent.tid
        )
        self.contexts[child_tid] = child
        self.live_threads += 1
        # Rare event, so the counter costs nothing on the per-op path.
        obs_metrics.process_stats().add("exec.threads_spawned")
        self._check_spawn(child_tid)
        self._on_ready(child_tid, self._now)
        return child_tid

    def _check_spawn(self, child_tid: int) -> None:
        """Subclass hook; epoch executors verify the spawn was expected."""

    def block(self, ctx: ThreadContext, reason: BlockedReason) -> None:
        ctx.status = ThreadStatus.BLOCKED
        ctx.blocked = reason

    def wake_deferred(self, tid: int) -> None:
        """Make an oracle-deferred thread schedulable again.

        Unlike :meth:`grant`, the woken thread's op has *not* executed —
        its blocked reason stays as the re-dispatch marker and the op runs
        fresh when the thread is next scheduled.
        """
        ctx = self.contexts[tid]
        if ctx.status != ThreadStatus.BLOCKED:
            raise SimulationError(
                f"wake_deferred on thread {tid} in status {ctx.status.value}"
            )
        ctx.status = ThreadStatus.READY
        self._on_ready(tid, self._now)

    def grant(self, tid: int, grant: Tuple) -> None:
        """Complete a blocked thread's op; it retires when next scheduled."""
        ctx = self.contexts[tid]
        if ctx.status != ThreadStatus.BLOCKED:
            raise SimulationError(
                f"grant to thread {tid} in status {ctx.status.value}"
            )
        ctx.pending_grant = grant
        ctx.blocked = None
        ctx.status = ThreadStatus.READY
        self._on_ready(tid, self._now)

    def on_exit(self, ctx: ThreadContext) -> None:
        """Wake every thread joined on the exiting one, in tid order."""
        self.live_threads -= 1
        for tid in sorted(self.contexts):
            other = self.contexts[tid]
            if (
                other.status == ThreadStatus.BLOCKED
                and other.blocked is not None
                and other.blocked.kind == "join"
                and other.blocked.detail[0] == ctx.tid
            ):
                self.grant(tid, ("join",))

    def all_exited(self) -> bool:
        return self.live_threads == 0

    def blocked_tids(self) -> List[int]:
        return sorted(
            tid
            for tid, ctx in self.contexts.items()
            if ctx.status == ThreadStatus.BLOCKED
        )

    # ------------------------------------------------------------------
    # State digests
    # ------------------------------------------------------------------
    def contexts_digest(self) -> int:
        """Stable hash of all thread contexts' canonical state."""
        return contexts_digest(self.contexts)

    def state_digest(self) -> int:
        """Memory + contexts digest — the divergence-check currency."""
        return combine_hashes([self.mem.content_hash(), self.contexts_digest()])

    # ------------------------------------------------------------------
    # Scheduling hooks (subclass responsibility)
    # ------------------------------------------------------------------
    def _on_ready(self, tid: int, time: int) -> None:  # pragma: no cover
        raise NotImplementedError

    def _guard_ops(self) -> None:
        self.ops += 1
        if self.ops > self.config.max_ops:
            raise SimulationError(
                f"execution exceeded {self.config.max_ops} ops (infinite loop?)"
            )

    def _flush_exec_stats(self, ops_delta: int) -> None:
        """Publish per-run execution counters to the process stats.

        Called once per engine run (from a ``finally``, so divergences and
        faults still report); the superblock counters are accumulated by
        the subclasses' fused-dispatch paths.
        """
        if not ops_delta and not self._sb_calls:
            return
        stats = obs_metrics.process_stats()
        if ops_delta:
            stats.add("exec.ops_executed", ops_delta)
        if self._sb_calls:
            stats.add("superblock.fused_calls", self._sb_calls)
            stats.add("superblock.fused_ops", self._sb_ops)
            stats.add("superblock.fallback_exits", self._sb_exits)
            self._sb_calls = self._sb_ops = self._sb_exits = 0
