"""Forward recovery.

When an epoch-parallel execution diverges (a data race resolved differently
than in the thread-parallel run), DoublePlay does not retry until the runs
agree — it makes the uniprocessor execution *authoritative*. We re-execute
the offending epoch as a **live** uniprocessor run from its start
checkpoint: guest state, synchronisation state and kernel state are all
restored, system calls execute for real (and are logged), and the captured
timeslice schedule becomes the committed log for the epoch. The run cannot
diverge from anything because it is no longer following anyone.

The thread-parallel execution and every later in-flight epoch are
discarded; recording resumes from the recovered state. Each recovery
commits a full epoch of progress, so recording always terminates.

Forward recovery handles *guest* divergence — a data race resolving
differently across the two executions. *Host* failures (a worker process
crashing or hanging while it re-executes an epoch) are a different layer
with the same disposability insight: the epoch attempt is discarded and
re-run, by :class:`repro.host.executor.HostExecutor`'s retry-then-serial
containment. The two compose — a recovered epoch is always executed on
the coordinator (it needs a live kernel), so host fault containment can
never interleave with, or corrupt, a forward recovery.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.checkpoint.checkpoint import Checkpoint
from repro.checkpoint.manager import CheckpointManager
from repro.errors import SimulationError
from repro.exec.services import LiveSyscalls
from repro.exec.uniprocessor import UniprocessorEngine
from repro.isa.program import ProgramImage
from repro.machine.config import MachineConfig
from repro.oskernel.kernel import Kernel, KernelSetup
from repro.oskernel.syscalls import SyscallRecord
from repro.record.schedule_log import ScheduleLog
from repro.record.sync_log import SyncOrderLog


@dataclass
class RecoveryResult:
    """Committed outcome of a forward-recovery re-execution."""

    schedule: ScheduleLog
    #: cycles of re-execution (app timeline), excluding restore costs
    duration: int
    committed: Checkpoint
    end_digest: int
    #: True when the program ran to completion during recovery
    finished: bool
    #: grant order the re-execution used (replay's oracle for this epoch)
    committed_sync: "SyncOrderLog" = None


def recover_epoch(
    program: ProgramImage,
    machine: MachineConfig,
    setup: KernelSetup,
    start: Checkpoint,
    epoch_budget_cycles: int,
    syscall_log: List[SyscallRecord],
    signal_log: Optional[List] = None,
    name: str = "",
) -> RecoveryResult:
    """Re-execute one epoch live on one CPU; its result is the truth.

    ``epoch_budget_cycles`` bounds the re-execution (one serial epoch);
    the run also ends early if the program completes. New syscall
    completions are appended to ``syscall_log`` — the caller must already
    have pruned the abandoned thread-parallel records past ``start``.
    """
    if start.kernel_state is None:
        raise SimulationError(
            "forward recovery needs a checkpoint with kernel state"
        )
    kernel = Kernel(setup, program.heap_base)
    kernel.restore(start.kernel_state)
    services = LiveSyscalls(kernel, syscall_log)
    engine = UniprocessorEngine.from_checkpoint(
        program,
        machine,
        services,
        memory_snapshot=start.memory,
        contexts=start.copy_contexts(),
        sync_state=start.sync_state,
        targets=None,
        wake_blocked_io=False,
        start_time=start.time,
        name=name or f"{program.name}/recovery@{start.index}",
    )

    committed_events: List = []
    engine.acquisition_log = committed_events
    engine.halt_on_fault = True  # a crash commits the pre-crash state
    if signal_log is not None:
        engine.signal_log = signal_log

    outcome = engine.run(stop_after=start.time + epoch_budget_cycles)
    duration = engine.time - start.time
    manager = CheckpointManager()
    committed = manager.take(engine, index=start.index + 1)
    return RecoveryResult(
        schedule=outcome.schedule,
        duration=duration,
        committed=committed,
        end_digest=committed.digest(),
        finished=engine.all_exited() or outcome.status == "faulted",
        committed_sync=SyncOrderLog(tuple(committed_events)),
    )
