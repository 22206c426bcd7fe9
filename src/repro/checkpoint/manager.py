"""Checkpoint creation with cost accounting.

Taking a checkpoint quiesces the engine (all cores synchronise to the
latest core clock — the brief pause the paper describes), pins the current
pages into a snapshot, copies thread contexts, and charges the engine
``checkpoint_base + checkpoint_page × pages`` cycles. The per-epoch *real*
cost of checkpointing — copy-on-write page copies as execution dirties
shared pages — is charged where it occurs, on the writing instruction.
"""

from __future__ import annotations

from typing import List

from repro.checkpoint.checkpoint import Checkpoint
from repro.exec.multicore import MulticoreEngine
from repro.exec.services import LiveSyscalls


def checkpoint_cost(costs, snapshot) -> int:
    """Cycles a checkpoint of ``snapshot`` charges the cores that take it."""
    return costs.checkpoint_base + costs.checkpoint_page * snapshot.page_count()


class CheckpointManager:
    """Takes the checkpoints of one recorded execution.

    ``taken`` tracks the checkpoints whose fate is still open — taken by
    the thread-parallel run, their epochs not yet committed. An epoch
    that commits hands its end checkpoint to the recording
    (:meth:`commit`); a divergence squashes everything past the
    divergent epoch's start (:meth:`discard_after`). Either way the
    list is bounded by the segment in flight, never by the run.
    """

    def __init__(self) -> None:
        self.taken: List[Checkpoint] = []
        #: checkpoint cycles of the committed chain alone: what a
        #: squashed thread-parallel future took is not part of the run
        self.committed_cost = 0

    def take(self, engine: MulticoreEngine, index: int) -> Checkpoint:
        """Checkpoint a (quiesced) multicore engine; charges its cores."""
        engine.quiesce()
        dirty = len(engine.mem.dirty)
        snapshot = engine.mem.snapshot()
        engine.advance_all(checkpoint_cost(engine.costs, snapshot))
        return self._capture(engine, index, snapshot, dirty)

    def initial(self, engine: MulticoreEngine) -> Checkpoint:
        """Checkpoint index 0, before any execution (no quiesce cost)."""
        return self._capture(engine, 0, engine.mem.snapshot(), 0)

    def _capture(self, engine, index: int, snapshot, dirty_pages: int) -> Checkpoint:
        """Capture the engine's state around ``snapshot`` and track it."""
        kernel_state = None
        if isinstance(engine.services, LiveSyscalls):
            kernel_state = engine.services.kernel.snapshot()
        checkpoint = Checkpoint(
            index=index,
            time=engine.time,
            memory=snapshot,
            contexts={tid: ctx.copy() for tid, ctx in engine.contexts.items()},
            sync_state=engine.sync.snapshot(),
            kernel_state=kernel_state,
            dirty_pages=dirty_pages,
        )
        self.taken.append(checkpoint)
        return checkpoint

    def commit(self, checkpoint: Checkpoint, costs) -> None:
        """The epoch ending at ``checkpoint`` committed.

        Its cost joins the run's; it and everything before it belong to
        the recording now and are no longer tracked. ``checkpoint`` need
        not be one of ours — forward recovery takes its own.
        """
        self.committed_cost += checkpoint_cost(costs, checkpoint.memory)
        while self.taken and self.taken[0].index <= checkpoint.index:
            self.taken.pop(0)

    def discard_after(self, index: int) -> None:
        """Release checkpoints with index > ``index`` (forward recovery)."""
        kept: List[Checkpoint] = []
        for checkpoint in self.taken:
            if checkpoint.index > index:
                checkpoint.release()
            else:
                kept.append(checkpoint)
        self.taken = kept
