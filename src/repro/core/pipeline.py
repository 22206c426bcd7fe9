"""Timing composition of the two executions.

The recorder establishes *what* happens (logically deterministic); this
module establishes *when*, on a machine with a fixed number of cores:

* **Spare cores** (:func:`schedule_spare_cores`): the thread-parallel
  execution owns the application's W cores and epoch executors own their
  own pool. Epoch k starts when its checkpoint exists and a pool worker is
  free; it cannot commit before its end boundary is known (checkpoint
  k+1); the thread-parallel run is throttled when more than
  ``max_inflight`` epochs are uncommitted (checkpoint memory bound), which
  is where DoublePlay's residual overhead comes from.
* **No spare cores** (:func:`schedule_shared_cores`): both executions
  share the W cores. We use a fluid (processor-sharing) model: at any
  instant every active entity gets ``min(1, cores / total-demand)`` of a
  core; the thread-parallel job demands W, each epoch executor demands 1.
  This is a documented approximation — exact enough for the paper's
  shape (overhead around 2× without spare cores) without simulating the
  two executions' instruction streams interleaved on shared hardware.

Times here are the *recording* timeline (when log entries commit). Guest-
visible clocks always follow the thread-parallel (or recovery) execution —
feedback of throttling stalls into guest clocks is a second-order effect
this model deliberately omits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence


@dataclass(frozen=True)
class EpochTiming:
    """Inputs per epoch: availability and cost."""

    index: int
    #: app-timeline instant the start checkpoint exists
    ready_time: int
    #: app-timeline instant the end boundary (next checkpoint) exists
    boundary_time: int
    #: epoch-parallel execution cycles (including the divergence check)
    duration: int


@dataclass(frozen=True)
class EpochCommit:
    """Outputs per epoch: when it ran and when its log committed."""

    index: int
    start: int
    finish: int


@dataclass
class PipelineResult:
    commits: List[EpochCommit]
    #: when the whole recording is durable
    makespan: int
    #: thread-parallel stall caused by the in-flight bound
    throttle_stall: int


def schedule_spare_cores(
    epochs: Sequence[EpochTiming],
    workers: int,
    dispatch_cost: int,
    max_inflight: int = 0,
    worker_free: Sequence[int] = (),
    segment_start: int = 0,
) -> PipelineResult:
    """Pipeline epochs onto a dedicated executor pool.

    ``worker_free`` carries pool availability across recovery segments.
    """
    if workers <= 0:
        raise ValueError(f"need at least one epoch worker, got {workers}")
    free = list(worker_free) if worker_free else [segment_start] * workers
    if len(free) != workers:
        raise ValueError("worker_free length must equal workers")
    inflight_bound = max_inflight or 2 * workers
    commits: List[EpochCommit] = []
    stall = 0
    for position, epoch in enumerate(epochs):
        ready = epoch.ready_time + stall
        # Throttle: checkpoint k is only taken once epoch k - bound
        # committed (bounded uncommitted state).
        gate_index = position - inflight_bound
        if gate_index >= 0:
            gate = commits[gate_index].finish
            if gate > ready:
                stall += gate - ready
                ready = gate
        slot = min(range(workers), key=lambda w: (free[w], w))
        start = max(ready + dispatch_cost, free[slot])
        finish = max(start + epoch.duration, epoch.boundary_time + stall)
        free[slot] = finish
        commits.append(EpochCommit(index=epoch.index, start=start, finish=finish))
    makespan = max((c.finish for c in commits), default=segment_start)
    return PipelineResult(commits=commits, makespan=makespan, throttle_stall=stall)


def schedule_shared_cores(
    epochs: Sequence[EpochTiming],
    tp_span: int,
    cores: int,
    dispatch_cost: int,
    segment_start: int = 0,
) -> PipelineResult:
    """Fluid-share both executions over one core pool.

    ``tp_span`` is the thread-parallel segment's solo duration; epoch
    ``ready_time``/``boundary_time`` are solo-timeline instants, reached
    when the (dilated) thread-parallel job has done that much of its work.
    """
    if cores <= 0:
        raise ValueError(f"need at least one core, got {cores}")
    now = float(segment_start)
    tp_progress = float(segment_start)
    tp_weight = cores  # the parallel app can use the whole machine
    pending = sorted(epochs, key=lambda e: e.index)
    active: List[List] = []  # [remaining, EpochTiming, start]
    commits: List[EpochCommit] = []
    tp_active = tp_span > 0

    def demand() -> float:
        return (tp_weight if tp_active else 0) + len(active)

    while tp_active or active or pending:
        d = demand()
        if d == 0:
            # Only pending epochs left but the thread-parallel job is done:
            # every checkpoint exists; admit all.
            for epoch in pending:
                active.append([float(epoch.duration + dispatch_cost), epoch, now])
            pending = []
            continue
        share = min(1.0, cores / d)
        tp_rate = share if tp_active else 0.0
        # Next event: an executor finishing, the thread-parallel job
        # finishing, or it reaching the next pending checkpoint.
        horizons = []
        for entry in active:
            horizons.append(entry[0] / share)
        if tp_active:
            horizons.append((segment_start + tp_span - tp_progress) / tp_rate)
            if pending:
                target = pending[0].ready_time
                if target > tp_progress:
                    horizons.append((target - tp_progress) / tp_rate)
                else:
                    horizons.append(0.0)
        dt = min(horizons)
        now += dt
        if tp_active:
            tp_progress += dt * tp_rate
        for entry in active:
            entry[0] -= dt * share
        finished = [entry for entry in active if entry[0] <= 1e-9]
        for entry in finished:
            active.remove(entry)
            epoch = entry[1]
            finish = max(now, _boundary_instant(epoch, tp_progress, now))
            commits.append(
                EpochCommit(index=epoch.index, start=int(entry[2]), finish=int(round(finish)))
            )
        while pending and tp_progress + 1e-9 >= pending[0].ready_time:
            epoch = pending.pop(0)
            active.append([float(epoch.duration + dispatch_cost), epoch, now])
        if tp_active and tp_progress + 1e-9 >= segment_start + tp_span:
            tp_active = False
    commits.sort(key=lambda c: c.index)
    makespan = max((c.finish for c in commits), default=segment_start)
    return PipelineResult(commits=commits, makespan=int(makespan), throttle_stall=0)


def _boundary_instant(epoch: EpochTiming, tp_progress: float, now: float) -> float:
    """When the epoch's end boundary became known (shared-core model).

    If the thread-parallel job already passed the boundary, it is known by
    ``now``; otherwise the executor would have had to wait — but an
    executor only finishes after re-running the whole epoch, by which time
    the slower-by-sharing thread-parallel job has at most the same work
    left, so in practice ``now`` dominates. Kept for safety.
    """
    if tp_progress >= epoch.boundary_time:
        return now
    return now + (epoch.boundary_time - tp_progress)
