"""DoublePlay configuration.

``epoch_cycles`` is the thread-parallel budget per epoch: the recorder
checkpoints roughly every that many cycles. Shorter epochs commit the log
sooner and bound rollback work, but pay more checkpoint overhead and leave
the epoch-parallel pipeline draining more often; the epoch-length
sensitivity experiment (Fig 9) sweeps exactly this knob.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional

from repro.machine.config import MachineConfig


@dataclass(frozen=True)
class DoublePlayConfig:
    """Everything the recorder needs beyond the workload itself."""

    #: simulated machine; ``machine.cores`` is the worker-thread core count
    #: the application runs on (the paper's W)
    machine: MachineConfig = MachineConfig()
    #: thread-parallel cycles per epoch (see module docstring)
    epoch_cycles: int = 6000
    #: dedicated cores for epoch-parallel execution. With spare cores the
    #: paper gives the epoch-parallel run its own W cores; without, both
    #: executions share the application's cores.
    spare_cores: bool = True
    #: number of epoch-parallel executor slots (defaults to machine.cores)
    epoch_workers: int = 0
    #: enforce thread-parallel sync acquisition order during epoch-parallel
    #: execution (the paper's synchronisation hints)
    use_sync_hints: bool = True
    #: ramp epoch lengths up from short so the pipeline fills quickly
    adaptive_epochs: bool = False
    #: host worker *processes* for epoch execution (1 = serial, today's
    #: code path, zero extra dependencies). Orthogonal to
    #: ``epoch_workers``, which is simulated executor slots: ``host_jobs``
    #: changes only wall-clock, never a digest, makespan or recording.
    #: This and the other host-side fields below that default to None
    #: are resolved per run by :mod:`repro.options` (None = not set here).
    host_jobs: Optional[int] = None
    #: per-unit wall-clock timeout (seconds) for host worker processes —
    #: the hang-containment budget, not a simulated quantity; 0 disables
    #: hang detection. Irrelevant at ``host_jobs=1``.
    unit_timeout: Optional[float] = None
    #: durable sharded log directory (``repro.record.shards``). When set,
    #: committed epochs stream to disk as they commit — the recording on
    #: disk is {manifest, segments, blob store} and ``repro replay`` can
    #: start from any epoch's checkpoint. None = in-memory only.
    log_dir: Optional[str] = None
    #: flight-recorder mode: drop each epoch's logs (and skip the final
    #: syscall/signal log retention) once its shards are durable, keeping
    #: resident log memory bounded by the commit pipeline instead of the
    #: run length. Requires ``log_dir``; the returned recording can then
    #: only be replayed by loading it back from the durable log.
    log_spill: bool = False
    #: workload metadata recorded verbatim in the durable manifest so
    #: ``repro replay <dir>`` can rebuild the program (name/workers/...).
    log_meta: Optional[dict] = None
    #: rolling flight-recorder window: keep only the last K epochs
    #: durable (pre-window shard extents drop from the manifest, dead
    #: segments are deleted, the blob pack is compacted), bounding
    #: on-disk bytes by the window regardless of run length. Requires
    #: ``log_dir``. None = keep everything.
    flight_window: Optional[int] = None
    #: per-run fault-injection directives (:mod:`repro.host.faults`
    #: grammar). The service scopes injected faults to one tenant with
    #: this; ``""`` explicitly disables injection.
    host_faults: Optional[str] = None

    def workers(self) -> int:
        return self.machine.cores

    def executor_slots(self) -> int:
        return self.epoch_workers or self.machine.cores

    def inflight_bound(self) -> int:
        """Uncommitted epochs in flight (checkpoint memory pressure): the
        thread-parallel run stalls at this bound, which is where overhead
        grows with worker count. At least 2."""
        return self.executor_slots() + 1

    def replace(self, **overrides) -> "DoublePlayConfig":
        return dataclasses.replace(self, **overrides)
