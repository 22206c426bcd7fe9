"""Experiment drivers — one function per table/figure of the evaluation.

Each driver returns structured rows (lists of dicts) so tests can assert
on the numbers, and the ``benchmarks/`` wrappers print them with
:func:`repro.analysis.tables.render_table`. See DESIGN.md for the
experiment index and EXPERIMENTS.md for paper-vs-measured results.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Optional, Sequence

from repro.analysis.metrics import fmt_bytes, fmt_pct, geomean_overhead
from repro.baselines import (
    record_crew,
    record_uniprocessor,
    record_value_log,
    run_native,
)
from repro.core import DoublePlayConfig, DoublePlayRecorder, Replayer
from repro.core.recorder import RecordResult
from repro.exec.trace import CollectingObserver
from repro.machine.config import MachineConfig
from repro.memory.layout import page_of
from repro.race.detector import find_races
from repro.workloads import WORKLOADS, WorkloadInstance, build_workload, workload_names

#: default experiment parameters (kept small enough for CI, large enough
#: that per-epoch costs are realistic fractions of an epoch)
DEFAULT_SCALE = 24
DEFAULT_SEED = 1
DEFAULT_EPOCH_DIVISOR = 18
MIN_EPOCH_CYCLES = 600


def race_free_names() -> List[str]:
    return [name for name in workload_names() if not WORKLOADS[name].racy]


def racy_names() -> List[str]:
    return [name for name in workload_names() if WORKLOADS[name].racy]


def record_once(
    instance: WorkloadInstance,
    machine: MachineConfig,
    native_duration: int,
    spare_cores: bool = True,
    use_sync_hints: bool = True,
    epoch_divisor: int = DEFAULT_EPOCH_DIVISOR,
    adaptive: bool = False,
) -> RecordResult:
    """Record an instance with epochs sized relative to its native run."""
    epoch_cycles = max(native_duration // epoch_divisor, MIN_EPOCH_CYCLES)
    config = DoublePlayConfig(
        machine=machine,
        epoch_cycles=epoch_cycles,
        spare_cores=spare_cores,
        use_sync_hints=use_sync_hints,
        adaptive_epochs=adaptive,
    )
    return DoublePlayRecorder(instance.image, instance.setup, config).record()


# ----------------------------------------------------------------------
# Table 1 — workload characteristics
# ----------------------------------------------------------------------
def workload_characteristics(
    workers: int = 2, scale: int = 4, seed: int = DEFAULT_SEED
) -> List[Dict]:
    """Threads, instructions, syscalls, sync ops, shared pages, races."""
    rows = []
    for name in workload_names():
        instance = build_workload(name, workers=workers, scale=scale, seed=seed)
        observer = CollectingObserver()
        machine = MachineConfig(cores=workers)
        native = run_native(instance.image, instance.setup, machine, observers=[observer])
        page_users: Dict[int, set] = defaultdict(set)
        syscalls = 0
        sync_ops = 0
        for event in observer.events:
            if event.kind in ("read", "write"):
                page_users[page_of(event.addr)].add(event.tid)
            elif event.kind == "syscall":
                syscalls += 1
            elif event.kind in ("acquire", "release", "barrier"):
                sync_ops += 1
        shared_pages = sum(1 for users in page_users.values() if len(users) > 1)
        races = find_races(observer.events)
        rows.append(
            {
                "workload": name,
                "category": WORKLOADS[name].category,
                "threads": len(native.engine.contexts),
                "instructions": native.ops,
                "cycles": native.duration,
                "syscalls": syscalls,
                "sync_ops": sync_ops,
                "shared_pages": shared_pages,
                "races": len(races),
            }
        )
    return rows


# ----------------------------------------------------------------------
# Figs 5/6/7 — logging overhead
# ----------------------------------------------------------------------
def overhead_experiment(
    workers: int,
    spare_cores: bool = True,
    scale: int = DEFAULT_SCALE,
    seed: int = DEFAULT_SEED,
    names: Optional[Sequence[str]] = None,
    epoch_divisor: int = DEFAULT_EPOCH_DIVISOR,
) -> List[Dict]:
    """Per-workload DoublePlay logging overhead vs native."""
    rows = []
    for name in names or race_free_names():
        instance = build_workload(name, workers=workers, scale=scale, seed=seed)
        machine = MachineConfig(cores=workers)
        native = run_native(instance.image, instance.setup, machine)
        result = record_once(
            instance,
            machine,
            native.duration,
            spare_cores=spare_cores,
            epoch_divisor=epoch_divisor,
        )
        rows.append(
            {
                "workload": name,
                "native": native.duration,
                "makespan": result.makespan,
                "overhead": fmt_pct(result.overhead_vs(native.duration)),
                "overhead_raw": result.overhead_vs(native.duration),
                "epochs": result.recording.epoch_count(),
                "divergences": result.recording.divergences(),
            }
        )
    rows.append(
        {
            "workload": "GEOMEAN",
            "overhead": fmt_pct(geomean_overhead([r["overhead_raw"] for r in rows])),
            "overhead_raw": geomean_overhead([r["overhead_raw"] for r in rows]),
        }
    )
    return rows


# ----------------------------------------------------------------------
# Table 2 — log sizes
# ----------------------------------------------------------------------
def _durable_disk_bytes(recording) -> int:
    """Compressed segment bytes the durable sharded log writes for this
    recording (no fsync) — the on-disk counterpart of the
    in-memory event totals, so Table 2 covers the durable format too.
    Blob-store (checkpoint page) bytes are excluded: Table 2 compares
    event-log volume, and checkpoints are priced separately."""
    import tempfile

    from repro.record.shards import persist_recording
    from repro.record.storage import UNSYNCED

    with tempfile.TemporaryDirectory(prefix="repro-table2-") as tmp:
        totals = persist_recording(recording, tmp, storage=UNSYNCED)
    return totals["segment_bytes"]


def log_size_experiment(
    workers: int = 2,
    scale: int = DEFAULT_SCALE,
    seed: int = DEFAULT_SEED,
    names: Optional[Sequence[str]] = None,
) -> List[Dict]:
    """DoublePlay log composition, with CREW / value-log volume alongside."""
    rows = []
    for name in names or race_free_names():
        instance = build_workload(name, workers=workers, scale=scale, seed=seed)
        machine = MachineConfig(cores=workers)
        native = run_native(instance.image, instance.setup, machine)
        result = record_once(instance, machine, native.duration)
        recording = result.recording
        crew = record_crew(
            build_workload(name, workers=workers, scale=scale, seed=seed).image,
            instance.setup,
            machine,
        )
        value = record_value_log(
            build_workload(name, workers=workers, scale=scale, seed=seed).image,
            instance.setup,
            machine,
        )
        total = recording.total_log_bytes()
        disk = _durable_disk_bytes(recording)
        rows.append(
            {
                "workload": name,
                "schedule": fmt_bytes(recording.schedule_log_bytes()),
                "sync": fmt_bytes(recording.sync_log_bytes()),
                "syscall": fmt_bytes(recording.syscall_log_bytes()),
                "dp_total": fmt_bytes(total),
                "dp_total_raw": total,
                "disk_shards": fmt_bytes(disk),
                "disk_shards_raw": disk,
                "per_mcycle": fmt_bytes(int(total * 1_000_000 / max(native.duration, 1))),
                "crew": fmt_bytes(crew.log_bytes),
                "crew_raw": crew.log_bytes,
                "value_log": fmt_bytes(value.log_bytes),
                "value_log_raw": value.log_bytes,
            }
        )
    return rows


# ----------------------------------------------------------------------
# Fig 8 — replay speed
# ----------------------------------------------------------------------
def replay_speed_experiment(
    workers: int = 2,
    scale: int = DEFAULT_SCALE,
    seed: int = DEFAULT_SEED,
    names: Optional[Sequence[str]] = None,
) -> List[Dict]:
    """Sequential vs parallel epoch replay, normalised to the native run."""
    rows = []
    for name in names or race_free_names():
        instance = build_workload(name, workers=workers, scale=scale, seed=seed)
        machine = MachineConfig(cores=workers)
        native = run_native(instance.image, instance.setup, machine)
        result = record_once(instance, machine, native.duration)
        replayer = Replayer(instance.image, machine)
        sequential = replayer.replay_sequential(result.recording)
        parallel = replayer.replay_parallel(result.recording, workers=workers)
        rows.append(
            {
                "workload": name,
                "native": native.duration,
                "sequential": sequential.total_cycles,
                "seq_x": f"{sequential.total_cycles / native.duration:.2f}x",
                "seq_x_raw": sequential.total_cycles / native.duration,
                "parallel": parallel.makespan,
                "par_x": f"{parallel.makespan / native.duration:.2f}x",
                "par_x_raw": parallel.makespan / native.duration,
                "verified": sequential.verified and parallel.verified,
            }
        )
    return rows


# ----------------------------------------------------------------------
# Table 3 — divergence and forward recovery
# ----------------------------------------------------------------------
def divergence_experiment(
    workers: int = 2,
    scale: int = 8,
    seed: int = DEFAULT_SEED,
) -> List[Dict]:
    """Racy workloads with and without sync hints; recovery and fidelity."""
    rows = []
    for name in racy_names() + ["pbzip", "mysql"]:
        for hints in (True, False):
            instance = build_workload(name, workers=workers, scale=scale, seed=seed)
            machine = MachineConfig(cores=workers)
            native = run_native(instance.image, instance.setup, machine)
            result = record_once(
                instance, machine, native.duration, use_sync_hints=hints
            )
            replayer = Replayer(instance.image, machine)
            verified = replayer.replay_sequential(result.recording).verified
            rows.append(
                {
                    "workload": name,
                    "racy": WORKLOADS[name].racy,
                    "sync_hints": hints,
                    "epochs": result.recording.epoch_count(),
                    "divergences": result.recording.divergences(),
                    "recoveries": result.stats.get("recoveries", 0),
                    "overhead": fmt_pct(result.overhead_vs(native.duration)),
                    "overhead_raw": result.overhead_vs(native.duration),
                    "replay_ok": verified,
                }
            )
    return rows


# ----------------------------------------------------------------------
# Fig 9 — epoch-length sensitivity
# ----------------------------------------------------------------------
def epoch_length_experiment(
    name: str = "pbzip",
    workers: int = 2,
    scale: int = DEFAULT_SCALE,
    seed: int = DEFAULT_SEED,
    divisors: Sequence[int] = (4, 8, 14, 22, 36, 60),
) -> List[Dict]:
    """Overhead as a function of epoch length (short → long epochs)."""
    instance = build_workload(name, workers=workers, scale=scale, seed=seed)
    machine = MachineConfig(cores=workers)
    native = run_native(instance.image, instance.setup, machine)
    rows = []
    for divisor in divisors:
        fresh = build_workload(name, workers=workers, scale=scale, seed=seed)
        result = record_once(
            fresh, machine, native.duration, epoch_divisor=divisor
        )
        rows.append(
            {
                "workload": name,
                "epoch_cycles": max(native.duration // divisor, MIN_EPOCH_CYCLES),
                "epochs": result.recording.epoch_count(),
                "overhead": fmt_pct(result.overhead_vs(native.duration)),
                "overhead_raw": result.overhead_vs(native.duration),
                "log_bytes": result.recording.total_log_bytes(),
            }
        )
    return rows


# ----------------------------------------------------------------------
# Fig 10 — comparison with recording baselines
# ----------------------------------------------------------------------
def baseline_comparison(
    workers: int = 2,
    scale: int = DEFAULT_SCALE,
    seed: int = DEFAULT_SEED,
    names: Optional[Sequence[str]] = None,
) -> List[Dict]:
    """DoublePlay vs uniprocessor record vs CREW vs value logging."""
    rows = []
    for name in names or race_free_names():
        machine = MachineConfig(cores=workers)
        instance = build_workload(name, workers=workers, scale=scale, seed=seed)
        native = run_native(instance.image, instance.setup, machine)

        dp = record_once(
            build_workload(name, workers=workers, scale=scale, seed=seed),
            machine,
            native.duration,
        )
        uni = record_uniprocessor(
            build_workload(name, workers=workers, scale=scale, seed=seed).image,
            instance.setup,
            machine,
        )
        crew = record_crew(
            build_workload(name, workers=workers, scale=scale, seed=seed).image,
            instance.setup,
            machine,
        )
        value = record_value_log(
            build_workload(name, workers=workers, scale=scale, seed=seed).image,
            instance.setup,
            machine,
        )
        rows.append(
            {
                "workload": name,
                "doubleplay": fmt_pct(dp.overhead_vs(native.duration)),
                "doubleplay_raw": dp.overhead_vs(native.duration),
                "uniproc": fmt_pct(uni.duration / native.duration - 1),
                "uniproc_raw": uni.duration / native.duration - 1,
                "crew": fmt_pct(crew.duration / native.duration - 1),
                "crew_raw": crew.duration / native.duration - 1,
                "valuelog": fmt_pct(value.duration / native.duration - 1),
                "valuelog_raw": value.duration / native.duration - 1,
            }
        )
    return rows


# ----------------------------------------------------------------------
# Ablation A — sync hints on race-free workloads
# ----------------------------------------------------------------------
def ablation_sync_hints(
    workers: int = 2,
    scale: int = 8,
    seed: int = DEFAULT_SEED,
    names: Optional[Sequence[str]] = None,
) -> List[Dict]:
    """Divergence counts with hints on vs off, race-free suite."""
    rows = []
    for name in names or race_free_names():
        for hints in (True, False):
            instance = build_workload(name, workers=workers, scale=scale, seed=seed)
            machine = MachineConfig(cores=workers)
            native = run_native(instance.image, instance.setup, machine)
            result = record_once(
                instance, machine, native.duration, use_sync_hints=hints
            )
            rows.append(
                {
                    "workload": name,
                    "sync_hints": hints,
                    "divergences": result.recording.divergences(),
                    "overhead": fmt_pct(result.overhead_vs(native.duration)),
                    "overhead_raw": result.overhead_vs(native.duration),
                }
            )
    return rows


# ----------------------------------------------------------------------
# Ablation C — executor (spare core) count sweep
# ----------------------------------------------------------------------
def spare_core_sweep(
    name: str = "fft",
    workers: int = 4,
    scale: int = DEFAULT_SCALE,
    seed: int = DEFAULT_SEED,
    executor_counts: Sequence[int] = (1, 2, 3, 4, 6),
) -> List[Dict]:
    """Overhead as the epoch-executor pool shrinks below W.

    Each epoch's uniprocessor re-execution takes ~W× the epoch's wall
    time, so fewer than W executors cannot keep up: the recording falls
    behind and the in-flight bound throttles the application. This is the
    paper's "DoublePlay needs W spare cores" requirement, measured.
    """
    instance = build_workload(name, workers=workers, scale=scale, seed=seed)
    machine = MachineConfig(cores=workers)
    native = run_native(instance.image, instance.setup, machine)
    rows = []
    for executors in executor_counts:
        fresh = build_workload(name, workers=workers, scale=scale, seed=seed)
        config = DoublePlayConfig(
            machine=machine,
            epoch_cycles=max(native.duration // DEFAULT_EPOCH_DIVISOR, MIN_EPOCH_CYCLES),
            epoch_workers=executors,
        )
        result = DoublePlayRecorder(fresh.image, fresh.setup, config).record()
        rows.append(
            {
                "workload": name,
                "executors": executors,
                "workers": workers,
                "overhead": fmt_pct(result.overhead_vs(native.duration)),
                "overhead_raw": result.overhead_vs(native.duration),
                "throttle_stall": result.stats.get("makespan", 0)
                - result.stats.get("tp_finish", 0),
            }
        )
    return rows


# ----------------------------------------------------------------------
# Ablation B — checkpoint cost sweep
# ----------------------------------------------------------------------
def ablation_checkpoint_cost(
    name: str = "ocean",
    workers: int = 2,
    scale: int = DEFAULT_SCALE,
    seed: int = DEFAULT_SEED,
    cow_costs: Sequence[int] = (2, 10, 40, 120),
) -> List[Dict]:
    """Overhead as copy-on-write page cost scales (checkpoint pressure)."""
    rows = []
    for cow in cow_costs:
        machine = MachineConfig(cores=workers)
        machine = machine.replace(costs=machine.costs.replace(page_cow_copy=cow))
        instance = build_workload(name, workers=workers, scale=scale, seed=seed)
        native = run_native(instance.image, instance.setup, machine)
        result = record_once(instance, machine, native.duration)
        rows.append(
            {
                "workload": name,
                "page_cow_copy": cow,
                "overhead": fmt_pct(result.overhead_vs(native.duration)),
                "overhead_raw": result.overhead_vs(native.duration),
                "divergences": result.recording.divergences(),
            }
        )
    return rows
