"""Per-layer numbers for the traced pass.

Three sources, all outside ``src/``:

* the phases and read-side walls of the traced iterations;
* paired ``record()`` rounds on one target (reference / no ``log_dir`` /
  product tracer on), which also yield the reference recording whose
  already-exposed counters (``RecordResult.stats/.host/.metrics``) are
  harvested;
* timed direct calls into each layer's public functions on that
  reference recording and its durable log.

A metric that does not apply to a workload (service rows on a solo
workload, recovery wall on a race-free one) is reported as 0 on the
JSON line, because the driver wants every name on every workload; the
printed table shows it as ``n/a``.
"""

from __future__ import annotations

import os
import pickle
import shutil
import tempfile
from statistics import median
from time import perf_counter
from typing import Dict, List

from repro.baselines import run_native
from repro.core import Replayer
from repro.core.epoch_runner import run_epoch
from repro.host.pool import shutdown_shared_pool
from repro.host.wire import replay_units_for_recording
from repro.obs import spans as obs_spans
from repro.record.recording import Recording
from repro.record.shards import MANIFEST_NAME, ShardedLogReader, persist_recording

from e2e_scenario import JOBS, MACHINE, Sample, Target, record, tree_bytes
from e2e_spans import Spans

#: paired-record variants, rotated each round so drift hits all equally
VARIANTS = ("reference", "no_log", "obs_trace")

#: the service rows: measured on the serve workload, 0 elsewhere
SERVICE = (
    "service.sessions_per_s", "service.session_latency_p50_s",
    "service.session_latency_p95_s",
    "service.coordinator.admission_wait_p50_s",
    "service.coordinator.admission_wait_p95_s",
    "service.coordinator.body_record_p50_s",
    "service.coordinator.body_replay_p50_s",
    "service.fleet.units", "service.fleet.unit_latency_p50_s",
    "service.fleet.unit_latency_p99_s", "service.fleet.queue_high_water",
    "service.fleet.backpressure_wait_s", "service.fleet.fair_share_deficits",
    "service.fleet.pool_rebuilds", "service.fleet.cross_session_bytes_saved",
    "service.fleet.dedup_ratio",
)


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (0 for an empty sample)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(round(q * (len(ordered) - 1))))]


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def paired_records(target: Target, spans: Spans, work_dir: str, deadline: float):
    """Record ``target`` in each variant, 2 to 5 rounds as time allows.

    Returns the per-variant walls and the last reference run as
    ``(RecordResult, log_dir)``; the caller removes ``log_dir``.
    """
    walls: Dict[str, List[float]] = {variant: [] for variant in VARIANTS}
    kept = None
    rounds = 0
    while rounds < 2 or (rounds < 5 and perf_counter() < deadline):
        shift = rounds % len(VARIANTS)
        for variant in VARIANTS[shift:] + VARIANTS[:shift]:
            config = {"host_jobs": JOBS}
            if variant != "no_log":
                config["log_dir"] = tempfile.mkdtemp(prefix="probe-", dir=work_dir)
            if variant == "obs_trace":
                obs_spans.start_trace()
            try:
                with spans.span("core.recorder.record", variant=variant) as rec:
                    result = record(target, **config)
            finally:
                if variant == "obs_trace":
                    obs_spans.stop_trace()
            walls[variant].append(rec.wall)
            if variant == "reference":
                if kept is not None:
                    shutil.rmtree(kept[1], ignore_errors=True)
                kept = (result, config["log_dir"])
            elif "log_dir" in config:
                shutil.rmtree(config["log_dir"], ignore_errors=True)
        rounds += 1
    return walls, kept


def probe_target(target: Target, spans: Spans, work_dir: str, deadline: float) -> Dict[str, float]:
    """Every solo-layer metric, measured on ``target``."""
    walls, (result, log_dir) = paired_records(target, spans, work_dir, deadline)
    try:
        return _harvest(target, spans, work_dir, walls, result, log_dir)
    finally:
        shutil.rmtree(log_dir, ignore_errors=True)


def _harvest(target, spans, work_dir, walls, result, log_dir) -> Dict[str, float]:
    out: Dict[str, float] = {}
    # Fastest of each variant: interference only adds time (README, Noise).
    record_s = min(walls["reference"])
    #: wall of the reference run whose counters are harvested (the last)
    kept_record_s = walls["reference"][-1]
    recording = result.recording
    epochs = recording.epochs
    stats, host, metrics = result.stats, result.host, result.metrics
    kops = target.ops / 1000.0
    image = target.instance.image
    replayer = Replayer(image, MACHINE)

    # -- exec ------------------------------------------------------------
    with spans.span("exec.run_native") as native:
        run_native(image, target.instance.setup, MACHINE)
    with spans.span("core.replayer.replay_sequential", in_memory=True) as uni:
        seq_result = replayer.replay_sequential(recording)
    executed = metrics.get("exec", "ops_executed")
    out["exec.native_mips"] = target.ops / native.wall / 1e6
    out["exec.uni_mips"] = target.ops / uni.wall / 1e6
    out["exec.ops_executed"] = executed
    out["exec.amplification"] = executed / target.ops
    out["exec.superblock_fused_share"] = ratio(
        metrics.get("superblock", "fused_ops"), executed
    )
    out["exec.superblock_fallback_exits"] = metrics.get("superblock", "fallback_exits")

    # -- oskernel (from the recording's logs) ----------------------------
    out["oskernel.syscalls_per_kop"] = len(recording.syscall_records) / kops
    out["oskernel.sync_events_per_kop"] = (
        sum(len(epoch.sync_log.events) for epoch in epochs) / kops
    )

    # -- checkpoint / memory ---------------------------------------------
    out["checkpoint.count"] = len(epochs) + 1
    out["checkpoint.dirty_pages_per_epoch"] = ratio(
        sum(epoch.start_checkpoint.dirty_pages for epoch in epochs[1:]),
        len(epochs) - 1,
    )
    out["checkpoint.sim_cost_cycles"] = stats["checkpoint_cost"]
    # The jobs=1 canonical never crossed the wire, so its pages encode
    # here for the first time (the reference run's are already cached).
    canonical = target.canonical.recording.epochs
    with spans.span("checkpoint.wire_delta", checkpoints=len(canonical) - 1) as delta:
        for previous, epoch in zip(canonical, canonical[1:]):
            epoch.start_checkpoint.wire_delta(previous.start_checkpoint)
    out["checkpoint.wire_delta_s"] = delta.wall
    hydrated = ShardedLogReader(log_dir).load_recording(materialize=True)
    with spans.span("checkpoint.digest", cold=True) as digest:
        for epoch in hydrated.epochs:
            epoch.start_checkpoint.digest()
    out["checkpoint.cold_digest_s"] = digest.wall

    # -- core.epoch_runner -----------------------------------------------
    epoch_walls = []
    for epoch, following in zip(epochs, epochs[1:]):
        with spans.span("core.epoch_runner.run_epoch", epoch=epoch.index) as ran:
            run_epoch(
                image, MACHINE, epoch.index,
                epoch.start_checkpoint, following.start_checkpoint,
                recording.syscall_records, epoch.sync_log, True,
                signal_records=recording.signal_records,
            )
        epoch_walls.append(ran.wall)
    out["core.epoch_runner.epoch_s_p50"] = percentile(epoch_walls, 0.50)
    out["core.epoch_runner.epoch_s_p90"] = percentile(epoch_walls, 0.90)

    # -- core.replayer ---------------------------------------------------
    with spans.span("core.replayer.replay_parallel", in_memory=True) as par:
        par_result = replayer.replay_parallel(recording, jobs=JOBS)
    out["core.replayer.par_speedup"] = uni.wall / par.wall
    out["core.replayer.verify_failures"] = (
        len(seq_result.details) + len(par_result.details)
    )

    # -- core.pipeline ---------------------------------------------------
    out["core.pipeline.sim_makespan_cycles"] = result.makespan
    out["core.pipeline.sim_tp_finish_cycles"] = result.tp_finish

    # -- host.pool -------------------------------------------------------
    unit_wall = host["unit_wall"]
    faults = host["faults"]
    out["host.pool.units"] = host["units"]
    out["host.pool.unit_wall_p50_s"] = percentile(unit_wall, 0.50)
    out["host.pool.unit_wall_p90_s"] = percentile(unit_wall, 0.90)
    out["host.pool.unit_cpu_s"] = sum(host["unit_cpu"])
    out["host.pool.worker_busy_share"] = sum(unit_wall) / (JOBS * kept_record_s)
    out["host.pool.dispatch_wall_s"] = host["dispatch_wall"]
    out["host.pool.retries"] = faults["retries"]
    out["host.pool.serial_fallbacks"] = faults["serial_fallbacks"]

    # -- host.wire: skeletons (what ships is read from cold workers, below) --
    with spans.span("host.wire.replay_units_for_recording") as build_units:
        batch = replay_units_for_recording(recording)
    out["host.wire.build_units_s"] = build_units.wall
    out["host.wire.skeleton_pickle_bytes"] = len(pickle.dumps(batch.units))

    # -- record.shards / record.segment ----------------------------------
    persist_dir = tempfile.mkdtemp(prefix="probe-", dir=work_dir)
    try:
        with spans.span("record.shards.persist_recording") as persist:
            persist_recording(recording, persist_dir)
        disk_bytes = tree_bytes(persist_dir)
    finally:
        shutil.rmtree(persist_dir, ignore_errors=True)
    out["record.shards.persist_s"] = persist.wall
    out["record.shards.persist_mb_per_s"] = disk_bytes / persist.wall / 1e6
    out["record.shards.sink_overhead_pct"] = 100.0 * (
        record_s / min(walls["no_log"]) - 1.0
    )
    out["record.shards.segment_bytes"] = metrics.get("durable", "segment_bytes")
    out["record.shards.blob_bytes"] = metrics.get("durable", "blob_bytes")
    out["record.shards.manifest_bytes"] = os.path.getsize(
        os.path.join(log_dir, MANIFEST_NAME)
    )
    out["record.shards.fsyncs"] = metrics.get("durable", "fsyncs")
    out["record.shards.group_commits"] = metrics.get("durable", "group_commits")
    out["record.shards.buffered_peak_bytes"] = metrics.get("durable", "buffered_peak")
    out["record.shards.write_amplification"] = (
        tree_bytes(log_dir) / recording.total_log_bytes()
    )

    # -- record.recording ------------------------------------------------
    breakdown = recording.log_breakdown()
    out["record.recording.log_bytes_schedule"] = breakdown["schedule_bytes"]
    out["record.recording.log_bytes_sync"] = breakdown["sync_bytes"]
    out["record.recording.log_bytes_syscall"] = breakdown["syscall_bytes"]
    with spans.span("record.recording.to_plain") as to_plain:
        plain = recording.to_plain()
    with spans.span("record.recording.from_plain") as from_plain:
        Recording.from_plain(plain, recording.initial_checkpoint)
    out["record.recording.to_plain_s"] = to_plain.wall
    out["record.recording.from_plain_s"] = from_plain.wall

    # -- core.recorder / core.recovery -----------------------------------
    speculation = host["speculation"]
    commit_wall = metrics.histogram("commit_wall_s")
    out["core.recorder.epochs"] = stats["epochs"]
    out["core.recorder.divergences"] = stats["divergences"]
    out["core.recorder.recoveries"] = stats["recoveries"]
    out["core.recorder.attempt_waste_cycles"] = stats["attempt_waste"]
    out["core.recorder.spec_dispatched"] = speculation["dispatched"]
    out["core.recorder.spec_discarded"] = (
        speculation["dispatched"] - speculation["accepted"]
    )
    out["core.recorder.spec_useful_ratio"] = ratio(
        speculation["accepted"], speculation["dispatched"]
    )
    out["core.recorder.commit_wall_p50_s"] = commit_wall.quantile(0.50)
    out["core.recorder.commit_wall_p90_s"] = commit_wall.quantile(0.90)
    out["core.recorder.overlap_ratio"] = sum(unit_wall) / kept_record_s
    # What the coordinator-side probes explain of one record(): the
    # thread-parallel run (native), checkpoint encoding, dispatch and the
    # durable sink. The rest — waiting on workers, validation, commit,
    # contention — has no probe until spans exist inside the program.
    explained = (
        native.wall + delta.wall + host["dispatch_wall"] + persist.wall
    )
    out["core.recorder.unattributed_share"] = 1.0 - explained / record_s
    out["core.recovery.wall_per_recovery_s"] = ratio(record_s, stats["recoveries"])

    # -- obs -------------------------------------------------------------
    out["obs.trace_enabled_overhead_pct"] = 100.0 * (
        min(walls["obs_trace"]) / record_s - 1.0
    )

    # -- host.wire / host.blobs on cold workers --------------------------
    # Warm workers hold every page of a program they have recorded before,
    # so a timed iteration ships nothing; pages travel only when the
    # workers are cold, as in set-up's warm-up. One such record, last,
    # because it restarts the pool.
    shutdown_shared_pool()
    with spans.span("core.recorder.record", cold_workers=True):
        cold = record(target, host_jobs=JOBS).host
    wire = cold["wire"]
    out["host.wire.bytes_shipped_per_unit"] = ratio(wire["bytes_shipped"], cold["units"])
    out["host.wire.blobs_sent"] = wire["blobs_sent"]
    out["host.wire.blob_hit_ratio"] = ratio(
        wire["blob_cache_hits"], wire["blob_cache_hits"] + wire["blob_cache_misses"]
    )
    out["host.wire.blob_resends"] = wire["blob_resends"]
    return out


def service_metrics(samples: List[Sample], cold_report) -> Dict[str, float]:
    """The service rows, from the serve iterations' reports.

    Cross-session dedup is read from ``cold_report``, set-up's warm-up
    burst: the only one whose workers do not hold the tenants' pages yet.
    """
    reports = [sample.report for sample in samples]
    results = [result for report in reports for result in report.results]
    latency = [r.admission_wait + r.duration for r in results]
    waits = [r.admission_wait for r in results]
    fleet = reports[-1].fleet
    wire = cold_report.fleet["wire"]
    return {
        "service.sessions_per_s": median(
            len(report.results) / report.elapsed for report in reports
        ),
        "service.session_latency_p50_s": percentile(latency, 0.50),
        "service.session_latency_p95_s": percentile(latency, 0.95),
        "service.coordinator.admission_wait_p50_s": percentile(waits, 0.50),
        "service.coordinator.admission_wait_p95_s": percentile(waits, 0.95),
        "service.coordinator.body_record_p50_s": percentile(
            [r.duration for r in results if r.kind == "record"], 0.50
        ),
        "service.coordinator.body_replay_p50_s": percentile(
            [r.duration for r in results if r.kind == "replay"], 0.50
        ),
        "service.fleet.units": fleet["units"],
        "service.fleet.unit_latency_p50_s": fleet["unit_latency_p50"],
        "service.fleet.unit_latency_p99_s": fleet["unit_latency_p99"],
        "service.fleet.queue_high_water": fleet["queue_high_water"],
        "service.fleet.backpressure_wait_s": fleet["backpressure_wait"],
        "service.fleet.fair_share_deficits": fleet["fair_share_deficits"],
        "service.fleet.pool_rebuilds": fleet["pool_rebuilds"],
        "service.fleet.cross_session_bytes_saved": wire["cross_session_bytes_saved"],
        "service.fleet.dedup_ratio": ratio(
            wire["cross_session_bytes_saved"],
            wire["cross_session_bytes_saved"] + wire["bytes_shipped"],
        ),
    }


def per_layer(scenario, traced: List[Sample], untraced: List[Sample],
              spans: Spans, work_dir: str, deadline: float):
    """Every per-layer metric of one traced run, and the names among them
    that do not apply to this workload (reported as 0, printed as n/a)."""
    # Phases come from one iteration — the traced one with the median wall —
    # so they sum to ``bench.iteration_s`` exactly, which per-phase medians
    # would not.
    typical = sorted(traced, key=lambda s: s.wall)[(len(traced) - 1) // 2]
    out: Dict[str, float] = {"bench.iteration_s": typical.wall}
    for phase in ("build", "native", "record", "load", "replay_seq", "replay_par",
                  "replay_tail", "verify", "serve", "persist"):
        out[f"phase.{phase}_s"] = typical.phases.get(phase, 0.0)

    # The work of a traced and an untraced iteration is identical, so the
    # walls of the first timed phase compare like for like.
    first = "serve" if typical.report is not None else "record"
    out["bench.trace_overhead_pct"] = 100.0 * (
        min(s.phases[first] for s in traced)
        / min(s.phases[first] for s in untraced)
        - 1.0
    )
    out["workloads.build_s"] = out["phase.build_s"]
    out["host.pool.spawn_s"] = scenario.spawn_s
    for leg in ("load_s", "load_materialize_s", "load_tail_s", "verify_s"):
        out[f"record.shards.{leg}"] = median(s.legs[leg] for s in traced)
    if typical.report is not None:
        out.update(service_metrics(traced, scenario.cold_report))
        not_applicable = {"phase.record_s"}
    else:
        out.update(dict.fromkeys(SERVICE, 0.0))
        not_applicable = {"phase.serve_s", "phase.persist_s", *SERVICE}
    out.update(probe_target(scenario.probe_target(), spans, work_dir, deadline))
    if not out["core.recorder.recoveries"]:
        not_applicable.add("core.recovery.wall_per_recovery_s")
    return out, not_applicable
