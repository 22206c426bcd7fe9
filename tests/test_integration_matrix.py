"""The full-contract matrix: every workload × worker counts.

For each configuration: the committed recording validates against the
workload's own oracle, race-free recordings never diverge, and both
replay strategies verify. This is the repository's strongest single
integration statement, kept fast with small scales.
"""

import json
import os
import time

import pytest

from repro.baselines import run_native
from repro.checkpoint.manager import CheckpointManager, checkpoint_cost
from repro.core import DoublePlayConfig, DoublePlayRecorder, Replayer
from repro.machine.config import MachineConfig
from repro.memory.hashing import combine_hashes
from repro.workloads import WORKLOADS, build_workload, workload_names

CONFIGS = [(name, workers) for name in workload_names() for workers in (2, 3)]

# Golden end-to-end values per (workload, workers) at scale=2, seed=11:
# (native duration, native digest, makespan, epoch count, final digest,
#  combined epoch end-digests, total log bytes). These pin the simulator's
# observable behaviour bit-for-bit — any host-side optimisation (dispatch
# tables, TLBs, hash caching) must leave every one of them unchanged.
GOLDEN = {
    ("aget", 2): (4807, 12651562650872444726, 5747, 10,
                  9750065671864226844, 4447608908880550891, 3936),
    ("aget", 3): (4575, 86832004083554708, 5448, 10,
                  86832004083554708, 1763391140910181180, 4344),
    ("apache", 2): (5377, 15557036813043296881, 7312, 12,
                    15667671969702678195, 2155579163447930320, 3872),
    ("apache", 3): (5583, 11856920576053863941, 6393, 10,
                    15233928128316885767, 9199542772119446140, 4560),
    ("fft", 2): (3466, 1023587758859363579, 4048, 8,
                 1023587758859363579, 6006708359676509811, 584),
    ("fft", 3): (3791, 5607265402854933670, 4752, 9,
                 5607265402854933670, 7927598431155298058, 944),
    ("lu", 2): (4896, 14551909104814060594, 5814, 11,
                14551909104814060594, 16981150695979687117, 1136),
    ("lu", 3): (5033, 14978186051075779708, 5961, 11,
                14978186051075779708, 17186382475764968431, 1592),
    ("mysql", 2): (4089, 9624155467934768117, 5877, 10,
                   6095974313538744895, 4732499191363289370, 3472),
    ("mysql", 3): (3311, 948195989078979533, 4969, 8,
                   4341614222855619633, 13232087581114816424, 3856),
    ("ocean", 2): (4579, 11527734004478394154, 5313, 10,
                   11527734004478394154, 6994437026708409131, 848),
    ("ocean", 3): (4840, 3550062865480851614, 5809, 11,
                   3550062865480851614, 1008239838482505802, 1232),
    ("pbzip", 2): (5230, 11529552014372706206, 7083, 12,
                   11529552014372706206, 874082006809833535, 6024),
    ("pbzip", 3): (4225, 15316583958854145957, 6628, 10,
                   17272036854511172949, 13244271545710141243, 6960),
    ("pfscan", 2): (4124, 18003381354230837672, 5166, 9,
                    18003381354230837672, 13868236508608381773, 6736),
    ("pfscan", 3): (3213, 5110011646564275461, 5121, 8,
                    5110011646564275461, 13020697379226720733, 7488),
    ("prodcons", 2): (938, 920605467332395685, 1313, 2,
                      920605467332395685, 17304008216913788021, 736),
    ("prodcons", 3): (1789, 8053473133804911, 2263, 4,
                      8053473133804911, 12034645484827403544, 1872),
    ("prodcons-sem", 2): (850, 15626521186015135587, 1235, 2,
                          15626521186015135587, 2775192677128591728, 968),
    ("prodcons-sem", 3): (1558, 13088482847976153957, 2255, 4,
                          13088482847976153957, 5094968567319453553, 2048),
    ("racy-counter", 2): (1861, 3448562615946056474, 9602, 8,
                          12724300268640189663, 9912476949056978793, 344),
    ("racy-counter", 3): (1922, 5374146475501369629, 18625, 11,
                          14223301674063300882, 158827803329310059, 464),
    ("racy-lazyinit", 2): (589, 4908108182066075022, 980, 2,
                           4908108182066075022, 14562062304790101566, 184),
    ("racy-lazyinit", 3): (650, 3840646583692704329, 1344, 2,
                           3840646583692704329, 17035089182703621485, 272),
    ("radix", 2): (6235, 7917491320764720759, 7218, 13,
                   7917491320764720759, 14361880256660075860, 1040),
    ("radix", 3): (7216, 16673423257611233481, 8252, 13,
                   16673423257611233481, 12142456901315693440, 1400),
    ("water", 2): (2426, 16377078339086888187, 3082, 5,
                   16377078339086888187, 12862172388543010355, 808),
    ("water", 3): (3032, 2956172348081215986, 4107, 7,
                   7184107632185205554, 16867501009319820216, 1400),
}


# ``tp_finish`` per golden configuration, as recorded before the stats
# were re-based on the committed timeline (a diverged segment's
# thread-parallel finish is the boundary that ended its divergent epoch,
# not the squashed future's program exit): the re-basing moved none.
TP_FINISH = {
    ("aget", 2): 5717, ("aget", 3): 5419,
    ("apache", 2): 7257, ("apache", 3): 6009,
    ("fft", 2): 4017, ("fft", 3): 4722,
    ("lu", 2): 5783, ("lu", 3): 5931,
    ("mysql", 2): 5725, ("mysql", 3): 4408,
    ("ocean", 2): 5281, ("ocean", 3): 5734,
    ("pbzip", 2): 6915, ("pbzip", 3): 6136,
    ("pfscan", 2): 5033, ("pfscan", 3): 4536,
    ("prodcons", 2): 1078, ("prodcons", 3): 2068,
    ("prodcons-sem", 2): 989, ("prodcons-sem", 3): 1820,
    ("racy-counter", 2): 9545, ("racy-counter", 3): 18568,
    ("racy-lazyinit", 2): 711, ("racy-lazyinit", 3): 782,
    ("radix", 2): 7188, ("radix", 3): 8224,
    ("water", 2): 2785, ("water", 3): 3645,
}


@pytest.mark.parametrize("name,workers", CONFIGS)
def test_record_validate_replay(monkeypatch, name, workers):
    instance = build_workload(name, workers=workers, scale=2, seed=11)
    machine = MachineConfig(cores=workers)
    native = run_native(instance.image, instance.setup, machine)
    config = DoublePlayConfig(
        machine=machine,
        epoch_cycles=max(native.duration // 12, 500),
    )
    # Cost of every checkpoint taken, by index. Indices count the committed
    # chain, so the last one taken under an index is the committed one.
    taken = {}
    take = CheckpointManager.take

    def costed_take(self, engine, index):
        checkpoint = take(self, engine, index)
        taken[index] = checkpoint_cost(engine.costs, checkpoint.memory)
        return checkpoint

    monkeypatch.setattr(CheckpointManager, "take", costed_take)
    result = DoublePlayRecorder(instance.image, instance.setup, config).record()
    recording = result.recording

    # 1. the committed execution produces a correct program result
    kernel = result.committed_kernel(instance.setup, instance.image.heap_base)
    assert instance.validate(kernel), f"{name} committed output invalid"

    # 2. race-free workloads never diverge under sync hints
    if not WORKLOADS[name].racy:
        assert recording.divergences() == 0, f"{name} diverged spuriously"

    # 3. divergences and recoveries always balance
    assert recording.divergences() == result.stats["recoveries"]

    # 4. both replay strategies reproduce the committed states exactly
    replayer = Replayer(instance.image, machine)
    sequential = replayer.replay_sequential(recording)
    assert sequential.verified, f"{name}: {sequential.details}"
    parallel = replayer.replay_parallel(recording)
    assert parallel.verified, f"{name}: {parallel.details}"

    # 5. recording is never free: makespan at least the app's own time
    assert result.makespan >= result.app_time - result.stats["checkpoint_cost"]

    # 6. zero behavioural drift: cycle counts, digests and log sizes match
    # the committed goldens exactly
    observed = (
        native.duration,
        native.final_digest,
        result.makespan,
        recording.epoch_count(),
        recording.final_digest,
        combine_hashes([epoch.end_digest for epoch in recording.epochs]),
        recording.total_log_bytes(),
    )
    assert observed == GOLDEN[(name, workers)], (
        f"{name}/{workers}: behavioural drift — expected "
        f"{GOLDEN[(name, workers)]}, got {observed}"
    )

    # 7. stats live on the committed timeline: what a squashed
    # thread-parallel future did is in neither
    assert result.tp_finish == result.stats["tp_finish"] == TP_FINISH[(name, workers)]
    assert sorted(taken) == list(range(1, recording.epoch_count() + 1))
    assert result.stats["checkpoint_cost"] == sum(taken.values())


# Host-parallelism parity: ``host_jobs`` may change only wall-clock time.
# A representative slice of the matrix (race-free pipelines, barrier
# kernels, a divergence-heavy racy workload) records and replays with
# worker processes and must hit the same goldens byte-for-byte. The
# ``REPRO_TEST_JOBS=2`` CI leg additionally sweeps the *full* matrix
# above through the parallel path. jobs ∈ {2, 4} covers multi-worker
# merge order beyond the two-worker case.
HOST_PARITY = [
    ("pbzip", 2, 2),
    ("pbzip", 2, 4),
    ("fft", 3, 2),
    ("apache", 2, 2),
    ("racy-counter", 2, 2),
    ("racy-counter", 3, 4),
    ("prodcons-sem", 3, 2),
    ("water", 3, 2),
]


@pytest.mark.parametrize("name,workers,jobs", HOST_PARITY)
def test_host_parallel_matches_goldens(name, workers, jobs):
    instance = build_workload(name, workers=workers, scale=2, seed=11)
    machine = MachineConfig(cores=workers)
    native = run_native(instance.image, instance.setup, machine)
    config = DoublePlayConfig(
        machine=machine,
        epoch_cycles=max(native.duration // 12, 500),
    )
    serial = DoublePlayRecorder(instance.image, instance.setup, config).record()
    parallel = DoublePlayRecorder(
        instance.image, instance.setup, config.replace(host_jobs=jobs)
    ).record()

    # Byte-identical recording, digests, and every simulated-time metric.
    assert json.dumps(parallel.recording.to_plain(), sort_keys=True) == json.dumps(
        serial.recording.to_plain(), sort_keys=True
    )
    assert (parallel.makespan, parallel.tp_finish, parallel.app_time) == (
        serial.makespan, serial.tp_finish, serial.app_time,
    )
    assert parallel.stats == serial.stats

    # And the goldens themselves are reproduced through worker processes.
    observed = (
        native.duration,
        native.final_digest,
        parallel.makespan,
        parallel.recording.epoch_count(),
        parallel.recording.final_digest,
        combine_hashes([e.end_digest for e in parallel.recording.epochs]),
        parallel.recording.total_log_bytes(),
    )
    assert observed == GOLDEN[(name, workers)]

    # Process-parallel replay reaches the serial replay's verdict exactly.
    replayer = Replayer(instance.image, machine)
    replay_serial = replayer.replay_parallel(serial.recording)
    replay_jobs = replayer.replay_parallel(parallel.recording, jobs=jobs)
    assert replay_jobs.verified, f"{name}: {replay_jobs.details}"
    assert (replay_jobs.total_cycles, replay_jobs.makespan) == (
        replay_serial.total_cycles, replay_serial.makespan,
    )


# Superinstruction parity: trace-level superblock fusion is a pure
# interpreter-speed optimisation — every golden tuple must be reproduced
# with fusion disabled, proving the fused handlers retire the exact
# instruction stream the generic loop does. The main matrix above runs
# with fusion ON (the default); this slice re-runs every configuration
# with ``REPRO_SUPERBLOCKS=0``, then replays it every way — sequential,
# parallel through worker processes, one epoch alone, and a
# ``--from-epoch`` suffix of its durable log — with fusion off and on:
# verdicts, total cycles and makespans must agree.
@pytest.mark.parametrize("name,workers", CONFIGS)
def test_goldens_without_superblocks(monkeypatch, tmp_path, name, workers):
    monkeypatch.setenv("REPRO_SUPERBLOCKS", "0")
    monkeypatch.setenv("REPRO_LOG_FSYNC", "0")
    instance = build_workload(name, workers=workers, scale=2, seed=11)
    machine = MachineConfig(cores=workers)
    native = run_native(instance.image, instance.setup, machine)
    log_dir = str(tmp_path / "log")
    config = DoublePlayConfig(
        machine=machine,
        epoch_cycles=max(native.duration // 12, 500),
        log_dir=log_dir,
    )
    result = DoublePlayRecorder(instance.image, instance.setup, config).record()
    recording = result.recording
    observed = (
        native.duration,
        native.final_digest,
        result.makespan,
        recording.epoch_count(),
        recording.final_digest,
        combine_hashes([epoch.end_digest for epoch in recording.epochs]),
        recording.total_log_bytes(),
    )
    assert observed == GOLDEN[(name, workers)], (
        f"{name}/{workers}: superblock fusion changed behaviour — "
        f"expected {GOLDEN[(name, workers)]}, got {observed}"
    )
    fused = result.metrics.snapshot().get("superblock", {})
    assert fused.get("fused_calls", 0) == 0, "fusion ran while disabled"

    def replays():
        from repro.record.shards import ShardedLogReader

        replayer = Replayer(instance.image, machine)
        mid = recording.epoch_count() // 2
        suffix = ShardedLogReader(log_dir).load_recording(from_epoch=mid)
        outcomes = {
            "sequential": replayer.replay_sequential(recording),
            "parallel": replayer.replay_parallel(recording, jobs=2),
            "epoch": replayer.replay_epoch(recording, mid),
            "suffix": replayer.replay_sequential(suffix),
        }
        return {
            how: (r.verified, r.total_cycles, r.makespan)
            for how, r in outcomes.items()
        }

    unfused = replays()
    monkeypatch.setenv("REPRO_SUPERBLOCKS", "1")
    assert replays() == unfused
    assert all(verified for verified, _, _ in unfused.values()), unfused


# The same through worker processes: the coordinator's switch rides on
# every dispatch, so whatever pool is warm honours it. (name, workers, jobs)
SUPERBLOCK_JOBS_PARITY = [
    ("pbzip", 2, 4),
    ("fft", 3, 2),
    ("racy-counter", 2, 4),
]


@pytest.mark.parametrize("name,workers,jobs", SUPERBLOCK_JOBS_PARITY)
def test_goldens_without_superblocks_parallel(monkeypatch, name, workers, jobs):
    monkeypatch.setenv("REPRO_SUPERBLOCKS", "0")
    instance = build_workload(name, workers=workers, scale=2, seed=11)
    machine = MachineConfig(cores=workers)
    native = run_native(instance.image, instance.setup, machine)
    config = DoublePlayConfig(
        machine=machine,
        epoch_cycles=max(native.duration // 12, 500),
    )
    result = DoublePlayRecorder(
        instance.image, instance.setup, config.replace(host_jobs=jobs)
    ).record()
    recording = result.recording
    observed = (
        native.duration,
        native.final_digest,
        result.makespan,
        recording.epoch_count(),
        recording.final_digest,
        combine_hashes([epoch.end_digest for epoch in recording.epochs]),
        recording.total_log_bytes(),
    )
    assert observed == GOLDEN[(name, workers)]
    fused = result.metrics.snapshot().get("superblock", {})
    assert fused.get("fused_calls", 0) == 0, "fusion ran in a warm worker"


# Pipelined-commit parity: the two-deep speculative pipeline dispatches
# epoch N while the thread-parallel run executes ahead — wall-clock
# overlap only, results bit-identical. Each configuration records both
# ways (pushed jobs=N, serial jobs=1) and the two must agree
# byte-for-byte and hit the goldens.
# (name, workers, jobs, expect_speculation)
PIPELINE_PARITY = [
    ("pbzip", 2, 4, True),
    ("fft", 3, 2, True),
    ("apache", 2, 2, True),
    ("racy-counter", 2, 4, False),
    ("water", 3, 2, True),
]


@pytest.mark.parametrize("name,workers,jobs,expect_spec", PIPELINE_PARITY)
def test_goldens_survive_pipelined_commit(name, workers, jobs, expect_spec):
    instance = build_workload(name, workers=workers, scale=2, seed=11)
    machine = MachineConfig(cores=workers)
    native = run_native(instance.image, instance.setup, machine)
    config = DoublePlayConfig(
        machine=machine,
        epoch_cycles=max(native.duration // 12, 500),
    )
    serial = DoublePlayRecorder(instance.image, instance.setup, config).record()
    piped = DoublePlayRecorder(
        instance.image, instance.setup, config.replace(host_jobs=jobs)
    ).record()

    canonical = json.dumps(serial.recording.to_plain(), sort_keys=True)
    assert json.dumps(piped.recording.to_plain(), sort_keys=True) == canonical
    assert (piped.makespan, piped.tp_finish, piped.app_time) == (
        serial.makespan, serial.tp_finish, serial.app_time,
    )
    assert piped.stats == serial.stats
    observed = (
        native.duration,
        native.final_digest,
        piped.makespan,
        piped.recording.epoch_count(),
        piped.recording.final_digest,
        combine_hashes([e.end_digest for e in piped.recording.epochs]),
        piped.recording.total_log_bytes(),
    )
    assert observed == GOLDEN[(name, workers)]

    spec = piped.host["speculation"]
    if expect_spec:
        # Race-free segments are long enough that speculation engages and
        # (with the boundary-floor validity rule) is actually accepted.
        assert spec["dispatched"] >= 1 and spec["accepted"] >= 1


# Fault parity: the goldens must also survive injected host-worker
# failures. A crash mid-matrix, a one-shot crash on a divergence-heavy
# workload, and a worker exception all go through the retry/serial-
# fallback containment and still reproduce the committed tuples exactly.
FAULT_PARITY = [
    ("fft", 2, 4, "crash:unit1", False),
    ("racy-counter", 2, 4, "crash:unit1:once", True),
    ("pbzip", 2, 4, "error:unit2", False),
]


@pytest.mark.parametrize("name,workers,jobs,spec,needs_state", FAULT_PARITY)
def test_goldens_survive_host_faults(
    monkeypatch, tmp_path, name, workers, jobs, spec, needs_state
):
    if needs_state:
        monkeypatch.setenv("REPRO_FAULT_STATE", str(tmp_path))
    monkeypatch.setenv("REPRO_FAULT", spec)
    instance = build_workload(name, workers=workers, scale=2, seed=11)
    machine = MachineConfig(cores=workers)
    native = run_native(instance.image, instance.setup, machine)
    config = DoublePlayConfig(
        machine=machine,
        epoch_cycles=max(native.duration // 12, 500),
    )
    result = DoublePlayRecorder(
        instance.image, instance.setup, config.replace(host_jobs=jobs)
    ).record()
    recording = result.recording
    observed = (
        native.duration,
        native.final_digest,
        result.makespan,
        recording.epoch_count(),
        recording.final_digest,
        combine_hashes([epoch.end_digest for epoch in recording.epochs]),
        recording.total_log_bytes(),
    )
    assert observed == GOLDEN[(name, workers)], (
        f"{name}/{workers}: drift under injected fault {spec!r} — "
        f"expected {GOLDEN[(name, workers)]}, got {observed}"
    )
    # Race-free pipelines execute every unit, so the fault deterministically
    # fires. On racy workloads a divergence may cancel the target unit
    # before it starts — parity above is the contract either way.
    if not WORKLOADS[name].racy:
        counts = result.host["faults"]
        assert sum(counts.values()) >= 1, "fault never fired"


# Wire parity: the content-addressed blob plane (page dedup, delta
# checkpoints, one scratch pack, worker blob caches) may change only how
# many bytes are written — never what the workers compute. The goldens
# must hold when the scratch pack is starved to its degenerate limits:
# a cap of 0 (every dispatch starts a fresh pack and re-puts everything
# it names) and a few KiB (a rotation every few units, mid-segment,
# with earlier packs still named in flight). (name, workers, jobs,
# cap_mb)
WIRE_PARITY = [
    ("pbzip", 2, 2, "0"),
    ("fft", 3, 2, "0.02"),
    ("racy-counter", 2, 4, "0.02"),
]


def _shutdown_pool():
    from repro.host.pool import shutdown_shared_pool

    shutdown_shared_pool()


@pytest.mark.parametrize("name,workers,jobs,cache_mb", WIRE_PARITY)
def test_goldens_survive_blob_cache_starvation(
    monkeypatch, name, workers, jobs, cache_mb
):
    from repro.host import blobs as host_blobs
    from repro.host.pool import _scratch_packs

    monkeypatch.setattr(
        host_blobs, "SCRATCH_PACK_BYTES", int(float(cache_mb) * 1024 * 1024)
    )
    _shutdown_pool()  # an empty scratch pack: the run's puts are its own
    instance = build_workload(name, workers=workers, scale=2, seed=11)
    machine = MachineConfig(cores=workers)
    native = run_native(instance.image, instance.setup, machine)
    config = DoublePlayConfig(
        machine=machine,
        epoch_cycles=max(native.duration // 12, 500),
    )
    result = DoublePlayRecorder(
        instance.image, instance.setup, config.replace(host_jobs=jobs)
    ).record()
    recording = result.recording
    observed = (
        native.duration,
        native.final_digest,
        result.makespan,
        recording.epoch_count(),
        recording.final_digest,
        combine_hashes([epoch.end_digest for epoch in recording.epochs]),
        recording.total_log_bytes(),
    )
    assert observed == GOLDEN[(name, workers)], (
        f"{name}/{workers}: drift under a {cache_mb} MB scratch pack — "
        f"expected {GOLDEN[(name, workers)]}, got {observed}"
    )
    # Starvation shows up in the wire accounting, never in faults:
    # every rotation re-puts pages an unstarved pack holds once.
    wire = result.host["wire"]
    assert wire["blobs_sent"] > len(
        {p.wire_blob()[0] for e in recording.epochs
         for p in e.start_checkpoint.memory.pages.values()}
    )
    assert not any(result.host["faults"].values())

    # Replay through the same starved pool reaches the same verdict.
    replayer = Replayer(instance.image, machine)
    outcome = replayer.replay_parallel(recording, jobs=jobs)
    assert outcome.verified, f"{name}: {outcome.details}"
    assert not any(outcome.host["faults"].values())
    # Once nothing is in flight any more (a future wakes its waiter
    # before it runs its callbacks), only the current pack is left.
    deadline = time.monotonic() + 5
    while _scratch_packs._named and time.monotonic() < deadline:
        time.sleep(0.01)
    with _scratch_packs._lock:  # the last release deletes under it
        left = os.listdir(_scratch_packs._dir)
    assert left == [os.path.basename(_scratch_packs._store.root)]


# Observability parity: a live tracer may never influence an execution.
# With tracing on, the recording must stay byte-identical to the untraced
# run — serially and through worker processes — and the exported timeline
# must pass schema validation (monotonic, non-overlapping spans per
# track) and be complete: every epoch the run executed has exactly one
# execute span. (name, workers, jobs)
OBS_PARITY = [
    ("pbzip", 2, 1),
    ("pbzip", 2, 4),
    ("fft", 3, 1),
    ("racy-counter", 2, 4),
]


@pytest.mark.parametrize("name,workers,jobs", OBS_PARITY)
def test_goldens_survive_tracing(tmp_path, name, workers, jobs):
    from repro.obs import export as obs_export
    from repro.obs import spans as obs_spans

    instance = build_workload(name, workers=workers, scale=2, seed=11)
    machine = MachineConfig(cores=workers)
    native = run_native(instance.image, instance.setup, machine)
    config = DoublePlayConfig(
        machine=machine,
        epoch_cycles=max(native.duration // 12, 500),
        host_jobs=jobs,
    )
    untraced = DoublePlayRecorder(instance.image, instance.setup, config).record()

    trace_path = tmp_path / "trace.json"
    obs_spans.start_trace(str(trace_path))
    try:
        traced = DoublePlayRecorder(
            instance.image, instance.setup, config
        ).record()
    finally:
        tracer = obs_spans.stop_trace()
    payload = obs_export.write_chrome_trace(tracer, str(trace_path))

    # Tracing is invisible to the execution: byte-identical recording,
    # identical stats, and the committed goldens.
    assert json.dumps(traced.recording.to_plain(), sort_keys=True) == json.dumps(
        untraced.recording.to_plain(), sort_keys=True
    )
    assert traced.stats == untraced.stats
    observed = (
        native.duration,
        native.final_digest,
        traced.makespan,
        traced.recording.epoch_count(),
        traced.recording.final_digest,
        combine_hashes([e.end_digest for e in traced.recording.epochs]),
        traced.recording.total_log_bytes(),
    )
    assert observed == GOLDEN[(name, workers)]

    # The timeline is schema-valid and complete.
    assert obs_export.validate_trace(payload) == []
    executes = [
        e for e in payload["traceEvents"]
        if e.get("ph") == "X" and e["name"] == "execute"
    ]
    # One execute span per epoch attempt the run kept (cancelled
    # divergence tails drop their spans with their results, exactly as
    # they drop their counters) — so spans and merged counters agree.
    assert len(executes) == traced.metrics.get("exec", "epochs")
    # Both runs merged the same execution counters back.
    assert traced.metrics.snapshot()["exec"] == untraced.metrics.snapshot()["exec"]
    if jobs > 1:
        coordinator = payload["otherData"]["coordinator_pid"]
        assert any(e["pid"] != coordinator for e in executes), (
            "no execute span ever landed on a worker track"
        )


def test_goldens_survive_forced_blob_misses(monkeypatch):
    """A worker that cannot read what a unit names fails that unit only.

    Here every dispatch names a pack that does not exist (in production:
    never — the pack outlives every dispatch naming it). Cold workers
    lack every digest, so each pool attempt is a task error, contained
    like any other: retried, then run on the coordinator — same
    goldens, nothing sent twice.
    """
    from repro.host import executor as host_pool

    _shutdown_pool()  # fresh workers hold nothing: misses are guaranteed

    original = host_pool.HostExecutor._make_dispatch

    def starved(self, batch, position):
        dispatch = original(self, batch, position)
        host_pool._scratch_packs.release(dispatch.pack)
        dispatch.pack = os.path.join(dispatch.pack, "unlinked")
        return dispatch

    monkeypatch.setattr(host_pool.HostExecutor, "_make_dispatch", starved)
    try:
        name, workers, jobs = "fft", 2, 2
        instance = build_workload(name, workers=workers, scale=2, seed=11)
        machine = MachineConfig(cores=workers)
        native = run_native(instance.image, instance.setup, machine)
        config = DoublePlayConfig(
            machine=machine,
            epoch_cycles=max(native.duration // 12, 500),
        )
        result = DoublePlayRecorder(
            instance.image, instance.setup, config.replace(host_jobs=jobs)
        ).record()
        recording = result.recording
        observed = (
            native.duration,
            native.final_digest,
            result.makespan,
            recording.epoch_count(),
            recording.final_digest,
            combine_hashes([epoch.end_digest for epoch in recording.epochs]),
            recording.total_log_bytes(),
        )
        assert observed == GOLDEN[(name, workers)]
        faults = result.host["faults"]
        assert faults["serial_fallbacks"] == result.host["units"]
        assert faults["task_errors"] == 2 * result.host["units"]
        assert faults["crashes"] == faults["timeouts"] == 0
        assert all(
            "not in pack" in event["error"] for event in result.host["fault_events"]
        )
        assert result.host["wire"]["blob_resends"] == 0
    finally:
        _shutdown_pool()


# Service parity: recording through the multi-session coordinator
# (``repro.service``) — N tenants interleaved over one shared worker
# fleet, with admission control, fair-share scheduling and cross-session
# blob dedup — must still produce each tenant's recording byte-identical
# to a solo jobs=1 run, hitting the committed goldens exactly. The slice
# mixes race-free and divergence-heavy workloads so commits, retries and
# recoveries all interleave across tenants.
SESSIONS_PARITY = [
    ("pbzip", 2),
    ("fft", 3),
    ("racy-counter", 2),
]


def test_concurrent_service_sessions_match_goldens():
    from repro.service import RecordService, ServiceConfig, SessionRequest

    natives = {}
    for name, workers in SESSIONS_PARITY:
        instance = build_workload(name, workers=workers, scale=2, seed=11)
        machine = MachineConfig(cores=workers)
        natives[(name, workers)] = run_native(instance.image, instance.setup, machine)

    service = RecordService(ServiceConfig(jobs=2, max_active=len(SESSIONS_PARITY)))
    requests = [
        SessionRequest(
            sid=f"{name}-{workers}", workload=name, workers=workers,
            scale=2, seed=11,
            epoch_cycles=max(natives[(name, workers)].duration // 12, 500),
        )
        for name, workers in SESSIONS_PARITY
    ]
    report = service.run(requests)
    assert report.ok, [r.error for r in report.results]

    for (name, workers), result in zip(SESSIONS_PARITY, report.results):
        instance = build_workload(name, workers=workers, scale=2, seed=11)
        machine = MachineConfig(cores=workers)
        native = natives[(name, workers)]
        config = DoublePlayConfig(
            machine=machine,
            epoch_cycles=max(native.duration // 12, 500),
            host_jobs=1,
        )
        solo = DoublePlayRecorder(instance.image, instance.setup, config).record()
        # Byte-identical to the solo serial run...
        assert json.dumps(result.recording_plain, sort_keys=True) == json.dumps(
            solo.recording.to_plain(), sort_keys=True
        ), f"{name}/{workers}: service recording drifted from solo"
        # ...and the goldens themselves reproduced through the service.
        recording = solo.recording
        observed = (
            native.duration,
            native.final_digest,
            solo.makespan,
            recording.epoch_count(),
            recording.final_digest,
            combine_hashes([e.end_digest for e in recording.epochs]),
            recording.total_log_bytes(),
        )
        assert observed == GOLDEN[(name, workers)]


# Durable-log parity: streaming committed epochs into the sharded
# durable log (``--log-dir``), even in flight-recorder spill mode, is
# invisible to the execution — and replay is bit-identical whether it
# starts from (a) the in-memory recording, (b) the durable round trip,
# or (c) ``--from-epoch N`` at a mid-run checkpoint materialised from
# the blob store.
DURABLE_PARITY = [
    ("pbzip", 2, 1),
    ("pbzip", 2, 4),
    ("fft", 3, 1),
    ("racy-counter", 2, 4),
    ("prodcons-sem", 3, 1),
]


@pytest.mark.parametrize("name,workers,jobs", DURABLE_PARITY)
def test_goldens_survive_durable_round_trip(tmp_path, name, workers, jobs):
    from repro.record.shards import ShardedLogReader

    instance = build_workload(name, workers=workers, scale=2, seed=11)
    machine = MachineConfig(cores=workers)
    native = run_native(instance.image, instance.setup, machine)
    config = DoublePlayConfig(
        machine=machine,
        epoch_cycles=max(native.duration // 12, 500),
        host_jobs=jobs,
    )
    log_dir = str(tmp_path / "log")
    try:
        in_memory = DoublePlayRecorder(
            instance.image, instance.setup, config
        ).record()
        durable = DoublePlayRecorder(
            instance.image,
            instance.setup,
            config.replace(log_dir=log_dir, log_spill=True),
        ).record()

        # Durable streaming (with spill!) changes nothing observable.
        assert durable.makespan == in_memory.makespan
        assert durable.stats == dict(in_memory.stats, log_spilled=1)

        # (b) the round-tripped durable recording is byte-identical to
        # (a) the in-memory one, and reproduces the committed goldens.
        loaded = ShardedLogReader(log_dir).load_recording()
        assert json.dumps(loaded.to_plain(), sort_keys=True) == json.dumps(
            in_memory.recording.to_plain(), sort_keys=True
        )
        observed = (
            native.duration,
            native.final_digest,
            durable.makespan,
            loaded.epoch_count(),
            loaded.final_digest,
            combine_hashes([e.end_digest for e in loaded.epochs]),
            loaded.total_log_bytes(),
        )
        assert observed == GOLDEN[(name, workers)]

        # Replay verdicts and cycle counts agree across all sources.
        replayer = Replayer(instance.image, machine)
        from_memory = replayer.replay_sequential(in_memory.recording)
        assert from_memory.verified, f"{name}: {from_memory.details}"
        from_durable = replayer.replay_sequential(loaded)
        assert from_durable.verified, f"{name}: {from_durable.details}"
        assert (from_durable.total_cycles, from_durable.makespan) == (
            from_memory.total_cycles, from_memory.makespan,
        )

        # Parallel replay runs from blob-store checkpoints (materialize),
        # through worker processes when jobs > 1.
        hydrated = ShardedLogReader(log_dir).load_recording(materialize=True)
        parallel = replayer.replay_parallel(hydrated, jobs=jobs)
        assert parallel.verified, f"{name}: {parallel.details}"
        reference = replayer.replay_parallel(in_memory.recording)
        assert (parallel.total_cycles, parallel.makespan) == (
            reference.total_cycles, reference.makespan,
        )

        # (c) a mid-run suffix replays only total - N epochs, ending in
        # the same verified final state.
        total = loaded.epoch_count()
        mid = total // 2
        suffix = ShardedLogReader(log_dir).load_recording(from_epoch=mid)
        assert suffix.epoch_count() == total - mid
        assert [e.index for e in suffix.epochs] == list(range(mid, total))
        from_mid = replayer.replay_sequential(suffix)
        assert from_mid.verified, f"{name}: {from_mid.details}"
        assert from_mid.epochs_replayed == total - mid
        assert from_mid.total_cycles < from_memory.total_cycles
    finally:
        if jobs > 1:
            _shutdown_pool()
