"""The full-contract matrix: every workload × worker counts.

For each configuration: the committed recording validates against the
workload's own oracle, race-free recordings never diverge, both replay
strategies verify, and the goldens (``tests/parity.py``) hold. This is
the repository's strongest single integration statement, kept fast with
small scales. The parity slices below record a slice of the matrix some
other way — through worker processes, unfused, faulted, starved, traced,
as service tenants, into a durable log — and hand each run to
``parity.assert_parity``, which holds it to the program's ``jobs=1``
oracle.
"""

import collections
import os
import time

import pytest

from repro.baselines import run_native
from repro.checkpoint.manager import CheckpointManager, checkpoint_cost
from repro.core import Replayer
from repro.exec import interpreter
from repro.isa.instructions import Op
from repro.machine.config import MachineConfig
from repro.record.shards import ShardedLogReader
from repro.workloads import WORKLOADS
from tests import parity
from tests.parity import Program

CONFIGS = [(program.workload, program.workers) for program in parity.MATRIX]


@pytest.mark.parametrize("name,workers", CONFIGS)
def test_record_validate_replay(monkeypatch, name, workers):
    program = Program(name, workers)
    built = parity.build(program)
    # Cost of every checkpoint taken, by index. Indices count the committed
    # chain, so the last one taken under an index is the committed one.
    taken = {}
    take = CheckpointManager.take

    def costed_take(self, engine, index):
        checkpoint = take(self, engine, index)
        taken[index] = checkpoint_cost(engine.costs, checkpoint.memory)
        return checkpoint

    monkeypatch.setattr(CheckpointManager, "take", costed_take)
    got = parity.observe(program, jobs=None)
    result, recording = got.result, got.recording

    # 1. the committed execution produces a correct program result
    instance = built.instance
    kernel = result.committed_kernel(instance.setup, instance.image.heap_base)
    assert instance.validate(kernel), f"{name} committed output invalid"

    # 2. race-free workloads never diverge under sync hints
    if not WORKLOADS[name].racy:
        assert recording.divergences() == 0, f"{name} diverged spuriously"

    # 3. divergences and recoveries always balance
    assert recording.divergences() == result.stats["recoveries"]

    # 4. both replay strategies reproduce the committed states exactly
    replayer = Replayer(instance.image, built.machine)
    sequential = replayer.replay_sequential(recording)
    assert sequential.verified, f"{name}: {sequential.details}"
    parallel = replayer.replay_parallel(recording)
    assert parallel.verified, f"{name}: {parallel.details}"

    # 5. recording is never free: makespan at least the app's own time
    assert result.makespan >= result.app_time - result.stats["checkpoint_cost"]

    # 6. zero behavioural drift: cycle counts, digests and log sizes match
    # the committed goldens exactly, and 7. stats live on the committed
    # timeline: what a squashed thread-parallel future did is in neither
    parity.assert_pinned(got)
    assert sorted(taken) == list(range(1, recording.epoch_count() + 1))
    assert result.stats["checkpoint_cost"] == sum(taken.values())


# Host-parallelism parity: ``host_jobs`` may change only wall-clock time.
# A representative slice of the matrix (race-free pipelines, barrier
# kernels, a divergence-heavy racy workload) records and replays with
# worker processes and must be its jobs=1 oracle. The CI
# ``dispatch-parity`` job additionally runs this whole file under
# ``REPRO_TEST_JOBS=2``, which sweeps the *full* matrix above through the
# parallel path. jobs ∈ {2, 4} covers multi-worker merge order beyond
# the two-worker case.
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
    program = Program(name, workers)
    got = parity.observe(program, jobs=jobs)
    parity.assert_parity(got)
    # Process-parallel replay reaches the serial replay's verdict exactly.
    parity.assert_parity(parity.observe_replay(program, got.recording, jobs=jobs))


# Superinstruction parity: trace-level superblock fusion is a pure
# interpreter-speed optimisation — every golden tuple must be reproduced
# with fusion disabled, proving the fused handlers retire the exact
# instruction stream the generic loop does. The main matrix above runs
# with fusion ON (the default); this slice re-runs every configuration
# with fusion off, then replays it every way — sequential, parallel
# through worker processes, one epoch alone, and a ``--from-epoch``
# suffix of its durable log — with fusion off and on: verdicts, total
# cycles and makespans must agree.
@pytest.mark.parametrize("name,workers", CONFIGS)
def test_goldens_without_superblocks(monkeypatch, tmp_path, name, workers):
    monkeypatch.setenv("REPRO_LOG_FSYNC", "0")
    program = Program(name, workers)
    log_dir = str(tmp_path / "log")
    got = parity.observe(
        program, jobs=None, sink="log", superblocks=False, log_dir=log_dir
    )
    parity.assert_pinned(got)
    recording, built = got.recording, parity.build(program)

    def replays():
        replayer = Replayer(built.instance.image, built.machine)
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

    monkeypatch.setenv("REPRO_SUPERBLOCKS", "0")
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
def test_goldens_without_superblocks_parallel(name, workers, jobs):
    got = parity.observe(Program(name, workers), jobs=jobs, superblocks=False)
    parity.assert_parity(got)


# Pipelined-commit parity: the two-deep speculative pipeline dispatches
# epoch N while the thread-parallel run executes ahead — wall-clock
# overlap only, results bit-identical to the serial oracle.
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
    got = parity.observe(Program(name, workers), jobs=jobs)
    parity.assert_parity(got)
    spec = got.host["speculation"]
    if expect_spec:
        # Race-free segments are long enough that speculation engages and
        # (with the boundary-floor validity rule) is actually accepted.
        assert spec["dispatched"] >= 1 and spec["accepted"] >= 1


# Fault parity: the goldens must also survive injected host-worker
# failures. A crash mid-matrix, a one-shot crash on a divergence-heavy
# workload, and a worker exception all go through the retry/serial-
# fallback containment and still reproduce the oracle exactly — and the
# harness checks each fault fired (a one-shot one by its blown fuse).
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
    parity.assert_parity(parity.observe(Program(name, workers), jobs=jobs, fault=spec))


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
def test_goldens_survive_blob_cache_starvation(name, workers, jobs, cache_mb):
    from repro.host.pool import _scratch_packs

    program, cap = Program(name, workers), int(float(cache_mb) * 1024 * 1024)
    _shutdown_pool()  # an empty scratch pack: the run's puts are its own
    unstarved = parity.observe(program, jobs=jobs)
    _shutdown_pool()
    packs = _scratch_packs._serial
    got = parity.observe(program, jobs=jobs, scratch_cap=cap)
    parity.assert_parity(got)
    # Starvation shows up in the wire accounting, never in faults: the
    # same units put what they put into an uncapped pack, and more
    # exactly when a pack was replaced mid-run — a rotation re-puts
    # blobs an unstarved pack holds once.
    rotations = _scratch_packs._serial - packs - 1
    sent = got.host["wire"]["blobs_sent"]
    uncapped = unstarved.host["wire"]["blobs_sent"]
    assert sent >= uncapped and (sent > uncapped) == (rotations > 0)
    assert not any(got.host["faults"].values())

    # Replay through the same starved pool reaches the same verdict.
    replayed = parity.observe_replay(
        program, got.recording, jobs=jobs, scratch_cap=cap
    )
    parity.assert_parity(replayed)
    assert not any(replayed.host["faults"].values())
    # Once nothing is in flight any more (a future wakes its waiter
    # before it runs its callbacks), only the current pack is left.
    deadline = time.monotonic() + 5
    while _scratch_packs._named and time.monotonic() < deadline:
        time.sleep(0.01)
    with _scratch_packs._lock:  # the last release deletes under it
        left = os.listdir(_scratch_packs._dir)
    assert left == [os.path.basename(_scratch_packs._store.root)]


# Observability parity: a live tracer may never influence an execution.
# With tracing on, the recording must be the untraced jobs=1 oracle —
# serially and through worker processes — and the exported timeline
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

    got = parity.observe(
        Program(name, workers), jobs=jobs, trace=tmp_path / "trace.json"
    )
    # Tracing is invisible to the execution: byte-identical recording,
    # identical stats and execution counters, the committed goldens.
    parity.assert_parity(got)

    # The timeline is schema-valid and complete.
    payload = got.trace
    assert obs_export.validate_trace(payload) == []
    executes = [
        e for e in payload["traceEvents"]
        if e.get("ph") == "X" and e["name"] == "execute"
    ]
    # One execute span per epoch attempt the run kept (cancelled
    # divergence tails drop their spans with their results, exactly as
    # they drop their counters) — so spans and merged counters agree.
    assert len(executes) == got.result.metrics.get("exec", "epochs")
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
    recording, nothing sent twice.
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
        got = parity.observe(Program("fft", 2), jobs=2)
        parity.assert_parity(got)
        faults = got.host["faults"]
        assert faults["serial_fallbacks"] == got.host["units"]
        assert faults["task_errors"] == 2 * got.host["units"]
        assert faults["crashes"] == faults["timeouts"] == 0
        assert all(
            "not in pack" in event["error"] for event in got.host["fault_events"]
        )
        assert got.host["wire"]["blob_resends"] == 0
    finally:
        _shutdown_pool()


# Service parity: recording through the multi-session coordinator
# (``repro.service``) — N tenants interleaved over one shared worker
# fleet, with admission control, fair-share scheduling and cross-session
# blob dedup — must still produce each tenant's recording byte-identical
# to its jobs=1 oracle, which hits the committed goldens. The slice
# mixes race-free and divergence-heavy workloads so commits, retries and
# recoveries all interleave across tenants.
SESSIONS_PARITY = [
    ("pbzip", 2),
    ("fft", 3),
    ("racy-counter", 2),
]


def test_concurrent_service_sessions_match_goldens():
    from repro.service import RecordService, ServiceConfig, SessionRequest

    programs = [Program(name, workers) for name, workers in SESSIONS_PARITY]
    service = RecordService(ServiceConfig(jobs=2, max_active=len(programs)))
    requests = [
        SessionRequest(
            sid=f"{program.workload}-{program.workers}",
            workload=program.workload, workers=program.workers,
            scale=2, seed=11,
            epoch_cycles=parity.build(program).config.epoch_cycles,
        )
        for program in programs
    ]
    report = service.run(requests)
    assert report.ok, [r.error for r in report.results]
    for program, result in zip(programs, report.results):
        parity.assert_parity(parity.served(program, result))


# Durable-log parity: streaming committed epochs into the sharded
# durable log (``--log-dir``), in flight-recorder spill mode, is
# invisible to the execution — the bytes on disk are the jobs=1 ones —
# and replay is bit-identical whether it starts from (a) the in-memory
# recording, (b) the durable round trip, or (c) ``--from-epoch N`` at a
# mid-run checkpoint materialised from the blob store.
DURABLE_PARITY = [
    ("pbzip", 2, 1),
    ("pbzip", 2, 4),
    ("fft", 3, 1),
    ("racy-counter", 2, 4),
    ("prodcons-sem", 3, 1),
]


@pytest.mark.parametrize("name,workers,jobs", DURABLE_PARITY)
def test_goldens_survive_durable_round_trip(tmp_path, name, workers, jobs):
    program = Program(name, workers)
    log_dir = str(tmp_path / "log")
    try:
        # (b) the round-tripped recording is (a)'s, spill and all.
        durable = parity.observe(program, jobs=jobs, sink="spill", log_dir=log_dir)
        parity.assert_parity(durable)
        assert durable.result.stats["log_spilled"] == 1

        # Replay verdicts and cycle counts agree across all sources...
        loaded = durable.recording
        parity.assert_parity(parity.observe_replay(program, loaded, sequential=True))
        # ...in parallel from blob-store checkpoints (materialize),
        # through worker processes when jobs > 1.
        hydrated = ShardedLogReader(log_dir).load_recording(materialize=True)
        parity.assert_parity(parity.observe_replay(program, hydrated, jobs=jobs))

        # (c) a mid-run suffix replays only total - N epochs, ending in
        # the same verified final state.
        total = loaded.epoch_count()
        mid = total // 2
        suffix = ShardedLogReader(log_dir).load_recording(from_epoch=mid)
        assert suffix.epoch_count() == total - mid
        assert [e.index for e in suffix.epochs] == list(range(mid, total))
        built = parity.build(program)
        from_mid = Replayer(built.instance.image, built.machine).replay_sequential(
            suffix
        )
        assert from_mid.verified, f"{name}: {from_mid.details}"
        assert from_mid.epochs_replayed == total - mid
        whole = parity.oracle(program, kind="sequential").result
        assert from_mid.total_cycles < whole.total_cycles
    finally:
        if jobs > 1:
            _shutdown_pool()


# Every op of the ISA goes through the harness: ``parity.ALL_OPS``
# executes the ones no workload does (a CONDBCAST waking parked
# waiters, a CAS/XCHG hand-off, a CALL/RET), recorded and replayed at
# jobs 1 and 2.
@pytest.mark.parametrize("jobs", [1, 2])
def test_all_ops_program_matches_its_oracle(jobs):
    got = parity.observe(parity.ALL_OPS, jobs=jobs)
    parity.assert_parity(got)
    parity.assert_parity(
        parity.observe_replay(parity.ALL_OPS, got.recording, jobs=jobs)
    )


def test_every_op_is_executed_by_a_harness_program(monkeypatch):
    """Counted per handler call, with fusion off (a fused block runs its
    ops without their handlers), over fresh images (decoding caches a
    handler table on the image)."""
    monkeypatch.setenv("REPRO_SUPERBLOCKS", "0")
    executed = collections.Counter()

    def counting(op, handler):
        def counted(engine, ctx, instr):
            executed[op] += 1
            return handler(engine, ctx, instr)

        return counted

    for op, handler in list(interpreter._HANDLERS.items()):
        monkeypatch.setitem(interpreter._HANDLERS, op, counting(op, handler))
    for program in parity.MATRIX + [parity.RACY_IO, parity.HELD_LOCK, parity.ALL_OPS]:
        instance = parity.instantiate(program)
        run_native(instance.image, instance.setup, MachineConfig(cores=program.workers))
    assert set(Op) - set(executed) == set()
