"""The full-contract matrix: every workload × worker counts.

For each configuration: the committed recording validates against the
workload's own oracle, race-free recordings never diverge, both replay
strategies verify, and the goldens (``tests/parity.py``) hold. This is
the repository's strongest single integration statement, kept fast with
small scales. The ways of recording a program some other way — through
worker processes, unfused, faulted, starved, traced, as service tenants,
into a durable log — are the axes of the parity table
(``tests/test_parity.py``); what stays here sweeps every golden
configuration, or probes one run.
"""

import collections
import os

import pytest

from repro.baselines import run_native
from repro.checkpoint.manager import CheckpointManager, checkpoint_cost
from repro.core import Replayer
from repro.exec import interpreter
from repro.host.pool import invalidate_shared_pool
from repro.isa.instructions import Op
from repro.machine.config import MachineConfig
from repro.record.shards import ShardedLogReader
from repro.workloads import WORKLOADS
from tests import parity
from tests.conftest import exhaustive
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


# Parallel replay starts each epoch only from a recorded checkpoint: a
# durable log keeps them, so every golden program replays from its log
# to the in-memory replay's verdict, total cycles and makespan (each
# replay oracle holds its log to memory). Rebuilt checkpoints once gave
# other figures for apache/2, prodcons/3 and four more: tier-1 runs
# those two, the ci Hypothesis profile every program.
DURABLE_REPLAYS = CONFIGS if exhaustive() else [("apache", 2), ("prodcons", 3)]


@pytest.mark.parametrize("name,workers", DURABLE_REPLAYS)
@pytest.mark.parametrize("kind", ["parallel", "sequential"])
def test_a_durable_log_replays_to_the_in_memory_figures(name, workers, kind):
    program = Program(name, workers)
    got = parity.oracle(program, "log", kind)
    assert got.fields == parity.oracle(program, kind=kind).fields


def test_goldens_survive_forced_blob_misses(monkeypatch):
    """A worker that cannot read what a unit names fails that unit only.

    Here every dispatch names a pack that does not exist (in production:
    never — the pack outlives every dispatch naming it). Cold workers
    lack every digest, so each pool attempt is a task error, contained
    like any other: retried, then run on the coordinator — same
    recording, nothing sent twice.
    """
    from repro.host import executor as host_pool

    invalidate_shared_pool()  # fresh workers hold nothing: misses are guaranteed

    original = host_pool.SpeculativeSession._make_dispatch

    def starved(self, position):
        dispatch = original(self, position)
        host_pool._scratch_packs.release(dispatch.pack)
        dispatch.pack = os.path.join(dispatch.pack, "unlinked")
        return dispatch

    monkeypatch.setattr(host_pool.SpeculativeSession, "_make_dispatch", starved)
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
        invalidate_shared_pool(kill=True)


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
