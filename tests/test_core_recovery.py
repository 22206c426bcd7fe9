"""Forward recovery unit and integration tests."""

import pytest

from repro.checkpoint.manager import CheckpointManager
from repro.core.recovery import recover_epoch
from repro.errors import SimulationError
from repro.exec.multicore import MulticoreEngine
from repro.exec.services import LiveSyscalls
from repro.machine.config import MachineConfig
from repro.oskernel.kernel import Kernel, KernelSetup
from tests.conftest import counter_program


def checkpoint_midway(image, workers=2, stop_at=700, setup=None, log=None):
    machine = MachineConfig(cores=workers)
    kernel = Kernel(setup or KernelSetup(), image.heap_base)
    engine = MulticoreEngine.boot(image, machine, LiveSyscalls(kernel, log or []))
    manager = CheckpointManager()
    engine.run(stop_after=stop_at)
    return machine, manager.take(engine, 1)


class TestRecoverEpoch:
    def test_produces_committed_checkpoint(self):
        image = counter_program(workers=2, iters=60)
        machine, start = checkpoint_midway(image)
        log = []
        result = recover_epoch(image, machine, KernelSetup(), start, 1500, log)
        assert result.committed.index == start.index + 1
        assert result.duration > 0
        assert result.schedule.total_ops() > 0

    def test_budget_bounds_re_execution(self):
        image = counter_program(workers=2, iters=200)
        machine, start = checkpoint_midway(image)
        short = recover_epoch(image, machine, KernelSetup(), start, 800, [])
        long = recover_epoch(image, machine, KernelSetup(), start, 4000, [])
        assert short.duration < long.duration
        assert not short.finished

    def test_finished_flag_on_completion(self):
        image = counter_program(workers=2, iters=10)
        machine, start = checkpoint_midway(image, stop_at=300)
        result = recover_epoch(image, machine, KernelSetup(), start, 10**6, [])
        assert result.finished

    def test_recovery_appends_syscall_records(self):
        image = counter_program(workers=2, iters=10)
        machine, start = checkpoint_midway(image, stop_at=300)
        log = []
        recover_epoch(image, machine, KernelSetup(), start, 10**6, log)
        # counter_program prints at the end -> at least one record
        assert any(r.kind.value == "print" for r in log)

    def test_recovery_collects_sync_order(self):
        image = counter_program(workers=2, iters=60)
        machine, start = checkpoint_midway(image)
        result = recover_epoch(image, machine, KernelSetup(), start, 2000, [])
        assert len(result.committed_sync.events) > 0

    def test_requires_kernel_state(self):
        image = counter_program(workers=2, iters=20)
        machine, start = checkpoint_midway(image)
        start.kernel_state = None
        with pytest.raises(SimulationError):
            recover_epoch(image, machine, KernelSetup(), start, 1000, [])

    def test_recovery_is_deterministic(self):
        image = counter_program(workers=2, iters=60)
        machine, start = checkpoint_midway(image)
        a = recover_epoch(image, machine, KernelSetup(), start, 1500, [])
        b = recover_epoch(image, machine, KernelSetup(), start, 1500, [])
        assert a.end_digest == b.end_digest
        assert a.schedule.to_plain() == b.schedule.to_plain()


class TestRecoveryEndToEnd:
    def test_racy_program_makes_progress_through_recoveries(self):
        """Heavily racy programs terminate: every recovery commits an epoch."""
        from repro.core import DoublePlayConfig, DoublePlayRecorder

        image = counter_program(workers=4, iters=80, locked=False, name="veryracy")
        config = DoublePlayConfig(
            machine=MachineConfig(cores=4), epoch_cycles=700
        )
        result = DoublePlayRecorder(image, KernelSetup(), config).record()
        assert result.recording.divergences() >= 3
        kernel = result.committed_kernel(KernelSetup(), image.heap_base)
        assert len(kernel.output) == 1  # program reached its final print

    def test_recovered_epochs_replay_like_any_other(self):
        from repro.core import DoublePlayConfig, DoublePlayRecorder, Replayer

        image = counter_program(workers=2, iters=80, locked=False, name="racy")
        config = DoublePlayConfig(machine=MachineConfig(cores=2), epoch_cycles=900)
        result = DoublePlayRecorder(image, KernelSetup(), config).record()
        assert any(e.recovered for e in result.recording.epochs)
        replayer = Replayer(image, MachineConfig(cores=2))
        single = [e.index for e in result.recording.epochs if e.recovered][0]
        assert replayer.replay_epoch(result.recording, single).verified

    def test_recovery_makespan_penalty(self):
        """Divergence costs show up in the record makespan."""
        from repro.core import DoublePlayConfig, DoublePlayRecorder
        from repro.baselines import run_native

        clean_image = counter_program(workers=2, iters=100, name="clean")
        racy_image = counter_program(workers=2, iters=100, locked=False, name="racy2")
        machine = MachineConfig(cores=2)
        config = DoublePlayConfig(machine=machine, epoch_cycles=1000)
        clean = DoublePlayRecorder(clean_image, KernelSetup(), config).record()
        racy = DoublePlayRecorder(racy_image, KernelSetup(), config).record()
        clean_native = run_native(clean_image, KernelSetup(), machine).duration
        racy_native = run_native(racy_image, KernelSetup(), machine).duration
        assert racy.recording.divergences() > 0
        assert racy.overhead_vs(racy_native) > clean.overhead_vs(clean_native)
