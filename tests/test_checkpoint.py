"""Checkpoints: capture, restore, resume-equivalence."""

from repro.checkpoint.manager import CheckpointManager
from repro.exec.multicore import MulticoreEngine
from repro.exec.services import LiveSyscalls
from repro.machine.config import MachineConfig
from repro.oskernel.kernel import Kernel, KernelSetup
from tests.conftest import boot_multicore, counter_program


def run_to_midpoint(image, machine, setup=None):
    engine, kernel = boot_multicore(image, machine, setup)
    engine.run(stop_after=800)
    return engine, kernel


class TestTake:
    def test_initial_checkpoint_has_main_thread(self):
        image = counter_program()
        engine, _ = boot_multicore(image, MachineConfig(cores=2))
        checkpoint = CheckpointManager().initial(engine)
        assert checkpoint.index == 0
        assert list(checkpoint.contexts) == [1]
        assert checkpoint.kernel_state is not None

    def test_take_charges_cores(self):
        image = counter_program(iters=50)
        engine, _ = run_to_midpoint(image, MachineConfig(cores=2))
        before = engine.quiesce()
        CheckpointManager().take(engine, 1)
        assert engine.time > before

    def test_checkpoint_contexts_are_copies(self):
        image = counter_program(iters=50)
        engine, _ = run_to_midpoint(image, MachineConfig(cores=2))
        checkpoint = CheckpointManager().take(engine, 1)
        frozen = {tid: ctx.retired for tid, ctx in checkpoint.contexts.items()}
        engine.run()
        assert {t: c.retired for t, c in checkpoint.contexts.items()} == frozen

    def test_checkpoint_memory_immutable(self):
        image = counter_program(iters=50)
        engine, _ = run_to_midpoint(image, MachineConfig(cores=2))
        checkpoint = CheckpointManager().take(engine, 1)
        frozen_hash = checkpoint.memory.content_hash()
        engine.run()
        assert checkpoint.memory.content_hash() == frozen_hash

    def test_targets_are_retired_counts(self):
        image = counter_program(iters=50)
        engine, _ = run_to_midpoint(image, MachineConfig(cores=2))
        checkpoint = CheckpointManager().take(engine, 1)
        assert checkpoint.targets() == {
            tid: ctx.retired for tid, ctx in checkpoint.contexts.items()
        }

    def test_digest_stable_and_content_sensitive(self):
        image = counter_program(iters=50)
        engine, _ = run_to_midpoint(image, MachineConfig(cores=2))
        manager = CheckpointManager()
        cp1 = manager.take(engine, 1)
        assert cp1.digest() == cp1.digest()
        next_stop = engine.time + 300
        assert engine.run(stop_after=next_stop) == "stopped"
        cp2 = manager.take(engine, 2)
        assert cp1.digest() != cp2.digest()

    def test_discard_after_releases(self):
        image = counter_program(iters=50)
        engine, _ = run_to_midpoint(image, MachineConfig(cores=2))
        manager = CheckpointManager()
        cp1 = manager.take(engine, 1)
        next_stop = engine.time + 200
        assert engine.run(stop_after=next_stop) == "stopped"
        manager.take(engine, 2)
        manager.discard_after(1)
        assert manager.taken == [cp1]


class TestResumeEquivalence:
    def _resume(self, image, machine, checkpoint, setup=None):
        kernel = Kernel(setup or KernelSetup(), image.heap_base)
        kernel.restore(checkpoint.kernel_state)
        engine = MulticoreEngine.from_checkpoint(
            image,
            machine,
            LiveSyscalls(kernel),
            memory_snapshot=checkpoint.memory,
            contexts=checkpoint.copy_contexts(),
            sync_state=checkpoint.sync_state,
            start_time=checkpoint.time,
        )
        engine.run()
        return engine, kernel

    def test_resume_produces_correct_semantic_result(self):
        """Checkpointing perturbs timing (quiesce + cost), so the resumed
        interleaving is a different *legal* execution — but program results
        must still be correct."""
        image = counter_program(workers=2, iters=40)
        machine = MachineConfig(cores=2)
        first, _ = run_to_midpoint(image, machine)
        checkpoint = CheckpointManager().take(first, 1)
        _, kernel = self._resume(image, machine, checkpoint)
        assert kernel.output == [80]

    def test_resume_is_deterministic(self):
        """Two resumes from the same checkpoint are bit-identical."""
        image = counter_program(workers=2, iters=40)
        machine = MachineConfig(cores=2)
        first, _ = run_to_midpoint(image, machine)
        checkpoint = CheckpointManager().take(first, 1)
        a, ka = self._resume(image, machine, checkpoint)
        b, kb = self._resume(image, machine, checkpoint)
        assert a.state_digest() == b.state_digest()
        assert ka.output == kb.output

    def test_resume_with_blocked_threads(self):
        """Checkpoint while a worker is blocked on the mutex; resume must
        keep the wait queue and finish correctly."""
        image = counter_program(workers=3, iters=30)
        machine = MachineConfig(cores=3)
        engine, _ = boot_multicore(image, machine)
        # stop at a point where contention is likely
        engine.run(stop_after=300)
        checkpoint = CheckpointManager().take(engine, 1)

        kernel = Kernel(KernelSetup(), image.heap_base)
        kernel.restore(checkpoint.kernel_state)
        resumed = MulticoreEngine.from_checkpoint(
            image,
            machine,
            LiveSyscalls(kernel),
            memory_snapshot=checkpoint.memory,
            contexts=checkpoint.copy_contexts(),
            sync_state=checkpoint.sync_state,
            start_time=checkpoint.time,
        )
        resumed.run()
        assert kernel.output == [90]

    def test_resume_from_server_checkpoint(self):
        """Kernel state (pending arrivals, waiters) survives checkpointing:
        the resumed server still answers every request correctly."""
        from repro.workloads import build_workload

        inst = build_workload("apache", workers=2, scale=2, seed=3)
        machine = MachineConfig(cores=2)
        engine, _ = boot_multicore(inst.image, machine, inst.setup)
        engine.run(stop_after=1500)
        assert not engine.all_exited()
        checkpoint = CheckpointManager().take(engine, 1)
        _, kernel = self._resume(inst.image, machine, checkpoint, inst.setup)
        assert inst.validate(kernel)
