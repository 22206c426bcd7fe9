"""Multicore engine: determinism, parallelism, blocking, deadlock."""

import pytest

from repro.errors import DeadlockError
from repro.isa.assembler import Assembler
from repro.isa.context import ThreadStatus
from repro.machine.config import MachineConfig
from repro.oskernel.syscalls import SyscallKind
from tests.conftest import boot_multicore, counter_program


class TestDeterminism:
    def test_identical_runs_identical_state(self):
        image = counter_program(workers=3, iters=15)
        a, _ = boot_multicore(image, MachineConfig(cores=2))
        b, _ = boot_multicore(image, MachineConfig(cores=2))
        a.run()
        b.run()
        assert a.state_digest() == b.state_digest()
        assert a.time == b.time

    def test_core_count_changes_timing_not_result(self):
        image = counter_program(workers=2, iters=20)
        one, k1 = boot_multicore(image, MachineConfig(cores=1))
        two, k2 = boot_multicore(image, MachineConfig(cores=2))
        one.run()
        two.run()
        assert k1.output == k2.output == [40]
        assert two.time < one.time  # real parallel speedup

    def test_parallel_speedup_is_substantial(self):
        asm = Assembler()
        with asm.function("worker"):
            asm.work(2000)
            asm.exit_()
        with asm.function("main"):
            asm.spawn("r1", "worker")
            asm.spawn("r2", "worker")
            asm.join("r1")
            asm.join("r2")
            asm.exit_()
        image = asm.assemble()
        seq, _ = boot_multicore(image, MachineConfig(cores=1))
        par, _ = boot_multicore(image, MachineConfig(cores=2))
        seq.run()
        par.run()
        assert par.time < seq.time * 0.65


class TestThreadLifecycle:
    def test_spawn_passes_arguments(self):
        asm = Assembler()
        asm.word("out", 0)
        with asm.function("child"):
            asm.add("r4", "r0", "r1")
            asm.storeg("r4", "out")
            asm.exit_()
        with asm.function("main"):
            asm.li("r1", 30)
            asm.li("r2", 12)
            asm.spawn("r3", "child", args=["r1", "r2"])
            asm.join("r3")
            asm.loadg("r5", "out")
            asm.exit_()
        engine, _ = boot_multicore(asm.assemble(), MachineConfig(cores=2))
        engine.run()
        assert engine.contexts[1].registers[5] == 42

    def test_child_tids_deterministic(self):
        image = counter_program(workers=2, iters=1)
        engine, _ = boot_multicore(image, MachineConfig(cores=2))
        engine.run()
        assert set(engine.contexts) == {1, 1025, 1026}

    def test_join_already_exited_thread(self):
        asm = Assembler()
        with asm.function("quick"):
            asm.exit_()
        with asm.function("main"):
            asm.spawn("r1", "quick")
            asm.work(500)  # child certainly done
            asm.join("r1")
            asm.exit_()
        engine, _ = boot_multicore(asm.assemble(), MachineConfig(cores=2))
        assert engine.run() == "done"

    def test_join_blocks_until_exit(self):
        asm = Assembler()
        with asm.function("slow"):
            asm.work(1000)
            asm.exit_()
        with asm.function("main"):
            asm.spawn("r1", "slow")
            asm.join("r1")
            asm.exit_()
        engine, _ = boot_multicore(asm.assemble(), MachineConfig(cores=2))
        engine.run()
        assert engine.time >= 1000

    def test_grandchildren(self):
        asm = Assembler()
        asm.word("out", 0)
        with asm.function("leaf"):
            asm.li("r2", 5)
            asm.storeg("r2", "out")
            asm.exit_()
        with asm.function("mid"):
            asm.spawn("r1", "leaf")
            asm.join("r1")
            asm.exit_()
        with asm.function("main"):
            asm.spawn("r1", "mid")
            asm.join("r1")
            asm.loadg("r3", "out")
            asm.exit_()
        engine, _ = boot_multicore(asm.assemble(), MachineConfig(cores=2))
        engine.run()
        assert engine.contexts[1].registers[3] == 5
        assert 1025 * 1024 + 1 in engine.contexts


class TestBlockingAndDeadlock:
    def test_self_deadlock_detected(self):
        asm = Assembler()
        asm.word("m", 0)
        with asm.function("main"):
            asm.li("r1", "m")
            asm.lock("r1")
            asm.lock("r1")  # faults: non-reentrant
            asm.exit_()
        engine, _ = boot_multicore(asm.assemble(), MachineConfig(cores=1))
        from repro.errors import GuestFault

        with pytest.raises(GuestFault):
            engine.run()

    def test_abba_deadlock_detected(self):
        asm = Assembler()
        asm.word("a", 0)
        asm.word("b", 0)
        with asm.function("worker"):
            asm.li("r1", "b")
            asm.lock("r1")
            asm.work(200)
            asm.li("r2", "a")
            asm.lock("r2")
            asm.exit_()
        with asm.function("main"):
            asm.li("r1", "a")
            asm.lock("r1")
            asm.spawn("r3", "worker")
            asm.work(200)
            asm.li("r2", "b")
            asm.lock("r2")
            asm.join("r3")
            asm.exit_()
        engine, _ = boot_multicore(asm.assemble(), MachineConfig(cores=2))
        with pytest.raises(DeadlockError) as excinfo:
            engine.run()
        assert set(excinfo.value.blocked_tids) == {1, 1025}

    def test_blocked_thread_releases_core(self):
        """A thread blocked on accept must not spin a core."""
        from repro.oskernel.kernel import KernelSetup
        from repro.oskernel.net import Arrival

        asm = Assembler()
        with asm.function("main"):
            asm.syscall("r1", SyscallKind.LISTEN, args=[])
            asm.syscall("r2", SyscallKind.ACCEPT, args=["r1"])
            asm.exit_()
        setup = KernelSetup(arrivals=[Arrival(time=5000, payload=(1,))])
        engine, _ = boot_multicore(asm.assemble(), MachineConfig(cores=1), setup)
        engine.run()
        # time jumped to the arrival instead of burning 5000 cycles of ops
        assert engine.time >= 5000
        assert engine.ops < 50

    def test_stop_check_pauses_and_resumes(self):
        image = counter_program(workers=2, iters=30)
        engine, kernel = boot_multicore(image, MachineConfig(cores=2))
        status = engine.run(stop_after=500)
        assert status == "stopped"
        assert not engine.all_exited()
        assert engine.run() == "done"
        assert kernel.output == [60]

    def test_quantum_preemption_shares_one_core(self):
        """With one core and two compute threads, both make progress."""
        asm = Assembler()
        asm.word("a", 0)
        asm.word("b", 0)
        for name, cell in (("wa", "a"), ("wb", "b")):
            with asm.function(name):
                asm.li("r2", 0)
                asm.label("loop")
                asm.work(100)
                asm.li("r1", 1)
                asm.storeg("r1", cell)
                asm.addi("r2", "r2", 1)
                asm.blti("r2", 50, "loop")
                asm.exit_()
        with asm.function("main"):
            asm.spawn("r1", "wa")
            asm.spawn("r2", "wb")
            asm.join("r1")
            asm.join("r2")
            asm.exit_()
        engine, _ = boot_multicore(asm.assemble(), MachineConfig(cores=1))
        # stop early; both threads must have run (preemption happened)
        engine.run(stop_after=4000)
        assert engine.mem.read(engine.program.address_of("a")) == 1
        assert engine.mem.read(engine.program.address_of("b")) == 1


class TestQuiesce:
    def test_quiesce_aligns_core_clocks(self):
        image = counter_program(workers=2, iters=30)
        engine, _ = boot_multicore(image, MachineConfig(cores=2))
        engine.run(stop_after=400)
        time = engine.quiesce()
        assert all(core.time == time for core in engine.cores)

    def test_advance_all_charges_every_core(self):
        image = counter_program(workers=2, iters=30)
        engine, _ = boot_multicore(image, MachineConfig(cores=2))
        engine.run(stop_after=400)
        engine.quiesce()
        before = engine.time
        engine.advance_all(100)
        assert engine.time == before + 100

    def test_run_continues_after_quiesce(self):
        image = counter_program(workers=2, iters=30)
        engine, kernel = boot_multicore(image, MachineConfig(cores=2))
        engine.run(stop_after=400)
        engine.quiesce()
        engine.advance_all(50)
        assert engine.run() == "done"
        assert kernel.output == [60]
