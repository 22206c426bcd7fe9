"""Uniprocessor engine: capture, targets/parking, enforce-mode replay."""

import pytest

from repro.errors import DeadlockError, DivergenceSignal, ReplayError
from repro.exec.services import InjectedSyscalls
from repro.exec.uniprocessor import UniprocessorEngine
from repro.isa.assembler import Assembler
from repro.isa.context import ThreadStatus
from repro.machine.config import MachineConfig
from repro.record.schedule_log import ScheduleLog, Timeslice
from tests.conftest import boot_uniprocessor, counter_program, barrier_program


class TestCapture:
    def test_runs_to_completion(self):
        image = counter_program(workers=2, iters=10)
        engine, kernel = boot_uniprocessor(image, MachineConfig(cores=1))
        outcome = engine.run()
        assert outcome.status == "complete"
        assert kernel.output == [20]

    def test_schedule_total_ops_matches_retired(self):
        image = counter_program(workers=2, iters=10)
        engine, _ = boot_uniprocessor(image, MachineConfig(cores=1))
        outcome = engine.run()
        total_retired = sum(ctx.retired for ctx in engine.contexts.values())
        assert outcome.schedule.total_ops() == total_retired

    def test_schedule_interleaves_threads(self):
        image = counter_program(workers=2, iters=40)
        engine, _ = boot_uniprocessor(image, MachineConfig(cores=1))
        outcome = engine.run()
        tids = {s.tid for s in outcome.schedule}
        assert {1, 1025, 1026} <= tids

    def test_capture_is_deterministic(self):
        image = counter_program(workers=2, iters=15)
        a, _ = boot_uniprocessor(image, MachineConfig(cores=1))
        b, _ = boot_uniprocessor(image, MachineConfig(cores=1))
        assert a.run().schedule.to_plain() == b.run().schedule.to_plain()
        assert a.state_digest() == b.state_digest()

    def test_quantum_changes_schedule(self):
        image = counter_program(workers=2, iters=40)
        a, _ = boot_uniprocessor(image, MachineConfig(cores=1, quantum=100))
        b, _ = boot_uniprocessor(image, MachineConfig(cores=1, quantum=2000))
        sched_a = a.run().schedule
        sched_b = b.run().schedule
        assert len(sched_a) > len(sched_b)
        # ...but the final program state is identical for this data-race-free
        # program? No: lock-observation registers differ by schedule. Memory
        # output (the counter) does match:
        addr = image.address_of("counter")
        assert a.mem.read(addr) == b.mem.read(addr) == 80

    def test_deadlock_raises(self):
        asm = Assembler()
        asm.word("m", 0)
        with asm.function("child"):
            asm.li("r1", "m")
            asm.lock("r1")  # parent holds it forever
            asm.exit_()
        with asm.function("main"):
            asm.li("r1", "m")
            asm.lock("r1")
            asm.spawn("r2", "child")
            asm.join("r2")
            asm.exit_()
        engine, _ = boot_uniprocessor(asm.assemble(), MachineConfig(cores=1))
        with pytest.raises(DeadlockError):
            engine.run()

    def test_stop_check(self):
        image = counter_program(workers=2, iters=50)
        engine, _ = boot_uniprocessor(image, MachineConfig(cores=1))
        outcome = engine.run(stop_after=1000)
        assert outcome.status == "stopped"
        assert engine.time >= 1000

    def test_barrier_program_completes(self):
        image = barrier_program(workers=2, phases=3)
        engine, kernel = boot_uniprocessor(image, MachineConfig(cores=1))
        assert engine.run().status == "complete"
        # sum after 3 rounds of x -> 2x+1 on [1..8]
        expected = sum(((v * 2 + 1) * 2 + 1) * 2 + 1 for v in range(1, 9))
        assert kernel.output == [expected]


class TestTargets:
    def _start_and_boundary(self, iters=40):
        """Capture a mid-run boundary by running a twin engine."""
        image = counter_program(workers=2, iters=iters)
        probe, _ = boot_uniprocessor(image, MachineConfig(cores=1))
        probe.run(stop_after=1500)
        targets = {tid: ctx.retired for tid, ctx in probe.contexts.items()}
        return image, targets

    def test_threads_park_exactly_at_targets(self):
        image, targets = self._start_and_boundary()
        engine, _ = boot_uniprocessor(image, MachineConfig(cores=1))
        engine.targets = targets
        outcome = engine.run()
        assert outcome.status == "complete"
        for tid, ctx in engine.contexts.items():
            assert ctx.retired == targets[tid]

    def test_divergent_targets_stall(self):
        """Impossible targets (thread can't reach) raise DivergenceSignal."""
        image = counter_program(workers=1, iters=2)
        engine, _ = boot_uniprocessor(image, MachineConfig(cores=1))
        engine.targets = {1: 10_000, 1025: 10_000}
        with pytest.raises(DivergenceSignal):
            engine.run()

    def test_unexpected_spawn_is_divergence(self):
        image = counter_program(workers=2, iters=2)
        engine, _ = boot_uniprocessor(image, MachineConfig(cores=1))
        engine.targets = {1: 100, 1025: 100}  # 1026 missing
        with pytest.raises(DivergenceSignal):
            engine.run()


class TestEnforce:
    def test_replaying_own_capture_reaches_same_state(self):
        image = counter_program(workers=2, iters=20)
        rec, _ = boot_uniprocessor(image, MachineConfig(cores=1))
        outcome = rec.run()
        digest = rec.state_digest()

        rep, _ = boot_uniprocessor(image, MachineConfig(cores=1))
        rep.run_schedule(outcome.schedule)
        assert rep.state_digest() == digest

    def test_replay_with_different_quantum_config_still_exact(self):
        """Enforce mode ignores its own quantum: the log rules."""
        image = counter_program(workers=2, iters=20)
        rec, _ = boot_uniprocessor(image, MachineConfig(cores=1, quantum=150))
        outcome = rec.run()
        rep, _ = boot_uniprocessor(image, MachineConfig(cores=1, quantum=9999))
        rep.run_schedule(outcome.schedule)
        assert rep.state_digest() == rec.state_digest()

    def test_unknown_thread_in_schedule(self):
        image = counter_program(workers=1, iters=1)
        rep, _ = boot_uniprocessor(image, MachineConfig(cores=1))
        with pytest.raises(ReplayError):
            rep.run_schedule(ScheduleLog((Timeslice(tid=777, ops=1),)))

    def test_overlong_slice_detected(self):
        image = counter_program(workers=1, iters=1)
        rep, _ = boot_uniprocessor(image, MachineConfig(cores=1))
        with pytest.raises(ReplayError):
            rep.run_schedule(ScheduleLog((Timeslice(tid=1, ops=10_000),)))

    def test_fabricated_blocking_issue_detected(self):
        """A slice claiming the thread blocks where it cannot."""
        asm = Assembler()
        with asm.function("main"):
            asm.nop()
            asm.nop()
            asm.exit_()
        rep, _ = boot_uniprocessor(asm.assemble(), MachineConfig(cores=1))
        with pytest.raises(ReplayError):
            rep.run_schedule(
                ScheduleLog((Timeslice(tid=1, ops=1, ended_blocked=True),))
            )


class TestInjectedSyscalls:
    def test_time_values_replay_from_log(self):
        """TIME results must come from the log, not the replay clock."""
        from repro.oskernel.syscalls import SyscallKind

        asm = Assembler()
        with asm.function("main"):
            asm.work(500)
            asm.syscall("r1", SyscallKind.TIME, args=[])
            asm.exit_()
        image = asm.assemble()
        log = []
        rec, _ = boot_uniprocessor(image, MachineConfig(cores=1), log=log)
        outcome = rec.run()
        recorded_time = rec.contexts[1].registers[1]
        assert recorded_time >= 500

        injector = InjectedSyscalls(log)
        rep = UniprocessorEngine.boot(image, MachineConfig(cores=1), injector)
        rep.run_schedule(outcome.schedule)
        assert rep.contexts[1].registers[1] == recorded_time

    def test_log_exhaustion_parks_thread(self):
        from repro.oskernel.syscalls import SyscallKind

        asm = Assembler()
        with asm.function("main"):
            asm.syscall("r1", SyscallKind.TIME, args=[])
            asm.exit_()
        image = asm.assemble()
        engine = UniprocessorEngine.boot(
            image, MachineConfig(cores=1), InjectedSyscalls([])
        )
        with pytest.raises(DeadlockError):
            engine.run()
        assert engine.contexts[1].status == ThreadStatus.BLOCKED

    def test_kind_mismatch_raises_divergence(self):
        from repro.oskernel.syscalls import SyscallKind, SyscallRecord

        asm = Assembler()
        with asm.function("main"):
            asm.syscall("r1", SyscallKind.TIME, args=[])
            asm.exit_()
        image = asm.assemble()
        wrong = [SyscallRecord(tid=1, seq=0, kind=SyscallKind.RAND, retval=5)]
        engine = UniprocessorEngine.boot(
            image, MachineConfig(cores=1), InjectedSyscalls(wrong)
        )
        with pytest.raises(DivergenceSignal):
            engine.run()
