"""Regression tests for operations straddling epoch boundaries.

The trickiest part of retired-op-count epoch boundaries is an op that the
thread-parallel run *issued* (or was even granted) before the boundary but
that retires after it: barrier arrivals (arrival counts others wait on),
condition waits (the atomic mutex release), lock/semaphore grants held in
flight. Each case below pins a configuration that historically stalled or
diverged spuriously before the corresponding fix.
"""

import json

import pytest

from repro.core import DoublePlayConfig, DoublePlayRecorder, Replayer
from repro.isa.assembler import Assembler
from repro.machine.config import MachineConfig
from repro.oskernel.kernel import KernelSetup
from repro.oskernel.syscalls import SyscallKind
from repro.workloads import build_workload


def record_clean(name, workers, scale, epoch_divisor=14, seed=1):
    instance = build_workload(name, workers=workers, scale=scale, seed=seed)
    machine = MachineConfig(cores=workers)
    from repro.baselines import run_native

    native = run_native(instance.image, instance.setup, machine)
    config = DoublePlayConfig(
        machine=machine,
        epoch_cycles=max(native.duration // epoch_divisor, 500),
    )
    result = DoublePlayRecorder(instance.image, instance.setup, config).record()
    replayer = Replayer(instance.image, machine)
    assert result.recording.divergences() == 0, (
        f"{name} W={workers} scale={scale}: spurious divergence"
    )
    assert instance.validate(
        result.committed_kernel(instance.setup, instance.image.heap_base)
    )
    assert replayer.replay_sequential(result.recording).verified
    assert replayer.replay_parallel(result.recording).verified
    return result


def generation_program(waiters, rounds=8):
    """``waiters`` threads wait out ``rounds`` generations of a counter.

    Each waiter ``condwait``s under ``mutex`` until ``generation`` moves
    past the one it last saw; ``main`` bumps it under the mutex and
    ``condbcast``s every round, so one broadcast wakes them all.
    """
    asm = Assembler(name="cond-generations")
    asm.word("generation", 0)
    asm.word("mutex", 0)
    asm.word("cond", 0)
    with asm.function("waiter"):
        asm.li("r3", "mutex")
        asm.li("r4", "cond")
        asm.li("r2", 0)
        asm.label("round")
        asm.lock("r3")
        asm.label("check")
        asm.loadg("r5", "generation")
        asm.bne("r5", "r2", "woken")
        asm.condwait("r4", "r3")
        asm.jmp("check")
        asm.label("woken")
        asm.mov("r2", "r5")
        asm.unlock("r3")
        asm.work(20)
        asm.blti("r2", rounds, "round")
        asm.exit_()
    with asm.function("main"):
        for waiter in range(waiters):
            asm.spawn(f"r{10 + waiter}", "waiter")
        asm.li("r3", "mutex")
        asm.li("r4", "cond")
        asm.li("r6", 0)
        asm.label("bump")
        asm.work(60)
        asm.lock("r3")
        asm.loadg("r5", "generation")
        asm.addi("r5", "r5", 1)
        asm.storeg("r5", "generation")
        asm.condbcast("r4")
        asm.unlock("r3")
        asm.addi("r6", "r6", 1)
        asm.blti("r6", rounds, "bump")
        for waiter in range(waiters):
            asm.join(f"r{10 + waiter}")
        asm.loadg("r2", "generation")
        asm.syscall("r3", SyscallKind.PRINT, args=["r2"])
        asm.exit_()
    return asm.assemble()


class TestCondwaitStraddle:
    @pytest.mark.parametrize("workers,waiters", [(2, 3), (2, 5), (4, 3), (4, 5)])
    def test_broadcast_wakes_waiters_parked_across_boundaries(self, workers, waiters):
        """A ``condbcast`` in the epoch after the boundary its waiters
        were parked at: no divergence, the same recording at ``jobs`` 1
        and 2, and both replays verify."""
        image, machine = generation_program(waiters), MachineConfig(cores=workers)
        recordings = []
        for jobs in (1, 2):
            config = DoublePlayConfig(machine=machine, epoch_cycles=150, host_jobs=jobs)
            recording = DoublePlayRecorder(image, KernelSetup(), config).record().recording
            recordings.append(json.dumps(recording.to_plain(), sort_keys=True))
        assert recording.divergences() == 0 and recordings[0] == recordings[1]
        parked = [
            epoch.index
            for epoch in recording.epochs
            for ctx in epoch.start_checkpoint.contexts.values()
            if ctx.blocked is not None and ctx.blocked.kind == "cond"
        ]
        assert parked, "no boundary fell while a waiter waited for a broadcast"
        replayer = Replayer(image, machine)
        assert replayer.replay_sequential(recording).verified
        assert replayer.replay_parallel(recording).verified

    def test_grant_pending_condwait_at_boundary(self):
        """A consumer granted its cond-reacquire right at a boundary must
        still *issue* the condwait in the epoch run (releasing the mutex),
        or producers stall behind a parked lock holder. (prodcons, W=3,
        scale=2 historically deadlocked the epoch executor.)"""
        record_clean("prodcons", workers=3, scale=2)

    def test_condvar_suite_across_configs(self):
        for workers in (2, 4):
            for scale in (1, 3):
                record_clean("prodcons", workers=workers, scale=scale)


class TestSemaphoreStraddle:
    def test_inherited_token_does_not_eat_future_turns(self):
        """A semaphore token granted before an epoch's capture begins must
        not consume the thread's *next* acquisition from the hint suffix.
        (prodcons-sem, W=3 historically stalled on exactly this.)"""
        record_clean("prodcons-sem", workers=3, scale=3)

    def test_take_drains_deferred_turns(self):
        """A successful P() advances the order; an already-deferred thread
        whose turn arrives must be granted from banked tokens. (W=4
        epoch 0 historically deadlocked with all threads deferred.)"""
        record_clean("prodcons-sem", workers=4, scale=3)


class TestBarrierStraddle:
    def test_grant_pending_barrier_arrivals(self):
        """Barrier release grants held across boundaries (water exercises
        arrivals straddling epochs heavily at short epoch lengths)."""
        record_clean("water", workers=3, scale=2, epoch_divisor=20)

    def test_fft_short_epochs(self):
        record_clean("fft", workers=4, scale=2, epoch_divisor=24)


class TestJoinAndIoStraddle:
    def test_join_granted_at_boundary(self):
        """Main's join grant straddling a boundary (fft, many epochs)."""
        record_clean("fft", workers=3, scale=1, epoch_divisor=10)

    def test_blocked_accept_across_boundaries(self):
        """Server workers blocked in the kernel across several epochs."""
        record_clean("apache", workers=3, scale=2, epoch_divisor=16)
