"""Bound-by-bound parity of looping superblocks.

A block now ends *with* its closing branch, and a block whose branch
targets its own head (a bottom-tested loop) iterates inside one fused
frame. Every engine bound must therefore stop a fused run at the very op
the generic loop stops at. Each case below runs one hand-assembled loop
on one engine twice — fusion on, and with ``REPRO_SUPERBLOCKS=0`` — and
compares pc, retired count, registers, status, memory, engine time,
``ops``, the run's result and the exception (the faulting op's message)
exactly.
"""

from __future__ import annotations

import pytest

from repro.errors import DivergenceSignal, GuestFault, SimulationError
from repro.exec.multicore import MulticoreEngine
from repro.exec.services import LiveSyscalls
from repro.exec.uniprocessor import UniprocessorEngine
from repro.isa.assembler import Assembler
from repro.isa.blocks import discover_blocks
from repro.machine.config import MachineConfig
from repro.memory.layout import PAGE_WORDS
from repro.obs import metrics as obs_metrics
from repro.oskernel.kernel import Kernel, KernelSetup
from repro.oskernel.syscalls import SyscallKind
from repro.record.schedule_log import ScheduleLog, Timeslice

ITERS = 60
#: the iteration a faulting loop faults in
FAULT_AT = 30


def _loop(asm: Assembler, kind: str) -> None:
    """One bottom-tested loop of ``ITERS`` iterations over r1."""
    asm.li("r1", 0)
    asm.li("r2", 0)
    if kind in ("cow", "load", "cowread"):
        asm.li("r4", "buf")
    elif kind == "twopages":
        asm.li("r4", "pa")
        asm.li("r9", "pb")
    asm.label("loop")
    asm.addi("r1", "r1", 1)
    if kind == "plain":
        asm.add("r2", "r2", "r1")
        asm.muli("r3", "r2", 3)
    elif kind == "cow":
        # WORKR's cost is dynamic; a store to a page the snapshot still
        # shares copies it on write (also a dynamic cost).
        asm.workr("r1")
        asm.muli("r5", "r1", PAGE_WORDS // 4)
        asm.add("r5", "r5", "r4")
        asm.store("r1", "r5", 0)
        asm.add("r2", "r2", "r1")
    elif kind == "div":
        asm.li("r6", FAULT_AT)
        asm.sub("r6", "r6", "r1")
        asm.div("r7", "r1", "r6")  # r6 == 0 in iteration FAULT_AT
        asm.add("r2", "r2", "r7")
    elif kind == "load":
        asm.muli("r5", "r1", PAGE_WORDS)
        asm.add("r5", "r5", "r4")
        asm.load("r7", "r5", 0)  # past the array in iteration FAULT_AT
        asm.add("r2", "r2", "r7")
    elif kind == "cowread":
        # One page A per pass: read it (the read TLB takes the shared
        # page), store to it (copy-on-write swaps the page), read the
        # store back (the read TLB must follow the copy), then a
        # write-TLB hit and its read-back.
        asm.muli("r5", "r1", PAGE_WORDS)
        asm.add("r5", "r5", "r4")
        asm.load("r7", "r5", 0)
        asm.store("r1", "r5", 1)
        asm.load("r8", "r5", 1)
        asm.addi("r8", "r8", 5)
        asm.store("r8", "r5", 2)
        asm.load("r7", "r5", 2)
        asm.add("r2", "r2", "r7")
    elif kind == "twopages":
        # every memory op turns to the other page, so almost every one
        # misses its TLB
        asm.loadg("r5", "pa")
        asm.load("r6", "r9", 1)
        asm.store("r1", "r4", 1)
        asm.storeg("r5", "pb")
        asm.load("r7", "r4", 1)
        asm.loadg("r8", "pb")
        asm.add("r2", "r2", "r7")
        asm.storeg("r2", "pa")
    asm.blti("r1", ITERS, "loop")


def _data(asm: Assembler, kind: str) -> None:
    if kind == "cow":
        asm.page_aligned_array("buf", (ITERS + 4) * PAGE_WORDS // 4 + 1)
    elif kind == "load":
        # pages 0 .. FAULT_AT - 1 past ``buf`` are mapped, FAULT_AT is not
        asm.page_aligned_array("buf", FAULT_AT * PAGE_WORDS, fill=7)
    elif kind == "cowread":
        asm.page_aligned_array("buf", (ITERS + 1) * PAGE_WORDS, fill=3)
    elif kind == "twopages":
        asm.page_aligned_array("pa", PAGE_WORDS, fill=1)
        asm.page_aligned_array("pb", PAGE_WORDS, fill=2)


def single(kind: str):
    asm = Assembler(name=f"loop-{kind}")
    _data(asm, kind)
    with asm.function("main"):
        _loop(asm, kind)
        asm.exit_()
    return asm.assemble()


def threaded(kind: str, workers: int, sleeper: bool = False):
    """``workers`` threads each run the loop; main joins them.

    With ``sleeper`` main sleeps (a SLEEP syscall, so a kernel wakeup is
    pending) between spawning and joining.
    """
    asm = Assembler(name=f"loops-{kind}-{workers}")
    _data(asm, kind)
    with asm.function("worker"):
        _loop(asm, kind)
        asm.exit_()
    with asm.function("main"):
        for index in range(workers):
            asm.spawn(f"r{20 + index}", "worker")
        if sleeper:
            for nap in (37, 53, 11):
                asm.li("r10", nap)
                asm.syscall("r11", SyscallKind.SLEEP, args=["r10"])
        for index in range(workers):
            asm.join(f"r{20 + index}")
        asm.exit_()
    return asm.assemble()


def _boot(cls, image, machine, share_pages: bool):
    kernel = Kernel(KernelSetup(), image.heap_base)
    engine = cls.boot(image, machine, LiveSyscalls(kernel))
    if share_pages:
        # A live snapshot keeps every page shared, so the loop's first
        # store to each page copies it (charged page_cow_copy).
        engine._pinned = engine.mem.snapshot()
    return engine


def _state(engine, outcome, error):
    contexts = tuple(
        (tid, ctx.pc, ctx.retired, tuple(ctx.registers), ctx.status.value)
        for tid, ctx in sorted(engine.contexts.items())
    )
    cores = tuple(core.time for core in getattr(engine, "cores", ()))
    return {
        "contexts": contexts,
        "time": engine.time,
        "ops": engine.ops,
        "cores": cores,
        "memory": engine.mem.content_hash(),
        "cow_copies": engine.mem.cow_copies,
        "outcome": outcome,
        "error": error,
    }


def _fused(counter: str = "fused_ops") -> int:
    return obs_metrics.process_stats().snapshot().get(f"superblock.{counter}", 0)


def _run(monkeypatch, fused: bool, build, drive):
    """Build an engine (fusion on or off), drive it, snapshot the result."""
    with monkeypatch.context() as patch:
        if not fused:
            patch.setenv("REPRO_SUPERBLOCKS", "0")
        engine = build()
    assert (engine.fused is not None) == fused
    for site in engine.fused or ():
        if site is not None:
            # compiled up front, so even the shortest bound meets a handler
            site.compile()
    before = _fused()
    outcome = error = None
    try:
        outcome = drive(engine)
    except (GuestFault, SimulationError, DivergenceSignal) as exc:
        error = (type(exc).__name__, str(exc))
    return _state(engine, outcome, error), _fused() - before


def assert_parity(monkeypatch, build, drive, expect_error=None):
    on, fused_ops = _run(monkeypatch, True, build, drive)
    off, unfused_ops = _run(monkeypatch, False, build, drive)
    assert on == off
    assert fused_ops > 0, "fusion never ran: the comparison is vacuous"
    assert unfused_ops == 0
    if expect_error is not None:
        assert on["error"] is not None and expect_error in on["error"][1]
    return on


KINDS = ["plain", "cow", "div", "load"]
FAULT_TEXT = {"div": "division by zero", "load": "unmapped address"}


def test_loop_blocks_end_with_their_branch():
    for kind in KINDS:
        image = single(kind)
        loops = [
            instrs for start, instrs in discover_blocks(image.code).items()
            if instrs[-1].op.name == "BLTI" and instrs[-1].c == start
        ]
        assert len(loops) == 1, kind


def test_self_loops_iterate_inside_one_frame(monkeypatch):
    image = single("plain")
    machine = MachineConfig(cores=1)
    calls, ops = _fused("fused_calls"), _fused()
    _boot(UniprocessorEngine, image, machine, False).run()
    calls, ops = _fused("fused_calls") - calls, _fused() - ops
    # the loop body is 4 ops; one call retired many iterations
    assert calls and ops >= 10 * 4 * calls


@pytest.mark.parametrize("kind", ["cowread", "twopages"])
@pytest.mark.parametrize("engine", ["uni", "uni-shared", "multicore-shared"])
def test_inline_tlb_edges(monkeypatch, kind, engine):
    """Fused loads and stores hit the software TLB inline: a copy-on-write
    earlier in the same pass, and a page switch at every op, read and
    write exactly what the unfused ops do."""
    share = engine.endswith("shared")
    if engine.startswith("multicore"):
        image, cls = threaded(kind, 2), MulticoreEngine
        machine = MachineConfig(cores=2, quantum=90)
    else:
        image, cls = single(kind), UniprocessorEngine
        machine = MachineConfig(cores=1)
    state = assert_parity(
        monkeypatch,
        lambda: _boot(cls, image, machine, share),
        lambda e: e.run() if cls is MulticoreEngine else _capture(e),
    )
    if share:
        assert state["cow_copies"] > 0


# ----------------------------------------------------------------------
# Replay: every slice length stops a fused loop mid-iteration somewhere.
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("pattern", [(9,), (3, 11, 2), (5, 13, 4, 9), (29,)])
def test_replay_slice_lengths(monkeypatch, kind, pattern):
    image = single(kind)
    machine = MachineConfig(cores=1)
    probe = _boot(UniprocessorEngine, image, machine, kind == "cow")
    try:
        probe.run()
        limit = probe.contexts[1].retired - 1  # every op before EXIT
    except GuestFault:
        limit = 8 * ITERS  # the replay faults before it gets there
    slices = []
    total = 0
    while total + pattern[len(slices) % len(pattern)] <= limit:
        ops = pattern[len(slices) % len(pattern)]
        slices.append(Timeslice(tid=1, ops=ops))
        total += ops
    schedule = ScheduleLog(tuple(slices))
    assert_parity(
        monkeypatch,
        lambda: _boot(UniprocessorEngine, image, machine, kind == "cow"),
        lambda e: e.run_schedule(schedule),
        expect_error=FAULT_TEXT.get(kind),
    )


@pytest.mark.parametrize("kind", ["plain", "cow"])
def test_replay_of_a_captured_interleaving(monkeypatch, kind):
    image = threaded(kind, 2)
    machine = MachineConfig(cores=1, quantum=41)
    recorder = _boot(UniprocessorEngine, image, machine, kind == "cow")
    schedule = recorder.run().schedule
    state = assert_parity(
        monkeypatch,
        lambda: _boot(UniprocessorEngine, image, machine, kind == "cow"),
        lambda e: e.run_schedule(schedule),
    )
    assert state["time"] == recorder.time


# ----------------------------------------------------------------------
# Epoch mode: target, op budget, quantum, stop_after.
# ----------------------------------------------------------------------
def _capture(engine):
    return engine.run().schedule.to_plain()


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("target", [17, 50, 123, 201])
def test_epoch_target(monkeypatch, kind, target):
    image = single(kind)
    machine = MachineConfig(cores=1)

    def build():
        engine = _boot(UniprocessorEngine, image, machine, kind == "cow")
        engine.targets = {1: target}
        return engine

    assert_parity(monkeypatch, build, _capture)


@pytest.mark.parametrize("kind", ["plain", "cow"])
@pytest.mark.parametrize("budget_target", [10, 37, 50])
def test_epoch_op_budget(monkeypatch, kind, budget_target):
    """A thread without a target runs until the op budget trips."""
    image = single(kind)
    machine = MachineConfig(cores=1)

    def build():
        engine = _boot(UniprocessorEngine, image, machine, kind == "cow")
        # budget = 2 * budget_target + 128, and main (no target) trips it
        engine.targets = {999: budget_target}
        return engine

    assert_parity(monkeypatch, build, _capture, expect_error="op budget")


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("quantum", [7, 23, 64, 150])
def test_epoch_quantum(monkeypatch, kind, quantum):
    image = threaded(kind, 2)
    machine = MachineConfig(cores=1, quantum=quantum)
    assert_parity(
        monkeypatch,
        lambda: _boot(UniprocessorEngine, image, machine, kind == "cow"),
        _capture,
        expect_error=FAULT_TEXT.get(kind),
    )


@pytest.mark.parametrize("kind", ["plain", "cow"])
@pytest.mark.parametrize("stop_after", [190, 333, 700, 1201])
def test_epoch_stop_after(monkeypatch, kind, stop_after):
    image = threaded(kind, 2)
    machine = MachineConfig(cores=1, quantum=200)
    assert_parity(
        monkeypatch,
        lambda: _boot(UniprocessorEngine, image, machine, kind == "cow"),
        lambda e: e.run(stop_after=stop_after).schedule.to_plain(),
    )


# ----------------------------------------------------------------------
# Multicore: the runner-up core, a SLEEP wakeup, the quantum with a
# thread ready.
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("stop_after", [None, 150, 411, 950])
def test_multicore_runner_up(monkeypatch, kind, stop_after):
    image = threaded(kind, 2)
    machine = MachineConfig(cores=3)
    assert_parity(
        monkeypatch,
        lambda: _boot(MulticoreEngine, image, machine, kind == "cow"),
        lambda e: e.run(stop_after=stop_after),
        expect_error=FAULT_TEXT.get(kind) if stop_after is None else None,
    )


@pytest.mark.parametrize("kind", ["plain", "cow"])
def test_multicore_sleep_wakeup(monkeypatch, kind):
    image = threaded(kind, 1, sleeper=True)
    machine = MachineConfig(cores=2)
    assert_parity(
        monkeypatch,
        lambda: _boot(MulticoreEngine, image, machine, kind == "cow"),
        lambda e: e.run(),
    )


@pytest.mark.parametrize("kind", ["plain", "cow", "div"])
@pytest.mark.parametrize("quantum", [9, 40, 111])
def test_multicore_quantum_with_a_thread_ready(monkeypatch, kind, quantum):
    image = threaded(kind, 3)
    machine = MachineConfig(cores=2, quantum=quantum)
    assert_parity(
        monkeypatch,
        lambda: _boot(MulticoreEngine, image, machine, kind == "cow"),
        lambda e: e.run(),
        expect_error=FAULT_TEXT.get(kind),
    )


# ----------------------------------------------------------------------
# max_ops, on every engine.
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kind", ["plain", "cow"])
@pytest.mark.parametrize("max_ops", [31, 88, 150])
def test_max_ops_on_every_engine(monkeypatch, kind, max_ops):
    machine = MachineConfig(cores=2, quantum=50, max_ops=max_ops)
    image = threaded(kind, 2)
    for cls in (MulticoreEngine, UniprocessorEngine):
        assert_parity(
            monkeypatch,
            lambda: _boot(cls, image, machine, kind == "cow"),
            lambda e: e.run() if cls is MulticoreEngine else _capture(e),
            expect_error="exceeded",
        )
    single_image = single(kind)
    schedule = ScheduleLog((Timeslice(tid=1, ops=10 * ITERS),))
    assert_parity(
        monkeypatch,
        lambda: _boot(UniprocessorEngine, single_image, machine, kind == "cow"),
        lambda e: e.run_schedule(schedule),
        expect_error="exceeded",
    )
