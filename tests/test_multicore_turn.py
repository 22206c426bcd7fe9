"""Parity of the multicore engine's lock-step turn with its per-op paths.

``MulticoreEngine._turn`` keeps the busy cores' clocks and quanta, the op
count, ``self.time`` and the next event time in locals while it runs ops,
and hands control back to the scheduler only when scheduling can change.
Two oracles take the per-op paths instead. With an observer attached
(here one that records nothing) no op is pure and none is fused: every
op writes ``now``, re-reads the next event and re-checks its thread.
Stepped — ``run(stop_after=engine.time)`` until the requested stop —
the scheduler re-enters before every op (or fused block): it re-picks
the core from the written-back clocks and re-reads the next event.
Each case runs one engine all three ways and compares every core's
clock, quantum and thread, the engine's time, op count, ``now`` and
context switches, the contexts, memory, the acquisition / syscall /
signal logs, the verdict and the exception text exactly.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import AssemblerError, DeadlockError, GuestFault, SimulationError
from repro.exec.interpreter import pure_table
from repro.exec.multicore import MulticoreEngine, _pick
from repro.exec.services import LiveSyscalls
from repro.exec.trace import TraceObserver
from repro.isa.assembler import Assembler
from repro.isa.context import ThreadContext
from repro.isa.instructions import Instruction, Op
from repro.isa.program import ProgramImage
from repro.machine.config import MachineConfig
from repro.memory.address_space import AddressSpace
from repro.oskernel.kernel import Kernel, KernelSetup
from repro.oskernel.sync import SyncManager
from repro.oskernel.syscalls import SyscallKind
from repro.workloads import build_workload
from tests.conftest import barrier_program, counter_program, examples
from tests.test_property_structured import _stmt, build_structured
from tests.test_signals import timer_program
from tests.test_superblock_loops import FAULT_TEXT, threaded


class _Silent(TraceObserver):
    """Sees every op and records nothing: it only forces the per-op path."""

    def on_event(self, event) -> None:
        pass


def _boot(image, machine, setup=None, halt=False):
    log = []
    kernel = Kernel(setup or KernelSetup(), image.heap_base)
    engine = MulticoreEngine.boot(image, machine, LiveSyscalls(kernel, log))
    engine.halt_on_fault = halt
    return engine, log


def _state(engine, log, verdict, error):
    return {
        "cores": [(core.time, core.quantum_left, core.tid) for core in engine.cores],
        "time": engine.time,
        "ops": engine.ops,
        "now": engine.now,
        "context_switches": engine.context_switches,
        "contexts": [
            (engine.contexts[tid].state_tuple(), engine.contexts[tid].status.value)
            for tid in sorted(engine.contexts)
        ],
        "memory": engine.mem.content_hash(),
        "acquisitions": list(engine.acquisition_log),
        "syscalls": repr(log),
        "signals": list(engine.signal_log),
        "verdict": verdict,
        "error": error,
        "fault": None if engine.fault is None else str(engine.fault),
    }


def _step(engine) -> None:
    """Make ``engine.run`` re-enter the scheduler before every op."""
    run = engine.run

    def stepped(stop_after=None):
        while True:
            # ``self.time`` is reached already: one op (or block) runs.
            verdict = run(stop_after=engine.time)
            if verdict != "stopped":
                return verdict
            if stop_after is not None and engine.time >= stop_after:
                return verdict

    engine.run = stepped


def _run(build, drive, mode: str):
    engine, log = build()
    engine.acquisition_log = []
    engine.signal_log = []
    if mode == "observed":
        engine.observers.append(_Silent())
    elif mode == "stepped":
        _step(engine)
    verdict = error = None
    try:
        verdict = drive(engine)
    except (AssemblerError, GuestFault, SimulationError, DeadlockError) as exc:
        error = (type(exc).__name__, str(exc))
    return _state(engine, log, verdict, error)


def assert_turn_parity(build, drive=lambda engine: engine.run()):
    turn = _run(build, drive, "turn")
    assert turn == _run(build, drive, "observed")
    assert turn == _run(build, drive, "stepped")
    return turn


def _epochs(step: int):
    """Drive like the recorder: stop every ``step`` cycles, quiesce, go on."""

    def drive(engine):
        verdicts = []
        boundary = engine.time
        while True:
            boundary += step
            verdict = engine.run(stop_after=boundary)
            verdicts.append((verdict, engine.time))
            if verdict != "stopped":
                return verdicts
            engine.quiesce()
            engine.advance_all(7)

    return drive


# ----------------------------------------------------------------------
# The pick itself.
# ----------------------------------------------------------------------
def test_pick_takes_the_earliest_clock_and_the_lowest_cid_on_a_tie():
    assert _pick([5]) == (0, 1 << 62)
    assert _pick([5, 5]) == (0, 6)  # core 1 takes over once core 0 passes 5
    assert _pick([7, 5]) == (1, 7)  # core 0 takes over on reaching 7
    assert _pick([9, 4, 4, 4]) == (1, 5)
    assert _pick([4, 9, 3, 3]) == (2, 4)
    assert _pick([6, 9, 8, 3]) == (3, 6)


def test_pure_ops_only_lead_to_valid_pcs():
    """Pure: no scheduling effect, and every static successor indexes the
    table (its last entry covers a thread that ran off the end)."""
    code = (
        Instruction(Op.LI, 1, 5),
        Instruction(Op.JMP, 7),  # to the end: still an index of the table
        Instruction(Op.BLTI, 1, 9, 8),  # past the end
        Instruction(Op.RET),
        Instruction(Op.SYSCALL, 1, SyscallKind.PRINT, ()),
        Instruction(Op.LOCK, 1),
        Instruction(Op.EXIT),
    )
    image = ProgramImage(code=code, entry=0)
    assert pure_table(image) == (True, True, False, True, False, False, False, False)
    before_start = ProgramImage(code=(Instruction(Op.CALL, -1),), entry=0)
    assert pure_table(before_start) == (False, False)


def _twins():
    """Two threads restored at equal clocks, running identical code."""
    asm = Assembler(name="twins")
    with asm.function("main"):
        asm.li("r2", 0)
        asm.label("loop")
        asm.tid("r1")
        asm.work(3)
        asm.syscall("r3", SyscallKind.PRINT, args=["r1"])
        asm.addi("r2", "r2", 1)
        asm.blti("r2", 5, "loop")
        asm.exit_()
    image = asm.assemble()
    registers = [0] * image.register_count
    contexts = {
        tid: ThreadContext(tid=tid, pc=image.entry, registers=list(registers))
        for tid in (1, 2)
    }
    kernel = Kernel(KernelSetup(), image.heap_base)
    engine = MulticoreEngine.from_checkpoint(
        image,
        MachineConfig(cores=2),
        LiveSyscalls(kernel),
        AddressSpace.from_data(image.data).snapshot(),
        contexts,
        SyncManager().snapshot(),
        start_time=100,
    )
    return engine, kernel


@pytest.mark.parametrize("mode", ["turn", "observed", "stepped"])
def test_every_tie_goes_to_the_lower_cid(mode):
    """Lock-step twins tie before every op; core 0 (tid 1) always goes first."""
    engine, kernel = _twins()
    if mode == "observed":
        engine.observers.append(_Silent())
    elif mode == "stepped":
        _step(engine)
    assert engine.run() == "done"
    assert kernel.output == [1, 2] * 5


# ----------------------------------------------------------------------
# Cores, quanta, stops, budgets.
# ----------------------------------------------------------------------
PROGRAMS = {
    "counter": lambda: counter_program(workers=5, iters=12),
    "racy": lambda: counter_program(workers=5, iters=12, locked=False),
    "barrier": lambda: barrier_program(workers=4, phases=2),
    "loops": lambda: threaded("plain", 5),
}


@pytest.mark.parametrize("cores", [1, 2, 3, 4])
@pytest.mark.parametrize("program", sorted(PROGRAMS))
def test_more_threads_than_cores(cores, program):
    image = PROGRAMS[program]()
    machine = MachineConfig(cores=cores, quantum=50)
    state = assert_turn_parity(lambda: _boot(image, machine))
    assert state["verdict"] == "done"


@pytest.mark.parametrize("quantum", [9, 40, 111])
@pytest.mark.parametrize("program", ["loops", "counter"])
def test_quantum_with_a_thread_ready(quantum, program):
    image = PROGRAMS[program]()
    machine = MachineConfig(cores=2, quantum=quantum)
    state = assert_turn_parity(lambda: _boot(image, machine))
    assert state["verdict"] == "done"
    # Five workers on two cores: preemption rotates them, so there are
    # more context switches than with a quantum nothing ever spends.
    unbounded, _ = _boot(image, MachineConfig(cores=2, quantum=10**9))
    unbounded.run()
    assert state["context_switches"] >= unbounded.context_switches + 5


@pytest.mark.parametrize("stop_after", [0, 1, 97, 400, 784, 10**9])
def test_stop_after_before_inside_and_after_the_run(stop_after):
    image = PROGRAMS["loops"]()
    machine = MachineConfig(cores=3, quantum=40)

    def drive(engine):
        first = (engine.run(stop_after=stop_after), engine.time)
        # ``self.time >= stop_after`` already holds: exactly one op runs.
        ops = engine.ops
        again = (engine.run(stop_after=stop_after), engine.ops - ops)
        return first, again, engine.run()

    state = assert_turn_parity(lambda: _boot(image, machine), drive)
    first, again, last = state["verdict"]
    # the whole run ends at 785
    assert first[0] == ("done" if stop_after > 785 else "stopped")
    if first[0] == "stopped":
        assert again == ("stopped", 1)
    assert last == "done"


@pytest.mark.parametrize("step", [53, 400, 2500])
@pytest.mark.parametrize("program", ["counter", "barrier", "loops"])
def test_epoch_slices(step, program):
    image = PROGRAMS[program]()
    machine = MachineConfig(cores=2, quantum=60)
    assert_turn_parity(lambda: _boot(image, machine), _epochs(step))


@pytest.mark.parametrize("max_ops", [1, 31, 150, 555])
def test_max_ops(max_ops):
    image = PROGRAMS["counter"]()
    machine = MachineConfig(cores=2, quantum=50, max_ops=max_ops)
    state = assert_turn_parity(lambda: _boot(image, machine))
    assert state["error"][0] == "SimulationError"
    assert state["ops"] == max_ops + 1


# ----------------------------------------------------------------------
# Faults, signals, wakeups, locks, threads.
# ----------------------------------------------------------------------
@pytest.mark.parametrize("halt", [False, True])
@pytest.mark.parametrize("kind", ["div", "load"])
def test_faults(kind, halt):
    image = threaded(kind, 3)
    machine = MachineConfig(cores=2, quantum=45)
    state = assert_turn_parity(lambda: _boot(image, machine, halt=halt))
    text = FAULT_TEXT[kind]
    if halt:
        assert state["verdict"] == "faulted" and text in state["fault"]
    else:
        assert state["error"][0] == "GuestFault" and text in state["error"][1]


@pytest.mark.parametrize("delay", [1, 150, 300, 777])
@pytest.mark.parametrize("workers", [1, 2])
def test_timer_signal(delay, workers):
    """SETTIMER arms an event and the thread keeps running: the turn must
    see the new event time at once."""
    image = timer_program(workers=workers, delay=delay)
    state = assert_turn_parity(lambda: _boot(image, MachineConfig(cores=2)))
    assert len(state["signals"]) == 1


@pytest.mark.parametrize("cores", [2, 3])
def test_sleep_wakeup(cores):
    image = threaded("plain", 2, sleeper=True)
    assert_turn_parity(lambda: _boot(image, MachineConfig(cores=cores)))


def test_network_arrivals():
    instance = build_workload("apache", workers=2, scale=3, seed=5)
    machine = MachineConfig(cores=2)
    state = assert_turn_parity(
        lambda: _boot(instance.image, machine, instance.setup), _epochs(3000)
    )
    assert state["verdict"][-1][0] == "done"


@pytest.mark.parametrize("cores", [2, 3, 4])
def test_contended_lock(cores):
    image = counter_program(workers=4, iters=15)
    machine = MachineConfig(cores=cores, quantum=30)
    state = assert_turn_parity(lambda: _boot(image, machine))
    assert state["acquisitions"], "no lock was taken: the comparison is vacuous"


def test_spawn_join_exit():
    """Nested spawns: every thread spawns a child, joins it and exits."""
    asm = Assembler(name="tree")
    asm.word("count", 0)
    with asm.function("leaf"):
        asm.work(30)
        asm.li("r1", 1)
        asm.li("r2", "count")
        asm.fetchadd("r3", "r2", 0, "r1")
        asm.exit_()
    with asm.function("mid"):
        asm.spawn("r5", "leaf")
        asm.spawn("r6", "leaf")
        asm.work(10)
        asm.join("r5")
        asm.join("r6")
        asm.exit_()
    with asm.function("main"):
        for index in range(3):
            asm.spawn(f"r{10 + index}", "mid")
        for index in range(3):
            asm.join(f"r{10 + index}")
        asm.loadg("r1", "count")
        asm.syscall("r2", SyscallKind.PRINT, args=["r1"])
        asm.exit_()
    image = asm.assemble()
    for cores in (1, 2, 4):
        state = assert_turn_parity(lambda: _boot(image, MachineConfig(cores=cores)))
        assert state["verdict"] == "done"


def test_a_turn_spans_many_ops(monkeypatch):
    """The point of the turn: far fewer scheduler rounds than ops."""
    entries = []
    real = MulticoreEngine._turn

    def counting(self, busy, stop):
        entries.append(len(busy))
        return real(self, busy, stop)

    monkeypatch.setattr(MulticoreEngine, "_turn", counting)
    engine, _ = _boot(PROGRAMS["loops"](), MachineConfig(cores=2))
    engine.run()
    assert len(entries) * 20 < engine.ops


def _branch_out(target: int, conditional: bool):
    """Two workers loop over a block closed by a branch to ``target``.

    The assembler resolves labels in range, so the branch is patched in
    afterwards; taking it leaves the code, and the next op must fault.
    Conditional, the loop runs long enough for its block to compile.
    """
    asm = Assembler(name="branch-out")
    with asm.function("worker"):
        asm.li("r2", 0)
        asm.label("loop")
        asm.addi("r2", "r2", 1)
        asm.work(3)
        asm.addi("r4", "r4", 2)
        if conditional:
            asm.bgei("r2", 12, "out")
            asm.jmp("loop")
        else:
            asm.jmp("out")
        asm.label("out")
        asm.exit_()
    with asm.function("main"):
        asm.spawn("r20", "worker")
        asm.spawn("r21", "worker")
        asm.join("r20")
        asm.join("r21")
        asm.exit_()
    image = asm.assemble()
    code = list(image.code)
    op = Op.BGEI if conditional else Op.JMP
    (pc,) = [pc for pc, instr in enumerate(code) if instr.op is op]
    field = "c" if conditional else "a"
    code[pc] = dataclasses.replace(code[pc], **{field: target})
    return dataclasses.replace(image, code=tuple(code))


@pytest.mark.parametrize("conditional", [False, True])
@pytest.mark.parametrize("target", [-1, 9999])
def test_a_branch_out_of_the_code_faults_at_the_next_op(target, conditional):
    image = _branch_out(target, conditional)
    state = assert_turn_parity(lambda: _boot(image, MachineConfig(cores=2)))
    assert state["error"] == (
        "AssemblerError",
        f"pc {target} outside program of {len(image.code)} instructions",
    )


# ----------------------------------------------------------------------
# Generated programs.
# ----------------------------------------------------------------------
@settings(max_examples=examples(40), deadline=None)
@given(
    statements=st.lists(_stmt, min_size=1, max_size=4),
    workers=st.integers(min_value=2, max_value=5),
    cores=st.integers(min_value=2, max_value=4),
    quantum=st.sampled_from([7, 60, 600]),
    step=st.sampled_from([0, 211, 1300]),
)
def test_structured_programs(statements, workers, cores, quantum, step):
    image = build_structured(statements, workers)
    machine = MachineConfig(cores=cores, quantum=quantum)
    drive = _epochs(step) if step else (lambda engine: engine.run())
    assert_turn_parity(lambda: _boot(image, machine), drive)
