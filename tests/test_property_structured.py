"""Property test: random *structured* programs through the full pipeline.

Complements ``test_property_record_replay`` (flat action sequences) with
hypothesis-generated nested control flow — loops inside conditionals
inside critical sections — built with :class:`GuestBuilder`. Branch
conditions read shared lock-protected state, so thread control flow
genuinely depends on the interleaving, which is the hardest case for
epoch-boundary bookkeeping (different paths = different retired-op
meanings).
"""

from __future__ import annotations

import dataclasses
import json

from hypothesis import given, settings, strategies as st

from repro import options
from repro.core import DoublePlayConfig, DoublePlayRecorder, Replayer
from repro.isa.assembler import Assembler
from repro.isa.builder import GuestBuilder
from repro.machine.config import MachineConfig
from repro.oskernel.kernel import KernelSetup
from tests.conftest import examples

# A structured statement tree. Leaves are safe actions; interior nodes are
# control-flow constructs.
_leaf = st.one_of(
    st.tuples(st.just("work"), st.integers(min_value=1, max_value=25)),
    st.tuples(st.just("inc_shared")),     # lock-protected shared += 1
    st.tuples(st.just("atomic_bump")),    # fetchadd on a counter
    st.tuples(st.just("read_shared")),    # lock-protected read into private
)

_stmt = st.recursive(
    _leaf,
    lambda inner: st.one_of(
        st.tuples(
            st.just("loop"),
            st.integers(min_value=1, max_value=3),
            st.lists(inner, min_size=1, max_size=3),
        ),
        st.tuples(
            st.just("if_shared_ge"),
            st.integers(min_value=0, max_value=30),
            st.lists(inner, min_size=1, max_size=3),
        ),
    ),
    max_leaves=12,
)


def _emit(asm: Assembler, build: GuestBuilder, scope, private, statements):
    for statement in statements:
        kind = statement[0]
        if kind == "work":
            asm.work(statement[1])
        elif kind == "inc_shared":
            with build.critical("mutex"):
                tmp = scope.reg()
                asm.loadg(tmp, "shared")
                asm.addi(tmp, tmp, 1)
                asm.storeg(tmp, "shared")
                scope.release(tmp)
        elif kind == "atomic_bump":
            one = scope.reg(1)
            build.atomic_add("counter", one)
            scope.release(one)
        elif kind == "read_shared":
            with build.critical("mutex"):
                tmp = scope.reg()
                asm.loadg(tmp, "shared")
                asm.add(private, private, tmp)
                scope.release(tmp)
        elif kind == "loop":
            _, iters, body = statement
            counter = scope.reg()
            with build.for_range(counter, 0, iters):
                _emit(asm, build, scope, private, body)
            scope.release(counter)
        elif kind == "if_shared_ge":
            _, bound, body = statement
            observed = scope.reg()
            with build.critical("mutex"):
                asm.loadg(observed, "shared")
            # Branch on interleaving-dependent (but lock-protected) state.
            with build.if_ge(observed, bound):
                _emit(asm, build, scope, private, body)
            scope.release(observed)


def build_structured(statements, workers: int):
    asm = Assembler(name="structured")
    asm.word("mutex", 0)
    asm.word("shared", 0)
    asm.word("counter", 0)
    asm.word("sum", 0)
    build = GuestBuilder(asm)
    with asm.function("worker"):
        with build.scope() as scope:
            private = scope.reg(0)
            _emit(asm, build, scope, private, statements)
            build.atomic_add("sum", private)
        asm.exit_()
    with asm.function("main"):
        for index in range(workers):
            asm.spawn(f"r{20 + index}", "worker")
        for index in range(workers):
            asm.join(f"r{20 + index}")
        asm.exit_()
    return asm.assemble()


@settings(max_examples=examples(20), deadline=None)
@given(
    statements=st.lists(_stmt, min_size=1, max_size=4),
    workers=st.integers(min_value=2, max_value=3),
    epoch_cycles=st.sampled_from([500, 1300]),
)
def test_structured_programs_record_and_replay(statements, workers, epoch_cycles):
    image = build_structured(statements, workers)
    machine = MachineConfig(cores=workers)
    config = DoublePlayConfig(machine=machine, epoch_cycles=epoch_cycles)
    result = DoublePlayRecorder(image, KernelSetup(), config).record()
    # interleaving-dependent control flow is still race-FREE here (all
    # shared reads are lock-protected), so no divergence is tolerated
    assert result.recording.divergences() == 0
    replayer = Replayer(image, machine)
    sequential = replayer.replay_sequential(result.recording)
    assert sequential.verified, sequential.details
    parallel = replayer.replay_parallel(result.recording)
    assert parallel.verified, parallel.details


def _record_and_replay(image, machine, config, superblocks: bool):
    """The recording's plain form and both replays' cycles."""
    chosen = dataclasses.replace(options.current(), superblocks=superblocks)
    with options.activate(chosen):
        result = DoublePlayRecorder(image, KernelSetup(), config).record()
        replayer = Replayer(image, machine)
        sequential = replayer.replay_sequential(result.recording)
        parallel = replayer.replay_parallel(result.recording)
    fused = result.metrics.snapshot().get("superblock", {}).get("fused_calls", 0)
    assert superblocks or fused == 0
    return (
        json.dumps(result.recording.to_plain(), sort_keys=True),
        result.makespan,
        (sequential.verified, sequential.total_cycles, sequential.makespan),
        (parallel.verified, parallel.total_cycles, parallel.makespan),
    )


@settings(max_examples=examples(10), deadline=None)
@given(
    statements=st.lists(_stmt, min_size=1, max_size=4),
    workers=st.integers(min_value=2, max_value=3),
    epoch_cycles=st.sampled_from([500, 1300]),
)
def test_structured_programs_are_blind_to_fusion(statements, workers, epoch_cycles):
    """Loops inside critical sections record and replay bit-identically
    with superblock fusion on and off."""
    image = build_structured(statements, workers)
    machine = MachineConfig(cores=workers)
    config = DoublePlayConfig(machine=machine, epoch_cycles=epoch_cycles)
    fused = _record_and_replay(image, machine, config, True)
    assert fused == _record_and_replay(image, machine, config, False)
    assert fused[2][0] and fused[3][0]
