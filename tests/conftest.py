"""Shared fixtures and tiny guest-program builders for the test suite."""

from __future__ import annotations

import os
import struct

import pytest
from hypothesis import settings

from repro.exec.multicore import MulticoreEngine
from repro.exec.services import LiveSyscalls
from repro.exec.uniprocessor import UniprocessorEngine
from repro.isa.assembler import Assembler
from repro.machine.config import MachineConfig
from repro.oskernel.kernel import Kernel, KernelSetup
from repro.oskernel.syscalls import SyscallKind

#: ``--hypothesis-profile=ci`` (the CI dispatch-parity job) scales every
#: property that sizes its budget with :func:`examples` by five; tier-1
#: runs use the default profile and the budgets as written.
settings.register_profile("ci", max_examples=500, deadline=None, print_blob=True)


def examples(budget: int) -> int:
    """A property's example budget under the loaded Hypothesis profile."""
    return max(1, budget * settings.default.max_examples // 100)


@pytest.fixture
def machine2():
    return MachineConfig(cores=2)


@pytest.fixture
def machine4():
    return MachineConfig(cores=4)


def boot_multicore(image, machine, setup=None, log=None):
    """Fresh multicore engine with a live kernel; returns (engine, kernel)."""
    kernel = Kernel(setup or KernelSetup(), image.heap_base)
    engine = MulticoreEngine.boot(image, machine, LiveSyscalls(kernel, log))
    return engine, kernel


def boot_uniprocessor(image, machine, setup=None, log=None):
    kernel = Kernel(setup or KernelSetup(), image.heap_base)
    engine = UniprocessorEngine.boot(image, machine, LiveSyscalls(kernel, log))
    return engine, kernel


def single_thread_program(body, name="test", registers=32, data=()):
    """Assemble a main-only program; ``body(asm)`` emits instructions."""
    asm = Assembler(name=name, registers=registers)
    for symbol, length, values in data:
        asm.array(symbol, length, values=values)
    with asm.function("main"):
        body(asm)
        asm.exit_()
    return asm.assemble()


def run_single(body, machine=None, setup=None, data=()):
    """Run a main-only program to completion; returns (engine, kernel)."""
    image = single_thread_program(body, data=data)
    engine, kernel = boot_multicore(image, machine or MachineConfig(cores=1), setup)
    engine.run()
    return engine, kernel


def main_registers(engine):
    """The main thread's register file after a run."""
    return engine.contexts[1].registers


def counter_program(workers=2, iters=20, locked=True, name="counter"):
    """The canonical lock-counter program used across tests."""
    asm = Assembler(name=name)
    asm.word("counter", 0)
    asm.word("mutex", 0)
    with asm.function("worker"):
        asm.li("r2", 0)
        asm.label("loop")
        if locked:
            asm.li("r3", "mutex")
            asm.lock("r3")
        asm.loadg("r4", "counter")
        asm.work(3)
        asm.addi("r4", "r4", 1)
        asm.storeg("r4", "counter")
        if locked:
            asm.unlock("r3")
        asm.work(5)
        asm.addi("r2", "r2", 1)
        asm.blti("r2", iters, "loop")
        asm.exit_()
    with asm.function("main"):
        for index in range(workers):
            asm.spawn(f"r{10 + index}", "worker")
        for index in range(workers):
            asm.join(f"r{10 + index}")
        asm.loadg("r2", "counter")
        asm.syscall("r3", SyscallKind.PRINT, args=["r2"])
        asm.exit_()
    return asm.assemble()


def barrier_program(workers=2, phases=3, name="phases"):
    """Barrier-phased shared-array program (deterministic result)."""
    asm = Assembler(name=name)
    asm.array("data", 8, values=[1, 2, 3, 4, 5, 6, 7, 8])
    asm.word("barrier", 0)
    chunk = 8 // workers
    with asm.function("worker"):
        asm.muli("r2", "r0", chunk)
        asm.addi("r3", "r2", chunk)
        for phase in range(phases):
            asm.mov("r4", "r2")
            asm.label(f"p{phase}")
            asm.li("r5", "data")
            asm.add("r5", "r5", "r4")
            asm.load("r6", "r5", 0)
            asm.muli("r6", "r6", 2)
            asm.addi("r6", "r6", 1)
            asm.store("r6", "r5", 0)
            asm.addi("r4", "r4", 1)
            asm.blt("r4", "r3", f"p{phase}")
            asm.li("r7", "barrier")
            asm.li("r8", workers)
            asm.barrier("r7", "r8")
        asm.exit_()
    with asm.function("main"):
        for index in range(workers):
            asm.li("r1", index)
            asm.spawn(f"r{10 + index}", "worker", args=["r1"])
        for index in range(workers):
            asm.join(f"r{10 + index}")
        asm.li("r2", 0)
        asm.li("r3", 0)
        asm.label("cks")
        asm.li("r4", "data")
        asm.add("r4", "r4", "r3")
        asm.load("r5", "r4", 0)
        asm.add("r2", "r2", "r5")
        asm.addi("r3", "r3", 1)
        asm.blti("r3", 8, "cks")
        asm.syscall("r6", SyscallKind.PRINT, args=["r2"])
        asm.exit_()
    return asm.assemble()


def edit_pack(log_dir, edit):
    """Rewrite a durable log's blob pack entry by entry, by its format.

    The pack is a magic line, then ``(digest: 16 bytes, length: u32,
    payload)`` entries. ``edit(digest, payload)`` returns the new payload
    (same length) or None to keep it; returns the edited digests.
    """
    path = os.path.join(log_dir, "blobs", "pack.dppack")
    data = bytearray(open(path, "rb").read())
    offset, edited = data.index(b"\n") + 1, []
    while offset < len(data):
        digest, length = struct.unpack_from("<16sI", data, offset)
        start = offset + 20
        payload = edit(int.from_bytes(digest, "big"), bytes(data[start:start + length]))
        if payload is not None:
            assert len(payload) == length
            data[start:start + length] = payload
            edited.append(int.from_bytes(digest, "big"))
        offset = start + length
    open(path, "wb").write(data)
    return edited


#: one ``edit_pack`` corruption per blob kind a durable log holds: every
#: raw page's tag set to one no blob has, every object blob's (the
#: checkpoint skeletons') pickle zeroed
BLOB_CORRUPTIONS = {
    "page-tag": lambda digest, payload: (
        b"\x04" + payload[1:] if payload[:1] == b"\x01" else None
    ),
    "skeleton-payload": lambda digest, payload: (
        payload[:1] + bytes(len(payload) - 1) if payload[:1] == b"\x03" else None
    ),
}
