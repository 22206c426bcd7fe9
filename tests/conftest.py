"""Shared fixtures and tiny guest-program builders for the test suite."""

from __future__ import annotations

import os
import pickle
import zlib

import pytest
from hypothesis import settings

from repro.exec.multicore import MulticoreEngine
from repro.exec.services import LiveSyscalls
from repro.exec.uniprocessor import UniprocessorEngine
from repro.host.pool import shutdown_shared_pool
from repro.isa.assembler import Assembler
from repro.machine.config import MachineConfig
from repro.memory.blob import TAG_OBJECT, encode_object
from repro.oskernel.kernel import Kernel, KernelSetup
from repro.oskernel.syscalls import SyscallKind
from repro.record.pack import (
    CODEC_RAW, CODEC_ZLIB1, PACK_MAGIC, PACK_NAME, blob_of, entry_header,
    iter_entries,
)

#: ``--hypothesis-profile=ci`` (the CI dispatch-parity job) scales every
#: property that sizes its budget with :func:`examples` by five; tier-1
#: runs use the default profile and the budgets as written.
settings.register_profile("ci", max_examples=500, deadline=None, print_blob=True)


def examples(budget: int) -> int:
    """A property's example budget under the loaded Hypothesis profile."""
    return max(1, budget * settings.default.max_examples // 100)


def exhaustive() -> bool:
    """Whether an enumeration runs whole (``--hypothesis-profile=ci``)
    or a seeded handful of its cases (tier-1)."""
    return settings.default.max_examples > 100


@pytest.fixture(scope="session", autouse=True)
def one_fork_server():
    """The suite's workers all fork from one server, stopped here, once:
    a start costs about half a second, so a test that needs only fresh
    workers calls ``invalidate_shared_pool`` (``kill=True`` after a
    fault), and only tests of the server's lifecycle stop it."""
    yield
    shutdown_shared_pool()


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

    ``edit(digest, codec, stored)`` sees each entry as
    :func:`~repro.record.pack.iter_entries` reads it and returns the
    bytes to store instead (of any length: the entry keeps its digest
    and codec) or None to keep them; :func:`on_blob` makes one that
    edits the blob an entry stores. Returns the edited digests.
    """
    path = os.path.join(log_dir, "blobs", PACK_NAME)
    data = open(path, "rb").read()
    out, edited = [PACK_MAGIC], []
    for _, digest, codec, stored in iter_entries(data, len(PACK_MAGIC)):
        new = edit(digest, codec, bytes(stored))
        if new is not None:
            stored = new
            edited.append(digest)
        out.append(entry_header(digest, codec, len(stored)) + stored)
    open(path, "wb").write(b"".join(out))
    return edited


def on_blob(change):
    """An :func:`edit_pack` edit of the blob itself: ``change(digest,
    blob)`` returns the new blob or None; it is stored back under the
    entry's own codec, compressed or not."""

    def edit(digest, codec, stored):
        blob = change(digest, blob_of(digest, codec, stored))
        if blob is None or codec == CODEC_RAW:
            return blob
        return zlib.compress(blob, 1)

    return edit


def _on_contexts(change):
    """An :func:`on_blob` edit of every plain-data checkpoint skeleton:
    ``change(context)`` rewrites its first thread context's tuple."""

    def skeleton(digest, blob):
        if blob[:1] != TAG_OBJECT:
            return None
        fields = pickle.loads(blob[1:])
        contexts = fields[2]
        assert type(contexts) is tuple, "a skeleton of the plain-data shape"
        return encode_object(
            fields[:2] + ((change(contexts[0]),) + contexts[1:],) + fields[3:]
        )

    return on_blob(skeleton)


def _on_compressed(cut):
    """An :func:`edit_pack` edit of every compressed entry's stored bytes."""
    return lambda digest, codec, stored: (
        cut(stored) if codec == CODEC_ZLIB1 else None
    )


#: one ``edit_pack`` corruption per way a durable log's blob can fail to
#: decode: every raw page's tag set to one no blob has; every object
#: blob's (the checkpoint skeletons') pickle zeroed; one byte flipped in
#: every compressed entry, or its stream cut in half and zero-filled to
#: its length; a skeleton's first context one field short, or with a
#: string where its registers belong. The page and skeleton classes edit
#: the blob, and store it back in its entry's codec.
BLOB_CORRUPTIONS = {
    "page-tag": on_blob(lambda digest, blob: (
        b"\x04" + blob[1:] if blob[:1] == b"\x01" else None
    )),
    "skeleton-payload": on_blob(lambda digest, blob: (
        blob[:1] + bytes(len(blob) - 1) if blob[:1] == TAG_OBJECT else None
    )),
    "zlib-flip": _on_compressed(lambda stored: (
        stored[: len(stored) // 2]
        + bytes([stored[len(stored) // 2] ^ 0xFF])
        + stored[len(stored) // 2 + 1 :]
    )),
    "zlib-cut": _on_compressed(lambda stored: (
        stored[: len(stored) // 2] + bytes(len(stored) - len(stored) // 2)
    )),
    "skeleton-arity": _on_contexts(lambda context: context[:-1]),
    "skeleton-field-type": _on_contexts(
        lambda context: context[:2] + ("r0 r1 r2",) + context[3:]
    ),
}
