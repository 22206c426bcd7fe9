"""The parity harness: one program table, one observation, one comparator.

DoublePlay's safety argument is that an epoch-parallel run is a
deterministic function of its checkpoint and logs, so *how* a program is
recorded — at which ``jobs``, into which durable sink, under which host
fault, traced or not, fused or not, with how small a scratch pack, as
one tenant of a service — never changes *what* is recorded. Every test
that pins that promise does three things here:

1. names a :class:`Program` (a workload, its scale and seed, and how
   long its epochs are);
2. runs it the way under test — :func:`observe` records it,
   :func:`observe_replay` replays a recording of it, :func:`served`
   takes a service session that recorded it — and keeps its own
   probe on the :class:`Observation`'s ``result`` (fault counters,
   speculation accounting, a trace's schema, wire resends...);
3. hands the observation to :func:`assert_parity`, which compares every
   field the run carries with the program's *oracle*.

:func:`observe` and :func:`observe_replay` also hold every run they make
to the lifecycle rules (``repro.obs.lifecycle.violations``) and keep its
epoch lives on the observation.

An oracle is the program recorded at ``jobs=1``, untraced, under default
runtime options whatever the environment says (``REPRO_TEST_JOBS``
included), into the same sink — memory, or one durable directory per
sink whose bytes rows compare — and replayed at ``jobs=1``. Each is run
once per session and cached; a non-memory sink's oracle is itself held
to the memory one. :func:`oracle` runs it lazily, so a test that patches
anything an oracle run would meet (the recorder, the verdict schedule)
asks for the oracle first.

The ways a run can be made are declared once, as the axes of
:data:`AXES`, with one validity predicate; :func:`covering` picks the
seeded set of cases ``tests/test_parity.py`` runs. This module holds no
tests; the golden tuple is built here and nowhere else.
"""

from __future__ import annotations

import atexit
import collections
import contextlib
import dataclasses
import functools
import itertools
import json
import os
import random
import shutil
import tempfile
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro import options
from repro.baselines import run_native
from repro.core import DoublePlayConfig, DoublePlayRecorder, Replayer
from repro.core.recorder import VerdictSchedule
from repro.host import blobs as host_blobs
from repro.host.faults import parse_fault_specs
from repro.isa.assembler import Assembler
from repro.machine.config import MachineConfig
from repro.memory.hashing import combine_hashes
from repro.obs import export as obs_export
from repro.obs import lifecycle
from repro.obs import spans as obs_spans
from repro.oskernel.kernel import KernelSetup
from repro.oskernel.syscalls import SyscallKind
from repro.record.shards import ShardedLogReader
from repro.workloads import WORKLOADS, Workload, WorkloadInstance, workload_names
from repro.workloads.base import fork_join_main

# Golden end-to-end values per (workload, workers) at scale=2, seed=11:
# (native duration, native digest, makespan, epoch count, final digest,
#  combined epoch end-digests, total log bytes). These pin the simulator's
# observable behaviour bit-for-bit — any host-side optimisation (dispatch
# tables, TLBs, hash caching) must leave every one of them unchanged.
GOLDEN = {
    ("aget", 2): (4807, 12651562650872444726, 5747, 10,
                  9750065671864226844, 4447608908880550891, 3936),
    ("aget", 3): (4575, 86832004083554708, 5448, 10,
                  86832004083554708, 1763391140910181180, 4344),
    ("apache", 2): (5377, 15557036813043296881, 7312, 12,
                    15667671969702678195, 2155579163447930320, 3872),
    ("apache", 3): (5583, 11856920576053863941, 6393, 10,
                    15233928128316885767, 9199542772119446140, 4560),
    ("fft", 2): (3466, 1023587758859363579, 4048, 8,
                 1023587758859363579, 6006708359676509811, 584),
    ("fft", 3): (3791, 5607265402854933670, 4752, 9,
                 5607265402854933670, 7927598431155298058, 944),
    ("lu", 2): (4896, 14551909104814060594, 5814, 11,
                14551909104814060594, 16981150695979687117, 1136),
    ("lu", 3): (5033, 14978186051075779708, 5961, 11,
                14978186051075779708, 17186382475764968431, 1592),
    ("mysql", 2): (4089, 9624155467934768117, 5877, 10,
                   6095974313538744895, 4732499191363289370, 3472),
    ("mysql", 3): (3311, 948195989078979533, 4969, 8,
                   4341614222855619633, 13232087581114816424, 3856),
    ("ocean", 2): (4579, 11527734004478394154, 5313, 10,
                   11527734004478394154, 6994437026708409131, 848),
    ("ocean", 3): (4840, 3550062865480851614, 5809, 11,
                   3550062865480851614, 1008239838482505802, 1232),
    ("pbzip", 2): (5230, 11529552014372706206, 7083, 12,
                   11529552014372706206, 874082006809833535, 6024),
    ("pbzip", 3): (4225, 15316583958854145957, 6628, 10,
                   17272036854511172949, 13244271545710141243, 6960),
    ("pfscan", 2): (4124, 18003381354230837672, 5166, 9,
                    18003381354230837672, 13868236508608381773, 6736),
    ("pfscan", 3): (3213, 5110011646564275461, 5121, 8,
                    5110011646564275461, 13020697379226720733, 7488),
    ("prodcons", 2): (938, 920605467332395685, 1313, 2,
                      920605467332395685, 17304008216913788021, 736),
    ("prodcons", 3): (1789, 8053473133804911, 2263, 4,
                      8053473133804911, 12034645484827403544, 1872),
    ("prodcons-sem", 2): (850, 15626521186015135587, 1235, 2,
                          15626521186015135587, 2775192677128591728, 968),
    ("prodcons-sem", 3): (1558, 13088482847976153957, 2255, 4,
                          13088482847976153957, 5094968567319453553, 2048),
    ("racy-counter", 2): (1861, 3448562615946056474, 9602, 8,
                          12724300268640189663, 9912476949056978793, 344),
    ("racy-counter", 3): (1922, 5374146475501369629, 18625, 11,
                          14223301674063300882, 158827803329310059, 464),
    ("racy-lazyinit", 2): (589, 4908108182066075022, 980, 2,
                           4908108182066075022, 14562062304790101566, 184),
    ("racy-lazyinit", 3): (650, 3840646583692704329, 1344, 2,
                           3840646583692704329, 17035089182703621485, 272),
    ("radix", 2): (6235, 7917491320764720759, 7218, 13,
                   7917491320764720759, 14361880256660075860, 1040),
    ("radix", 3): (7216, 16673423257611233481, 8252, 13,
                   16673423257611233481, 12142456901315693440, 1400),
    ("water", 2): (2426, 16377078339086888187, 3082, 5,
                   16377078339086888187, 12862172388543010355, 808),
    ("water", 3): (3032, 2956172348081215986, 4107, 7,
                   7184107632185205554, 16867501009319820216, 1400),
}


# ``tp_finish`` per golden configuration, as recorded before the stats
# were re-based on the committed timeline (a diverged segment's
# thread-parallel finish is the boundary that ended its divergent epoch,
# not the squashed future's program exit): the re-basing moved none.
TP_FINISH = {
    ("aget", 2): 5717, ("aget", 3): 5419,
    ("apache", 2): 7257, ("apache", 3): 6009,
    ("fft", 2): 4017, ("fft", 3): 4722,
    ("lu", 2): 5783, ("lu", 3): 5931,
    ("mysql", 2): 5725, ("mysql", 3): 4408,
    ("ocean", 2): 5281, ("ocean", 3): 5734,
    ("pbzip", 2): 6915, ("pbzip", 3): 6136,
    ("pfscan", 2): 5033, ("pfscan", 3): 4536,
    ("prodcons", 2): 1078, ("prodcons", 3): 2068,
    ("prodcons-sem", 2): 989, ("prodcons-sem", 3): 1820,
    ("racy-counter", 2): 9545, ("racy-counter", 3): 18568,
    ("racy-lazyinit", 2): 711, ("racy-lazyinit", 3): 782,
    ("radix", 2): 7188, ("radix", 3): 8224,
    ("water", 2): 2785, ("water", 3): 3645,
}


# ----------------------------------------------------------------------
# Guest programs parity rows record that ``repro.workloads`` does not
# ----------------------------------------------------------------------
def racy_io_program(iterations=80):
    """Two threads race on a counter and print and append to a file on
    every iteration: each recovery restores a kernel that has state."""
    asm = Assembler(name="racy-io")
    asm.word("counter", 0)
    asm.word("cell0", 0)
    asm.word("cell1", 0)
    for worker in (0, 1):
        with asm.function(f"worker{worker}"):
            asm.li("r5", worker + 1)
            asm.syscall("r6", SyscallKind.OPEN, args=["r5"])
            asm.li("r8", f"cell{worker}")
            asm.li("r9", 1)
            asm.li("r2", 0)
            asm.label(f"loop{worker}")
            asm.loadg("r3", "counter")
            asm.work(4)
            asm.addi("r3", "r3", 1)
            asm.storeg("r3", "counter")
            asm.syscall("r7", SyscallKind.PRINT, args=["r2"])
            asm.syscall("r7", SyscallKind.WRITE, args=["r6", "r8", "r9"])
            asm.work(9)
            asm.addi("r2", "r2", 1)
            asm.blti("r2", iterations, f"loop{worker}")
            asm.exit_()
    with asm.function("main"):
        asm.spawn("r10", "worker0")
        asm.spawn("r11", "worker1")
        asm.join("r10")
        asm.join("r11")
        asm.loadg("r2", "counter")
        asm.syscall("r3", SyscallKind.PRINT, args=["r2"])
        asm.exit_()
    return asm.assemble()


def held_lock_racy_program(hold=400, wait=120):
    """Racy counter under a long-held lock the other thread asks for.

    Both threads increment ``counter`` without synchronisation, so most
    epochs diverge. ``holder`` keeps ``mutex`` for its whole loop;
    ``waiter`` asks for it part-way through the run and is granted it
    many epochs later — so the verdict unit of the epoch that asks is
    cut before the grant is hinted and its oracle starves on ``mutex``.
    """
    asm = Assembler(name="racy-held-lock")
    asm.word("counter", 0)
    asm.word("mutex", 0)

    def racy_loop(label, iters):
        asm.li("r2", 0)
        asm.label(label)
        asm.loadg("r4", "counter")
        asm.work(3)
        asm.addi("r4", "r4", 1)
        asm.storeg("r4", "counter")
        asm.work(5)
        asm.addi("r2", "r2", 1)
        asm.blti("r2", iters, label)

    with asm.function("holder"):
        asm.li("r3", "mutex")
        asm.lock("r3")
        racy_loop("held", hold)
        asm.unlock("r3")
        asm.exit_()
    with asm.function("waiter"):
        racy_loop("before", wait)
        asm.li("r3", "mutex")
        asm.lock("r3")
        racy_loop("after", 10)
        asm.unlock("r3")
        asm.exit_()
    with asm.function("main"):
        asm.spawn("r10", "holder")
        asm.spawn("r11", "waiter")
        asm.join("r10")
        asm.join("r11")
        asm.loadg("r2", "counter")
        asm.syscall("r3", SyscallKind.PRINT, args=["r2"])
        asm.exit_()
    return asm.assemble()


def all_ops_program(rounds=10):
    """Two threads that between them execute every op no workload does:
    DIV, OR, XOR, SHLI, SLTI, SEQ, TID, NOP, BEQ, CALL, RET, CAS, XCHG
    and a CONDBCAST that wakes both of them parked in CONDWAIT.

    Each round a thread CALLs ``mix`` (the ALU ops) on its thread id,
    XCHGs the value into ``slot`` for the other thread and adds what it
    took out to ``total`` with a CAS retry loop.
    """
    asm = Assembler(name="all-ops")
    for symbol in ("mutex", "cond", "go", "slot", "total"):
        asm.word(symbol, 0)
    with asm.function("mix"):
        asm.li("r20", 3)
        asm.addi("r21", "r2", 7)
        asm.div("r21", "r21", "r20")
        asm.or_("r22", "r21", "r6")
        asm.xor("r22", "r22", "r20")
        asm.shli("r22", "r22", 2)
        asm.slti("r23", "r22", 40)
        asm.seq("r24", "r23", "r23")
        asm.nop()
        asm.add("r7", "r22", "r24")
        asm.ret()
    with asm.function("worker"):
        asm.li("r3", "mutex")
        asm.li("r4", "cond")
        asm.lock("r3")
        asm.label("park")
        asm.loadg("r5", "go")
        asm.bnei("r5", 0, "started")
        asm.condwait("r4", "r3")
        asm.jmp("park")
        asm.label("started")
        asm.unlock("r3")
        asm.tid("r6")
        asm.li("r2", 0)
        asm.li("r14", 0)
        asm.li("r8", "slot")
        asm.li("r12", "total")
        asm.label("round")
        asm.call("mix")
        asm.xchg("r9", "r8", 0, "r7")
        asm.label("retry")
        asm.loadg("r10", "total")
        asm.add("r11", "r10", "r9")
        asm.cas("r13", "r12", 0, "r10", "r11")
        asm.beq("r13", "r14", "retry")
        asm.work(200)
        asm.addi("r2", "r2", 1)
        asm.blti("r2", rounds, "round")
        asm.exit_()
    with asm.function("main"):
        asm.spawn("r10", "worker")
        asm.spawn("r11", "worker")
        asm.work(200)  # both workers park first
        asm.li("r3", "mutex")
        asm.li("r4", "cond")
        asm.li("r5", 1)
        asm.lock("r3")
        asm.storeg("r5", "go")
        asm.condbcast("r4")
        asm.unlock("r3")
        asm.join("r10")
        asm.join("r11")
        asm.loadg("r2", "total")
        asm.loadg("r3", "slot")
        asm.add("r2", "r2", "r3")
        asm.syscall("r6", SyscallKind.PRINT, args=["r2"])
        asm.exit_()
    return asm.assemble()


#: iterations of each ``gated`` worker
GATED_ITERATIONS = 120


def gated_racy_program(seed=0):
    """Two workers increment ``counter`` :data:`GATED_ITERATIONS` times
    each, under ``mutex`` — except in the iterations whose bit is set in
    ``seed``. There both meet at a barrier and increment with no lock and
    a 30-cycle gap between load and store, so the thread-parallel
    run (two cores, in step) loses an update the epoch-parallel one (one
    core) does not: the epoch holding that iteration diverges, and every
    other epoch is clean.
    """
    asm = Assembler(name="gated-racy")
    for symbol in ("counter", "mutex", "gate"):
        asm.word(symbol, 0)
    asm.array("racy", GATED_ITERATIONS, values=[
        seed >> iteration & 1 for iteration in range(GATED_ITERATIONS)
    ])
    with asm.function("worker"):
        asm.li("r2", 0)
        asm.li("r5", "racy")
        asm.li("r6", "mutex")
        asm.li("r7", "gate")
        asm.li("r8", 2)
        asm.label("loop")
        asm.load("r4", "r5", 0)
        asm.bnei("r4", 0, "unlocked")
        asm.lock("r6")
        asm.loadg("r3", "counter")
        asm.addi("r3", "r3", 1)
        asm.storeg("r3", "counter")
        asm.unlock("r6")
        asm.jmp("next")
        asm.label("unlocked")
        asm.barrier("r7", "r8")
        asm.loadg("r3", "counter")
        asm.work(30)
        asm.addi("r3", "r3", 1)
        asm.storeg("r3", "counter")
        asm.label("next")
        asm.work(30)
        asm.addi("r5", "r5", 1)
        asm.addi("r2", "r2", 1)
        asm.blti("r2", GATED_ITERATIONS, "loop")
        asm.exit_()

    def epilogue(main):
        main.loadg("r2", "counter")
        main.syscall("r3", SyscallKind.PRINT, args=["r2"])

    fork_join_main(asm, 2, epilogue=epilogue)
    return asm.assemble()


def _fixed(name, image, setup=None, seeded=False):
    """A racy two-thread :class:`Workload`: its program is ``image()``,
    or ``image(seed)`` when ``seeded``."""

    def build(self, workers=2, scale=1, seed=0):
        return WorkloadInstance(
            name=name, image=image(seed) if seeded else image(),
            setup=setup or KernelSetup(), workers=2, racy=True,
            validate=lambda kernel: True,
        )

    return type(f"Workload[{name}]", (Workload,), {
        "name": name, "racy": True, "build": build,
    })


#: what a fleet session asks for by name (register one with
#: ``monkeypatch.setitem(WORKLOADS, name, EXTRA[name])``)
EXTRA = {
    "racy-io": _fixed(
        "racy-io", racy_io_program, KernelSetup(files={1: [7], 2: [9]})
    ),
    "racy-held-lock": _fixed("racy-held-lock", held_lock_racy_program),
    "all-ops": _fixed("all-ops", all_ops_program),
    "gated": _fixed("gated", gated_racy_program, seeded=True),
}


# ----------------------------------------------------------------------
# The program table
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Program:
    """A workload and how it is recorded."""

    workload: str
    workers: int = 2
    scale: int = 2
    seed: int = 11
    #: thread-parallel cycles per epoch; 0 = ``max(native // 12, 500)``
    epoch_cycles: int = 0

    @property
    def golden_key(self):
        """The :data:`GOLDEN` key of this configuration, if it has one."""
        key = (self.workload, self.workers)
        defaults = (self.scale, self.seed, self.epoch_cycles) == (2, 11, 0)
        return key if defaults and key in GOLDEN else None


#: the golden matrix: every workload at 2 and 3 workers, scale 2, seed 11
MATRIX = [Program(name, workers) for name in workload_names() for workers in (2, 3)]

#: programs the forced-divergence rows record, and the op-coverage one
RACY_IO = Program("racy-io")
HELD_LOCK = Program("racy-held-lock", epoch_cycles=400)
ALL_OPS = Program("all-ops")
#: the gated program with no racy iteration (the seed names them)
GATED = Program("gated", seed=0, epoch_cycles=800)


def instantiate(program: Program) -> WorkloadInstance:
    """A fresh instance of ``program``'s workload (nothing cached)."""
    cls = EXTRA.get(program.workload) or WORKLOADS[program.workload]
    return cls().build(
        workers=program.workers, scale=program.scale, seed=program.seed
    )


@dataclass(frozen=True)
class Built:
    """A program ready to record: its instance, native run and config."""

    instance: WorkloadInstance
    machine: MachineConfig
    native: object
    config: DoublePlayConfig


@functools.lru_cache(maxsize=None)
def build(program: Program) -> Built:
    """Build ``program`` and run it natively, once per session."""
    instance = instantiate(program)
    machine = MachineConfig(cores=program.workers)
    native = run_native(instance.image, instance.setup, machine)
    epoch_cycles = program.epoch_cycles or max(native.duration // 12, 500)
    config = DoublePlayConfig(machine=machine, epoch_cycles=epoch_cycles)
    return Built(instance, machine, native, config)


# ----------------------------------------------------------------------
# Observations
# ----------------------------------------------------------------------
#: durable sinks: config overrides (``log_dir`` is filled per run)
SINKS = {
    "memory": {},
    "log": {"log_dir": True},
    "spill": {"log_dir": True, "log_spill": True},
    "window": {"log_dir": True, "log_spill": True, "flight_window": 4},
}

#: the options every oracle runs under, whatever the environment says
_ORACLE_OPTIONS = options.RuntimeOptions(log_fsync=False)


@dataclass
class Observation:
    """One run of a program, as :func:`assert_parity` sees it."""

    program: Program
    #: ``"record"``, or the replay strategy: ``"sequential"`` / ``"parallel"``
    kind: str
    #: the run's result: a ``RecordResult``, ``ReplayResult`` or a
    #: service's ``SessionResult`` — what the row's own probe reads
    result: object
    #: what must equal the oracle's, by name; a row carries only the
    #: fields its result has (a service session has no stats of its own)
    fields: Dict[str, object]
    sink: str = "memory"
    fault: Optional[str] = None
    superblocks: Optional[bool] = None
    #: the recording as stored: loaded back from a spilling sink
    recording: object = None
    #: the exported Chrome trace payload (``trace=`` runs)
    trace: Optional[dict] = None
    #: the ``once`` fuse directory the run resolved
    fuses: str = ""
    #: the durable directory the run wrote, when it was kept
    log_dir: Optional[str] = None
    #: host accounting: ``faults`` and ``speculation`` at least
    host: dict = field(default_factory=dict)
    #: the run's epoch lives (``repro.obs.lifecycle.Lives``)
    lives: object = None

    @property
    def tp_entries(self) -> int:
        """Entries into the thread-parallel engine: one per boundary."""
        return sum(self.fields["boundaries"].values())

    def __str__(self):
        how = f"{self.kind} sink={self.sink} fault={self.fault!r}"
        return f"{self.program.workload}/{self.program.workers} ({how})"


def _golden_tuple(native, result, recording) -> tuple:
    """The :data:`GOLDEN` tuple of one record."""
    return (
        native.duration,
        native.final_digest,
        result.makespan,
        recording.epoch_count(),
        recording.final_digest,
        combine_hashes([epoch.end_digest for epoch in recording.epochs]),
        recording.total_log_bytes(),
    )


def _tree(directory):
    """``{relative path: bytes}`` of every file under ``directory``."""
    found = {}
    for root, _, names in os.walk(directory):
        for name in names:
            path = os.path.join(root, name)
            with open(path, "rb") as handle:
                found[os.path.relpath(path, directory)] = handle.read()
    return found


@contextlib.contextmanager
def _decisions():
    """What the segment loop decided: boundaries reached per segment
    (``{first epoch: count}``) and every verdict judged, as rows
    ``(segment, boundary, position, final, ok, consumed before, armed
    before, consumed after, armed after, action)`` — and the epoch lives
    of every run begun in the block."""
    boundaries, judged, schedules, runs = collections.Counter(), [], [], []
    run_to = DoublePlayRecorder._run_to_boundary
    init, judge = VerdictSchedule.__init__, VerdictSchedule.judge
    begin = lifecycle.begin

    def counted(self, engine, policy, segment):
        boundaries[segment.first_epoch] += 1
        return run_to(self, engine, policy, segment)

    def numbered(self, *args):
        init(self, *args)
        schedules.append(self)

    def traced(self, boundary, position, final, ok):
        before = (self.consumed, self.armed)
        action = judge(self, boundary, position, final, ok)
        judged.append((
            schedules.index(self), boundary, position, final, ok,
            *before, self.consumed, self.armed, action,
        ))
        return action

    def begun():
        runs.append(begin())
        return runs[-1]

    DoublePlayRecorder._run_to_boundary = counted
    VerdictSchedule.__init__, VerdictSchedule.judge = numbered, traced
    lifecycle.begin = begun
    try:
        yield boundaries, judged, runs
    finally:
        DoublePlayRecorder._run_to_boundary = run_to
        VerdictSchedule.__init__, VerdictSchedule.judge = init, judge
        lifecycle.begin = begin


@contextlib.contextmanager
def _running(superblocks=None, scratch_cap=None, pinned=None):
    """Apply a row's options: the superblock switch and the scratch-pack
    cap (or, for an oracle, ``pinned`` options over the environment)."""
    if pinned is None and superblocks is not None:
        pinned = options.resolve(superblocks=superblocks)
    saved = host_blobs.SCRATCH_PACK_BYTES
    if scratch_cap is not None:
        host_blobs.SCRATCH_PACK_BYTES = scratch_cap
    try:
        with (options.activate(pinned) if pinned else contextlib.nullcontext()):
            yield
    finally:
        host_blobs.SCRATCH_PACK_BYTES = saved


def observe(
    program: Program,
    *,
    jobs: Optional[int] = 1,
    sink: str = "memory",
    fault: Optional[str] = None,
    trace=None,
    superblocks: Optional[bool] = None,
    scratch_cap: Optional[int] = None,
    unit_timeout: Optional[float] = None,
    log_dir: Optional[str] = None,
    _pinned: Optional[options.RuntimeOptions] = None,
) -> Observation:
    """Record ``program`` one way and observe everything parity compares.

    ``jobs=None`` takes the environment's ``REPRO_TEST_JOBS``; ``fault``
    is a fault directive for the run (``once`` fuses live in
    ``REPRO_FAULT_STATE``); ``trace`` a path to export a Chrome trace
    to; ``superblocks`` the fusion switch, for the native run of the
    golden tuple too; ``scratch_cap`` the scratch pack's size in bytes.
    A durable ``sink`` writes to ``log_dir`` when given (kept for the
    row's probe), else to a directory removed once its bytes are read.
    """
    built = build(program)
    overrides = {k: v for k, v in SINKS[sink].items() if k != "log_dir"}
    throwaway = None
    if "log_dir" in SINKS[sink]:
        if log_dir is None:
            log_dir = throwaway = tempfile.mkdtemp(prefix="repro-parity-")
        overrides["log_dir"] = str(log_dir)
    config = built.config.replace(
        host_jobs=jobs, unit_timeout=unit_timeout, host_faults=fault, **overrides
    )
    instance = built.instance
    payload = None
    try:
        with _running(superblocks, scratch_cap, _pinned):
            fuses = options.resolve(config).fault_state
            native = built.native
            if superblocks is not None:
                native = run_native(instance.image, instance.setup, built.machine)
            if trace:
                obs_spans.start_trace(str(trace))
            try:
                with _decisions() as (boundaries, judged, runs):
                    result = DoublePlayRecorder(
                        instance.image, instance.setup, config
                    ).record()
            finally:
                if trace:
                    tracer = obs_spans.stop_trace()
        if trace:
            payload = obs_export.write_chrome_trace(tracer, str(trace))
        (lives,) = runs
        broken = lifecycle.violations(lives, result.stats["epochs"])
        assert not broken, broken
        recording = result.recording
        if config.log_spill:
            recording = ShardedLogReader(config.log_dir).load_recording()
        fields = {
            "plain": json.dumps(recording.to_plain(), sort_keys=True),
            "stats": {k: v for k, v in result.stats.items() if k != "log_spilled"},
            "timing": (result.makespan, result.tp_finish, result.app_time),
            "exec": result.metrics.snapshot()["exec"],
            "boundaries": dict(boundaries),
            "judged": judged,
        }
        if not config.flight_window:
            fields["golden"] = _golden_tuple(native, result, recording)
        if config.log_dir:
            fields["files"] = _tree(config.log_dir)
    finally:
        if throwaway is not None:
            shutil.rmtree(throwaway, ignore_errors=True)
    return Observation(
        program, "record", result, fields, sink=sink, fault=fault,
        superblocks=superblocks, recording=recording, trace=payload,
        fuses=fuses, host=result.host, log_dir=None if throwaway else log_dir,
        lives=lives,
    )


def observe_replay(
    program: Program,
    recording=None,
    *,
    sink: str = "memory",
    jobs: int = 1,
    sequential: bool = False,
    fault: Optional[str] = None,
    superblocks: Optional[bool] = None,
    scratch_cap: Optional[int] = None,
    unit_timeout: Optional[float] = None,
    _pinned: Optional[options.RuntimeOptions] = None,
) -> Observation:
    """Replay ``recording`` of ``program`` (default: its ``sink`` oracle's,
    as :func:`stored` there) in parallel at ``jobs`` — or
    ``sequential``ly — and observe the verdict."""
    built = build(program)
    if recording is None:
        recording = stored(program, sink)
    replayer = Replayer(built.instance.image, built.machine)
    with _running(superblocks, scratch_cap, _pinned), _decisions() as (*_, runs):
        fuses = options.resolve().fault_state
        if sequential:
            result = replayer.replay_sequential(recording)
        else:
            result = replayer.replay_parallel(
                recording, jobs=jobs, unit_timeout=unit_timeout, fault_specs=fault
            )
    (lives,) = runs
    broken = lifecycle.violations(lives)
    assert not broken, broken
    fields = {
        "verdict": (result.verified, [str(failure) for failure in result.details]),
        "timing": (
            result.total_cycles, result.makespan, result.epochs_replayed,
            result.workers,
        ),
    }
    kind = "sequential" if sequential else "parallel"
    return Observation(
        program, kind, result, fields, sink=sink, fault=fault,
        superblocks=superblocks, recording=recording, fuses=fuses,
        host=result.host, lives=lives,
    )


def served(program: Program, result, fault: Optional[str] = None) -> Observation:
    """The ``SessionResult`` of a service session that recorded
    ``program`` (under ``fault``), observed as it is."""
    return Observation(
        program, "record", result,
        fields={
            "plain": json.dumps(result.recording_plain, sort_keys=True),
            "exec": result.metrics["exec"],
        },
        fault=fault, host=result.metrics,
    )


# ----------------------------------------------------------------------
# Oracles and the comparator
# ----------------------------------------------------------------------
_oracles: Dict[tuple, Observation] = {}


def oracle(program: Program, sink: str = "memory", kind: str = "record") -> Observation:
    """``program`` recorded at ``jobs=1`` into ``sink`` (or, for a replay
    ``kind``, that recording as :func:`stored` replayed at ``jobs=1``),
    once per session."""
    key = (program, sink, kind)
    if key not in _oracles:
        if kind == "record":
            log_dir = None
            if "log_dir" in SINKS[sink]:  # kept for the session's replays
                log_dir = tempfile.mkdtemp(prefix="repro-oracle-")
                atexit.register(shutil.rmtree, log_dir, ignore_errors=True)
            got = observe(program, sink=sink, log_dir=log_dir, _pinned=_ORACLE_OPTIONS)
            assert_pinned(got)
            if sink != "memory":
                # The sink is invisible to the execution.
                _compare(got, oracle(program), skip=_cross_sink_skips(sink))
        else:
            got = observe_replay(
                program, sink=sink, sequential=kind == "sequential",
                _pinned=_ORACLE_OPTIONS,
            )
            assert got.result.verified, f"{got}: {got.result.details}"
            if sink != "memory" and not SINKS[sink].get("flight_window"):
                # A log keeps the recorded checkpoints (a window keeps a
                # suffix): it replays to the in-memory verdict and figures.
                _compare(got, oracle(program, kind=kind))
        _oracles[key] = got
    return _oracles[key]


@functools.lru_cache(maxsize=None)
def stored(program: Program, sink: str = "memory"):
    """``program``'s recording as its ``sink`` oracle keeps it: in memory,
    or loaded back from the durable directory with every checkpoint
    materialised from the blob store."""
    if sink == "memory":
        return oracle(program).recording
    reader = ShardedLogReader(oracle(program, sink).log_dir)
    return reader.load_recording(materialize=True)


def _cross_sink_skips(sink):
    # A flight window keeps only its last epochs on disk, so what is
    # loaded back is a suffix of the recording.
    return {"files", "plain"} if SINKS[sink].get("flight_window") else {"files"}


def _compare(got: Observation, want: Observation, skip=()):
    for name, value in got.fields.items():
        if name not in skip:
            assert value == want.fields[name], (
                f"{got}: {name} differs from the jobs=1 oracle's"
            )


def _assert_golden(got: Observation) -> None:
    key = got.program.golden_key
    if key is None or "golden" not in got.fields:
        return
    assert got.fields["golden"] == GOLDEN[key], (
        f"{got}: behavioural drift — expected {GOLDEN[key]}, "
        f"got {got.fields['golden']}"
    )
    tp_finish = got.fields["timing"][1]
    assert tp_finish == got.fields["stats"]["tp_finish"] == TP_FINISH[key]


#: the host fault counter each failing kind moves
_COUNTER = {"crash": "crashes", "hang": "timeouts", "error": "task_errors"}


def _assert_fault_fired(got: Observation) -> None:
    scope = "record" if got.kind == "record" else "replay"
    for spec in parse_fault_specs(got.fault, got.fuses):
        if spec.scope not in ("", scope):
            continue
        if spec.once:
            # A push the merge never reaches (cancelled behind a
            # divergence) may blow the fuse with no counter to show for
            # it: the fuse itself and the discarded push do.
            assert os.path.exists(spec._fuse_path()), f"{got}: {spec} never fired"
            assert got.host["speculation"]["discarded"] >= 1, got.host
        elif spec.kind in _COUNTER:  # "slow" fails nothing: no counter moves
            counter = _COUNTER[spec.kind]
            assert got.host["faults"][counter] >= 1, f"{got}: {spec} never fired"


def assert_pinned(got: Observation) -> None:
    """What holds of a run without its oracle: the golden tuple and
    ``tp_finish`` where :data:`GOLDEN` has the config, its fault fired,
    fusion stayed off when switched off."""
    _assert_golden(got)
    if got.fault:
        _assert_fault_fired(got)
    if got.superblocks is False and got.kind == "record":
        fused = got.result.metrics.snapshot().get("superblock", {})
        assert fused.get("fused_calls", 0) == 0, f"{got}: fusion ran while disabled"


def assert_parity(got: Observation, want: Optional[Observation] = None) -> None:
    """``got`` is its program's ``jobs=1`` oracle on every field it
    carries — the ``to_plain()`` JSON, the stats (``log_spilled``
    aside), makespan / ``tp_finish`` / ``app_time``, the ``exec``
    counters, the boundaries and verdicts of the segment loop, the
    golden tuple, the bytes on disk — and :func:`assert_pinned`.
    ``want`` stands in for the cached oracle when ``got`` ran on a
    recording no oracle holds (a tampered one, replayed at ``jobs=1``)."""
    _compare(got, want or oracle(got.program, got.sink, got.kind))
    assert_pinned(got)


# ----------------------------------------------------------------------
# The axis table
# ----------------------------------------------------------------------
#: behaviour classes, not golden configurations (``MATRIX`` sweeps
#: those): a race-free run of one long segment; a run that diverges and
#: recovers in most epochs; a racy run that does I/O, so each recovery
#: restores a kernel with state; one whose verdict starves on a lock
#: held across many epochs; one that diverges only where a case says
CLASSES = {
    "clean": Program("apache", 2),
    "recovering": Program("racy-counter", 2, scale=8),
    "io-racy": RACY_IO,
    "held-lock": HELD_LOCK,
    "gated": GATED,
}

#: where a ``divergence`` puts it: the epochs of the clean ``gated`` run
#: (from its end when negative) whose middle iteration races — the
#: first segment's merge head; the run's last epoch; the first, then one
#: the segment restarted behind it judges inside the verdict lag; a tail
#: unit the unarmed segment pushes behind its merge; a unit the merge
#: awaits while the commits before it sink into a durable log
DIVERGENCES = {
    "none": (), "first": (0,), "last": (-1,), "lag": (0, 2), "tail": (-2,),
    "sinking": (5,),
}


def named_epochs(divergence: str) -> list:
    """The epochs of the clean ``gated`` run ``divergence`` names."""
    count = oracle(GATED).result.stats["epochs"]
    return [epoch % count for epoch in DIVERGENCES[divergence]]


def program_of(case) -> Program:
    """The program ``case`` records: its class's, with the middle
    iteration of each epoch its ``divergence`` names racy (the seed is
    their bit mask), read off the clean run's boundaries — ``counter``
    counts both workers' finished iterations."""
    if case.divergence == "none":
        return CLASSES[case.program]
    counter = build(GATED).instance.image.address_of("counter")
    done = [
        epoch.start_checkpoint.memory.read(counter) // 2
        for epoch in oracle(GATED).recording.epochs
    ] + [GATED_ITERATIONS]
    racy = {(done[e] + done[e + 1]) // 2 for e in named_epochs(case.divergence)}
    return dataclasses.replace(GATED, seed=sum(1 << iteration for iteration in racy))


#: what a worker can find wrong with the scratch pack a dispatch names:
#: it was unlinked ("needblobs"), it holds everything but the unit's log
#: chunks ("evicted-chunk"), it is not a pack ("bad-magic")
PACK_LOSSES = ("needblobs", "evicted-chunk", "bad-magic")

#: every way a run may be made; a case is one value of each
AXES = {
    "program": tuple(CLASSES),
    "kind": ("record", "replay"),
    "jobs": (1, 2, 3, 4),
    "sink": tuple(SINKS),
    "fault": (
        "none", "crash", "hang", "error", "crash-once", "slow", *PACK_LOSSES,
    ),
    #: which unit the fault strikes: the first, one inside, the last
    #: (the tail behind the merge), or the one in flight behind it
    "position": ("first", "interior", "tail", "in-flight"),
    "mode": ("solo", "serve"),
    "superblocks": (True, False),
    "trace": (False, True),
    #: the scratch pack's size in bytes (None: the default)
    "scratch_cap": (None, 0, 2048),
    "divergence": tuple(DIVERGENCES),
}

#: the validity predicate, as rules over two or three axes each: a rule
#: holds of a partial case until every axis it names has a value
_RULES = [
    # A fault strikes a pool unit, and there is none at jobs=1.
    (("fault", "jobs"), lambda fault, jobs: fault == "none" or jobs > 1),
    # The position is the fault's.
    (("fault", "position"), lambda fault, at: fault != "none" or at == "first"),
    # Only a run of one segment has a tail behind its merge, and the
    # merge of io-racy's short segments never reaches a second unit; a
    # replay has all its spans.
    (("position", "program", "kind"), lambda at, program, kind: (
        kind == "replay" or at == "first" or program == "clean"
        or (at == "interior" and program != "io-racy")
    )),
    # Pack losses and fuses strike record dispatches (a replay pushes
    # nothing ahead for a fuse to blow on).
    (("fault", "kind"), lambda fault, kind: (
        kind == "record" or fault in ("none", "crash", "hang", "error", "slow")
    )),
    # A chunk can be evicted only from under a unit that reads the log.
    # A hang costs two unit timeouts of wall time (2.1 s a case at the
    # table's 1 s, on 2 vCPUs), and striking every program would add two
    # hang cases to the pairwise set (52 to 54): it strikes the clean
    # program only, and the racy ones meet the same containment path
    # through crashes and errors.
    (("fault", "program"), lambda fault, program: program in {
        "evicted-chunk": ("clean", "io-racy"), "hang": ("clean",),
    }.get(fault, (program,))),
    # The cap sizes the pool's pack, which a pack loss replaces.
    (("scratch_cap", "jobs"), lambda cap, jobs: cap is None or jobs > 1),
    (("scratch_cap", "fault"), lambda cap, f: cap is None or f not in PACK_LOSSES),
    # A tracer records solo runs.
    (("trace", "kind"), lambda trace, kind: not trace or kind == "record"),
    (("trace", "mode"), lambda trace, mode: not trace or mode == "solo"),
    # A tenant records into memory under the service's own options, with
    # a fault the session itself directs.
    (("mode", "kind"), lambda mode, kind: mode == "solo" or kind == "record"),
    (("mode", "sink"), lambda mode, sink: mode == "solo" or sink == "memory"),
    (("mode", "superblocks"), lambda mode, fused: mode == "solo" or fused),
    (("mode", "fault"), lambda mode, fault: (
        mode == "solo" or fault in ("none", "crash", "error", "slow")
    )),
    # Only the gated program diverges where a case says, and a commit
    # sinks only into a durable log.
    (("divergence", "program"), lambda where, program: (
        where == "none" or program == "gated"
    )),
    (("divergence", "sink"), lambda where, sink: where != "sinking" or sink == "log"),
]


def valid(case: dict) -> bool:
    """Whether ``case`` (every axis given, or only some) is a run the
    harness can make."""
    return all(
        rule(*(case[axis] for axis in axes))
        for axes, rule in _RULES
        if all(axis in case for axis in axes)
    )


def _complete(case: dict, order, prefer) -> Optional[dict]:
    """``case`` with every axis in ``order`` given a value that keeps it
    valid, trying the values ``prefer(case, axis)`` lists first; None if
    there is no valid completion."""
    if not valid(case):
        return None
    if not order:
        return case
    axis, rest = order[0], order[1:]
    for value in prefer(case, axis):
        done = _complete({**case, axis: value}, rest, prefer)
        if done is not None:
            return done
    return None


def _tuples(case: dict, strength: int):
    """The ``strength``-way combinations of ``case``'s axis values."""
    return itertools.combinations(tuple(case.items()), strength)


def feasible(strength: int = 2, table=AXES) -> Dict[tuple, None]:
    """Every ``strength``-way combination of axis values some valid case
    of ``table`` has, in a fixed order."""
    names = list(table)
    wanted = {}
    for axes in itertools.combinations(names, strength):
        for values in itertools.product(*(table[axis] for axis in axes)):
            combo = tuple(zip(axes, values))
            rest = [axis for axis in names if axis not in axes]
            if _complete(dict(combo), rest, lambda _, axis: table[axis]) is not None:
                wanted[combo] = None
    return wanted


#: one value of each axis
Case = collections.namedtuple("Case", AXES)

#: each class recorded and replayed the plain way through the pool: a
#: covering set holds each pair of their values in some case, but need
#: not hold them
PLAIN = [
    Case(program, kind, 2, "memory", "none", "first", "solo", True, False, None, "none")
    for program in CLASSES for kind in AXES["kind"]
]


def case_id(case: Case) -> str:
    """Program, kind, jobs and sink, then each axis off its plain value."""
    parts = [case.program, case.kind, f"j{case.jobs}", case.sink]
    if case.fault != "none":
        parts.append(f"{case.fault}@{case.position}")
    flags = {"serve": case.mode == "serve", "unfused": not case.superblocks}
    parts += [flag for flag, on in {**flags, "traced": case.trace}.items() if on]
    if case.scratch_cap is not None:
        parts.append(f"cap{case.scratch_cap}")
    if case.divergence != "none":
        parts.append(f"diverge@{case.divergence}")
    return "-".join(parts)


#: the table before the ``gated`` class and the ``divergence`` axis
#: joined it: its covering set starts the whole one's, so every case it
#: held keeps its values and its id
EARLIER = {
    **{axis: values for axis, values in AXES.items() if axis != "divergence"},
    "program": tuple(name for name in CLASSES if name != "gated"),
}


def covering(strength: int = 2, seed: int = 5) -> list:
    """A seeded covering set of the axis table: every feasible
    ``strength``-way combination of axis values is in some case. It is
    :data:`EARLIER`'s set, each case diverging nowhere, grown by the
    same greedy over the whole table; every case but the :data:`PLAIN`
    ones holds a combination no other case of the table it was chosen
    for does. (Seed 5 gives pairwise four hang cases, the fewest the
    four positions allow.)
    """
    plain = [case._asdict() for case in PLAIN]
    earlier = _greedy(strength, seed, EARLIER, [
        {axis: case[axis] for axis in EARLIER}
        for case in plain if case["program"] in EARLIER["program"]
    ])
    start = [{**case, "divergence": "none"} for case in earlier] + [
        case for case in plain if case["program"] not in EARLIER["program"]
    ]
    return [Case(**case) for case in _greedy(strength, seed, AXES, start)]


def _greedy(strength, seed, table, start) -> list:
    """``start`` grown, one case at a time, until every feasible
    ``strength``-way combination of ``table``'s values is in a case.

    Take the first combination no case covers yet, then give each other
    axis, in a random order, the value that covers most uncovered
    combinations with the axes already set — keeping the case valid —
    and keep the best of a few such tries; last, drop every added case
    whose combinations others all hold.
    """
    rng = random.Random(seed)
    names = list(table)
    rank = {axis: index for index, axis in enumerate(names)}
    wanted = feasible(strength, table)

    def prefer(case, axis):
        def gain(value):
            return sum(
                tuple(sorted(others + ((axis, value),), key=lambda i: rank[i[0]]))
                in wanted
                for others in itertools.combinations(case.items(), strength - 1)
            )

        values = list(table[axis])
        rng.shuffle(values)
        return sorted(values, key=gain, reverse=True)

    cases = list(start)
    for case in cases:
        for combo in _tuples(case, strength):
            wanted.pop(combo, None)
    while wanted:
        target = dict(next(iter(wanted)))
        best, best_covered = None, ()
        for _ in range(8):
            order = [axis for axis in names if axis not in target]
            rng.shuffle(order)
            case = _complete(target, order, prefer)
            case = {axis: case[axis] for axis in names}
            covered = [combo for combo in _tuples(case, strength) if combo in wanted]
            if len(covered) > len(best_covered):
                best, best_covered = case, covered
        cases.append(best)
        for combo in best_covered:
            del wanted[combo]
    held = collections.Counter(
        combo for case in cases for combo in _tuples(case, strength)
    )
    for case in reversed(cases[len(start):]):
        if all(held[combo] > 1 for combo in _tuples(case, strength)):
            cases.remove(case)
            held.subtract(_tuples(case, strength))
    return cases
