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

An oracle is the program recorded at ``jobs=1``, untraced, under default
runtime options whatever the environment says (``REPRO_TEST_JOBS``
included), into the same sink — memory, or one durable directory per
sink whose bytes rows compare — and replayed at ``jobs=1``. Each is run
once per session and cached; a non-memory sink's oracle is itself held
to the memory one. :func:`oracle` runs it lazily, so a test that patches
anything an oracle run would meet (the recorder, the verdict schedule)
asks for the oracle first.

This module holds no tests; the golden tuple is built here and nowhere
else.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import json
import os
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
from repro.obs import spans as obs_spans
from repro.oskernel.kernel import KernelSetup
from repro.oskernel.syscalls import SyscallKind
from repro.record.shards import ShardedLogReader
from repro.workloads import WORKLOADS, Workload, WorkloadInstance, workload_names

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


def _fixed(name, image, setup=None):
    """A racy two-thread :class:`Workload` whose program takes no
    parameters."""

    def build(self, workers=2, scale=1, seed=0):
        return WorkloadInstance(
            name=name, image=image(), setup=setup or KernelSetup(),
            workers=2, racy=True, validate=lambda kernel: True,
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
    #: host accounting: ``faults`` and ``speculation`` at least
    host: dict = field(default_factory=dict)

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
    before, consumed after, armed after, action)``."""
    boundaries, judged, schedules = collections.Counter(), [], []
    run_to = DoublePlayRecorder._run_to_boundary
    init, judge = VerdictSchedule.__init__, VerdictSchedule.judge

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

    DoublePlayRecorder._run_to_boundary = counted
    VerdictSchedule.__init__, VerdictSchedule.judge = numbered, traced
    try:
        yield boundaries, judged
    finally:
        DoublePlayRecorder._run_to_boundary = run_to
        VerdictSchedule.__init__, VerdictSchedule.judge = init, judge


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
                with _decisions() as (boundaries, judged):
                    result = DoublePlayRecorder(
                        instance.image, instance.setup, config
                    ).record()
            finally:
                if trace:
                    tracer = obs_spans.stop_trace()
        if trace:
            payload = obs_export.write_chrome_trace(tracer, str(trace))
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
        fuses=fuses, host=result.host,
    )


def observe_replay(
    program: Program,
    recording=None,
    *,
    jobs: int = 1,
    sequential: bool = False,
    fault: Optional[str] = None,
    scratch_cap: Optional[int] = None,
    unit_timeout: Optional[float] = None,
    _pinned: Optional[options.RuntimeOptions] = None,
) -> Observation:
    """Replay ``recording`` of ``program`` (default: its oracle's) in
    parallel at ``jobs`` — or ``sequential``ly — and observe the verdict."""
    built = build(program)
    if recording is None:
        recording = oracle(program).recording
    replayer = Replayer(built.instance.image, built.machine)
    with _running(scratch_cap=scratch_cap, pinned=_pinned):
        fuses = options.resolve().fault_state
        if sequential:
            result = replayer.replay_sequential(recording)
        else:
            result = replayer.replay_parallel(
                recording, jobs=jobs, unit_timeout=unit_timeout, fault_specs=fault
            )
    fields = {
        "verdict": (result.verified, [str(failure) for failure in result.details]),
        "timing": (
            result.total_cycles, result.makespan, result.epochs_replayed,
            result.workers,
        ),
    }
    kind = "sequential" if sequential else "parallel"
    return Observation(
        program, kind, result, fields, fault=fault, recording=recording,
        fuses=fuses, host=result.host,
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
    ``kind``, its memory oracle replayed at ``jobs=1``), once per session."""
    key = (program, sink, kind)
    if key not in _oracles:
        if kind == "record":
            got = observe(program, sink=sink, _pinned=_ORACLE_OPTIONS)
            assert_pinned(got)
            if sink != "memory":
                # The sink is invisible to the execution.
                _compare(got, oracle(program), skip=_cross_sink_skips(sink))
        else:
            got = observe_replay(
                program, sequential=kind == "sequential", _pinned=_ORACLE_OPTIONS
            )
            assert got.result.verified, f"{got}: {got.result.details}"
        _oracles[key] = got
    return _oracles[key]


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
            # A pushed attempt may blow the fuse with no counter to show
            # for it: the fuse itself and the discarded push do.
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
    if got.superblocks is False:
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
