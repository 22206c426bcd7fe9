"""The recording: everything needed to deterministically replay a run.

A :class:`Recording` is the committed output of DoublePlay's recorder:

* per-epoch :class:`EpochRecord` — the uniprocessor schedule log, the
  sync-order hints that were in force, the end-state digest the replay
  must reach, and a reference to the start checkpoint;
* the global syscall log (per-thread sequence numbers index it);
* metadata and recording statistics.

Checkpoints are in-memory accelerators: parallel replay starts every epoch
from its checkpoint concurrently, and fidelity checks compare digests
against them. Serialisation (``to_plain``/``from_plain``) captures the
*logs* — the durable artefact whose size the paper's log-size table
measures; a deserialised recording replays sequentially from program start
and can regenerate the checkpoints as it goes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.checkpoint.checkpoint import Checkpoint
from repro.oskernel.syscalls import SyscallRecord, decode_record, encode_record
from repro.record.schedule_log import ScheduleLog
from repro.record.sync_log import SyncOrderLog

#: bytes per guest word when reporting log sizes
WORD_BYTES = 8


@dataclass
class EpochRecord:
    """The committed log of one epoch."""

    index: int
    #: None on deserialised recordings until materialize_checkpoints()
    start_checkpoint: Optional[Checkpoint]
    #: per-thread retired-op counts at the epoch's end boundary
    targets: Dict[int, int]
    schedule: ScheduleLog
    sync_log: SyncOrderLog
    #: guest-state digest the epoch must end in (memory + contexts)
    end_digest: int
    #: cycles the committed uniprocessor execution of this epoch took
    duration: int
    #: True when this epoch was committed by forward recovery (a live
    #: uniprocessor re-execution) rather than a verified epoch-parallel run
    recovered: bool = False
    #: True when the logs were streamed to the durable sharded log and
    #: dropped from memory (``repro.record.shards``); size accounting
    #: survives, the log contents live on disk only
    spilled: bool = False

    def spill(self) -> None:
        """Drop the in-memory logs after a durable write.

        Flight-recorder mode: once the epoch's shards are on disk, the
        resident copy serves no replay (replay loads from the manifest),
        so only the byte accounting is kept. The checkpoint reference is
        dropped too — the durable manifest can re-materialise it.
        """
        if self.spilled:
            return
        self._schedule_words = self.schedule.size_words()
        self._sync_words = self.sync_log.size_words()
        self.schedule = None
        self.sync_log = None
        self.start_checkpoint = None
        self.spilled = True

    def schedule_words(self) -> int:
        return self._schedule_words if self.spilled else self.schedule.size_words()

    def sync_words(self) -> int:
        return self._sync_words if self.spilled else self.sync_log.size_words()

    def size_words(self) -> int:
        return self.schedule_words() + self.sync_words() + 8


@dataclass
class Recording:
    """A complete, replayable recording of one program execution."""

    program_name: str
    worker_threads: int
    initial_checkpoint: Checkpoint
    epochs: List[EpochRecord] = field(default_factory=list)
    syscall_records: List[SyscallRecord] = field(default_factory=list)
    #: signal deliveries: (tid, retired-at-delivery, handler pc)
    signal_records: List[tuple] = field(default_factory=list)
    #: final guest-state digest of the whole recorded execution
    final_digest: int = 0
    #: recorder statistics (divergences, rollbacks, makespan...)
    stats: Dict[str, int] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def epoch_count(self) -> int:
        return len(self.epochs)

    def epoch_range(self) -> Tuple[int, int]:
        """``(first, last)`` absolute epoch indices held by this recording.

        0-based run indices, inclusive. Differs from ``(0,
        epoch_count()-1)`` for suffix loads (``--from-epoch``) and
        flight-recorder tails, whose first surviving epoch is the window
        base. ``(0, -1)`` when empty.
        """
        if not self.epochs:
            return (0, -1)
        return (self.epochs[0].index, self.epochs[-1].index)

    def divergences(self) -> int:
        return self.stats.get("divergences", 0)

    def schedule_log_bytes(self) -> int:
        return WORD_BYTES * sum(e.schedule_words() for e in self.epochs)

    def sync_log_bytes(self) -> int:
        return WORD_BYTES * sum(e.sync_words() for e in self.epochs)

    def syscall_log_bytes(self) -> int:
        return WORD_BYTES * sum(r.size_words() for r in self.syscall_records)

    def signal_log_bytes(self) -> int:
        return WORD_BYTES * 3 * len(self.signal_records)

    def total_log_bytes(self) -> int:
        return (
            self.schedule_log_bytes()
            + self.sync_log_bytes()
            + self.syscall_log_bytes()
            + self.signal_log_bytes()
        )

    def log_breakdown(self) -> Dict[str, int]:
        return {
            "schedule_bytes": self.schedule_log_bytes(),
            "sync_bytes": self.sync_log_bytes(),
            "syscall_bytes": self.syscall_log_bytes(),
            "signal_bytes": self.signal_log_bytes(),
            "total_bytes": self.total_log_bytes(),
        }

    def syscalls_for_epochs(self) -> List[SyscallRecord]:
        """The full injectable syscall log (all epochs)."""
        return list(self.syscall_records)

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def resident_log_bytes(self) -> int:
        """Bytes of log data actually held in memory right now.

        Spilled epochs count zero — their logs live in the durable
        sharded log only. This is the quantity flight-recorder mode
        bounds (pipeline depth, not run length).
        """
        return WORD_BYTES * (
            sum(e.size_words() for e in self.epochs if not e.spilled)
            + sum(r.size_words() for r in self.syscall_records)
            + 3 * len(self.signal_records)
        )

    def to_plain(self) -> Dict:
        """JSON-compatible form of the durable logs (no checkpoints)."""
        if any(e.spilled for e in self.epochs):
            raise ValueError(
                "recording was spilled to a durable log; load it back with "
                "repro.record.shards.ShardedLogReader instead of to_plain()"
            )
        return {
            "program": self.program_name,
            "worker_threads": self.worker_threads,
            "final_digest": self.final_digest,
            "stats": dict(self.stats),
            "epochs": [
                {
                    "index": e.index,
                    "targets": {str(tid): ops for tid, ops in e.targets.items()},
                    "schedule": e.schedule.to_plain(),
                    "sync": e.sync_log.to_plain(),
                    "end_digest": e.end_digest,
                    "duration": e.duration,
                    "recovered": e.recovered,
                }
                for e in self.epochs
            ],
            # The record's plain form, keyed by field name for JSON.
            "syscalls": [
                dict(
                    zip(SyscallRecord._fields, encode_record(r)),
                    writes=[[base, list(words)] for base, words in r.writes],
                )
                for r in self.syscall_records
            ],
            "signals": [list(record) for record in self.signal_records],
        }

    @classmethod
    def from_plain(cls, plain: Dict, initial_checkpoint: Checkpoint) -> "Recording":
        """Rebuild a recording from its serialised logs.

        The caller supplies the initial checkpoint (reconstructable from
        the program image); per-epoch start checkpoints are not restored —
        sequential replay regenerates state epoch by epoch.
        """
        recording = cls(
            program_name=plain["program"],
            worker_threads=plain["worker_threads"],
            initial_checkpoint=initial_checkpoint,
            final_digest=plain["final_digest"],
            stats=dict(plain["stats"]),
        )
        previous: Optional[Checkpoint] = initial_checkpoint
        for entry in plain["epochs"]:
            recording.epochs.append(
                EpochRecord(
                    index=entry["index"],
                    # Only epoch 0's start state is reconstructable up
                    # front; materialize_checkpoints() rebuilds the rest.
                    start_checkpoint=previous,
                    targets={int(t): ops for t, ops in entry["targets"].items()},
                    schedule=ScheduleLog.from_plain(entry["schedule"]),
                    sync_log=SyncOrderLog.from_plain(entry["sync"]),
                    end_digest=entry["end_digest"],
                    duration=entry["duration"],
                    recovered=entry["recovered"],
                )
            )
            previous = None  # only epoch 0 has a materialised checkpoint
        recording.syscall_records = [
            decode_record([r[name] for name in SyscallRecord._fields])
            for r in plain["syscalls"]
        ]
        recording.signal_records = [
            tuple(record) for record in plain.get("signals", [])
        ]
        return recording

    @classmethod
    def load_plain(cls, plain: Dict, program, setup, machine) -> "Recording":
        """:meth:`from_plain` for a recording of ``program``: boots it on
        ``machine`` to take the initial checkpoint the logs start from."""
        from repro.checkpoint.manager import CheckpointManager
        from repro.exec.multicore import MulticoreEngine
        from repro.exec.services import LiveSyscalls
        from repro.oskernel.kernel import Kernel

        kernel = Kernel(setup, program.heap_base)
        boot = MulticoreEngine.boot(program, machine, LiveSyscalls(kernel))
        return cls.from_plain(plain, CheckpointManager().initial(boot))


def prune_syscall_records(
    records: List[SyscallRecord], counts: Dict[int, int]
) -> List[SyscallRecord]:
    """Keep only records consistent with per-thread ``syscall_count``s.

    Forward recovery discards the abandoned thread-parallel execution past
    a checkpoint; ``counts`` are the checkpoint's per-thread syscall
    counts. Records from threads absent from ``counts`` (spawned later in
    the abandoned run) are dropped entirely.
    """
    return [
        record
        for record in records
        if record.seq < counts.get(record.tid, 0)
    ]


def prune_signal_records(records, retired_counts: Dict[int, int]):
    """Keep signal deliveries within the committed per-thread prefixes.

    A delivery at retired count R belongs to the committed prefix iff
    R < the checkpoint's retired count (delivery plus the handler's first
    op is atomic, so a checkpoint at exactly R precedes the delivery).
    """
    return [
        record
        for record in records
        if record[1] < retired_counts.get(record[0], 0)
    ]
