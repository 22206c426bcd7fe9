"""System call numbering and outcome types.

A syscall either completes immediately (:class:`SyscallDone`) or blocks
(:class:`SyscallBlock`); blocked calls later complete through a
:class:`Wakeup`. Every completion carries the return value and the list of
guest-memory writes it performed — exactly the information DoublePlay must
log so the epoch-parallel execution and replay can inject results without a
kernel.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import NamedTuple, Sequence, Tuple


class SyscallKind(enum.Enum):
    """Guest-visible system calls.

    File names are small integers (the workload's kernel setup names
    them), keeping the ISA free of string handling.
    """

    OPEN = "open"        # (file_id) → fd
    CLOSE = "close"      # (fd) → 0
    READ = "read"        # (fd, buf, maxlen) → words read (0 = EOF); shared offset
    WRITE = "write"      # (fd, buf, len) → words written (append)
    LISTEN = "listen"    # () → listening socket fd
    ACCEPT = "accept"    # (sock) → connection fd; blocks for an arrival
    RECV = "recv"        # (fd, buf, maxlen) → words received (0 = drained)
    SEND = "send"        # (fd, buf, len) → words sent (captured as output)
    TIME = "time"        # () → current simulated cycle
    RAND = "rand"        # () → deterministic pseudo-random input word
    GETPID = "getpid"    # () → 1
    ALLOC = "alloc"      # (nwords) → base address of fresh zeroed memory
    PRINT = "print"      # (value) → 0; appends to the program's output
    SLEEP = "sleep"      # (cycles) → 0; blocks for the duration
    YIELD = "yield"      # () → 0; scheduling hint only
    SETTIMER = "settimer"  # (delay, handler_pc) → 0; deliver a signal to
    #                        the calling thread after ~delay cycles


#: writes applied to guest memory: ((base_addr, (word, ...)), ...)
BufferWrites = Tuple[Tuple[int, Tuple[int, ...]], ...]


@dataclass(frozen=True)
class SyscallDone:
    """Immediate completion."""

    retval: int
    writes: BufferWrites = ()
    #: extra words transferred (engine converts to cycles via the cost model)
    transferred: int = 0


@dataclass(frozen=True)
class SyscallBlock:
    """The calling thread must park; the kernel recorded it as a waiter."""

    reason: str


@dataclass(frozen=True)
class Wakeup:
    """Deferred completion of a previously blocked syscall."""

    tid: int
    retval: int
    writes: BufferWrites = ()
    transferred: int = 0


@dataclass(frozen=True)
class SignalDelivery:
    """An asynchronous signal becoming deliverable to a thread."""

    tid: int
    handler_pc: int


class SyscallRecord(NamedTuple):
    """One logged syscall completion (what recordings store).

    ``seq`` is the per-thread syscall sequence number — the index the
    injector uses, making injection independent of cross-thread order.
    """

    tid: int
    seq: int
    kind: SyscallKind
    retval: int
    writes: BufferWrites = ()
    transferred: int = 0

    def size_words(self) -> int:
        """Approximate log footprint in words (for the log-size table)."""
        data_words = sum(len(words) for _, words in self.writes)
        return 4 + 2 * len(self.writes) + data_words


# ----------------------------------------------------------------------
# The one serialised form of a record: the plain tuple ``(tid, seq,
# kind.value, retval, writes, transferred)``. Durable shard frames, wire
# log chunks and the JSON recording all encode and decode through these
# two functions.
# ----------------------------------------------------------------------
_KIND_BY_VALUE = {kind.value: kind for kind in SyscallKind}


def encode_record(record: SyscallRecord) -> tuple:
    """A record's plain form (a real ``tuple``: it pickles as data, with
    no reference to this module)."""
    tid, seq, kind, retval, writes, transferred = record
    # ``_value_`` is ``.value`` without the descriptor call (one per record).
    return (tid, seq, kind._value_, retval, writes, transferred)


def decode_record(plain: Sequence) -> SyscallRecord:
    """The record of a plain form; ``writes`` may arrive as JSON lists."""
    tid, seq, kind, retval, writes, transferred = plain
    if writes.__class__ is not tuple:
        writes = tuple((base, tuple(words)) for base, words in writes)
    return SyscallRecord(tid, seq, _KIND_BY_VALUE[kind], retval, writes, transferred)
