"""Syscall service personalities.

Engines issue syscalls through a service object with a common interface:

* ``invoke(ctx, kind, args, mem, now)`` → ``SyscallDone`` or ``SyscallBlock``
* ``wakeups(now, mem)`` → completed blocked calls (live kernel only)
* ``next_event_time()`` → earliest future kernel event (live kernel only)

:class:`LiveSyscalls` wraps a real simulated kernel and optionally logs
every completion — DoublePlay's thread-parallel execution runs with logging
on. :class:`InjectedSyscalls` replays a log: results are returned without
any kernel, and a mismatch between what the guest asks and what the log
holds is reported to a divergence callback — this is the paper's early
divergence detection on system-call mismatch.
"""

from __future__ import annotations

from itertools import chain
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import DivergenceSignal
from repro.isa.context import ThreadContext
from repro.memory.address_space import AddressSpace
from repro.obs import metrics as obs_metrics
from repro.oskernel.kernel import Kernel
from repro.oskernel.syscalls import (
    SyscallBlock,
    SyscallDone,
    SyscallKind,
    SyscallRecord,
    Wakeup,
    decode_record,
    encode_record,
)


class LiveSyscalls:
    """Execute syscalls against a live kernel, logging completions."""

    #: engines poll ``next_event_time`` per op; False lets them skip it
    HAS_EVENTS = True

    def __init__(self, kernel: Kernel, log: Optional[List[SyscallRecord]] = None):
        self.kernel = kernel
        #: completed-call log in global completion order (None = no logging)
        self.log = log
        #: the engines poll this once or twice per op: the kernel's own
        #: bound method, not a forwarding call
        self.next_event_time = kernel.next_event_time

    def invoke(
        self,
        ctx: ThreadContext,
        kind: SyscallKind,
        args: Sequence[int],
        mem: AddressSpace,
        now: int,
    ):
        outcome = self.kernel.syscall(ctx.tid, kind, args, mem, now)
        if isinstance(outcome, SyscallDone) and self.log is not None:
            self.log.append(
                SyscallRecord(
                    ctx.tid,
                    ctx.syscall_count,
                    kind,
                    outcome.retval,
                    outcome.writes,
                    outcome.transferred,
                )
            )
        return outcome

    def record_wakeup_completion(
        self, ctx: ThreadContext, kind: SyscallKind, grant: Tuple
    ) -> None:
        """Log a blocked call's completion at its retirement."""
        if self.log is None:
            return
        _, retval, writes, transferred = grant
        self.log.append(
            SyscallRecord(
                ctx.tid, ctx.syscall_count, kind, retval, writes, transferred
            )
        )

    def wakeups(self, now: int, mem: AddressSpace) -> List[Wakeup]:
        return self.kernel.wakeups(now, mem)

    def signal_deliveries(self, now: int):
        return self.kernel.signal_deliveries(now)


class InjectionLog(tuple):
    """A frozen syscall log whose ``(tid, seq)`` index is built once.

    Every :class:`InjectedSyscalls` over the same log object shares the
    one dict: a worker builds it once per decoded log chunk (the object
    lives in its blob cache), a serial replay once per recording. It
    pickles as its records' plain forms — the index never crosses the
    wire.
    """

    _by_seq = None

    @property
    def by_seq(self) -> Dict[Tuple[int, int], SyscallRecord]:
        index = self._by_seq
        if index is None:
            index = self._by_seq = {(r.tid, r.seq): r for r in self}
            obs_metrics.process_stats().add("work.injection_index_builds")
        return index

    @classmethod
    def join(cls, chunks: Sequence["InjectionLog"]) -> "InjectionLog":
        """One log of consecutive ``chunks``; their indices are merged,
        not rebuilt, so each chunk's is still built once."""
        if len(chunks) == 1:
            return chunks[0]
        joined = cls(chain.from_iterable(chunks))
        index = joined._by_seq = {}
        for chunk in chunks:
            index.update(chunk.by_seq)
        return joined

    def __reduce__(self):
        return _decode_log, (tuple(map(encode_record, self)),)


def _decode_log(plain: tuple) -> InjectionLog:
    """Unpickle an :class:`InjectionLog` (module-level: pickled by name)."""
    return InjectionLog(map(decode_record, plain))


class InjectedSyscalls:
    """Complete syscalls from a log instead of a kernel.

    ``records`` may span the whole recording; lookup is by the issuing
    thread's per-thread sequence number, so an epoch executor can be handed
    the full log and will naturally consume only its epoch's slice. Hand
    the same :class:`InjectionLog` to many executors and they share its
    index; ``consumed`` stays per instance.
    """

    #: no kernel — ``next_event_time`` is always None
    HAS_EVENTS = False

    def __init__(
        self,
        records: Sequence[SyscallRecord],
        on_mismatch: Optional[Callable[[str], None]] = None,
    ):
        if not isinstance(records, InjectionLog):
            records = InjectionLog(records)
        self._by_seq = records.by_seq
        self._on_mismatch = on_mismatch
        #: records actually consumed (size accounting, tests)
        self.consumed = 0

    def invoke(
        self,
        ctx: ThreadContext,
        kind: SyscallKind,
        args: Sequence[int],
        mem: AddressSpace,
        now: int,
    ):
        record = self._by_seq.get((ctx.tid, ctx.syscall_count))
        if record is None:
            # The logged execution never completed this call (e.g. the
            # thread was still blocked when recording ended): park forever.
            return SyscallBlock("log-exhausted")
        if record.kind != kind:
            message = (
                f"thread {ctx.tid} issued syscall {kind.value!r} as call "
                f"#{ctx.syscall_count} but the log holds {record.kind.value!r}"
            )
            if self._on_mismatch is not None:
                self._on_mismatch(message)
            raise DivergenceSignal(message)
        self.consumed += 1
        if kind == SyscallKind.ALLOC:
            # The live kernel maps the allocated pages as a side effect;
            # injection must reproduce that or subsequent stores fault.
            mem.map_range(record.retval, args[0])
        for base, words in record.writes:
            mem.write_block(base, words)
        return SyscallDone(
            retval=record.retval,
            writes=record.writes,
            transferred=record.transferred,
        )

    def wakeups(self, now: int, mem: AddressSpace) -> List[Wakeup]:
        return []

    def signal_deliveries(self, now: int):
        return []

    def next_event_time(self) -> Optional[int]:
        return None
