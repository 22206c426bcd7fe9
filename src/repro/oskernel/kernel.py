"""The kernel facade: syscall dispatch, timed wakeups, whole-OS snapshot.

One :class:`Kernel` instance backs one *live* execution (native runs and
DoublePlay's thread-parallel execution). Epoch-parallel executions and
replays never construct a kernel — they inject logged syscall results
instead (see ``repro.exec.services``), which is precisely the paper's
split: the thread-parallel run interacts with the world and logs it; the
epoch-parallel run consumes the log.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import SyscallError
from repro.memory.address_space import AddressSpace
from repro.memory.hashing import hash_structure
from repro.memory.layout import PAGE_WORDS
from repro.obs import metrics as obs_metrics
from repro.oskernel.files import SimFileSystem
from repro.oskernel.net import Arrival, SimNetwork
from repro.oskernel.syscalls import (
    SignalDelivery,
    SyscallBlock,
    SyscallDone,
    SyscallKind,
    Wakeup,
)
from repro.sim.rng import DeterministicRng

#: ``next_event_time`` cache sentinel (``None`` is a valid cached value).
_STALE_EVENT = object()


@dataclass
class KernelSetup:
    """Everything a workload configures about the external world.

    Attributes:
        files: initial filesystem contents, file id → words.
        arrivals: network request schedule for server workloads.
        rand_seed: seed for the RAND syscall stream.
    """

    files: Dict[int, List[int]] = field(default_factory=dict)
    arrivals: List[Arrival] = field(default_factory=list)
    rand_seed: int = 0


class Kernel:
    """Live simulated OS for one execution."""

    def __init__(self, setup: KernelSetup, heap_base: int):
        self.fs = SimFileSystem(setup.files)
        self.net = SimNetwork(setup.arrivals)
        self._rng = DeterministicRng(setup.rand_seed, "kernel-rand")
        self._brk = heap_base
        self.output: List[int] = []
        #: ``output`` as the last snapshot froze it; PRINT only appends,
        #: so it is current exactly while the lengths agree
        self._output_frozen: Tuple[int, ...] = ()
        #: (wake time, insertion seq, tid) for sleeping threads
        self._sleepers: List[Tuple[int, int, int]] = []
        self._sleep_seq = 0
        #: (fire time, seq, tid, handler pc) armed via SETTIMER
        self._timers: List[Tuple[int, int, int, int]] = []
        self._timer_seq = 0
        # Cached next_event_time (engines poll it once or twice per op).
        # It is a pure function of the net arrival cursor, _sleepers and
        # _timers, all of which change only inside syscall/wakeups/
        # signal_deliveries/restore — each of those drops the cache.
        self._next_event_cache = _STALE_EVENT

    # ------------------------------------------------------------------
    # Syscall dispatch
    # ------------------------------------------------------------------
    def syscall(
        self,
        tid: int,
        kind: SyscallKind,
        args: Sequence[int],
        mem: AddressSpace,
        now: int,
    ):
        """Execute one syscall; returns :class:`SyscallDone` or
        :class:`SyscallBlock` (having queued the thread as a waiter)."""
        self._next_event_cache = _STALE_EVENT
        if kind == SyscallKind.OPEN:
            return SyscallDone(self.fs.open(args[0]))
        if kind == SyscallKind.CLOSE:
            return SyscallDone(self.fs.close(args[0]))
        if kind == SyscallKind.READ:
            fd, buf, maxlen = args[0], args[1], args[2]
            mem.check_range(buf, maxlen)
            words = self.fs.read(fd, maxlen)
            if words:
                mem.write_block(buf, words)
                return SyscallDone(
                    len(words),
                    writes=((buf, tuple(words)),),
                    transferred=len(words),
                )
            return SyscallDone(0)
        if kind == SyscallKind.WRITE:
            fd, buf, length = args[0], args[1], args[2]
            words = mem.read_block(buf, length)
            return SyscallDone(self.fs.write(fd, words), transferred=length)
        if kind == SyscallKind.LISTEN:
            return SyscallDone(self.net.listen())
        if kind == SyscallKind.ACCEPT:
            self.net.admit_arrivals(now)
            fd = self.net.try_accept()
            if fd is not None:
                return SyscallDone(fd)
            self.net.accept_waiters.append(tid)
            return SyscallBlock("net-accept")
        if kind == SyscallKind.RECV:
            fd, buf, maxlen = args[0], args[1], args[2]
            mem.check_range(buf, maxlen)
            words = self.net.recv(fd, maxlen)
            if words:
                mem.write_block(buf, words)
                return SyscallDone(
                    len(words),
                    writes=((buf, tuple(words)),),
                    transferred=len(words),
                )
            return SyscallDone(0)
        if kind == SyscallKind.SEND:
            fd, buf, length = args[0], args[1], args[2]
            words = mem.read_block(buf, length)
            return SyscallDone(self.net.send(fd, words), transferred=length)
        if kind == SyscallKind.TIME:
            return SyscallDone(now)
        if kind == SyscallKind.RAND:
            return SyscallDone(self._rng.randint(0, (1 << 31) - 1))
        if kind == SyscallKind.GETPID:
            return SyscallDone(1)
        if kind == SyscallKind.ALLOC:
            return SyscallDone(self._alloc(args[0], mem))
        if kind == SyscallKind.PRINT:
            self.output.append(args[0])
            return SyscallDone(0)
        if kind == SyscallKind.SLEEP:
            duration = max(args[0], 0)
            self._sleepers.append((now + duration, self._sleep_seq, tid))
            self._sleep_seq += 1
            return SyscallBlock("sleep")
        if kind == SyscallKind.YIELD:
            return SyscallDone(0)
        if kind == SyscallKind.SETTIMER:
            delay = max(args[0], 0)
            self._timers.append((now + delay, self._timer_seq, tid, args[1]))
            self._timer_seq += 1
            return SyscallDone(0)
        raise SyscallError(f"unsupported syscall {kind!r}", tid)

    def _alloc(self, nwords: int, mem: AddressSpace) -> int:
        if nwords <= 0:
            raise SyscallError(f"alloc of non-positive size {nwords}")
        base = self._brk
        self._brk += nwords
        # Round the break to a page so consecutive allocations do not
        # false-share pages (matters to the CREW baseline).
        remainder = self._brk % PAGE_WORDS
        if remainder:
            self._brk += PAGE_WORDS - remainder
        mem.map_range(base, nwords)
        return base

    # ------------------------------------------------------------------
    # Timed wakeups
    # ------------------------------------------------------------------
    def wakeups(self, now: int, mem: AddressSpace) -> List[Wakeup]:
        """Complete every blocked syscall that becomes ready by ``now``."""
        self._next_event_cache = _STALE_EVENT
        ready: List[Wakeup] = []
        self.net.admit_arrivals(now)
        while self.net.accept_waiters and self.net.backlog_size():
            tid = self.net.accept_waiters.pop(0)
            fd = self.net.try_accept()
            ready.append(Wakeup(tid=tid, retval=fd))
        remaining: List[Tuple[int, int, int]] = []
        for wake_time, seq, tid in sorted(self._sleepers):
            if wake_time <= now:
                ready.append(Wakeup(tid=tid, retval=0))
            else:
                remaining.append((wake_time, seq, tid))
        self._sleepers = remaining
        return ready

    def signal_deliveries(self, now: int) -> List[SignalDelivery]:
        """Timers that have fired by ``now``, in arming order."""
        self._next_event_cache = _STALE_EVENT
        due = [timer for timer in sorted(self._timers) if timer[0] <= now]
        if due:
            self._timers = [t for t in self._timers if t[0] > now]
        return [SignalDelivery(tid=tid, handler_pc=pc) for _, _, tid, pc in due]

    def next_event_time(self) -> Optional[int]:
        """Earliest future time at which a wakeup could occur."""
        cached = self._next_event_cache
        if cached is not _STALE_EVENT:
            return cached
        candidates = []
        arrival = self.net.next_arrival_time()
        if arrival is not None:
            candidates.append(arrival)
        if self._sleepers:
            candidates.append(min(self._sleepers)[0])
        if self._timers:
            candidates.append(min(self._timers)[0])
        value = min(candidates) if candidates else None
        self._next_event_cache = value
        return value

    # ------------------------------------------------------------------
    # Snapshot / restore / digest
    # ------------------------------------------------------------------
    def snapshot(self) -> Tuple:
        """The whole OS state as plain immutable data.

        The contract every part keeps: equal, field for field, to a full
        copy of the live state; never aliased to it (no later syscall
        changes a snapshot already taken); and O(touched) — files,
        connections and output are frozen again only when they changed
        since the last snapshot or restore (``work.snapshot_words``
        counts the words copied).
        """
        if len(self._output_frozen) != len(self.output):
            obs_metrics.process_stats().add("work.snapshot_words", len(self.output))
            self._output_frozen = tuple(self.output)
        return (
            self.fs.snapshot(),
            self.net.snapshot(),
            self._rng.getstate(),
            self._brk,
            self._output_frozen,
            tuple(self._sleepers),
            self._sleep_seq,
            tuple(self._timers),
            self._timer_seq,
        )

    def restore(self, state: Tuple) -> None:
        (
            fs_state,
            net_state,
            rng_state,
            brk,
            output,
            sleepers,
            sleep_seq,
            timers,
            timer_seq,
        ) = state
        self.fs.restore(fs_state)
        self.net.restore(net_state)
        self._rng.setstate(rng_state)
        self._brk = brk
        self.output = list(output)
        self._output_frozen = tuple(output)
        self._sleepers = [tuple(entry) for entry in sleepers]
        self._sleep_seq = sleep_seq
        self._timers = [tuple(entry) for entry in timers]
        self._timer_seq = timer_seq
        self._next_event_cache = _STALE_EVENT

    def digest(self) -> int:
        """Stable hash of externally visible kernel state (tests only)."""
        fs_files, fs_fds, _ = self.fs.snapshot()
        return hash_structure(
            (
                fs_files,
                fs_fds,
                self._brk,
                tuple(self.output),
            )
        )
