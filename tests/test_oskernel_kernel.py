"""Simulated kernel: syscalls, wakeups, snapshot/restore."""

import copy
import random

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.errors import SyscallError
from repro.memory.address_space import AddressSpace
from repro.memory.layout import PAGE_WORDS
from repro.oskernel.kernel import Kernel, KernelSetup
from repro.oskernel.net import Arrival
from repro.oskernel.syscalls import SyscallBlock, SyscallDone, SyscallKind


def make_kernel(files=None, arrivals=None, seed=0):
    setup = KernelSetup(files=files or {}, arrivals=arrivals or [], rand_seed=seed)
    kernel = Kernel(setup, heap_base=10 * PAGE_WORDS)
    mem = AddressSpace()
    mem.map_range(0, 4 * PAGE_WORDS)
    return kernel, mem


def call(kernel, mem, kind, *args, tid=1, now=0):
    return kernel.syscall(tid, kind, args, mem, now)


class TestFiles:
    def test_open_read_sequential(self):
        kernel, mem = make_kernel(files={0: [1, 2, 3, 4, 5]})
        fd = call(kernel, mem, SyscallKind.OPEN, 0).retval
        first = call(kernel, mem, SyscallKind.READ, fd, 8, 3)
        assert first.retval == 3
        assert mem.read_block(8, 3) == [1, 2, 3]
        assert first.writes == ((8, (1, 2, 3)),)
        second = call(kernel, mem, SyscallKind.READ, fd, 8, 3)
        assert second.retval == 2
        assert mem.read_block(8, 2) == [4, 5]

    def test_read_at_eof_returns_zero(self):
        kernel, mem = make_kernel(files={0: [1]})
        fd = call(kernel, mem, SyscallKind.OPEN, 0).retval
        call(kernel, mem, SyscallKind.READ, fd, 8, 5)
        assert call(kernel, mem, SyscallKind.READ, fd, 8, 5).retval == 0

    def test_write_appends(self):
        kernel, mem = make_kernel()
        fd = call(kernel, mem, SyscallKind.OPEN, 7).retval
        mem.write_block(8, [10, 20])
        assert call(kernel, mem, SyscallKind.WRITE, fd, 8, 2).retval == 2
        mem.write_block(8, [30])
        call(kernel, mem, SyscallKind.WRITE, fd, 8, 1)
        assert kernel.fs.file_contents(7) == [10, 20, 30]

    def test_close_invalidates_fd(self):
        kernel, mem = make_kernel(files={0: [1]})
        fd = call(kernel, mem, SyscallKind.OPEN, 0).retval
        call(kernel, mem, SyscallKind.CLOSE, fd)
        with pytest.raises(SyscallError):
            call(kernel, mem, SyscallKind.READ, fd, 8, 1)

    def test_two_fds_have_independent_offsets(self):
        kernel, mem = make_kernel(files={0: [1, 2, 3]})
        fd1 = call(kernel, mem, SyscallKind.OPEN, 0).retval
        fd2 = call(kernel, mem, SyscallKind.OPEN, 0).retval
        call(kernel, mem, SyscallKind.READ, fd1, 8, 2)
        assert call(kernel, mem, SyscallKind.READ, fd2, 12, 1).retval == 1
        assert mem.read(12) == 1


class TestNetwork:
    def test_accept_blocks_until_arrival(self):
        kernel, mem = make_kernel(arrivals=[Arrival(time=100, payload=(7, 8))])
        call(kernel, mem, SyscallKind.LISTEN)
        outcome = call(kernel, mem, SyscallKind.ACCEPT, 999, tid=5, now=0)
        assert isinstance(outcome, SyscallBlock)
        assert kernel.next_event_time() == 100
        wakeups = kernel.wakeups(100, mem)
        assert len(wakeups) == 1
        assert wakeups[0].tid == 5

    def test_accept_immediate_when_backlogged(self):
        kernel, mem = make_kernel(arrivals=[Arrival(time=0, payload=(1,))])
        call(kernel, mem, SyscallKind.LISTEN)
        outcome = call(kernel, mem, SyscallKind.ACCEPT, 999, now=5)
        assert isinstance(outcome, SyscallDone)

    def test_recv_and_send(self):
        kernel, mem = make_kernel(arrivals=[Arrival(time=0, payload=(4, 5, 6))])
        call(kernel, mem, SyscallKind.LISTEN)
        fd = call(kernel, mem, SyscallKind.ACCEPT, 999, now=1).retval
        recv = call(kernel, mem, SyscallKind.RECV, fd, 8, 10)
        assert recv.retval == 3
        assert mem.read_block(8, 3) == [4, 5, 6]
        mem.write_block(20, [99])
        call(kernel, mem, SyscallKind.SEND, fd, 20, 1)
        assert kernel.net.all_responses()[fd] == [99]

    def test_recv_drained_returns_zero(self):
        kernel, mem = make_kernel(arrivals=[Arrival(time=0, payload=(4,))])
        call(kernel, mem, SyscallKind.LISTEN)
        fd = call(kernel, mem, SyscallKind.ACCEPT, 999, now=1).retval
        call(kernel, mem, SyscallKind.RECV, fd, 8, 10)
        assert call(kernel, mem, SyscallKind.RECV, fd, 8, 10).retval == 0

    def test_fifo_accept_wakeups(self):
        kernel, mem = make_kernel(
            arrivals=[Arrival(time=10, payload=(1,)), Arrival(time=20, payload=(2,))]
        )
        call(kernel, mem, SyscallKind.LISTEN)
        call(kernel, mem, SyscallKind.ACCEPT, 999, tid=1)
        call(kernel, mem, SyscallKind.ACCEPT, 999, tid=2)
        wakeups = kernel.wakeups(25, mem)
        assert [w.tid for w in wakeups] == [1, 2]


class TestMisc:
    def test_time_returns_now(self):
        kernel, mem = make_kernel()
        assert call(kernel, mem, SyscallKind.TIME, now=1234).retval == 1234

    def test_rand_deterministic_per_seed(self):
        a, mem = make_kernel(seed=3)
        b, _ = make_kernel(seed=3)
        assert [call(a, mem, SyscallKind.RAND).retval for _ in range(5)] == [
            call(b, mem, SyscallKind.RAND).retval for _ in range(5)
        ]

    def test_getpid(self):
        kernel, mem = make_kernel()
        assert call(kernel, mem, SyscallKind.GETPID).retval == 1

    def test_alloc_maps_fresh_pages(self):
        kernel, mem = make_kernel()
        base = call(kernel, mem, SyscallKind.ALLOC, 10).retval
        mem.write(base + 9, 1)
        assert mem.read(base + 9) == 1

    def test_allocations_do_not_share_pages(self):
        kernel, mem = make_kernel()
        a = call(kernel, mem, SyscallKind.ALLOC, 3).retval
        b = call(kernel, mem, SyscallKind.ALLOC, 3).retval
        assert b // PAGE_WORDS > a // PAGE_WORDS

    def test_alloc_nonpositive_faults(self):
        kernel, mem = make_kernel()
        with pytest.raises(SyscallError):
            call(kernel, mem, SyscallKind.ALLOC, 0)

    def test_print_captures_output(self):
        kernel, mem = make_kernel()
        call(kernel, mem, SyscallKind.PRINT, 42)
        call(kernel, mem, SyscallKind.PRINT, 43)
        assert kernel.output == [42, 43]

    def test_sleep_blocks_and_wakes(self):
        kernel, mem = make_kernel()
        outcome = call(kernel, mem, SyscallKind.SLEEP, 50, tid=3, now=100)
        assert isinstance(outcome, SyscallBlock)
        assert kernel.next_event_time() == 150
        assert kernel.wakeups(149, mem) == []
        wakeups = kernel.wakeups(150, mem)
        assert [w.tid for w in wakeups] == [3]

    def test_yield_is_immediate(self):
        kernel, mem = make_kernel()
        assert call(kernel, mem, SyscallKind.YIELD).retval == 0


def _uncached_next_event(kernel):
    """``next_event_time`` recomputed from the live state, no cache."""
    candidates = [wake for wake, _, _ in kernel._sleepers]
    candidates += [fire for fire, _, _, _ in kernel._timers]
    arrival = kernel.net.next_arrival_time()
    if arrival is not None:
        candidates.append(arrival)
    return min(candidates) if candidates else None


@pytest.mark.parametrize("seed", range(4))
def test_next_event_cache_survives_any_syscall_sequence(seed):
    """Only ACCEPT, SLEEP and SETTIMER (besides wakeups, signal
    deliveries and restore) drop the cached next event; after every call
    of a seeded random sequence the cached answer is the recomputed one."""
    rng = random.Random(seed)
    arrivals = sorted(rng.randrange(0, 600) for _ in range(8))
    kernel, mem = make_kernel(
        files={0: list(range(1, 40))},
        arrivals=[Arrival(time=t, payload=(t, t + 1)) for t in arrivals],
        seed=seed,
    )
    call(kernel, mem, SyscallKind.LISTEN)
    rfd = call(kernel, mem, SyscallKind.OPEN, 0).retval
    wfd = call(kernel, mem, SyscallKind.OPEN, 5).retval
    snapshot = kernel.snapshot()
    connections = []
    now = 0
    for step in range(300):
        now += rng.randrange(0, 12)
        tid = rng.randrange(1, 5)
        kind = rng.choice([
            "accept", "sleep", "timer", "wake", "read", "write", "recv",
            "send", "time", "rand", "print", "yield", "alloc", "restore",
        ])
        if kind == "accept":
            outcome = call(kernel, mem, SyscallKind.ACCEPT, 999, tid=tid, now=now)
            if isinstance(outcome, SyscallDone):
                connections.append(outcome.retval)
        elif kind == "sleep":
            call(kernel, mem, SyscallKind.SLEEP, rng.randrange(0, 90), tid=tid, now=now)
        elif kind == "timer":
            call(kernel, mem, SyscallKind.SETTIMER, rng.randrange(0, 90), 7,
                 tid=tid, now=now)
        elif kind == "wake":
            for wakeup in kernel.wakeups(now, mem):
                if wakeup.retval:
                    connections.append(wakeup.retval)
            kernel.signal_deliveries(now)
        elif kind == "read":
            call(kernel, mem, SyscallKind.READ, rfd, 8, 3, now=now)
        elif kind == "write":
            call(kernel, mem, SyscallKind.WRITE, wfd, 8, 2, now=now)
        elif kind == "recv" and connections:
            call(kernel, mem, SyscallKind.RECV, rng.choice(connections), 8, 2, now=now)
        elif kind == "send" and connections:
            call(kernel, mem, SyscallKind.SEND, rng.choice(connections), 8, 1, now=now)
        elif kind == "time":
            call(kernel, mem, SyscallKind.TIME, now=now)
        elif kind == "rand":
            call(kernel, mem, SyscallKind.RAND, now=now)
        elif kind == "print":
            call(kernel, mem, SyscallKind.PRINT, step, now=now)
        elif kind == "yield":
            call(kernel, mem, SyscallKind.YIELD, now=now)
        elif kind == "alloc":
            call(kernel, mem, SyscallKind.ALLOC, 3, now=now)
        elif kind == "restore" and step % 7 == 0:
            kernel.restore(snapshot)
            connections = []
        assert kernel.next_event_time() == _uncached_next_event(kernel), (step, kind)


class TestSnapshot:
    def test_round_trip_preserves_everything(self):
        kernel, mem = make_kernel(
            files={0: [1, 2, 3]},
            arrivals=[Arrival(time=10, payload=(9,))],
            seed=7,
        )
        fd = call(kernel, mem, SyscallKind.OPEN, 0).retval
        call(kernel, mem, SyscallKind.READ, fd, 8, 1)
        call(kernel, mem, SyscallKind.PRINT, 5)
        rand_before = None
        state = kernel.snapshot()
        rand_before = call(kernel, mem, SyscallKind.RAND).retval
        read_before = call(kernel, mem, SyscallKind.READ, fd, 8, 1).retval

        kernel.restore(state)
        assert call(kernel, mem, SyscallKind.RAND).retval == rand_before
        assert call(kernel, mem, SyscallKind.READ, fd, 8, 1).retval == read_before
        assert kernel.output == [5]

    def test_restore_into_fresh_kernel(self):
        kernel, mem = make_kernel(files={0: [1, 2]})
        fd = call(kernel, mem, SyscallKind.OPEN, 0).retval
        call(kernel, mem, SyscallKind.READ, fd, 8, 1)
        state = kernel.snapshot()

        fresh = Kernel(KernelSetup(files={0: [1, 2]}), heap_base=10 * PAGE_WORDS)
        fresh.restore(state)
        assert call(fresh, mem, SyscallKind.READ, fd, 8, 1).retval == 1
        assert mem.read(8) == 2  # offset was mid-file

    def test_digest_tracks_output(self):
        kernel, mem = make_kernel()
        before = kernel.digest()
        call(kernel, mem, SyscallKind.PRINT, 1)
        assert kernel.digest() != before


# ----------------------------------------------------------------------
# The snapshot contract, as a state machine
#
# ``Kernel.snapshot()`` is copy-on-write: files, connections and output
# are frozen again only when touched since the last snapshot or restore.
# Over random syscall / snapshot / restore sequences: (1) every snapshot
# equals a full copy of the live state made from scratch, dict order
# included; (2) no snapshot already taken changes when the kernel moves
# on; (3) ``restore(s)`` then ``snapshot()`` gives ``s`` back — into the
# same kernel or a fresh one, which is how a recovery restarts a segment.
# ----------------------------------------------------------------------
def full_copy(kernel):
    """The kernel's state copied from scratch: the snapshot's reference."""
    fs, net = kernel.fs, kernel.net
    return (
        (
            {fid: tuple(data) for fid, data in fs.files.items()},
            {fd: (h.file_id, h.offset) for fd, h in fs._descriptors.items()},
            fs._next_fd,
        ),
        (
            net._next_arrival,
            tuple(tuple(payload) for payload in net._backlog),
            net._listening,
            {
                fd: (tuple(conn.payload), conn.cursor, tuple(conn.responses))
                for fd, conn in net._connections.items()
            },
            net._next_conn_fd,
            tuple(net.accept_waiters),
        ),
        kernel._rng.getstate(),
        kernel._brk,
        tuple(kernel.output),
        tuple(kernel._sleepers),
        kernel._sleep_seq,
        tuple(kernel._timers),
        kernel._timer_seq,
    )


def _with_order(state):
    """``state`` plus the key order of its two big dicts (== ignores it)."""
    return state, list(state[0][0]), list(state[1][3])


SETUP = KernelSetup(
    files={4: [1, 2, 3, 4, 5, 6], 2: [7]},
    arrivals=[Arrival(time=5 * k, payload=(k, k + 1, k + 2)) for k in range(8)],
    rand_seed=3,
)
WORDS = st.lists(st.integers(0, 99), min_size=1, max_size=3)


class SnapshotMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.kernel = Kernel(SETUP, heap_base=10 * PAGE_WORDS)
        self.mem = AddressSpace()
        self.mem.map_range(0, 4 * PAGE_WORDS)
        #: (snapshot, deep copy made when it was taken)
        self.taken = []

    def call(self, kind, *args, now=0):
        return self.kernel.syscall(1, kind, args, self.mem, now)

    def connections(self):
        return sorted(self.kernel.net._connections)

    def descriptors(self):
        return sorted(self.kernel.fs._descriptors)

    @initialize(listening=st.booleans())
    def maybe_listening(self, listening):
        if listening:
            self.call(SyscallKind.LISTEN)

    @rule()
    def listen(self):
        self.call(SyscallKind.LISTEN)

    @precondition(lambda self: self.kernel.net._listening)
    @rule(now=st.integers(0, 45), tid=st.integers(1, 3))
    def accept(self, now, tid):
        self.kernel.syscall(tid, SyscallKind.ACCEPT, (999,), self.mem, now)

    @precondition(lambda self: self.kernel.net._listening)
    @rule(now=st.integers(0, 45))
    def admit(self, now):
        self.kernel.wakeups(now, self.mem)

    @precondition(lambda self: self.connections())
    @rule(data=st.data(), maxlen=st.integers(0, 3))
    def recv(self, data, maxlen):
        fd = data.draw(st.sampled_from(self.connections()))
        self.call(SyscallKind.RECV, fd, 8, maxlen)

    @precondition(lambda self: self.connections())
    @rule(data=st.data(), words=WORDS)
    def send(self, data, words):
        fd = data.draw(st.sampled_from(self.connections()))
        self.mem.write_block(16, words)
        self.call(SyscallKind.SEND, fd, 16, len(words))

    @rule(file_id=st.sampled_from([4, 2, 9, 6]))
    def open(self, file_id):
        self.call(SyscallKind.OPEN, file_id)

    @precondition(lambda self: self.descriptors())
    @rule(data=st.data(), maxlen=st.integers(0, 4))
    def read(self, data, maxlen):
        fd = data.draw(st.sampled_from(self.descriptors()))
        self.call(SyscallKind.READ, fd, 8, maxlen)

    @precondition(lambda self: self.descriptors())
    @rule(data=st.data(), words=WORDS)
    def write(self, data, words):
        fd = data.draw(st.sampled_from(self.descriptors()))
        self.mem.write_block(16, words)
        self.call(SyscallKind.WRITE, fd, 16, len(words))

    @precondition(lambda self: self.descriptors())
    @rule(data=st.data())
    def close(self, data):
        self.call(SyscallKind.CLOSE, data.draw(st.sampled_from(self.descriptors())))

    @rule(value=st.integers(0, 9))
    def print_(self, value):
        self.call(SyscallKind.PRINT, value)

    @rule()
    def rand(self):
        self.call(SyscallKind.RAND)

    @rule()
    def snapshot(self):
        state = self.kernel.snapshot()
        assert _with_order(state) == _with_order(full_copy(self.kernel))
        self.taken.append((state, copy.deepcopy(state)))

    @precondition(lambda self: self.taken)
    @rule(data=st.data(), fresh=st.booleans(), check=st.booleans())
    def restore_earlier(self, data, fresh, check):
        state, _ = data.draw(st.sampled_from(self.taken))
        if fresh:
            self.kernel = Kernel(SETUP, heap_base=10 * PAGE_WORDS)
        self.kernel.restore(state)
        # Not always: the snapshot itself refreshes what a restore that
        # forgot to would have left stale.
        if check:
            assert _with_order(self.kernel.snapshot()) == _with_order(state)

    @invariant()
    def earlier_snapshots_never_change(self):
        for state, copied in self.taken:
            assert _with_order(state) == _with_order(copied)


TestSnapshotContract = SnapshotMachine.TestCase
TestSnapshotContract.settings = settings(
    max_examples=200, stateful_step_count=30, deadline=None
)
