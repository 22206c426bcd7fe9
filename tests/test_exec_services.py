"""Syscall service personalities: live logging and injection."""

import pytest

from repro.errors import DivergenceSignal
from repro.exec.services import InjectedSyscalls, InjectionLog, LiveSyscalls
from repro.isa.context import ThreadContext
from repro.memory.address_space import AddressSpace
from repro.memory.layout import PAGE_WORDS
from repro.oskernel.kernel import Kernel, KernelSetup
from repro.oskernel.syscalls import (
    SyscallDone,
    SyscallKind,
    SyscallRecord,
    decode_record,
    encode_record,
)


def make_ctx(tid=1, syscalls=0):
    ctx = ThreadContext(tid=tid, pc=0, registers=[0] * 8)
    ctx.syscall_count = syscalls
    return ctx


def make_mem():
    mem = AddressSpace()
    mem.map_range(0, 4 * PAGE_WORDS)
    return mem


class TestLiveSyscalls:
    def test_logs_completions_with_sequence_numbers(self):
        kernel = Kernel(KernelSetup(), 10 * PAGE_WORDS)
        log = []
        services = LiveSyscalls(kernel, log)
        mem = make_mem()
        ctx = make_ctx()
        services.invoke(ctx, SyscallKind.TIME, (), mem, 5)
        ctx.syscall_count = 1
        services.invoke(ctx, SyscallKind.GETPID, (), mem, 6)
        assert [(r.tid, r.seq, r.kind) for r in log] == [
            (1, 0, SyscallKind.TIME),
            (1, 1, SyscallKind.GETPID),
        ]
        assert log[0].retval == 5

    def test_no_log_when_disabled(self):
        kernel = Kernel(KernelSetup(), 10 * PAGE_WORDS)
        services = LiveSyscalls(kernel, None)
        services.invoke(make_ctx(), SyscallKind.TIME, (), make_mem(), 0)
        assert services.log is None  # and nothing crashed

    def test_read_logs_buffer_writes(self):
        kernel = Kernel(KernelSetup(files={0: [1, 2, 3]}), 10 * PAGE_WORDS)
        log = []
        services = LiveSyscalls(kernel, log)
        mem = make_mem()
        ctx = make_ctx()
        fd = services.invoke(ctx, SyscallKind.OPEN, (0,), mem, 0).retval
        ctx.syscall_count = 1
        outcome = services.invoke(ctx, SyscallKind.READ, (fd, 8, 3), mem, 0)
        assert outcome.writes == ((8, (1, 2, 3)),)
        assert log[-1].writes == ((8, (1, 2, 3)),)
        assert log[-1].transferred == 3


class TestInjectedSyscalls:
    def test_injects_retval_and_memory(self):
        records = [
            SyscallRecord(
                tid=1, seq=0, kind=SyscallKind.READ, retval=2,
                writes=((8, (7, 9)),), transferred=2,
            )
        ]
        services = InjectedSyscalls(records)
        mem = make_mem()
        outcome = services.invoke(make_ctx(), SyscallKind.READ, (3, 8, 2), mem, 0)
        assert isinstance(outcome, SyscallDone)
        assert outcome.retval == 2
        assert mem.read_block(8, 2) == [7, 9]
        assert services.consumed == 1

    def test_lookup_is_per_thread_sequence(self):
        records = [
            SyscallRecord(tid=2, seq=0, kind=SyscallKind.TIME, retval=111),
            SyscallRecord(tid=1, seq=0, kind=SyscallKind.TIME, retval=222),
        ]
        services = InjectedSyscalls(records)
        outcome = services.invoke(make_ctx(tid=1), SyscallKind.TIME, (), make_mem(), 0)
        assert outcome.retval == 222

    def test_missing_record_blocks(self):
        from repro.oskernel.syscalls import SyscallBlock

        services = InjectedSyscalls([])
        outcome = services.invoke(make_ctx(), SyscallKind.TIME, (), make_mem(), 0)
        assert isinstance(outcome, SyscallBlock)

    def test_kind_mismatch_raises_and_calls_back(self):
        seen = []
        records = [SyscallRecord(tid=1, seq=0, kind=SyscallKind.RAND, retval=5)]
        services = InjectedSyscalls(records, on_mismatch=seen.append)
        with pytest.raises(DivergenceSignal):
            services.invoke(make_ctx(), SyscallKind.TIME, (), make_mem(), 0)
        assert seen and "time" in seen[0]

    def test_alloc_injection_maps_pages(self):
        base = 50 * PAGE_WORDS
        records = [
            SyscallRecord(tid=1, seq=0, kind=SyscallKind.ALLOC, retval=base)
        ]
        services = InjectedSyscalls(records)
        mem = make_mem()
        services.invoke(make_ctx(), SyscallKind.ALLOC, (10,), mem, 0)
        mem.write(base + 9, 1)
        assert mem.read(base + 9) == 1

    def test_no_kernel_events(self):
        services = InjectedSyscalls([])
        assert services.wakeups(100, make_mem()) == []
        assert services.signal_deliveries(100) == []
        assert services.next_event_time() is None


class TestRecordCodec:
    """One plain form per record; an ``InjectionLog`` travels in it."""

    RECORDS = [
        SyscallRecord(1, 0, SyscallKind.READ, 2, ((8, (5, 6)),), 2),
        SyscallRecord(2, 0, SyscallKind.TIME, 17),
        SyscallRecord(1, 1, SyscallKind.ALLOC, 640),
    ]

    def test_plain_form_round_trips_through_pickle_and_json(self):
        import json
        import pickle

        for record in self.RECORDS:
            plain = encode_record(record)
            assert type(plain) is tuple and plain[2] == record.kind.value
            assert decode_record(plain) == record
            assert decode_record(pickle.loads(pickle.dumps(plain))) == record
            # JSON turns every tuple into a list; decoding restores them.
            decoded = decode_record(json.loads(json.dumps(plain)))
            assert decoded == record and type(decoded.writes) is tuple
            assert all(type(words) is tuple for _, words in decoded.writes)

    def test_a_record_keeps_its_fields_defaults_and_size(self):
        read, time, _ = self.RECORDS
        assert (time.writes, time.transferred) == ((), 0)
        assert (read.tid, read.seq, read.retval) == (1, 0, 2)
        assert read.size_words() == 4 + 2 + 2 and time.size_words() == 4
        assert read._replace(retval=3).retval == 3

    def test_injection_log_pickles_as_plain_records(self):
        import pickle

        log = InjectionLog(self.RECORDS)
        wire = pickle.dumps(log, protocol=4)
        assert b"SyscallRecord" not in wire and b"SyscallKind" not in wire
        clone = pickle.loads(wire)
        assert type(clone) is InjectionLog and clone == log
        assert clone._by_seq is None  # the index never crosses the wire

    def test_join_merges_the_chunks_indices(self):
        chunks = [InjectionLog(self.RECORDS[:2]), InjectionLog(self.RECORDS[2:])]
        built = [chunk.by_seq for chunk in chunks]
        joined = InjectionLog.join(chunks)
        assert tuple(joined) == tuple(self.RECORDS)
        assert joined._by_seq == {**built[0], **built[1]}
        assert InjectionLog.join(chunks[:1]) is chunks[0]
        services = InjectedSyscalls(joined)
        outcome = services.invoke(make_ctx(1, 1), SyscallKind.ALLOC, (4,), make_mem(), 0)
        assert outcome.retval == 640
