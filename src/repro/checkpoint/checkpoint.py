"""The checkpoint object.

A checkpoint captures everything needed to (a) re-execute forward from this
point on a fresh engine and (b) decide whether another execution reached
"the same point": a copy-on-write memory snapshot, copies of every thread
context, the exact synchronisation state, and — for live executions — the
kernel state.

The *boundary* of the epoch that starts here is defined per thread: the
retired-op counts stored in the **next** checkpoint's contexts are the
targets the epoch-parallel execution runs each thread to.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.errors import ReplayError
from repro.isa.context import BlockedReason, ThreadContext, ThreadStatus
from repro.memory.address_space import MemorySnapshot
from repro.memory.blob import decode_blob, encode_object
from repro.memory.hashing import combine_hashes, contexts_digest
from repro.memory.page import Page


def _plain_context(ctx: ThreadContext) -> Tuple:
    """A thread context as plain data: no class, enum or field names
    pickled, which more than halves a skeleton's context bytes."""
    blocked = ctx.blocked
    return (
        ctx.tid, ctx.pc, ctx.registers, ctx.status.value, ctx.call_stack,
        ctx.retired, None if blocked is None else (blocked.kind, blocked.detail),
        ctx.spawn_count, ctx.syscall_count, ctx.parent, ctx.pending_grant,
        ctx.pending_signals,
    )


_STATUSES = {status.value: status for status in ThreadStatus}


def _ints(*values) -> bool:
    return all(type(value) is int for value in values)


def _context_of(fields: Tuple) -> ThreadContext:
    """Inverse of :func:`_plain_context`: ValueError (or any error of a
    failed unpack) for a tuple not of its arity and field types."""
    if type(fields) is not tuple:
        raise ValueError("not a thread context")
    (tid, pc, registers, status, call_stack, retired, blocked,
     spawn_count, syscall_count, parent, pending_grant, pending_signals) = fields
    if not (
        _ints(tid, pc, retired, spawn_count, syscall_count, parent)
        and all(type(words) is list and _ints(*words)
                for words in (registers, call_stack, pending_signals))
        and status in _STATUSES
        and (blocked is None or type(blocked) is tuple and len(blocked) == 2
             and type(blocked[0]) is str and type(blocked[1]) is tuple)
        and (pending_grant is None or type(pending_grant) is tuple)
    ):
        raise ValueError("not a thread context")
    return ThreadContext(
        tid, pc, registers, _STATUSES[status], call_stack, retired,
        None if blocked is None else BlockedReason(*blocked),
        spawn_count, syscall_count, parent, pending_grant, pending_signals,
    )


@dataclass
class Checkpoint:
    """One captured execution state."""

    index: int
    time: int
    memory: MemorySnapshot
    contexts: Dict[int, ThreadContext]
    sync_state: Tuple
    kernel_state: Optional[Tuple] = None
    #: pages dirtied in the interval that ended at this checkpoint
    dirty_pages: int = 0
    _digest: Optional[int] = field(default=None, repr=False)
    _ctx_digest: Optional[int] = field(default=None, repr=False)

    def targets(self) -> Dict[int, int]:
        """Per-thread retired-op counts — the epoch boundary definition."""
        return {tid: ctx.retired for tid, ctx in self.contexts.items()}

    def syscall_counts(self) -> Dict[int, int]:
        """Per-thread syscall counts: a log record below its thread's
        count completed before this checkpoint and is unreachable from it."""
        return {tid: ctx.syscall_count for tid, ctx in self.contexts.items()}

    def contexts_digest(self) -> int:
        # The checkpoint's contexts are private copies (see
        # CheckpointManager), so the digest can be computed once.
        if self._ctx_digest is None:
            self._ctx_digest = contexts_digest(self.contexts)
        return self._ctx_digest

    def digest(self) -> int:
        """Guest-state digest: memory + normalised thread contexts.

        Deliberately excludes kernel and sync-queue state; see
        ``repro.core.divergence`` for why that is the correct equivalence
        for epoch-boundary comparison.
        """
        if self._digest is None:
            self._digest = combine_hashes(
                [self.memory.content_hash(), self.contexts_digest()]
            )
        return self._digest

    def live_threads(self) -> int:
        return sum(
            1
            for ctx in self.contexts.values()
            if ctx.status != ThreadStatus.EXITED
        )

    def copy_contexts(self) -> Dict[int, ThreadContext]:
        """Fresh context copies safe to hand to a new engine."""
        return {tid: ctx.copy() for tid, ctx in self.contexts.items()}

    def to_wire(self) -> "WireCheckpoint":
        """Skeleton form for the content-addressed host wire.

        The skeleton names every page by digest instead of carrying its
        bytes (see :class:`WireCheckpoint`); the kernel state is stripped:
        epoch executors inject logged syscalls and never touch a live
        kernel — only forward recovery needs ``kernel_state``, and
        recovery always runs on the coordinator. The content-derived
        digest caches transfer.
        """
        return WireCheckpoint(
            index=self.index,
            time=self.time,
            contexts=self.contexts,
            sync_state=self.sync_state,
            dirty_pages=self.dirty_pages,
            page_table=dict(self.memory.page_digest_table()),
            space_hash=self.memory._hash,
            sorted_keys=self.memory._sorted,
            digest_cache=self._digest,
            ctx_digest_cache=self._ctx_digest,
            _local=self,
        )

    def wire_delta(self, base: "Checkpoint") -> "WireCheckpoint":
        """Delta skeleton: this checkpoint's memory as changes vs ``base``.

        A record unit ships its ``boundary`` this way: consecutive
        checkpoints share almost every page object (copy-on-write), so
        the delta is exactly the epoch's dirty pages. Pages whose objects
        differ but whose contents are digest-equal are treated as
        unchanged — hydration then maps both checkpoints to the *same*
        page object, which only widens the divergence check's identity
        fast path.
        """
        base_pages = base.memory.pages
        changes: Dict[int, int] = {}
        for no, page in self.memory.pages.items():
            other = base_pages.get(no)
            if other is page:
                continue
            digest = page.wire_blob()[0]
            if other is not None and other.wire_blob()[0] == digest:
                continue
            changes[no] = digest
        drops = tuple(no for no in base_pages if no not in self.memory.pages)
        return WireCheckpoint(
            index=self.index,
            time=self.time,
            contexts=self.contexts,
            sync_state=self.sync_state,
            dirty_pages=self.dirty_pages,
            page_table=None,
            page_changes=changes,
            page_drops=drops,
            space_hash=self.memory._hash,
            sorted_keys=self.memory._sorted,
            digest_cache=self._digest,
            ctx_digest_cache=self._ctx_digest,
            _local=self,
        )

    def release(self) -> None:
        """Drop the memory snapshot's page pins (when discarded)."""
        self.memory.release()

    def __repr__(self) -> str:
        return (
            f"Checkpoint(index={self.index}, time={self.time}, "
            f"threads={len(self.contexts)}, pages={self.memory.page_count()})"
        )


@dataclass
class WireCheckpoint:
    """A checkpoint skeleton for the content-addressed host wire.

    Carries everything a worker needs to rebuild the checkpoint *except*
    page contents: memory is a ``{page_no: digest}`` table (full form) or
    a ``(changes, drops)`` delta against another checkpoint's table, and
    the bytes travel separately as ``(digest, blob)`` pairs that worker
    caches dedupe across units, epochs, and whole recordings (see
    :mod:`repro.host.blobs`).

    ``_local`` is a coordinator-side shortcut: the original
    :class:`Checkpoint` the skeleton was built from. It is stripped at
    the pickle boundary, so a worker never sees it, but the coordinator's
    serial fallback hydrates to the exact original object — zero decode,
    and trivially bit-identical to the ``jobs=1`` path.

    A full-form skeleton is also the durable log's checkpoint record
    (:meth:`to_blob` / :meth:`from_blob`), so a log and a unit name a
    checkpoint identically.
    """

    index: int
    time: int
    contexts: Dict[int, ThreadContext]
    sync_state: Tuple
    dirty_pages: int = 0
    #: full digest table, or ``None`` when this skeleton is a delta
    page_table: Optional[Dict[int, int]] = None
    #: delta form: pages added/changed vs the base table
    page_changes: Dict[int, int] = field(default_factory=dict)
    #: delta form: pages present in the base but unmapped here
    page_drops: Tuple[int, ...] = ()
    #: content-derived caches — transfer so workers never recompute them
    space_hash: Optional[int] = None
    sorted_keys: Optional[List[int]] = None
    digest_cache: Optional[int] = None
    ctx_digest_cache: Optional[int] = None
    _local: Optional[Checkpoint] = field(default=None, repr=False, compare=False)

    def __getstate__(self):
        state = dict(self.__dict__)
        state["_local"] = None  # coordinator-only shortcut, never shipped
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)

    @property
    def is_delta(self) -> bool:
        return self.page_table is None

    def to_blob(self) -> bytes:
        """The durable blob of a full-form skeleton: its six stored fields
        as one object blob (the content caches are derived, so not stored),
        each thread context as the plain tuple of :func:`_plain_context`."""
        return encode_object((
            self.index, self.time,
            tuple(_plain_context(ctx) for ctx in self.contexts.values()),
            self.sync_state, self.dirty_pages, self.page_table,
        ))

    @classmethod
    def from_blob(cls, blob: bytes, digest: int) -> "WireCheckpoint":
        """Checked inverse of :meth:`to_blob`.

        The blob is outside input (a pack on disk): anything that is not
        an object blob holding a 6-tuple of :meth:`to_blob`'s fields, each
        of its shape, raises :class:`ReplayError` naming ``digest``, the
        blob's address. Contexts stored as a ``{tid: ThreadContext}``
        dict (what earlier writers pickled) still load.
        """
        try:
            kind, fields = decode_blob(blob)
            if kind == "object" and type(fields) is tuple and len(fields) == 6:
                index, time, contexts, sync_state, dirty_pages, table = fields
                if type(contexts) is tuple:
                    contexts = {ctx.tid: ctx for ctx in map(_context_of, contexts)}
                elif not all(type(ctx) is ThreadContext for ctx in contexts.values()):
                    raise ValueError("not a thread context")
                if type(sync_state) is tuple and type(table) is dict and _ints(
                    index, time, dirty_pages, *table, *table.values()
                ):
                    return cls(index, time, contexts, sync_state, dirty_pages, table)
        except Exception:  # noqa: BLE001 - torn bytes unpickle to any error
            pass
        raise ReplayError(f"blob {digest:032x} is not a checkpoint skeleton")

    def blob_digests(self) -> Iterable[int]:
        """Every page digest a worker must resolve to hydrate this skeleton."""
        if self.page_table is not None:
            return self.page_table.values()
        return self.page_changes.values()

    def hydrate(
        self,
        resolve: Callable[[int], Page],
        base_pages: Optional[Dict[int, Page]] = None,
    ) -> Checkpoint:
        """Rebuild a working :class:`Checkpoint` from the skeleton.

        ``resolve`` maps a digest to a (cache-resident or just-decoded)
        :class:`Page`; a delta skeleton additionally needs ``base_pages``,
        the hydrated page table of the checkpoint it was deltaed against.
        Every table entry pins a reference on its page, exactly like
        ``AddressSpace.snapshot()`` — cached pages therefore always have
        ``refs > 1`` and copy-on-write before any engine can touch them.
        Equal-digest entries share one page object, which preserves (and
        on all-zero pages widens) the divergence check's identity fast
        path.
        """
        if self._local is not None:
            return self._local
        if self.page_table is not None:
            pages = {no: resolve(digest) for no, digest in self.page_table.items()}
        else:
            if base_pages is None:
                raise ValueError("delta skeleton hydrated without its base")
            pages = dict(base_pages)
            for no, digest in self.page_changes.items():
                pages[no] = resolve(digest)
            for no in self.page_drops:
                pages.pop(no, None)
        for page in pages.values():
            page.refs += 1
        snapshot = MemorySnapshot(
            pages,
            list(self.sorted_keys) if self.sorted_keys is not None else None,
        )
        snapshot._hash = self.space_hash
        return Checkpoint(
            index=self.index,
            time=self.time,
            memory=snapshot,
            contexts=self.contexts,
            sync_state=self.sync_state,
            kernel_state=None,
            dirty_pages=self.dirty_pages,
            _digest=self.digest_cache,
            _ctx_digest=self.ctx_digest_cache,
        )

    def __repr__(self) -> str:
        form = "delta" if self.is_delta else "full"
        pages = len(self.page_changes) if self.is_delta else len(self.page_table)
        return (
            f"WireCheckpoint(index={self.index}, {form}, pages={pages}, "
            f"threads={len(self.contexts)})"
        )
