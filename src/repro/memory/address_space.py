"""Address spaces and copy-on-write snapshots.

An :class:`AddressSpace` is the live memory of one execution. Taking a
:class:`MemorySnapshot` is O(pages): both sides keep referencing the same
:class:`~repro.memory.page.Page` objects, and the first write to a shared
page clones it. ``cow_copies`` and ``dirty`` bookkeeping feed the
checkpoint cost model (checkpoint cost in DoublePlay is dominated by the
pages dirtied per epoch).

Host performance layer (see DESIGN.md "Host performance layer"):

* a one-entry software TLB per direction caches the last page touched so
  the common sequential access hits a list index instead of a dict lookup;
* the space hash is a cached fold over a cached sorted page list, so
  ``content_hash()`` after an epoch costs O(dirty pages) page re-hashes
  plus one fold instead of a full re-sort + re-hash of every page.

Invariants: the write TLB may only cache a page that is private
(``refs == 1``), already in ``dirty``, and content-cache-invalidated
(both the FNV hash and the wire-blob digest) — then a TLB-hit store can
skip all bookkeeping. Any operation that breaks one of those assumptions
(snapshotting, draining the dirty set, or reading page hashes) must
flush the write TLB first. Fused superblocks (``repro.exec.superblock``)
read the four TLB fields directly and rely on the same invariant.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.errors import GuestFault
from repro.memory.hashing import fold_page_table
from repro.memory.layout import PAGE_OFFSET_MASK, PAGE_SHIFT, PAGE_WORDS, page_of
from repro.memory.page import Page


class MemorySnapshot:
    """An immutable point-in-time view of an address space.

    Holds page references (not copies). Call :meth:`release` when the
    snapshot is discarded so that pages it pinned stop triggering
    copy-on-write in live spaces; forgetting to release is safe but makes
    later writes copy more than necessary.
    """

    __slots__ = ("_pages", "_hash", "_sorted", "_digests", "_released")

    def __init__(
        self,
        pages: Dict[int, Page],
        sorted_keys: Optional[List[int]] = None,
    ):
        self._pages = pages
        self._hash: Optional[int] = None
        self._sorted = sorted_keys
        self._digests: Optional[Dict[int, int]] = None
        self._released = False

    @property
    def pages(self) -> Dict[int, Page]:
        return self._pages

    def page_count(self) -> int:
        return len(self._pages)

    def read(self, addr: int) -> int:
        """Read a word from the snapshot (used by tests and diffing)."""
        page = self._pages.get(page_of(addr))
        if page is None:
            raise GuestFault(f"snapshot read from unmapped address {addr}")
        return page.words[addr & PAGE_OFFSET_MASK]

    def content_hash(self) -> int:
        """Stable hash of the full snapshot contents."""
        if self._hash is None:
            if self._sorted is None:
                self._sorted = sorted(self._pages)
            self._hash = fold_page_table(self._pages, self._sorted)
        return self._hash

    def page_digest_table(self) -> Dict[int, int]:
        """``{page_no: wire digest}`` for every page (cached).

        This is the skeleton form of the snapshot on the content-addressed
        wire: the table names the contents, the page bytes travel (at most
        once per worker) as separate blobs. Snapshots are immutable, so
        the table is computed once; the per-page ``wire_blob`` caches make
        it O(dirty pages) for the next checkpoint of the same execution.
        """
        if self._digests is None:
            self._digests = {
                no: page.wire_blob()[0] for no, page in self._pages.items()
            }
        return self._digests

    def release(self) -> None:
        """Drop the snapshot's pins on shared pages (idempotent)."""
        if self._released:
            return
        for page in self._pages.values():
            page.refs -= 1
        self._released = True

    def __getstate__(self):
        # Host-wire form: pages plus the content-derived caches (hash and
        # sorted key list are functions of the contents, so they transfer).
        # ``_released`` is host-local refcount bookkeeping; the digest
        # table is cheap to rebuild from the per-page caches and only
        # meaningful to the side that ships blobs.
        return (self._pages, self._hash, self._sorted)

    def __setstate__(self, state):
        self._pages, self._hash, self._sorted = state
        self._digests = None
        self._released = False

    def __repr__(self) -> str:
        return f"MemorySnapshot(pages={len(self._pages)})"


class AddressSpace:
    """Live, writable, paged guest memory."""

    __slots__ = (
        "_pages",
        "dirty",
        "cow_copies",
        "_rtlb_no",
        "_rtlb_words",
        "_wtlb_no",
        "_wtlb_words",
        "_space_hash",
        "_sorted_keys",
    )

    def __init__(self) -> None:
        self._pages: Dict[int, Page] = {}
        #: pages written since the last snapshot (drives checkpoint cost)
        self.dirty: Set[int] = set()
        #: pages cloned by copy-on-write since construction (statistics)
        self.cow_copies: int = 0
        # Software TLBs: last page hit by a load / by a store. ``None``
        # sentinels (not -1: negative addresses floor-shift to page -1).
        self._rtlb_no: Optional[int] = None
        self._rtlb_words: Optional[List[int]] = None
        self._wtlb_no: Optional[int] = None
        self._wtlb_words: Optional[List[int]] = None
        # Cached table fold + sorted page list; ``None`` means stale.
        self._space_hash: Optional[int] = None
        self._sorted_keys: Optional[List[int]] = None

    def __getstate__(self):
        # Host-wire form. The software TLBs cache raw word-list references
        # into the page table — host-local by definition — so they are
        # dropped and the receiving process starts cold (first access
        # repopulates them; behaviour is identical either way). The fold
        # and sorted-key caches are content-derived and transfer. An active
        # write-TLB entry needs no flush here: its page is already in
        # ``dirty`` with its hash invalidated (the write-TLB invariant).
        return (
            self._pages,
            self.dirty,
            self.cow_copies,
            self._space_hash,
            self._sorted_keys,
        )

    def __setstate__(self, state):
        (
            self._pages,
            self.dirty,
            self.cow_copies,
            self._space_hash,
            self._sorted_keys,
        ) = state
        self._rtlb_no = None
        self._rtlb_words = None
        self._wtlb_no = None
        self._wtlb_words = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_data(cls, data: Dict[int, int]) -> "AddressSpace":
        """Build an address space from a program image's data segment."""
        space = cls()
        for addr, value in data.items():
            space.map_addr(addr)
            space.write(addr, value)
        space._wtlb_no = None
        space.dirty.clear()
        return space

    @classmethod
    def from_snapshot(cls, snapshot: MemorySnapshot) -> "AddressSpace":
        """A private copy-on-write view of ``snapshot``.

        This is how each epoch-parallel executor gets "a different copy of
        the memory" without actually copying it.
        """
        space = cls()
        space._pages = dict(snapshot.pages)
        for page in space._pages.values():
            page.refs += 1
        # Inherit the snapshot's hash caches: the view starts bit-identical.
        space._space_hash = snapshot._hash
        if snapshot._sorted is not None:
            space._sorted_keys = list(snapshot._sorted)
        return space

    @property
    def pages(self) -> Dict[int, Page]:
        """Live page table (read-only by convention)."""
        self._wtlb_no = None  # callers may read page hashes
        return self._pages

    # ------------------------------------------------------------------
    # Mapping
    # ------------------------------------------------------------------
    def map_addr(self, addr: int) -> None:
        """Ensure the page containing ``addr`` is mapped (zero-filled)."""
        self.map_page(addr >> PAGE_SHIFT)

    def map_page(self, page_no: int) -> None:
        if page_no not in self._pages:
            self._pages[page_no] = Page()
            self._space_hash = None
            self._sorted_keys = None

    def map_range(self, base: int, length: int) -> None:
        """Map every page overlapped by ``[base, base+length)``."""
        if length <= 0:
            return
        for page_no in range(base >> PAGE_SHIFT, ((base + length - 1) >> PAGE_SHIFT) + 1):
            self.map_page(page_no)

    def is_mapped(self, addr: int) -> bool:
        return (addr >> PAGE_SHIFT) in self._pages

    def check_range(self, base: int, length: int) -> None:
        """Fault unless ``[base, base+length)`` is fully mapped.

        Kernel buffer transfers validate up front so a bad buffer faults
        *before* any word moves — faults must be clean op boundaries
        (no partial effects), or crash recordings would not replay.
        """
        if length <= 0:
            return
        pages = self._pages
        for page_no in range(base >> PAGE_SHIFT, ((base + length - 1) >> PAGE_SHIFT) + 1):
            if page_no not in pages:
                raise GuestFault(
                    f"buffer [{base}, {base + length}) touches unmapped page {page_no}"
                )

    def page_count(self) -> int:
        return len(self._pages)

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    def read(self, addr: int) -> int:
        page_no = addr >> PAGE_SHIFT
        if page_no == self._rtlb_no:
            return self._rtlb_words[addr & PAGE_OFFSET_MASK]
        page = self._pages.get(page_no)
        if page is None:
            raise GuestFault(f"load from unmapped address {addr}")
        self._rtlb_no = page_no
        words = self._rtlb_words = page.words
        return words[addr & PAGE_OFFSET_MASK]

    def write(self, addr: int, value: int) -> None:
        page_no = addr >> PAGE_SHIFT
        if page_no == self._wtlb_no:
            # TLB invariant: cached page is private, dirty, hash-invalid.
            self._wtlb_words[addr & PAGE_OFFSET_MASK] = value
            return
        page = self._pages.get(page_no)
        if page is None:
            raise GuestFault(f"store to unmapped address {addr}")
        if page.refs > 1:
            page.refs -= 1
            page = page.clone()
            self._pages[page_no] = page
            self.cow_copies += 1
            if page_no == self._rtlb_no:
                self._rtlb_words = page.words
        words = page.words
        words[addr & PAGE_OFFSET_MASK] = value
        page._hash = None
        page._wire = None
        self.dirty.add(page_no)
        self._space_hash = None
        self._wtlb_no = page_no
        self._wtlb_words = words

    def read_block(self, base: int, length: int) -> list:
        """Read ``length`` consecutive words (syscall buffers).

        Page-at-a-time: one page lookup per page touched, not per word.
        """
        if length <= 0:
            return []
        out: List[int] = []
        pages = self._pages
        addr = base
        end = base + length
        while addr < end:
            page_no = addr >> PAGE_SHIFT
            page = pages.get(page_no)
            if page is None:
                raise GuestFault(f"load from unmapped address {addr}")
            offset = addr & PAGE_OFFSET_MASK
            take = min(PAGE_WORDS - offset, end - addr)
            out.extend(page.words[offset : offset + take])
            addr += take
        return out

    def write_block(self, base: int, values: Iterable[int]) -> None:
        """Write consecutive words starting at ``base`` (syscall buffers).

        Page-at-a-time with one COW/dirty/hash update per page. Matches
        the per-word loop exactly, including partial effects before a
        fault mid-buffer.
        """
        values = list(values)
        if not values:
            return
        self._rtlb_no = None  # COW below may swap page objects
        self._wtlb_no = None
        pages = self._pages
        dirty = self.dirty
        addr = base
        end = base + len(values)
        taken = 0
        while addr < end:
            page_no = addr >> PAGE_SHIFT
            page = pages.get(page_no)
            if page is None:
                raise GuestFault(f"store to unmapped address {addr}")
            if page.refs > 1:
                page.refs -= 1
                page = page.clone()
                pages[page_no] = page
                self.cow_copies += 1
            offset = addr & PAGE_OFFSET_MASK
            take = min(PAGE_WORDS - offset, end - addr)
            page.words[offset : offset + take] = values[taken : taken + take]
            page._hash = None
            page._wire = None
            dirty.add(page_no)
            addr += take
            taken += take
        self._space_hash = None

    # ------------------------------------------------------------------
    # Snapshots and comparison
    # ------------------------------------------------------------------
    def snapshot(self) -> MemorySnapshot:
        """Pin current pages into a snapshot; resets the dirty set."""
        self._wtlb_no = None  # pinned pages are no longer private
        for page in self._pages.values():
            page.refs += 1
        self.dirty.clear()
        if self._sorted_keys is None:
            self._sorted_keys = sorted(self._pages)
        snap = MemorySnapshot(dict(self._pages), list(self._sorted_keys))
        snap._hash = self._space_hash
        return snap

    def take_dirty(self) -> Set[int]:
        """Return and clear the set of pages written since last snapshot."""
        self._wtlb_no = None  # TLB assumes its page is in ``dirty``
        dirty, self.dirty = self.dirty, set()
        return dirty

    def content_hash(self) -> int:
        self._wtlb_no = None  # about to cache page hashes
        value = self._space_hash
        if value is None:
            keys = self._sorted_keys
            if keys is None:
                keys = self._sorted_keys = sorted(self._pages)
            value = self._space_hash = fold_page_table(self._pages, keys)
        return value

    def same_content(self, other: "AddressSpace") -> bool:
        """Deep content equality with cheap shared-page short-circuiting."""
        self._wtlb_no = None
        other._wtlb_no = None
        if self._pages.keys() != other._pages.keys():
            return False
        return all(
            self._pages[page_no].same_content(other._pages[page_no])
            for page_no in self._pages
        )

    def diff_pages(self, other: "AddressSpace") -> Tuple[Set[int], Set[int]]:
        """(pages differing in content, pages mapped on only one side)."""
        self._wtlb_no = None
        other._wtlb_no = None
        mine, theirs = set(self._pages), set(other._pages)
        only_one_side = mine ^ theirs
        differing = {
            page_no
            for page_no in mine & theirs
            if not self._pages[page_no].same_content(other._pages[page_no])
        }
        return differing, only_one_side

    def __repr__(self) -> str:
        return f"AddressSpace(pages={len(self._pages)}, dirty={len(self.dirty)})"
