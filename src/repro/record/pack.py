"""The content-addressed blob pack: one append-only file of digest-keyed blobs.

One :class:`BlobStore` serves every place blobs live in a file: the
durable log's ``blobs/pack.dppack`` (writer and reader,
:mod:`repro.record.shards`), the coordinator's scratch pack that epoch
units name and the worker processes that read it
(:mod:`repro.host.blobs`). The format is self-describing — a magic
header, then ``(digest, length, payload)`` entries — so any process can
index a pack another one is still appending to by scanning forward from
where it last stopped.
"""

from __future__ import annotations

import os
import struct
from typing import Dict, List, Optional, Tuple

from repro.errors import ReplayError
from repro.record.segment import fsync_dir


def _hex(digest: int) -> str:
    return f"{digest:032x}"


#: pack file header and per-blob entry: digest (16 bytes) + length u32
PACK_MAGIC = b"DPPK01\n"
PACK_NAME = "pack.dppack"
_PACK_ENTRY = struct.Struct("<16sI")


class BlobStore:
    """Content-addressed blobs in one append-only pack: ``<root>/pack.dppack``.

    Digests are PR 4's wire digests (BLAKE2b-128 of the encoded blob),
    so checkpoint pages dedupe across epochs for free: consecutive
    checkpoints share almost every page and an already-present digest
    is never appended again — the on-disk analogue of delta checkpoints.

    One pack file, not one file per blob: blob appends buffer in memory
    and hit the filesystem at group-commit points, so persisting an
    epoch costs sequential writes to two files (pack + segment) instead
    of a file creation per page. The pack is self-describing (entries
    carry their digest and length) and append-only, so recovery is the
    same forward-scan-truncate rule as segments: an entry cut short by a
    crash is a torn tail — the manifest is only written after the pack
    is flushed, so no manifest ever references a torn blob.

    One process appends (``put`` / ``flush`` / ``compact``); any number
    may read. A reader never creates or changes anything on disk, and a
    digest it has not indexed yet sends it back to the file for what was
    appended since its last scan — visibility needs the appender's
    ``flush``, never an fsync.
    """

    def __init__(self, root: str):
        self.root = root
        self.path = os.path.join(root, PACK_NAME)
        #: digest -> (payload offset, payload length), buffered included
        self._index: Dict[int, Tuple[int, int]] = {}
        self._buffer: List[bytes] = []
        self._append: Optional[object] = None
        self._read: Optional[object] = None
        #: logical end including buffered entries / end of verified data
        #: actually on disk (they differ between flushes)
        self._end = self._disk_end = len(PACK_MAGIC)
        self.blobs_written = 0
        self.bytes_written = 0
        self.fsyncs = 0
        self._dir_synced = False
        self._scan()

    def _scan(self) -> None:
        """Index the entries past the last verified one (all, at open).

        A torn tail entry ends the scan without error and stays
        unindexed: a crash's dead bytes, or another process's append in
        progress that the next scan picks up whole. No pack file at all,
        or one torn inside its header, indexes nothing.
        """
        try:
            handle = open(self.path, "rb")
        except FileNotFoundError:
            return
        with handle:
            header = handle.read(len(PACK_MAGIC))
            if len(header) < len(PACK_MAGIC) and PACK_MAGIC.startswith(header):
                return
            if header != PACK_MAGIC:
                raise ReplayError(f"{self.path}: not a blob pack")
            handle.seek(self._disk_end)
            data = handle.read()
        base, offset = self._disk_end, 0
        while offset + _PACK_ENTRY.size <= len(data):
            digest_bytes, length = _PACK_ENTRY.unpack_from(data, offset)
            start = offset + _PACK_ENTRY.size
            if start + length > len(data):
                break  # torn tail: nothing references an unflushed blob
            digest = int.from_bytes(digest_bytes, "big")
            self._index[digest] = (base + start, length)
            offset = start + length
        self._disk_end += offset
        self._end += offset

    def put(self, digest: int, blob: bytes) -> bool:
        """Buffer a blob for the pack; returns True when newly stored."""
        if digest in self._index:
            return False
        self._buffer.append(
            _PACK_ENTRY.pack(digest.to_bytes(16, "big"), len(blob)) + blob
        )
        self._index[digest] = (self._end + _PACK_ENTRY.size, len(blob))
        self._end += _PACK_ENTRY.size + len(blob)
        self.blobs_written += 1
        self.bytes_written += len(blob)
        return True

    def flush(self, fsync: bool = False) -> bool:
        """Append buffered blobs to the pack; True when anything was written.

        Must run (with the caller's durability choice) before any
        manifest write that references the buffered digests, and before
        another process is told to read them.
        """
        if not self._buffer:
            return False
        if self._append is None:
            if (
                os.path.exists(self.path)
                and os.path.getsize(self.path) >= len(PACK_MAGIC)
            ):
                # Resume at the last verified entry: a torn tail past it
                # is dead bytes a plain append would corrupt the index
                # against, so cut it before writing. (A pack torn inside
                # its header holds nothing: it is written afresh.)
                self._append = open(self.path, "r+b")
                self._append.truncate(self._disk_end)
                self._append.seek(self._disk_end)
            else:
                os.makedirs(self.root, exist_ok=True)
                self._append = open(self.path, "wb")
                self._append.write(PACK_MAGIC)
        self._append.write(b"".join(self._buffer))
        self._append.flush()
        if fsync:
            os.fsync(self._append.fileno())
            self.fsyncs += 1
            if not self._dir_synced:
                if fsync_dir(self.root):
                    self.fsyncs += 1
                self._dir_synced = True
        self._buffer = []
        self._disk_end = self._end
        return True

    def close(self, fsync: bool = False) -> None:
        self.flush(fsync=fsync)
        for handle in (self._append, self._read):
            if handle is not None:
                handle.close()
        self._append = self._read = None

    def get(self, digest: int) -> bytes:
        if digest not in self._index:
            self._scan()  # the appender may have flushed it since
        entry = self._index.get(digest)
        if entry is None:
            raise ReplayError(f"blob {_hex(digest)} not in pack")
        self.flush()
        if self._read is None:
            self._read = open(self.path, "rb")
        offset, length = entry
        self._read.seek(offset)
        return self._read.read(length)

    def has(self, digest: int) -> bool:
        return digest in self._index

    def digests(self) -> List[int]:
        """Every digest the pack holds, buffered included."""
        return list(self._index)

    def entry_bytes(self, digest: int) -> int:
        """On-disk footprint of one blob (entry header + payload)."""
        entry = self._index.get(digest)
        return 0 if entry is None else _PACK_ENTRY.size + entry[1]

    @property
    def pack_bytes(self) -> int:
        """Logical pack size (header + all entries, buffered included)."""
        return self._end

    def compact(self, drop, fsync: bool = False) -> int:
        """Rewrite the pack without the ``drop`` digests; returns bytes freed.

        Crash-safe by construction: the surviving entries are copied to
        ``pack.dppack.tmp``, fsynced (when asked), and atomically
        ``os.replace``d over the pack — a crash mid-compaction leaves
        the old pack intact and the tmp file as garbage the next open
        ignores. Dropped digests leave the index, so re-appearing
        content (a page cycling back into a later checkpoint) is simply
        appended again.
        """
        drop = {digest for digest in drop if digest in self._index}
        if not drop:
            return 0
        self.flush(fsync=fsync)
        if not os.path.exists(self.path):
            for digest in drop:
                del self._index[digest]
            return 0
        for handle in (self._append, self._read):
            if handle is not None:
                handle.close()
        self._append = self._read = None
        tmp = self.path + ".tmp"
        new_index: Dict[int, Tuple[int, int]] = {}
        before = self._disk_end
        with open(self.path, "rb") as src, open(tmp, "wb") as dst:
            dst.write(PACK_MAGIC)
            offset = len(PACK_MAGIC)
            for digest, (start, length) in sorted(
                self._index.items(), key=lambda item: item[1][0]
            ):
                if digest in drop:
                    continue
                src.seek(start - _PACK_ENTRY.size)
                dst.write(src.read(_PACK_ENTRY.size + length))
                new_index[digest] = (offset + _PACK_ENTRY.size, length)
                offset += _PACK_ENTRY.size + length
            dst.flush()
            if fsync:
                os.fsync(dst.fileno())
                self.fsyncs += 1
        os.replace(tmp, self.path)
        if fsync:
            if fsync_dir(self.root):
                self.fsyncs += 1
        self._index = new_index
        self._end = self._disk_end = offset
        return before - offset
