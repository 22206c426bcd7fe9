"""The content-addressed blob pack: one append-only file of digest-keyed blobs.

One :class:`BlobStore` serves every place blobs live in a file: the
durable log's ``blobs/pack.dppack`` (writer and reader,
:mod:`repro.record.shards`), the coordinator's scratch pack that epoch
units name and the worker processes that read it
(:mod:`repro.host.blobs`). The format is self-describing — a magic
header, then ``(digest, length, stored bytes)`` entries — so any process
can index a pack another one is still appending to by scanning forward
from where it last stopped; :func:`iter_entries` is that scan.

An entry's length word also carries its codec: the top bit is clear for
a blob stored as it is (every entry of a scratch pack, and of a pack an
earlier writer made) and set for one stored zlib-compressed at level 1.
Only a ``put(..., compress=True)`` — the durable writer's — may
compress, and only when that at least halves the blob. The digest is
always of the blob itself, so dedup and manifests never see the codec.
"""

from __future__ import annotations

import os
import struct
import zlib
from typing import Dict, Iterator, List, Optional, Tuple

from repro.errors import ReplayError
from repro.record.storage import UNSYNCED, Storage


def _hex(digest: int) -> str:
    return f"{digest:032x}"


#: pack file header and per-blob entry: digest (16 bytes) + length u32
PACK_MAGIC = b"DPPK01\n"
PACK_NAME = "pack.dppack"
_PACK_ENTRY = struct.Struct("<16sI")

#: entry codecs (the segment block's values): a blob as it is, or zlib 1
CODEC_RAW = 0
CODEC_ZLIB1 = 1
#: the length word's codec marker; the bits below it are the stored length
_ZLIB1_MARK = 1 << 31


def entry_header(digest: int, codec: int, length: int) -> bytes:
    """The header of an entry storing ``length`` bytes under ``codec``."""
    if length >= _ZLIB1_MARK:
        raise ValueError(f"blob {_hex(digest)} too large for a pack entry")
    word = length | (_ZLIB1_MARK if codec == CODEC_ZLIB1 else 0)
    return _PACK_ENTRY.pack(digest.to_bytes(16, "big"), word)


def iter_entries(
    data: bytes, offset: int = 0
) -> Iterator[Tuple[int, int, int, memoryview]]:
    """``(offset, digest, codec, stored)`` of each whole entry in ``data``
    from ``offset`` on; ``offset`` is where ``stored`` starts.

    Stops without error at an entry cut short (a torn tail, or an
    append another process has not finished).
    """
    view = memoryview(data)
    while offset + _PACK_ENTRY.size <= len(data):
        digest_bytes, word = _PACK_ENTRY.unpack_from(data, offset)
        start = offset + _PACK_ENTRY.size
        end = start + (word & (_ZLIB1_MARK - 1))
        if end > len(data):
            return
        codec = CODEC_ZLIB1 if word & _ZLIB1_MARK else CODEC_RAW
        yield start, int.from_bytes(digest_bytes, "big"), codec, view[start:end]
        offset = end


def stored_form(blob: bytes, compress: bool) -> Tuple[int, bytes]:
    """``(codec, stored)`` for ``blob``: zlib 1 when asked for and at
    most half the size, else the blob as it is."""
    if compress:
        packed = zlib.compress(blob, 1)
        if 2 * len(packed) <= len(blob):
            return CODEC_ZLIB1, packed
    return CODEC_RAW, blob


def blob_of(digest: int, codec: int, stored: bytes) -> bytes:
    """Inverse of :func:`stored_form`; ReplayError naming ``digest`` for
    a compressed entry that does not decompress."""
    if codec == CODEC_RAW:
        return bytes(stored)
    try:
        return zlib.decompress(stored)
    except zlib.error:
        raise ReplayError(f"blob {_hex(digest)} does not decompress") from None


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

    One process appends (``put`` / ``flush`` / ``compact``) through its
    ``storage``; any number may read. A reader never creates or changes
    anything on disk, and a digest it has not indexed yet sends it back
    to the file for what was appended since its last scan — visibility
    needs the appender's ``flush``, never an fsync.
    """

    def __init__(self, root: str, storage: Storage = UNSYNCED):
        self.root = root
        self.storage = storage
        self.path = os.path.join(root, PACK_NAME)
        #: digest -> (stored offset, stored length, codec), buffered included
        self._index: Dict[int, Tuple[int, int, int]] = {}
        self._buffer: List[bytes] = []
        self._append: Optional[object] = None
        self._read: Optional[object] = None
        #: logical end including buffered entries / end of verified data
        #: actually on disk (they differ between flushes)
        self._end = self._disk_end = len(PACK_MAGIC)
        self.blobs_written = 0
        self.bytes_written = 0
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
        end = 0
        for start, digest, codec, stored in iter_entries(data):
            end = start + len(stored)
            self._index[digest] = (self._disk_end + start, len(stored), codec)
        self._disk_end += end
        self._end += end

    def put(self, digest: int, blob: bytes, compress: bool = False) -> bool:
        """Buffer a blob for the pack; returns True when newly stored.

        ``compress`` stores it zlib-compressed when that halves it
        (:func:`stored_form`); ``bytes_written`` counts what is stored.
        """
        if digest in self._index:
            return False
        codec, stored = stored_form(blob, compress)
        self._buffer.append(entry_header(digest, codec, len(stored)) + stored)
        self._index[digest] = (self._end + _PACK_ENTRY.size, len(stored), codec)
        self._end += _PACK_ENTRY.size + len(stored)
        self.blobs_written += 1
        self.bytes_written += len(stored)
        return True

    def flush(self) -> bool:
        """Append and sync buffered blobs; True when anything was written.

        Must run before any manifest write that references the buffered
        digests, and before another process is told to read them.
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
                self._append = self.storage.append(self.path, self._disk_end)
            else:
                self.storage.makedirs(self.root)
                self._append = self.storage.create(self.path)
                self.storage.write(self._append, PACK_MAGIC)
        self.storage.write(self._append, b"".join(self._buffer))
        self.storage.sync(self._append)
        self._buffer = []
        self._disk_end = self._end
        return True

    def close(self) -> None:
        self.flush()
        self._close_handles()

    def _close_handles(self) -> None:
        if self._append is not None:
            self.storage.close(self._append)
        if self._read is not None:
            self._read.close()
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
        offset, length, codec = entry
        self._read.seek(offset)
        return blob_of(digest, codec, self._read.read(length))

    def has(self, digest: int) -> bool:
        return digest in self._index

    def digests(self) -> List[int]:
        """Every digest the pack holds, buffered included."""
        return list(self._index)

    def entry_bytes(self, digest: int) -> int:
        """On-disk footprint of one blob (entry header + stored bytes)."""
        entry = self._index.get(digest)
        return 0 if entry is None else _PACK_ENTRY.size + entry[1]

    @property
    def pack_bytes(self) -> int:
        """Logical pack size (header + all entries, buffered included)."""
        return self._end

    def compact(self, drop) -> int:
        """Rewrite the pack without the ``drop`` digests; returns bytes freed.

        Crash-safe by construction: the surviving entries are published
        over the pack (:meth:`~repro.record.storage.Storage.publish`: a
        synced tmp file renamed into place) — a crash mid-compaction
        leaves the old pack intact and the tmp file as garbage the next
        open ignores. Dropped digests leave the index, so re-appearing
        content (a page cycling back into a later checkpoint) is simply
        appended again.
        """
        drop = {digest for digest in drop if digest in self._index}
        if not drop:
            return 0
        self.flush()
        if not os.path.exists(self.path):
            for digest in drop:
                del self._index[digest]
            return 0
        with open(self.path, "rb") as src:
            old = src.read()
        kept = [PACK_MAGIC]
        new_index: Dict[int, Tuple[int, int, int]] = {}
        offset = len(PACK_MAGIC)
        for digest, (start, length, codec) in sorted(
            self._index.items(), key=lambda item: item[1][0]
        ):
            if digest in drop:
                continue
            kept.append(old[start - _PACK_ENTRY.size : start + length])
            new_index[digest] = (offset + _PACK_ENTRY.size, length, codec)
            offset += _PACK_ENTRY.size + length
        self._close_handles()
        # Appends go on through the published file's own handle: it ends
        # where the index does, so there is nothing to reopen or cut.
        self._append = self.storage.publish(self.path, b"".join(kept), keep=True)
        before = self._disk_end
        self._index = new_index
        self._end = self._disk_end = offset
        return before - offset
