"""Append-only compressed segment files with group commit.

A *segment* is the physical storage unit of the durable event log
(:mod:`repro.record.shards`): an append-only file of self-describing,
checksummed **blocks**. Writers never seek backwards and readers never
need an index to scan — the format is recoverable by a forward pass.

Frames and blocks
-----------------
Callers append *frames* (opaque byte strings — one log-shard record
batch each). Frames accumulate in a **group-commit buffer**; a
:meth:`SegmentWriter.flush` concatenates everything buffered, runs it
through the segment's codec, and appends ONE block::

    block := header | body
    header := magic "DPBK" | codec u8 | raw_len u32 | stored_len u32 | crc32 u32
    body   := codec(frames), where frames := (frame_len u32 | frame_bytes)*

The crc32 covers the *stored* body bytes, so corruption is detected
before decompression. Group commit is what makes per-epoch durability
cheap: many small epoch commits share one compression call and one
fsync, exactly like database group commit amortises the log force.

Crash-truncation rule (torn tails)
----------------------------------
A crash can leave a partial block at the end of a segment. On read, a
block whose header is incomplete, whose body is shorter than
``stored_len``, or whose checksum fails **at the tail** is *truncated* —
the segment ends at the last verifiable block. A checksum failure
*before* the tail is corruption, not a torn write, and raises. The
manifest (:mod:`repro.record.shards`) is only updated after a flush
completes, so a torn tail never strands a referenced block.

Codecs
------
The writer compresses every block with ``zlib1`` (zlib level 1: within
a few percent of level 6's ratio on page-heavy and sync-heavy shards at
a fraction of the CPU). The codec byte in each header is what a reader
follows, so ``raw`` and ``zlib6`` blocks — which earlier writers could
produce — still read.
"""

from __future__ import annotations

import os
import struct
import zlib
from typing import BinaryIO, Iterator, List, Optional, Tuple

#: file header: identifies a segment file and its format generation
SEGMENT_MAGIC = b"DPSEG01\n"

_BLOCK_MAGIC = b"DPBK"
_BLOCK_HEADER = struct.Struct("<4sBIII")
_FRAME_LEN = struct.Struct("<I")

#: codec byte values (stored in every block header): 0 is an
#: uncompressed body, anything else the zlib level it was compressed at
CODEC_RAW = 0
CODEC_ZLIB1 = 1

#: the manifest's name for the one codec the writer stamps (CODEC_ZLIB1)
WRITE_CODEC = "zlib1"


def fsync_dir(path: str) -> bool:
    """fsync a directory so renames/creates/unlinks inside it are durable.

    ``os.replace`` makes a manifest swap atomic but not durable: until
    the *directory* is synced, power loss can roll the rename back (or
    resurrect an unlinked segment). Returns False where directories
    cannot be fsynced (some platforms/filesystems) — durability then
    degrades to the filesystem's own ordering, which is the best
    available.
    """
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return False
    try:
        os.fsync(fd)
        return True
    except OSError:
        return False
    finally:
        os.close(fd)


def _encode_body(frames: List[bytes]) -> bytes:
    body = b"".join(
        _FRAME_LEN.pack(len(frame)) + frame for frame in frames
    )
    return zlib.compress(body, CODEC_ZLIB1)


def _decode_body(stored: bytes, codec: int) -> List[bytes]:
    if codec == CODEC_RAW:
        body = stored
    else:
        body = zlib.decompress(stored)
    frames: List[bytes] = []
    offset = 0
    end = len(body)
    while offset < end:
        (length,) = _FRAME_LEN.unpack_from(body, offset)
        offset += _FRAME_LEN.size
        if offset + length > end:
            raise SegmentCorruption("frame extends past its block body")
        frames.append(body[offset : offset + length])
        offset += length
    return frames


class SegmentCorruption(Exception):
    """A block failed verification *inside* a segment (not a torn tail)."""


class BlockExtent(tuple):
    """``(offset, stored_len, raw_len)`` of one flushed block.

    A plain tuple subclass so extents JSON-serialise as lists in the
    manifest while staying self-documenting in code.
    """

    __slots__ = ()

    def __new__(cls, offset: int, stored_len: int, raw_len: int):
        return super().__new__(cls, (offset, stored_len, raw_len))

    @property
    def offset(self) -> int:
        return self[0]

    @property
    def stored_len(self) -> int:
        return self[1]

    @property
    def raw_len(self) -> int:
        return self[2]


class SegmentWriter:
    """Appends frames to one segment file through a group-commit buffer."""

    def __init__(self, path: str):
        self.path = path
        self._buffer: List[bytes] = []
        self._buffered = 0
        self._handle: BinaryIO = open(path, "wb")
        self._handle.write(SEGMENT_MAGIC)
        self._offset = len(SEGMENT_MAGIC)
        #: extents of every flushed block, in file order
        self.blocks: List[BlockExtent] = []
        #: high-water mark of the group-commit buffer (bytes)
        self.peak_buffered = 0
        #: raw frame bytes accepted (pre-compression)
        self.raw_bytes = 0
        #: bytes actually written to the file (headers + stored bodies)
        self.stored_bytes = self._offset
        self.flushes = 0
        self.fsyncs = 0
        self._dir_synced = False

    def append(self, frame: bytes) -> None:
        """Buffer one frame for the next group commit."""
        self._buffer.append(frame)
        self._buffered += len(frame) + _FRAME_LEN.size
        self.raw_bytes += len(frame)
        if self._buffered > self.peak_buffered:
            self.peak_buffered = self._buffered

    @property
    def buffered_bytes(self) -> int:
        return self._buffered

    def flush(self, fsync: bool = True) -> Optional[int]:
        """Group-commit the buffer as one block; returns its index.

        Returns ``None`` when nothing is buffered (an empty flush is a
        no-op, not an empty block). ``fsync=True`` forces the block to
        stable storage — the durability point of every epoch whose
        frames it carries.
        """
        if not self._buffer:
            return None
        raw_len = self._buffered
        stored = _encode_body(self._buffer)
        header = _BLOCK_HEADER.pack(
            _BLOCK_MAGIC, CODEC_ZLIB1, raw_len, len(stored),
            zlib.crc32(stored) & 0xFFFFFFFF,
        )
        self._handle.write(header)
        self._handle.write(stored)
        self._handle.flush()
        if fsync:
            os.fsync(self._handle.fileno())
            self.fsyncs += 1
            if not self._dir_synced:
                # The first durable block must also make the segment
                # file's directory entry durable, or power loss can
                # drop the whole file out from under a manifest that
                # references its blocks.
                if fsync_dir(os.path.dirname(self.path) or "."):
                    self.fsyncs += 1
                self._dir_synced = True
        extent = BlockExtent(self._offset, len(stored), raw_len)
        self.blocks.append(extent)
        self._offset += _BLOCK_HEADER.size + len(stored)
        self.stored_bytes = self._offset
        self._buffer = []
        self._buffered = 0
        self.flushes += 1
        return len(self.blocks) - 1

    def close(self, fsync: bool = True) -> None:
        self.flush(fsync=fsync)
        self._handle.close()


class SegmentReader:
    """Reads verified blocks out of one segment file."""

    def __init__(self, path: str):
        self.path = path
        with open(path, "rb") as handle:
            self._data = handle.read()
        if self._data[: len(SEGMENT_MAGIC)] != SEGMENT_MAGIC:
            raise SegmentCorruption(f"{path}: not a segment file")

    def read_block(self, offset: int) -> List[bytes]:
        """Decode the verified block at ``offset`` into its frames."""
        frames = self._try_block(offset)
        if frames is None:
            raise SegmentCorruption(
                f"{self.path}: no verifiable block at offset {offset}"
            )
        return frames

    def _try_block(self, offset: int) -> Optional[List[bytes]]:
        """Frames of the block at ``offset``, or ``None`` if torn."""
        data = self._data
        if offset + _BLOCK_HEADER.size > len(data):
            return None
        magic, codec, raw_len, stored_len, crc = _BLOCK_HEADER.unpack_from(
            data, offset
        )
        if magic != _BLOCK_MAGIC:
            return None
        body_start = offset + _BLOCK_HEADER.size
        stored = data[body_start : body_start + stored_len]
        if len(stored) < stored_len:
            return None
        if zlib.crc32(stored) & 0xFFFFFFFF != crc:
            return None
        frames = _decode_body(stored, codec)
        if sum(len(f) + _FRAME_LEN.size for f in frames) != raw_len:
            return None
        return frames

    def iter_blocks(self) -> Iterator[Tuple[int, List[bytes]]]:
        """Yield ``(offset, frames)`` forward; stop at the torn tail.

        An unverifiable block at the *end* of the file is a torn write
        and silently truncates the scan (the crash rule). Anything
        unverifiable with more data after it is corruption and raises.
        """
        offset = len(SEGMENT_MAGIC)
        data = self._data
        while offset < len(data):
            frames = self._try_block(offset)
            if frames is None:
                # Torn tail iff nothing after this point verifies.
                if self._tail_is_torn(offset):
                    return
                raise SegmentCorruption(
                    f"{self.path}: corrupt block at offset {offset}"
                )
            yield offset, frames
            stored_len = _BLOCK_HEADER.unpack_from(data, offset)[3]
            offset += _BLOCK_HEADER.size + stored_len
        return

    def _tail_is_torn(self, offset: int) -> bool:
        """True when no verifiable block header exists past ``offset``."""
        data = self._data
        probe = data.find(_BLOCK_MAGIC, offset + 1)
        while probe != -1:
            if self._try_block(probe) is not None:
                return False
            probe = data.find(_BLOCK_MAGIC, probe + 1)
        return True
