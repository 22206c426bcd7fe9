"""The one way the durable log's writers touch the filesystem.

``SegmentWriter``, ``BlobStore`` and ``ShardedLogWriter`` make every
write, fsync, rename and unlink through one :class:`Storage`. A write
reaches the OS at once (another process reads it, a killed one keeps
it); only :meth:`Storage.sync` makes it survive power loss. A
``Storage(sync=False)`` keeps every order and skips every fsync
(``log_fsync`` off; the scratch packs). Each fsync adds one to
``durable.fsyncs``, here only. Which ordering each sync buys, and the
crash-state test that needs it: DESIGN.md, *Durable-log ordering*.
"""

from __future__ import annotations

import os
from typing import BinaryIO, Set

from repro.obs import metrics as obs_metrics


class Storage:
    """Writes, syncs, renames and unlinks for the durable log."""

    def __init__(self, sync: bool = True):
        self.syncing = sync
        #: created files whose directory entry no sync has made durable
        self._fresh: Set[BinaryIO] = set()

    def makedirs(self, path: str) -> None:
        os.makedirs(path, exist_ok=True)

    def create(self, path: str, renamed: bool = False) -> BinaryIO:
        """A new empty file at ``path``. Its first :meth:`sync` also
        syncs the directory, or power loss could drop the file from
        under a manifest naming its bytes — unless ``renamed``: a tmp
        file :meth:`publish` renames, whose directory sync covers it."""
        handle = open(path, "wb")
        if self.syncing and not renamed:
            self._fresh.add(handle)
        return handle

    def append(self, path: str, at: int) -> BinaryIO:
        """The file at ``path``, open at ``at``; what lies past is cut."""
        handle = open(path, "r+b")
        handle.truncate(at)
        handle.seek(at)
        return handle

    def write(self, handle: BinaryIO, data: bytes) -> None:
        handle.write(data)
        handle.flush()

    def sync(self, handle: BinaryIO) -> None:
        if not self.syncing:
            return
        os.fsync(handle.fileno())
        self._count()
        if handle in self._fresh:
            self._fresh.discard(handle)
            self.sync_dir(os.path.dirname(handle.name) or ".")

    def close(self, handle: BinaryIO) -> None:
        self._fresh.discard(handle)
        handle.close()

    def sync_dir(self, path: str) -> None:
        """Make the creates, renames and unlinks in ``path`` durable
        (where a directory cannot be fsynced, the filesystem's own
        ordering is the best there is)."""
        if not self.syncing:
            return
        try:
            fd = os.open(path, os.O_RDONLY)
        except OSError:
            return
        try:
            os.fsync(fd)
        except OSError:
            return
        finally:
            os.close(fd)
        self._count()

    def replace(self, src: str, dst: str) -> None:
        os.replace(src, dst)

    def unlink(self, path: str) -> None:
        os.unlink(path)

    def publish(self, path: str, data: bytes, keep: bool = False):
        """Replace ``path`` with ``data`` atomically (and durably): the
        tmp file is synced before the rename, or the rename could land
        bytes that never did; the directory after, or power loss could
        roll the rename back. With ``keep``, returns the published
        file's handle, open at its end, for appends."""
        tmp = path + ".tmp"
        handle = self.create(tmp, renamed=True)
        try:
            self.write(handle, data)
            self.sync(handle)
            self.replace(tmp, path)
            self.sync_dir(os.path.dirname(path) or ".")
        except BaseException:
            self.close(handle)
            raise
        if keep:
            return handle
        self.close(handle)
        return None

    @staticmethod
    def _count() -> None:
        obs_metrics.process_stats().add("durable.fsyncs")


#: the storage of writers that never sync (readers write nothing)
UNSYNCED = Storage(sync=False)
