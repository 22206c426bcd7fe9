"""Simulated filesystem.

Files are integer-named sequences of guest words. An open file descriptor
carries an offset; when several threads share one descriptor (the pfscan
and pbzip2 workloads do), the *order* of their reads is nondeterministic
input that DoublePlay must log — which is why the kernel, not the guest,
owns offsets.

Snapshots are copy-on-write, like the network's: each file's frozen
contents from the last snapshot are kept, and only files opened into
existence or written since are frozen again.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.errors import SyscallError
from repro.obs import metrics as obs_metrics


@dataclass
class _OpenFile:
    file_id: int
    offset: int


class SimFileSystem:
    """Integer-named files plus a per-process descriptor table."""

    def __init__(self, files: Dict[int, List[int]]):
        #: file id → word contents; writes append
        self.files: Dict[int, List[int]] = {fid: list(data) for fid, data in files.items()}
        self._descriptors: Dict[int, _OpenFile] = {}
        self._next_fd = 3  # 0..2 reserved by convention
        #: file id → frozen contents as of the last snapshot or restore
        self._frozen: Dict[int, Tuple[int, ...]] = {}
        #: file ids created or written since then, in first-touch order
        #: (a dict as an ordered set: a new file joins ``_frozen`` where
        #: ``files`` has it, whatever its id)
        self._touched: Dict[int, None] = dict.fromkeys(self.files)

    def open(self, file_id: int) -> int:
        if file_id not in self.files:
            self.files[file_id] = []
            self._touched[file_id] = None
        fd = self._next_fd
        self._next_fd += 1
        self._descriptors[fd] = _OpenFile(file_id=file_id, offset=0)
        return fd

    def close(self, fd: int) -> int:
        if fd not in self._descriptors:
            raise SyscallError(f"close of unknown fd {fd}")
        del self._descriptors[fd]
        return 0

    def read(self, fd: int, maxlen: int) -> List[int]:
        """Read up to ``maxlen`` words at the descriptor's offset, advancing it."""
        handle = self._descriptors.get(fd)
        if handle is None:
            raise SyscallError(f"read from unknown fd {fd}")
        if maxlen < 0:
            raise SyscallError(f"read with negative length {maxlen}")
        data = self.files[handle.file_id]
        chunk = data[handle.offset : handle.offset + maxlen]
        handle.offset += len(chunk)
        return chunk

    def write(self, fd: int, words: List[int]) -> int:
        """Append ``words`` to the file behind ``fd``."""
        handle = self._descriptors.get(fd)
        if handle is None:
            raise SyscallError(f"write to unknown fd {fd}")
        self.files[handle.file_id].extend(words)
        self._touched[handle.file_id] = None
        return len(words)

    def file_contents(self, file_id: int) -> List[int]:
        """Contents of a file (workload validators use this)."""
        return list(self.files.get(file_id, []))

    # ------------------------------------------------------------------
    # Snapshot
    # ------------------------------------------------------------------
    def snapshot(self) -> Tuple:
        """The filesystem's state as plain immutable data.

        Value-equal to a full copy, never aliased to live state, and
        O(files touched since the last snapshot or restore).
        """
        frozen = self._frozen
        words = 0
        for fid in self._touched:
            frozen[fid] = tuple(self.files[fid])
            words += len(frozen[fid])
        self._touched.clear()
        obs_metrics.process_stats().add("work.snapshot_words", words)
        return (
            dict(frozen),
            {fd: (h.file_id, h.offset) for fd, h in self._descriptors.items()},
            self._next_fd,
        )

    def restore(self, state: Tuple) -> None:
        files, descriptors, next_fd = state
        self.files = {fid: list(data) for fid, data in files.items()}
        self._frozen = dict(files)
        self._touched.clear()
        self._descriptors = {
            fd: _OpenFile(file_id=file_id, offset=offset)
            for fd, (file_id, offset) in descriptors.items()
        }
        self._next_fd = next_fd
