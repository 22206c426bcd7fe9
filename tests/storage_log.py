"""A recording :class:`~repro.record.storage.Storage` and the crash states
its operation log allows.

:class:`RecordingStorage` writes through like the real storage and logs
every operation the durable log's writers make, with paths relative to
the log directory and files named by inode (so a rename keeps a file's
bytes). :class:`Prefix` replays the first *k* operations into a model
of what a crash right after them can leave on disk:

* a file's bytes up to its last ``sync`` survive; the writes after it
  persist in order, and the first one lost may be torn (half written);
* a directory's entries (``mkdir``, ``create``, ``replace``,
  ``unlink``) up to its last ``sync_dir`` survive; the ones after it
  persist in order, and the rest roll back.

A crash state picks, for each file and each directory independently,
how much of what it did since its last sync survives; every
combination is a state, from nothing lost (a killed process) to
everything unsynced lost (power loss).
"""

from __future__ import annotations

import itertools
import json
import math
import os
from collections import defaultdict
from typing import Dict, Iterator, List, Optional, Tuple

from repro.record import shards
from repro.record.pack import PACK_MAGIC, blob_of, iter_entries
from repro.record.shards import MANIFEST_NAME
from repro.record.storage import Storage

#: the operations a directory's entry list holds (the rest are a file's)
ENTRY_OPS = ("mkdir", "create", "replace", "unlink")
#: the choice that loses nothing
KEEP = ("", {}, {})
#: crash states a prefix may have before only each cut alone is opened
COMBINATIONS = 1 << 12


class RecordingStorage(Storage):
    """Writes through and logs each operation as a tuple in ``ops``:

    ``("mkdir", path)``, ``("create", path, ino)``, ``("cut", ino, at)``
    (reopened for appending at ``at``), ``("write", ino, offset, data)``,
    ``("sync", ino)``, ``("sync_dir", dir)``, ``("replace", src, dst,
    ino)``, ``("unlink", path, ino)``. A sync is logged only when it
    happens (``sync=True``).
    """

    def __init__(self, root: str, sync: bool = True):
        super().__init__(sync)
        self.root = os.path.abspath(root)
        self.ops: List[tuple] = []
        self._inodes: Dict[object, int] = {}
        self._names: Dict[str, int] = {}

    def _rel(self, path: str) -> str:
        return os.path.relpath(os.path.abspath(path), self.root)

    def makedirs(self, path: str) -> None:
        missing = []
        while not os.path.isdir(path):
            missing.append(path)
            path = os.path.dirname(path)
        for made in reversed(missing):
            super().makedirs(made)
            if self._rel(made) != ".":
                self.ops.append(("mkdir", self._rel(made)))

    def create(self, path, renamed=False):
        handle = super().create(path, renamed)
        ino = self._inodes[handle] = len(self.ops)
        self._names[self._rel(path)] = ino
        self.ops.append(("create", self._rel(path), ino))
        return handle

    def append(self, path, at):
        handle = super().append(path, at)
        ino = self._inodes[handle] = self._names[self._rel(path)]
        self.ops.append(("cut", ino, at))
        return handle

    def write(self, handle, data):
        offset = handle.tell()
        super().write(handle, data)
        self.ops.append(("write", self._inodes[handle], offset, bytes(data)))

    def sync(self, handle):
        if self.syncing:
            self.ops.append(("sync", self._inodes[handle]))
        super().sync(handle)

    def close(self, handle):
        super().close(handle)
        del self._inodes[handle]

    def sync_dir(self, path):
        if self.syncing:
            self.ops.append(("sync_dir", self._rel(path)))
        super().sync_dir(path)

    def replace(self, src, dst):
        super().replace(src, dst)
        ino = self._names[self._rel(dst)] = self._names.pop(self._rel(src))
        self.ops.append(("replace", self._rel(src), self._rel(dst), ino))

    def unlink(self, path):
        super().unlink(path)
        self.ops.append(("unlink", self._rel(path), self._names.pop(self._rel(path))))

    def count(self, *kinds: str) -> int:
        return sum(op[0] in kinds for op in self.ops)


def record_storage(patch, root: str) -> List[RecordingStorage]:
    """Have every ``ShardedLogWriter`` built under the ``patch``
    (a ``MonkeyPatch``) write through a new :class:`RecordingStorage`
    of ``root``; returns the list they are appended to."""
    seams: List[RecordingStorage] = []

    def storage(sync: bool = True) -> RecordingStorage:
        seams.append(RecordingStorage(root, sync))
        return seams[-1]

    patch.setattr(shards, "Storage", storage)
    return seams


def _parent(path: str) -> str:
    return os.path.dirname(path) or "."


def _entry_dir(op: tuple) -> str:
    return _parent(op[2] if op[0] == "replace" else op[1])


def _apply(data: bytearray, op: tuple, torn: bool = False) -> None:
    if op[0] == "cut":
        if not torn:
            del data[op[2]:]
        return
    _, _, offset, chunk = op
    if torn:
        chunk = chunk[: len(chunk) // 2]
    if len(data) < offset:
        data.extend(bytes(offset - len(data)))
    data[offset : offset + len(chunk)] = chunk


class Prefix:
    """What the first ``k`` operations of a log leave for a crash."""

    def __init__(self, ops: List[tuple], k: int):
        self.ops = ops[:k]
        self.data: Dict[int, List[tuple]] = defaultdict(list)
        self.entries: Dict[str, List[tuple]] = defaultdict(list)
        #: per inode / directory: how many of its operations a sync covers
        self.synced: Dict[object, int] = {}
        self.dir_synced: Dict[str, int] = {}
        for op in self.ops:
            if op[0] in ("write", "cut"):
                self.data[op[1]].append(op)
            elif op[0] == "sync":
                self.synced[op[1]] = len(self.data[op[1]])
            elif op[0] == "sync_dir":
                self.dir_synced[op[1]] = len(self.entries[op[1]])
            else:
                self.entries[_entry_dir(op)].append(op)

    def _choices(self) -> List[List[tuple]]:
        """Per file and per directory: ``(label, data cut, entry cut)``
        for keeping everything, then for each point it can be cut at."""
        choices = []
        for ino, ops in self.data.items():
            choices.append([KEEP] + [
                (f"inode {ino}: write {n} " + ("torn" if torn else "lost"),
                 {ino: (n, torn)}, {})
                for n in range(self.synced.get(ino, 0), len(ops))
                for torn in (False, True)
            ])
        for directory, ops in self.entries.items():
            choices.append([KEEP] + [
                (f"{directory}: {ops[n][0]} {ops[n][1]} rolled back",
                 {}, {directory: n})
                for n in range(self.dir_synced.get(directory, 0), len(ops))
            ])
        return choices

    @property
    def whole(self) -> bool:
        """Whether :meth:`states` yields every combination."""
        return math.prod(map(len, self._choices())) <= COMBINATIONS

    def states(self) -> Iterator[Tuple[str, dict, dict]]:
        """``(label, data cuts, entry cuts)`` of every crash state: each
        file and each directory independently keeps all it did after its
        last sync, or is cut at one of those operations.

        A data cut maps an inode to ``(n, torn)``: its first ``n`` writes
        persist, and half of the next one if ``torn``. An entry cut maps
        a directory to how many of its entry operations persist. Past
        :data:`COMBINATIONS` (a log missing syncs), each cut alone and
        all of the first ones at once.
        """
        choices = self._choices()
        combos = itertools.product(*choices)
        if not self.whole:
            width = len(choices)
            first = [options[min(1, len(options) - 1)] for options in choices]
            combos = [[KEEP] * width, first] + [
                [KEEP] * at + [cut] + [KEEP] * (width - at - 1)
                for at, options in enumerate(choices)
                for cut in options[1:]
            ]
        for combo in combos:
            label = "; ".join(label for label, _, _ in combo if label)
            cuts = {k: v for _, cut, _ in combo for k, v in cut.items()}
            entry_cuts = {k: v for _, _, cut in combo for k, v in cut.items()}
            yield label or "nothing lost", cuts, entry_cuts

    def content(self, ino: int, cuts: Optional[dict] = None) -> bytes:
        ops = self.data[ino]
        n, torn = (cuts or {}).get(ino, (len(ops), False))
        data = bytearray()
        for op in ops[:n]:
            _apply(data, op)
        if torn and n < len(ops):
            _apply(data, ops[n], torn=True)
        return bytes(data)

    def files(self, cuts: Optional[dict] = None, entry_cuts: Optional[dict] = None):
        """``{path: bytes}`` of every file the crash state leaves reachable."""
        entry_cuts = entry_cuts or {}
        tables: Dict[str, Dict[str, Optional[int]]] = defaultdict(dict)
        applied: Dict[str, int] = defaultdict(int)
        for op in self.ops:
            if op[0] not in ENTRY_OPS:
                continue
            directory = _entry_dir(op)
            if applied[directory] >= entry_cuts.get(directory, len(self.ops)):
                continue
            applied[directory] += 1
            table = tables[directory]
            if op[0] == "mkdir":
                table[op[1]] = None
            elif op[0] == "create":
                table[op[1]] = op[2]
            elif op[0] == "replace":
                table[op[2]] = table.pop(op[1])
            else:
                del table[op[1]]
        files: Dict[str, bytes] = {}
        pending = ["."]
        while pending:
            for path, ino in tables[pending.pop()].items():
                if ino is None:
                    pending.append(path)
                else:
                    files[path] = self.content(ino, cuts)
        return files

    def durable_manifest(self) -> Optional[dict]:
        """The last manifest whose rename and directory sync are both in
        the prefix: what no crash state may replay less than."""
        durable = renamed = None
        for op in self.ops:
            if op[0] == "replace" and op[2] == MANIFEST_NAME:
                renamed = op[3]
            elif op[0] == "sync_dir" and op[1] == "." and renamed is not None:
                durable, renamed = renamed, None
        return None if durable is None else json.loads(self.content(durable))


def epoch_end(manifest: dict) -> int:
    """One past the last epoch a manifest names (absolute)."""
    entries = manifest["epochs"]
    first = entries[0]["index"] if entries else manifest.get("epochs_dropped", 0)
    return first + len(entries)


def pack_digests(data: bytes) -> Dict[int, bytes]:
    """``{digest: blob}`` of every whole entry in a pack's bytes."""
    assert data.startswith(PACK_MAGIC)
    return {
        digest: blob_of(digest, codec, stored)
        for _, digest, codec, stored in iter_entries(data, len(PACK_MAGIC))
    }


def materialize(files: Dict[str, bytes], root: str) -> None:
    """Write a crash state's files under an empty ``root``."""
    for path, data in files.items():
        target = os.path.join(root, path)
        os.makedirs(os.path.dirname(target), exist_ok=True)
        with open(target, "wb") as handle:
            handle.write(data)
