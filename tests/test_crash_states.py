"""Every crash state of the durable log opens to a committed prefix.

Each scenario records through a :class:`~tests.storage_log.RecordingStorage`
and every prefix of its operation log is cut into the crash states
:class:`~tests.storage_log.Prefix` allows. Opening one with
``ShardedLogReader`` must give either a committed prefix (or window)
that passes ``verify()`` and replays bit-identically, or a typed
``repro.errors`` exception — never a manifest naming bytes that are not
there — and never fewer epochs than the last manifest whose rename and
directory sync are in the prefix (the durability clause).

Scenarios: the streaming merge (``--jobs 2 --log-dir``), a sliding
flight window with segment GC and pack compaction, and ``close_partial``.
Under ``--hypothesis-profile=ci`` every prefix is cut; tier-1 takes a
seeded handful per scenario.
"""

from __future__ import annotations

import hashlib
import os
import random
import shutil
import tempfile

import pytest

from repro.baselines import run_native
from repro.core import DoublePlayConfig, DoublePlayRecorder, Replayer
from repro.errors import ReproError
from repro.machine.config import MachineConfig
from repro.record import shards
from repro.record.log_index import SegmentLogs
from repro.record.pack import PACK_NAME
from repro.record.shards import MANIFEST_NAME, ShardedLogReader, ShardedLogWriter
from repro.workloads import build_workload
from tests.conftest import exhaustive
from tests.storage_log import (
    Prefix, RecordingStorage, epoch_end, materialize, record_storage,
)

#: prefixes per scenario in tier-1
SAMPLED = 6
PACK_PATH = f"blobs/{PACK_NAME}"


def _recorded(name, scale, divisor, **overrides):
    instance = build_workload(name, workers=2, scale=scale, seed=11)
    machine = MachineConfig(cores=2)
    native = run_native(instance.image, instance.setup, machine)
    config = DoublePlayConfig(
        machine=machine, epoch_cycles=max(native.duration // divisor, 400), **overrides
    )
    result = DoublePlayRecorder(instance.image, instance.setup, config).record()
    return instance, machine, result


def _merge(root):
    """A jobs=2 record streaming into ``log_dir``, one manifest a commit."""
    with pytest.MonkeyPatch.context() as patch:
        seams = record_storage(patch, root)
        patch.setenv("REPRO_LOG_GROUP_KB", "1")
        patch.delenv("REPRO_LOG_FSYNC", raising=False)
        instance, machine, result = _recorded(
            "pbzip", scale=4, divisor=12, host_jobs=2, log_dir=root
        )
    (seam,) = seams
    return seam, instance, machine, result.recording


def _window(root):
    """An offline persist whose window slides, deletes segments and
    compacts the pack mid-run."""
    instance, machine, result = _recorded("prodcons", scale=16, divisor=24)
    seam = RecordingStorage(root)
    shards.persist_recording(
        result.recording, root, group_commit_bytes=256, flight_window=3,
        segment_max_bytes=1024, pack_compact_bytes=512, storage=seam,
    )
    return seam, instance, machine, result.recording


def _partial(root):
    """Epochs committed past the last group commit, then ``close_partial``."""
    instance, machine, result = _recorded("prodcons", scale=8, divisor=16)
    recording = result.recording
    seam = RecordingStorage(root)
    writer = ShardedLogWriter(
        root, recording.initial_checkpoint, recording.program_name,
        recording.worker_threads, group_commit_bytes=600, storage=seam,
    )
    logs = SegmentLogs(
        recording.syscall_records, recording.signal_records,
        recording.initial_checkpoint,
    )
    epochs = recording.epochs
    for record, following in zip(epochs, epochs[1:] + [None]):
        end = following.start_checkpoint if following else None
        writer.commit_epoch(record, record.start_checkpoint, end, logs)
    writer.close_partial("ValueError: boom")
    return seam, instance, machine, recording


SCENARIOS = {"merge": _merge, "window": _window, "partial": _partial}


class Opener:
    """Opens crash states the way ``repro log recover`` does, each
    distinct one once; a manifest that verifies replays once."""

    def __init__(self, instance, machine, oracle, scratch):
        self.replayer = Replayer(instance.image, machine)
        self.oracle = {epoch.index: epoch for epoch in oracle.epochs}
        self.scratch = scratch
        self.outcomes, self.replays = {}, {}

    @staticmethod
    def key(files) -> bytes:
        key = hashlib.blake2b(digest_size=16)
        for path in sorted(files):
            key.update(path.encode() + b"\0" + hashlib.blake2b(files[path]).digest())
        return key.digest()

    def open(self, files, key):
        """``("epochs", end)``, ``("error", why)`` or ``("violation", why)``."""
        if key not in self.outcomes:
            self.outcomes[key] = self._open(files)
        return self.outcomes[key]

    def _open(self, files):
        root = tempfile.mkdtemp(dir=self.scratch)
        try:
            materialize(files, root)
            reader = ShardedLogReader(root)
            problems = reader.verify()
            if problems:
                return "violation", f"the manifest names missing bytes: {problems[:2]}"
            manifest = files[MANIFEST_NAME]
            if manifest not in self.replays:
                self.replays[manifest] = self._replay(reader)
            return self.replays[manifest]
        except ReproError as exc:
            return "error", f"{type(exc).__name__}: {exc}"
        except Exception as exc:  # noqa: BLE001 - an untyped failure is the finding
            return "violation", f"untyped {type(exc).__name__}: {exc}"
        finally:
            shutil.rmtree(root)

    def _replay(self, reader):
        recording = reader.load_recording()
        for epoch in recording.epochs:
            if epoch.end_digest != self.oracle[epoch.index].end_digest:
                return "violation", f"epoch {epoch.index} is not the recorded one"
        outcome = self.replayer.replay_sequential(recording)
        if not outcome.verified:
            return "violation", f"replay diverged: {outcome.details}"
        return "epochs", epoch_end(reader.manifest)


def enumerate_crashes(seam, opener, prefixes):
    """Open every crash state of every prefix in ``prefixes``; returns
    ``(states opened, violations)``."""
    states, violations = 0, []
    for k in prefixes:
        prefix = Prefix(seam.ops, k)
        if not prefix.whole:
            violations.append(f"after op {k}: too many unsynced operations to open all")
        durable = prefix.durable_manifest()
        floor = epoch_end(durable) if durable and durable["epochs"] else 0
        seen = set()
        for label, cuts, entry_cuts in prefix.states():
            files = prefix.files(cuts, entry_cuts)
            key = opener.key(files)
            if key in seen:
                continue
            seen.add(key)
            states += 1
            kind, what = opener.open(files, key)
            short = kind == "epochs" and what < floor or kind == "error" and floor
            if kind == "violation" or short:
                op = seam.ops[k - 1][:3] if k else None
                violations.append(
                    f"after op {k} {op}, {label}: {kind} {what} (durable end {floor})"
                )
    return states, violations


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_every_crash_state_opens_a_committed_prefix(scenario, tmp_path):
    os.makedirs(tmp_path / "log")
    os.makedirs(tmp_path / "states")
    seam, instance, machine, oracle = SCENARIOS[scenario](str(tmp_path / "log"))
    every = range(len(seam.ops) + 1)
    prefixes = every if exhaustive() else sorted(
        random.Random(scenario).sample(every, SAMPLED)
    )
    opener = Opener(instance, machine, oracle, str(tmp_path / "states"))
    states, violations = enumerate_crashes(seam, opener, prefixes)
    print(f"{scenario}: {len(seam.ops)} ops, {len(prefixes)} prefixes, "
          f"{states} crash states, {len(violations)} violations")
    assert not violations, "\n".join(violations[:10])
    # The scenario did what it is named for.
    assert seam.count("replace") > 3 and seam.count("sync") > 3
    if scenario == "window":
        assert seam.count("unlink") > 1
        # It compacts mid-run, before close's last manifest; appends go
        # on through the published pack, never reopening it with a cut.
        replaced = [
            (k, op[2], op[3]) for k, op in enumerate(seam.ops) if op[0] == "replace"
        ]
        packs = [(k, ino) for k, path, ino in replaced if path == PACK_PATH]
        last_manifest = max(k for k, path, _ in replaced if path == MANIFEST_NAME)
        assert packs[0][0] < last_manifest
        published = {ino for _, ino in packs}
        assert not [op for op in seam.ops if op[0] == "cut" and op[1] in published]
