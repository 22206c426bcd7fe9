"""Flight-recorder mode and the durable-log crash path.

The window half: ``flight_window=K`` keeps only the last K epochs
durable — pre-window manifest entries drop, fully-dead segments are
deleted, the blob pack is compacted — and the surviving tail replays
bit-identically with absolute epoch indexing. The crash half: any
exception escaping the recorder seals the committed prefix via
``close_partial`` (``complete: false`` + crash reason), and a
SIGKILLed ``repro record`` process always leaves a recoverable,
replayable tail.
"""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro import options
from repro.baselines import run_native
from repro.checkpoint.checkpoint import WireCheckpoint
from repro.core import DoublePlayConfig, DoublePlayRecorder, Replayer
from repro.errors import ReplayError
from repro.machine.config import MachineConfig
from repro.record.log_index import SegmentLogs
from repro.record.pack import BlobStore
from repro.record.shards import (
    MANIFEST_NAME,
    ShardedLogReader,
    ShardedLogWriter,
    persist_recording,
)
from repro.workloads import build_workload


def _record(
    name="prodcons", workers=2, scale=16, divisor=24, epoch_cycles=None, **overrides
):
    """A recording long enough (≥ ~10 epochs) for a window to slide."""
    instance = build_workload(name, workers=workers, scale=scale, seed=11)
    machine = MachineConfig(cores=workers)
    if epoch_cycles is None:
        native = run_native(instance.image, instance.setup, machine)
        epoch_cycles = max(native.duration // divisor, 400)
    config = DoublePlayConfig(machine=machine, epoch_cycles=epoch_cycles, **overrides)
    result = DoublePlayRecorder(instance.image, instance.setup, config).record()
    return instance, machine, result


def _named_digests(manifest, store):
    """Every pack digest a manifest names: its skeletons and their pages."""
    named = set()
    for ref in [manifest["initial"]] + [e["checkpoint"] for e in manifest["epochs"]]:
        digest = int(ref, 16)
        named.add(digest)
        named.update(
            WireCheckpoint.from_blob(store.get(digest), digest).page_table.values()
        )
    return named


def _disk_bytes(directory):
    return sum(
        os.path.getsize(os.path.join(root, name))
        for root, _, names in os.walk(directory)
        for name in names
    )


# ----------------------------------------------------------------------
# The rolling window
# ----------------------------------------------------------------------
class TestFlightWindow:
    WINDOW = 3

    @pytest.fixture(scope="class")
    def logs(self, tmp_path_factory):
        """One long recording persisted twice: unwindowed and windowed.

        Tiny segment/compaction thresholds force segment rollover and
        pack compaction to actually happen at test scale.
        """
        base = tmp_path_factory.mktemp("flight")
        instance, machine, result = _record()
        full_dir = str(base / "full")
        win_dir = str(base / "win")
        persist_recording(
            result.recording, full_dir, fsync=False, group_commit_bytes=256
        )
        totals = persist_recording(
            result.recording,
            win_dir,
            fsync=False,
            group_commit_bytes=256,
            flight_window=self.WINDOW,
            segment_max_bytes=1024,
            pack_compact_bytes=512,
        )
        return instance, machine, result, full_dir, win_dir, totals

    def test_manifest_keeps_only_the_window(self, logs):
        _, _, result, _, win_dir, totals = logs
        epochs = result.recording.epoch_count()
        assert epochs > self.WINDOW  # otherwise the test proves nothing
        manifest = json.load(open(os.path.join(win_dir, "manifest.json")))
        assert manifest["flight_window"] == self.WINDOW
        assert len(manifest["epochs"]) == self.WINDOW
        assert manifest["epochs_dropped"] == epochs - self.WINDOW
        # absolute indices survive the slide
        assert [e["index"] for e in manifest["epochs"]] == list(
            range(epochs - self.WINDOW, epochs)
        )
        assert totals["epochs_dropped"] == epochs - self.WINDOW

    def test_dead_segments_are_deleted(self, logs):
        _, _, _, _, win_dir, totals = logs
        assert totals["segments_deleted"] > 0
        manifest = json.load(open(os.path.join(win_dir, "manifest.json")))
        dropped = [s for s in manifest["segments"] if s["file"] is None]
        live = [s for s in manifest["segments"] if s["file"] is not None]
        assert len(dropped) == totals["segments_deleted"]
        assert dropped and live
        # dropped entries are tombstones (positional indexing survives),
        # live files exist, dropped files are really gone
        on_disk = set(os.listdir(os.path.join(win_dir, "segments")))
        assert on_disk == {os.path.basename(s["file"]) for s in live}
        for entry in dropped:
            assert entry["blocks"] == [] and entry["dropped"]

    def test_the_log_holds_exactly_what_the_manifest_names(self, logs):
        """No leak: after a clean close the pack holds only the digests the
        manifest's skeletons name and ``segments/`` only the named files
        (``verify()`` checks the other direction)."""
        _, _, _, _, win_dir, _ = logs
        reader = ShardedLogReader(win_dir)
        assert set(reader.store.digests()) == _named_digests(
            reader.manifest, reader.store
        )
        named = {s["file"] for s in reader.manifest["segments"]} - {None}
        assert {
            f"segments/{name}"
            for name in os.listdir(os.path.join(win_dir, "segments"))
        } == named

    def test_gc_runs_only_after_the_manifest_stops_naming(
        self, logs, tmp_path, monkeypatch
    ):
        """Every unlinked segment and every compacted digest is absent
        from the last manifest already renamed into place: a crash
        between the rename and the GC leaves nothing named missing."""
        _, _, result, _, _, _ = logs
        log_dir = str(tmp_path / "win")
        renamed = []
        unlinked, compacted = [], []
        replace, unlink, compact = os.replace, os.unlink, BlobStore.compact

        def spy_replace(src, dst):
            replace(src, dst)
            if os.path.basename(dst) == MANIFEST_NAME:
                with open(dst) as handle:
                    renamed.append(json.load(handle))

        def spy_unlink(path):
            files = {s["file"] for s in renamed[-1]["segments"]}
            unlinked.append(os.path.relpath(path, log_dir))
            assert unlinked[-1] not in files
            unlink(path)

        def spy_compact(store, drop, fsync=False):
            drop = set(drop)
            compacted.append(drop)
            assert not drop & _named_digests(renamed[-1], store)
            return compact(store, drop, fsync=fsync)

        monkeypatch.setattr(os, "replace", spy_replace)
        monkeypatch.setattr(os, "unlink", spy_unlink)
        monkeypatch.setattr(BlobStore, "compact", spy_compact)
        persist_recording(
            result.recording, log_dir, fsync=False, group_commit_bytes=256,
            flight_window=self.WINDOW, segment_max_bytes=1024, pack_compact_bytes=512,
        )
        # both kinds of GC ran mid-run, not only at close
        assert len(unlinked) > 1 and len(compacted) > 2 and len(renamed) > 3

    def test_disk_bytes_bounded_by_window(self, logs):
        _, _, _, full_dir, win_dir, totals = logs
        assert totals["pack_compactions"] > 0
        assert totals["bytes_reclaimed"] > 0
        # The windowed log must be a fraction of the full one: GC
        # reclaims at all layers. (Long-vs-short is the next test.)
        assert _disk_bytes(win_dir) < _disk_bytes(full_dir) / 2

    @pytest.mark.parametrize("name", ["pbzip", "apache"])
    def test_footprint_follows_the_window_not_the_run(self, name, tmp_path, monkeypatch):
        """Same window, same epoch length, a run ~3x longer: same disk."""
        monkeypatch.setenv("REPRO_LOG_FSYNC", "0")
        monkeypatch.setenv("REPRO_LOG_GROUP_KB", "1")  # commit, and slide, every epoch
        window = 4
        short = build_workload(name, workers=2, scale=4, seed=11)
        native = run_native(short.image, short.setup, MachineConfig(cores=2))
        epoch_cycles = max(native.duration // (window + 2), 500)
        epochs, disk = {}, {}
        for scale in (4, 16):
            log_dir = str(tmp_path / f"scale{scale}")
            _, _, result = _record(
                name, scale=scale, epoch_cycles=epoch_cycles,
                log_dir=log_dir, log_spill=True, flight_window=window,
            )
            epochs[scale], disk[scale] = result.stats["epochs"], _disk_bytes(log_dir)
        assert epochs[16] >= 2.5 * epochs[4] > 2.5 * window
        assert disk[16] <= 1.5 * disk[4]

    def test_tail_replays_bit_identically(self, logs):
        instance, machine, result, _, win_dir, _ = logs
        reader = ShardedLogReader(win_dir)
        assert reader.complete and reader.verify() == []
        epochs = result.recording.epoch_count()
        assert reader.first_epoch() == epochs - self.WINDOW
        tail = reader.load_recording()
        assert tail.epoch_range() == (epochs - self.WINDOW, epochs - 1)
        outcome = Replayer(instance.image, machine).replay_sequential(tail)
        assert outcome.verified, outcome.details

    def test_from_epoch_is_absolute(self, logs):
        instance, machine, result, _, win_dir, _ = logs
        reader = ShardedLogReader(win_dir)
        base = reader.first_epoch()
        suffix = reader.load_recording(from_epoch=base + 1)
        assert suffix.epoch_range()[0] == base + 1
        outcome = Replayer(instance.image, machine).replay_sequential(suffix)
        assert outcome.verified, outcome.details
        # epoch 0 slid out of the window: explicit, absolute, rejected
        with pytest.raises(ReplayError, match="outside recorded range"):
            reader.load_recording(from_epoch=0)
        with pytest.raises(ReplayError, match="outside recorded range"):
            reader.load_recording(from_epoch=result.recording.epoch_count() + 1)

    def test_streaming_window_matches_offline_window(self, logs, tmp_path):
        """The recorder's streamed window keeps the same last-K epochs."""
        instance, machine, result, _, _, _ = logs
        stream_dir = str(tmp_path / "stream")
        _record(
            log_dir=stream_dir,
            log_spill=True,
            flight_window=self.WINDOW,
        )
        reader = ShardedLogReader(stream_dir)
        epochs = result.recording.epoch_count()
        assert reader.epoch_count() == self.WINDOW
        assert reader.first_epoch() == epochs - self.WINDOW
        tail = reader.load_recording()
        outcome = Replayer(instance.image, machine).replay_sequential(tail)
        assert outcome.verified, outcome.details


def test_flight_window_requires_log_dir():
    instance = build_workload("prodcons", workers=2, scale=2, seed=11)
    config = DoublePlayConfig(
        machine=MachineConfig(cores=2), epoch_cycles=500, flight_window=3
    )
    with pytest.raises(ValueError, match="flight_window requires log_dir"):
        DoublePlayRecorder(instance.image, instance.setup, config).record()


def test_window_below_one_rejected(tmp_path):
    instance, machine, result = _record(scale=2, divisor=12)
    with pytest.raises(ValueError, match="flight_window"):
        persist_recording(
            result.recording, str(tmp_path / "log"), flight_window=0
        )


def test_env_window_and_field_precedence(monkeypatch):
    # REPRO_FLIGHT_WINDOW is gone: only the field (and --flight-window,
    # which sets it) turns the window on.
    config = DoublePlayConfig()
    monkeypatch.setenv("REPRO_FLIGHT_WINDOW", "5")
    assert options.resolve(config).flight_window is None
    assert options.resolve(config.replace(flight_window=2)).flight_window == 2


# ----------------------------------------------------------------------
# The crash path
# ----------------------------------------------------------------------
def test_close_partial_seals_buffered_epochs(tmp_path):
    """Epochs still in the group-commit buffer survive a partial close."""
    instance, machine, result = _record(scale=4, divisor=12)
    recording = result.recording
    log_dir = str(tmp_path / "log")
    # A huge threshold keeps every epoch buffered until close: without
    # close_partial's final flush they would all be lost.
    writer = ShardedLogWriter(
        log_dir,
        recording.initial_checkpoint,
        recording.program_name,
        recording.worker_threads,
        fsync=False,
        group_commit_bytes=1 << 30,
    )
    epochs = recording.epochs
    logs = SegmentLogs(
        recording.syscall_records, recording.signal_records,
        recording.initial_checkpoint,
    )
    for position, record in enumerate(epochs):
        end = (
            epochs[position + 1].start_checkpoint
            if position + 1 < len(epochs)
            else None
        )
        writer.commit_epoch(record, record.start_checkpoint, end, logs)
    writer.close_partial("ValueError: boom")
    assert writer.closed
    writer.close_partial("second call is a no-op")

    reader = ShardedLogReader(log_dir)
    assert not reader.complete
    assert reader.crash_reason == "ValueError: boom"
    assert reader.epoch_count() == len(epochs)
    assert reader.verify() == []
    tail = reader.load_recording()
    outcome = Replayer(instance.image, machine).replay_sequential(tail)
    assert outcome.verified, outcome.details


def test_recorder_exception_seals_committed_prefix(tmp_path, monkeypatch):
    """Regression: a crash mid-record used to skip sink.close() entirely,
    losing the buffered epochs and the sealing manifest — with log_spill
    those epochs existed nowhere else."""
    log_dir = str(tmp_path / "log")
    original = ShardedLogWriter.commit_epoch
    calls = {"n": 0}

    def bomb(self, *args, **kwargs):
        calls["n"] += 1
        if calls["n"] > 3:
            raise KeyboardInterrupt("operator hit ^C")
        return original(self, *args, **kwargs)

    monkeypatch.setattr(ShardedLogWriter, "commit_epoch", bomb)
    with pytest.raises(KeyboardInterrupt):
        _record(log_dir=log_dir, log_spill=True)
    monkeypatch.setattr(ShardedLogWriter, "commit_epoch", original)

    reader = ShardedLogReader(log_dir)
    assert not reader.complete
    assert "KeyboardInterrupt" in (reader.crash_reason or "")
    assert reader.epoch_count() == 3
    assert reader.verify() == []
    instance = build_workload("prodcons", workers=2, scale=16, seed=11)
    tail = reader.load_recording()
    outcome = Replayer(
        instance.image, MachineConfig(cores=2)
    ).replay_sequential(tail)
    assert outcome.verified, outcome.details


# ----------------------------------------------------------------------
# Process-level crash: SIGKILL mid-run
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kill_after_epochs", [1, 3, 6])
def test_sigkill_mid_record_leaves_replayable_tail(tmp_path, kill_after_epochs):
    """SIGKILL `repro record --log-dir --log-spill` once the manifest
    holds >= N sealed epochs; the committed prefix must verify and
    replay bit-identically (per-epoch digests are in the manifest, so a
    verified sequential replay *is* the bit-identity check)."""
    log_dir = str(tmp_path / f"log{kill_after_epochs}")
    manifest_path = os.path.join(log_dir, "manifest.json")
    env = dict(os.environ)
    env.update(
        {
            "PYTHONPATH": "src" + (
                os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
            ),
            # 1 KiB group commits: epochs seal throughout the run, not
            # only at close, so there is always a prefix to kill into.
            "REPRO_LOG_GROUP_KB": "1",
            "REPRO_LOG_FSYNC": "0",
        }
    )
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "record", "prodcons",
            "--workers", "2", "--scale", "24", "--seed", "11",
            "--epoch-divisor", "40", "--log-dir", log_dir, "--log-spill",
        ],
        env=env,
        cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    killed = False
    deadline = time.monotonic() + 60
    while proc.poll() is None and time.monotonic() < deadline:
        try:
            with open(manifest_path) as handle:
                sealed = len(json.load(handle).get("epochs", []))
        except (OSError, ValueError):
            sealed = 0  # not yet written, or mid-replace
        if sealed >= kill_after_epochs:
            proc.kill()
            killed = True
            break
        time.sleep(0.01)
    proc.wait(timeout=60)
    if not killed:
        # The run finished before reaching the threshold — rare, but then
        # the log is simply complete and the same recovery must work.
        assert proc.returncode == 0

    reader = ShardedLogReader(log_dir)
    assert reader.epoch_count() >= kill_after_epochs or not killed
    assert reader.verify() == []
    instance = build_workload("prodcons", workers=2, scale=24, seed=11)
    tail = reader.load_recording()
    outcome = Replayer(
        instance.image, MachineConfig(cores=2)
    ).replay_sequential(tail)
    assert outcome.verified, outcome.details
    # the CLI recovery path agrees
    from repro.cli import main as cli_main
    import io

    buffer = io.StringIO()
    assert cli_main(["log", "recover", log_dir], out=buffer) == 0
    assert "verified" in buffer.getvalue()
