"""Replay fidelity in all modes, including tampering detection."""

import pytest

from repro.core import DoublePlayConfig, DoublePlayRecorder, Replayer
from repro.errors import ReplayError
from repro.machine.config import MachineConfig
from repro.oskernel.kernel import KernelSetup
from repro.record.schedule_log import ScheduleLog, Timeslice
from tests.conftest import barrier_program, counter_program


def make_recording(image, setup=None, workers=2, epoch_cycles=1200):
    config = DoublePlayConfig(
        machine=MachineConfig(cores=workers), epoch_cycles=epoch_cycles
    )
    result = DoublePlayRecorder(image, setup or KernelSetup(), config).record()
    return result.recording


class TestSequentialReplay:
    def test_verifies_lock_counter(self):
        image = counter_program(workers=2, iters=50)
        replayer = Replayer(image, MachineConfig(cores=2))
        result = replayer.replay_sequential(make_recording(image))
        assert result.verified
        assert result.epochs_replayed >= 2

    def test_verifies_barrier_program(self):
        image = barrier_program(workers=2, phases=5)
        replayer = Replayer(image, MachineConfig(cores=2))
        assert replayer.replay_sequential(make_recording(image)).verified

    def test_replay_reproduces_guest_registers(self):
        """Replay lands in exactly the recorded final digest — which covers
        every register of every thread."""
        image = counter_program(workers=3, iters=30)
        recording = make_recording(image, workers=3)
        replayer = Replayer(image, MachineConfig(cores=3))
        result = replayer.replay_sequential(recording)
        assert result.verified
        assert recording.final_digest != 0

    def test_replay_is_idempotent(self):
        image = counter_program(workers=2, iters=40)
        recording = make_recording(image)
        replayer = Replayer(image, MachineConfig(cores=2))
        a = replayer.replay_sequential(recording)
        b = replayer.replay_sequential(recording)
        assert a.verified and b.verified
        assert a.total_cycles == b.total_cycles

    def test_tampered_schedule_detected(self):
        image = counter_program(workers=2, iters=40)
        recording = make_recording(image)
        victim = recording.epochs[1]
        slices = list(victim.schedule.slices)
        # move one op between adjacent slices of different threads
        for i in range(len(slices) - 1):
            a, b = slices[i], slices[i + 1]
            if a.tid != b.tid and a.ops > 1 and not a.ended_blocked:
                slices[i] = Timeslice(a.tid, a.ops - 1, a.ended_blocked)
                slices[i + 1] = Timeslice(b.tid, b.ops + 1, b.ended_blocked)
                break
        victim.schedule = ScheduleLog(tuple(slices))
        replayer = Replayer(image, MachineConfig(cores=2))
        try:
            result = replayer.replay_sequential(recording)
            assert not result.verified
        except ReplayError:
            pass  # departure detected even earlier

    def test_tampered_syscall_result_detected(self):
        from repro.workloads import build_workload

        inst = build_workload("pfscan", workers=2, scale=2, seed=2)
        recording = make_recording(inst.image, inst.setup, epoch_cycles=1500)
        # corrupt one logged read's data
        for index, record in enumerate(recording.syscall_records):
            if record.writes:
                base, words = record.writes[0]
                corrupted = (base, tuple(w + 1 for w in words))
                recording.syscall_records[index] = record._replace(
                    writes=(corrupted,) + record.writes[1:]
                )
                break
        replayer = Replayer(inst.image, MachineConfig(cores=2))
        try:
            assert not replayer.replay_sequential(recording).verified
        except ReplayError:
            pass


class TestParallelReplay:
    def test_verifies_and_matches_sequential(self):
        image = counter_program(workers=2, iters=50)
        recording = make_recording(image)
        replayer = Replayer(image, MachineConfig(cores=2))
        par = replayer.replay_parallel(recording)
        seq = replayer.replay_sequential(recording)
        assert par.verified and seq.verified
        assert par.epochs_replayed == seq.epochs_replayed

    def test_parallel_makespan_beats_sequential(self):
        image = counter_program(workers=2, iters=120)
        recording = make_recording(image, epoch_cycles=900)
        replayer = Replayer(image, MachineConfig(cores=2))
        par = replayer.replay_parallel(recording, workers=recording.epoch_count())
        seq = replayer.replay_sequential(recording)
        assert par.makespan < seq.makespan

    def test_worker_pool_bounds_parallelism(self):
        image = counter_program(workers=2, iters=120)
        recording = make_recording(image, epoch_cycles=900)
        replayer = Replayer(image, MachineConfig(cores=2))
        narrow = replayer.replay_parallel(recording, workers=1)
        wide = replayer.replay_parallel(recording, workers=8)
        assert wide.makespan <= narrow.makespan

    def test_single_epoch_replay(self):
        image = counter_program(workers=2, iters=60)
        recording = make_recording(image)
        replayer = Replayer(image, MachineConfig(cores=2))
        middle = recording.epochs[len(recording.epochs) // 2].index
        result = replayer.replay_epoch(recording, middle)
        assert result.verified
        assert result.epochs_replayed == 1

    def test_unknown_epoch_index(self):
        image = counter_program(workers=2, iters=40)
        recording = make_recording(image)
        replayer = Replayer(image, MachineConfig(cores=2))
        with pytest.raises(ReplayError):
            replayer.replay_epoch(recording, 999)


class TestMaterialisedReplay:
    def test_deserialised_recording_round_trip(self):
        import json

        from repro.record.recording import Recording

        image = counter_program(workers=2, iters=60)
        recording = make_recording(image)
        plain = json.loads(json.dumps(recording.to_plain()))
        restored = Recording.from_plain(plain, recording.initial_checkpoint)
        replayer = Replayer(image, MachineConfig(cores=2))
        assert replayer.replay_sequential(restored).verified

    def test_materialise_then_parallel(self):
        import json

        from repro.record.recording import Recording

        image = counter_program(workers=2, iters=60)
        recording = make_recording(image)
        plain = json.loads(json.dumps(recording.to_plain()))
        restored = Recording.from_plain(plain, recording.initial_checkpoint)
        replayer = Replayer(image, MachineConfig(cores=2))
        with pytest.raises(ReplayError):
            replayer.replay_epoch(restored, restored.epochs[-1].index)
        replayer.materialize_checkpoints(restored)
        assert replayer.replay_parallel(restored).verified
        assert replayer.replay_epoch(restored, restored.epochs[-1].index).verified
