"""Divergence diagnosis tests."""

import pytest

from repro.analysis.diagnose import diagnose_epoch, diagnose_recording
from repro.core import DoublePlayConfig, DoublePlayRecorder
from repro.errors import ReplayError
from repro.machine.config import MachineConfig
from repro.oskernel.kernel import KernelSetup
from tests.conftest import counter_program


def record(image, workers=2, epoch_cycles=900):
    config = DoublePlayConfig(
        machine=MachineConfig(cores=workers), epoch_cycles=epoch_cycles
    )
    return DoublePlayRecorder(image, KernelSetup(), config).record()


class TestDiagnose:
    def test_recovered_epochs_name_the_racing_address(self):
        image = counter_program(workers=2, iters=80, locked=False, name="racy")
        result = record(image)
        assert result.recording.divergences() > 0
        machine = MachineConfig(cores=2)
        diagnoses = diagnose_recording(image, machine, result.recording)
        assert diagnoses, "recovered epochs must exist"
        counter_addr = image.address_of("counter")
        racy = [d for d in diagnoses if d.racy]
        assert racy, "at least one recovered epoch shows the race"
        assert any(counter_addr in d.racy_addresses for d in racy)
        assert all(d.recovered for d in diagnoses)

    def test_clean_epochs_diagnose_clean(self):
        image = counter_program(workers=2, iters=60)
        result = record(image)
        machine = MachineConfig(cores=2)
        diagnosis = diagnose_epoch(
            image, machine, result.recording, result.recording.epochs[1].index
        )
        assert not diagnosis.racy
        assert diagnosis.racy_addresses == []

    def test_race_free_recording_has_no_recovered_epochs(self):
        image = counter_program(workers=2, iters=60)
        result = record(image)
        machine = MachineConfig(cores=2)
        assert diagnose_recording(image, machine, result.recording) == []

    def test_unknown_epoch_rejected(self):
        image = counter_program(workers=2, iters=40)
        result = record(image)
        with pytest.raises(ReplayError):
            diagnose_epoch(image, MachineConfig(cores=2), result.recording, 999)

    def test_a_json_restored_recording_diagnoses_like_the_in_memory_one(self):
        import json

        from repro.record.recording import Recording

        image = counter_program(workers=2, iters=80, locked=False, name="racy")
        result = record(image)
        plain = json.loads(json.dumps(result.recording.to_plain()))
        restored = Recording.from_plain(plain, result.recording.initial_checkpoint)
        machine = MachineConfig(cores=2)

        def found(recording):
            return [
                (d.epoch_index, d.recovered, d.racy_addresses, len(d.races))
                for d in diagnose_recording(image, machine, recording)
            ]

        assert any(racy for _, _, racy, _ in found(result.recording))
        assert found(restored) == found(result.recording)
        later = restored.epochs[-1].index
        assert diagnose_epoch(image, machine, restored, later) == (
            diagnose_epoch(image, machine, result.recording, later)
        )
