"""The DoublePlay recorder: epochs, commits, divergence handling."""

import pytest

from repro.core import DoublePlayConfig, DoublePlayRecorder, Replayer
from repro.machine.config import MachineConfig
from repro.oskernel.kernel import KernelSetup
from tests.conftest import barrier_program, counter_program


def record(image, setup=None, workers=2, epoch_cycles=1200, **config_kw):
    config = DoublePlayConfig(
        machine=MachineConfig(cores=workers),
        epoch_cycles=epoch_cycles,
        **config_kw,
    )
    recorder = DoublePlayRecorder(image, setup or KernelSetup(), config)
    return recorder.record()


class TestRaceFreeRecording:
    def test_no_divergence_on_lock_counter(self):
        result = record(counter_program(workers=2, iters=60))
        assert result.recording.divergences() == 0
        assert result.recording.epoch_count() >= 3

    def test_no_divergence_on_barriers(self):
        result = record(barrier_program(workers=2, phases=6))
        assert result.recording.divergences() == 0

    def test_epoch_targets_are_monotone(self):
        result = record(counter_program(workers=2, iters=60))
        previous = {}
        for epoch in result.recording.epochs:
            for tid, target in epoch.targets.items():
                assert target >= previous.get(tid, 0)
            previous.update(epoch.targets)

    def test_final_digest_set(self):
        result = record(counter_program(workers=2, iters=40))
        assert result.recording.final_digest != 0

    def test_recording_deterministic(self):
        image = counter_program(workers=2, iters=40)
        a = record(image)
        b = record(image)
        assert a.makespan == b.makespan
        assert a.recording.final_digest == b.recording.final_digest
        assert [e.schedule.to_plain() for e in a.recording.epochs] == [
            e.schedule.to_plain() for e in b.recording.epochs
        ]

    def test_makespan_at_least_app_time(self):
        result = record(counter_program(workers=2, iters=60))
        assert result.makespan >= result.app_time - result.stats["checkpoint_cost"]

    def test_epoch_cycles_controls_epoch_count(self):
        image = counter_program(workers=2, iters=80)
        few = record(image, epoch_cycles=5000)
        many = record(image, epoch_cycles=800)
        assert many.recording.epoch_count() > few.recording.epoch_count()

    def test_committed_kernel_output_correct(self):
        image = counter_program(workers=2, iters=40)
        result = record(image)
        kernel = result.committed_kernel(KernelSetup(), image.heap_base)
        assert kernel.output == [80]

    def test_adaptive_epochs_start_short(self):
        image = counter_program(workers=2, iters=80)
        adaptive = record(image, epoch_cycles=2000, adaptive_epochs=True)
        fixed = record(image, epoch_cycles=2000, adaptive_epochs=False)
        first_adaptive = adaptive.recording.epochs[0].targets
        first_fixed = fixed.recording.epochs[0].targets
        assert sum(first_adaptive.values()) < sum(first_fixed.values())

    def test_no_spare_cores_costs_more(self):
        image = counter_program(workers=2, iters=80)
        spare = record(image, spare_cores=True)
        shared = record(image, spare_cores=False)
        assert shared.makespan > spare.makespan

    def test_stats_populated(self):
        result = record(counter_program(workers=2, iters=40))
        for key in ("divergences", "recoveries", "epochs", "checkpoint_cost",
                    "makespan", "app_time"):
            assert key in result.stats

    def test_overhead_vs_requires_positive_native(self):
        result = record(counter_program(workers=2, iters=40))
        with pytest.raises(ValueError):
            result.overhead_vs(0)


class TestRacyRecording:
    def _racy_image(self, iters=60):
        return counter_program(workers=2, iters=iters, locked=False, name="racy")

    def test_divergences_detected_and_recovered(self):
        result = record(self._racy_image())
        assert result.recording.divergences() >= 1
        assert result.stats["recoveries"] == result.recording.divergences()

    def test_recovered_epochs_marked(self):
        result = record(self._racy_image())
        recovered = [e for e in result.recording.epochs if e.recovered]
        assert len(recovered) == result.recording.divergences()

    def test_recovery_still_produces_replayable_recording(self):
        image = self._racy_image()
        result = record(image)
        replayer = Replayer(image, MachineConfig(cores=2))
        assert replayer.replay_sequential(result.recording).verified
        assert replayer.replay_parallel(result.recording).verified

    def test_racy_recording_commits_correct_result_range(self):
        image = self._racy_image(iters=60)
        result = record(image)
        kernel = result.committed_kernel(KernelSetup(), image.heap_base)
        assert 60 <= kernel.output[0] <= 120

    def test_hints_off_still_correct(self):
        image = counter_program(workers=2, iters=60)
        result = record(image, use_sync_hints=False)
        kernel = result.committed_kernel(KernelSetup(), image.heap_base)
        assert kernel.output == [120]
        replayer = Replayer(image, MachineConfig(cores=2))
        assert replayer.replay_sequential(result.recording).verified

    def test_hints_reduce_divergence_on_lock_heavy_code(self):
        image = counter_program(workers=3, iters=60)
        with_hints = record(image, workers=3, use_sync_hints=True)
        without = record(image, workers=3, use_sync_hints=False)
        assert with_hints.recording.divergences() == 0
        assert without.recording.divergences() >= with_hints.recording.divergences()

    def test_divergence_makes_recording_slower(self):
        clean = record(counter_program(workers=2, iters=60))
        racy = record(self._racy_image())
        # rollbacks cost time: racy overhead per epoch must exceed clean's
        assert racy.recording.divergences() > 0
        assert (
            racy.makespan / racy.app_time >= 1.0
        )


class TestServerRecording:
    def test_apache_records_and_validates(self):
        from repro.workloads import build_workload

        inst = build_workload("apache", workers=2, scale=3, seed=2)
        result = record(inst.image, inst.setup, epoch_cycles=1500)
        assert result.recording.divergences() == 0
        kernel = result.committed_kernel(inst.setup, inst.image.heap_base)
        assert inst.validate(kernel)

    @pytest.mark.parametrize("name,scale", [("apache", 12), ("racy-counter", 8)])
    def test_committed_kernel_is_the_same_at_any_jobs(self, name, scale):
        """Copy-on-write snapshots at record level: the committed kernel
        state — taken across recoveries, each of which restarts its
        segment from a restored kernel — is equal at ``jobs`` 1 and 2
        and still satisfies the workload's own validator."""
        from repro.workloads import build_workload

        inst = build_workload(name, workers=2, scale=scale, seed=11)
        serial, pooled = (
            record(inst.image, inst.setup, epoch_cycles=1500, host_jobs=jobs)
            for jobs in (1, 2)
        )
        assert (serial.stats["recoveries"] > 1) == (name == "racy-counter")
        assert serial.final_kernel_state == pooled.final_kernel_state
        for result in (serial, pooled):
            kernel = result.committed_kernel(inst.setup, inst.image.heap_base)
            assert inst.validate(kernel)
            assert kernel.snapshot() == result.final_kernel_state

    def test_syscall_log_captures_inputs(self):
        from repro.workloads import build_workload

        inst = build_workload("pfscan", workers=2, scale=2, seed=2)
        result = record(inst.image, inst.setup, epoch_cycles=1500)
        kinds = {r.kind.value for r in result.recording.syscall_records}
        assert "read" in kinds and "open" in kinds
        data_words = sum(
            sum(len(words) for _, words in r.writes)
            for r in result.recording.syscall_records
        )
        assert data_words > 0
