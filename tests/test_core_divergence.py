"""Divergence detection unit tests (epoch-boundary comparison)."""

from repro.checkpoint.manager import CheckpointManager
from repro.core.divergence import compare_epoch_end
from repro.core.epoch_runner import run_epoch
from repro.exec.multicore import MulticoreEngine
from repro.exec.services import InjectedSyscalls, LiveSyscalls
from repro.exec.uniprocessor import UniprocessorEngine
from repro.machine.config import MachineConfig
from repro.oskernel.kernel import Kernel, KernelSetup
from repro.record.sync_log import SyncOrderLog
from tests.conftest import boot_multicore, counter_program


def capture_epoch(image, workers=2, stop_at=1200, setup=None, log=None):
    """Thread-parallel run producing (start cp, boundary cp, syscall log,
    hint events)."""
    machine = MachineConfig(cores=workers)
    syscall_log = [] if log is None else log
    kernel = Kernel(setup or KernelSetup(), image.heap_base)
    engine = MulticoreEngine.boot(image, machine, LiveSyscalls(kernel, syscall_log))
    hints = []
    engine.acquisition_log = hints
    manager = CheckpointManager()
    start = manager.initial(engine)
    engine.run(stop_after=stop_at)
    boundary = manager.take(engine, 1)
    return machine, start, boundary, syscall_log, hints


class TestEpochRunner:
    def test_clean_epoch_matches(self):
        image = counter_program(workers=2, iters=60)
        machine, start, boundary, log, hints = capture_epoch(image)
        result = run_epoch(
            image, machine, 0, start, boundary, log,
            SyncOrderLog(tuple(hints)), True,
        )
        assert result.ok, result.reason
        assert result.schedule.total_ops() > 0
        assert result.duration > 0

    def test_epoch_result_digest_matches_boundary(self):
        image = counter_program(workers=2, iters=60)
        machine, start, boundary, log, hints = capture_epoch(image)
        result = run_epoch(
            image, machine, 0, start, boundary, log,
            SyncOrderLog(tuple(hints)), True,
        )
        assert result.end_digest == boundary.digest()

    def test_committed_sync_log_collected(self):
        image = counter_program(workers=2, iters=60)
        machine, start, boundary, log, hints = capture_epoch(image)
        result = run_epoch(
            image, machine, 0, start, boundary, log,
            SyncOrderLog(tuple(hints)), True,
        )
        assert len(result.committed_sync.events) > 0

    def test_wrong_boundary_is_divergence(self):
        """Comparing against a later checkpoint's state must mismatch."""
        image = counter_program(workers=2, iters=60)
        machine = MachineConfig(cores=2)
        syscall_log = []
        kernel = Kernel(KernelSetup(), image.heap_base)
        engine = MulticoreEngine.boot(image, machine, LiveSyscalls(kernel, syscall_log))
        hints = []
        engine.acquisition_log = hints
        manager = CheckpointManager()
        start = manager.initial(engine)
        engine.run(stop_after=800)
        middle = manager.take(engine, 1)
        engine.run(stop_after=1600)
        later = manager.take(engine, 2)
        # run the first epoch but give it the *second* boundary's digest to
        # match against — targets come from `later`, so the executor runs
        # further than `middle`; against `middle` this must diverge.
        result = run_epoch(
            image, machine, 0, start, middle, syscall_log,
            SyncOrderLog(tuple(hints)), True,
        )
        assert result.ok  # sanity: correct boundary matches
        mismatch = compare_and_diverge(image, machine, start, middle, later,
                                       syscall_log, hints)
        assert mismatch

    def test_racy_epoch_can_diverge(self):
        image = counter_program(workers=2, iters=80, locked=False, name="racy")
        machine, start, boundary, log, hints = capture_epoch(image, stop_at=900)
        result = run_epoch(
            image, machine, 0, start, boundary, log,
            SyncOrderLog(tuple(hints)), True,
        )
        # either it happens to match or it reports a divergence; both legal,
        # but the result must be well-formed either way
        if not result.ok:
            assert result.reason


def compare_and_diverge(image, machine, start, middle, later, syscall_log, hints):
    """Run to `later`'s targets, compare against `middle` — must differ."""
    injector = InjectedSyscalls(syscall_log)
    engine = UniprocessorEngine.from_checkpoint(
        image,
        machine,
        injector,
        memory_snapshot=start.memory,
        contexts=start.copy_contexts(),
        sync_state=start.sync_state,
        targets=later.targets(),
        wake_blocked_io=True,
    )
    from repro.record.sync_log import SyncOrderOracle

    engine.sync.oracle = SyncOrderOracle(SyncOrderLog(tuple(hints)))
    engine.run()
    report = compare_epoch_end(engine, middle)
    return not report.matches


class TestCompareReport:
    def test_check_cost_positive(self):
        image = counter_program(workers=2, iters=60)
        machine, start, boundary, log, hints = capture_epoch(image)
        result = run_epoch(
            image, machine, 0, start, boundary, log,
            SyncOrderLog(tuple(hints)), True,
        )
        assert result.report.check_cost > 0

    def test_report_details_empty_on_match(self):
        image = counter_program(workers=2, iters=60)
        machine, start, boundary, log, hints = capture_epoch(image)
        result = run_epoch(
            image, machine, 0, start, boundary, log,
            SyncOrderLog(tuple(hints)), True,
        )
        assert result.report.details == []
        assert bool(result.report)
