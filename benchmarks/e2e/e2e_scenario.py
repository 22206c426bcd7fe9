"""The canonical scenario: record -> durable log -> replay, solo and served.

A *solo* workload records one program with ``host_jobs=2`` into a durable
log directory, then cold-loads the log and replays it sequentially, in
parallel and from a late epoch. The *serve* workload pushes many small
record and replay sessions through one ``RecordService`` fleet, then
takes one returned recording per tenant program through the same
durable round trip (the service itself has no ``log_dir``).

Every iteration checks what it produced against a ``jobs=1`` in-memory
canonical recording made in set-up; a fast wrong answer never scores.
"""

from __future__ import annotations

import os
import random
import shutil
import tempfile
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.baselines import run_native
from repro.core import DoublePlayConfig, DoublePlayRecorder, RecordResult, Replayer
from repro.host.pool import shared_pool
from repro.machine.config import MachineConfig
from repro.record.recording import Recording
from repro.record.shards import ShardedLogReader, persist_recording
from repro.service import RecordService, ServiceConfig, SessionRequest
from repro.workloads import build_workload

from e2e_spans import Iteration, Spans

#: host worker processes, fleet size, admitted sessions and guest worker
#: threads. The reference box has two cores; the load is never re-sized
#: to the host (a smaller host is reported as ``oversubscribed``).
JOBS = 2
MACHINE = MachineConfig(cores=JOBS)


@dataclass(frozen=True)
class SoloSpec:
    program: str
    scale: int
    #: epoch length = native duration // divisor
    divisor: int


@dataclass(frozen=True)
class ServeSpec:
    programs: Tuple[str, ...]
    scale: int
    #: distinct input seeds per program (tenants with equal seeds share pages)
    seeds: int
    #: one session per program-table row is a replay of a set-up
    #: recording (every 4th with four programs)
    sessions: int
    divisor: int = 12


# Scales are sized for the driver's time cap (about 35 s a run, set-up
# repeated): one iteration takes well under a second, so a run holds
# dozens and its fastest one is found reliably. Epoch lengths match the
# issue's (fft ~14k cycles, apache ~23k, racy-counter ~3k).
WORKLOADS = {
    "compute_clean": SoloSpec("fft", scale=160, divisor=16),
    "server_sync": SoloSpec("apache", scale=250, divisor=20),
    "racy_recovery": SoloSpec("racy-counter", scale=40, divisor=11),
    "serve_mixed": ServeSpec(
        ("fft", "pbzip", "apache", "mysql"),
        scale=16, seeds=2, sessions=24,
    ),
}

#: ``--smoke``: same shapes, tiny inputs, one iteration
SMOKE_WORKLOADS = {
    "compute_clean": SoloSpec("fft", scale=16, divisor=8),
    "server_sync": SoloSpec("apache", scale=24, divisor=8),
    "racy_recovery": SoloSpec("racy-counter", scale=6, divisor=6),
    "serve_mixed": ServeSpec(
        ("fft", "pbzip", "apache", "mysql"),
        scale=2, seeds=1, sessions=8,
    ),
}


class Checks:
    """Operations attempted and failed; feeds ``failed`` and the exit code."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: List[str] = []

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


@dataclass
class Target:
    """One program instance plus what set-up learned about it."""

    program: str
    scale: int
    seed: int
    instance: object
    #: application ops retired by the native run
    ops: int
    native_cycles: int
    epoch_cycles: int
    #: ``jobs=1`` in-memory recording every timed result must equal
    canonical: RecordResult
    #: ``canonical.recording.to_plain()`` (serve targets only)
    plain: Optional[dict] = None


@dataclass
class Sample:
    """What one iteration measured."""

    #: this iteration's value of each end-to-end metric
    values: Dict[str, float]
    phases: Dict[str, float]
    wall: float
    #: durable read-side walls (summed over tenants on the serve workload)
    legs: Dict[str, float]
    #: serve only: the ``ServiceReport``
    report: object = None


def tree_bytes(directory: str) -> int:
    return sum(
        os.path.getsize(os.path.join(root, name))
        for root, _, names in os.walk(directory)
        for name in names
    )


def build_and_run_native(program: str, scale: int, seed: int, spans: Spans,
                         iteration: Optional[Iteration] = None):
    if iteration is not None:
        iteration.phase("build")
    with spans.span("workloads.build_workload", program=program):
        instance = build_workload(program, workers=JOBS, scale=scale, seed=seed)
    if iteration is not None:
        iteration.phase("native")
    with spans.span("exec.run_native", program=program):
        native = run_native(instance.image, instance.setup, MACHINE)
    return instance, native


def record(target: Target, **config) -> RecordResult:
    """One ``DoublePlayRecorder.record()`` of ``target``."""
    return DoublePlayRecorder(
        target.instance.image,
        target.instance.setup,
        DoublePlayConfig(
            machine=MACHINE, epoch_cycles=target.epoch_cycles, **config
        ),
    ).record()


def prepare(program: str, scale: int, divisor: int, seed: int, spans: Spans,
            with_plain: bool = False) -> Target:
    instance, native = build_and_run_native(program, scale, seed, spans)
    target = Target(
        program=program,
        scale=scale,
        seed=seed,
        instance=instance,
        ops=native.ops,
        native_cycles=native.duration,
        epoch_cycles=max(native.duration // divisor, 500),
        canonical=None,
    )
    with spans.span("core.recorder.record", canonical=True):
        target.canonical = record(target, host_jobs=1)
    if with_plain:
        target.plain = target.canonical.recording.to_plain()
    return target


def spawn_cold_pool(spans: Spans) -> float:
    """Spawn the shared pool (the caller has shut the last one down); its wall."""
    with spans.span("host.pool.shared_pool", cold=True) as spawn:
        shared_pool(JOBS)
    return spawn.wall


def replay_legs(target: Target, log_dir: str, iteration: Iteration,
                spans: Spans, checks: Checks) -> Dict[str, float]:
    """Cold load + sequential / parallel / tail replay of one durable log.

    Every load opens a fresh ``ShardedLogReader``: nothing decoded for
    one leg is reused by the next.
    """
    replayer = Replayer(target.instance.image, MACHINE)
    what = f"{target.program}@{target.scale}/{target.seed}"

    iteration.phase("load")
    with spans.span("record.shards.load_recording") as load:
        recording = ShardedLogReader(log_dir).load_recording()
    iteration.phase("replay_seq")
    with spans.span("core.replayer.replay_sequential") as seq:
        seq_result = replayer.replay_sequential(recording)

    iteration.phase("replay_par")
    with spans.span("record.shards.load_recording", materialize=True) as load_m:
        recording = ShardedLogReader(log_dir).load_recording(materialize=True)
    with spans.span("core.replayer.replay_parallel", jobs=JOBS) as par:
        par_result = replayer.replay_parallel(recording, jobs=JOBS)

    iteration.phase("replay_tail")
    from_epoch = (3 * len(recording.epochs)) // 4
    with spans.span("record.shards.load_recording", from_epoch=from_epoch) as load_t:
        tail = ShardedLogReader(log_dir).load_recording(from_epoch=from_epoch)
    with spans.span("core.replayer.replay_sequential", from_epoch=from_epoch) as tail_seq:
        tail_result = replayer.replay_sequential(tail)

    iteration.phase("verify")
    with spans.span("record.shards.verify") as verify:
        problems = ShardedLogReader(log_dir).verify()
    canonical = target.canonical.recording
    checks.expect(seq_result.verified, f"{what}: sequential replay not verified")
    checks.expect(par_result.verified, f"{what}: parallel replay not verified")
    checks.expect(tail_result.verified, f"{what}: tail replay not verified")
    checks.expect(not problems, f"{what}: log verify() reported {problems[:2]}")
    checks.expect(
        recording.final_digest == canonical.final_digest
        and len(recording.epochs) == len(canonical.epochs),
        f"{what}: durable log differs from the jobs=1 canonical",
    )
    return {
        "load_s": load.wall,
        "load_materialize_s": load_m.wall,
        "load_tail_s": load_t.wall,
        "verify_s": verify.wall,
        "seq_s": load.wall + seq.wall,
        "par_s": load_m.wall + par.wall,
        "tail_s": load_t.wall + tail_seq.wall,
        "log_bytes": tree_bytes(log_dir),
    }


class SoloScenario:
    """record(host_jobs=2, log_dir) -> load -> seq / par / tail replay."""

    def __init__(self, spec: SoloSpec, seed: int, work_dir: str):
        self.spec = spec
        self.seed = seed
        self.work_dir = work_dir
        self.target: Optional[Target] = None
        self.spawn_s = 0.0

    def set_up(self, spans: Spans, checks: Checks) -> None:
        spec = self.spec
        self.target = prepare(spec.program, spec.scale, spec.divisor, self.seed, spans)
        self.spawn_s = spawn_cold_pool(spans)
        self.iterate(spans, checks, -1, full=False)  # warm-up, discarded

    def probe_target(self) -> Target:
        return self.target

    def iterate(self, spans: Spans, checks: Checks, index: int, full: bool) -> Sample:
        """One timed iteration; ``full`` adds the build and native phases."""
        target = self.target
        log_dir = tempfile.mkdtemp(prefix="log-", dir=self.work_dir)
        try:
            iteration = spans.begin_iteration(index)
            if full:
                _, native = build_and_run_native(
                    target.program, target.scale, target.seed, spans, iteration
                )
                checks.expect(native.ops == target.ops, "native op count changed")
            iteration.phase("record")
            with spans.span("core.recorder.record", host_jobs=JOBS, log_dir=True) as rec:
                result = record(target, host_jobs=JOBS, log_dir=log_dir)
            legs = replay_legs(target, log_dir, iteration, spans, checks)
            checks.expect(
                result.recording.final_digest == target.canonical.recording.final_digest,
                "recorded final_digest differs from the jobs=1 canonical",
            )
            checks.expect(
                result.makespan == target.canonical.makespan,
                "simulated makespan differs from the jobs=1 canonical",
            )
            iteration.end()
        finally:
            shutil.rmtree(log_dir, ignore_errors=True)
        values = {
            "record_ops_per_s": target.ops / rec.wall,
            "replay_seq_ops_per_s": target.ops / legs["seq_s"],
            "replay_par_ops_per_s": target.ops / legs["par_s"],
            "replay_tail_s": legs["tail_s"],
            "log_bytes_per_kop": legs["log_bytes"] / (target.ops / 1000.0),
            "sim_overhead_pct": 100.0 * result.overhead_vs(target.native_cycles),
        }
        return Sample(values, iteration.phases, iteration.wall, legs)


class ServeScenario:
    """Many small record/replay sessions through one RecordService fleet."""

    def __init__(self, spec: ServeSpec, seed: int, work_dir: str):
        self.spec = spec
        self.seed = seed
        self.work_dir = work_dir
        self.targets: Dict[Tuple[str, int], Target] = {}
        self.requests: List[SessionRequest] = []
        self.spawn_s = 0.0
        #: the warm-up burst's report: the one burst that meets cold workers
        self.cold_report = None

    def _tenants(self) -> List[Tuple[str, int]]:
        return [
            (program, self.seed * 100 + k)
            for k in range(self.spec.seeds)
            for program in self.spec.programs
        ]

    def set_up(self, spans: Spans, checks: Checks) -> None:
        spec = self.spec
        tenants = self._tenants()
        self.targets = {
            (program, seed): prepare(
                program, spec.scale, spec.divisor, seed, spans, with_plain=True
            )
            for program, seed in tenants
        }
        # Replays rotate over the programs (row r replays column r), so
        # every program keeps record sessions at any session count; the
        # run seed then fixes the arrival order.
        columns = len(spec.programs)
        mix = []
        for i in range(spec.sessions):
            program, seed = tenants[i % len(tenants)]
            replay = i % columns == (i // columns) % columns
            mix.append((program, seed, replay))
        random.Random(self.seed).shuffle(mix)
        self.requests = []
        for i, (program, seed, replay) in enumerate(mix):
            target = self.targets[(program, seed)]
            self.requests.append(
                SessionRequest(
                    sid=f"s{i}",
                    workload=program,
                    workers=JOBS,
                    scale=spec.scale,
                    seed=seed,
                    kind="replay" if replay else "record",
                    epoch_cycles=target.epoch_cycles,
                    recording_plain=target.plain if replay else None,
                )
            )
        self.spawn_s = spawn_cold_pool(spans)
        self.cold_report = self.iterate(spans, checks, -1, full=False).report

    def probe_target(self) -> Target:
        """The tenant the solo-layer probes run on: the first program."""
        return self.targets[self._tenants()[0]]

    def iterate(self, spans: Spans, checks: Checks, index: int, full: bool) -> Sample:
        spec = self.spec
        log_dirs = [
            tempfile.mkdtemp(prefix="log-", dir=self.work_dir)
            for _ in spec.programs
        ]
        try:
            iteration = spans.begin_iteration(index)
            if full:
                for program, seed in self._tenants():
                    _, native = build_and_run_native(
                        program, spec.scale, seed, spans, iteration
                    )
                    checks.expect(
                        native.ops == self.targets[(program, seed)].ops,
                        "native op count changed",
                    )
            iteration.phase("serve")
            with spans.span("service.coordinator.run", sessions=len(self.requests)):
                report = RecordService(
                    ServiceConfig(jobs=JOBS, max_active=JOBS)
                ).run(self.requests)

            iteration.phase("verify")
            first_record: Dict[str, Tuple[Target, dict]] = {}
            recorded_ops = makespan = native_cycles = 0
            for request, result in zip(self.requests, report.results):
                target = self.targets[(request.workload, request.seed)]
                if request.kind == "replay":
                    ok = result.ok and result.verified is True
                else:
                    ok = result.ok and result.recording_plain == target.plain
                    if ok:
                        recorded_ops += target.ops
                        makespan += result.recording_plain["stats"]["makespan"]
                        native_cycles += target.native_cycles
                        first_record.setdefault(
                            request.workload, (target, result.recording_plain)
                        )
                checks.expect(
                    ok, f"session {request.sid} ({request.kind} {request.workload}): "
                    f"{result.error or 'differs from the solo canonical'}",
                )

            # Tenant round trip: a recording the service returned becomes a
            # durable log and is replayed from it, one per program.
            legs: Dict[str, float] = {}
            ops = 0
            for program, log_dir in zip(spec.programs, log_dirs):
                if program not in first_record:
                    checks.expect(False, f"no correct recording of {program} to round-trip")
                    continue
                target, plain = first_record[program]
                iteration.phase("persist")
                with spans.span("record.recording.from_plain"):
                    recording = Recording.from_plain(
                        plain, target.canonical.recording.initial_checkpoint
                    )
                with spans.span("core.replayer.materialize_checkpoints"):
                    Replayer(target.instance.image, MACHINE).materialize_checkpoints(recording)
                with spans.span("record.shards.persist_recording"):
                    persist_recording(recording, log_dir)
                for key, value in replay_legs(
                    target, log_dir, iteration, spans, checks
                ).items():
                    legs[key] = legs.get(key, 0) + value
                ops += target.ops
            iteration.end()
        finally:
            for log_dir in log_dirs:
                shutil.rmtree(log_dir, ignore_errors=True)
        values = {
            "record_ops_per_s": recorded_ops / report.elapsed,
            "replay_seq_ops_per_s": ops / legs["seq_s"],
            "replay_par_ops_per_s": ops / legs["par_s"],
            "replay_tail_s": legs["tail_s"] / len(spec.programs),
            "log_bytes_per_kop": legs["log_bytes"] / (ops / 1000.0),
            "sim_overhead_pct": 100.0 * (makespan / native_cycles - 1.0),
        }
        return Sample(values, iteration.phases, iteration.wall, legs, report=report)


def make_scenario(name: str, seed: int, work_dir: str, smoke: bool):
    spec = (SMOKE_WORKLOADS if smoke else WORKLOADS)[name]
    kind = ServeScenario if isinstance(spec, ServeSpec) else SoloScenario
    return kind(spec, seed, work_dir)
