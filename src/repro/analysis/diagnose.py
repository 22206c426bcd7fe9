"""Divergence diagnosis: which race caused a rollback?

A recovered epoch means the epoch-parallel re-execution resolved some
conflicting accesses differently than the thread-parallel run — i.e. a
data race fired inside that epoch. Because the recording replays the
epoch deterministically, we can re-execute exactly that interval under
the happens-before detector and name the racing addresses, turning "epoch
7 rolled back" into "threads 1025 and 1026 race on address 64".

This is the workflow DoublePlay's authors pursued in follow-on work
(using uniparallel replay as a race-analysis substrate); here it is a
small composition of the replayer and the detector.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List

from repro.core.replayer import Replayer
from repro.exec.trace import CollectingObserver
from repro.isa.program import ProgramImage
from repro.machine.config import MachineConfig
from repro.race.detector import Race, find_races
from repro.record.recording import Recording


@dataclass
class EpochDiagnosis:
    """What the detector found inside one replayed epoch."""

    epoch_index: int
    recovered: bool
    races: List[Race] = field(default_factory=list)
    #: guest word addresses involved in races
    racy_addresses: List[int] = field(default_factory=list)

    @property
    def racy(self) -> bool:
        return bool(self.races)


def diagnose_epoch(
    program: ProgramImage,
    machine: MachineConfig,
    recording: Recording,
    epoch_index: int,
) -> EpochDiagnosis:
    """Replay one epoch under the race detector: the walk of
    :func:`diagnose_recording`, stopped at that epoch."""
    Replayer.find_epoch(recording, epoch_index)
    return next(_diagnoses(
        program, machine, recording, lambda epoch: epoch.index == epoch_index
    ))


def diagnose_recording(
    program: ProgramImage,
    machine: MachineConfig,
    recording: Recording,
) -> List[EpochDiagnosis]:
    """Diagnose every *recovered* epoch of a recording.

    Recovered epochs are where divergence — and therefore a manifested
    race — occurred; clean epochs are skipped (their races, if any, did
    not fire).
    """
    return list(
        _diagnoses(program, machine, recording, lambda epoch: epoch.recovered)
    )


def _diagnoses(program, machine, recording, wanted) -> Iterator[EpochDiagnosis]:
    """Walk the recording on one sequential-replay engine, with a fresh
    detector attached during each ``wanted`` epoch only.

    Needs no start checkpoint but the initial one, so an in-memory, a
    JSON and a durable recording all take this one path. The replayed
    interval contains exactly the committed execution's accesses for
    that epoch, so any race reported happened within it.
    """
    replayer = Replayer(program, machine)
    engine = replayer.whole_run_engine(recording, "diagnose")
    for epoch in replayer.walk(engine, recording):
        observer = CollectingObserver()
        engine.observers[:] = [observer] if wanted(epoch) else []
        engine.run_schedule(epoch.schedule)
        if not engine.observers:
            continue
        races = find_races(observer.events)
        yield EpochDiagnosis(
            epoch_index=epoch.index,
            recovered=epoch.recovered,
            races=races,
            racy_addresses=sorted({race.addr for race in races}),
        )
