"""Epoch boundary policies.

A policy answers one question for the thread-parallel execution: *when
is the next checkpoint due?* The engine stops at the first op boundary
that reaches that time. Boundaries may fall at any op boundary — the
retired-op-count targets mechanism (see ``repro.core.epoch_runner``)
makes every boundary well-defined without quiescing threads at special
instructions.
"""

from __future__ import annotations


class FixedEpochPolicy:
    """Checkpoint every ``epoch_cycles`` of thread-parallel time."""

    def __init__(self, epoch_cycles: int):
        if epoch_cycles <= 0:
            raise ValueError(f"epoch_cycles must be positive, got {epoch_cycles}")
        self.epoch_cycles = epoch_cycles
        self._last_boundary = 0

    def start_segment(self, time: int) -> None:
        """Reset at a (re)started thread-parallel execution."""
        self._last_boundary = time

    def next_boundary(self) -> int:
        """The time at which the next checkpoint is due.

        The thread-parallel run stops at the first op boundary where its
        time reaches this value (the ``stop_after`` of
        ``MulticoreEngine.run``).
        """
        return self._last_boundary + self.epoch_cycles

    def note_checkpoint(self, time: int) -> None:
        self._last_boundary = time


class AdaptiveEpochPolicy(FixedEpochPolicy):
    """Ramped epoch lengths: short early epochs fill the pipeline fast.

    The epoch-parallel execution of epoch k cannot start before checkpoint
    k exists; with fixed-length epochs the pipeline idles for one full
    epoch at startup. Ramping (¼, ½, ¾, then full length) gets spare cores
    busy almost immediately — DoublePlay's epoch-sizing adaptivity in its
    simplest useful form.
    """

    RAMP = (4, 2, 2, 1)  # divisors for the first epochs

    def __init__(self, epoch_cycles: int):
        super().__init__(epoch_cycles)
        self._epoch_index = 0

    def next_boundary(self) -> int:
        divisor = self.RAMP[min(self._epoch_index, len(self.RAMP) - 1)]
        return self._last_boundary + max(self.epoch_cycles // divisor, 1)

    def note_checkpoint(self, time: int) -> None:
        super().note_checkpoint(time)
        self._epoch_index += 1

    def start_segment(self, time: int) -> None:
        super().start_segment(time)
        # keep the ramp position: after a recovery the pipeline refills,
        # so ramping again is the right behaviour
        self._epoch_index = 0
