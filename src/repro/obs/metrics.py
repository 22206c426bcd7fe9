"""The thread's run scope, and run-wide mergeable counters.

* :class:`RunScope` — what the runs on one thread report into: a
  session id, a counter registry, a tracer, a service session's runs.
  The one thread-scoped thing in the telemetry plane; the process has a
  default one.
* :func:`process_stats` — the scope's
  :class:`~repro.sim.stats.StatsRegistry`, which execution code
  increments with dotted names (``"exec.epochs"``,
  ``"replay.verify_failures"``…). Counters are O(1) sums that are not
  facts about one epoch (those go in :mod:`repro.obs.lifecycle`); only
  rare events count, so the always-on cost is O(epochs), never O(guest
  ops) (``tests/test_work_counts.py`` counts the calls).
* :class:`RunMetrics` — a hierarchical ``group → counter → number``
  snapshot assembled at the end of a run from the scope's counter
  *delta* over the run and what the run's epoch lives derive (host
  accounting, histograms). Exposed on ``RecordResult.metrics`` /
  ``ReplayResult.metrics``.

**The worker round-trip.** A worker task clears its process registry
when a unit starts and drains it into ``UnitTiming.metrics`` when the
unit finishes; the coordinator folds them into its own registry when it
consumes the result. Clearing at task start means an aborted previous
task can never leak partial counters into the next unit, and dropped
results (cancelled divergence tails, crashed attempts) drop their
counters with them — which is what keeps ``jobs=1`` and ``jobs=N``
metrics identical.
"""

from __future__ import annotations

import contextlib
import threading
from dataclasses import dataclass, field
from typing import Collection, Dict, Iterator, List, Mapping, Optional

from repro.sim.stats import StatsRegistry


@dataclass
class RunScope:
    """What the runs on one thread report into.

    The process has one (the coordinator's, and every worker's); the
    service enters a private one per session thread, so interleaved
    sessions never merge counters, journal under their own id and trace
    only when their request asked to.
    """

    #: stamped on every journal line emitted under the scope
    sid: Optional[str] = None
    #: the counter registry :func:`process_stats` hands out
    registry: StatsRegistry = field(default_factory=StatsRegistry)
    #: the :class:`~repro.obs.spans.Tracer` collecting the scope's runs
    #: for export; None when nobody asked for a trace
    trace: Optional[object] = None
    #: the epoch lives of the runs begun under the scope, collected for
    #: a service session's pool accounting; None outside a session
    runs: Optional[List[object]] = None


_process = RunScope()
_scoped = threading.local()


def scope() -> RunScope:
    """The calling thread's run scope (its session's, else the process's)."""
    return getattr(_scoped, "scope", _process)


@contextlib.contextmanager
def session_scope(
    sid: Optional[str] = None, trace=None, runs: Optional[list] = None
) -> Iterator[RunScope]:
    """Give this thread a private scope for the block.

    Everything a session's record/replay counts — and every worker
    counter its consumed unit results fold home — lands in the scope's
    own registry, so ``RecordResult.metrics`` is identical to the same
    run performed solo in a fresh process.
    """
    _scoped.scope = entered = RunScope(sid=sid, trace=trace, runs=runs)
    try:
        yield entered
    finally:
        del _scoped.scope


def process_stats() -> StatsRegistry:
    """The calling thread's counter registry."""
    return scope().registry


def drain_process() -> Dict[str, int]:
    """Snapshot and clear the active registry (worker task boundary)."""
    stats = process_stats()
    snap = stats.snapshot()
    stats.clear()
    return snap


def delta_since(baseline: Mapping[str, int]) -> Dict[str, int]:
    """Counters accumulated on this thread since ``baseline`` was taken."""
    now = process_stats().snapshot()
    delta = {}
    for name, value in now.items():
        diff = value - baseline.get(name, 0)
        if diff:
            delta[name] = diff
    return delta


class RunMetrics:
    """A hierarchical, mergeable ``group → counter → number`` snapshot."""

    def __init__(self) -> None:
        self._groups: Dict[str, StatsRegistry] = {}

    def group(self, name: str) -> StatsRegistry:
        """The named group's registry (created on first use)."""
        registry = self._groups.get(name)
        if registry is None:
            registry = self._groups[name] = StatsRegistry()
        return registry

    def add(self, group: str, name: str, amount=1) -> None:
        self.group(group).add(name, amount)

    def get(self, group: str, name: str, default=0):
        registry = self._groups.get(group)
        if registry is None or name not in registry:
            return default
        return registry.get(name)

    def merge_group(
        self,
        group: str,
        mapping: Optional[Mapping],
        ignore: Collection[str] = (),
    ) -> None:
        """Fold a mapping's *numeric scalars* into ``group``.

        Every other value dropped is counted under
        ``obs.metrics_dropped``; callers that *know* a mapping carries
        structural detail (per-unit lists, nested wire/fault dicts) name
        those keys in ``ignore`` so the counter stays a pure drift signal.
        """
        if not mapping:
            return
        registry = self.group(group)
        for name, value in mapping.items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                registry.add(name, value)
            elif name not in ignore:
                self.group("obs").add("metrics_dropped", 1)

    def merge(self, other: "RunMetrics") -> None:
        for group, registry in other._groups.items():
            self.group(group).merge(registry)

    def snapshot(self) -> Dict[str, Dict[str, int]]:
        """Plain nested dicts, sorted — for reports and assertions."""
        return {
            group: dict(self._groups[group].items())
            for group in sorted(self._groups)
        }

    def flat(self) -> Dict[str, int]:
        """``{"group.counter": value}`` — for tables and quick diffing."""
        return {
            f"{group}.{name}": value
            for group, counters in self.snapshot().items()
            for name, value in counters.items()
        }

    def histogram(self, name: str):
        """Rebuild the named :class:`~repro.obs.histo.LogHistogram`.

        Histograms ride the counter round-trip encoded as
        ``histo.<name>.b<index>`` (see :mod:`repro.obs.histo`), landing
        here as the ``histo`` group; this reconstructs one by name.
        Always returns a histogram — empty when nothing was observed.
        """
        from repro.obs.histo import GROUP, LogHistogram

        registry = self._groups.get(GROUP)
        counters = dict(registry.items()) if registry is not None else {}
        return LogHistogram.from_counters(name, counters)

    def histogram_names(self):
        """Names of every histogram present in this snapshot."""
        from repro.obs.histo import GROUP, histogram_names

        registry = self._groups.get(GROUP)
        if registry is None:
            return ()
        return histogram_names(dict(registry.items()))

    @classmethod
    def from_snapshot(cls, snapshot: Mapping[str, Mapping]) -> "RunMetrics":
        metrics = cls()
        for group, counters in snapshot.items():
            metrics.merge_group(group, counters)
        return metrics

    def __repr__(self) -> str:
        inner = ", ".join(
            f"{group}={dict(reg.items())}" for group, reg in sorted(self._groups.items())
        )
        return f"RunMetrics({inner})"


#: ``timing_summary()`` keys that are structural by design (per-unit
#: lists, nested accounting dicts) — not schema drift, so not counted
#: as drops when the host mapping folds into metrics.
_HOST_STRUCTURAL_KEYS = frozenset(
    {"unit_wall", "unit_cpu", "unit_pids", "fault_events", "speculation",
     "wire", "faults"}
)


def build_run_metrics(
    counter_delta: Mapping[str, int],
    host: Optional[Mapping] = None,
    **groups: Mapping,
) -> RunMetrics:
    """Assemble one run's :class:`RunMetrics` snapshot.

    ``counter_delta`` is the dotted-name process delta (split into
    groups on the first ``.``); ``host`` is the lives' ``host_summary()``
    (its numeric scalars plus the nested ``wire`` and ``faults`` dicts);
    extra keyword groups merge verbatim (the recorder passes its
    recording stats as ``record=...`` and the lives' distributions as
    ``histo=...``).
    """
    metrics = RunMetrics()
    for name, value in counter_delta.items():
        group, _, key = name.partition(".")
        if key:
            metrics.add(group, key, value)
        else:
            metrics.add("misc", group, value)
    if host:
        metrics.merge_group("host", host, ignore=_HOST_STRUCTURAL_KEYS)
        metrics.merge_group("wire", host.get("wire"), ignore=("unit_bytes",))
        metrics.merge_group("faults", host.get("faults"))
    for group, mapping in groups.items():
        metrics.merge_group(group, mapping)
    return metrics
