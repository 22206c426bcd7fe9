"""Log-bucketed mergeable latency histograms.

The telemetry plane needs *distributions*, not just counters: an
operator watching a thousand concurrent sessions cares about p99 epoch
latency and whether the tail is moving, and a single mean hides both.
:class:`LogHistogram` is the one histogram type used everywhere:

* **Log-spaced buckets.** Bucket ``i`` covers values in
  ``[10**(i/B), 10**((i+1)/B))`` with ``B = BUCKETS_PER_DECADE``
  sub-buckets per decade — constant *relative* resolution (~33% wide at
  B=8) over any dynamic range, the same scheme HDR-style histograms and
  Prometheus native histograms use. A bucket is just an integer index,
  so a histogram is a sparse ``{index: count}`` dict.
* **Mergeable, associatively and commutatively.** Merging is integer
  addition per bucket, so quantiles computed from merged worker
  histograms are identical no matter how the observations were
  partitioned — the property that makes ``jobs=1`` and ``jobs=N``
  distributions comparable at all.
* **Counter-encoded on the wire.** :func:`observe` writes bucket
  increments into the process stats registry under dotted names
  (``histo.<name>.b<index>``). That means histogram data rides the
  *existing* worker→``UnitTiming.metrics``→coordinator round-trip with
  zero wire-format changes, obeys the same drop-with-the-result rule
  that keeps metrics identical across jobs counts, and lands in
  ``RunMetrics`` (group ``histo``) where
  :meth:`~repro.obs.metrics.RunMetrics.histogram` reconstructs it.

One observation is made where it happens: :func:`observe` counts an
executed epoch's simulated cycles (``core/epoch_runner.py``), in
whichever process ran it. The wall-clock and size distributions
(``unit_wall_s``, ``unit_bytes``, ``commit_wall_s``) are not observed
anywhere — :meth:`repro.obs.lifecycle.Lives.distributions` derives them
from the run's epoch lives when its metrics are assembled.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, Mapping, Optional, Tuple

from repro.obs import metrics as obs_metrics

#: log-spaced sub-buckets per decade: ~33% relative bucket width
BUCKETS_PER_DECADE = 8

#: values at or below this observe as the smallest representable bucket
#: (latencies of exactly 0 happen when perf_counter granularity rounds
#: a tiny interval away; they must not crash the log)
_FLOOR = 1e-9

#: the dotted-counter namespace histograms are encoded under
GROUP = "histo"


def bucket_index(value: float) -> int:
    """The log-spaced bucket index holding ``value``."""
    return math.floor(math.log10(max(value, _FLOOR)) * BUCKETS_PER_DECADE)


def bucket_key(name: str, value: float) -> str:
    """The counter one observation of ``value`` increments: ``<name>.b<index>``."""
    return f"{name}.b{bucket_index(value)}"


def bucket_upper_bound(index: int) -> float:
    """Exclusive upper edge of bucket ``index``."""
    return 10.0 ** ((index + 1) / BUCKETS_PER_DECADE)


def bucket_mid(index: int) -> float:
    """Geometric midpoint of bucket ``index`` (the quantile estimate)."""
    return 10.0 ** ((index + 0.5) / BUCKETS_PER_DECADE)


class LogHistogram:
    """A sparse log-bucketed histogram: ``{bucket index: count}``."""

    __slots__ = ("counts",)

    def __init__(self, counts: Optional[Mapping[int, int]] = None):
        self.counts: Dict[int, int] = dict(counts or {})

    # ------------------------------------------------------------------
    def observe(self, value: float, count: int = 1) -> None:
        index = bucket_index(value)
        self.counts[index] = self.counts.get(index, 0) + count

    def merge(self, other: "LogHistogram") -> "LogHistogram":
        for index, count in other.counts.items():
            self.counts[index] = self.counts.get(index, 0) + count
        return self

    @property
    def count(self) -> int:
        return sum(self.counts.values())

    def __bool__(self) -> bool:
        return bool(self.counts)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LogHistogram):
            return NotImplemented
        return self.counts == other.counts

    def __repr__(self) -> str:
        return f"LogHistogram(n={self.count}, buckets={len(self.counts)})"

    # ------------------------------------------------------------------
    def quantile(self, q: float) -> float:
        """Nearest-rank quantile, estimated at the bucket's midpoint."""
        total = self.count
        if total == 0:
            return 0.0
        rank = min(total, max(1, math.ceil(q * total)))
        seen = 0
        for index in sorted(self.counts):
            seen += self.counts[index]
            if seen >= rank:
                return bucket_mid(index)
        return bucket_mid(max(self.counts))

    def quantiles(self, qs: Iterable[float] = (0.50, 0.90, 0.99)) -> Dict[str, float]:
        return {f"p{int(q * 100)}": self.quantile(q) for q in qs}

    def cumulative_buckets(self) -> Iterable[Tuple[float, int]]:
        """``(upper_bound, cumulative_count)`` pairs, Prometheus-style."""
        seen = 0
        for index in sorted(self.counts):
            seen += self.counts[index]
            yield bucket_upper_bound(index), seen

    # ------------------------------------------------------------------
    # Counter encoding (the wire / RunMetrics representation).
    # ------------------------------------------------------------------
    def to_counters(self, name: str) -> Dict[str, int]:
        """Flat ``{"<name>.b<index>": count}`` encoding."""
        return {f"{name}.b{index}": count for index, count in self.counts.items()}

    @classmethod
    def from_counters(cls, name: str, counters: Mapping[str, int]) -> "LogHistogram":
        """Rebuild from a flat counter mapping (ignores foreign keys)."""
        prefix = f"{name}.b"
        counts: Dict[int, int] = {}
        for key, count in counters.items():
            if key.startswith(prefix):
                try:
                    counts[int(key[len(prefix) :])] = int(count)
                except ValueError:
                    continue
        return cls(counts)


def observe(name: str, value: float) -> None:
    """Count ``value`` into the named histogram in this thread's registry.

    The increment is an ordinary dotted stats counter
    (``histo.<name>.b<index>``), so it follows whatever registry scoping
    and worker round-trip rules counters already follow.
    """
    obs_metrics.process_stats().add(f"{GROUP}.{bucket_key(name, value)}", 1)


def histogram_names(counters: Mapping[str, int]) -> Tuple[str, ...]:
    """Distinct histogram names present in a ``histo``-group mapping."""
    names = set()
    for key in counters:
        name, sep, tail = key.rpartition(".b")
        if sep and name:
            try:
                int(tail)
            except ValueError:
                continue
            names.add(name)
    return tuple(sorted(names))
