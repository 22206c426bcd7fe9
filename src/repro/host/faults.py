"""Deterministic fault injection for the host worker pool.

Crash, hang, and slow paths in the pool's containment logic are
impossible to exercise with real hardware faults, so this module turns
them into a runtime option. The coordinator parses the run's
``host_faults`` option (``REPRO_FAULT`` or the config field) once per
:class:`~repro.host.executor.HostExecutor` and stamps the matching specs
onto each work unit's ``faults`` field; the *worker* then applies them at
the top of its task function. Shipping specs inside the payload (rather
than relying on the worker's inherited environment) makes injection
immune to pool reuse: a shared pool spawned before the env was set still
faults, and workers spawned during a fault test never leak faults into
later batches.

Spec grammar — comma-separated list of::

    [scope:]kind:unit<N>[:seconds][:once]

* ``scope`` — ``record`` or ``replay``; omitted = both.
* ``kind`` — ``crash`` (hard ``os._exit``, breaks the pool), ``hang``
  (sleep ``seconds``, default 3600 — far past any unit timeout),
  ``slow`` (sleep ``seconds``, default 0.05, then run normally), or
  ``error`` (raise inside the worker; exercises the structured
  task-error path).
* ``unit<N>`` — the unit's position *within its batch* (a record
  segment or a whole replay). A record unit is one epoch; a replay unit
  is a contiguous span of epochs (``repro.host.wire.replay_spans``), so
  a replay's ``unit<N>`` names its *N*-th span, not epoch *N*. A
  recording with several segments fires the fault once per matching
  segment unless ``once`` is given.
* ``once`` — fire on the first matching attempt only, then disarm.
  Workers are separate processes, so the fuse lives on disk:
  ``REPRO_FAULT_STATE`` must name a directory (created if missing).

Examples: ``REPRO_FAULT=crash:unit2``, ``hang:unit1:30``,
``slow:unit0:0.25``, ``record:crash:unit1:once``.

Faults never fire on the coordinator's serial paths (``jobs=1`` and the
retry-exhausted serial fallback) — only the worker task wrappers call
:func:`inject` — so a faulted run always completes, and completes
bit-identically: fault handling changes wall-clock and host accounting,
never a digest, schedule, or recording byte.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Sequence, Tuple

_KINDS = ("crash", "hang", "slow", "error")
_SCOPES = ("record", "replay")

#: sleep lengths when the spec gives no explicit seconds
_DEFAULT_HANG_SECONDS = 3600.0
_DEFAULT_SLOW_SECONDS = 0.05

#: exit status an injected crash dies with (diagnosable in worker logs)
CRASH_EXIT_STATUS = 70


@dataclass(frozen=True)
class FaultSpec:
    """One parsed fault directive (picklable; ships inside work units)."""

    kind: str
    #: unit position within its batch the fault targets
    position: int
    #: "record", "replay", or "" for both
    scope: str = ""
    #: sleep length for hang/slow (0 = kind default)
    seconds: float = 0.0
    once: bool = False
    #: fuse directory for ``once`` (from ``REPRO_FAULT_STATE``)
    state_dir: str = ""

    def matches(self, scope: str, position: int) -> bool:
        return self.position == position and self.scope in ("", scope)

    def _fuse_path(self) -> str:
        name = f"fault-{self.scope or 'any'}-{self.kind}-unit{self.position}"
        return os.path.join(self.state_dir, name)

    def claim(self) -> bool:
        """True if the fault should fire now (consumes the fuse if once)."""
        if not self.once:
            return True
        os.makedirs(self.state_dir, exist_ok=True)
        try:
            fd = os.open(self._fuse_path(), os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            return False
        os.close(fd)
        return True


def parse_fault_specs(raw: str, state_dir: str = "") -> Tuple[FaultSpec, ...]:
    """Parse a ``REPRO_FAULT``-style spec list. Raises ``ValueError`` on junk."""
    specs = []
    for token in raw.split(","):
        token = token.strip()
        if token:
            specs.append(_parse_one(token, state_dir))
    return tuple(specs)


def _parse_one(token: str, state_dir: str) -> FaultSpec:
    parts = [part.strip() for part in token.split(":") if part.strip()]
    scope = ""
    if parts and parts[0] in _SCOPES:
        scope = parts.pop(0)
    if len(parts) < 2:
        raise ValueError(f"fault spec {token!r}: expected [scope:]kind:unit<N>")
    kind = parts[0]
    if kind not in _KINDS:
        raise ValueError(f"fault spec {token!r}: unknown kind {kind!r} "
                         f"(expected one of {', '.join(_KINDS)})")
    unit = parts[1]
    if not unit.startswith("unit") or not unit[4:].isdigit():
        raise ValueError(f"fault spec {token!r}: expected unit<N>, got {unit!r}")
    position = int(unit[4:])
    seconds = 0.0
    once = False
    for qualifier in parts[2:]:
        if qualifier == "once":
            once = True
        else:
            try:
                seconds = float(qualifier)
            except ValueError:
                raise ValueError(
                    f"fault spec {token!r}: qualifier {qualifier!r} is neither "
                    f"'once' nor a seconds value"
                ) from None
    if once and not state_dir:
        raise ValueError(
            f"fault spec {token!r}: 'once' needs REPRO_FAULT_STATE to point "
            f"at a fuse directory (workers are separate processes)"
        )
    return FaultSpec(
        kind=kind, position=position, scope=scope, seconds=seconds,
        once=once, state_dir=state_dir,
    )


def faults_for(
    specs: Sequence[FaultSpec], scope: str, position: int
) -> Tuple[FaultSpec, ...]:
    """The specs a unit at ``position`` in a ``scope`` batch must carry."""
    return tuple(s for s in specs if s.matches(scope, position))


def inject(specs: Sequence[FaultSpec]) -> None:
    """Apply fault specs; called at the top of worker task functions only."""
    for spec in specs:
        if not spec.claim():
            continue
        if spec.kind == "crash":
            os._exit(CRASH_EXIT_STATUS)
        elif spec.kind == "hang":
            time.sleep(spec.seconds or _DEFAULT_HANG_SECONDS)
        elif spec.kind == "slow":
            time.sleep(spec.seconds or _DEFAULT_SLOW_SECONDS)
        elif spec.kind == "error":
            raise RuntimeError(
                f"injected worker error at unit {spec.position}"
            )
