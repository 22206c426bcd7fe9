"""Runtime options: every host-side knob, resolved in one place.

How many worker processes, how long a unit may hang, whether fusion is
on: one :class:`RuntimeOptions` value, resolved once per run at its
entry point (:func:`run`) and passed down.
This is the only module under ``repro`` that reads a ``REPRO_*``
variable, and one rule decides every value::

    explicit argument / CLI flag  >  DoublePlayConfig field  >  environment  >  default

These are wall-clock and host-accounting knobs only: none can change a
digest, a makespan or a recording byte. Workers never consult their own
(inherited, possibly stale) environment — the coordinator's options ride
every :class:`~repro.host.worker.UnitDispatch`.
"""

from __future__ import annotations

import contextlib
import contextvars
import dataclasses
import os
from dataclasses import dataclass
from typing import Iterator, Optional

from repro.obs import events as obs_events


@dataclass(frozen=True)
class RuntimeOptions:
    """One run's resolved host-side options (picklable, hashable);
    construction clamps ``host_jobs`` to >= 1 and ``unit_timeout`` to >= 0."""

    #: host worker processes for epoch execution (1 = serial, in-process)
    host_jobs: int = 1
    #: per-unit wall-clock hang budget in seconds; 0 disables detection
    unit_timeout: float = 60.0
    #: superblock fusion in the interpreter
    superblocks: bool = True
    #: fault-injection directives (:mod:`repro.host.faults` grammar,
    #: parsed where the executor is built) and the ``once`` fuse directory
    host_faults: str = ""
    fault_state: str = ""
    #: durable-log group-commit threshold, bytes
    log_group_bytes: int = 32 << 10
    #: fsync the durable log (off only for benchmarks on throwaway dirs)
    log_fsync: bool = True
    #: rolling flight-recorder window in epochs; None = keep everything
    flight_window: Optional[int] = None

    def __post_init__(self):
        object.__setattr__(self, "host_jobs", max(1, int(self.host_jobs)))
        object.__setattr__(self, "unit_timeout", max(0.0, float(self.unit_timeout)))


def _switch(raw: str) -> bool:
    return raw != "0"


#: every environment variable the program honours: (name, field, parse).
#: ``parse`` maps the raw non-empty string to the field's value; unset,
#: empty or junk (ValueError) leaves the field's default.
VARIABLES = (
    ("REPRO_TEST_JOBS", "host_jobs", int),
    ("REPRO_UNIT_TIMEOUT", "unit_timeout", float),
    ("REPRO_SUPERBLOCKS", "superblocks", _switch),
    ("REPRO_FAULT", "host_faults", str),
    ("REPRO_FAULT_STATE", "fault_state", str),
    ("REPRO_LOG_GROUP_KB", "log_group_bytes",
     lambda raw: max(1, int(float(raw) * 1024))),
    ("REPRO_LOG_FSYNC", "log_fsync", _switch),
)


def from_env() -> RuntimeOptions:
    """What the environment selects."""
    values = {}
    for name, field, parse in VARIABLES:
        raw = os.environ.get(name, "")
        if raw:
            try:
                values[field] = parse(raw)
            except (ValueError, OverflowError):
                pass
    return RuntimeOptions(**values)


#: the run in progress in this thread / asyncio task (see :func:`activate`)
_active: contextvars.ContextVar = contextvars.ContextVar(
    "repro_runtime_options", default=None
)


def current() -> RuntimeOptions:
    """The active run's options; outside any run, the environment's."""
    return _active.get() or from_env()


def resolve(config=None, **explicit) -> RuntimeOptions:
    """Apply the precedence rule; ``None`` anywhere means "not set here".

    ``config`` is a :class:`~repro.core.config.DoublePlayConfig`: a field
    of it named like an option sets that option. Inside another run (a
    service's session) that run's options stand in for the environment:
    the service resolves once, its sessions inherit.
    """
    fields = {}
    if config is not None:
        names = (f.name for f in dataclasses.fields(RuntimeOptions))
        fields = {n: getattr(config, n) for n in names if hasattr(config, n)}
    # Later pairs win, so an explicit value overrides the config's.
    values = {k: v for k, v in (*fields.items(), *explicit.items()) if v is not None}
    return dataclasses.replace(current(), **values)


@contextlib.contextmanager
def activate(options: RuntimeOptions) -> Iterator[RuntimeOptions]:
    """Make ``options`` this thread's :func:`current` for the block."""
    token = _active.set(options)
    try:
        yield options
    finally:
        _active.reset(token)


@contextlib.contextmanager
def run(config=None, **explicit) -> Iterator[RuntimeOptions]:
    """One run's entry point: resolve, journal and activate its options.

    As a decorator (``@options.run()``) it resolves afresh on every call.
    A nested run (a service session) journals nothing: its service did.
    """
    resolved = resolve(config, **explicit)
    if _active.get() is None:
        obs_events.emit("options", **vars(resolved))
    with activate(resolved):
        yield resolved
