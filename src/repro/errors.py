"""Exception hierarchy for the repro package.

All errors raised by the library derive from :class:`ReproError` so callers
can catch library failures with a single ``except`` clause while letting
programming errors (``TypeError`` etc.) propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class AssemblerError(ReproError):
    """Raised when a guest program cannot be assembled (bad label, operand...)."""


class GuestFault(ReproError):
    """Raised when a guest program performs an illegal operation.

    Examples: load/store outside any mapped page, division by zero,
    unlocking a mutex the thread does not hold, joining an unknown thread.
    """

    def __init__(self, message: str, tid: int = -1, pc: int = -1):
        super().__init__(message)
        self.tid = tid
        self.pc = pc


class SyscallError(GuestFault):
    """Raised when a guest issues a malformed or unsupported system call."""


class SimulationError(ReproError):
    """Raised when the simulation itself reaches an invalid state.

    This indicates a bug in the engine or a configuration error, never a
    legal guest behaviour.
    """


class DeadlockError(SimulationError):
    """Raised when no runnable thread exists but the program has not exited."""

    def __init__(self, message: str, blocked_tids=()):
        super().__init__(message)
        self.blocked_tids = tuple(blocked_tids)


class ReplayError(ReproError):
    """Raised when a replay cannot follow its recording.

    A correct recording always replays; this error means the recording is
    corrupt or was produced by an incompatible configuration.
    """


class HostPoolError(ReproError):
    """Base class for host worker-pool failures.

    These describe *host* misbehaviour — a worker process crashing,
    hanging, or raising — never guest behaviour. They are containment
    records as much as exceptions: the pool executor creates them as
    structured results, counts them, retries the unit once, and falls back
    to in-coordinator execution, so under the default policy they are
    reported on ``RecordResult.host`` / ``ReplayResult.host`` rather than
    raised. All subclasses pickle cleanly (instances cross the process
    boundary as worker results).
    """

    #: short machine-readable kind tag ("crash", "timeout", "task-error")
    kind = "host"

    def __init__(self, message: str, position: int = -1, attempt: int = 0):
        super().__init__(message)
        #: the failed unit's position within its batch
        self.position = position
        #: 0-based attempt number at which the failure was observed
        self.attempt = attempt

    def __reduce__(self):
        return type(self), (self.args[0] if self.args else "", self.position,
                            self.attempt)


class WorkerCrashError(HostPoolError):
    """A worker process died mid-unit (the pool came back broken).

    The crash is attributed to the unit the coordinator was waiting on;
    sibling units killed as collateral are resubmitted without blame.
    """

    kind = "crash"


class CollateralLossError(HostPoolError):
    """A unit lost with a worker that failed on another unit's account.

    It sat behind the unit a worker died running, or in the window of a
    worker terminated when its pool was replaced. The failure is not its
    position's: containment dispatches it again without counting an
    attempt.
    """

    kind = "collateral"


class WorkerTimeoutError(HostPoolError):
    """A unit exceeded the configured per-unit timeout (hung worker)."""

    kind = "timeout"

    def __init__(
        self,
        message: str,
        position: int = -1,
        attempt: int = 0,
        timeout: float = 0.0,
    ):
        super().__init__(message, position, attempt)
        #: the per-unit timeout (seconds) that expired
        self.timeout = timeout

    def __reduce__(self):
        return type(self), (self.args[0] if self.args else "", self.position,
                            self.attempt, self.timeout)


class WorkerTaskError(HostPoolError):
    """A unit raised inside the worker; the exception, made structured.

    The worker converts any task exception into this picklable record and
    returns it as the unit's result, so one bad unit can never poison the
    pool. Deterministic guest errors reproduce during the serial fallback
    and are re-raised there with full coordinator context.
    """

    kind = "task-error"

    def __init__(
        self,
        message: str,
        position: int = -1,
        attempt: int = 0,
        exc_type: str = "",
        traceback_text: str = "",
    ):
        super().__init__(message, position, attempt)
        #: the original exception's class name
        self.exc_type = exc_type
        #: the worker-side formatted traceback
        self.traceback_text = traceback_text

    def __reduce__(self):
        return type(self), (self.args[0] if self.args else "", self.position,
                            self.attempt, self.exc_type, self.traceback_text)


class DivergenceSignal(ReproError):
    """Internal control-flow signal: an epoch-parallel run diverged.

    Raised by the epoch runner when it can prove mid-epoch that the
    uniprocessor re-execution no longer follows the thread-parallel run
    (syscall mismatch, deadlock against the logged boundary). The recorder
    catches it and triggers forward recovery; it never escapes the library.
    """

    def __init__(self, reason: str, epoch_index: int = -1):
        super().__init__(reason)
        self.reason = reason
        self.epoch_index = epoch_index
