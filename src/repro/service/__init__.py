"""Record-as-a-service: many record/replay sessions over one worker pool.

Public surface:

* :class:`RecordService` / :class:`ServiceConfig` — the asyncio
  coordinator and its knobs (pool size, admission bound, telemetry).
* :class:`SessionRequest` / :class:`SessionResult` /
  :class:`ServiceReport` — one tenant's job, its outcome, and the
  whole run's accounting.
"""

from repro.service.coordinator import (
    RecordService,
    ServiceConfig,
    ServiceReport,
    SessionRequest,
    SessionResult,
)

__all__ = [
    "RecordService",
    "ServiceConfig",
    "ServiceReport",
    "SessionRequest",
    "SessionResult",
]
