"""Simulated network: timed request arrivals and captured responses.

Server workloads (the Apache- and MySQL-like programs) are driven by an
*arrival schedule* the workload fixes up front: each :class:`Arrival` is a
request payload that becomes available to ``accept`` at a simulated time.
Arrival times are the nondeterministic input; which worker thread accepts
which request is scheduling nondeterminism — both are exactly the things a
record/replay system must capture.

Responses ``send``-ed on a connection are captured per connection so
workload validators can check them, and so replay fidelity is observable
end to end.

Snapshots are copy-on-write: the network keeps each connection's frozen
form from the last snapshot and the fds touched since, so a snapshot
re-freezes the touched connections only — its cost follows what the
epoch did, not how many connections the run has accepted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import SyscallError
from repro.obs import metrics as obs_metrics


@dataclass(frozen=True)
class Arrival:
    """One inbound request: available at ``time`` with ``payload`` words."""

    time: int
    payload: Tuple[int, ...]


@dataclass
class _Connection:
    payload: List[int]
    cursor: int
    responses: List[int]


class SimNetwork:
    """A single listening socket with scheduled arrivals."""

    def __init__(self, arrivals: List[Arrival]):
        self._arrivals = sorted(arrivals, key=lambda arrival: arrival.time)
        self._next_arrival = 0
        self._backlog: List[Tuple[int, ...]] = []
        self._listening = False
        self._connections: Dict[int, _Connection] = {}
        #: fd → frozen ``(payload, cursor, responses)`` as of the last
        #: snapshot or restore, in ``_connections`` order
        self._frozen: Dict[int, Tuple] = {}
        #: fds accepted, read or written since then, in first-touch order
        #: (a dict as an ordered set: a new connection joins ``_frozen``
        #: where ``_connections`` has it — the order ``restore`` rebuilds
        #: and ``all_responses()`` then reports)
        self._touched: Dict[int, None] = {}
        self._next_conn_fd = 1000
        #: tids blocked in accept, FIFO
        self.accept_waiters: List[int] = []

    # ------------------------------------------------------------------
    # Time-driven arrival processing
    # ------------------------------------------------------------------
    def next_arrival_time(self) -> Optional[int]:
        if self._next_arrival < len(self._arrivals):
            return self._arrivals[self._next_arrival].time
        return None

    def admit_arrivals(self, now: int) -> int:
        """Move every arrival due by ``now`` into the backlog; returns count."""
        admitted = 0
        while (
            self._next_arrival < len(self._arrivals)
            and self._arrivals[self._next_arrival].time <= now
        ):
            self._backlog.append(self._arrivals[self._next_arrival].payload)
            self._next_arrival += 1
            admitted += 1
        return admitted

    def backlog_size(self) -> int:
        return len(self._backlog)

    # ------------------------------------------------------------------
    # Socket operations
    # ------------------------------------------------------------------
    def listen(self) -> int:
        self._listening = True
        return 999  # the single listening socket's fd

    def try_accept(self) -> Optional[int]:
        """Pop one backlog request into a fresh connection; None if empty."""
        if not self._listening:
            raise SyscallError("accept before listen")
        if not self._backlog:
            return None
        payload = self._backlog.pop(0)
        fd = self._next_conn_fd
        self._next_conn_fd += 1
        self._connections[fd] = _Connection(
            payload=list(payload), cursor=0, responses=[]
        )
        self._touched[fd] = None
        return fd

    def recv(self, fd: int, maxlen: int) -> List[int]:
        conn = self._connections.get(fd)
        if conn is None:
            raise SyscallError(f"recv on unknown connection fd {fd}")
        chunk = conn.payload[conn.cursor : conn.cursor + maxlen]
        conn.cursor += len(chunk)
        self._touched[fd] = None
        return chunk

    def send(self, fd: int, words: List[int]) -> int:
        conn = self._connections.get(fd)
        if conn is None:
            raise SyscallError(f"send on unknown connection fd {fd}")
        conn.responses.extend(words)
        self._touched[fd] = None
        return len(words)

    def all_responses(self) -> Dict[int, List[int]]:
        """connection fd → captured response words (for validators)."""
        return {fd: list(conn.responses) for fd, conn in self._connections.items()}

    def all_conversations(self) -> Dict[int, Tuple[List[int], List[int]]]:
        """connection fd → (request payload, response words)."""
        return {
            fd: (list(conn.payload), list(conn.responses))
            for fd, conn in self._connections.items()
        }

    def pending_requests(self) -> int:
        """Requests not yet admitted plus backlog (used by adaptive epochs)."""
        return len(self._arrivals) - self._next_arrival + len(self._backlog)

    # ------------------------------------------------------------------
    # Snapshot
    # ------------------------------------------------------------------
    def snapshot(self) -> Tuple:
        """The network's state as plain immutable data.

        Value-equal to a full copy, never aliased to live state, and
        O(connections touched since the last snapshot or restore).
        """
        frozen = self._frozen
        words = 0
        for fd in self._touched:
            conn = self._connections[fd]
            frozen[fd] = (tuple(conn.payload), conn.cursor, tuple(conn.responses))
            words += len(conn.payload) + len(conn.responses)
        self._touched.clear()
        obs_metrics.process_stats().add("work.snapshot_words", words)
        return (
            self._next_arrival,
            tuple(tuple(payload) for payload in self._backlog),
            self._listening,
            dict(frozen),
            self._next_conn_fd,
            tuple(self.accept_waiters),
        )

    def restore(self, state: Tuple) -> None:
        (
            self._next_arrival,
            backlog,
            self._listening,
            connections,
            self._next_conn_fd,
            accept_waiters,
        ) = state
        self._backlog = [tuple(payload) for payload in backlog]
        self._connections = {
            fd: _Connection(payload=list(payload), cursor=cursor, responses=list(responses))
            for fd, (payload, cursor, responses) in connections.items()
        }
        self._frozen = dict(connections)
        self._touched.clear()
        self.accept_waiters = list(accept_waiters)
