"""Kernel-mediated synchronisation: mutexes, condition variables,
semaphores, barriers.

Synchronisation objects live at guest addresses but their state (owner,
wait queues) is kernel-side, mirroring futex-based pthreads. Two features
matter specifically to DoublePlay:

* An optional *acquisition oracle* can constrain the order in which
  mutexes and semaphores are granted. The epoch-parallel execution installs
  an oracle built from the thread-parallel run's logged acquisition order
  (the paper's synchronisation hints), which makes race-free programs
  deterministic across the two runs and reduces divergence for racy ones.
* An optional *acquisition listener* observes every successful grant; the
  thread-parallel recorder uses it to produce those hints, and the
  happens-before race detector uses it for its sync order.

All methods return the tids whose pending operation was completed by the
call ("grants"); the execution engine unblocks them. The manager never
touches thread contexts itself.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import GuestFault, SimulationError
from repro.memory.hashing import hash_structure


class _Lock:
    __slots__ = ("owner", "waiters")

    def __init__(self) -> None:
        self.owner: Optional[int] = None
        self.waiters: List[int] = []


class _Cond:
    __slots__ = ("waiters",)

    def __init__(self) -> None:
        #: (tid, mutex addr) in wait order
        self.waiters: List[Tuple[int, int]] = []


class _Sem:
    __slots__ = ("value", "waiters")

    def __init__(self, value: int = 0) -> None:
        self.value = value
        self.waiters: List[int] = []


class _Barrier:
    __slots__ = ("count", "arrived", "generation")

    def __init__(self) -> None:
        self.count: Optional[int] = None
        self.arrived: List[int] = []
        self.generation = 0


class AcquisitionOracle:
    """Interface for hint-driven grant ordering (duck-typed; see
    :class:`repro.record.sync_log.SyncOrderOracle`)."""

    def may_acquire(self, addr: int, tid: int) -> bool:  # pragma: no cover
        raise NotImplementedError

    def next_turn(self, addr: int) -> Optional[int]:  # pragma: no cover
        raise NotImplementedError

    def consume(self, addr: int, tid: int) -> None:  # pragma: no cover
        raise NotImplementedError


class SyncManager:
    """State and policy for every synchronisation object of one execution."""

    def __init__(self) -> None:
        self._locks: Dict[int, _Lock] = {}
        self._conds: Dict[int, _Cond] = {}
        self._sems: Dict[int, _Sem] = {}
        self._barriers: Dict[int, _Barrier] = {}
        #: tids parked because the oracle says it is not their turn yet
        self._deferred: Dict[int, List[int]] = {}
        self.oracle: Optional[AcquisitionOracle] = None
        #: called with (kind, addr, tid) on every successful acquisition
        self.acquisition_listener: Optional[Callable[[str, int, int], None]] = None

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _lock(self, addr: int) -> _Lock:
        lock = self._locks.get(addr)
        if lock is None:
            lock = self._locks[addr] = _Lock()
        return lock

    def _record(self, kind: str, addr: int, tid: int) -> None:
        if self.oracle is not None:
            self.oracle.consume(addr, tid)
        if self.acquisition_listener is not None:
            self.acquisition_listener(kind, addr, tid)

    def _grant_lock(self, addr: int, lock: _Lock) -> List[int]:
        """Grant a free lock to whichever thread may take it; returns grants.

        With an oracle, grants strictly follow the recorded order; an
        *exhausted* order (no further events for this address) means the
        recorded execution granted nothing more here, so nobody is granted
        — the lock stays free. FIFO applies only when no oracle is
        installed (live executions).
        """
        grants: List[int] = []
        if lock.owner is not None:
            return grants
        candidate: Optional[int] = None
        if self.oracle is not None:
            turn = self.oracle.next_turn(addr)
            if turn is not None:
                deferred = self._deferred.get(addr, [])
                if turn in deferred:
                    deferred.remove(turn)
                    candidate = turn
                elif turn in lock.waiters:
                    lock.waiters.remove(turn)
                    candidate = turn
                # else: the thread whose turn it is has not asked yet;
                # leave the lock free for it.
        elif lock.waiters:
            candidate = lock.waiters.pop(0)
        if candidate is not None:
            lock.owner = candidate
            self._record("lock", addr, candidate)
            grants.append(candidate)
        return grants

    # ------------------------------------------------------------------
    # Mutexes
    # ------------------------------------------------------------------
    def acquire(self, tid: int, addr: int) -> bool:
        """Try to take the mutex; True if acquired, False if the caller
        must block (it has been queued)."""
        lock = self._lock(addr)
        if lock.owner == tid:
            raise GuestFault(f"thread {tid} re-locking mutex {addr} it already holds", tid)
        if self.oracle is not None and not self.oracle.may_acquire(addr, tid):
            self._deferred.setdefault(addr, []).append(tid)
            return False
        if lock.owner is None:
            lock.owner = tid
            self._record("lock", addr, tid)
            return True
        lock.waiters.append(tid)
        return False

    def release(self, tid: int, addr: int) -> List[int]:
        """Release the mutex; returns tids granted as a consequence."""
        lock = self._locks.get(addr)
        if lock is None or lock.owner != tid:
            raise GuestFault(f"thread {tid} unlocking mutex {addr} it does not hold", tid)
        lock.owner = None
        return self._grant_lock(addr, lock)

    def holds(self, tid: int, addr: int) -> bool:
        lock = self._locks.get(addr)
        return lock is not None and lock.owner == tid

    # ------------------------------------------------------------------
    # Condition variables
    # ------------------------------------------------------------------
    def cond_wait(self, tid: int, cond_addr: int, mutex_addr: int) -> List[int]:
        """Atomically release the mutex and park on the condition.

        Returns grants caused by the mutex release. The caller always
        blocks (condition waits have no fast path).
        """
        if not self.holds(tid, mutex_addr):
            raise GuestFault(
                f"thread {tid} cond-waiting without holding mutex {mutex_addr}", tid
            )
        cond = self._conds.setdefault(cond_addr, _Cond())
        cond.waiters.append((tid, mutex_addr))
        return self.release(tid, mutex_addr)

    def _requeue_cond_waiter(self, tid: int, mutex_addr: int) -> List[int]:
        """A signalled waiter must reacquire its mutex before returning."""
        lock = self._lock(mutex_addr)
        if self.oracle is not None and not self.oracle.may_acquire(mutex_addr, tid):
            self._deferred.setdefault(mutex_addr, []).append(tid)
            return []
        if lock.owner is None:
            lock.owner = tid
            self._record("lock", mutex_addr, tid)
            return [tid]
        lock.waiters.append(tid)
        return []

    def cond_signal(self, cond_addr: int) -> List[int]:
        """Wake one waiter; returns tids whose wait fully completed
        (i.e. they also reacquired their mutex).

        The *choice* of waiter is a grant decision like a lock handoff:
        it is oracle-guided when hints are installed, and always recorded
        (kind ``cond``) so replay can pin the same choice even when the
        wait queue's order differs at an epoch boundary.
        """
        cond = self._conds.get(cond_addr)
        if cond is None or not cond.waiters:
            return []
        chosen = cond.waiters[0]
        if self.oracle is not None:
            turn = self.oracle.next_turn(cond_addr)
            if turn is not None:
                for pair in cond.waiters:
                    if pair[0] == turn:
                        chosen = pair
                        break
        cond.waiters.remove(chosen)
        tid, mutex_addr = chosen
        self._record("cond", cond_addr, tid)
        return self._requeue_cond_waiter(tid, mutex_addr)

    def cond_broadcast(self, cond_addr: int) -> List[int]:
        """Wake every waiter; returns tids whose wait fully completed."""
        cond = self._conds.get(cond_addr)
        if cond is None:
            return []
        waiters, cond.waiters = cond.waiters, []
        grants: List[int] = []
        for tid, mutex_addr in waiters:
            grants.extend(self._requeue_cond_waiter(tid, mutex_addr))
        return grants

    # ------------------------------------------------------------------
    # Semaphores
    # ------------------------------------------------------------------
    def sem_init(self, addr: int, value: int) -> None:
        if value < 0:
            raise GuestFault(f"semaphore {addr} initialised to negative {value}")
        self._sems[addr] = _Sem(value)

    def sem_wait(self, tid: int, addr: int) -> bool:
        """P(); True if taken immediately, False if the caller must block."""
        sem = self._sems.setdefault(addr, _Sem(0))
        if self.oracle is not None and sem.value > 0:
            if not self.oracle.may_acquire(addr, tid):
                self._deferred.setdefault(addr, []).append(tid)
                return False
        if sem.value > 0:
            sem.value -= 1
            self._record("sem", addr, tid)
            return True
        sem.waiters.append(tid)
        return False

    def sem_post(self, addr: int) -> List[int]:
        """V(); returns the tid granted, if any waiter was pending.

        Oracle semantics mirror :meth:`_grant_lock`: grants follow the
        recorded order exactly, and an exhausted order banks the value
        instead of granting (the recorded execution granted nothing more).
        """
        sem = self._sems.setdefault(addr, _Sem(0))
        candidate: Optional[int] = None
        if self.oracle is not None:
            turn = self.oracle.next_turn(addr)
            deferred = self._deferred.get(addr, [])
            if turn is not None and turn in deferred:
                deferred.remove(turn)
                candidate = turn
            elif turn is not None and turn in sem.waiters:
                sem.waiters.remove(turn)
                candidate = turn
            # else: hold the value for the hinted thread (or bank it when
            # the order is exhausted)
        elif sem.waiters:
            candidate = sem.waiters.pop(0)
        if candidate is None:
            sem.value += 1
            # A deferred thread may now be eligible (its turn plus value>0).
            return self._drain_deferred_sem(addr, sem)
        self._record("sem", addr, candidate)
        return [candidate]

    def _drain_deferred_sem(self, addr: int, sem: _Sem) -> List[int]:
        grants: List[int] = []
        deferred = self._deferred.get(addr)
        while deferred and sem.value > 0 and self.oracle is not None:
            turn = self.oracle.next_turn(addr)
            if turn is not None and turn in deferred:
                deferred.remove(turn)
                sem.value -= 1
                self._record("sem", addr, turn)
                grants.append(turn)
            else:
                break
        return grants

    def sem_drain(self, addr: int) -> List[int]:
        """Grant hint-deferred P()s whose turn has arrived.

        Must be called after every successful ``sem_wait`` take: the take
        advances the per-address order, which can make an
        already-deferred thread the next acquirer — with tokens still
        banked, nothing else would ever wake it.
        """
        sem = self._sems.get(addr)
        if sem is None:
            return []
        return self._drain_deferred_sem(addr, sem)

    # ------------------------------------------------------------------
    # Atomic read-modify-write ordering
    # ------------------------------------------------------------------
    # Atomics are synchronisation at the ISA level (DoublePlay instruments
    # them in libc): their cross-thread order per address is recorded as
    # acquisition events and enforced by the oracle, otherwise two
    # fetch-adds on a counter would be an undetectable source of epoch
    # divergence in perfectly disciplined programs.

    def atomic_enter(self, tid: int, addr: int) -> bool:
        """May this thread perform its atomic op now? False = deferred.

        An exhausted order defers too: the recorded execution performed no
        further atomics on this address, so performing one here would be a
        divergence — the deferral surfaces it as a stall.
        """
        if self.oracle is None or self.oracle.next_turn(addr) == tid:
            return True
        self._deferred.setdefault(addr, []).append(tid)
        return False

    def atomic_done(self, tid: int, addr: int) -> List[int]:
        """Record the atomic's turn; returns deferred tids now eligible."""
        self._record("atomic", addr, tid)
        wakes: List[int] = []
        deferred = self._deferred.get(addr)
        if deferred and self.oracle is not None:
            turn = self.oracle.next_turn(addr)
            if turn is not None and turn in deferred:
                deferred.remove(turn)
                wakes.append(turn)
        return wakes

    # ------------------------------------------------------------------
    # Barriers
    # ------------------------------------------------------------------
    def barrier_arrive(self, tid: int, addr: int, count: int) -> List[int]:
        """Arrive at the barrier; when full, returns every released tid
        (including the caller). An empty list means the caller blocks."""
        if count <= 0:
            raise GuestFault(f"barrier {addr} with non-positive count {count}", tid)
        barrier = self._barriers.setdefault(addr, _Barrier())
        if barrier.count is None:
            barrier.count = count
        elif barrier.count != count:
            raise GuestFault(
                f"barrier {addr} used with count {count} but earlier count {barrier.count}",
                tid,
            )
        barrier.arrived.append(tid)
        if len(barrier.arrived) < barrier.count:
            return []
        released, barrier.arrived = barrier.arrived, []
        barrier.generation += 1
        barrier.count = None
        return released

    # ------------------------------------------------------------------
    # Snapshot / comparison
    # ------------------------------------------------------------------
    def has_deferred(self) -> bool:
        return any(self._deferred.values())

    def snapshot(self, merge_deferred: bool = False) -> Tuple:
        """Exact state (queue orders included) for checkpoint/restore.

        Live executions never have hint-deferred threads (no oracle), so
        the default refuses them — a deferred thread in a *recording*
        checkpoint would be a bug. ``Replayer.materialize_checkpoints``,
        which only the end-to-end benchmark still calls, passes
        ``merge_deferred``:
        lock/semaphore deferrals fold into the wait queues (semantically
        the thread is waiting; grant order is oracle-pinned anyway), and
        atomic deferrals are dropped — the thread's own blocked marker
        re-issues the op on resume.
        """
        if self.has_deferred() and not merge_deferred:
            raise SimulationError(
                "cannot checkpoint a sync manager with hint-deferred threads"
            )
        lock_extra: Dict[int, List[int]] = {}
        sem_extra: Dict[int, List[int]] = {}
        if merge_deferred:
            for addr, tids in self._deferred.items():
                if not tids:
                    continue
                if addr in self._locks:
                    lock_extra[addr] = list(tids)
                elif addr in self._sems:
                    sem_extra[addr] = list(tids)
                # else: atomic deferral; context markers carry it
        return (
            {
                a: (l.owner, tuple(l.waiters + lock_extra.get(a, [])))
                for a, l in self._locks.items()
            },
            {a: tuple(c.waiters) for a, c in self._conds.items()},
            {
                a: (s.value, tuple(s.waiters + sem_extra.get(a, [])))
                for a, s in self._sems.items()
            },
            {a: (b.count, tuple(b.arrived), b.generation) for a, b in self._barriers.items()},
        )

    def restore(self, state: Tuple) -> None:
        locks, conds, sems, barriers = state
        self._locks = {}
        for addr, (owner, waiters) in locks.items():
            lock = _Lock()
            lock.owner = owner
            lock.waiters = list(waiters)
            self._locks[addr] = lock
        self._conds = {}
        for addr, waiters in conds.items():
            cond = _Cond()
            cond.waiters = [tuple(w) for w in waiters]
            self._conds[addr] = cond
        self._sems = {}
        for addr, (value, waiters) in sems.items():
            sem = _Sem(value)
            sem.waiters = list(waiters)
            self._sems[addr] = sem
        self._barriers = {}
        for addr, (count, arrived, generation) in barriers.items():
            barrier = _Barrier()
            barrier.count = count
            barrier.arrived = list(arrived)
            barrier.generation = generation
            self._barriers[addr] = barrier
        self._deferred = {}

    def semantic_digest(self) -> int:
        """Hash of the *semantic* sync state: owners, values, waiter sets.

        Queue order is excluded deliberately — it is scheduling state, not
        program state, and legitimately differs between the thread-parallel
        and epoch-parallel executions of the same program (see
        ``repro.core.divergence``).
        """
        state = (
            {
                a: (l.owner, tuple(sorted(l.waiters)))
                for a, l in self._locks.items()
                if l.owner is not None or l.waiters
            },
            {
                a: tuple(sorted(c.waiters))
                for a, c in self._conds.items()
                if c.waiters
            },
            {
                a: (s.value, tuple(sorted(s.waiters)))
                for a, s in self._sems.items()
                if s.value or s.waiters
            },
            {
                a: (b.count, tuple(sorted(b.arrived)), b.generation)
                for a, b in self._barriers.items()
                if b.arrived or b.generation
            },
        )
        return hash_structure(state)
