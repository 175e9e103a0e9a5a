"""DurableQ: the only stateful, sharded component (§4.3).

A DurableQ persists function calls until completion.  Per function it
keeps a queue ordered by the call's *execution start time* (which the
caller may set in the future).  Schedulers poll for calls whose start
time has passed; once a call is offered to one scheduler it is *leased*
and not offered to another unless the lease expires or the scheduler
NACKs.  ACK deletes the call permanently; NACK or lease expiry makes it
available again — at-least-once semantics.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..sim.kernel import Simulator
from ..util import add_slots
from .call import CallState, FunctionCall


@add_slots
@dataclass
class _Lease:
    call: FunctionCall
    scheduler_id: str
    expires_at: float


class DurableQ:
    """One shard of the durable queue in one region."""

    def __init__(self, sim: Simulator, name: str, region: str,
                 lease_timeout_s: float = 120.0,
                 sweep_interval_s: float = 30.0,
                 jitter_stream: Optional[str] = None) -> None:
        if lease_timeout_s <= 0:
            raise ValueError("lease_timeout_s must be positive")
        self.sim = sim
        self.name = name
        self.region = region
        self.lease_timeout_s = lease_timeout_s
        # Sanitized runs mirror simlint's SL014 lease FSM at runtime;
        # a plain run pays one None-check per protocol event.
        sanitizer = sim.sanitizer
        self._lease_guard = (
            sanitizer.lease_guard if sanitizer is not None else None)
        #: function name → min-heap of (start_time, call_id, call)
        self._queues: Dict[str, List[Tuple[float, int, FunctionCall]]] = {}
        self._leases: Dict[int, _Lease] = {}
        #: round-robin rotation over function names for fair polling,
        #: with a membership set so a name pruned while its queue was
        #: momentarily empty is re-registered on the next enqueue.
        self._rr_names: List[str] = []
        self._rr_member: set = set()
        self._rr_idx = 0
        self.enqueued_count = 0
        self.acked_count = 0
        self.nacked_count = 0
        self.expired_lease_count = 0
        # parsim passes a queue-qualified jitter stream so the sweep's
        # draw sequence is independent of shard grouping; the default
        # shares the kernel-wide "periodic-jitter" stream (legacy).
        self._sweep_task = sim.every(
            sweep_interval_s, self._sweep_leases,
            jitter=sweep_interval_s * 0.1,
            **({"rng_stream": jitter_stream} if jitter_stream else {}))

    # ------------------------------------------------------------------
    def enqueue(self, call: FunctionCall) -> None:
        """Persist a call (write from a submitter via QueueLB)."""
        call.mark_queued(self.region)
        name = call.function_name
        self._register_name(name)
        heapq.heappush(self._queues[name],
                       (call.start_time, call.call_id, call))
        self.enqueued_count += 1

    def _register_name(self, name: str) -> None:
        if name not in self._queues:
            self._queues[name] = []
        if name not in self._rr_member:
            self._rr_member.add(name)
            self._rr_names.append(name)

    # ------------------------------------------------------------------
    def poll(self, scheduler_id: str, max_items: int,
             skip=frozenset()) -> List[FunctionCall]:
        """Lease up to ``max_items`` ready calls, fair across functions.

        ``skip`` names functions the scheduler will not accept right now
        (its per-function buffer is full); their calls stay queued here
        without blocking other functions — the flow-control granularity
        §4.4 implies with per-function FuncBuffers.
        """
        if max_items <= 0:
            return []
        now = self.sim._now
        leased: List[FunctionCall] = []
        if not self._rr_names:
            return leased
        # Schedulers poll every tick and most visited names hold nothing
        # ready, so the rotation scan is this class's hottest loop — run
        # it on locals (the name list cannot change mid-poll; only
        # enqueue/nack/sweep register names).
        rr_names = self._rr_names
        queues_get = self._queues.get
        leases = self._leases
        guard = self._lease_guard
        heappop = heapq.heappop
        expires_at = now + self.lease_timeout_s
        n_leased = 0
        idx = self._rr_idx
        attempts = 0
        n_names = len(rr_names)
        while n_leased < max_items and attempts < n_names:
            name = rr_names[idx % n_names]
            idx += 1
            attempts += 1
            if name in skip:
                continue
            queue = queues_get(name)
            took_any = False
            while queue and n_leased < max_items:
                start_time, _, call = queue[0]
                if start_time > now:
                    break
                heappop(queue)
                call.mark_buffered()
                if guard is not None:
                    guard.on_lease(self.name, call.call_id)
                leases[call.call_id] = _Lease(
                    call=call, scheduler_id=scheduler_id,
                    expires_at=expires_at)
                leased.append(call)
                n_leased += 1
                took_any = True
            if took_any:
                # Reset the per-name attempt budget: fairness across
                # names is preserved by the rotating cursor.
                attempts = 0
        self._rr_idx = idx
        self._gc_names()
        return leased

    def extend_lease(self, call_id: int) -> None:
        """Keep a long-running call leased (scheduler heartbeats)."""
        if self._lease_guard is not None:
            self._lease_guard.on_extend(self.name, call_id)
        lease = self._leases.get(call_id)
        if lease is not None:
            lease.expires_at = self.sim.now + self.lease_timeout_s

    def ack(self, call: FunctionCall) -> None:
        """Function executed successfully: remove permanently."""
        if self._lease_guard is not None:
            self._lease_guard.on_ack(self.name, call.call_id)
        if self._leases.pop(call.call_id, None) is not None:
            self.acked_count += 1

    def nack(self, call: FunctionCall, retry_delay_s: float = 0.0) -> None:
        """Execution failed: make the call available again (§4.3)."""
        if self._lease_guard is not None:
            self._lease_guard.on_nack(self.name, call.call_id)
        lease = self._leases.pop(call.call_id, None)
        if lease is None:
            return
        self.nacked_count += 1
        call.attempts += 1
        call.state = CallState.QUEUED
        # Redelivery after the retry delay: model by shifting the ready
        # time, preserving the original deadline.
        ready_at = self.sim.now + retry_delay_s
        name = call.function_name
        self._register_name(name)
        heapq.heappush(self._queues[name], (ready_at, call.call_id, call))

    # ------------------------------------------------------------------
    # By-id variants for remote (cross-shard) schedulers, which hold a
    # serialized copy of the call — the authoritative object lives in
    # this queue's lease table (repro.parsim message handlers).
    # ------------------------------------------------------------------
    def ack_by_id(self, call_id: int) -> Optional[FunctionCall]:
        """ACK a leased call identified only by its id.

        Returns the acked call (or None when no lease matched) so the
        caller can count it retired — in parallel mode the owning
        shard's record becomes garbage the moment the executing shard's
        ACK lands.
        """
        if self._lease_guard is not None:
            self._lease_guard.on_ack(self.name, call_id)
        lease = self._leases.pop(call_id, None)
        if lease is None:
            return None
        self.acked_count += 1
        return lease.call

    def nack_by_id(self, call_id: int, retry_delay_s: float = 0.0) -> None:
        """NACK a leased call identified only by its id."""
        lease = self._leases.get(call_id)
        if lease is not None:
            self.nack(lease.call, retry_delay_s)

    # ------------------------------------------------------------------
    def _sweep_leases(self) -> None:
        """Expire stale leases so another scheduler can retry (§4.3)."""
        now = self.sim.now
        expired = [lease for lease in self._leases.values()
                   if lease.expires_at <= now]
        for lease in expired:
            if self._lease_guard is not None:
                self._lease_guard.on_expire(self.name, lease.call.call_id)
            self._leases.pop(lease.call.call_id, None)
            self.expired_lease_count += 1
            call = lease.call
            call.state = CallState.QUEUED
            self._register_name(call.function_name)
            heapq.heappush(self._queues[call.function_name],
                           (now, call.call_id, call))

    def _gc_names(self) -> None:
        if len(self._rr_names) > 64 and self._rr_idx > 4 * len(self._rr_names):
            self._rr_names = [n for n in self._rr_names if self._queues.get(n)]
            self._rr_member = set(self._rr_names)
            self._rr_idx = 0

    # ------------------------------------------------------------------
    @property
    def pending_count(self) -> int:
        """Calls persisted and not currently leased."""
        return sum(len(q) for q in self._queues.values())

    def ready_count(self, now: Optional[float] = None) -> int:
        """Pending calls whose start time has passed."""
        now = self.sim.now if now is None else now
        return sum(1 for q in self._queues.values()
                   for start, _, _ in q if start <= now)

    @property
    def leased_count(self) -> int:
        return len(self._leases)

    def stop(self) -> None:
        self._sweep_task.cancel()
