"""Function-call records and lifecycle state.

A :class:`FunctionCall` is created at submission and carries its
lifecycle timestamps through the pipeline of Figure 6: submitter →
QueueLB → DurableQ → scheduler (FuncBuffer → RunQ) → WorkerLB → worker.

It is a plain ``__slots__`` object: nothing in the platform keeps a call
past its terminal transition (the trace log snapshots a tuple at log
time), so refcounting frees each finished call at once and call memory
stays O(in-flight) — while a caller that does keep one (the return value
of ``XFaaS.submit``) can still read it after it completes.
"""

from __future__ import annotations

import enum
from typing import Dict, Optional, Tuple

from ..workloads.spec import FunctionSpec

__all__ = ["CallIdAllocator", "CallLedger", "CallState", "CallOutcome",
           "FunctionCall"]


class CallIdAllocator:
    """Deterministic per-owner source of call ids (1, 2, 3, ...).

    Ids must depend only on the run that allocates them, never on how
    many simulations the process ran before (simlint SL001 — the PR 2
    ``core/platform.py`` bug), so the counter lives on the owning
    object (platform, pool, test harness), not at module level.
    """

    __slots__ = ("_next",)

    def __init__(self, start: int = 1) -> None:
        self._next = start

    def allocate(self) -> int:
        n = self._next
        self._next += 1
        return n


class CallState(enum.Enum):
    """Where a call currently is in the Figure 6 pipeline."""

    SUBMITTED = "submitted"
    QUEUED = "queued"          # persisted in a DurableQ
    BUFFERED = "buffered"      # leased into a scheduler FuncBuffer
    RUNNABLE = "runnable"      # in the RunQ
    RUNNING = "running"        # executing on a worker
    COMPLETED = "completed"
    FAILED = "failed"
    THROTTLED = "throttled"    # rejected at submission by rate limiting
    EXPIRED = "expired"


class CallOutcome(enum.Enum):
    """Terminal result of one execution attempt."""

    OK = "ok"
    ERROR = "error"
    BACKPRESSURE = "backpressure"
    WORKER_FULL = "worker_full"
    ISOLATION_DENIED = "isolation_denied"


_QUEUED = CallState.QUEUED
_BUFFERED = CallState.BUFFERED
_RUNNABLE = CallState.RUNNABLE
_RUNNING = CallState.RUNNING


class CallLedger:
    """Counts of the call records one platform created and terminalized.

    Calls are plain objects freed by refcounting, so nothing is stored
    per call; these tallies are what ``profile --alloc`` reports.
    """

    __slots__ = ("created", "terminalized", "peak_live")

    def __init__(self) -> None:
        self.created = 0
        self.terminalized = 0
        #: Most calls alive at once (created, not yet terminalized).
        self.peak_live = 0

    @property
    def live(self) -> int:
        return self.created - self.terminalized

    def note_created(self) -> None:
        self.created += 1
        live = self.created - self.terminalized
        if live > self.peak_live:
            self.peak_live = live

    def note_terminalized(self) -> None:
        self.terminalized += 1

    def to_json(self) -> Dict[str, int]:
        return {"created": self.created, "terminalized": self.terminalized,
                "live_at_end": self.live, "peak_live": self.peak_live}


class FunctionCall:
    """One invocation travelling through the platform."""

    __slots__ = ("spec", "submit_time", "start_time", "region_submitted",
                 "source_level", "args_size_kb", "call_id", "state",
                 "attempts", "durableq_region", "scheduler_region",
                 "dispatch_time", "finish_time", "worker_name", "outcome",
                 "resources", "args_spilled", "_sort_key")

    def __init__(self, spec: FunctionSpec, submit_time: float,
                 start_time: float, region_submitted: str,
                 source_level: int = 0, args_size_kb: float = 4.0,
                 call_id: int = 0, state: CallState = CallState.SUBMITTED,
                 attempts: int = 0,
                 durableq_region: Optional[str] = None,
                 scheduler_region: Optional[str] = None,
                 dispatch_time: Optional[float] = None,
                 finish_time: Optional[float] = None,
                 worker_name: Optional[str] = None,
                 outcome: Optional[CallOutcome] = None,
                 resources: Optional[Tuple[float, float, float]] = None,
                 args_spilled: bool = False) -> None:
        if start_time < submit_time:
            raise ValueError(
                f"start_time {start_time} precedes submit_time "
                f"{submit_time}")
        if args_size_kb < 0:
            raise ValueError("args_size_kb must be >= 0")
        self.spec = spec
        self.submit_time = submit_time
        #: Caller-requested execution start time (§4.6: may be the future).
        self.start_time = start_time
        self.region_submitted = region_submitted
        #: Bell–LaPadula classification level of the call's arguments
        #: (§4.7).
        self.source_level = source_level
        self.args_size_kb = args_size_kb
        #: Assigned by the owner's :class:`CallIdAllocator`; 0 = unassigned.
        self.call_id = call_id
        self.state = state
        self.attempts = attempts
        # Filled in as the call progresses.
        self.durableq_region = durableq_region
        self.scheduler_region = scheduler_region
        self.dispatch_time = dispatch_time
        self.finish_time = finish_time
        self.worker_name = worker_name
        self.outcome = outcome
        #: Sampled per-invocation resources (cpu_minstr, memory_mb,
        #: exec_s); sampled once at first dispatch so retries replay the
        #: same demand.
        self.resources = resources
        #: True when the submitter spilled oversized args to the KV store.
        self.args_spilled = args_spilled
        #: Memoized :meth:`sort_key` — every buffer/RunQ (re)insertion
        #: keys on it, and all of its inputs are fixed at submission.
        self._sort_key = None

    # -- derived -------------------------------------------------------
    @property
    def function_name(self) -> str:
        return self.spec.name

    @property
    def deadline_time(self) -> float:
        """Absolute completion deadline (§2.4): start time + deadline."""
        return self.start_time + self.spec.deadline_s

    @property
    def criticality(self) -> int:
        return int(self.spec.criticality)

    def is_ready(self, now: float) -> bool:
        """Past its requested execution start time."""
        return now >= self.start_time

    def sort_key(self) -> Tuple[float, float, int]:
        """FuncBuffer order (§4.4): criticality first, then deadline.

        Returns a tuple for a *min*-heap: higher criticality and earlier
        deadline come first; call id breaks ties deterministically.
        """
        key = self._sort_key
        if key is None:
            spec = self.spec
            key = (-int(spec.criticality),
                   self.start_time + spec.deadline_s, self.call_id)
            if self.call_id:
                # Only memoize once the allocator has assigned an id.
                self._sort_key = key
        return key

    # -- lifecycle transitions -----------------------------------------
    # Named transitions for the dispatch/completion path; each is the
    # plain attribute writes it names.

    def mark_buffered(self) -> None:
        """State := BUFFERED (leased into a scheduler FuncBuffer)."""
        self.state = _BUFFERED

    def mark_runnable(self) -> None:
        """State := RUNNABLE (parked in the RunQ)."""
        self.state = _RUNNABLE

    def mark_running(self) -> None:
        """State := RUNNING (handed to the WorkerLB for placement)."""
        self.state = _RUNNING

    def mark_dispatched(self, worker_name: str, now: float) -> None:
        """Worker pickup: record the worker and the *first* dispatch time.

        Retries keep the original dispatch time (queueing delay is
        measured to first pickup).
        """
        self.worker_name = worker_name
        if self.dispatch_time is None:
            self.dispatch_time = now

    def mark_queued(self, region: str) -> None:
        """DurableQ persist: QUEUED state plus the owning queue region."""
        self.state = _QUEUED
        self.durableq_region = region

    def terminalize(self, outcome: CallOutcome, state: CallState,
                    now: float) -> None:
        """Terminal transition: outcome, final state, finish time.

        The finish time is only stamped when still unset — workers
        record completion times themselves; this backfills expiries and
        failures that never reached a worker.
        """
        self.outcome = outcome
        self.state = state
        if self.finish_time is None:
            self.finish_time = now

    def trace_snapshot(self, outcome_name: str) -> tuple:
        """The 17-field ``CallTrace`` constructor tuple.

        ``TraceLog.add_call`` snapshots finished calls through this, so
        the trace log never keeps the call object alive.
        """
        spec = self.spec
        resources = self.resources or (0.0, 0.0, 0.0)
        dispatch = self.dispatch_time
        finish = self.finish_time
        return (self.call_id, spec.name, spec.trigger.value,
                int(spec.criticality), spec.quota_type.value,
                self.submit_time, self.start_time,
                -1.0 if dispatch is None else dispatch,
                -1.0 if finish is None else finish,
                self.region_submitted, self.scheduler_region or "",
                self.worker_name or "", outcome_name,
                resources[0], resources[1], resources[2],
                self.attempts + 1)

    def __repr__(self) -> str:
        return (f"FunctionCall(id={self.call_id}, "
                f"function={self.spec.name!r}, state={self.state.name})")
