"""The benchmark's own span recorder for the traced run.

:meth:`Recorder.install` wraps each layer's public entry points at
class level.  It must run before the platform is built, because
components bind methods (``worker.on_finish = scheduler.on_call_finished``,
``sim.every(..., self.tick)``) at construction time.

Spans are kept in flat in-memory columns (name, start, end, parent,
event, call) and written out at the end; self times are computed from
those columns.  A span's self time is its duration minus the time its
child spans cover; time covered by no span at all is the kernel's
(``sim``).  Accept and deny counts are read from the entry points'
return values.

Kernel events are counted by wrapping the callbacks handed to
``Simulator.call_at``/``call_after``.  An event whose callback belongs
to a layer without a public entry point for it (the arrival generator's
ticks and arrivals, the sampler hub's firings, a worker's completion,
a DurableQ's lease sweep) gets a span named after that layer; the owner
is read from the callback itself (``__self__`` or ``__qualname__``).

This module deliberately does not use ``repro.profile``.
"""

from __future__ import annotations

import json
import time
from array import array
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro import DownstreamService, FunctionCall, Simulator, XFaaS
from repro.core import (
    CentralRateLimiter,
    CongestionController,
    DurableQ,
    GlobalTrafficConductor,
    LocalityOptimizer,
    QueueLB,
    Rim,
    Scheduler,
    Submitter,
    UtilizationController,
    Worker,
    WorkerLB,
)
from repro.sim.sampler import SamplerHub
from repro.workloads import TraceLog

#: Wrapped entry points: (class, method, span name, result tally).
#: The tally reads the return value: "false" counts False returns as
#: denials, "exceptions" sums a ServiceCallResult's back-pressure
#: exceptions.  The scheduler gates calls through the pre-resolved
#: ``can_dispatch_state``/``try_acquire_quota``; ``can_dispatch`` and
#: ``try_acquire`` delegate to them, so wrapping those two sees both.
ENTRY_POINTS: Tuple[Tuple[type, str, str, Optional[str]], ...] = (
    (XFaaS, "submit", "platform.submit", None),
    (XFaaS, "submit_stream", "platform.submit_stream", None),
    (Submitter, "submit", "submitter.submit", "false"),
    (QueueLB, "route", "queuelb.route", None),
    (DurableQ, "enqueue", "durableq.enqueue", None),
    (DurableQ, "poll", "durableq.poll", None),
    (DurableQ, "ack", "durableq.ack", None),
    (DurableQ, "nack", "durableq.nack", None),
    (Scheduler, "tick", "scheduler.tick", None),
    (Scheduler, "on_call_finished", "scheduler.on_call_finished", None),
    (WorkerLB, "dispatch", "workerlb.dispatch", "false"),
    (Worker, "execute", "worker.execute", "false"),
    (Rim, "sample", "rim.sample", None),
    (UtilizationController, "update", "controllers.update", None),
    (GlobalTrafficConductor, "update", "controllers.update", None),
    (LocalityOptimizer, "reassign", "controllers.update", None),
    (LocalityOptimizer, "rebalance_workers", "controllers.update", None),
    (CongestionController, "can_dispatch_state", "congestion.check", "false"),
    (CongestionController, "adjust", "congestion.adjust", None),
    (CentralRateLimiter, "try_acquire_quota", "ratelimiter.acquire", "false"),
    (DownstreamService, "call", "downstream.call", "exceptions"),
    (TraceLog, "add_call", "trace.add_call", None),
)

#: Owner class of an event or periodic callback -> span name.  Owners
#: not listed (PeriodicTask, config propagation, the benchmark's own
#: arrival loop) stay kernel time.
EVENT_OWNERS: Dict[str, str] = {
    "ArrivalGenerator": "workloads.event",
    "SamplerHub": "sampler.fire",
    "Worker": "worker.event",
    "Submitter": "submitter.flush",
    "DurableQ": "durableq.sweep",
    "Scheduler": "scheduler.event",
    "IncidentInjector": "downstream.event",
}

_SPANNED = "_perfbench_span"


def _owner(callback: Callable[..., Any]) -> str:
    bound_to = getattr(callback, "__self__", None)
    if bound_to is not None:
        return type(bound_to).__name__
    return getattr(callback, "__qualname__", "").split(".", 1)[0]


class Recorder:
    """Flat span columns plus per-name result tallies."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._codes: Dict[str, int] = {}
        # Rows are appended when a span ends; ``ids`` holds the span's
        # entry sequence number, which ``parents`` refers to.
        self.ids = array("i")
        self.name_col = array("B")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("i")
        self.events = array("i")
        self.calls = array("i")
        self.denied: List[int] = []
        self.exceptions: List[int] = []
        self.event = 0
        self._next_id = 0
        self._top = -1

    def code(self, name: str) -> int:
        code = self._codes.get(name)
        if code is None:
            code = self._codes[name] = len(self.names)
            self.names.append(name)
            self.denied.append(0)
            self.exceptions.append(0)
        return code

    # ------------------------------------------------------------------
    def span(self, fn: Callable[..., Any], name: str,
             tally: Optional[str] = None) -> Callable[..., Any]:
        """``fn`` wrapped in a span called ``name``."""
        code = self.code(name)
        perf = time.perf_counter
        ids, name_col, starts, ends = (self.ids, self.name_col,
                                       self.starts, self.ends)
        parents, events, calls = self.parents, self.events, self.calls
        denied, exceptions = self.denied, self.exceptions
        rec = self

        def spanned(*args: Any, **kwargs: Any) -> Any:
            # The call id is read on entry: a call's arena slot may be
            # recycled before the entry point returns.
            call = args[1] if len(args) > 1 else None
            call_id = call.call_id if isinstance(call, FunctionCall) else -1
            my_id = rec._next_id
            rec._next_id = my_id + 1
            parent = rec._top
            rec._top = my_id
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                rec._top = parent
                ids.append(my_id)
                name_col.append(code)
                starts.append(start)
                ends.append(end)
                parents.append(parent)
                events.append(rec.event)
                calls.append(call_id)
            if tally == "false":
                if result is False:
                    denied[code] += 1
            elif tally == "exceptions":
                exceptions[code] += result.exceptions
            return result

        setattr(spanned, _SPANNED, name)
        return spanned

    def _owned(self, callback: Callable[..., Any]) -> Callable[..., Any]:
        """``callback`` in its owner layer's span, unless already spanned."""
        if getattr(getattr(callback, "__func__", callback), _SPANNED, None):
            return callback
        name = EVENT_OWNERS.get(_owner(callback))
        return callback if name is None else self.span(callback, name)

    def _event(self, callback: Callable[[], None]) -> Callable[[], None]:
        inner = self._owned(callback)
        rec = self

        def event() -> None:
            rec.event += 1
            inner()
        return event

    # ------------------------------------------------------------------
    def install(self) -> None:
        """Wrap every entry point and the kernel's scheduling calls."""
        for cls, method, name, tally in ENTRY_POINTS:
            setattr(cls, method, self.span(getattr(cls, method), name, tally))
        rec = self
        call_at, call_after = Simulator.call_at, Simulator.call_after
        sim_every, hub_every = Simulator.every, SamplerHub.every

        def traced_call_at(sim, when, callback, priority=0):
            return call_at(sim, when, rec._event(callback), priority)

        def traced_call_after(sim, delay, callback, priority=0):
            return call_after(sim, delay, rec._event(callback), priority)

        def traced_sim_every(sim, interval, callback, *args, **kwargs):
            return sim_every(sim, interval, rec._owned(callback),
                             *args, **kwargs)

        def traced_hub_every(hub, interval, callback, *args, **kwargs):
            return hub_every(hub, interval, rec._owned(callback),
                             *args, **kwargs)

        Simulator.call_at = traced_call_at
        Simulator.call_after = traced_call_after
        Simulator.every = traced_sim_every
        SamplerHub.every = traced_hub_every

    # ------------------------------------------------------------------
    def write(self, directory: Path) -> None:
        """Write the span columns (raw machine arrays) and their index."""
        directory.mkdir(parents=True, exist_ok=True)
        columns = {"id": self.ids, "name": self.name_col,
                   "start": self.starts, "end": self.ends,
                   "parent": self.parents, "event": self.events,
                   "call": self.calls}
        for column, values in columns.items():
            with open(directory / f"{column}.bin", "wb") as fh:
                values.tofile(fh)
        (directory / "index.json").write_text(json.dumps({
            "rows": len(self.ids), "names": self.names,
            "columns": {c: v.typecode for c, v in columns.items()},
        }, indent=1))

    def summary(self, run_start: float,
                run_end: float) -> Dict[str, Dict[str, float]]:
        """Per span name: count, self seconds, denials, exceptions.

        Only spans of the run itself count, not those of set-up.  The
        pseudo-name ``sim`` holds the run's time that no span covers:
        the kernel loop and every callback outside a layer.
        """
        n = len(self.ids)
        row_of = array("i", bytes(4 * self._next_id))
        for row in range(n):
            row_of[self.ids[row]] = row
        child_s = [0.0] * n
        root_s = 0.0
        starts, ends, parents = self.starts, self.ends, self.parents
        in_run = [start >= run_start for start in starts]
        for row in range(n):
            if not in_run[row]:
                continue
            dur = ends[row] - starts[row]
            parent = parents[row]
            if parent < 0:
                root_s += dur
            else:
                child_s[row_of[parent]] += dur
        count = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for row in range(n):
            if not in_run[row]:
                continue
            code = self.name_col[row]
            count[code] += 1
            self_s[code] += ends[row] - starts[row] - child_s[row]
        out = {name: {"count": count[c], "self_s": self_s[c],
                      "denied": self.denied[c],
                      "exceptions": self.exceptions[c]}
               for c, name in enumerate(self.names)}
        out["sim"] = {"count": self.event,
                      "self_s": run_end - run_start - root_s,
                      "denied": 0, "exceptions": 0}
        return out
