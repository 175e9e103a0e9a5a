"""What one finished run simulated, and what its platform retains.

Everything here reads the platform after ``run_until`` returned; the
values depend only on the workload and seed, never on the host.
"""

from __future__ import annotations

import math
import statistics
import sys
import types
from typing import Dict, List

from repro import Simulator, XFaaS
from repro.analysis import fleet_utilization_series

from workloads import Built


def percentile(sorted_values: List[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list (exact, no interpolation)."""
    rank = max(1, math.ceil(q / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def outcomes(built: Built) -> Dict[str, object]:
    """Sim metrics, call accounting and the trace digest of a finished run.

    Latency is submit-to-finish and wait is DurableQ queueing delay,
    both of the ``ok`` calls, computed exactly from the trace records.

    Reading the trace log builds its records, so call this only after
    the host measurements (peak RSS) are taken.
    """
    platform, horizon = built.platform, built.horizon_s
    latencies: List[float] = []
    waits: List[float] = []
    by_outcome: Dict[str, int] = {}
    retries = 0
    for t in platform.traces:
        by_outcome[t.outcome] = by_outcome.get(t.outcome, 0) + 1
        retries += t.attempts - 1
        if t.outcome == "ok":
            latencies.append(t.completion_latency)
            waits.append(t.queueing_delay)
    latencies.sort()
    waits.sort()
    records = sum(by_outcome.values())
    ok = by_outcome.get("ok", 0)

    # Call accounting: every submitted call is a terminal record, still
    # queued in a DurableQ, leased by a scheduler, or accepted by a
    # submitter and not yet routed to a DurableQ.
    queues = [q for shards in platform.durableqs_by_region.values()
              for q in shards]
    queued = sum(q.pending_count for q in queues)
    leased = sum(q.leased_count for q in queues)
    accepted = sum(fe.normal.accepted_count + fe.spiky.accepted_count
                   for fe in platform.frontends.values())
    routed = sum(lb.routed_count for lb in platform.queuelbs.values())
    submitted = platform.submitted_count

    warmup = min(3600.0, horizon / 4)
    fleet = [v for _, v in fleet_utilization_series(
        platform, warmup, horizon, min(600.0, max(horizon / 10, 1.0)))]
    return {
        "digest": platform.traces.digest(),
        "submitted": submitted,
        "records": records,
        "by_outcome": dict(sorted(by_outcome.items())),
        "queued": queued,
        "leased": leased,
        "unrouted": accepted - routed,
        "accounting_closes": (
            submitted == records + queued + leased + accepted - routed
            and by_outcome.get("throttled", 0) == platform.throttled_count),
        "events": built.sim.events_executed,
        "retries": retries,
        "failed": records - ok,
        "completed_frac": ok / submitted,
        "latency_samples": len(latencies),
        "latency_p50_s": percentile(latencies, 50),
        "latency_p999_s": percentile(latencies, 99.9),
        "wait_p50_s": percentile(waits, 50),
        "wait_p999_s": percentile(waits, 99.9),
        "fleet_util": statistics.mean(fleet),
        "arrivals": (built.generator.submitted
                     if built.generator is not None else 0),
    }


#: Never followed when sizing: code, and the objects every component
#: shares (the kernel, the platform), which would pull in everything.
_NOT_OWNED = (type, types.ModuleType, types.FunctionType,
              types.BuiltinFunctionType, types.MethodType, Simulator, XFaaS)


def retained_kb(platform: XFaaS) -> Dict[str, float]:
    """KB each owner retains: everything reachable from it, counted once.

    Owners are walked in order and an object reachable from two owners
    counts for the first: the call arena (``core/call*``), the trace
    log, the DurableQs (their calls' views, not the arena behind them)
    and the metrics registry.
    """
    owners = (("call", platform.arena), ("trace", platform.traces),
              ("durableq", platform.durableqs_by_region),
              ("metrics", platform.metrics))
    seen = set()
    out = {}
    for owner, root in owners:
        total = 0
        stack = [root]
        while stack:
            obj = stack.pop()
            if id(obj) in seen or isinstance(obj, _NOT_OWNED):
                continue
            seen.add(id(obj))
            total += sys.getsizeof(obj)
            if isinstance(obj, dict):
                stack.extend(obj.keys())
                stack.extend(obj.values())
            elif isinstance(obj, (list, tuple, set, frozenset)):
                stack.extend(obj)
            else:
                attrs = getattr(obj, "__dict__", None)
                if attrs is not None:
                    stack.append(attrs)
                for cls in type(obj).__mro__:
                    slots = cls.__dict__.get("__slots__", ())
                    for slot in ((slots,) if isinstance(slots, str)
                                 else slots):
                        if hasattr(obj, slot):
                            stack.append(getattr(obj, slot))
        out[owner] = total / 1024.0
    return out
