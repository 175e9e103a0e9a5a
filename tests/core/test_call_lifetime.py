"""Call records live exactly as long as something holds them.

``FunctionCall`` is a plain slotted object: the platform drops every
reference at the terminal transition (the trace log keeps a snapshot
tuple, not the call), so refcounting frees finished calls at once and
live call memory tracks the calls in flight, not the calls submitted.
A call the submitter keeps stays readable after it completes.
"""

import gc
import math

from repro import (
    FunctionSpec,
    Incident,
    IncidentInjector,
    PlatformParams,
    ServiceRegistry,
    Simulator,
    XFaaS,
    build_tao_stack,
    build_topology,
)
from repro.core import CallOutcome, CallState, CongestionParams, FunctionCall
from repro.workloads import LogNormal, ResourceProfile, RetryPolicy
from repro.workloads.trace import CallTrace


def _graph_sync_spec():
    return FunctionSpec(
        name="graph-sync", quota_minstr_per_s=1.0e6,
        profile=ResourceProfile(
            cpu_minstr=LogNormal(mu=math.log(20.0), sigma=0.3),
            memory_mb=LogNormal(mu=math.log(32.0), sigma=0.3),
            exec_time_s=LogNormal(mu=math.log(0.2), sigma=0.3)),
        downstream=(("wtcache", 3),),
        retry_policy=RetryPolicy(max_attempts=3))


def _fig13_platform(seed=7):
    """A small Fig 13 incident: KVStore collapses under a WTCache caller."""
    sim = Simulator(seed=seed)
    services = ServiceRegistry()
    _, _, kvstore = build_tao_stack(
        sim, services, tao_capacity_rps=5000.0,
        wtcache_capacity_rps=400.0, kvstore_capacity_rps=400.0)
    params = PlatformParams(congestion=CongestionParams(
        backpressure_threshold_per_min=60.0, adjust_window_s=30.0,
        additive_increase_rps=5.0))
    platform = XFaaS(sim, build_topology(n_regions=2, workers_per_unit=6),
                     params, services=services)
    spec = _graph_sync_spec()
    platform.register_function(spec)
    IncidentInjector(sim).inject(
        kvstore, Incident("kvstore", 600.0, 900.0, degraded_factor=0.05))
    return sim, platform, spec


def _in_flight(platform):
    """Calls queued or leased in a DurableQ, or batched in a submitter.

    A lease covers a call from its scheduler's buffer through the RunQ
    to a worker, so leased = buffered + runnable + running.
    """
    queued = leased = 0
    for dqs in platform.durableqs_by_region.values():
        for dq in dqs:
            queued += dq.pending_count
            leased += dq.leased_count
    batched = sum(len(f.normal._batch) + len(f.spiky._batch)
                  for f in platform.frontends.values())
    return queued + leased + batched


class TestFinishedCallsAreFreed:
    def test_live_calls_equal_in_flight_not_submitted(self):
        sim, platform, spec = _fig13_platform()

        def arrivals():
            for _ in range(40):
                platform.submit("graph-sync")   # return value discarded

        sim.every(1.0, arrivals)
        # With the cyclic collector off, only refcounting frees calls.
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            sim.run_until(780.0)   # mid-incident: retries in flight
            live = sum(1 for o in gc.get_objects()
                       if type(o) is FunctionCall and o.spec is spec)
        finally:
            if was_enabled:
                gc.enable()
        finished = len(platform.traces)
        assert finished > 20_000
        assert platform.metrics.counter("backpressure.wtcache").total > 0
        assert live == _in_flight(platform)
        # Every one of the finished calls is already gone.
        assert live + finished == platform.submitted_count
        ledger = platform.arena
        assert ledger.created == platform.submitted_count
        assert ledger.live == live
        assert ledger.terminalized == finished
        assert ledger.live <= ledger.peak_live


class TestKeptCallStaysReadable:
    def test_submitted_call_matches_its_trace_record(self):
        sim = Simulator(seed=3)
        platform = XFaaS(sim, build_topology(n_regions=2, workers_per_unit=2))
        spec = _graph_sync_spec()
        platform.register_function(spec)
        call = platform.submit("graph-sync")
        sim.run_until(120.0)
        assert call.state is CallState.COMPLETED
        assert call.outcome is CallOutcome.OK
        trace, = [t for t in platform.traces if t.call_id == call.call_id]
        assert CallTrace(*call.trace_snapshot("ok")) == trace
        assert (trace.submit_time, trace.dispatch_time, trace.finish_time) \
            == (call.submit_time, call.dispatch_time, call.finish_time)
        assert trace.region_submitted == call.region_submitted
        assert trace.region_executed == call.scheduler_region
        assert trace.worker == call.worker_name
        assert (trace.cpu_minstr, trace.memory_mb, trace.exec_time_s) \
            == call.resources
        assert trace.attempts == call.attempts + 1


class TestRunParity:
    def test_two_quick_runs_one_process_bit_identical(self):
        """No call state leaks between two runs in one process."""
        from repro.scenarios import build_dayrun
        kwargs = dict(horizon_s=200.0, n_functions=12, n_regions=3,
                      total_rate=4.0)
        first = build_dayrun(**kwargs)
        second = build_dayrun(**kwargs)
        assert first.platform.traces.digest() == \
            second.platform.traces.digest()
