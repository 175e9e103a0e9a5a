"""Tests for the elastic/harvest-capacity extension (§5.3 ongoing work)."""

import math

import pytest

from repro import PlatformParams, Simulator, XFaaS, build_topology
from repro.cluster import MachineSpec, size_topology_for_utilization
from repro.core import (
    CallOutcome,
    FunctionCall,
    LocalityParams,
    SchedulerParams,
)
from repro.core.call import CallIdAllocator
from repro.core.elastic import ElasticPool, ElasticSchedule, ElasticWorker
from repro.workloads import (
    ArrivalGenerator,
    ConstantRate,
    Criticality,
    FunctionSpec,
    LogNormal,
    QuotaType,
    ResourceProfile,
    build_population,
    estimate_demand_minstr,
)


def profile(cpu=10.0, exec_s=1.0):
    return ResourceProfile(
        cpu_minstr=LogNormal(mu=math.log(cpu), sigma=0.0),
        memory_mb=LogNormal(mu=math.log(32.0), sigma=0.0),
        exec_time_s=LogNormal(mu=math.log(exec_s), sigma=0.0))


_ids = CallIdAllocator()


def opportunistic_call(sim, name="opp"):
    spec = FunctionSpec(name=name, quota_type=QuotaType.OPPORTUNISTIC,
                        profile=profile())
    return FunctionCall(spec=spec, submit_time=sim.now, start_time=sim.now,
                        region_submitted="r", call_id=_ids.allocate())


def reserved_call(sim, name="res"):
    spec = FunctionSpec(name=name, criticality=Criticality.HIGH,
                        profile=profile())
    return FunctionCall(spec=spec, submit_time=sim.now, start_time=sim.now,
                        region_submitted="r", call_id=_ids.allocate())


class TestElasticWorker:
    def test_rejects_reserved_calls(self):
        sim = Simulator(seed=1)
        worker = ElasticWorker(sim, "e", "r")
        worker.grant()
        assert not worker.execute(reserved_call(sim))
        assert worker.execute(opportunistic_call(sim))

    def test_unavailable_rejects_everything(self):
        sim = Simulator(seed=2)
        worker = ElasticWorker(sim, "e", "r")
        assert not worker.execute(opportunistic_call(sim))

    def test_reclaim_interrupts_and_nacks(self):
        sim = Simulator(seed=3)
        outcomes = []
        worker = ElasticWorker(sim, "e", "r",
                               on_finish=lambda c, o: outcomes.append(o))
        worker.grant()
        call = opportunistic_call(sim)
        assert worker.execute(call)
        worker.reclaim()
        assert outcomes == [CallOutcome.WORKER_FULL]
        assert worker.running_count == 0
        # CPU accounting balanced after interruption.
        sim.run_until(100.0)
        assert worker.cpu.load == pytest.approx(0.0)

    def test_schedule_windows(self):
        sched = ElasticSchedule(available_windows=((0.0, 3600.0),))
        assert sched.is_available(100.0)
        assert not sched.is_available(7200.0)
        assert sched.is_available(86_400.0 + 100.0)  # next day


class TestElasticPool:
    def test_grant_reclaim_cycle(self):
        sim = Simulator(seed=4)
        pool = ElasticPool(sim, "r", n_workers=2,
                           schedule=ElasticSchedule(
                               available_windows=((0.0, 600.0),)),
                           check_interval_s=30.0)
        assert len(pool.available_workers) == 2
        sim.run_until(700.0)
        assert len(pool.available_workers) == 0
        assert pool.reclaims == 2

    def test_platform_integration(self):
        sim = Simulator(seed=5)
        topo = build_topology(n_regions=1, workers_per_unit=2)
        platform = XFaaS(sim, topo)
        region = topo.region_names[0]
        pool = platform.add_elastic_pool(region, n_workers=3)
        spec = FunctionSpec(name="opp", quota_type=QuotaType.OPPORTUNISTIC,
                            profile=profile(exec_s=0.5))
        platform.register_function(spec)
        for _ in range(50):
            platform.submit("opp")
        sim.run_until(300.0)
        assert platform.completed_count() == 50
        # Elastic workers actually absorbed some of the work.
        assert sum(w.calls_completed for w in pool.workers) > 0

    def test_interrupted_calls_retry_to_completion(self):
        sim = Simulator(seed=6)
        topo = build_topology(n_regions=1, workers_per_unit=2)
        platform = XFaaS(sim, topo)
        region = topo.region_names[0]
        # Capacity vanishes at t=120 and returns at t=600.
        platform.add_elastic_pool(
            region, n_workers=2,
            schedule=ElasticSchedule(available_windows=(
                (0.0, 120.0), (600.0, 86_400.0))))
        spec = FunctionSpec(name="long", quota_type=QuotaType.OPPORTUNISTIC,
                            profile=profile(exec_s=300.0))
        platform.register_function(spec)
        for _ in range(4):
            platform.submit("long")
        sim.run_until(3600.0)
        # Every call completed despite reclaims (at-least-once retries).
        assert platform.completed_count() == 4


class TestElasticDigestPin:
    """Mixed base + elastic pools: the WorkerLB screens base rows off the
    worker columns but defers elastic rows to their own ``can_admit``
    (which refuses before sampling resources).  The pinned digest was
    recorded before dispatch gained its column pre-check."""

    DIGEST = "0d36bed99156c6f96e0df47492f3c6a5c78f9ff9d3107407296808bad38650a8"

    def test_mixed_pool_trace_digest(self):
        horizon_s = 420.0
        sim = Simulator(seed=11)
        population = build_population(n_functions=24, total_rate=8.0,
                                      opportunistic_fraction=0.5)
        for load in population.loads:
            load.shape = ConstantRate(1.0)
            load.shape_mean = 1.0
        machine = MachineSpec(cores=2, core_mips=500, threads=48)
        demand = estimate_demand_minstr(population,
                                        core_mips=machine.core_mips)
        topology = size_topology_for_utilization(
            demand, target_utilization=0.85, n_regions=2,
            machine_spec=machine)
        platform = XFaaS(sim, topology, PlatformParams(
            scheduler=SchedulerParams(poll_interval_s=2.0,
                                      buffer_capacity=500,
                                      runq_capacity=200),
            locality=LocalityParams(n_groups=2),
            memory_sample_interval_s=60.0,
            distinct_window_s=300.0))
        # Elastic capacity is reclaimed mid-run and granted back, so the
        # pool holds available and unavailable elastic rows in turn.
        schedule = ElasticSchedule(available_windows=((0.0, 150.0),
                                                      (300.0, 86_400.0)))
        pools = [platform.add_elastic_pool(r, n_workers=2,
                                           schedule=schedule)
                 for r in topology.region_names]
        for spec in population.specs:
            platform.register_function(spec)
        ArrivalGenerator(sim, population,
                         lambda spec, delay: platform.submit(spec.name),
                         tick_s=10.0, stop_at=horizon_s)
        sim.run_until(horizon_s)

        elastic = [w for pool in pools for w in pool.workers]
        assert sum(pool.reclaims for pool in pools) > 0
        assert sum(w.calls_completed for w in elastic) > 0
        assert sum(w.admission_rejections for w in elastic) > 0
        assert platform.traces.digest() == self.DIGEST
