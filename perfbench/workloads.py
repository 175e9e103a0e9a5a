"""The benchmark's workloads, built from the public ``repro`` API.

Every builder takes the workload seed, builds the inputs (population,
topology, arrivals) itself and hands the platform nothing else.  Each
returns a :class:`Built` whose simulator has not run yet, with the host
time of every set-up phase, so a caller can time set-up and the run
separately.  See README.md for why each workload was chosen.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, Dict, Optional

from repro import (
    DiurnalRate,
    FunctionSpec,
    Incident,
    IncidentInjector,
    PlatformParams,
    RetryPolicy,
    ServiceRegistry,
    Simulator,
    XFaaS,
    build_population,
    build_tao_stack,
    build_topology,
)
from repro.cluster import MachineSpec, size_topology_for_utilization
from repro.core import CongestionParams
from repro.scenarios import default_dayrun_params
from repro.workloads import (
    ArrivalGenerator,
    LogNormal,
    ResourceProfile,
    TriggerType,
    attach_spike,
    estimate_demand_minstr,
    figure4_spike,
)

#: Simulated horizon of ``dayrun``: 30 minutes of the reference day.
DAYRUN_HORIZON_S = 1800.0
#: ``fleet-100k``: workers in the fleet and simulated horizon.
FLEET_WORKERS = 100_000
FLEET_HORIZON_S = 600.0
#: ``backpressure``: the Fig 13 incident timeline and offered load.
BACKPRESSURE_HORIZON_S = 4800.0
INCIDENT_START_S = 1800.0
INCIDENT_END_S = 3000.0
OFFERED_RPS = 40
#: Attempts per call on ``backpressure``.  The Fig 13 bench keeps the
#: default of 3, so calls whose every attempt meets the collapsed
#: KVStore end in ``error``; with 20 attempts every call completes and
#: the retries show in ``trace.retries`` instead of as failed calls.
BACKPRESSURE_MAX_ATTEMPTS = 20


class Phases:
    """Accumulates host seconds per named set-up phase."""

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = {}
        self._mark = time.perf_counter()

    def mark(self, phase: str) -> None:
        now = time.perf_counter()
        self.seconds[phase] = self.seconds.get(phase, 0.0) + now - self._mark
        self._mark = now


@dataclass
class Built:
    """A constructed, not yet run, simulation."""

    sim: Simulator
    platform: XFaaS
    horizon_s: float
    #: Host seconds per set-up phase.
    phases: Dict[str, float]
    generator: Optional[ArrivalGenerator] = None


def build_dayrun(seed: int) -> Built:
    """``repro.scenarios.build_dayrun(seed, horizon_s=1800)``, phase by phase.

    The construction order (and so every RNG draw and event sequence
    number) is the library builder's; the run checks this by comparing
    trace digests with the library builder's.
    """
    ph = Phases()
    sim = Simulator(seed=seed)
    diurnal = DiurnalRate(base_rate=1.0, peak_to_trough=4.3)
    population = build_population(
        n_functions=60, total_rate=8.0, opportunistic_fraction=0.6,
        diurnal=diurnal)
    spiky_function = next(
        (l.spec.name for l in population.loads
         if l.spec.trigger is TriggerType.QUEUE and l.spec.is_delay_tolerant),
        None)
    if spiky_function is not None:
        attach_spike(population, spiky_function,
                     figure4_spike(scale=8.0 * 900.0 / 20.0e6,
                                   start_s=6 * 3600.0))
    ph.mark("inputs")
    machine = MachineSpec(cores=2, core_mips=500, threads=48)
    demand = estimate_demand_minstr(population, core_mips=machine.core_mips)
    topology = size_topology_for_utilization(
        demand, target_utilization=0.70, n_regions=6, machine_spec=machine)
    ph.mark("topology")
    services = ServiceRegistry()
    build_tao_stack(sim, services, tao_capacity_rps=1.0e5,
                    wtcache_capacity_rps=1.0e5, kvstore_capacity_rps=1.0e5)
    platform = XFaaS(sim, topology, default_dayrun_params(),
                     services=services)
    ph.mark("platform")
    for spec in population.specs:
        platform.register_function(spec)
    if spiky_function is not None:
        platform.register_spiky_client(platform.spec(spiky_function).team)
    ph.mark("register")
    generator = ArrivalGenerator(sim, population, platform.submit_stream,
                                 tick_s=20.0, stop_at=DAYRUN_HORIZON_S)
    ph.mark("inputs")
    return Built(sim, platform, DAYRUN_HORIZON_S, ph.seconds, generator)


def build_fleet(seed: int) -> Built:
    """``repro.scenarios.build_fleetrun(100_000, seed)``, phase by phase."""
    ph = Phases()
    sim = Simulator(seed=seed)
    diurnal = DiurnalRate(base_rate=1.0, peak_to_trough=4.3)
    population = build_population(
        n_functions=40, total_rate=30.0, opportunistic_fraction=0.5,
        diurnal=diurnal)
    ph.mark("inputs")
    n_regions = 4
    topology = build_topology(
        n_regions=n_regions, workers_per_unit=FLEET_WORKERS // n_regions,
        relative_capacity=[1.0] * n_regions,
        machine_spec=MachineSpec(cores=2, core_mips=500, threads=48))
    ph.mark("topology")
    services = ServiceRegistry()
    build_tao_stack(sim, services, tao_capacity_rps=1.0e5,
                    wtcache_capacity_rps=1.0e5, kvstore_capacity_rps=1.0e5)
    platform = XFaaS(sim, topology, default_dayrun_params(),
                     services=services)
    ph.mark("platform")
    for spec in population.specs:
        platform.register_function(spec)
    ph.mark("register")
    generator = ArrivalGenerator(sim, population, platform.submit_stream,
                                 tick_s=20.0, stop_at=FLEET_HORIZON_S)
    ph.mark("inputs")
    return Built(sim, platform, FLEET_HORIZON_S, ph.seconds, generator)


def build_backpressure(seed: int) -> Built:
    """The Fig 13 incident: KVStore collapses under a WTCache caller.

    One function calls ``wtcache`` three times per call; 40 calls arrive
    every simulated second through the public ``XFaaS.submit``, on
    2 regions x 6 workers.  KVStore runs at 5% capacity from 1800 s to
    3000 s, so WTCache throws back-pressure exceptions, AIMD cuts the
    function's rate and failed attempts are retried.
    """
    ph = Phases()
    sim = Simulator(seed=seed)
    spec = FunctionSpec(
        name="graph-sync", quota_minstr_per_s=1.0e6,
        profile=ResourceProfile(
            cpu_minstr=LogNormal(mu=math.log(20.0), sigma=0.3),
            memory_mb=LogNormal(mu=math.log(32.0), sigma=0.3),
            exec_time_s=LogNormal(mu=math.log(0.2), sigma=0.3)),
        downstream=(("wtcache", 3),),
        retry_policy=RetryPolicy(max_attempts=BACKPRESSURE_MAX_ATTEMPTS))
    ph.mark("inputs")
    topology = build_topology(n_regions=2, workers_per_unit=6)
    ph.mark("topology")
    services = ServiceRegistry()
    _, _, kvstore = build_tao_stack(
        sim, services, tao_capacity_rps=5000.0,
        wtcache_capacity_rps=400.0, kvstore_capacity_rps=400.0)
    params = PlatformParams(congestion=CongestionParams(
        backpressure_threshold_per_min=60.0, adjust_window_s=30.0,
        additive_increase_rps=5.0))
    platform = XFaaS(sim, topology, params, services=services)
    ph.mark("platform")
    platform.register_function(spec)
    ph.mark("register")
    IncidentInjector(sim).inject(
        kvstore, Incident("kvstore", INCIDENT_START_S, INCIDENT_END_S,
                          degraded_factor=0.05))
    submit = platform.submit

    def arrivals() -> None:
        for _ in range(OFFERED_RPS):
            submit("graph-sync")
    sim.every(1.0, arrivals)
    ph.mark("inputs")
    return Built(sim, platform, BACKPRESSURE_HORIZON_S, ph.seconds)


WORKLOADS: Dict[str, Callable[[int], Built]] = {
    "dayrun": build_dayrun,
    "fleet-100k": build_fleet,
    "backpressure": build_backpressure,
}


def library_dayrun_digest(seed: int) -> str:
    """Trace digest of ``repro.scenarios.build_dayrun`` for ``dayrun``."""
    from repro.scenarios import build_dayrun as library_dayrun
    run = library_dayrun(seed=seed, horizon_s=DAYRUN_HORIZON_S)
    return run.platform.traces.digest()
