"""One shard of a region-sharded parallel simulation.

A :class:`ShardPlatform` hosts the *data plane* (DurableQs, schedulers,
workers, submitters, per-region downstream stacks) for a contiguous
group of regions, plus a *replicated control plane* — config store,
call-id allocator, client-region chooser, arrival replay, GTC and
Utilization Controller — that every shard runs identically so no
control decision ever needs cross-shard coordination.

Determinism rules (the reason an N-shard run is bit-identical to the
1-shard run):

* **Replicated draws.**  Every shard replays the *full* arrival stream
  and pre-samples every call's resources at submission, consuming the
  ``arrivals`` / ``client-region`` / ``resources/*`` RNG streams
  identically everywhere; only calls submitted to an *owned* region
  are materialized.
* **Region-qualified draws.**  Every other stream is qualified by the
  region that draws from it (scheduler jitter, config-refresh jitter,
  DurableQ sweeps, WorkerLB/QueueLB choices, downstream services), so
  a region's sequence never depends on which other regions share its
  kernel.
* **Region-addressed messages.**  Cross-**region** interactions go
  through the mailbox even when both regions live on the same shard
  — structurally identical under every shard grouping.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..cluster.machine import MachineSpec
from ..cluster.topology import (
    Topology,
    build_topology,
    size_topology_for_utilization,
)
from ..core.call import CallIdAllocator, CallLedger, CallOutcome, FunctionCall
from ..core.config import ConfigStore
from ..core.congestion import CongestionController
from ..core.durableq import DurableQ
from ..core.gtc import GlobalTrafficConductor
from ..core.isolation import NamespaceRegistry
from ..core.kvstore import DistributedKVStore
from ..core.locality import LocalityOptimizer
from ..core.platform import PlatformParams
from ..core.queuelb import QueueLB
from ..core.ratelimiter import CentralRateLimiter, ClientRateLimiter
from ..core.scheduler import S_MULTIPLIER_KEY, Scheduler
from ..core.submitter import Submitter, SubmitterFrontend
from ..core.utilization import UtilizationController
from ..core.worker import Worker
from ..core.workerarrays import WorkerArrays
from ..core.workerlb import WorkerLB
from ..downstream.service import ServiceRegistry
from ..downstream.tao import build_tao_stack
from ..metrics.recorder import MetricsRegistry
from ..metrics.timeseries import Counter
from ..scenarios import default_dayrun_params
from ..sim.kernel import Simulator
from ..sim.sampler import SamplerHub
from ..sim.simsan import region_map
from ..workloads.generator import (
    ArrivalGenerator,
    attach_spike,
    build_population,
    estimate_demand_minstr,
)
from ..workloads.diurnal import DiurnalRate
from ..workloads.spec import FunctionSpec, QuotaType, TriggerType
from ..workloads.spikes import figure4_spike
from ..workloads.trace import TraceLog
from .messages import (
    KIND_DQ_ACK,
    KIND_DQ_EXTEND,
    KIND_DQ_NACK,
    KIND_DQ_POLL_REQ,
    KIND_DQ_POLL_RESP,
    KIND_KV_DELETE,
    KIND_RIM_REPORT,
    ShardMessage,
    rehydrate_call,
    serialize_call,
)
from .reportrim import ReportRim
from .spec import ParsimSpec, partition_regions


class RemoteRegionHandle:
    """A scheduler's stand-in for another region's DurableQ shard.

    Duck-types the scheduler-facing :class:`DurableQ` surface:
    ``poll`` emits a request message and returns nothing now (leased
    calls arrive later via :meth:`Scheduler.accept_remote`);
    ``ack``/``nack``/``extend_lease`` are one-way messages to the
    queue's owning region.  The round trip (2 × one-way latency,
    ~0.1 s) is far inside the 120 s lease timeout.
    """

    __slots__ = ("platform", "scheduler_region", "region", "dq_index",
                 "latency_s", "name")

    def __init__(self, platform: "ShardPlatform", scheduler_region: str,
                 dq_region: str, dq_index: int, latency_s: float) -> None:
        self.platform = platform
        self.scheduler_region = scheduler_region
        self.region = dq_region
        self.dq_index = dq_index
        self.latency_s = latency_s
        self.name = f"remote-dq/{dq_region}/{dq_index}"

    def poll(self, scheduler_id: str, max_items: int,
             skip=frozenset()) -> List[FunctionCall]:
        self.platform.send(
            self.scheduler_region, self.region, KIND_DQ_POLL_REQ,
            (self.region, self.dq_index, self.scheduler_region,
             scheduler_id, max_items, tuple(sorted(skip))),
            self.latency_s)
        return []

    def ack(self, call: FunctionCall) -> None:
        self.platform.send(
            self.scheduler_region, self.region, KIND_DQ_ACK,
            (self.region, self.dq_index, call.call_id), self.latency_s)

    def nack(self, call: FunctionCall, retry_delay_s: float = 0.0) -> None:
        self.platform.send(
            self.scheduler_region, self.region, KIND_DQ_NACK,
            (self.region, self.dq_index, call.call_id, retry_delay_s),
            self.latency_s)
        # The local rehydrated copy is abandoned here — the owning
        # region re-enqueues *its* record on NACK.
        self.platform.arena.note_terminalized()

    def extend_lease(self, call_id: int) -> None:
        self.platform.send(
            self.scheduler_region, self.region, KIND_DQ_EXTEND,
            (self.region, self.dq_index, call_id), self.latency_s)

    # Rim-style accounting surface (never counted for foreign regions).
    def ready_count(self, now: Optional[float] = None) -> int:
        return 0

    @property
    def pending_count(self) -> int:
        return 0

    @property
    def leased_count(self) -> int:
        return 0


class ShardPlatform:
    """XFaaS wiring for one shard's regions plus the replicated plane."""

    def __init__(self, sim: Simulator, spec: ParsimSpec,
                 topology: Topology, population: Any,
                 spiky_function: Optional[str],
                 params: PlatformParams,
                 owned_regions: List[str]) -> None:
        self.sim = sim
        self.spec = spec
        self.topology = topology
        self.population = population
        self.params = params
        self.owned_regions = sorted(owned_regions)
        self._owned_set = frozenset(self.owned_regions)
        self.all_regions = topology.region_names

        # simsan (opt-in): this shard owns exactly ``owned_regions`` —
        # restrict the sanitizer so any direct touch of a foreign
        # region's map entry or RNG stream raises.  Replicated streams
        # (arrivals, client-region, resources/*) name no region and
        # stay unrestricted by construction.
        sanitizer = sim.sanitizer
        if sanitizer is not None:
            sanitizer.register_regions(self.all_regions)
            sanitizer.restrict(self.owned_regions)
        network = topology.network
        self.network = network
        self._report_delay = network.max_latency()

        self.metrics = MetricsRegistry()
        self.traces = TraceLog()
        self._call_id_allocator = CallIdAllocator()
        #: Counts of the calls this shard materializes (owned arrivals
        #: and rehydrated remote leases); named like ``XFaaS.arena``.
        self.arena = CallLedger()
        self.namespaces = NamespaceRegistry()
        self.config = ConfigStore(sim, params.config_propagation_s)
        self.kvstore = DistributedKVStore(sim)
        self._specs: Dict[str, FunctionSpec] = {}
        self._outbox: List[ShardMessage] = []
        self._out_seq = 0

        ns = params.namespace
        self.namespaces.create(ns)
        shares = topology.capacity_share(ns)
        self._core_mips = topology.regions[0].machine_spec.core_mips

        self._calls_received = self.metrics.bind_counter("calls.received")
        self._calls_executed = self.metrics.bind_counter("calls.executed")
        self._calls_throttled = self.metrics.bind_counter("calls.throttled")
        self._cpu_reserved = self.metrics.bind_counter("cpu.reserved")
        self._cpu_opportunistic = self.metrics.bind_counter(
            "cpu.opportunistic")
        self._queueing_latency = self.metrics.bind_distribution(
            "latency.queueing")
        self._completion_latency = self.metrics.bind_distribution(
            "latency.completion")
        self._backpressure_counters: Dict[str, Counter] = {}
        self._resource_streams: Dict[str, Any] = {}
        self._client_region_chooser: Optional[Callable[[], str]] = None

        # --- Replicated control plane ---------------------------------
        self.sampler_hub = SamplerHub(sim)
        self.rim = ReportRim(
            sim, self.metrics, self.all_regions, self.owned_regions,
            self._broadcast_report, params.rim_sample_interval_s,
            timers=self.sampler_hub,
            fleet_gauge_owner=self.all_regions[0] in self._owned_set)
        self.gtc = GlobalTrafficConductor(
            sim, self.rim, self.config, network, params.gtc,
            enabled=params.global_dispatch, timers=self.sampler_hub)
        self.utilization_controller = UtilizationController(
            sim, self.rim, self.config, params.utilization,
            timers=self.sampler_hub)
        if not params.time_shifting:
            self.config.publish(S_MULTIPLIER_KEY, 1.0e9)

        # --- Partitioned data plane (owned regions, sorted order) -----
        self.durableqs_by_region: Dict[str, List[DurableQ]] = \
            region_map(sanitizer, "durableqs_by_region")
        self.workers_by_region: Dict[str, List[Worker]] = \
            region_map(sanitizer, "workers_by_region")
        self.workerlbs: Dict[str, WorkerLB] = \
            region_map(sanitizer, "workerlbs")
        self.schedulers: Dict[str, Scheduler] = \
            region_map(sanitizer, "schedulers")
        self.queuelbs: Dict[str, QueueLB] = \
            region_map(sanitizer, "queuelbs")
        self.frontends: Dict[str, SubmitterFrontend] = \
            region_map(sanitizer, "frontends")
        self.rate_limiters: Dict[str, CentralRateLimiter] = \
            region_map(sanitizer, "rate_limiters")
        self.client_limiters: Dict[str, ClientRateLimiter] = \
            region_map(sanitizer, "client_limiters")
        self.congestion_by_region: Dict[str, CongestionController] = \
            region_map(sanitizer, "congestion_by_region")
        self.locality_by_region: Dict[str, LocalityOptimizer] = \
            region_map(sanitizer, "locality_by_region")
        self.services_by_region: Dict[str, ServiceRegistry] = \
            region_map(sanitizer, "services_by_region")
        self._quota_share: Dict[str, float] = {
            r: max(shares.get(r, 0.0), 1e-9) for r in self.all_regions}
        self._remote_handles: Dict[Tuple[str, str, int],
                                   RemoteRegionHandle] = {}

        n_dq = params.durableq_shards_per_region
        for r in self.owned_regions:
            self.durableqs_by_region[r] = [
                DurableQ(sim, name=f"dq/{r}/{i}", region=r,
                         jitter_stream=f"dq-sweep/{r}/{i}")
                for i in range(n_dq)]

        for r in self.owned_regions:
            self._build_region(r, ns, n_dq)

        # --- Start controllers & samplers -----------------------------
        self.rim.start()
        self.gtc.start()
        if params.time_shifting:
            self.utilization_controller.start()
        for r in self.owned_regions:
            self.locality_by_region[r].start()
            congestion = self.congestion_by_region[r]
            self.sampler_hub.every(
                params.congestion.adjust_window_s,
                lambda c=congestion: c.adjust(sim.now))
            self.sampler_hub.every(
                params.distinct_window_s,
                lambda region=r: self._sample_distinct_functions(region),
                start=params.distinct_window_s)
            if params.memory_sample_interval_s > 0:
                self.sampler_hub.every(
                    params.memory_sample_interval_s,
                    lambda region=r: self._sample_memory(region))

        self.submitted_count = 0
        self.throttled_count = 0

        # --- Replicated registration + arrival replay (always last) ---
        for fn_spec in population.specs:
            self.register_function(fn_spec)
        if spiky_function is not None:
            team = self._specs[spiky_function].team
            for frontend in self.frontends.values():
                frontend.register_spiky_client(team)
        self.arrivals = ArrivalGenerator(
            sim, population, self._replay_submit, tick_s=20.0,
            stop_at=spec.horizon_s)

    # ------------------------------------------------------------------
    # Per-region data-plane construction
    # ------------------------------------------------------------------
    def _build_region(self, r: str, ns: str, n_dq: int) -> None:
        sim = self.sim
        params = self.params
        share = self._quota_share[r]
        region = self.topology.region(r)
        machine = region.machine_spec

        self.rate_limiters[r] = CentralRateLimiter()
        self.client_limiters[r] = ClientRateLimiter(
            default_rps=max(1000.0 * share, 1.0))
        self.congestion_by_region[r] = CongestionController(params.congestion)
        self.locality_by_region[r] = LocalityOptimizer(
            sim, self.config, params.locality,
            enabled=params.locality_groups, namespace=ns,
            timers=self.sampler_hub,
            config_key=f"locality/assignment/{r}")
        services = ServiceRegistry()
        # One §5.5 stack per region, its share of the global capacity;
        # downstream calls stay region-local (no cross-shard traffic).
        n_regions = len(self.all_regions)
        build_tao_stack(
            sim, services,
            tao_capacity_rps=1.0e5 / n_regions,
            wtcache_capacity_rps=1.0e5 / n_regions,
            kvstore_capacity_rps=1.0e5 / n_regions,
            rng_prefix=f"{r}/")
        self.services_by_region[r] = services
        locality = self.locality_by_region[r]

        arrays = WorkerArrays()
        gateway = self._make_gateway(r)
        workers = []
        for w in range(region.workers_for(ns)):
            worker = Worker(
                sim, name=f"{r}/{ns}/w{w:03d}", region=r, namespace=ns,
                machine=machine, params=params.worker,
                jit_params=params.jit,
                downstream_gateway=gateway, arrays=arrays)
            locality.register_worker(worker)
            workers.append(worker)
        self.workers_by_region[r] = workers
        self.rim.register_workers(r, workers)
        self.rim.register_durableqs(r, self.durableqs_by_region[r])

        workerlb = WorkerLB(
            sim, r, workers,
            group_of_function=locality.group_of,
            n_groups_fn=lambda loc=locality: loc.n_groups,
            group_epoch_fn=lambda loc=locality: loc.group_epoch)
        self.workerlbs[r] = workerlb

        # The scheduler polls its *own* region's queues synchronously;
        # every other region — owned by this shard or not — goes through
        # the mailbox, so the structure is shard-grouping-invariant.
        dq_map: Dict[str, List[Any]] = {}
        for r2 in self.all_regions:
            if r2 == r:
                dq_map[r2] = list(self.durableqs_by_region[r])
            else:
                latency = self.network.latency(r, r2)
                handles = []
                for i in range(n_dq):
                    handle = RemoteRegionHandle(self, r, r2, i, latency)
                    self._remote_handles[(r, r2, i)] = handle
                    handles.append(handle)
                dq_map[r2] = handles

        scheduler = Scheduler(
            sim, r, dq_map, workerlb,
            self.rate_limiters[r], self.congestion_by_region[r],
            self.config, params.scheduler, on_done=self._on_done,
            timers=self.sampler_hub,
            jitter_stream=f"config-jitter/{r}/sched")
        self.schedulers[r] = scheduler
        self.rim.register_scheduler(r, scheduler)
        for worker in workers:
            worker.on_finish = scheduler.on_call_finished

        queuelb = QueueLB(sim, r, {r: self.durableqs_by_region[r]},
                          self.config,
                          jitter_stream=f"config-jitter/{r}/queuelb")
        self.queuelbs[r] = queuelb
        normal = Submitter(sim, r, queuelb, self.client_limiters[r],
                           params.submitter, pool="normal",
                           on_throttle=self._on_throttle,
                           kvstore=self.kvstore)
        spiky = Submitter(sim, r, queuelb, self.client_limiters[r],
                          params.submitter, pool="spiky",
                          on_throttle=self._on_throttle,
                          kvstore=self.kvstore)
        self.frontends[r] = SubmitterFrontend(normal, spiky)

    # ------------------------------------------------------------------
    # Replicated registration / submission
    # ------------------------------------------------------------------
    def register_function(self, spec: FunctionSpec) -> None:
        if spec.name in self._specs:
            return
        self._specs[spec.name] = spec
        self.namespaces.assign(spec)
        expected_cost = spec.profile.cpu_minstr.mean
        for r in self.owned_regions:
            # §4.6.1's global quota, split across regions by capacity
            # share — region r's limiter replica enforces its slice, so
            # the fleet-wide rate stays at the owner-set quota without
            # any cross-shard token traffic.
            scaled = dataclasses.replace(
                spec, quota_minstr_per_s=(spec.quota_minstr_per_s *
                                          self._quota_share[r]))
            self.rate_limiters[r].register(scaled, expected_cost)
            self.congestion_by_region[r].register(spec)
            self.locality_by_region[r].register_function(spec)

    def _pick_client_region(self) -> str:
        chooser = self._client_region_chooser
        if chooser is None:
            shares = self.topology.capacity_share(self.params.namespace)
            regions = sorted(shares)
            chooser = self.sim.rng.stream("client-region").weighted_chooser(
                regions, [max(shares[r], 1e-9) for r in regions])
            self._client_region_chooser = chooser
        return chooser()

    def _replay_submit(self, spec: FunctionSpec, start_delay_s: float) -> None:
        """Replicated arrival replay: draw everything, materialize owned.

        Every shard consumes the same ``client-region`` and
        ``resources/*`` draws for every arrival; only arrivals whose
        chosen region belongs to this shard become live calls.
        """
        region = self._pick_client_region()
        name = spec.name
        rng = self._resource_streams.get(name)
        if rng is None:
            rng = self._resource_streams[name] = \
                self.sim.rng.stream(  # simlint: disable=SL007 -- memo miss
                    f"resources/{name}")
        resources = spec.profile.sample(rng, self._core_mips)
        call_id = self._call_id_allocator.allocate()
        if region not in self._owned_set:
            return
        now = self.sim.now
        call = FunctionCall(spec=spec, submit_time=now,
                            start_time=now + start_delay_s,
                            region_submitted=region,
                            call_id=call_id, resources=resources)
        self.arena.note_created()
        self._calls_received.add(now)
        self.submitted_count += 1
        self.frontends[region].submit(call)

    # ------------------------------------------------------------------
    # Mailbox
    # ------------------------------------------------------------------
    def send(self, src_region: str, dest_region: str, kind: str,
             payload: Tuple[Any, ...], delay_s: float) -> None:
        """Queue an inter-region message for the next window barrier.

        ``delay_s`` is a modelled network latency and therefore never
        below the topology lookahead, which is what guarantees the
        delivery time falls strictly beyond the current window.
        """
        if self.sim.sanitizer is not None:
            # A shard may only *originate* messages from regions it
            # owns; forging a foreign source would desynchronize the
            # canonical (deliver_at, src_region, src_seq) merge order.
            self.sim.sanitizer.check_region(
                src_region, f"send({kind!r}) source")
        self._outbox.append(ShardMessage(
            deliver_at=self.sim.now + delay_s, src_region=src_region,
            src_seq=self._out_seq, dest_region=dest_region, kind=kind,
            payload=payload))
        self._out_seq += 1

    def _broadcast_report(self, region: str, report: Tuple) -> None:
        for dest in self.all_regions:
            self.send(region, dest, KIND_RIM_REPORT,
                      (region,) + tuple(report), self._report_delay)

    def handle_message(self, msg: ShardMessage) -> None:
        kind = msg.kind
        payload = msg.payload
        if kind == KIND_RIM_REPORT:
            self.rim.apply_report(payload[0], tuple(payload[1:]))
        elif kind == KIND_DQ_POLL_REQ:
            (dq_region, dq_index, sched_region, scheduler_id,
             budget, skip_names) = payload
            dq = self.durableqs_by_region[dq_region][dq_index]
            calls = dq.poll(scheduler_id, budget,
                            skip=frozenset(skip_names))
            if calls:
                self.send(dq_region, sched_region, KIND_DQ_POLL_RESP,
                          (dq_region, dq_index, sched_region,
                           tuple(serialize_call(c) for c in calls)),
                          self.network.latency(dq_region, sched_region))
        elif kind == KIND_DQ_POLL_RESP:
            dq_region, dq_index, sched_region, calls = payload
            handle = self._remote_handles[(sched_region, dq_region,
                                           dq_index)]
            scheduler = self.schedulers[sched_region]
            for data in calls:
                scheduler.accept_remote(
                    rehydrate_call(data, self._specs), handle)
                self.arena.note_created()
        elif kind == KIND_DQ_ACK:
            dq_region, dq_index, call_id = payload
            if self.durableqs_by_region[dq_region][dq_index] \
                    .ack_by_id(call_id) is not None:
                # The owner-side record is garbage once the executing
                # shard's ACK lands.
                self.arena.note_terminalized()
        elif kind == KIND_DQ_NACK:
            dq_region, dq_index, call_id, retry_delay = payload
            self.durableqs_by_region[dq_region][dq_index].nack_by_id(
                call_id, retry_delay)
        elif kind == KIND_DQ_EXTEND:
            dq_region, dq_index, call_id = payload
            self.durableqs_by_region[dq_region][dq_index].extend_lease(
                call_id)
        elif kind == KIND_KV_DELETE:
            self.kvstore.delete(payload[0])
        else:
            raise ValueError(f"unknown shard message kind {kind!r}")

    # ------------------------------------------------------------------
    # Windowed execution (driven by the runner)
    # ------------------------------------------------------------------
    def advance(self, window_end: float,
                messages: List[ShardMessage]) -> None:
        """Inject this window's messages (canonical order), then run."""
        sim = self.sim
        for msg in messages:
            sim.inject(msg.deliver_at,
                       lambda m=msg: self.handle_message(m))
        sim.run_until(window_end)

    def drain_outbox(self) -> List[ShardMessage]:
        out, self._outbox = self._outbox, []
        return out

    def next_event_time(self) -> Optional[float]:
        return self.sim.next_event_time()

    # ------------------------------------------------------------------
    # Completion path
    # ------------------------------------------------------------------
    def _make_gateway(self, r: str) -> Callable[[FunctionCall], CallOutcome]:
        def invoke(call: FunctionCall) -> CallOutcome:
            outcome = CallOutcome.OK
            services = self.services_by_region[r]
            congestion = self.congestion_by_region[r]
            for service_name, n in call.spec.downstream:
                service = services.maybe_get(service_name)
                if service is None:
                    continue
                result = service.call(n)
                if result.exceptions and self.params.aimd:
                    congestion.on_backpressure(
                        call.function_name, service_name, result.exceptions)
                if result.exceptions:
                    key = f"backpressure.{r}.{service_name}"
                    ctr = self._backpressure_counters.get(key)
                    if ctr is None:
                        ctr = self._backpressure_counters[key] = \
                            self.metrics.counter(  # simlint: disable=SL007 -- memo miss
                                key)
                    ctr.add(self.sim.now, result.exceptions)
                if result.failures:
                    outcome = CallOutcome.ERROR
            return outcome
        return invoke

    def _on_done(self, call: FunctionCall, outcome: CallOutcome) -> None:
        now = self.sim.now
        if call.args_spilled:
            # The spilled args live in the kvstore of the shard owning
            # the *submit* region; a cross-region finish routes the
            # delete through the mailbox (region-based rule, so the
            # delete time is shard-grouping-invariant).
            src = call.scheduler_region or call.region_submitted
            if call.region_submitted == src:
                self.kvstore.delete(f"args/{call.call_id}")
            else:
                self.send(src, call.region_submitted, KIND_KV_DELETE,
                          (f"args/{call.call_id}",),
                          self.network.latency(src, call.region_submitted))
        if outcome is CallOutcome.OK and call.dispatch_time is not None:
            self._calls_executed.add(call.dispatch_time)
            if call.resources is not None:
                cpu = call.resources[0]
                ctr = (self._cpu_reserved
                       if call.spec.quota_type is QuotaType.RESERVED
                       else self._cpu_opportunistic)
                ctr.add(call.dispatch_time, cpu)
            eligible = max(call.submit_time, call.start_time)
            self._queueing_latency.add(
                max(0.0, call.dispatch_time - eligible))
            self._completion_latency.add(now - call.submit_time)
        if self.params.collect_traces:
            self.traces.add_call(
                call, outcome.value if outcome else "unknown")
        self.arena.note_terminalized()

    def _on_throttle(self, call: FunctionCall) -> None:
        self.throttled_count += 1
        self._calls_throttled.add(self.sim.now)
        if self.params.collect_traces:
            self.traces.add_call(call, "throttled")
        self.arena.note_terminalized()

    # ------------------------------------------------------------------
    # Periodic samplers (owned regions)
    # ------------------------------------------------------------------
    def _sample_distinct_functions(self, region: str) -> None:
        dist = self.metrics.distribution(
            "worker.distinct_functions_per_window")
        workers = self.workers_by_region[region]
        # Draining the window mutates each worker (same as core.platform).
        for worker in workers:  # simlint: disable=SL008 -- windows
            count = worker.take_distinct_functions_window()
            if worker.calls_started > 0:
                dist.add(count)

    def _sample_memory(self, region: str) -> None:
        now = self.sim.now
        dist = self.metrics.distribution("worker.memory_mb")
        workers = self.workers_by_region[region]
        # Fig 10 needs the full per-worker distribution, not an aggregate.
        for worker in workers:  # simlint: disable=SL008 -- Fig 10
            dist.add(worker.memory_in_use_mb)
        if region == self.all_regions[0]:
            if workers:
                self.metrics.gauge("worker.sample.memory_mb").set(
                    now, workers[0].memory_in_use_mb)

    # ------------------------------------------------------------------
    # End-of-run accounting
    # ------------------------------------------------------------------
    def completed_count(self) -> int:
        return sum(s.completed_count for s in self.schedulers.values())

    def pending_backlog(self) -> int:
        backlog = 0
        for _r, shards in sorted(self.durableqs_by_region.items()):
            backlog += sum(q.ready_count() for q in shards)
        for _r, scheduler in sorted(self.schedulers.items()):
            backlog += scheduler.pending_demand
        return backlog

    def finish(self) -> Dict[str, Any]:
        """Summarize this shard for the coordinator (picklable)."""
        partial, count = self.traces.canonical_partial()
        return {
            "canonical_partial": (partial, count),
            "metrics": self.metrics.snapshot(),
            "submitted": self.submitted_count,
            "throttled": self.throttled_count,
            "completed": self.completed_count(),
            "backlog": self.pending_backlog(),
            "events_executed": self.sim.events_executed,
            "owned_regions": list(self.owned_regions),
        }


def build_workload(spec: ParsimSpec) -> Tuple[Any, Optional[str], Topology]:
    """Rebuild the scenario workload a :class:`ParsimSpec` describes.

    Returns ``(population, spiky_function, topology)``.  Deterministic
    in the spec alone: population construction draws only from
    sim-independent RNG streams, so every shard (and the coordinator)
    reconstructs the identical workload.  Mirrors
    :func:`repro.scenarios.build_dayrun` / ``build_fleetrun``.
    """
    diurnal = DiurnalRate(base_rate=1.0, peak_to_trough=spec.peak_to_trough)
    population = build_population(
        n_functions=spec.n_functions, total_rate=spec.total_rate,
        opportunistic_fraction=spec.opportunistic_fraction, diurnal=diurnal)
    machine = MachineSpec(cores=2, core_mips=500, threads=48)

    spiky_function = None
    if spec.scenario == "dayrun":
        spiky_function = next(
            (load.spec.name for load in population.loads
             if load.spec.trigger is TriggerType.QUEUE
             and load.spec.is_delay_tolerant),
            None)
        if spiky_function is not None:
            burst_calls = spec.total_rate * 900.0
            attach_spike(population, spiky_function,
                         figure4_spike(scale=burst_calls / 20.0e6,
                                       start_s=6 * 3600.0))
        demand = estimate_demand_minstr(population,
                                        core_mips=machine.core_mips)
        topology = size_topology_for_utilization(
            demand, target_utilization=spec.target_utilization,
            n_regions=spec.n_regions, machine_spec=machine)
    else:  # fleetrun
        if spec.n_workers < spec.n_regions:
            raise ValueError(
                f"n_workers={spec.n_workers} must be >= "
                f"n_regions={spec.n_regions}")
        per_region = max(1, spec.n_workers // spec.n_regions)
        topology = build_topology(
            n_regions=spec.n_regions, workers_per_unit=per_region,
            relative_capacity=[1.0] * spec.n_regions, machine_spec=machine)
    return population, spiky_function, topology


def build_shard(spec: ParsimSpec, shard_index: int) -> ShardPlatform:
    """Build one shard (its own kernel + platform) from a spec.

    Every shard rebuilds the *identical* workload — population, spike,
    topology — from the spec's primitives (the construction draws from
    sim-independent RNG streams), then wires only its own regions.
    """
    n_shards = spec.effective_shards
    if not 0 <= shard_index < n_shards:
        raise ValueError(
            f"shard_index {shard_index} out of range for {n_shards} shards")
    sim = Simulator(seed=spec.seed, sanitize=spec.sanitize)
    population, spiky_function, topology = build_workload(spec)
    params = default_dayrun_params()
    if params.collect_traces != spec.collect_traces:
        params = dataclasses.replace(params,
                                     collect_traces=spec.collect_traces)
    owned = partition_regions(topology.region_names, n_shards)[shard_index]
    return ShardPlatform(sim, spec, topology, population, spiky_function,
                         params, owned)
