"""WorkerLB's column pre-check refuses only probes the worker would refuse.

``WorkerLB.dispatch`` screens each plain ``Worker`` row off the
``WorkerArrays`` columns (online, threads, a CPU lower bound) before it
calls ``Worker.execute``.  These tests pin the two halves of that
contract: a pre-check refusal is always a ``can_admit`` refusal, and the
per-row and per-LB refusal counters stay exact.
"""

import math
from unittest import mock

from hypothesis import example, given, settings, strategies as st

from repro.cluster import MachineSpec
from repro.core import FunctionCall, Worker, WorkerLB, WorkerParams
from repro.core.call import CallIdAllocator
from repro.core.codedeploy import CodeVersion
from repro.core.elastic import ElasticWorker
from repro.scenarios import build_dayrun
from repro.sim import Simulator
from repro.workloads import (
    Criticality,
    FunctionSpec,
    LogNormal,
    QuotaType,
    ResourceProfile,
)


def fixed_profile(cpu, mem, exec_s):
    return ResourceProfile(
        cpu_minstr=LogNormal(mu=math.log(cpu), sigma=0.0),
        memory_mb=LogNormal(mu=math.log(mem), sigma=0.0),
        exec_time_s=LogNormal(mu=math.log(exec_s), sigma=0.0))


machines = st.builds(
    MachineSpec,
    cores=st.sampled_from([1, 2, 4]),
    core_mips=st.sampled_from([250, 500.0, 1000.0, 3999.5]),
    memory_mb=st.sampled_from([6000.0, 65536.0, 65536.0]),
    threads=st.integers(min_value=1, max_value=5))

rows = st.fixed_dictionaries({
    "machine": machines,
    "kind": st.sampled_from(["plain", "plain", "plain", "elastic_on",
                             "elastic_off"]),
    "online": st.sampled_from([True, True, True, False]),
    "jit": st.sampled_from(["warm", "recover", "adopt", "adopt_seeded"]),
    "fillers": st.integers(min_value=0, max_value=5),
    "filler_load": st.floats(min_value=0.05, max_value=1.0),
    "resident": st.booleans(),
})

probes = st.fixed_dictionaries({
    # The probe's warm-JIT load is sized against one row's headroom so
    # that draws land on the CPU admission boundary.
    "target": st.integers(min_value=0, max_value=3),
    "slack": st.one_of(st.sampled_from([-1e-9, 0.0, 1e-9]),
                       st.floats(min_value=-0.5, max_value=0.5)),
    "exec_s": st.floats(min_value=0.01, max_value=500.0),
    "mem_mb": st.sampled_from([16.0, 256.0, 2048.0]),
    "criticality": st.sampled_from(list(Criticality)),
    "quota_type": st.sampled_from(list(QuotaType)),
    "source_level": st.sampled_from([0, 0, 0, 1]),
    "presampled": st.booleans(),
})


def _row(mips, online=True, fillers=0, filler_load=0.5):
    return {"machine": MachineSpec(cores=1, core_mips=mips, threads=4),
            "kind": "plain", "online": online, "jit": "warm",
            "fillers": fillers, "filler_load": filler_load,
            "resident": False}


def _probe(target, slack, quota_type=QuotaType.RESERVED):
    return {"target": target, "slack": slack, "exec_s": 1.0,
            "mem_mb": 16.0, "criticality": Criticality.NORMAL,
            "quota_type": quota_type, "source_level": 0,
            "presampled": True}


def _build_row(sim, i, row, params):
    cls = Worker if row["kind"] == "plain" else ElasticWorker
    w = cls(sim, f"w{i}", "r", machine=row["machine"], params=params)
    if cls is ElasticWorker:
        w.grant()
    if row["jit"] == "recover":
        w.fail()
        w.recover()
    elif row["jit"] != "warm":
        w.adopt_version(CodeVersion(version=2, released_at=0.0),
                        seeded=row["jit"] == "adopt_seeded")
    return w


def _load_row(sim, w, row, probe_name, ids):
    # Long-running fillers raise the row's thread and CPU columns; a
    # filler of the probe's own function makes that function resident.
    mips = row["machine"].core_mips
    for k in range(row["fillers"]):
        name = probe_name if (row["resident"] and k == 0) else "filler"
        exec_s = 1.0e5
        spec = FunctionSpec(
            name=name, quota_type=QuotaType.OPPORTUNISTIC,
            profile=fixed_profile(row["filler_load"] * mips * exec_s, 64.0,
                                  exec_s))
        w.execute(FunctionCall(spec=spec, submit_time=sim.now,
                               start_time=sim.now, region_submitted="r",
                               call_id=ids.allocate()))
    if row["kind"] == "elastic_off":
        w.reclaim()
    if not row["online"]:
        w.fail()


class TestPrecheckExactness:
    @given(st.lists(rows, min_size=1, max_size=4), probes,
           st.sampled_from([1.0, 0.6, 1.25]), st.sampled_from([1.0, 1.15]),
           st.floats(min_value=1.0, max_value=170.0),
           st.integers(min_value=0, max_value=2**16))
    # Pinned boundary cases: a background call that fits only the
    # background budget (cap must be the larger budget), and a refusing
    # slow row probed before a faster target (core_mips is per row).
    @example(pool=[_row(500.0, fillers=1)],
             probe=_probe(0, -0.1, QuotaType.OPPORTUNISTIC),
             bg_fraction=1.25, cpu_factor=1.0, ramp_t=1.0, seed=0)
    @example(pool=[_row(250.0, online=False), _row(1000.0, fillers=1,
                                                   filler_load=0.3)],
             probe=_probe(1, -0.4), bg_fraction=1.0, cpu_factor=1.0,
             ramp_t=1.0, seed=0)
    @settings(max_examples=300, deadline=None)
    def test_column_refusal_implies_can_admit_refuses(
            self, pool, probe, bg_fraction, cpu_factor, ramp_t, seed):
        # The target row is one the pre-check must decide on its CPU
        # bound: a plain, online row with a free thread.
        t = probe["target"] % len(pool)
        pool = list(pool)
        pool[t] = dict(pool[t], kind="plain", online=True, fillers=min(
            pool[t]["fillers"], pool[t]["machine"].threads - 1))
        sim = Simulator(seed=seed)
        ids = CallIdAllocator()
        params = WorkerParams(cpu_admission_factor=cpu_factor,
                              background_admission_fraction=bg_fraction)
        workers = [_build_row(sim, i, row, params)
                   for i, row in enumerate(pool)]
        sim.run_until(ramp_t)  # mid-ramp: restarted JITs run at speed < 1
        for w, row in zip(workers, pool):
            _load_row(sim, w, row, "probe", ids)
        lb = WorkerLB(sim, "r", workers, group_of_function=lambda f: 0,
                      n_groups_fn=lambda: 1)
        target = pool[t]["machine"]
        budget = target.cores * cpu_factor
        if (probe["quota_type"] is QuotaType.OPPORTUNISTIC
                or probe["criticality"] <= Criticality.LOW):
            budget *= bg_fraction
        load = budget - workers[t].cpu_load
        load = max(load + probe["slack"], 1e-3)
        exec_s = probe["exec_s"]
        # load > 1 means a CPU-bound call (cpu time longer than exec_s).
        cpu_minstr = load * exec_s * target.core_mips
        spec = FunctionSpec(
            name="probe", criticality=probe["criticality"],
            quota_type=probe["quota_type"],
            profile=fixed_profile(cpu_minstr, probe["mem_mb"], exec_s))
        call = FunctionCall(spec=spec, submit_time=sim.now,
                            start_time=sim.now, region_submitted="r",
                            source_level=probe["source_level"],
                            call_id=ids.allocate())
        if probe["presampled"]:
            call.resources = (cpu_minstr, probe["mem_mb"], exec_s)
        before = [w.admission_rejections for w in workers]
        started = [w.calls_started for w in workers]
        executed, sampled = [], []
        real_execute, real_resources = Worker.execute, Worker._resources

        def spy_execute(self, c):
            executed.append(self)
            return real_execute(self, c)

        def spy_resources(self, c):
            sampled.append(self)
            return real_resources(self, c)

        with mock.patch.object(Worker, "execute", spy_execute), \
                mock.patch.object(Worker, "_resources", spy_resources):
            placed = lb.dispatch(call)

        refused = [w for w, b in zip(workers, before)
                   if w.admission_rejections > b]
        column_refused = [w for w in refused if w not in executed]
        assert len(column_refused) == lb.column_refusals
        assert len(refused) == lb.probe_refusals
        assert lb.probe_count == len(refused) + (1 if placed else 0)
        for w in column_refused:
            assert type(w) is Worker
            assert not w.can_admit(call), w.name
        if probe["source_level"] > spec.isolation_level:
            # Flow violations skip the pre-check: the first execute ends
            # the call.
            assert placed and lb.column_refusals == 0
        for w, row, n in zip(workers, pool, started):
            if row["kind"] == "elastic_off":
                assert w.calls_started == n
                assert w not in sampled

    def test_unavailable_elastic_row_neither_admits_nor_samples(self):
        sim = Simulator(seed=3)
        ids = CallIdAllocator()
        plain = Worker(sim, "w0", "r", machine=MachineSpec(cores=2))
        plain.fail()
        elastic = ElasticWorker(sim, "e0", "r", machine=MachineSpec(cores=2))
        lb = WorkerLB(sim, "r", [plain, elastic],
                      group_of_function=lambda f: 0, n_groups_fn=lambda: 1)
        spec = FunctionSpec(name="opp", quota_type=QuotaType.OPPORTUNISTIC,
                            profile=fixed_profile(10.0, 32.0, 1.0))
        call = FunctionCall(spec=spec, submit_time=0.0, start_time=0.0,
                            region_submitted="r", call_id=ids.allocate())
        assert not lb.dispatch(call)
        assert call.resources is None
        assert elastic.calls_started == 0
        assert (plain.admission_rejections, elastic.admission_rejections) \
            == (1, 1)
        assert (lb.column_refusals, lb.execute_refusals) == (1, 1)


class TestProbeLedger:
    def test_worker_rejections_equal_lb_probe_refusals(self):
        run = build_dayrun(seed=7, horizon_s=300.0)
        platform = run.platform
        lbs = list(platform.workerlbs.values())
        rejections = sum(w.admission_rejections
                         for ws in platform.workers_by_region.values()
                         for w in ws)
        refusals = sum(lb.probe_refusals for lb in lbs)
        assert refusals > 0
        assert rejections == refusals
        assert sum(lb.probe_count for lb in lbs) == refusals + sum(
            lb.dispatch_count for lb in lbs)
