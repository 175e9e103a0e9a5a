"""The simulator's benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload dayrun --seed 7 --seconds 20 --trace 0

``--trace 0`` simulates the workload at SUB_SEEDS simulator seeds
derived from ``--seed`` (the first is ``--seed`` itself), each in a
fresh interpreter, and keeps repeating them in turn while the next run
is expected to end within ``--seconds``; then it adds set-up-only runs.
Host times are at the reference host speed (see REF_PROBE_S).  Host
times and peak RSS are medians over all runs; simulated outcomes are
means over the distinct seeds, so they are exact functions of
``--seed``.  ``--trace 1`` makes
one untraced run at ``--seed``, after which it sizes what each owner
retains, and one run with the span recorder installed, and reports the
per-layer metrics.  Runs never overlap.

Every metric is printed by name and unit; the last line of standard
output is one JSON object (``correct``, ``attempted``, ``failed``,
``metrics``).  An operation is one submitted simulated call; it fails
when it is refused at submit or ends with any outcome but ``ok``.  If
a check fails, every operation counts as failed.  See README.md.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src" / "repro"
#: Digests and outcomes of earlier runs in this checkout, per source tree.
STORE = ROOT / ".perfbench" / "outcomes.json"

WORKLOADS = ("dayrun", "fleet-100k", "backpressure")
#: Distinct simulator seeds per timed run.  Outcomes such as the p99.9
#: latency differ from seed to seed by 10-20%; averaging three seeds
#: steadies them without lengthening any single simulation.
SUB_SEEDS = 3
MAX_REPS = 12
#: Set-up samples per timed run.  Set-up takes about 0.1 s on two of
#: the workloads, so after the timed runs, set-up-only runs add samples
#: while they fit in SETUP_SHARE of ``--seconds``.
SETUP_SAMPLES = 12
SETUP_SHARE = 0.05
#: The reference host speed: the one at which ``rep.probe`` takes this
#: long (about its median on a 2-CPU x86-64 VM with CPython 3.11).  A
#: host time is reported at that speed: its wall seconds times
#: REF_PROBE_S over the mean probe taken around it.  On a shared host
#: the speed drifts by tens of percent in phases of seconds to minutes,
#: and every repeat in a run drifts together; the probes drift with them.
REF_PROBE_S = 0.025
#: A single run of any workload takes well under a minute; a child
#: past this limit is killed and the benchmark fails.
CHILD_TIMEOUT_S = 170.0

Metrics = Dict[str, Tuple[float, str]]


class BenchError(Exception):
    """The benchmark could not produce a result at all."""


def sub_seed(seed: int, index: int) -> int:
    return seed + index * 1_000_003


def rep(workload: str, seed: int, mode: str) -> dict:
    """Run ``rep.py`` in a fresh interpreter and parse its result."""
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "rep.py"), workload, str(seed), mode],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
            timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} run of {workload} exceeded "
                         f"{CHILD_TIMEOUT_S:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"{mode} run of {workload} exited with "
                         f"{proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{mode} run of {workload} printed nothing")
    result = json.loads(lines[-1])
    result["seed"] = seed
    result["wall_s"] = time.perf_counter() - t0
    return result


class Checks:
    """Named pass/fail output checks, printed as they are made."""

    def __init__(self) -> None:
        self.failed: List[str] = []

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        print(f"  check {'ok  ' if ok else 'FAIL'} {name}"
              + (f": {detail}" if detail else ""))
        if not ok:
            self.failed.append(name)


def source_key() -> str:
    """Hash of the simulator's and the benchmark's Python sources."""
    h = hashlib.sha256()
    for path in sorted([*SRC.rglob("*.py"), *HERE.glob("*.py")]):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def check_outcomes(checks: Checks, workload: str, reps: List[dict],
                   reference: Optional[str]) -> Dict[int, dict]:
    """Checks every run; returns each distinct seed's outcomes."""
    by_seed: Dict[int, dict] = {}
    repeats_agree = True
    for r in reps:
        r["outcomes"]["seed"] = r["seed"]
        first = by_seed.setdefault(r["seed"], r["outcomes"])
        repeats_agree &= first == r["outcomes"]
    checks.check("same digest and sim metrics in every run of a seed",
                 repeats_agree, f"{len(reps)} runs of {len(by_seed)} seeds")
    for seed, o in by_seed.items():
        print(f"  seed {seed} trace digest {o['digest']}")
        checks.check(f"call accounting closes (seed {seed})",
                     o["accounting_closes"],
                     "submitted {submitted} = records {records} + queued "
                     "{queued} + leased {leased} + unrouted {unrouted}"
                     .format(**o))

    # Earlier invocations in this checkout, on identical sources.
    key = source_key()
    store = json.loads(STORE.read_text()) if STORE.is_file() else {}
    known = store.get(key, {})
    agree = True
    for seed, o in by_seed.items():
        agree &= known.setdefault(f"{workload}/{seed}", o) == o
    checks.check("same digest and sim metrics as earlier runs of these "
                 "seeds", agree)
    STORE.parent.mkdir(parents=True, exist_ok=True)
    STORE.write_text(json.dumps({key: known}))

    if reference is not None:
        checks.check("digest equals repro.scenarios.build_dayrun's",
                     reference == by_seed[reps[0]["seed"]]["digest"],
                     reference)
    return by_seed


def library_reference(workload: str, seed: int) -> Optional[str]:
    if workload != "dayrun":
        return None
    return rep(workload, seed, "reference")["digest"]


def at_ref(r: dict, phase: str) -> float:
    """``r``'s ``setup`` or ``run`` seconds at the reference host speed."""
    return r[f"{phase}_s"] * REF_PROBE_S / r[f"{phase}_probe_s"]


def timed_run(workload: str, seed: int, seconds: float,
              checks: Checks) -> Tuple[List[dict], Metrics]:
    start = time.perf_counter()
    reference = library_reference(workload, seed)
    reps: List[dict] = []
    while len(reps) < MAX_REPS:
        reps.append(rep(workload, sub_seed(seed, len(reps) % SUB_SEEDS),
                        "timed"))
        r = reps[-1]
        print(f"  run {len(reps)} (seed {r['seed']}): "
              f"setup_s {at_ref(r, 'setup'):.4f} "
              f"(wall {r['setup_s']:.4f})  run_s {at_ref(r, 'run'):.4f} "
              f"(wall {r['run_s']:.4f}, probe {1e3 * r['run_probe_s']:.2f} "
              f"ms)  peak_rss_mb {r['peak_rss_mb']:.1f}")
        typical = statistics.median(x["wall_s"] for x in reps)
        if (len(reps) >= SUB_SEEDS
                and time.perf_counter() - start + typical > seconds):
            break
    setups = [at_ref(r, "setup") for r in reps]
    setup_walls = [r["setup_s"] for r in reps]
    estimate, spent, extra = statistics.median(setup_walls), 0.0, 0
    while (len(setups) < SETUP_SAMPLES
           and spent + estimate <= SETUP_SHARE * seconds):
        r = rep(workload, sub_seed(seed, len(setups) % SUB_SEEDS), "setup")
        setups.append(at_ref(r, "setup"))
        setup_walls.append(r["setup_s"])
        spent, extra = spent + r["wall_s"], extra + 1
        estimate = spent / extra
    outcomes = list(check_outcomes(checks, workload, reps,
                                   reference).values())
    for o in outcomes:
        n = o["latency_samples"]
        print(f"  seed {o['seed']}: {n} ok calls, "
              f"{n - math.ceil(0.999 * n)} beyond p99.9")
    print(f"  run_s and peak_rss_mb are medians of {len(reps)} runs, "
          f"setup_s of {len(setups)} set-ups; sim metrics are means over "
          f"{len(outcomes)} seeds")
    print(f"  wall-clock medians: run_s "
          f"{statistics.median(r['run_s'] for r in reps):.4f}, setup_s "
          f"{statistics.median(setup_walls):.4f}")

    def mean(key: str) -> float:
        return statistics.mean(o[key] for o in outcomes)
    metrics: Metrics = {
        "run_s": (statistics.median(at_ref(r, "run") for r in reps), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in reps),
                        "MB"),
        "completed_frac": (mean("completed_frac"), "ratio"),
        "latency_p50_s": (mean("latency_p50_s"), "sim_s"),
        "latency_p999_s": (mean("latency_p999_s"), "sim_s"),
        "fleet_util": (mean("fleet_util"), "ratio"),
    }
    return outcomes, metrics


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def traced_run(workload: str, seed: int,
               checks: Checks) -> Tuple[List[dict], Metrics]:
    reference = library_reference(workload, seed)
    base = rep(workload, seed, "sized")
    traced = rep(workload, seed, "traced")
    (outcomes,) = check_outcomes(checks, workload, [base, traced],
                                 reference).values()
    spans = traced["spans"]
    checks.check("recorder saw every kernel event",
                 spans["sim"]["count"] == outcomes["events"],
                 f"{spans['sim']['count']} of {outcomes['events']}")
    checks.check("trace.add_call spans equal trace records",
                 spans["trace.add_call"]["count"] == outcomes["records"])

    def count(*names: str) -> int:
        return sum(spans.get(n, {}).get("count", 0) for n in names)

    def denied(name: str) -> int:
        return spans.get(name, {}).get("denied", 0)

    layer_self: Dict[str, float] = {}
    for name, row in spans.items():
        layer = name.split(".", 1)[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + row["self_s"]
    traced_s = traced["run_s"]
    print(f"  self time by layer (traced run_s {traced_s:.3f}):")
    for layer, s in sorted(layer_self.items(), key=lambda kv: -kv[1]):
        print(f"    {layer:12s} {s:9.3f} s  {100 * s / traced_s:5.1f}%")

    ok = outcomes["by_outcome"].get("ok", 0)
    submits = count("platform.submit", "platform.submit_stream")
    dispatches, executes = count("workerlb.dispatch"), count("worker.execute")
    polls = count("durableq.poll")
    m: Metrics = {
        "calls.completed": (ok, "count"),
        "sim.events": (outcomes["events"], "count"),
        "sim.events_per_call": (_ratio(outcomes["events"], submits),
                                "per_call"),
        "sampler.fires": (count("sampler.fire"), "count"),
        "workloads.arrivals": (outcomes["arrivals"], "count"),
        "platform.submits": (submits, "count"),
        "platform.refused": (denied("submitter.submit"), "count"),
        "submitter.calls": (count("submitter.submit"), "count"),
        "queuelb.routes": (count("queuelb.route"), "count"),
        "durableq.enqueues": (count("durableq.enqueue"), "count"),
        "durableq.polls": (polls, "count"),
        "durableq.acks": (count("durableq.ack"), "count"),
        "durableq.nacks": (count("durableq.nack"), "count"),
        "durableq.polls_per_completion": (_ratio(polls, ok),
                                          "per_completion"),
        "durableq.backlog_end": (outcomes["queued"], "count"),
        "durableq.wait_p50_s": (outcomes["wait_p50_s"], "sim_s"),
        "durableq.wait_p999_s": (outcomes["wait_p999_s"], "sim_s"),
        "scheduler.ticks": (count("scheduler.tick"), "count"),
        "scheduler.finished": (count("scheduler.on_call_finished"), "count"),
        "workerlb.dispatches": (dispatches, "count"),
        "workerlb.accept_ratio": (
            _ratio(dispatches - denied("workerlb.dispatch"), dispatches),
            "ratio"),
        "workerlb.dispatches_per_completion": (_ratio(dispatches, ok),
                                               "per_completion"),
        "worker.executes": (executes, "count"),
        "worker.accept_ratio": (
            _ratio(executes - denied("worker.execute"), executes), "ratio"),
        "worker.executes_per_completion": (_ratio(executes, ok),
                                           "per_completion"),
        "rim.samples": (count("rim.sample"), "count"),
        "controllers.updates": (count("controllers.update"), "count"),
        "congestion.checks": (count("congestion.check"), "count"),
        "congestion.denied": (denied("congestion.check"), "count"),
        "congestion.adjusts": (count("congestion.adjust"), "count"),
        "ratelimiter.acquires": (count("ratelimiter.acquire"), "count"),
        "ratelimiter.denied": (denied("ratelimiter.acquire"), "count"),
        "downstream.calls": (count("downstream.call"), "count"),
        "downstream.backpressure": (
            spans.get("downstream.call", {}).get("exceptions", 0), "count"),
        "trace.records": (count("trace.add_call"), "count"),
        "trace.retries": (outcomes["retries"], "count"),
    }
    for layer in ("sim", "sampler", "workloads", "platform", "submitter",
                  "queuelb", "durableq", "scheduler", "workerlb", "worker",
                  "rim", "controllers", "congestion", "ratelimiter",
                  "downstream", "trace"):
        m[f"{layer}.self_s"] = (layer_self.get(layer, 0.0), "s")
    for phase in ("import", "inputs", "topology", "platform", "register"):
        m[f"setup.{phase}_s"] = (base["phases"][phase], "s")
    for owner, kb in base["retained_kb"].items():
        m[f"memory.{owner}_kb"] = (kb, "KB")
    m["tracing.traced_run_s"] = (traced_s, "s")
    m["tracing.overhead_ratio"] = (_ratio(traced_s, base["run_s"]), "ratio")
    return [outcomes], m


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "__init__.py").is_file():
        print(f"perfbench: no simulator sources at {SRC}", file=sys.stderr)
        return 2
    # Set-up time is measured with bytecode already compiled.
    if not compileall.compile_dir(str(SRC), quiet=1):
        print("perfbench: the simulator sources do not compile",
              file=sys.stderr)
        return 2

    print(f"perfbench {args.workload} seed {args.seed} "
          f"{'traced' if args.trace else 'timed'}")
    checks = Checks()
    try:
        if args.trace:
            outcomes, metrics = traced_run(args.workload, args.seed, checks)
        else:
            outcomes, metrics = timed_run(args.workload, args.seed,
                                          args.seconds, checks)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    for name, (value, unit) in metrics.items():
        print(f"  {name:36s} {value:>16.6f} {unit}")
    attempted = sum(o["submitted"] for o in outcomes)
    correct = not checks.failed
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": (sum(o["failed"] for o in outcomes) if correct
                   else attempted),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
