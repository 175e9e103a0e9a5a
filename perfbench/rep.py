"""One run of one workload in this (fresh) interpreter.

    python3 perfbench/rep.py <workload> <seed> <mode>

``mode`` is ``setup`` (set-up only), ``timed`` (untraced; host and sim
measurements), ``sized``
(timed, then the memory each owner retains at the horizon), ``traced``
(the span recorder installed before the platform is built) or
``reference`` (``dayrun`` only: the library's own builder, for the
digest check).
Prints one JSON object as its last line.  ``perfbench/run.py`` drives
this script; run it by hand only to debug one run.

``setup`` and ``timed`` runs also time a fixed probe loop around set-up
and between equal slices of simulated time, so ``run.py`` can express
host times at a reference host speed; see :func:`probe`.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPAN_DIR = HERE.parent / ".perfbench" / "spans"

#: A timed run simulates its horizon in this many equal slices of
#: simulated time and probes the host's speed after each one.
RUN_SLICES = 16
#: Probes before ``import repro`` and after set-up.
SETUP_PROBES = 2
PROBE_LOOPS = 100_000


class _Probed:
    __slots__ = ("x", "y")

    def __init__(self) -> None:
        self.x = 0.0
        self.y = 3

    def step(self, i: int) -> int:
        return (i * self.y) & 1023


_TABLE = {i: 7 * i for i in range(256)}
_PROBED = _Probed()


def probe() -> float:
    """Host seconds for a fixed loop of interpreter work (about 20 ms).

    Dict reads, attribute updates and method calls, like the
    simulator's, and no allocation the cyclic GC tracks, so the loop
    neither depends on nor disturbs the simulation's heap.  On a shared
    host the speed of every process drifts by tens of percent over
    seconds to minutes; probes taken between slices of the run drift
    with it.
    """
    table, obj, acc = _TABLE, _PROBED, 0
    t0 = time.perf_counter()
    for i in range(PROBE_LOOPS):
        acc += table[i & 255]
        obj.x = obj.x + 1.5
        acc ^= obj.step(i)
    return time.perf_counter() - t0


def main(argv) -> int:
    workload, seed, mode = argv[0], int(argv[1]), argv[2]
    probed = mode in ("setup", "timed")
    probes = [probe() for _ in range(SETUP_PROBES if probed else 0)]
    sys.path.insert(0, str(HERE.parent / "src"))
    t0 = time.perf_counter()
    import repro  # noqa: F401  (set-up time starts at this import)
    import measure
    import workloads
    t_import = time.perf_counter()

    if mode == "reference":
        print(json.dumps({"digest": workloads.library_dayrun_digest(seed)}))
        return 0
    recorder = None
    if mode == "traced":
        import spans
        recorder = spans.Recorder()
        recorder.install()
    elif mode not in ("setup", "timed", "sized"):
        raise SystemExit(f"unknown mode {mode!r}")

    built = workloads.WORKLOADS[workload](seed)
    t_first = time.perf_counter()
    out = {"setup_s": t_first - t0}
    if probed:
        probes += [probe() for _ in range(SETUP_PROBES)]
        out["setup_probe_s"] = statistics.mean(probes)
    if mode == "setup":
        print(json.dumps(out))
        return 0
    if probed:
        # The probes after set-up open the run's own series.
        probes, run_s = probes[SETUP_PROBES:], 0.0
        horizon = built.horizon_s
        for k in range(1, RUN_SLICES + 1):
            t = time.perf_counter()
            built.sim.run_until(horizon if k == RUN_SLICES
                                else horizon * k / RUN_SLICES)
            run_s += time.perf_counter() - t
            probes.append(probe())
        out["run_probe_s"] = statistics.mean(probes)
    else:
        built.sim.run_until(built.horizon_s)
        run_s = time.perf_counter() - t_first
    t_end = time.perf_counter()
    # Peak RSS before anything reads the trace log: TraceLog builds its
    # CallTrace records only when first read.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out.update({
        "run_s": run_s,
        "peak_rss_mb": peak_rss_mb,
        "phases": {"import": t_import - t0, **built.phases},
    })
    if mode == "sized":
        out["retained_kb"] = measure.retained_kb(built.platform)
    out["outcomes"] = measure.outcomes(built)
    if recorder is not None:
        out["spans"] = recorder.summary(t_first, t_end)
        recorder.write(SPAN_DIR / workload)
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    code = main(sys.argv[1:])
    sys.stdout.flush()
    # Skip tearing down the simulation's heap: nothing is left to write
    # and the parent waits for this process to end.
    os._exit(code)
