"""Call-trace records: capture, summarize, save/load as CSV.

Benchmarks capture per-call traces so the analysis layer can rebuild the
paper's series (received vs executed, latency SLOs, deferral delay)
without re-running the simulation.
"""

from __future__ import annotations

import csv
import hashlib
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Any, Iterable, List, Tuple

#: Modulus for the order-independent canonical digest: per-record
#: SHA-256 values summed mod 2^256.  Addition is commutative, so the
#: partial sums of per-shard trace logs combine to the same value no
#: matter how calls were distributed across shards.
_CANONICAL_MOD = 1 << 256


@dataclass(frozen=True)
class CallTrace:
    """Lifecycle timestamps and outcome of one function call."""

    call_id: int
    function: str
    trigger: str
    criticality: int
    quota_type: str
    submit_time: float
    start_time_requested: float
    dispatch_time: float
    finish_time: float
    region_submitted: str
    region_executed: str
    worker: str
    outcome: str            # "ok", "error", "throttled", "expired"
    cpu_minstr: float
    memory_mb: float
    exec_time_s: float
    attempts: int = 1

    @property
    def queueing_delay(self) -> float:
        """Time from eligible-to-run to dispatch (time-shift shows here)."""
        eligible = max(self.submit_time, self.start_time_requested)
        return max(0.0, self.dispatch_time - eligible)

    @property
    def completion_latency(self) -> float:
        """Submit → finish latency."""
        return self.finish_time - self.submit_time

    @property
    def cross_region(self) -> bool:
        return self.region_submitted != self.region_executed


class TraceLog:
    """An append-only collection of :class:`CallTrace` with CSV round-trip.

    The write path is two-speed: :meth:`add` appends a pre-built
    :class:`CallTrace`, while :meth:`add_call` (the platform's per-call
    path) snapshots the call's fields into a plain constructor tuple
    and defers the 17-field dataclass construction until the log is
    first *read*.  Snapshotting at add time (rather than retaining the
    call object) is what lets refcounting free a finished call as soon
    as the platform drops it.  ``digest()`` is the regression test that
    the deferred construction yields byte-identical traces.
    """

    def __init__(self) -> None:
        self._traces: List[CallTrace] = []
        #: Deferred CallTrace constructor tuples not yet built.
        self._pending: List[Tuple[Any, ...]] = []

    def __len__(self) -> int:
        return len(self._traces) + len(self._pending)

    def __iter__(self):
        self._materialize()
        return iter(self._traces)

    def add(self, trace: CallTrace) -> None:
        if self._pending:
            self._materialize()
        self._traces.append(trace)

    def add_call(self, call: Any, outcome_name: str) -> None:
        """Record a finished call, snapshotting its fields immediately.

        ``call`` is a :class:`repro.core.call.FunctionCall` (duck-typed:
        this module must not import ``repro.core``).
        """
        self._pending.append(call.trace_snapshot(outcome_name))

    def _materialize(self) -> None:
        if self._pending:
            self._traces.extend(CallTrace(*t) for t in self._pending)
            self._pending.clear()

    def completed(self) -> List[CallTrace]:
        self._materialize()
        return [t for t in self._traces if t.outcome == "ok"]

    def for_function(self, function: str) -> List[CallTrace]:
        self._materialize()
        return [t for t in self._traces if t.function == function]

    def digest(self) -> str:
        """SHA-256 over every call's lifecycle tuple, in arrival order.

        Bit-identical digests mean behaviorally identical runs; the speed
        and sweep benchmarks compare them across optimizations and across
        process boundaries.  The field tuple matches the historical
        ``bench_speed.trace_digest`` so committed baselines stay valid.
        """
        self._materialize()
        h = hashlib.sha256()
        for t in self._traces:
            h.update(repr((t.call_id, t.function, t.submit_time,
                           t.start_time_requested, t.dispatch_time,
                           t.finish_time, t.region_submitted,
                           t.region_executed, t.worker, t.outcome,
                           t.cpu_minstr, t.memory_mb, t.exec_time_s,
                           t.attempts)).encode())
        return h.hexdigest()

    # ------------------------------------------------------------------
    # Order-independent canonical digest (repro.parsim parity checks)
    # ------------------------------------------------------------------
    def canonical_partial(self) -> Tuple[int, int]:
        """This log's contribution to the canonical digest.

        Returns ``(sum of per-record SHA-256 mod 2**256, record count)``
        over exactly the same 14-field tuples as :meth:`digest`.  Region
        shards ship this 40-byte pair across the process boundary
        instead of hundreds of thousands of trace rows; the coordinator
        folds partials with :meth:`combine_canonical`.
        """
        self._materialize()
        total = 0
        sha256 = hashlib.sha256
        for t in self._traces:
            rec = sha256(repr((t.call_id, t.function, t.submit_time,
                               t.start_time_requested, t.dispatch_time,
                               t.finish_time, t.region_submitted,
                               t.region_executed, t.worker, t.outcome,
                               t.cpu_minstr, t.memory_mb, t.exec_time_s,
                               t.attempts)).encode()).digest()
            total = (total + int.from_bytes(rec, "big")) % _CANONICAL_MOD
        return total, len(self._traces)

    @staticmethod
    def combine_canonical(partials: Iterable[Tuple[int, int]]) -> str:
        """Fold :meth:`canonical_partial` pairs into one canonical digest.

        The result depends only on the *multiset* of trace records, not
        on arrival order or shard assignment — which is exactly the
        parity property parallel mode must preserve: a serial run and an
        N-shard run of the same scenario yield the same multiset of
        per-call lifecycle tuples.
        """
        total = 0
        count = 0
        for partial, n in partials:
            total = (total + partial) % _CANONICAL_MOD
            count += n
        return hashlib.sha256(
            f"{count}:{total:064x}".encode()).hexdigest()

    def canonical_digest(self) -> str:
        """Order-independent digest of this log alone (see above)."""
        return TraceLog.combine_canonical([self.canonical_partial()])

    def save_csv(self, path: Path) -> None:
        self._materialize()
        path = Path(path)
        names = [f.name for f in fields(CallTrace)]
        with path.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(names)
            for t in self._traces:
                writer.writerow([getattr(t, n) for n in names])

    @classmethod
    def load_csv(cls, path: Path) -> "TraceLog":
        log = cls()
        path = Path(path)
        float_fields = {"submit_time", "start_time_requested", "dispatch_time",
                        "finish_time", "cpu_minstr", "memory_mb", "exec_time_s"}
        int_fields = {"call_id", "criticality", "attempts"}
        with path.open() as fh:
            reader = csv.DictReader(fh)
            for row in reader:
                kwargs = {}
                for key, value in row.items():
                    if key in float_fields:
                        kwargs[key] = float(value)
                    elif key in int_fields:
                        kwargs[key] = int(value)
                    else:
                        kwargs[key] = value
                log.add(CallTrace(**kwargs))
        return log
