"""Struct-of-arrays store for per-worker hot state (the fleet layer).

Two optimization rounds (PR 1 kernel, PR 4 component fast path) left the
per-*event* cost low enough that fleet *size* became the binding
ceiling: every admission probe, two-choices draw, and load-score read
chased pointers through a Python ``Worker`` object, and a 100k-worker
fleet meant 100k such objects on every aggregate scan.  This module
flips the layout: one :class:`WorkerArrays` per region holds the hot
scalars in flat ``array`` columns, indexed by a dense integer worker
index, and the ``Worker`` objects become *views* — they keep the cold
machinery (JIT ramp, resident-set LRU, call bookkeeping, failure
injection) and read/write their row of the columns.

Layout contract
---------------
Columns are plain :mod:`array` arrays or lists, so reads return native
Python ints/floats and every arithmetic expression computes bit-for-bit
the same result as the attribute-chasing code it replaced — trace
digests are unchanged by the refactor.  The columns that dispatch
probes and :meth:`WorkerArrays.set_load` read are lists wherever their
values are shared objects (small ints, the machine spec's floats, the
``CpuAccount``'s current load float): CPython specializes list indexing,
while every ``array`` read boxes a new object, and such a list row
costs the same 8 bytes as an ``array`` row.  Columns holding a fresh
float per row (``mem_mb``, ``score``, ``cpu_cap``) and the 1-byte flags
stay arrays.  Column meanings:

``running``
    Live call count (mirror of ``len(worker._running)``).  It, ``cpu_load``
    and ``mem_mb`` are written only through :meth:`WorkerArrays.set_load`.
``cpu_load``
    The worker's :class:`~repro.cluster.machine.CpuAccount` load, copied
    after every start/finish (same float object value).
``mem_mb``
    ``baseline + resident + live`` memory, recomputed (not accumulated)
    after every mutation so the float equals the old expression exactly.
``threads`` / ``cores`` / ``memory_mb``
    Per-worker machine constants, denominators of the load score.
``score``
    The load score ``max(running / threads, cpu_load / cores,
    mem_mb / memory_mb)``, recomputed by :meth:`WorkerArrays.set_load`
    whenever one of its numerators changes.
``online`` / ``group``
    Admission flag and locality-group id (the ``Worker`` properties
    ``online`` / ``locality_group`` are backed by these columns).
``core_mips`` / ``cpu_cap`` / ``screened``
    Per-worker admission constants read by the WorkerLB's probe
    pre-check: the machine's core speed, the larger of the worker's two
    CPU admission budgets, and 1 when the view is a plain ``Worker``
    (whose refusals the columns may decide; 0 defers to the view).
``rejections``
    Admission refusals (``Worker.admission_rejections``), counted here
    so a pre-check refusal never touches the view.

Aggregates
----------
``total_running`` is maintained O(1) on the execute/complete path so
fleet-level demand signals (RIM free threads) never need an O(n) scan
over worker objects inside a sim-clock handler — the anti-pattern
simlint rule SL008 flags.
"""

from __future__ import annotations

from array import array
from typing import TYPE_CHECKING, List

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (worker views)
    from .worker import Worker


class WorkerArrays:
    """Dense per-region columns of worker hot state.

    Rows are append-only: a worker keeps its integer index for life.
    ``workers[i]`` is the thin :class:`~repro.core.worker.Worker` view
    for row ``i`` (cold paths — code deploy, crash injection — go
    through it).
    """

    __slots__ = ("workers", "running", "cpu_load", "mem_mb", "threads",
                 "cores", "memory_mb", "score", "online", "group", "core_mips",
                 "cpu_cap", "screened", "rejections", "total_running")

    def __init__(self) -> None:
        #: index -> Worker view, aligned with every column.
        self.workers: List["Worker"] = []
        self.running: List[int] = []
        self.cpu_load: List[float] = []
        self.mem_mb = array("d")
        self.threads: List[int] = []
        self.cores: List[int] = []
        self.memory_mb: List[float] = []
        self.score = array("d")
        self.online = array("b")
        self.group = array("l")
        self.core_mips: List[float] = []
        self.cpu_cap = array("d")
        self.screened = array("b")
        self.rejections: List[int] = []
        #: Sum of ``running`` over all rows, maintained incrementally.
        self.total_running = 0

    def __len__(self) -> int:
        return len(self.workers)

    # ------------------------------------------------------------------
    def add(self, worker: "Worker", threads: int, cores: int,
            memory_mb: float, mem0_mb: float, core_mips: float,
            cpu_cap: float, screened: bool) -> int:
        """Append a row for ``worker``; returns its permanent index."""
        idx = len(self.workers)
        self.workers.append(worker)
        self.running.append(0)
        self.cpu_load.append(0.0)
        self.mem_mb.append(mem0_mb)
        self.threads.append(threads)
        self.cores.append(cores)
        self.memory_mb.append(memory_mb)
        # set_load's score of an idle row (its thread and CPU terms are 0).
        self.score.append(mem0_mb / memory_mb if mem0_mb > 0.0 else 0.0)
        self.online.append(1)
        self.group.append(0)
        self.core_mips.append(core_mips)
        self.cpu_cap.append(cpu_cap)
        self.screened.append(screened)
        self.rejections.append(0)
        return idx

    def adopt(self, worker: "Worker") -> int:
        """Re-home ``worker`` (and its current hot state) into this store.

        Used when a pool is assembled from workers constructed against
        private stores (tests, elastic pools built standalone).  The
        worker's row in its old store is left behind unreferenced.
        """
        old = worker._arrays
        if old is self:
            return worker._index
        i = worker._index
        idx = len(self.workers)
        self.workers.append(worker)
        self.running.append(old.running[i])
        self.cpu_load.append(old.cpu_load[i])
        self.mem_mb.append(old.mem_mb[i])
        self.threads.append(old.threads[i])
        self.cores.append(old.cores[i])
        self.memory_mb.append(old.memory_mb[i])
        self.score.append(old.score[i])
        self.online.append(old.online[i])
        self.group.append(old.group[i])
        self.core_mips.append(old.core_mips[i])
        self.cpu_cap.append(old.cpu_cap[i])
        self.screened.append(old.screened[i])
        self.rejections.append(old.rejections[i])
        self.total_running += old.running[i]
        old.total_running -= old.running[i]
        worker._arrays = self
        worker._index = idx
        return idx

    def set_load(self, i: int, running: int, cpu_load: float,
                 mem_mb: float) -> None:
        """Write row ``i``'s load numerators and recompute its score."""
        self.running[i] = running
        self.cpu_load[i] = cpu_load
        self.mem_mb[i] = mem_mb
        # Same expression and comparison order as the old per-probe
        # Worker.load_score(), so the score is bit-identical.
        a = running / self.threads[i]
        b = cpu_load / self.cores[i]
        if b > a:
            a = b
        b = mem_mb / self.memory_mb[i]
        self.score[i] = b if b > a else a

    # ------------------------------------------------------------------
    # Whole-store aggregates (order-stable, index order)
    # ------------------------------------------------------------------
    def capacity_threads(self) -> int:
        """Total thread capacity across all rows (static between adds)."""
        return sum(self.threads)

    def free_threads(self) -> int:
        """Capacity minus live calls; admission caps running <= threads
        per worker, so the difference never goes negative per row."""
        return sum(self.threads) - self.total_running
