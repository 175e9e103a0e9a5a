"""WorkerLB: locality-aware power-of-two-choices dispatch (§4.5.2).

When routing a call, the WorkerLB picks two random workers *from the
function's worker locality group* and dispatches to the less loaded one
— "the power of two random choices" with locality layered on top.  If
both refuse (admission control), it probes a bounded number of further
candidates before reporting failure back to the scheduler.

The hot loop works on the region's
:class:`~repro.core.workerarrays.WorkerArrays` columns: locality groups
are lists of integer worker indices, the two-choices draws pick
indices, and both load-score probes read the ``score`` column.  Each probe
of a plain ``Worker`` row first runs a column pre-check — online,
thread and a CPU lower bound, all necessary conditions of
``Worker.can_admit`` — so a refused probe never touches the ``Worker``
view; only a probe that passes reaches ``Worker.execute``.  The one view
access before that is sampling an unsampled call's resources at its
first online probe, exactly where ``can_admit`` would sample them.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from ..sim.kernel import Simulator
from .call import FunctionCall
from .worker import Worker
from .workerarrays import WorkerArrays

GroupLookup = Callable[[str], int]


class WorkerLB:
    """Load balancer over one region's worker pool for one namespace.

    Invariant: ``self.arrays.workers == self.workers`` row-for-row (the
    i-th worker owns store row ``i``).  The constructor establishes it —
    adopting workers into a fresh store when they arrive with private or
    foreign stores — and :meth:`add_workers` preserves it.
    """

    def __init__(self, sim: Simulator, region: str, workers: List[Worker],
                 group_of_function: GroupLookup,
                 n_groups_fn: Callable[[], int],
                 extra_probes: int = 2,
                 rng_name: Optional[str] = None,
                 group_epoch_fn: Optional[Callable[[], int]] = None) -> None:
        if not workers:
            raise ValueError(f"WorkerLB in {region!r} needs workers")
        self.sim = sim
        self.region = region
        self.workers = list(workers)
        store = self.workers[0]._arrays
        if (len(store.workers) != len(self.workers)
                or any(w._arrays is not store or w._index != i
                       for i, w in enumerate(self.workers))):
            store = WorkerArrays()
            for w in self.workers:
                store.adopt(w)
        self.arrays = store
        self.group_of_function = group_of_function
        self.n_groups_fn = n_groups_fn
        self.extra_probes = extra_probes
        self.rng = sim.rng.stream(rng_name or f"workerlb/{region}")
        # Draws bypass random.Random.choice: the probe loop below inlines
        # Random._randbelow_with_getrandbits bit-for-bit, so only the raw
        # getrandbits source is needed (same stream consumption).
        self._getrandbits = self.rng._rng.getrandbits
        self.dispatch_count = 0
        self.reject_count = 0
        #: Probes refused by the column pre-check / by ``Worker.execute``.
        self.column_refusals = 0
        self.execute_refusals = 0
        self.out_of_group_dispatches = 0
        #: Cheap invalidation: when the Locality Optimizer exposes a group
        #: epoch, the cache key is (n_groups, epoch) instead of a hash
        #: over every worker's group id per dispatch.
        self.group_epoch_fn = group_epoch_fn
        self._groups_cache_key: Optional[object] = None
        # Index lists hold the workers' own ``_index`` ints, so they cost
        # a pointer per row.
        self._groups: Dict[int, List[int]] = {}
        self._all_idx = [w._index for w in self.workers]
        self._capacity_threads = self.arrays.capacity_threads()
        # The store's columns grow in place (rows are append-only), so
        # dispatch binds them all with one unpack.
        arr = self.arrays
        self._columns = (arr.running, arr.cpu_load, arr.threads, arr.score,
                         arr.online, arr.core_mips, arr.cpu_cap,
                         arr.screened, arr.rejections, arr.workers)
        # Epoch-path cache key unpacked into two ints so the dispatch
        # fast path compares without building a tuple.
        self._ck_groups = -1
        self._ck_epoch = -1

    # ------------------------------------------------------------------
    def add_workers(self, new_workers: List[Worker]) -> None:
        """Grow the pool (elastic capacity): adopt rows, invalidate caches."""
        store = self.arrays
        for w in new_workers:
            store.adopt(w)
            self.workers.append(w)
            self._all_idx.append(w._index)
        self._capacity_threads = store.capacity_threads()
        self._groups_cache_key = None
        self._ck_groups = -1
        self._ck_epoch = -1

    # ------------------------------------------------------------------
    def group_workers(self, group: int) -> List[Worker]:
        """Workers currently assigned to a locality group."""
        self._refresh_groups()
        views = self.arrays.workers
        return [views[i] for i in self._groups.get(group, ())]

    def _refresh_groups(self) -> None:
        n_groups = max(1, self.n_groups_fn())
        # Workers carry their group id (the ``group`` column, set by the
        # Locality Optimizer); rebuild the index when assignments change.
        if self.group_epoch_fn is not None:
            epoch = self.group_epoch_fn()
            if n_groups != self._ck_groups or epoch != self._ck_epoch:
                self._rebuild_groups(n_groups, epoch)
            return
        key = hash((n_groups,) + tuple(self.arrays.group))
        if key == self._groups_cache_key:
            return
        self._build_group_index(n_groups)
        self._groups_cache_key = key

    def _rebuild_groups(self, n_groups: int, epoch: int) -> None:
        self._build_group_index(n_groups)
        self._ck_groups = n_groups
        self._ck_epoch = epoch
        self._groups_cache_key = (n_groups, epoch)

    def _build_group_index(self, n_groups: int) -> None:
        groups: Dict[int, List[int]] = {}
        group_col = self.arrays.group
        for i in self._all_idx:
            g = group_col[i] % n_groups
            bucket = groups.get(g)
            if bucket is None:
                bucket = groups[g] = []
            bucket.append(i)
        self._groups = groups

    @property
    def probe_refusals(self) -> int:
        """Probes refused, off the columns or by ``Worker.execute``."""
        return self.column_refusals + self.execute_refusals

    @property
    def probe_count(self) -> int:
        """Candidates probed: each probe is refused or places the call."""
        return self.dispatch_count + self.probe_refusals

    # ------------------------------------------------------------------
    def dispatch(self, call: FunctionCall) -> bool:
        """Route ``call`` to a worker; False when every candidate refused.

        Locality is a *preference*, not isolation: if every probe in the
        function's locality group refuses admission (its workers hogged
        by long CPU-bound calls), the call spills to the whole pool
        rather than stranding idle capacity in other groups — the same
        spirit as the Locality Optimizer moving workers between groups
        under load imbalance (§4.5.2), but at per-call granularity.
        """
        epoch_fn = self.group_epoch_fn
        if epoch_fn is not None:
            # Inlined _refresh_groups fast path: one epoch read and an
            # int compare per dispatch.  The group *count* is re-read
            # only when the epoch advances — the Locality Optimizer's
            # count is fixed after construction, while every worker
            # (re)assignment bumps the epoch.
            epoch = epoch_fn()
            if epoch != self._ck_epoch:
                n_groups = self.n_groups_fn()
                if n_groups < 1:
                    n_groups = 1
                self._rebuild_groups(n_groups, epoch)
        else:
            self._refresh_groups()
        all_idx = self._all_idx
        pool = (self._groups.get(self.group_of_function(call.spec.name))
                or all_idx)
        # The two-choices draw sequence is inlined below (identical
        # getrandbits consumption to random.choice); the loop runs once
        # over the locality group, then — only if every in-group probe
        # refused — once more over the whole pool.  ``a``/``b`` are
        # integer store rows; uniqueness of rows in a pool makes the
        # ``==`` dedup equivalent to the old object ``is`` check.
        (running, cpu_load, threads, score, online, core_mips, cpu_cap,
         screened, rejections, views) = self._columns
        # A flow violation is terminal at the first execute (it ends the
        # call instead of refusing it), so such calls skip the pre-check.
        screen = call.source_level <= call.spec.isolation_level
        res = call.resources
        refused = 0
        spilled = False
        while True:
            n = len(pool)
            if n == 1:
                order = pool
            else:
                getrandbits = self._getrandbits
                k = n.bit_length()
                r = getrandbits(k)
                while r >= n:
                    r = getrandbits(k)
                a = pool[r]
                r = getrandbits(k)
                while r >= n:
                    r = getrandbits(k)
                b = pool[r]
                while b == a:
                    r = getrandbits(k)
                    while r >= n:
                        r = getrandbits(k)
                    b = pool[r]
                # The less loaded probe first (Worker.load_score(), kept
                # current in the score column).
                order = [a, b] if score[a] <= score[b] else [b, a]
                for _ in range(self.extra_probes):
                    r = getrandbits(k)
                    while r >= n:
                        r = getrandbits(k)
                    r = pool[r]
                    if r not in order:
                        order.append(r)
            for idx in order:
                if screen and screened[idx]:
                    # Worker.can_admit's online and thread checks, in its
                    # order, plus a CPU check on a lower bound of the
                    # call's load: JIT speed <= 1 gives cpu_s >= x, and
                    # the load is 1.0 or cpu_s / exec_s (monotone IEEE
                    # rounding).  cpu_cap >= the row's budget for any
                    # function, so a refusal here is one can_admit makes.
                    ok = online[idx]
                    if ok:
                        if res is None:
                            res = views[idx]._resources(call)
                        x = res[0] / core_mips[idx]
                        exec_s = res[2]
                        ok = (running[idx] < threads[idx]
                              and cpu_load[idx] + (x / exec_s if exec_s > x
                                                   else 1.0) <= cpu_cap[idx])
                    if not ok:
                        rejections[idx] += 1
                        refused += 1
                        continue
                if views[idx].execute(call):
                    self.dispatch_count += 1
                    if spilled:
                        self.out_of_group_dispatches += 1
                    self.column_refusals += refused
                    return True
                self.execute_refusals += 1
            if spilled or n >= len(all_idx):
                self.reject_count += 1
                self.column_refusals += refused
                return False
            pool = all_idx
            spilled = True

    # ------------------------------------------------------------------
    def pool_load(self) -> float:
        """Mean load score across the pool (RIM/GTC input).

        Sums the ``score`` column exactly like the old
        ``sum(w.load_score() ...)`` (int 0 start, same addition order)
        so the mean is bit-identical.
        """
        score = self.arrays.score
        total = 0
        for i in self._all_idx:
            total = total + score[i]
        return total / len(self._all_idx)

    def free_threads(self) -> int:
        # Admission caps running <= threads per worker, so the O(1)
        # aggregate equals the old per-worker max(0, ...) sum.
        return self._capacity_threads - self.arrays.total_running
