"""The discrete-event simulation kernel.

:class:`Simulator` owns the clock and the event queue.  Components
schedule plain callbacks (:meth:`Simulator.call_at` /
:meth:`Simulator.call_after`) and periodic ticks
(:meth:`Simulator.every`).

The kernel is intentionally minimal — there is no global registry or
implicit singleton.  Everything in the reproduction receives the
simulator it runs on, which keeps tests hermetic.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from .events import EventQueue, ScheduledEvent
from .rng import RngRegistry
from .simsan import Sanitizer, SanitizedRngRegistry


class SimulationError(Exception):
    """Raised for kernel misuse (scheduling in the past, etc.)."""


class Simulator:
    """Deterministic discrete-event simulator.

    Parameters
    ----------
    seed:
        Master seed for all named RNG streams (see :class:`RngRegistry`).
    sanitize:
        Install the :mod:`repro.sim.simsan` runtime sanitizer: the RNG
        registry mints checking streams and ``self.sanitizer`` is set
        so platforms wrap their region maps.  The sanitized run is
        bit-identical to the unsanitized one (checks observe, never
        draw or reorder); violations raise
        :class:`~repro.sim.simsan.SanitizeError`.
    """

    def __init__(self, seed: int = 0, sanitize: bool = False) -> None:
        self._now = 0.0
        self._queue = EventQueue()
        #: Runtime sanitizer, or None when ``sanitize`` is off.  Set
        #: before the RNG registry so every stream ever minted (incl.
        #: the ones PeriodicTask binds at init) goes through the checks.
        self.sanitizer: Optional[Sanitizer] = None
        if sanitize:
            self.sanitizer = Sanitizer(self)
            self.rng: RngRegistry = SanitizedRngRegistry(
                seed, self.sanitizer)
        else:
            self.rng = RngRegistry(seed)
        self._stopped = False
        self.events_executed = 0
        #: Optional time-attribution recorder (see :mod:`repro.profile`).
        #: When set, :meth:`run`/:meth:`run_until` delegate the dispatch
        #: loop to it so per-event timing never burdens the fast loops
        #: below.  The profiled loop replays identical queue semantics,
        #: so trace digests are bit-identical either way.
        self.profiler: Optional[Any] = None

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def call_at(self, time: float, callback: Callable[[], None],
                priority: int = 0) -> ScheduledEvent:
        """Run ``callback`` at absolute simulation ``time``."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at {time} (now={self._now})")
        return self._queue.push(time, callback, priority)

    def call_after(self, delay: float, callback: Callable[[], None],
                   priority: int = 0) -> ScheduledEvent:
        """Run ``callback`` after ``delay`` seconds."""
        if delay == 0.0 and priority == 0:
            # Fast path: zero-delay continuations go to the queue's FIFO
            # lane instead of sifting through the heap; execution order
            # is identical.
            return self._queue.push_zero(self._now, callback)
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        return self._queue.push(self._now + delay, callback, priority)

    def every(self, interval: float, callback: Callable[[], None],
              start: Optional[float] = None, jitter: float = 0.0,
              rng_stream: str = "periodic-jitter") -> "PeriodicTask":
        """Run ``callback`` every ``interval`` seconds until cancelled.

        ``jitter`` adds a uniform ±jitter offset per firing, drawn from a
        named RNG stream, which desynchronizes replicated components
        (e.g. many schedulers polling DurableQs) the way production
        replicas naturally desynchronize.
        """
        if interval <= 0:
            raise SimulationError(f"interval must be positive, got {interval}")
        task = PeriodicTask(self, interval, callback, jitter, rng_stream)
        first = self._now if start is None else start
        task._schedule_at(max(first, self._now))
        return task

    def inject(self, time: float, callback: Callable[[], None],
               priority: int = 0) -> ScheduledEvent:
        """Schedule an *external* event strictly after the current time.

        The windowed-execution hook for :mod:`repro.parsim`: between two
        ``run_until`` windows, a coordinator injects cross-shard messages
        due in future windows.  Unlike :meth:`call_at`, scheduling *at*
        the current instant is rejected — an already-completed window
        must never gain events retroactively (the conservative-lookahead
        contract guarantees every message is strictly in the future).
        Injection order determines the same-time tiebreak ``seq``, so
        callers must inject in a deterministic (canonical) order.
        """
        if time <= self._now:
            raise SimulationError(
                f"inject({time}) is not strictly after now={self._now}")
        return self._queue.push(time, callback, priority)

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------
    def run_until(self, time: float) -> None:
        """Execute events up to and including ``time``; clock ends at ``time``.

        The pop loop is inlined over the queue internals: one
        ``_purge_head`` (head peek) and one ``_pop_head`` per event,
        with the hot attributes bound to locals outside the loop.
        """
        if time < self._now:
            raise SimulationError(f"run_until({time}) is in the past")
        if self.profiler is not None:
            self.profiler.run_until(self, time)
            return
        self._stopped = False
        queue = self._queue
        purge_head = queue._purge_head
        pop_head = queue._pop_head
        executed = 0
        try:
            while not self._stopped:
                head = purge_head()
                if head is None or head[0] > time:
                    break
                entry = pop_head()
                self._now = entry[0]
                executed += 1
                entry[3].callback()
            if self._now < time:
                self._now = time
        finally:
            self.events_executed += executed

    def run(self, max_events: Optional[int] = None) -> None:
        """Run until the event queue drains (or ``max_events`` executed)."""
        if self.profiler is not None:
            self.profiler.run(self, max_events)
            return
        self._stopped = False
        queue = self._queue
        purge_head = queue._purge_head
        pop_head = queue._pop_head
        limit = max_events if max_events is not None else -1
        executed = 0
        try:
            while not self._stopped:
                if executed == limit:
                    break
                if purge_head() is None:
                    break
                entry = pop_head()
                self._now = entry[0]
                executed += 1
                entry[3].callback()
        finally:
            self.events_executed += executed

    def stop(self) -> None:
        """Stop the currently running :meth:`run`/:meth:`run_until` loop."""
        self._stopped = True

    def pending_events(self) -> int:
        """Number of live (non-cancelled) events still queued."""
        return self._queue.live_count()

    def next_event_time(self) -> Optional[float]:
        """Time of the earliest live event, or None when the queue is empty.

        Purges cancelled heads as a side effect (same lazy-deletion pass
        the run loop performs).  :mod:`repro.parsim` uses this to skip
        empty synchronization windows: the global minimum next-event
        time over all shards bounds how far every shard can jump without
        anything happening in between.
        """
        head = self._queue._purge_head()
        return None if head is None else float(head[0])


class PeriodicTask:
    """Handle for a repeating callback created by :meth:`Simulator.every`."""

    def __init__(self, sim: Simulator, interval: float,
                 callback: Callable[[], None], jitter: float,
                 rng_stream: str) -> None:
        self._sim = sim
        self.interval = interval
        self._callback = callback
        self._jitter = jitter
        self._rng_stream = rng_stream
        # Jittered tasks draw per firing; resolve the stream once here
        # (the stream's seed depends only on its name, so binding at
        # init draws the same sequence as looking it up per firing).
        self._jitter_rng = sim.rng.stream(rng_stream) if jitter > 0 else None
        self._handle: Optional[ScheduledEvent] = None
        self._cancelled = False
        self.fire_count = 0

    def _schedule_at(self, time: float) -> None:
        if self._cancelled:
            return
        if self._jitter_rng is not None:
            offset = self._jitter_rng.uniform(-self._jitter, self._jitter)
            when = max(self._sim._now, time + offset)
        else:
            when = max(self._sim._now, time)
        self._handle = self._sim.call_at(when, self._fire)

    def _fire(self) -> None:
        if self._cancelled:
            return
        self.fire_count += 1
        base = self._sim.now
        self._callback()
        if not self._cancelled:
            self._schedule_at(base + self.interval)

    def cancel(self) -> None:
        self._cancelled = True
        if self._handle is not None:
            self._handle.cancel()
