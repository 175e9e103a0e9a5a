"""EventQueue internals: lazy deletion, purge, zero-delay lane, compaction."""

import random

import pytest

from repro.sim.events import _PURGE_MIN_CANCELLED, EventQueue, ScheduledEvent
from repro.sim.kernel import Simulator


def noop():
    pass


class TestPurgeHead:
    def test_peek_skips_cancelled_head(self):
        q = EventQueue()
        first = q.push(1.0, noop)
        q.push(2.0, noop)
        first.cancel()
        assert q.peek_time() == 2.0

    def test_pop_skips_cancelled_runs(self):
        q = EventQueue()
        handles = [q.push(float(i), noop) for i in range(6)]
        for h in handles[::2]:
            h.cancel()
        popped = []
        while True:
            ev = q.pop()
            if ev is None:
                break
            popped.append(ev.time)
        assert popped == [1.0, 3.0, 5.0]

    def test_purge_merges_zero_lane_before_heap(self):
        q = EventQueue()
        a = q.push(5.0, noop)           # heap: (5.0, 0, 0)
        b = q.push_zero(3.0, noop)      # zero: (3.0, 0, 1) -> runs first
        c = q.push_zero(5.0, noop)      # zero: (5.0, 0, 2) -> after a
        order = [q.pop() for _ in range(3)]
        assert order == [b, a, c]

    def test_empty_queue(self):
        q = EventQueue()
        assert q.pop() is None
        assert q.peek_time() is None
        assert q.live_count() == 0

    def test_cancelled_only_queue_drains_to_none(self):
        q = EventQueue()
        h = q.push(1.0, noop)
        h.cancel()
        assert q.peek_time() is None
        assert q.pop() is None
        assert q.live_count() == 0


class TestLiveCount:
    def test_live_count_excludes_cancelled(self):
        q = EventQueue()
        handles = [q.push(float(i), noop) for i in range(5)]
        assert q.live_count() == 5
        handles[0].cancel()
        handles[3].cancel()
        assert q.live_count() == 3
        assert len(q) == 5  # raw entries still queued (lazy deletion)

    def test_pending_events_reports_live_only(self):
        sim = Simulator()
        handles = [sim.call_after(float(i + 1), noop) for i in range(4)]
        zero = sim.call_after(0.0, noop)
        assert sim.pending_events() == 5
        handles[1].cancel()
        zero.cancel()
        assert sim.pending_events() == 3

    def test_double_cancel_counts_once(self):
        q = EventQueue()
        h = q.push(1.0, noop)
        q.push(2.0, noop)
        h.cancel()
        h.cancel()
        assert q.live_count() == 1


class TestCompaction:
    def test_mass_cancellation_compacts_heap(self):
        q = EventQueue()
        n = 4 * _PURGE_MIN_CANCELLED
        handles = [q.push(float(i), noop) for i in range(n)]
        # Cancel from the back so nothing is purged at the head.
        for h in handles[:_PURGE_MIN_CANCELLED:-1]:
            h.cancel()
        # A cancelled majority triggered at least one compaction pass,
        # so the queue holds far fewer raw entries than were pushed.
        assert q.live_count() == _PURGE_MIN_CANCELLED + 1
        assert len(q) < n // 2

    def test_order_survives_compaction(self):
        q = EventQueue()
        n = 4 * _PURGE_MIN_CANCELLED
        handles = [q.push(float(i), noop) for i in range(n)]
        keep = [h for i, h in enumerate(handles) if i % 4 == 0]
        for i, h in enumerate(handles):
            if i % 4 != 0:
                h.cancel()
        order = []
        while True:
            ev = q.pop()
            if ev is None:
                break
            order.append(ev)
        assert order == keep

    def test_small_queues_never_compact(self):
        q = EventQueue()
        handles = [q.push(float(i), noop) for i in range(10)]
        for h in handles:
            h.cancel()
        # Below the minimum there is nothing to compact away eagerly.
        assert len(q) == 10
        assert q.live_count() == 0


class TestZeroDelayFastPath:
    def test_call_after_zero_uses_fifo_lane(self):
        sim = Simulator()
        sim.call_after(0.0, noop)
        assert len(sim._queue._zero) == 1
        assert len(sim._queue._heap) == 0

    def test_nonzero_priority_bypasses_fast_path(self):
        sim = Simulator()
        sim.call_after(0.0, noop, priority=1)
        assert len(sim._queue._zero) == 0
        assert len(sim._queue._heap) == 1

    def test_zero_delay_chain_runs_in_fifo_order(self):
        sim = Simulator()
        out = []
        sim.call_after(0.0, lambda: out.append("a"))
        sim.call_after(0.0, lambda: out.append("b"))
        sim.call_at(0.0, lambda: out.append("heap"))
        sim.run_until(0.0)
        # Heap entry has an earlier seq only if pushed earlier; here the
        # two FIFO entries were pushed first, so they run first.
        assert out == ["a", "b", "heap"]

    def test_zero_delay_interleaves_with_timed_events(self):
        sim = Simulator()
        out = []

        def at_five():
            out.append(("t5", sim.now))
            sim.call_after(0.0, lambda: out.append(("cont", sim.now)))

        sim.call_at(5.0, at_five)
        sim.call_at(6.0, lambda: out.append(("t6", sim.now)))
        sim.run_until(10.0)
        assert out == [("t5", 5.0), ("cont", 5.0), ("t6", 6.0)]


class TestHandle:
    def test_handle_is_slotted(self):
        ev = ScheduledEvent(0.0, noop, None)
        assert not hasattr(ev, "__dict__")
        with pytest.raises(AttributeError):
            ev.arbitrary_attribute = 1

    def test_pop_clears_queue_backref(self):
        q = EventQueue()
        h = q.push(1.0, noop)
        assert q.pop() is h
        assert h._queue is None
        h.cancel()  # cancel after pop must not corrupt the counter
        assert q.live_count() == 0


def drain(q):
    """Pop every live entry, returning ``(time, priority, seq)`` keys."""
    out = []
    while True:
        head = q._purge_head()
        if head is None:
            assert q.pop() is None
            return out
        entry = q._pop_head()
        out.append(entry[:3])


class Reference:
    """Brute-force model of the queue: a dict of live entry keys.

    ``seq`` is the push index, exactly as :class:`EventQueue` assigns
    it, so the expected pop order is just the sorted live keys.
    """

    def __init__(self):
        self.live = {}
        self.pushed = 0

    def push(self, time, priority=0):
        key = (time, priority, self.pushed)
        self.live[self.pushed] = key
        self.pushed += 1

    def cancel(self, i):
        self.live.pop(i, None)  # a popped entry stays popped

    def head(self):
        return min(self.live.values()) if self.live else None

    def pop(self):
        key = self.head()
        del self.live[key[2]]
        return key

    def order(self):
        return sorted(self.live.values())


def apply_ops(q, ops):
    """Replay a schedule on ``q``: ('push', t, prio) | ('zero', now) |
    ('cancel', i).  Returns the reference model of the same schedule."""
    ref = Reference()
    handles = []
    for op in ops:
        if op[0] == "push":
            handles.append(q.push(op[1], noop, priority=op[2]))
            ref.push(op[1], op[2])
        elif op[0] == "zero":
            handles.append(q.push_zero(op[1], noop))
            ref.push(op[1])
        else:
            handles[op[1]].cancel()
            ref.cancel(op[1])
    return ref


def random_schedule(rng, n_events=500):
    """A randomized op sequence with ties, zero-gaps, and cancellations.

    The zero lane requires ``now`` to be monotone (the kernel clock
    guarantees it); pushes may target any future or past time.
    """
    ops = []
    now = 0.0
    n_handles = 0
    for _ in range(n_events):
        r = rng.random()
        if r < 0.55:
            # Ties are the interesting case: coarse-grained times.
            t = rng.choice([now, now + 0.0, round(now + rng.random() * 20, 1),
                            rng.choice([0.0, 1.0, 5.0, 5.0, 100.0])])
            ops.append(("push", t, rng.choice([-1, 0, 0, 0, 5])))
            n_handles += 1
        elif r < 0.8:
            ops.append(("zero", now))
            n_handles += 1
        elif n_handles:
            ops.append(("cancel", rng.randrange(n_handles)))
        if rng.random() < 0.3:
            now = round(now + rng.random() * 5, 1)
    return ops


class TestReferenceOrder:
    """Pop order equals the sorted ``(time, priority, seq)`` live keys,
    across ties, the zero-delay lane, cancels and compaction."""

    @pytest.mark.parametrize("trial", range(30))
    def test_pop_order_matches_reference(self, trial):
        q = EventQueue()
        ref = apply_ops(q, random_schedule(random.Random(9000 + trial)))
        assert q.live_count() == len(ref.live)
        assert drain(q) == ref.order()

    @pytest.mark.parametrize("trial", range(10))
    def test_interleaved_pop_push(self, trial):
        # Pop mid-schedule the way the kernel does, with the clock
        # following the popped entry's time and zero-delay pushes
        # landing at that clock.
        rng = random.Random(7000 + trial)
        q, ref = EventQueue(), Reference()
        handles = []
        popped = 0
        now = 0.0
        for _ in range(400):
            r = rng.random()
            if r < 0.4:
                t = now + rng.choice([0.0, 0.5, rng.random() * 30])
                prio = rng.choice([-1, 0, 0, 3])
                handles.append(q.push(t, noop, priority=prio))
                ref.push(t, prio)
            elif r < 0.5:
                handles.append(q.push_zero(now, noop))
                ref.push(now)
            elif r < 0.6 and handles:
                i = rng.randrange(len(handles))
                handles[i].cancel()
                ref.cancel(i)
            else:
                head = q._purge_head()
                assert (None if head is None else head[:3]) == ref.head()
                if head is not None:
                    entry = q._pop_head()
                    assert entry[:3] == ref.pop()
                    popped += 1
                    now = entry[0]
            assert q.live_count() == len(ref.live)
        popped += len(ref.live)
        assert drain(q) == ref.order()
        assert popped > 100

    def test_same_timestamp_fifo_within_priority(self):
        q = EventQueue()
        ops = [("push", 5.0, p) for p in (0, 0, -1, 5, 0, -1)]
        ops += [("push", 5.0, 0)] * 10
        ref = apply_ops(q, ops)
        order = drain(q)
        assert order == ref.order()
        # Within a priority class, seq (push order) strictly increases.
        by_prio = {}
        for _, prio, seq in order:
            assert by_prio.get(prio, -1) < seq
            by_prio[prio] = seq

    def test_mass_cancellation_compaction(self):
        q = EventQueue()
        n = 6 * _PURGE_MIN_CANCELLED
        ops = [("push", float(i % 37), 0) for i in range(n)]
        ops += [("cancel", i) for i in range(n) if i % 4]
        ref = apply_ops(q, ops)
        assert len(q) < n // 2  # compaction ran
        assert q.live_count() == len(ref.live)
        assert drain(q) == ref.order()

    def test_len_and_live_count_match_reference(self):
        q = EventQueue()
        ops = [("push", float(i), 0) for i in range(20)]
        ops += [("zero", 0.0)] * 3 + [("cancel", 4), ("cancel", 21)]
        ref = apply_ops(q, ops)
        assert len(q) == ref.pushed  # lazy deletion keeps raw entries
        assert q.live_count() == len(ref.live)
