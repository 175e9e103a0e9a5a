"""RunQ: the scheduler's ordered output queue with flow control (§4.4).

The paper describes "a single ordered RunQ of function calls that will
be dispatched for execution" — ordered by the same criteria as the
FuncBuffers (criticality first, then deadline), so a burst of deferred
batch work admitted earlier cannot head-of-line-block a critical call
admitted a tick later.

Its length is the scheduler's flow-control signal: a RunQ near capacity
slows both FuncBuffer→RunQ movement and DurableQ polling, so backlog
accumulates in the durable store rather than in scheduler memory.
"""

from __future__ import annotations

import heapq
import itertools
from typing import List, Optional, Tuple

from .call import FunctionCall


class RunQ:
    """Bounded priority queue of runnable calls."""

    def __init__(self, capacity: int = 1000) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._heap: List[Tuple[tuple, int, FunctionCall]] = []
        self._seq = itertools.count()

    def __len__(self) -> int:
        return len(self._heap)

    @property
    def free_space(self) -> int:
        return max(0, self.capacity - len(self._heap))

    @property
    def full(self) -> bool:
        return len(self._heap) >= self.capacity

    def push(self, call: FunctionCall) -> None:
        if len(self._heap) >= self.capacity:
            raise OverflowError("RunQ is full (flow control should prevent this)")
        call.mark_runnable()
        heapq.heappush(self._heap, (call.sort_key(), next(self._seq), call))

    def pop(self) -> Optional[FunctionCall]:
        if not self._heap:
            return None
        return heapq.heappop(self._heap)[2]

    def drain(self) -> List[FunctionCall]:
        """Remove and return every call, in pop order."""
        heap = self._heap
        # Entries are unique (seq) and totally ordered, so a sorted heap
        # is exactly the successive-pop order.
        heap.sort()
        calls = [entry[2] for entry in heap]
        heap.clear()
        return calls

    def push_front(self, call: FunctionCall) -> None:
        """Return a call the WorkerLB could not place.

        In a priority queue this is just a push — the call keeps its
        priority and will be retried in order.
        """
        heapq.heappush(self._heap, (call.sort_key(), next(self._seq), call))

    def peek(self) -> Optional[FunctionCall]:
        return self._heap[0][2] if self._heap else None

    def fill_fraction(self) -> float:
        return len(self._heap) / self.capacity
