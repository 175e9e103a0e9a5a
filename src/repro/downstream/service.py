"""Load-dependent downstream service model (§4.6.3, §5.5).

A downstream service (TAO, WTCache, KVStore, …) has a healthy capacity
in requests/second.  Its load is tracked in rolling windows; when load
exceeds capacity the service starts throwing **back-pressure exceptions**
with probability growing in the overload, and a fraction of requests
fail outright (which is what produced the §5.5 retry-amplification
domino).  Services can depend on other services: failures cascade with
an amplification factor, reproducing the WTCache→KVStore incident shape.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..sim.kernel import Simulator


@dataclass(frozen=True)
class ServiceParams:
    """Capacity and overload behaviour of one service."""

    capacity_rps: float = 1000.0
    #: Load/capacity ratio where back-pressure exceptions begin.
    backpressure_knee: float = 0.9
    #: Exception probability grows linearly from 0 at the knee to this
    #: value at 2× capacity.
    max_exception_prob: float = 0.9
    #: Fraction of *exceeding* requests that fail hard (caller error).
    failure_prob_at_2x: float = 0.3
    window_s: float = 10.0

    def __post_init__(self) -> None:
        if self.capacity_rps <= 0:
            raise ValueError("capacity_rps must be positive")
        if self.backpressure_knee <= 0:
            raise ValueError("backpressure_knee must be positive")


@dataclass
class ServiceCallResult:
    """Outcome of a batch of requests from one function call."""

    ok: int = 0
    exceptions: int = 0
    failures: int = 0


class DownstreamService:
    """One downstream service with overload-driven back-pressure."""

    def __init__(self, sim: Simulator, name: str,
                 params: ServiceParams = ServiceParams(),
                 depends_on: Optional[List["DownstreamService"]] = None,
                 amplification: float = 1.0,
                 dependency_coupling: float = 1.0,
                 rng_name: Optional[str] = None) -> None:
        self.sim = sim
        self.name = name
        self.params = params
        self.depends_on = depends_on or []
        self.amplification = amplification
        if not 0.0 <= dependency_coupling <= 1.0:
            raise ValueError("dependency_coupling must be in [0, 1]")
        #: How strongly an overloaded dependency throttles this service
        #: (§5.5: KVStore throttled WTCache's requests).  0 = decoupled,
        #: 1 = capacity scales fully with the worst dependency's health.
        self.dependency_coupling = dependency_coupling
        self._window_start = 0.0
        self._window_requests = 0.0
        self._current_load_rps = 0.0
        #: Multiplier on capacity for incident injection (1.0 = healthy).
        self._capacity_factor = 1.0
        self.total_requests = 0
        self.total_exceptions = 0
        self.total_failures = 0
        self.exception_counter = None  # optional metrics Counter
        # parsim builds one stack per region and qualifies the stream
        # name by region; the default keeps the legacy global stream.
        self.rng = sim.rng.stream(rng_name or f"service/{name}")

    # ------------------------------------------------------------------
    @property
    def health(self) -> float:
        """1.0 when within capacity, degrading as overload grows."""
        ratio = self.load_ratio
        if ratio <= 1.0:
            return 1.0
        return max(0.1, 1.0 / ratio)

    @property
    def effective_capacity(self) -> float:
        capacity = self.params.capacity_rps * self._capacity_factor
        if self.depends_on and self.dependency_coupling > 0:
            worst = min(dep.health for dep in self.depends_on)
            capacity *= (1.0 - self.dependency_coupling * (1.0 - worst))
        return capacity

    @property
    def load_rps(self) -> float:
        self._roll_window()
        return self._current_load_rps

    @property
    def load_ratio(self) -> float:
        return self.load_rps / max(self.effective_capacity, 1e-9)

    def set_capacity_factor(self, factor: float) -> None:
        """Incident injection: degrade (or restore) service capacity."""
        if factor < 0:
            raise ValueError("factor must be >= 0")
        self._capacity_factor = factor

    # ------------------------------------------------------------------
    def call(self, n: int) -> ServiceCallResult:
        """Issue ``n`` requests; returns per-batch ok/exception/failure."""
        if n <= 0:
            return ServiceCallResult()
        self._roll_window()
        self._window_requests += n
        self.total_requests += n
        result = ServiceCallResult()
        ratio = self.load_ratio
        exception_prob = self._exception_prob(ratio)
        failure_prob = self._failure_prob(ratio)
        for _ in range(n):
            roll = self.rng.random()
            if roll < failure_prob:
                result.failures += 1
            elif roll < failure_prob + exception_prob:
                result.exceptions += 1
            else:
                result.ok += 1
        self.total_exceptions += result.exceptions
        self.total_failures += result.failures
        if self.exception_counter is not None and result.exceptions:
            self.exception_counter.add(self.sim.now, result.exceptions)
        # Cascade: requests amplify into dependencies; failures upstream
        # amplify retries downstream (§5.5's domino effect).
        for dep in self.depends_on:
            amplified = int(round(n * self.amplification))
            if result.failures or result.exceptions:
                amplified = int(round(amplified * 1.5))
            if amplified > 0:
                dep.call(amplified)
        return result

    # ------------------------------------------------------------------
    def _exception_prob(self, ratio: float) -> float:
        p = self.params
        if ratio <= p.backpressure_knee:
            return 0.0
        frac = min((ratio - p.backpressure_knee) / (2.0 - p.backpressure_knee),
                   1.0)
        return p.max_exception_prob * frac

    def _failure_prob(self, ratio: float) -> float:
        p = self.params
        if ratio <= 1.0:
            return 0.0
        return min((ratio - 1.0) * p.failure_prob_at_2x, p.failure_prob_at_2x)

    def _roll_window(self) -> None:
        now = self.sim.now
        elapsed = now - self._window_start
        if elapsed >= self.params.window_s:
            self._current_load_rps = self._window_requests / elapsed
            self._window_start = now
            self._window_requests = 0.0


class ServiceRegistry:
    """Name → service lookup shared by workers and benchmarks."""

    def __init__(self) -> None:
        self._services: Dict[str, DownstreamService] = {}

    def register(self, service: DownstreamService) -> None:
        if service.name in self._services:
            raise ValueError(f"service {service.name!r} already registered")
        self._services[service.name] = service

    def get(self, name: str) -> DownstreamService:
        service = self._services.get(name)
        if service is None:
            raise KeyError(f"unknown downstream service {name!r}")
        return service

    def maybe_get(self, name: str) -> Optional[DownstreamService]:
        return self._services.get(name)

    def names(self) -> List[str]:
        return sorted(self._services)
