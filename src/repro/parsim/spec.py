"""Spawn-safe run specification for region-sharded parallel simulation.

A :class:`ParsimSpec` carries everything a worker process needs to
rebuild its shard of the simulation: the scenario shape (mirroring
:mod:`repro.scenarios`), the seed, and the shard topology.  It is a
frozen dataclass of primitives — the same pattern as
:class:`repro.sweep.spec.RunSpec` — so the spawn start method can
pickle it into a fresh interpreter.

The region → shard mapping is *contiguous over the sorted region
names*: deterministic, balanced to within one region, and independent
of anything but ``(n_regions, n_shards)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

#: Scenarios parsim can shard.  Mirrors ``repro.scenarios.SCENARIOS``
#: but is its own table: parsim rebuilds the scenario *workload* inside
#: each shard and wires its own platform around it.
PARSIM_SCENARIOS = ("dayrun", "fleetrun")


@dataclass(frozen=True)
class ParsimSpec:
    """One parallel run, fully described by primitives."""

    scenario: str = "dayrun"
    seed: int = 7
    horizon_s: float = 900.0
    total_rate: float = 8.0
    n_functions: int = 60
    n_regions: int = 6
    opportunistic_fraction: float = 0.6
    #: Diurnal shape (dayrun only).
    peak_to_trough: float = 4.3
    #: Fleet sizing target (dayrun only).
    target_utilization: float = 0.70
    #: Explicit fleet size (fleetrun only; ignored for dayrun).
    n_workers: int = 400
    n_shards: int = 1
    collect_traces: bool = True
    #: Run every shard under the repro.sim.simsan runtime sanitizer
    #: (bit-identical digests; cross-shard violations raise).
    sanitize: bool = False

    def __post_init__(self) -> None:
        if self.scenario not in PARSIM_SCENARIOS:
            raise ValueError(
                f"unknown parsim scenario {self.scenario!r}; "
                f"expected one of {sorted(PARSIM_SCENARIOS)}")
        if self.n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {self.n_shards}")
        if self.n_regions < 1:
            raise ValueError(f"n_regions must be >= 1, got {self.n_regions}")
        if self.horizon_s <= 0:
            raise ValueError("horizon_s must be positive")

    @property
    def effective_shards(self) -> int:
        """Shard count actually usable: one shard per region at most."""
        return min(self.n_shards, self.n_regions)


def partition_regions(region_names: Sequence[str],
                      n_shards: int) -> List[List[str]]:
    """Split sorted region names into contiguous, balanced shard groups.

    Shard ``i`` receives ``n // s`` regions plus one extra when
    ``i < n % s`` — group sizes differ by at most one, and the mapping
    depends only on the sorted name order.
    """
    names = sorted(region_names)
    n = len(names)
    if n_shards < 1:
        raise ValueError(f"n_shards must be >= 1, got {n_shards}")
    n_shards = min(n_shards, n)
    groups: List[List[str]] = []
    base, extra = divmod(n, n_shards)
    start = 0
    for i in range(n_shards):
        size = base + (1 if i < extra else 0)
        groups.append(names[start:start + size])
        start += size
    return groups


def shard_of_region(region_names: Sequence[str], n_shards: int,
                    region: str) -> int:
    """Index of the shard owning ``region`` under :func:`partition_regions`."""
    for i, group in enumerate(partition_regions(region_names, n_shards)):
        if region in group:
            return i
    raise KeyError(f"unknown region {region!r}")
