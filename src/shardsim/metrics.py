"""Edge-cut, balance, and move-count metrics for a shard assignment.

Each metric reads one graph. Static metrics count its vertices and undirected
edges; dynamic metrics weight them by its interaction counts. A cut edge is
counted once regardless of direction, so the edge-cut fraction is "share of
(weighted) edges whose endpoints sit in different shards". Self-loops can
never be cut but do count in the denominator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from shardsim.graph import InteractionGraph


class DomainMismatch(ValueError):
    """Raised when two assignments are not part vectors of the same vertices."""


@dataclass
class Assignment:
    """Total map vertex -> shard index in [0, k).

    ``shard_of[v]`` is the shard of ``v``. It is a part vector, a list
    indexed by vertex: by dense id in the replay, by index in a
    MultilevelResult. Only ``ReplayResult.final_assignment`` is a map, keyed
    by address.
    """

    shard_of: list[int] | dict[str, int]
    k: int

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("shard count must be >= 1")


@dataclass
class MetricSample:
    """Per-measurement-window metric record."""

    window_start: int
    static_edge_cut: float
    dynamic_edge_cut: float
    static_balance: float
    dynamic_balance: float
    moves: int = 0
    repartitioned: bool = False


def edge_cut(graph: InteractionGraph, a: Assignment, weighting: str = "static") -> float:
    """Fraction of (weighted) undirected edges of ``graph`` crossing shards, in [0, 1].

    Static mode counts edges; dynamic mode weights each undirected edge by
    its record count. A graph with no edges has edge-cut 0 by definition.
    """
    if weighting == "static":
        total = len(graph.undirected)
        if total == 0:
            return 0.0
        shard_of = a.shard_of
        # Counts the uncut edges (self-loops among them): fewer when most are cut.
        return (total - sum(1 for u, v in graph.undirected if shard_of[u] == shard_of[v])) / total
    if weighting == "dynamic":
        total = cut = 0
        shard_of = a.shard_of
        for (u, v), w in graph.undirected.items():
            total += w
            if shard_of[u] != shard_of[v]:
                cut += w
        return cut / total if total else 0.0
    raise ValueError(f"unknown weighting {weighting!r}")


def shard_loads(shards: Iterable[int], weights: Iterable[int], k: int) -> list[int]:
    """Summed weight of each of k shards, ``weights[i]`` counting toward shard ``shards[i]``."""
    loads = [0] * k
    for s, w in zip(shards, weights):
        loads[s] += w
    return loads


def load_balance(loads: list[int]) -> float:
    """Heaviest load over the equal share, max * k / total; 1 for a zero total."""
    total = sum(loads)
    return max(loads) * len(loads) / total if total else 1.0


def balance(graph: InteractionGraph, a: Assignment, weighting: str = "static") -> float:
    """``load_balance`` of the shard loads of ``graph``'s vertices.

    Static mode measures shard sizes in vertices: max_i |p_i| * k / |V|.
    Dynamic mode substitutes summed per-vertex activity (endpoint touches)
    for shard size. An empty graph (or one without activity) has balance 1
    by definition.
    """
    if weighting == "static":
        loads_of = dict.fromkeys(graph.vertices, 1)
    elif weighting == "dynamic":
        loads_of = graph.vertices
    else:
        raise ValueError(f"unknown weighting {weighting!r}")
    return load_balance(shard_loads(map(a.shard_of.__getitem__, loads_of), loads_of.values(), a.k))


def normalized_balance(b: float, k: int) -> float:
    """Rescale a balance ratio to [0, 1] for cross-k comparison: (b-1)/(k-1)."""
    if k <= 1:
        return 0.0
    return (b - 1.0) / (k - 1.0)


def count_moves(old: Assignment, new: Assignment) -> int:
    """Number of vertices whose shard differs between two part vectors."""
    old_of, new_of = old.shard_of, new.shard_of
    if not (isinstance(old_of, list) and isinstance(new_of, list) and len(old_of) == len(new_of)):
        raise DomainMismatch("assignments are not part vectors of the same vertices")
    return sum(1 for s, t in zip(old_of, new_of) if s != t)
