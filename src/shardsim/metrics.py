"""Edge-cut, balance, and move-count metrics for a shard assignment.

Static metrics count vertices and undirected edges; dynamic metrics weight
them by interaction activity. A cut edge is counted once regardless of
direction, so the edge-cut fraction is "share of (weighted) edges whose
endpoints sit in different shards". Self-loops can never be cut but do count
in the denominator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from shardsim.graph import InteractionGraph


class DomainMismatch(ValueError):
    """Raised when two assignments do not cover the same vertex set."""


@dataclass
class Assignment:
    """Total map vertex -> shard index in [0, k)."""

    shard_of: dict[str, int]
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


def edge_cut(
    graph: InteractionGraph,
    a: Assignment,
    weighting: str = "static",
    activity: Mapping[tuple[str, str], int] | None = None,
) -> float:
    """Fraction of (weighted) undirected edges crossing shards, in [0, 1].

    Static mode counts edges; dynamic mode weights each undirected edge by
    ``activity`` (a map keyed like InteractionGraph.undirected). A graph or
    window with no edges has edge-cut 0 by definition.
    """
    if weighting == "static":
        total = graph.num_undirected_edges
        if total == 0:
            return 0.0
        shard_of = a.shard_of
        cut = 0
        for u, v in graph.undirected:
            if u != v and shard_of[u] != shard_of[v]:
                cut += 1
        return cut / total
    if weighting == "dynamic":
        if activity is None:
            raise ValueError("dynamic edge_cut requires activity weights")
        total = 0
        cut = 0
        shard_of = a.shard_of
        for (u, v), w in activity.items():
            total += w
            if u != v and shard_of[u] != shard_of[v]:
                cut += w
        if total == 0:
            return 0.0
        return cut / total
    raise ValueError(f"unknown weighting {weighting!r}")


def balance(
    graph: InteractionGraph,
    a: Assignment,
    weighting: str = "static",
    activity: Mapping[str, int] | None = None,
) -> float:
    """Heaviest shard relative to the ideal equal share; 1 is perfect.

    Static mode measures shard sizes in vertices: max_i |p_i| * k / |V|.
    Dynamic mode substitutes summed per-vertex activity for shard size.
    An empty graph (or zero total activity) has balance 1 by definition.
    """
    k = a.k
    if weighting == "static":
        if graph.num_vertices == 0:
            return 1.0
        sizes = [0] * k
        for v in graph.vertices:
            sizes[a.shard_of[v]] += 1
        return max(sizes) * k / graph.num_vertices
    if weighting == "dynamic":
        if activity is None:
            raise ValueError("dynamic balance requires activity weights")
        loads = [0] * k
        total = 0
        for v, w in activity.items():
            loads[a.shard_of[v]] += w
            total += w
        if total == 0:
            return 1.0
        return max(loads) * k / total
    raise ValueError(f"unknown weighting {weighting!r}")


def normalized_balance(b: float, k: int) -> float:
    """Rescale a balance ratio to [0, 1] for cross-k comparison: (b-1)/(k-1)."""
    if k <= 1:
        return 0.0
    return (b - 1.0) / (k - 1.0)


def count_moves(old: Assignment, new: Assignment) -> int:
    """Number of vertices whose shard differs between two assignments."""
    if old.shard_of.keys() != new.shard_of.keys():
        raise DomainMismatch("assignments cover different vertex sets")
    new_of = new.shard_of
    return sum(1 for v, s in old.shard_of.items() if new_of[v] != s)
