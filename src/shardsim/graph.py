"""Evolving weighted interaction graph and per-window activity tracking.

Records are directed (caller -> callee), but all cut/partition logic works on
the undirected graph kept here: anti-parallel pairs merge with summed weight,
keyed by the sorted endpoint pair. Self-loops live in the undirected edge map
but are kept out of the adjacency (they can never be cut).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from shardsim.trace import TraceRecord, VertexKind


def ukey(a: str, b: str) -> tuple[str, str]:
    """Canonical undirected key for an edge."""
    return (a, b) if a <= b else (b, a)


@dataclass
class VertexInfo:
    kind: VertexKind
    weight: int = 0  # number of records touching this vertex


class InteractionGraph:
    """Weighted undirected interaction graph: edge weights count the records
    between two vertices in either direction."""

    def __init__(self) -> None:
        self.vertices: dict[str, VertexInfo] = {}
        self.undirected: dict[tuple[str, str], int] = {}
        self.adj: dict[str, dict[str, int]] = {}

    def __len__(self) -> int:
        return len(self.vertices)

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    @property
    def num_undirected_edges(self) -> int:
        return len(self.undirected)

    def total_edge_weight(self) -> int:
        return sum(self.undirected.values())

    def ensure_vertex(self, vertex: str, kind: VertexKind) -> VertexInfo:
        info = self.vertices.get(vertex)
        if info is None:
            info = VertexInfo(kind)
            self.vertices[vertex] = info
            self.adj[vertex] = {}
        return info

    def add_interaction(self, src: str, src_kind: VertexKind, dst: str, dst_kind: VertexKind) -> None:
        """Apply one interaction: bump vertex weights and the edge weight."""
        sinfo = self.ensure_vertex(src, src_kind)
        dinfo = self.ensure_vertex(dst, dst_kind)
        sinfo.weight += 1
        dinfo.weight += 1
        key = ukey(src, dst)
        self.undirected[key] = self.undirected.get(key, 0) + 1
        if src != dst:
            self.adj[src][dst] = self.adj[src].get(dst, 0) + 1
            self.adj[dst][src] = self.adj[dst].get(src, 0) + 1


@dataclass
class WindowActivity:
    """Interaction counts within one measurement window.

    ``edge_activity`` is keyed by the undirected endpoint pair (self-loops
    included); ``vertex_activity`` counts endpoint touches, so a self-loop
    record adds 2 to its single vertex.
    """

    window_start: int
    window_len: int
    edge_activity: dict[tuple[str, str], int] = field(default_factory=dict)
    vertex_activity: dict[str, int] = field(default_factory=dict)

    @property
    def window_end(self) -> int:
        return self.window_start + self.window_len

    def record(self, src: str, dst: str) -> None:
        key = ukey(src, dst)
        self.edge_activity[key] = self.edge_activity.get(key, 0) + 1
        self.vertex_activity[src] = self.vertex_activity.get(src, 0) + 1
        self.vertex_activity[dst] = self.vertex_activity.get(dst, 0) + 1

    def total_edge_activity(self) -> int:
        return sum(self.edge_activity.values())


def apply_record(graph: InteractionGraph, activity: WindowActivity, r: TraceRecord) -> None:
    """Fold one trace record into the graph and the current window activity."""
    graph.add_interaction(r.src, r.src_kind, r.dst, r.dst_kind)
    activity.record(r.src, r.dst)


def close_window(activity: WindowActivity) -> tuple[WindowActivity, WindowActivity]:
    """Finish the current window; return it plus a zeroed successor window."""
    fresh = WindowActivity(activity.window_start + activity.window_len, activity.window_len)
    return activity, fresh


def window_subgraph(log: Iterable[TraceRecord], from_t: int, to_t: int) -> InteractionGraph:
    """Graph of exactly the records with from_t <= timestamp < to_t.

    Weights are counted over the interval only; an empty window yields an
    empty graph.
    """
    if from_t > to_t:
        raise ValueError("from_t must not exceed to_t")
    sub = InteractionGraph()
    for r in log:
        if from_t <= r.timestamp < to_t:
            sub.add_interaction(r.src, r.src_kind, r.dst, r.dst_kind)
    return sub


def activity_from_records(log: Iterable[TraceRecord], window_start: int, window_len: int) -> WindowActivity:
    """Build a WindowActivity over an arbitrary record span (used for
    repartition-period weights)."""
    act = WindowActivity(window_start, window_len)
    end = window_start + window_len
    for r in log:
        if window_start <= r.timestamp < end:
            act.record(r.src, r.dst)
    return act
