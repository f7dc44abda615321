"""Interaction counts over a span of a trace.

One type, InteractionGraph, holds the counts of the whole trace so far, of
one metric window and of one repartition period. Records are directed
(caller -> callee), but all cut/partition logic works on the undirected view
kept here: anti-parallel pairs merge with summed weight, keyed by the sorted
endpoint pair. Self-loops are counted too (they can never be cut).

Vertices are any ordered keys: the replay's graphs are keyed (and their edges
oriented) by dense int vertex id, ``window_subgraph``'s by address.
"""

from __future__ import annotations

from typing import Iterable

from shardsim.trace import TraceRecord


class InteractionGraph:
    """Record counts over a span of a trace.

    ``vertices`` counts endpoint touches per vertex, so a self-loop record
    adds 2 to its single vertex; ``undirected`` counts records per undirected
    endpoint pair. Both dicts keep the order in which keys first appeared.
    """

    def __init__(self) -> None:
        self.vertices: dict = {}  # vertex -> endpoint touches
        self.undirected: dict[tuple, int] = {}  # (lesser, greater) vertex -> records

    def record(self, src, dst) -> None:
        """Count one interaction."""
        vertices = self.vertices
        vertices[src] = vertices.get(src, 0) + 1
        vertices[dst] = vertices.get(dst, 0) + 1
        key = (src, dst) if src <= dst else (dst, src)
        undirected = self.undirected
        undirected[key] = undirected.get(key, 0) + 1

    def merge(self, other: InteractionGraph) -> None:
        """Add the counts of a later span; new keys follow in its order."""
        vertices, undirected = self.vertices, self.undirected
        for v, w in other.vertices.items():
            vertices[v] = vertices.get(v, 0) + w
        for key, w in other.undirected.items():
            undirected[key] = undirected.get(key, 0) + w


# The replay folds each record's endpoints into the current metric window with
# ``apply_record(window, src, dst)`` and merges each finished window into the
# longer spans at its boundary, so a record is counted once on ingest.
apply_record = InteractionGraph.record


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
            sub.record(r.src, r.dst)
    return sub


def activity_from_records(log: Iterable[TraceRecord], window_start: int, window_len: int) -> InteractionGraph:
    """Counts of the records in [window_start, window_start + window_len)."""
    return window_subgraph(log, window_start, window_start + window_len)
