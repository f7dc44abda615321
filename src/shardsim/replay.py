"""Trace replay: drive records through a sharding strategy over trace time.

The replay keeps running interaction counts, never the records: each record
is counted once, into the current metric window; at every window boundary
the finished window is merged into the graph of the whole trace so far and
into ``target``, the graph the next repartition partitions. Under
metis-full that is the whole-trace graph; under kl, metis-window and
metis-threshold it is the windows finished since the last repartition, which
is the whole-trace graph until the first one. The replay also keeps the
current shard assignment and its shard sizes. At every metric-window
boundary it emits a MetricSample and evaluates the strategy's repartition
trigger; repartitions are applied at the boundary, so samples sit on a uniform
grid anchored at the first record.

Each address becomes a dense int id, in order of first appearance, in one table
whose keys are thus the addresses in id order; graphs are keyed by id and the
assignment is a part vector by id. Addresses are read only to hash a new vertex
and to order KL's vertices; the final assignment is written over the table.
"""

from __future__ import annotations

import logging
from collections import Counter, defaultdict
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, NamedTuple

from shardsim.graph import InteractionGraph, apply_record
# Unused here; bench/layers.py wraps these names of this module.
from shardsim.graph import activity_from_records, window_subgraph  # noqa: F401
from shardsim.metrics import Assignment, MetricSample, balance, count_moves, edge_cut, load_balance, shard_loads
from shardsim.partition import (
    PartitionerConfig,
    assign_new_vertex,
    hash_partition,
    kl_build_matrix,
    kl_exchange,
    kl_select_candidates,
    multilevel_partition,
)
from shardsim.trace import TraceRecord

log = logging.getLogger(__name__)

HOUR = 3600
DAY = 86400


class Strategy(Enum):
    HASHING = "hashing"
    KL = "kl"
    METIS_FULL = "metis-full"
    METIS_WINDOW = "metis-window"
    METIS_THRESHOLD = "metis-threshold"


@dataclass
class ReplayConfig:
    k: int
    strategy: Strategy
    metric_window: int = 4 * HOUR
    repartition_interval: int = 14 * DAY
    cut_threshold: float = 0.3
    balance_threshold: float = 1.5
    epsilon: float = PartitionerConfig.epsilon  # this and seed go to the partitioner
    seed: int = PartitionerConfig.seed
    kl_rounds: int = 1
    cumulative_weights: bool = False  # dynamic metrics from all-history weights

    def __post_init__(self) -> None:
        if isinstance(self.strategy, str):
            self.strategy = Strategy(self.strategy)
        self.partitioner  # checks k and epsilon
        if self.kl_rounds < 1:
            raise ValueError("kl_rounds must be >= 1")
        if not (self.cut_threshold >= 0 and self.balance_threshold >= 0):  # NaN fails too; inf never fires
            raise ValueError("cut_threshold and balance_threshold must be >= 0")
        if self.metric_window <= 0:
            raise ValueError("metric_window must be positive")
        periodic = self.strategy in (Strategy.KL, Strategy.METIS_FULL, Strategy.METIS_WINDOW)
        if periodic and self.repartition_interval < self.metric_window:  # the others never read the interval
            raise ValueError("repartition_interval must be >= metric_window")

    @property
    def partitioner(self) -> PartitionerConfig:
        """The partitioner's settings, built from ``k``, ``epsilon`` and ``seed`` at each read."""
        return PartitionerConfig(self.k, self.epsilon, self.seed)


@dataclass
class ReplayResult:
    samples: list[MetricSample]
    total_moves: int
    repartition_timestamps: list[int]
    final_assignment: Assignment  # address -> shard, addresses in order of first appearance


class Repartition(NamedTuple):
    assignment: Assignment
    moves: int
    raw_moves: int  # before shard-label matching
    shard_sizes: list[int]  # vertices per shard of ``assignment``


def fire_trigger(clock: int, last_repart: int, last_sample: MetricSample, cfg: ReplayConfig) -> bool:
    """Should a repartition run at this metric-window boundary?"""
    strategy = cfg.strategy
    if strategy is Strategy.HASHING:
        return False
    if strategy is Strategy.METIS_THRESHOLD:
        return (
            last_sample.dynamic_edge_cut > cfg.cut_threshold
            or last_sample.dynamic_balance > cfg.balance_threshold
        )
    return clock - last_repart >= cfg.repartition_interval


def relabel_to_match(overlap: Counter, k: int) -> list[int]:
    """Rename new shard labels to maximize vertex overlap with the old labels.

    ``overlap[s_new, s_old]`` counts the vertices that new shard ``s_new``
    takes from old shard ``s_old``, with no zero counts. Greedy
    maximum-overlap matching; returns the old label each new label takes, by
    new label. A pure label permutation relocates no state and must not count
    as moves.
    """
    mapping: dict[int, int] = {}
    for (s_new, s_old), _ in sorted(overlap.items(), key=lambda kv: (-kv[1], kv[0])):
        if s_new not in mapping and s_old not in mapping.values():
            mapping[s_new] = s_old
    free = [s for s in range(k) if s not in mapping.values()]
    mapping.update(zip([s for s in range(k) if s not in mapping], free))
    return [mapping[s] for s in range(k)]


def repartition(
    target: InteractionGraph,
    a: Assignment,
    shard_sizes: list[int],
    cfg: ReplayConfig,
    clock: int,
    names: Iterable[str],
) -> Repartition:
    """Run one repartition of ``target`` under ``cfg.strategy``.

    ``target`` is keyed by id, ``a`` is a part vector, ``shard_sizes`` its
    vertices per shard, and ``names`` the addresses in id order, read only by
    KL; vertices outside ``target`` keep their shard. Never called under
    hashing, whose trigger never fires.

    Only ``target``'s vertices can change shard, so every count is taken over
    them: a repartition costs its graph, plus O(k²) for the label matching,
    plus one copy of the part vector, and a pass over the part vector only
    when the matching renames a shard.
    """
    strategy = cfg.strategy
    period = target.vertices
    if strategy is Strategy.KL:
        new = a
        names = list(names)  # id -> address, KL's vertex order
        for rnd in range(cfg.kl_rounds):
            cands = kl_select_candidates(new, target, names.__getitem__)
            matrix = kl_build_matrix(cands, new, target)
            new = kl_exchange(new, cands, matrix, cfg.seed ^ clock ^ (rnd << 32))
        shard_of = new.shard_of  # a copy of a's, changed only at candidates, all of them in ``period``
        part = [shard_of[v] for v in period]
    else:
        if not period:
            return Repartition(a, 0, 0, shard_sizes)  # nothing to partition
        weights = "unit" if strategy is Strategy.METIS_FULL else "activity"
        res = multilevel_partition(target, cfg.partitioner, weights=weights)
        part = res.assignment.shard_of  # in ``period`` order
        shard_of = a.shard_of.copy()
        for v, s in zip(period, part):
            shard_of[v] = s
        if res.infeasible_balance:
            log.info(
                "repartition at %d: balance cap %g not met (heaviest vertex weighs %d)",
                clock, res.balance_cap, res.max_vertex_weight,
            )
    k = cfg.k
    old_of = a.shard_of
    old = [old_of[v] for v in period]
    raw_moves = count_moves(Assignment(old, k), Assignment(part, k))
    # Vertices by (new, old) shard: the period's, then those outside it, who
    # stay where they are, on the diagonal.
    overlap = Counter(zip(part, old))
    outside = shard_sizes.copy()
    for (_, s_old), n in overlap.items():
        outside[s_old] -= n
    for s, n in enumerate(outside):
        if n:  # the matching reads the same counts as over the whole vector
            overlap[s, s] += n
    mapping = relabel_to_match(overlap, k)
    moves = sum(n for (s_new, s_old), n in overlap.items() if mapping[s_new] != s_old)
    sizes = shard_loads([mapping[s_new] for s_new, _ in overlap], overlap.values(), k)
    if mapping != list(range(k)):  # a renamed shard takes its vertices outside the period along
        shard_of = [mapping[s] for s in shard_of]
    return Repartition(Assignment(shard_of, k), moves, raw_moves, sizes)


def run_replay(trace: Iterable[TraceRecord], cfg: ReplayConfig) -> ReplayResult:
    """Replay a time-ordered record stream under one strategy.

    First-seen vertices are placed immediately: by identifier hash under
    Hashing and KL, by transaction-neighbor placement under the multilevel
    strategies. A MetricSample is emitted per metric window (empty windows
    included); repartition triggers are evaluated at each boundary against
    the sample just computed.
    """
    k = cfg.k
    pcfg = cfg.partitioner
    graph = InteractionGraph()
    ids: dict[str, int] = {}  # address -> id, keys in id order
    assignment = Assignment([], k)
    shard_sizes = [0] * k
    samples: list[MetricSample] = []
    window = InteractionGraph()
    window_end: int | None = None  # set by the first record
    # The graph the next repartition partitions: ``graph`` until a
    # repartition under kl, metis-window or metis-threshold, then None until
    # the next boundary adopts the finished window as the new period.
    target: InteractionGraph | None = graph
    last_repart = 0
    place_by_hash = cfg.strategy in (Strategy.HASHING, Strategy.KL)
    tx_counts = defaultdict(lambda: [0] * k)  # tx_id -> endpoints per shard, for multilevel placement

    def place(address: str, other: int | None, counts: list[int] | None) -> int:
        """Give a first-seen vertex the next id and a shard: by hash when
        ``counts`` is None, else next to its transaction's endpoints and
        ``other``, the record's placed counterpart."""
        if counts is None:
            s = hash_partition(address, pcfg)
        else:
            if other is not None:  # the counterpart on this record is a neighbor too
                counts = counts.copy()
                counts[assignment.shard_of[other]] += 1
            s = assign_new_vertex(counts, shard_sizes)
        v = ids[address] = len(ids)
        assignment.shard_of.append(s)
        shard_sizes[s] += 1
        return v

    def emit_boundary(clock: int) -> None:
        """Close the metric window that ends at ``clock``."""
        nonlocal window, target, assignment, shard_sizes, last_repart
        finished, window = window, InteractionGraph()
        graph.merge(finished)
        if target is None:
            target = finished
        elif target is not graph:
            target.merge(finished)
        weights = graph if cfg.cumulative_weights else finished
        # The assignment covers exactly the vertices of ``graph`` here, so
        # ``shard_sizes`` are the static shard sizes ``balance`` would count.
        sample = MetricSample(
            window_start=clock - cfg.metric_window,
            static_edge_cut=edge_cut(graph, assignment, "static"),
            dynamic_edge_cut=edge_cut(weights, assignment, "dynamic"),
            static_balance=load_balance(shard_sizes),
            dynamic_balance=balance(weights, assignment, "dynamic"),
        )
        if fire_trigger(clock, last_repart, sample, cfg):
            rep = repartition(target, assignment, shard_sizes, cfg, clock, ids)
            assignment, shard_sizes = rep.assignment, rep.shard_sizes
            sample.moves = rep.moves
            sample.repartitioned = True
            last_repart = clock
            if cfg.strategy is not Strategy.METIS_FULL:
                target = None
            log.debug("repartition at %d: %d moves (%d raw)", clock, rep.moves, rep.raw_moves)
        samples.append(sample)
        tx_counts.clear()  # shards change only here, so each row counts under one assignment

    for r in trace:
        if window_end is None:
            last_repart = r.timestamp
            window_end = last_repart + cfg.metric_window
        while r.timestamp >= window_end:
            emit_boundary(window_end)
            window_end += cfg.metric_window
        counts = None if place_by_hash else tx_counts[r.tx_id]
        src = ids.get(r.src)
        if src is None:
            src = place(r.src, ids.get(r.dst), counts)
        dst = ids.get(r.dst)
        if dst is None:
            dst = place(r.dst, src, counts)
        if counts is not None:
            counts[assignment.shard_of[src]] += 1
            counts[assignment.shard_of[dst]] += 1
        apply_record(window, src, dst)

    if window_end is not None:
        emit_boundary(window_end)

    for address, s in zip(ids, assignment.shard_of):
        ids[address] = s  # ids becomes the final map, keys still in id order
    return ReplayResult(
        samples=samples,
        total_moves=sum(s.moves for s in samples),
        repartition_timestamps=[s.window_start + cfg.metric_window for s in samples if s.repartitioned],
        final_assignment=Assignment(ids, k),
    )
