"""Trace replay: drive records through a sharding strategy over trace time.

The replay keeps running interaction counts, never the records: each record
is counted once, into the current metric window; at every window boundary
the finished window is merged into the graph of the whole trace so far and,
for the strategies that partition recent activity, into the period since the
last repartition. It also keeps the current shard assignment and its shard
sizes. At every metric-window boundary it emits a MetricSample and evaluates
the strategy's repartition trigger; repartitions are applied at the boundary,
so samples sit on a uniform grid anchored at the first record.

Each address becomes a dense int id, in order of first appearance; the graphs
are keyed by id and the assignment is a part vector indexed by id. Addresses
are read only to hash a new vertex, to order KL's vertices and to build the
final assignment.
"""

from __future__ import annotations

import logging
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Sequence

from shardsim.graph import InteractionGraph, apply_record
# Unused here; bench/layers.py wraps these names of this module.
from shardsim.graph import activity_from_records, window_subgraph  # noqa: F401
from shardsim.metrics import Assignment, MetricSample, balance, count_moves, edge_cut
from shardsim.partition import (
    MultilevelResult,
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
    epsilon: float = 0.05  # this and the next two go to the partitioner
    seed: int = 0
    kl_rounds: int = 1
    cumulative_weights: bool = False  # dynamic metrics from all-history weights
    partitioner: PartitionerConfig = field(init=False)  # built from k and the three above

    def __post_init__(self) -> None:
        if isinstance(self.strategy, str):
            self.strategy = Strategy(self.strategy)
        self.partitioner = PartitionerConfig(self.k, self.epsilon, self.seed, self.kl_rounds)
        if self.metric_window <= 0:
            raise ValueError("metric_window must be positive")
        if self.repartition_interval < self.metric_window:
            raise ValueError("repartition_interval must be >= metric_window")


@dataclass
class ReplayResult:
    samples: list[MetricSample]
    total_moves: int
    repartition_timestamps: list[int]
    final_assignment: Assignment  # address -> shard, addresses in order of first appearance


def fire_trigger(clock: int, last_repart: int, last_sample: MetricSample, cfg: ReplayConfig) -> bool:
    """Should a repartition run at this metric-window boundary?"""
    strategy = cfg.strategy
    if strategy is Strategy.HASHING:
        return False
    if strategy in (Strategy.KL, Strategy.METIS_FULL, Strategy.METIS_WINDOW):
        return clock - last_repart >= cfg.repartition_interval
    if strategy is Strategy.METIS_THRESHOLD:
        return (
            last_sample.dynamic_edge_cut > cfg.cut_threshold
            or last_sample.dynamic_balance > cfg.balance_threshold
        )
    raise ValueError(f"unknown strategy {strategy}")


def relabel_to_match(old: Assignment, new: Assignment) -> Assignment:
    """Rename new shard labels to maximize vertex overlap with the old labels.

    ``old`` and ``new`` are part vectors of the same vertices over ``old.k``
    shards. Greedy maximum-overlap matching; a pure label permutation
    relocates no state and must not count as moves.
    """
    k = old.k
    overlap = Counter(zip(new.shard_of, old.shard_of))
    mapping: dict[int, int] = {}
    for (s_new, s_old), _ in sorted(overlap.items(), key=lambda kv: (-kv[1], kv[0])):
        if s_new not in mapping and s_old not in mapping.values():
            mapping[s_new] = s_old
    free = [s for s in range(k) if s not in mapping.values()]
    mapping.update(zip([s for s in range(k) if s not in mapping], free))
    return Assignment([mapping[s] for s in new.shard_of], k)


def repartition(
    graph: InteractionGraph,
    period: InteractionGraph,
    a: Assignment,
    cfg: ReplayConfig,
    clock: int,
    names: Sequence[str],
) -> tuple[Assignment, int, int]:
    """Run one repartition under ``cfg.strategy``. Returns (assignment, moves,
    raw_moves), raw moves being those before shard-label matching.

    ``graph`` counts the whole trace so far, ``period`` the records since the
    last repartition; only kl, metis-window and metis-threshold read it. Both
    are keyed by id, ``a`` is a part vector and ``names`` maps id to address.
    """
    strategy, pcfg = cfg.strategy, cfg.partitioner
    res: MultilevelResult | None = None

    if strategy is Strategy.METIS_FULL:
        if graph.num_vertices == 0:
            return a, 0, 0
        res = multilevel_partition(graph, pcfg, weights="unit")
    elif strategy in (Strategy.METIS_WINDOW, Strategy.METIS_THRESHOLD):
        if period.num_vertices == 0:
            return a, 0, 0
        res = multilevel_partition(period, pcfg, weights="activity")
    elif strategy is Strategy.KL:
        new = a
        for rnd in range(pcfg.kl_rounds):
            cands = kl_select_candidates(new, period, names.__getitem__)
            matrix = kl_build_matrix(cands, new, period)
            new = kl_exchange(new, cands, matrix, pcfg.seed ^ clock ^ (rnd << 32))
    else:
        return a, 0, 0

    if res is not None:
        part = a.shard_of.copy()  # vertices outside the partitioned graph keep their shard
        for v, s in res.assignment.shard_of.items():
            part[v] = s
        new = Assignment(part, cfg.k)
        if res.infeasible_balance:
            log.info(
                "repartition at %d: balance cap %g not met (heaviest vertex weighs %d)",
                clock, res.balance_cap, res.max_vertex_weight,
            )
    raw_moves = count_moves(a, new)
    matched = relabel_to_match(a, new)
    moves = count_moves(a, matched)
    return matched, moves, raw_moves


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
    ids: dict[str, int] = {}  # address -> id
    names: list[str] = []  # id -> address
    assignment = Assignment([], k)
    shard_sizes = [0] * k
    samples: list[MetricSample] = []
    repartition_timestamps: list[int] = []
    total_moves = 0
    window = InteractionGraph()
    window_start: int | None = None
    keep_period = cfg.strategy in (Strategy.KL, Strategy.METIS_WINDOW, Strategy.METIS_THRESHOLD)
    period = InteractionGraph()  # the windows finished since the last repartition
    last_repart = 0
    place_by_hash = cfg.strategy in (Strategy.HASHING, Strategy.KL)
    tx_members: dict[str, dict[int, int]] = {}  # multilevel placement only: id -> multiplicity

    def place(address: str, other: int | None, members: dict[int, int] | None) -> int:
        """Give a first-seen vertex the next id and a shard: by hash when
        ``members`` (the transaction's ids so far) is None, else next to its
        transaction neighbors and ``other``, the record's placed counterpart."""
        if members is None:
            s = hash_partition(address, pcfg)
        else:
            if other is not None:  # the counterpart on this record is a neighbor too
                members = members.copy()
                members[other] = members.get(other, 0) + 1
            s = assign_new_vertex(assignment, members, shard_sizes)
        v = ids[address] = len(names)
        names.append(address)
        assignment.shard_of.append(s)
        shard_sizes[s] += 1
        return v

    def emit_boundary() -> None:
        nonlocal window, window_start, period, assignment, shard_sizes
        nonlocal total_moves, last_repart
        assert window_start is not None
        finished, window = window, InteractionGraph()
        graph.merge(finished)
        if keep_period:
            if period.vertices:
                period.merge(finished)
            else:  # the same counts in the same key order as a merge
                period = finished
        weights = graph if cfg.cumulative_weights else finished
        # The assignment covers exactly the vertices of ``graph`` here, so
        # ``shard_sizes`` are the static shard sizes ``balance`` would count.
        n = graph.num_vertices
        sample = MetricSample(
            window_start=window_start,
            static_edge_cut=edge_cut(graph, assignment, "static"),
            dynamic_edge_cut=edge_cut(graph, assignment, "dynamic", weights.undirected),
            static_balance=max(shard_sizes) * k / n if n else 1.0,
            dynamic_balance=balance(graph, assignment, "dynamic", weights.vertices),
        )
        clock = window_start + cfg.metric_window
        if fire_trigger(clock, last_repart, sample, cfg):
            new, moves, raw = repartition(graph, period, assignment, cfg, clock, names)
            assignment = new
            shard_sizes = [0] * k
            for s in assignment.shard_of:
                shard_sizes[s] += 1
            sample.moves = moves
            sample.repartitioned = True
            total_moves += moves
            repartition_timestamps.append(clock)
            last_repart = clock
            period = InteractionGraph()
            log.debug("repartition at %d: %d moves (%d raw)", clock, moves, raw)
        samples.append(sample)
        window_start = clock
        tx_members.clear()

    for r in trace:
        if window_start is None:
            window_start = last_repart = r.timestamp
        while r.timestamp >= window_start + cfg.metric_window:
            emit_boundary()
        members = None if place_by_hash else tx_members.get(r.tx_id)
        if members is None and not place_by_hash:
            members = tx_members[r.tx_id] = {}
        src = ids.get(r.src)
        if src is None:
            src = place(r.src, ids.get(r.dst), members)
        dst = ids.get(r.dst)
        if dst is None:
            dst = place(r.dst, src, members)
        if members is not None:
            members[src] = members.get(src, 0) + 1
            members[dst] = members.get(dst, 0) + 1
        apply_record(window, src, dst)

    if window_start is not None:
        emit_boundary()

    for address, s in zip(names, assignment.shard_of):
        ids[address] = s  # ids becomes the final map, keys still in id order
    return ReplayResult(
        samples=samples,
        total_moves=total_moves,
        repartition_timestamps=repartition_timestamps,
        final_assignment=Assignment(ids, k),
    )
