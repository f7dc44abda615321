"""Trace replay: drive records through a sharding strategy over trace time.

The replay maintains the interaction graph, the current shard assignment, and
per-window activity. At every metric-window boundary it emits a MetricSample
and evaluates the strategy's repartition trigger; repartitions are applied at
the boundary, so samples sit on a uniform grid anchored at the first record.
"""

from __future__ import annotations

import logging
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable

from shardsim.graph import (
    InteractionGraph,
    WindowActivity,
    activity_from_records,
    apply_record,
    close_window,
    window_subgraph,
)
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
    partitioner: PartitionerConfig | None = None
    cumulative_weights: bool = False  # dynamic metrics from all-history weights

    def __post_init__(self) -> None:
        if isinstance(self.strategy, str):
            self.strategy = Strategy(self.strategy)
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.metric_window <= 0:
            raise ValueError("metric_window must be positive")
        if self.repartition_interval < self.metric_window:
            raise ValueError("repartition_interval must be >= metric_window")
        if self.partitioner is None:
            self.partitioner = PartitionerConfig(k=self.k)
        elif self.partitioner.k != self.k:
            raise ValueError("partitioner config k differs from replay k")


@dataclass
class ReplayResult:
    samples: list[MetricSample]
    total_moves: int
    total_raw_moves: int  # moves before shard-label matching, for transparency
    repartition_timestamps: list[int]
    final_assignment: Assignment
    refinement_cuts: list[tuple[int, int]] = field(default_factory=list)


def fire_trigger(
    strategy: Strategy,
    clock: int,
    last_repart: int,
    last_sample: MetricSample,
    cfg: ReplayConfig,
) -> bool:
    """Should a repartition run at this metric-window boundary?"""
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


def relabel_to_match(old: Assignment, new: Assignment, k: int) -> Assignment:
    """Rename new shard labels to maximize vertex overlap with the old labels.

    Greedy maximum-overlap matching; a pure label permutation relocates no
    state and must not count as moves.
    """
    overlap: dict[tuple[int, int], int] = {}
    for v, s_new in new.shard_of.items():
        s_old = old.shard_of.get(v)
        if s_old is not None:
            overlap[(s_new, s_old)] = overlap.get((s_new, s_old), 0) + 1
    pairs = sorted(overlap.items(), key=lambda kv: (-kv[1], kv[0]))
    mapping: dict[int, int] = {}
    used_old: set[int] = set()
    for (s_new, s_old), _ in pairs:
        if s_new not in mapping and s_old not in used_old:
            mapping[s_new] = s_old
            used_old.add(s_old)
    free = [i for i in range(k) if i not in used_old]
    for s_new in range(k):
        if s_new not in mapping:
            mapping[s_new] = free.pop(0)
    return Assignment({v: mapping[s] for v, s in new.shard_of.items()}, k)


def repartition(
    strategy: Strategy,
    graph: InteractionGraph,
    period_log: list[TraceRecord],
    a: Assignment,
    cfg: ReplayConfig,
    clock: int,
    last_repart: int,
) -> tuple[Assignment, int, int, list[tuple[int, int]]]:
    """Run one repartition. Returns (assignment, moves, raw_moves, pass_cuts)."""
    pcfg = cfg.partitioner
    assert pcfg is not None
    pass_cuts: list[tuple[int, int]] = []
    res: MultilevelResult | None = None

    if strategy is Strategy.METIS_FULL:
        if graph.num_vertices == 0:
            return a, 0, 0, pass_cuts
        res = multilevel_partition(graph, pcfg, weights="unit")
        new = res.assignment
        pass_cuts = res.refinement_cuts
    elif strategy in (Strategy.METIS_WINDOW, Strategy.METIS_THRESHOLD):
        sub = window_subgraph(period_log, last_repart, clock)
        if sub.num_vertices == 0:
            return a, 0, 0, pass_cuts
        res = multilevel_partition(sub, pcfg, weights="activity")
        pass_cuts = res.refinement_cuts
        shard_of = dict(a.shard_of)  # vertices outside the window keep their shard
        shard_of.update(res.assignment.shard_of)
        new = Assignment(shard_of, cfg.k)
    elif strategy is Strategy.KL:
        act = activity_from_records(period_log, last_repart, max(clock - last_repart, 1))
        new = a
        for rnd in range(max(1, pcfg.kl_rounds)):
            cands = kl_select_candidates(graph, new, act)
            matrix = kl_build_matrix(cands, new, act, pcfg)
            new = kl_exchange(new, cands, matrix, pcfg.rng_seed ^ clock ^ (rnd << 32))
    else:
        return a, 0, 0, pass_cuts

    if res is not None and res.infeasible_balance:
        log.info(
            "repartition at %d: balance cap %g not met (heaviest vertex weighs %d)",
            clock, res.balance_cap, res.max_vertex_weight,
        )
    raw_moves = count_moves(a, new)
    matched = relabel_to_match(a, new, cfg.k)
    moves = count_moves(a, matched)
    return matched, moves, raw_moves, pass_cuts


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
    assert pcfg is not None
    graph = InteractionGraph()
    assignment = Assignment({}, k)
    shard_sizes = [0] * k
    samples: list[MetricSample] = []
    repartition_timestamps: list[int] = []
    refinement_cuts: list[tuple[int, int]] = []
    total_moves = 0
    total_raw = 0
    activity: WindowActivity | None = None
    period_log: list[TraceRecord] = []
    last_repart = 0
    tx_members: dict[str, Counter] = {}

    def place(vertex: str, members: Counter) -> None:
        if cfg.strategy in (Strategy.HASHING, Strategy.KL):
            s = hash_partition(vertex, pcfg)
        else:
            s = assign_new_vertex(assignment, members, shard_sizes)
        assignment.shard_of[vertex] = s
        shard_sizes[s] += 1

    def emit_boundary() -> None:
        nonlocal activity, assignment, shard_sizes, period_log
        nonlocal total_moves, total_raw, last_repart
        assert activity is not None
        finished, activity = close_window(activity)
        if cfg.cumulative_weights:
            edge_w = graph.undirected
            vert_w = {v: info.weight for v, info in graph.vertices.items()}
        else:
            edge_w = finished.edge_activity
            vert_w = finished.vertex_activity
        sample = MetricSample(
            window_start=finished.window_start,
            static_edge_cut=edge_cut(graph, assignment, "static"),
            dynamic_edge_cut=edge_cut(graph, assignment, "dynamic", edge_w),
            static_balance=balance(graph, assignment, "static"),
            dynamic_balance=balance(graph, assignment, "dynamic", vert_w),
        )
        clock = finished.window_end
        if fire_trigger(cfg.strategy, clock, last_repart, sample, cfg):
            new, moves, raw, pass_cuts = repartition(
                cfg.strategy, graph, period_log, assignment, cfg, clock, last_repart
            )
            assignment = new
            shard_sizes = [0] * k
            for s in assignment.shard_of.values():
                shard_sizes[s] += 1
            sample.moves = moves
            sample.repartitioned = True
            total_moves += moves
            total_raw += raw
            refinement_cuts.extend(pass_cuts)
            repartition_timestamps.append(clock)
            last_repart = clock
            period_log = []
            log.debug("repartition at %d: %d moves (%d raw)", clock, moves, raw)
        samples.append(sample)
        tx_members.clear()

    for r in trace:
        if activity is None:
            activity = WindowActivity(r.timestamp, cfg.metric_window)
            last_repart = r.timestamp
        while r.timestamp >= activity.window_end:
            emit_boundary()
        members = tx_members.setdefault(r.tx_id, Counter())
        for vertex, other in ((r.src, r.dst), (r.dst, r.src)):
            if vertex not in assignment.shard_of:
                seen = Counter(members)
                if other != vertex:
                    seen[other] += 1  # the counterpart on this record is a neighbor too
                place(vertex, seen)
        members[r.src] += 1
        members[r.dst] += 1
        apply_record(graph, activity, r)
        period_log.append(r)

    if activity is not None:
        emit_boundary()

    return ReplayResult(
        samples=samples,
        total_moves=total_moves,
        total_raw_moves=total_raw,
        repartition_timestamps=repartition_timestamps,
        final_assignment=assignment,
        refinement_cuts=refinement_cuts,
    )
