"""A reference replay: every sample derived from the records by definition.

Slow and plain on purpose. It keeps every record, builds each graph it
needs with ``window_subgraph`` (the whole trace so far, the window, the
period since the last repartition), computes each metric by brute force
and keys everything by address. It uses none of the replay's running
structures: no ``InteractionGraph.merge``, no per-transaction shard counts,
no id tables. The partitioners themselves are the library's, whose own
reference tests cover them. A test that compares this with ``run_replay``
checks the replay loop as a whole.
"""

from __future__ import annotations

from collections import Counter

from shardsim.graph import window_subgraph
from shardsim.metrics import Assignment, MetricSample
from shardsim.partition import hash_partition, kl_build_matrix, kl_exchange, kl_select_candidates, multilevel_partition
from shardsim.replay import ReplayConfig, ReplayResult, Strategy


def cut_fraction(weights: dict, shard: dict) -> float:
    """Weight of the edges whose endpoints sit in different shards, over all edge weight; 0 without edges."""
    total = sum(weights.values())
    cut = sum(w for (u, v), w in weights.items() if shard[u] != shard[v])
    return cut / total if total else 0.0


def load_ratio(weights: dict, shard: dict, k: int) -> float:
    """Heaviest shard over the equal share, max * k / total; 1 for a zero total."""
    loads = [sum(w for v, w in weights.items() if shard[v] == s) for s in range(k)]
    total = sum(loads)
    return max(loads) * k / total if total else 1.0


def place(v: str, other: str, earlier: list, shard: dict, cfg: ReplayConfig) -> int:
    """Shard of a first-seen vertex: by hash under hashing and kl; else the
    shard holding most endpoints of ``earlier`` (its transaction's earlier
    records in this window) and ``other`` (its record's counterpart) if
    placed, ties to the shard with fewer vertices, then the lower index."""
    if cfg.strategy in (Strategy.HASHING, Strategy.KL):
        return hash_partition(v, cfg.partitioner)
    neighbours = [e for r in earlier for e in (r.src, r.dst)] + ([other] if other in shard else [])
    counts = Counter(shard[u] for u in neighbours)
    sizes = Counter(shard.values())
    return min(range(cfg.k), key=lambda s: (-counts[s], sizes[s], s))


def relabel(old: dict, new: dict, k: int) -> dict:
    """Rename ``new``'s shards to match ``old``'s greedily: (new, old) label
    pairs by vertex overlap, most first, ties by label pair; a new label
    left over takes the lowest old label left over."""
    overlap = Counter((new[v], old[v]) for v in old)
    mapping: dict[int, int] = {}
    for (s_new, s_old), _ in sorted(overlap.items(), key=lambda kv: (-kv[1], kv[0])):
        if s_new not in mapping and s_old not in mapping.values():
            mapping[s_new] = s_old
    left_old = [s for s in range(k) if s not in mapping.values()]
    mapping.update(zip([s for s in range(k) if s not in mapping], left_old))
    return {v: mapping[s] for v, s in new.items()}


def repartition(records: list, shard: dict, cfg: ReplayConfig, start: int, clock: int) -> dict:
    """The assignment after a repartition at ``clock`` of the records since ``start``, relabelled."""
    target = window_subgraph(records, start, clock)
    new = dict(shard)
    if cfg.strategy is Strategy.KL:
        a = Assignment(new, cfg.k)
        for rnd in range(cfg.kl_rounds):
            cands = kl_select_candidates(a, target)  # in address order
            a = kl_exchange(a, cands, kl_build_matrix(cands, a, target), cfg.seed ^ clock ^ (rnd << 32))
        new = a.shard_of
    elif target.vertices:
        weights = "unit" if cfg.strategy is Strategy.METIS_FULL else "activity"
        new.update(zip(target.vertices, multilevel_partition(target, cfg.partitioner, weights).assignment.shard_of))
    return relabel(shard, new, cfg.k)


def fires(cfg: ReplayConfig, clock: int, last_repart: int, sample: MetricSample) -> bool:
    """Whether the strategy repartitions at ``clock``, judged on the sample just taken."""
    if cfg.strategy is Strategy.HASHING:
        return False
    if cfg.strategy is Strategy.METIS_THRESHOLD:
        return sample.dynamic_edge_cut > cfg.cut_threshold or sample.dynamic_balance > cfg.balance_threshold
    return clock - last_repart >= cfg.repartition_interval


def reference_replay(records: list, cfg: ReplayConfig) -> ReplayResult:
    """What ``run_replay(records, cfg)`` should return, window by window on
    the grid anchored at the first record."""
    k, length = cfg.k, cfg.metric_window
    shard: dict[str, int] = {}  # address -> shard, in order of first appearance
    samples, times = [], []
    if records:
        first = last_repart = records[0].timestamp
        for i in range((records[-1].timestamp - first) // length + 1):
            start, end = first + i * length, first + (i + 1) * length
            in_window = [r for r in records if start <= r.timestamp < end]
            for j, r in enumerate(in_window):
                earlier = [e for e in in_window[:j] if e.tx_id == r.tx_id]
                for v, other in ((r.src, r.dst), (r.dst, r.src)):
                    if v not in shard:
                        shard[v] = place(v, other, earlier, shard, cfg)
            whole = window_subgraph(records, first, end)
            weights = whole if cfg.cumulative_weights else window_subgraph(records, start, end)
            sample = MetricSample(
                window_start=start,
                static_edge_cut=cut_fraction(dict.fromkeys(whole.undirected, 1), shard),
                dynamic_edge_cut=cut_fraction(weights.undirected, shard),
                static_balance=load_ratio(dict.fromkeys(whole.vertices, 1), shard, k),
                dynamic_balance=load_ratio(weights.vertices, shard, k),
            )
            if fires(cfg, end, last_repart, sample):
                since = first if cfg.strategy is Strategy.METIS_FULL else last_repart
                new = repartition(records, shard, cfg, since, end)
                sample.moves = sum(new[v] != s for v, s in shard.items())
                sample.repartitioned = True
                shard, last_repart = new, end
                times.append(end)
            samples.append(sample)
    return ReplayResult(samples, sum(s.moves for s in samples), times, Assignment(shard, k))
