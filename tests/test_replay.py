import io
import logging
import random
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from shardsim import replay
from shardsim.graph import InteractionGraph, window_subgraph
from shardsim.metrics import Assignment, balance, count_moves
from shardsim.partition import PartitionerConfig
from shardsim.replay import (
    HOUR,
    DAY,
    ReplayConfig,
    Strategy,
    fire_trigger,
    relabel_to_match,
    repartition,
    run_replay,
)
from shardsim.metrics import MetricSample
from shardsim.synth import WorkloadSpec, generate_workload
from shardsim.trace import parse_trace, serialize_trace

from conftest import graph_from_pairs, make_record, vid


def sample(cut=0.0, bal=1.0, start=0):
    return MetricSample(start, cut, cut, bal, bal)


def basic_cfg(strategy, k=2, **kw):
    return ReplayConfig(k=k, strategy=strategy, **kw)


def test_hashing_never_moves():
    spec = WorkloadSpec(vertices=50, communities=2, duration=40 * DAY, records_per_hour=10)
    recs, _ = generate_workload(spec, seed=3)
    res = run_replay(recs, basic_cfg(Strategy.HASHING, k=4))
    assert res.total_moves == 0
    assert res.repartition_timestamps == []
    assert all(not s.repartitioned for s in res.samples)


def test_eight_hour_trace_two_windows():
    recs = [make_record(i % 5, (i + 1) % 5, timestamp=1000 + i * 3600, block=i, tx_id=f"t{i}") for i in range(8)]
    res = run_replay(recs, basic_cfg(Strategy.HASHING, metric_window=4 * HOUR, repartition_interval=14 * DAY))
    assert len(res.samples) == 2
    assert res.samples[0].window_start == 1000
    assert res.samples[1].window_start == 1000 + 4 * HOUR


def test_empty_trace_empty_result():
    res = run_replay([], basic_cfg(Strategy.METIS_FULL))
    assert res.samples == [] and res.total_moves == 0
    assert res.final_assignment.shard_of == {}


def test_empty_windows_emitted_for_gaps():
    recs = [make_record(0, 1, timestamp=0, block=0), make_record(1, 2, timestamp=9 * HOUR, block=1, tx_id="t2")]
    res = run_replay(recs, basic_cfg(Strategy.HASHING))
    assert len(res.samples) == 3
    mid = res.samples[1]
    assert mid.dynamic_edge_cut == 0.0 and mid.dynamic_balance == 1.0


def test_k1_degenerate_all_metrics_flat():
    spec = WorkloadSpec(vertices=30, communities=2, duration=2 * DAY, records_per_hour=20)
    recs, _ = generate_workload(spec, seed=5)
    res = run_replay(recs, basic_cfg(Strategy.METIS_FULL, k=1))
    assert res.samples
    for s in res.samples:
        assert s.static_edge_cut == 0.0 and s.dynamic_edge_cut == 0.0
        assert s.static_balance == 1.0 and s.dynamic_balance == 1.0


def test_fire_trigger_semantics():
    cfg = basic_cfg(Strategy.METIS_FULL, repartition_interval=14 * DAY)
    assert not fire_trigger(Strategy.HASHING, 10**9, 0, sample(), cfg)
    assert fire_trigger(Strategy.METIS_FULL, 14 * DAY, 0, sample(), cfg)
    assert not fire_trigger(Strategy.METIS_FULL, 14 * DAY - 1, 0, sample(), cfg)
    assert fire_trigger(Strategy.KL, 15 * DAY, DAY, sample(), cfg)
    tcfg = basic_cfg(Strategy.METIS_THRESHOLD, cut_threshold=0.3, balance_threshold=1.5)
    assert fire_trigger(Strategy.METIS_THRESHOLD, 0, 0, sample(cut=0.4), tcfg)
    assert fire_trigger(Strategy.METIS_THRESHOLD, 0, 0, sample(bal=1.6), tcfg)
    assert not fire_trigger(Strategy.METIS_THRESHOLD, 0, 0, sample(cut=0.3, bal=1.5), tcfg)


def test_threshold_unreachable_never_fires():
    spec = WorkloadSpec(vertices=60, communities=3, duration=30 * DAY, records_per_hour=20)
    recs, _ = generate_workload(spec, seed=8)
    cfg = basic_cfg(Strategy.METIS_THRESHOLD, k=3, cut_threshold=1.1, balance_threshold=float("inf"))
    res = run_replay(recs, cfg)
    assert res.total_moves == 0
    assert res.repartition_timestamps == []


def test_replay_deterministic():
    spec = WorkloadSpec(vertices=80, communities=2, duration=30 * DAY, records_per_hour=30)
    recs, _ = generate_workload(spec, seed=2)
    for strategy in Strategy:
        cfg1 = basic_cfg(strategy, k=3, partitioner=PartitionerConfig(k=3, rng_seed=9, hash_seed=9))
        cfg2 = basic_cfg(strategy, k=3, partitioner=PartitionerConfig(k=3, rng_seed=9, hash_seed=9))
        r1, r2 = run_replay(recs, cfg1), run_replay(recs, cfg2)
        assert r1.samples == r2.samples
        assert r1.final_assignment.shard_of == r2.final_assignment.shard_of


def test_total_moves_matches_assignment_history_diff():
    # replay twice: once normally, once recomputing moves from the evolving
    # assignment snapshots via count_moves
    spec = WorkloadSpec(vertices=100, communities=2, duration=40 * DAY, records_per_hour=25)
    recs, _ = generate_workload(spec, seed=4)
    cfg = basic_cfg(Strategy.METIS_WINDOW, k=2, repartition_interval=14 * DAY)
    res = run_replay(recs, cfg)
    assert res.total_moves == sum(s.moves for s in res.samples)
    assert len(res.repartition_timestamps) == sum(1 for s in res.samples if s.repartitioned)


def test_every_seen_vertex_always_assigned():
    spec = WorkloadSpec(vertices=70, communities=2, duration=20 * DAY, records_per_hour=20)
    recs, _ = generate_workload(spec, seed=6)
    for strategy in Strategy:
        res = run_replay(recs, basic_cfg(strategy, k=3))
        seen = {r.src for r in recs} | {r.dst for r in recs}
        assert seen == set(res.final_assignment.shard_of)
        assert all(0 <= s < 3 for s in res.final_assignment.shard_of.values())


def test_relabel_pure_permutation_zero_moves():
    old = Assignment([i % 3 for i in range(30)], 3)
    permuted = Assignment([(s + 1) % 3 for s in old.shard_of], 3)
    matched = relabel_to_match(old, permuted, 3)
    assert count_moves(old, matched) == 0


def test_relabel_partial_overlap():
    old = Assignment([0 if i < 6 else 1 for i in range(10)], 2)
    # new labels flipped plus one genuine move
    new = Assignment([1 if i < 5 else 0 for i in range(10)], 2)
    matched = relabel_to_match(old, new, 2)
    assert count_moves(old, matched) == 1


def test_refinement_monotone_in_replays():
    spec = WorkloadSpec(vertices=120, communities=3, duration=40 * DAY, records_per_hour=30)
    recs, _ = generate_workload(spec, seed=9)
    for strategy in (Strategy.METIS_FULL, Strategy.METIS_WINDOW):
        res = run_replay(recs, basic_cfg(strategy, k=3, repartition_interval=14 * DAY))
        assert res.refinement_cuts
        for before, after in res.refinement_cuts:
            assert after <= before


def test_infeasible_balance_is_logged(caplog):
    # three unit vertices in two shards: the heavier shard weighs 2 > cap 1.575
    cfg = basic_cfg(Strategy.METIS_FULL)
    with caplog.at_level(logging.INFO, logger="shardsim.replay"):
        for n in (4, 3):
            graph = InteractionGraph()
            for i in range(n - 1):
                graph.record(i, i + 1)
            a = Assignment([0] * n, 2)
            repartition(Strategy.METIS_FULL, graph, InteractionGraph(), a, cfg, 5000 + n, [vid(i) for i in range(n)])
    messages = [r.getMessage() for r in caplog.records if r.levelno == logging.INFO]
    assert messages == ["repartition at 5003: balance cap 1.575 not met (heaviest vertex weighs 1)"]


def assert_no_records_kept(records):
    """Replay ``records()`` under every strategy: at any yield, the record
    being yielded and the one before it are the only records alive."""
    live = peak = 0

    def dead(_ref):
        nonlocal live
        live -= 1

    def stream(refs):
        nonlocal live, peak
        for r in records():
            refs.append(weakref.ref(r, dead))
            live += 1
            peak = max(peak, live)
            yield r

    for strategy in Strategy:
        refs = []
        res = run_replay(stream(refs), basic_cfg(strategy, k=3, repartition_interval=DAY))
        assert len(refs) == 2000 and res.samples
        assert peak <= 2, f"{strategy.value} kept {peak} records alive"


def generated_records():
    rng = random.Random(1)
    for i in range(2000):
        yield make_record(rng.randrange(40), rng.randrange(40), timestamp=i * 600, block=i, tx_id=f"t{i}")


def test_replay_keeps_no_records():
    # the replay keeps counts only
    assert_no_records_kept(generated_records)


def test_replay_keeps_no_records_through_parser():
    # nor does the parser keep any record it has yielded
    text = serialize_trace(generated_records(), "csv")
    assert_no_records_kept(lambda: parse_trace(io.StringIO(text), "csv"))


GAPS = (0, 0, 1, 1800, HOUR, 4 * HOUR, 9 * HOUR, 2 * DAY)


def by_address(vertices, undirected, names):
    """Items of an id-keyed graph keyed by address instead, as ``window_subgraph``
    keys them: ``names`` maps id to address, and an edge is keyed by its
    endpoints in address order. Item order is kept."""
    return (
        [(names[v], w) for v, w in vertices],
        [(tuple(sorted((names[u], names[v]))), w) for (u, v), w in undirected],
    )


@settings(max_examples=150, deadline=None)
@given(
    steps=st.lists(st.tuples(st.sampled_from(GAPS), st.integers(0, 7), st.integers(0, 7)), min_size=1, max_size=60),
    strategy=st.sampled_from([Strategy.KL, Strategy.METIS_WINDOW, Strategy.METIS_THRESHOLD]),
    k=st.integers(2, 3),
    interval=st.sampled_from([4 * HOUR, 8 * HOUR, DAY]),
)
def test_period_matches_window_subgraph_oracle(steps, strategy, k, interval):
    # the period a repartition partitions is exactly the records since the
    # previous repartition, with keys in order of first appearance
    records, t = [], 1000
    for i, (gap, src, dst) in enumerate(steps):
        t += gap
        records.append(make_record(src, dst, timestamp=t, block=i, tx_id=f"t{i}"))
    captured = []

    def capture(graph):
        captured.append((list(graph.vertices.items()), list(graph.undirected.items())))

    real_multilevel, real_select = replay.multilevel_partition, replay.kl_select_candidates

    def multilevel_spy(graph, *args, **kwargs):
        capture(graph)
        return real_multilevel(graph, *args, **kwargs)

    def select_spy(a, activity, *args):
        capture(activity)
        return real_select(a, activity, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(replay, "multilevel_partition", multilevel_spy)
        mp.setattr(replay, "kl_select_candidates", select_spy)
        res = run_replay(records, basic_cfg(strategy, k=k, repartition_interval=interval))
    names = list(res.final_assignment.shard_of)
    seen = [by_address(vertices, undirected, names) for vertices, undirected in captured]

    expected, previous = [], records[0].timestamp
    for clock in res.repartition_timestamps:
        oracle = window_subgraph(records, previous, clock)
        if strategy is Strategy.KL or oracle.num_vertices:  # metis skips an empty period
            expected.append((list(oracle.vertices.items()), list(oracle.undirected.items())))
        previous = clock
    assert seen == expected


@settings(max_examples=150, deadline=None)
@given(
    steps=st.lists(st.tuples(st.sampled_from(GAPS), st.integers(0, 7), st.integers(0, 7)), min_size=1, max_size=60),
    strategy=st.sampled_from(list(Strategy)),
    cumulative=st.booleans(),
    k=st.integers(2, 3),
    interval=st.sampled_from([4 * HOUR, 8 * HOUR, DAY]),
)
def test_graph_matches_window_subgraph_oracle(steps, strategy, cumulative, k, interval):
    # at every sample the whole-trace graph holds exactly the records before
    # the window's end, keys in order of first appearance, and the static
    # balance read from the shard sizes equals the full scan
    records, t = [], 1000
    for i, (gap, src, dst) in enumerate(steps):
        t += gap
        records.append(make_record(src, dst, timestamp=t, block=i, tx_id=f"t{i}"))
    captured = []
    real_edge_cut = replay.edge_cut

    def edge_cut_spy(graph, a, weighting, *args):
        if weighting == "static":
            captured.append((list(graph.vertices.items()), list(graph.undirected.items()), balance(graph, a, "static")))
        return real_edge_cut(graph, a, weighting, *args)

    cfg = basic_cfg(strategy, k=k, repartition_interval=interval, cumulative_weights=cumulative)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(replay, "edge_cut", edge_cut_spy)
        res = run_replay(records, cfg)
    names = list(res.final_assignment.shard_of)
    seen = [(*by_address(vertices, undirected, names), b) for vertices, undirected, b in captured]

    assert len(seen) == len(res.samples)
    for (vertices, undirected, static_balance), s in zip(seen, res.samples):
        oracle = window_subgraph(records, records[0].timestamp, s.window_start + cfg.metric_window)
        assert vertices == list(oracle.vertices.items())
        assert undirected == list(oracle.undirected.items())
        assert s.static_balance == static_balance


@pytest.mark.parametrize("strategy", list(Strategy))
def test_each_vertex_placed_once_by_its_strategy(strategy, monkeypatch):
    # hashing and kl place by hash alone; the multilevel strategies place by
    # transaction neighbors
    spec = WorkloadSpec(vertices=60, communities=2, duration=3 * DAY, records_per_hour=20)
    recs, _ = generate_workload(spec, seed=7)
    hashed, assigned = [], []  # the vertex hashed; how many were placed before
    real_hash, real_assign = replay.hash_partition, replay.assign_new_vertex

    def hash_spy(vertex, pcfg):
        hashed.append(vertex)
        return real_hash(vertex, pcfg)

    def assign_spy(a, tx_neighbors, shard_sizes):
        assigned.append(len(a.shard_of))
        return real_assign(a, tx_neighbors, shard_sizes)

    monkeypatch.setattr(replay, "hash_partition", hash_spy)
    monkeypatch.setattr(replay, "assign_new_vertex", assign_spy)
    vertices = run_replay(recs, basic_cfg(strategy, k=3)).final_assignment.shard_of

    if strategy in (Strategy.HASHING, Strategy.KL):
        assert assigned == []
        assert sorted(hashed) == sorted(vertices)
    else:
        assert hashed == []
        assert assigned == list(range(len(vertices)))
