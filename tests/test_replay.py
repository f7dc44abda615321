import logging
import random

from shardsim.metrics import Assignment, count_moves
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
    old = Assignment({vid(i): i % 3 for i in range(30)}, 3)
    permuted = Assignment({v: (s + 1) % 3 for v, s in old.shard_of.items()}, 3)
    matched = relabel_to_match(old, permuted, 3)
    assert count_moves(old, matched) == 0


def test_relabel_partial_overlap():
    old = Assignment({vid(i): 0 if i < 6 else 1 for i in range(10)}, 2)
    # new labels flipped plus one genuine move
    new = Assignment({vid(i): 1 if i < 5 else 0 for i in range(10)}, 2)
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
            graph = graph_from_pairs([(i, i + 1) for i in range(n - 1)])
            a = Assignment({vid(i): 0 for i in range(n)}, 2)
            repartition(Strategy.METIS_FULL, graph, [], a, cfg, 5000 + n, 0)
    messages = [r.getMessage() for r in caplog.records if r.levelno == logging.INFO]
    assert messages == ["repartition at 5003: balance cap 1.575 not met (heaviest vertex weighs 1)"]
