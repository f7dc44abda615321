import random

import pytest

from shardsim.graph import InteractionGraph, apply_record, window_subgraph
from shardsim.partition import PartGraph

from conftest import graph_from_pairs, make_record, vid


def test_fig2_style_inweight():
    # 13 + 3 + 2 records into the same callee: its vertex weight from
    # incoming interactions is 18
    pairs = [(8900, 9703)] * 13 + [(8930, 9703)] * 3 + [(17303, 9703)] * 2
    g = graph_from_pairs(pairs)
    assert g.vertices[vid(9703)] == 18
    assert g.undirected[(vid(8900) if vid(8900) < vid(9703) else vid(9703),
                         max(vid(8900), vid(9703)))] == 13


def test_single_record_counts():
    window = InteractionGraph()
    apply_record(window, vid(1), vid(2))
    assert len(window.vertices) == 2
    assert len(window.undirected) == 1
    assert sum(window.undirected.values()) == 1


def test_self_loop():
    window = InteractionGraph()
    apply_record(window, vid(5), vid(5))
    assert window.undirected[(vid(5), vid(5))] == 1
    assert window.vertices[vid(5)] == 2
    assert PartGraph.from_interaction_graph(window).adj == [{}]


def test_vertex_activity_is_twice_edge_activity():
    rng = random.Random(3)
    window = InteractionGraph()
    for i in range(200):
        apply_record(window, rng.randint(0, 20), rng.randint(0, 20))
    assert sum(window.vertices.values()) == 2 * sum(window.undirected.values())


def test_merge_matches_concatenation():
    # merged consecutive spans equal one graph of all their records, key order included
    rng = random.Random(5)
    records = [make_record(rng.randint(0, 12), rng.randint(0, 12), timestamp=i) for i in range(120)]
    merged = InteractionGraph()
    for start, end in ((0, 30), (30, 30), (30, 95), (95, 120)):
        merged.merge(window_subgraph(records, start, end))
    whole = window_subgraph(records, 0, 120)
    assert list(merged.vertices.items()) == list(whole.vertices.items())
    assert list(merged.undirected.items()) == list(whole.undirected.items())


def test_window_subgraph_filters_by_time():
    log = [make_record(1, 2, timestamp=1), make_record(2, 3, timestamp=10)]
    sub = window_subgraph(log, 5, 15)
    assert set(sub.vertices) == {vid(2), vid(3)}
    assert sum(sub.undirected.values()) == 1


def test_window_subgraph_empty_and_full():
    log = [make_record(1, 2, timestamp=1), make_record(2, 3, timestamp=10)]
    assert len(window_subgraph(log, 100, 200).vertices) == 0
    full = window_subgraph(log, 0, 10**18)
    assert len(full.vertices) == 3 and sum(full.undirected.values()) == 2
    assert len(window_subgraph(log, 10, 10).vertices) == 0
    with pytest.raises(ValueError, match="^from_t must not exceed to_t$"):
        window_subgraph(log, 11, 10)


def test_prefix_replay_matches_brute_force_tally():
    rng = random.Random(9)
    records = [make_record(rng.randint(0, 15), rng.randint(0, 15), timestamp=i, tx_id=f"t{i}") for i in range(300)]
    for prefix_len in (0, 1, 57, 300):
        prefix = records[:prefix_len]
        window = InteractionGraph()
        for r in prefix:
            apply_record(window, r.src, r.dst)
        verts = {r.src for r in prefix} | {r.dst for r in prefix}
        und = {}
        for r in prefix:
            key = (min(r.src, r.dst), max(r.src, r.dst))
            und[key] = und.get(key, 0) + 1
        assert set(window.vertices) == verts
        assert window.undirected == und
        assert sum(window.undirected.values()) == prefix_len


def test_cumulative_weight_order_insensitive():
    rng = random.Random(4)
    records = [make_record(rng.randint(0, 8), rng.randint(0, 8), tx_id=f"t{i}") for i in range(100)]
    g1, g2 = InteractionGraph(), InteractionGraph()
    for r in records:
        g1.record(r.src, r.dst)
    for r in reversed(records):
        g2.record(r.src, r.dst)
    assert g1.undirected == g2.undirected
    assert g1.vertices == g2.vertices
