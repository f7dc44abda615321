import random

import pytest

from shardsim.metrics import Assignment, DomainMismatch, balance, count_moves, edge_cut, normalized_balance

from conftest import graph_from_pairs, vid


def assign(mapping, k):
    return Assignment({vid(i): s for i, s in mapping.items()}, k)


def test_worked_example_ten_edges_two_cut():
    # 10 undirected edges, exactly 2 crossing the two shards: 20% across
    pairs = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (4, 5), (4, 6), (5, 6), (0, 4), (1, 5)]
    g = graph_from_pairs(pairs)
    a = assign({0: 0, 1: 0, 2: 0, 3: 0, 4: 1, 5: 1, 6: 1}, 2)
    assert edge_cut(g, a) == 0.2


def test_balance_worked_example():
    # |V| = 20, k = 2, max shard 13 -> 13*2/20 = 1.3 exactly
    pairs = [(i, (i + 1) % 20) for i in range(20)]
    g = graph_from_pairs(pairs)
    a = assign({i: (0 if i < 13 else 1) for i in range(20)}, 2)
    assert balance(g, a) == 1.3


def test_all_one_shard_cut_zero():
    g = graph_from_pairs([(0, 1), (1, 2)])
    a = assign({0: 0, 1: 0, 2: 0}, 3)
    assert edge_cut(g, a) == 0.0


def test_even_split_balance_one():
    g = graph_from_pairs([(0, 1), (2, 3)])
    a = assign({0: 0, 1: 0, 2: 1, 3: 1}, 2)
    assert balance(g, a) == 1.0


def test_balance_five_vertices_three_two():
    g = graph_from_pairs([(0, 1), (1, 2), (2, 3), (3, 4)])
    a = assign({0: 0, 1: 0, 2: 0, 3: 1, 4: 1}, 2)
    assert balance(g, a) == 3 * 2 / 5


def test_k1_degenerate():
    g = graph_from_pairs([(0, 1), (1, 2), (0, 2)])
    a = assign({0: 0, 1: 0, 2: 0}, 1)
    assert edge_cut(g, a) == 0.0
    assert balance(g, a) == 1.0
    assert normalized_balance(balance(g, a), 1) == 0.0


def test_empty_graph_defined_values():
    g = graph_from_pairs([])
    a = Assignment({}, 4)
    assert edge_cut(g, a) == 0.0
    assert balance(g, a) == 1.0


def test_normalized_balance_formula():
    assert normalized_balance(1.0, 7) == 0.0
    assert normalized_balance(2.0, 2) == 1.0
    assert abs(normalized_balance(1.35, 8) - 0.05) < 1e-12


def test_self_loop_not_in_cut_but_in_denominator():
    g = graph_from_pairs([(0, 0), (0, 1)])
    a = assign({0: 0, 1: 1}, 2)
    assert edge_cut(g, a) == 0.5  # 1 cut of 2 edges
    act = {(vid(0), vid(0)): 3, (min(vid(0), vid(1)), max(vid(0), vid(1))): 1}
    assert edge_cut(g, a, "dynamic", act) == 0.25


def test_dynamic_scale_invariance():
    g = graph_from_pairs([(0, 1), (1, 2), (2, 0)])
    a = assign({0: 0, 1: 1, 2: 0}, 2)
    act = {k: 2 for k in g.undirected}
    act10 = {k: 20 for k in g.undirected}
    assert edge_cut(g, a, "dynamic", act) == edge_cut(g, a, "dynamic", act10)


def test_dynamic_balance_uses_vertex_activity():
    g = graph_from_pairs([(0, 1), (2, 3)])
    a = assign({0: 0, 1: 0, 2: 1, 3: 1}, 2)
    vact = {vid(0): 6, vid(1): 2, vid(2): 1, vid(3): 1}
    assert balance(g, a, "dynamic", vact) == 8 * 2 / 10


def test_count_moves():
    a = assign({0: 0, 1: 1}, 2)
    b = assign({0: 0, 1: 1}, 2)
    assert count_moves(a, b) == 0
    c = assign({0: 1, 1: 1}, 2)
    assert count_moves(a, c) == 1
    with pytest.raises(DomainMismatch):
        count_moves(a, assign({0: 0}, 2))


def brute_force_metrics(pairs, mapping, k, activity_of_pair):
    """Independent oracle: raw set enumeration over integer vertex pairs."""
    und = {}
    verts = set()
    for u, v in pairs:
        key = (min(u, v), max(u, v))
        und[key] = und.get(key, 0) + 1
        verts.update((u, v))
    cut_n = sum(1 for (u, v) in und if u != v and mapping[u] != mapping[v])
    cut = cut_n / len(und) if und else 0.0
    shards = [set() for _ in range(k)]
    for v in verts:
        shards[mapping[v]].add(v)
    bal = max(len(s) for s in shards) * k / len(verts) if verts else 1.0
    wtot = sum(activity_of_pair[key] for key in und)
    wcut = sum(activity_of_pair[key] for key in und if key[0] != key[1] and mapping[key[0]] != mapping[key[1]])
    dcut = wcut / wtot if wtot else 0.0
    vact = {}
    for (u, v), w in und.items():
        ww = activity_of_pair[(u, v)]
        vact[u] = vact.get(u, 0) + ww
        vact[v] = vact.get(v, 0) + ww
    loads = [sum(w for v, w in vact.items() if mapping[v] == i) for i in range(k)]
    tot = sum(loads)
    dbal = max(loads) * k / tot if tot else 1.0
    return cut, bal, dcut, dbal


def test_metrics_match_brute_force_enumeration():
    rng = random.Random(77)
    for _ in range(300):
        n = rng.randint(2, 20)
        k = rng.randint(1, 5)
        pairs = [(rng.randint(0, n - 1), rng.randint(0, n - 1)) for _ in range(rng.randint(1, 40))]
        mapping = {}
        for u, v in pairs:
            mapping.setdefault(u, rng.randrange(k))
            mapping.setdefault(v, rng.randrange(k))
        act_pairs = {}
        for u, v in pairs:
            act_pairs.setdefault((min(u, v), max(u, v)), rng.randint(1, 9))
        g = graph_from_pairs(pairs)
        a = assign(mapping, k)
        act = {(vid(u), vid(v)): w for (u, v), w in act_pairs.items()}
        vact = {}
        for (u, v), w in act_pairs.items():
            vact[vid(u)] = vact.get(vid(u), 0) + w
            vact[vid(v)] = vact.get(vid(v), 0) + w
        cut, bal, dcut, dbal = brute_force_metrics(pairs, mapping, k, act_pairs)
        assert edge_cut(g, a) == cut
        assert balance(g, a) == bal
        assert edge_cut(g, a, "dynamic", act) == dcut
        assert balance(g, a, "dynamic", vact) == dbal
        assert 0.0 <= cut <= 1.0 and 1.0 <= bal <= k
