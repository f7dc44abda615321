import random

import pytest

from shardsim.metrics import (
    Assignment,
    DomainMismatch,
    balance,
    count_moves,
    edge_cut,
    load_balance,
    normalized_balance,
)

from conftest import id_graph


def assign(mapping, k):
    """Part vector of an id -> shard map; ids the map lacks (none of the
    graph's vertices) get shard 0."""
    return Assignment([mapping.get(v, 0) for v in range(max(mapping, default=-1) + 1)], k)


def test_worked_example_ten_edges_two_cut():
    # 10 undirected edges, exactly 2 crossing the two shards: 20% across
    pairs = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (4, 5), (4, 6), (5, 6), (0, 4), (1, 5)]
    g = id_graph(pairs)
    a = assign({0: 0, 1: 0, 2: 0, 3: 0, 4: 1, 5: 1, 6: 1}, 2)
    assert edge_cut(g, a) == 0.2


def test_static_metrics_ignore_multiplicity():
    # edge 0-1 recorded 5 times inside shard 0, edge 1-2 once across: the
    # static cut counts distinct edges (1 of 2), the dynamic one activity (1
    # of 6); static balance counts vertices (2 of 3 in shard 0), dynamic
    # balance their activity (11 of 12)
    g = id_graph([(0, 1)] * 5 + [(1, 2)])
    a = assign({0: 0, 1: 0, 2: 1}, 2)
    assert edge_cut(g, a) == 1 / 2
    assert edge_cut(g, a, "dynamic") == 1 / 6
    assert balance(g, a) == 2 * 2 / 3
    assert balance(g, a, "dynamic") == 11 * 2 / 12


def test_balance_worked_example():
    # |V| = 20, k = 2, max shard 13 -> 13*2/20 = 1.3 exactly
    pairs = [(i, (i + 1) % 20) for i in range(20)]
    g = id_graph(pairs)
    a = assign({i: (0 if i < 13 else 1) for i in range(20)}, 2)
    assert balance(g, a) == 1.3


def test_all_one_shard_cut_zero():
    g = id_graph([(0, 1), (1, 2)])
    a = assign({0: 0, 1: 0, 2: 0}, 3)
    assert edge_cut(g, a) == 0.0


def test_even_split_balance_one():
    g = id_graph([(0, 1), (2, 3)])
    a = assign({0: 0, 1: 0, 2: 1, 3: 1}, 2)
    assert balance(g, a) == 1.0


def test_balance_five_vertices_three_two():
    g = id_graph([(0, 1), (1, 2), (2, 3), (3, 4)])
    a = assign({0: 0, 1: 0, 2: 0, 3: 1, 4: 1}, 2)
    assert balance(g, a) == 3 * 2 / 5


def test_k1_degenerate():
    g = id_graph([(0, 1), (1, 2), (0, 2)])
    a = assign({0: 0, 1: 0, 2: 0}, 1)
    assert edge_cut(g, a) == 0.0
    assert balance(g, a) == 1.0
    assert normalized_balance(balance(g, a), 1) == 0.0


def test_empty_graph_defined_values():
    g = id_graph([])
    a = Assignment([], 4)
    assert edge_cut(g, a) == 0.0
    assert balance(g, a) == 1.0


def test_load_balance_zero_total_and_k1():
    assert load_balance([0, 0, 0]) == 1.0
    assert load_balance([0]) == 1.0
    assert load_balance([7]) == 1.0
    assert load_balance([3, 1]) == 3 * 2 / 4
    assert load_balance([0, 5, 0]) == 3.0


def test_balance_rejects_unknown_weighting():
    g = id_graph([(0, 1)])
    a = assign({0: 0, 1: 1}, 2)
    with pytest.raises(ValueError, match="^unknown weighting 'bogus'$"):
        balance(g, a, "bogus")
    # edge_cut and Assignment check their arguments the same way
    with pytest.raises(ValueError, match="^unknown weighting 'bogus'$"):
        edge_cut(g, a, "bogus")
    with pytest.raises(ValueError, match="^shard count must be >= 1$"):
        Assignment([0, 0], 0)


def test_normalized_balance_formula():
    assert normalized_balance(1.0, 7) == 0.0
    assert normalized_balance(2.0, 2) == 1.0
    assert abs(normalized_balance(1.35, 8) - 0.05) < 1e-12


def test_self_loop_not_in_cut_but_in_denominator():
    g = id_graph([(0, 0), (0, 1)])
    a = assign({0: 0, 1: 1}, 2)
    assert edge_cut(g, a) == 0.5  # 1 cut of 2 edges
    act = id_graph([(0, 0)] * 3 + [(0, 1)])
    assert edge_cut(act, a, "dynamic") == 0.25


def test_dynamic_scale_invariance():
    pairs = [(0, 1), (1, 2), (2, 0)]
    a = assign({0: 0, 1: 1, 2: 0}, 2)
    act = id_graph(pairs * 2)
    act10 = id_graph(pairs * 20)
    assert edge_cut(act, a, "dynamic") == edge_cut(act10, a, "dynamic")


def test_dynamic_balance_uses_vertex_activity():
    # vertex activity 6, 2, 1, 1: a self-loop touches its vertex twice
    act = id_graph([(0, 0)] * 2 + [(0, 1)] * 2 + [(2, 3)])
    a = assign({0: 0, 1: 0, 2: 1, 3: 1}, 2)
    assert balance(act, a, "dynamic") == 8 * 2 / 10


def test_count_moves():
    a = Assignment([0, 1], 2)
    b = Assignment([0, 1], 2)
    assert count_moves(a, b) == 0
    c = Assignment([1, 1], 2)
    assert count_moves(a, c) == 1
    with pytest.raises(DomainMismatch):
        count_moves(a, Assignment([0], 2))


@pytest.mark.parametrize(
    "old, new",
    [
        ({"x": 0, "y": 1}, {"x": 0, "z": 1}),
        ({"x": 0, "y": 1}, {"x": 0}),
        ({0: 0, 1: 1}, [0, 1]),
        ([0, 1], {0: 0, 1: 1}),
        ({"x": 0, "y": 1}, {"x": 0, "y": 1}),
    ],
    ids=["other-key", "missing-key", "map-then-list", "list-then-map", "maps-of-one-domain"],
)
def test_count_moves_rejects_different_domains(old, new):
    with pytest.raises(DomainMismatch):
        count_moves(Assignment(old, 2), Assignment(new, 2))


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
        g = id_graph(pairs)
        a = assign(mapping, k)
        act = id_graph([key for key, w in act_pairs.items() for _ in range(w)])
        cut, bal, dcut, dbal = brute_force_metrics(pairs, mapping, k, act_pairs)
        assert edge_cut(g, a) == cut
        assert balance(g, a) == bal
        assert edge_cut(act, a, "dynamic") == dcut
        assert balance(act, a, "dynamic") == dbal
        assert 0.0 <= cut <= 1.0 and 1.0 <= bal <= k
