import hashlib
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from shardsim.graph import InteractionGraph
from shardsim.metrics import Assignment, edge_cut
from shardsim.partition import (
    Candidate,
    PartGraph,
    PartitionerConfig,
    _greedy_grow,
    _repair_balance,
    _shard_weights,
    _shuffle,
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
    cfg = PartitionerConfig(k=16, seed=7)
    assert hash_partition(vid(42), cfg) == hash_partition(vid(42), cfg)
    other = PartitionerConfig(k=16, seed=8)
    results = [hash_partition(vid(i), cfg) != hash_partition(vid(i), other) for i in range(200)]
    assert any(results)


def test_hash_uniformity_multinomial():
    rng = random.Random(5)
    cfg = PartitionerConfig(k=8, seed=1)
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


def test_kl_candidates_gain_arithmetic():
    # vertex 0 in shard 0: 3 unit edges to shard-1 vertices, 1 internal edge
    pairs = [(0, 1), (0, 2), (0, 3), (0, 4)]
    a = Assignment({vid(0): 0, vid(1): 1, vid(2): 1, vid(3): 1, vid(4): 0}, 2)
    act = graph_from_pairs(pairs)
    cands = kl_select_candidates(a, act)
    c = [c for c in cands[0] if c.vertex == vid(0)]
    assert c == [Candidate(vid(0), 1, 2)]


def test_kl_internal_vertex_not_candidate():
    pairs = [(0, 1)]
    a = Assignment({vid(0): 0, vid(1): 0, vid(2): 1}, 2)
    act = graph_from_pairs(pairs)
    cands = kl_select_candidates(a, act)
    assert cands[0] == [] and cands[1] == []


def test_kl_candidate_gain_matches_cut_delta():
    rng = random.Random(31)
    for _ in range(50):
        n = rng.randint(4, 12)
        k = rng.randint(2, 4)
        pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(3, 25))]
        g = act = graph_from_pairs(pairs)
        a = Assignment({vid(i): rng.randrange(k) for i in range(n)}, k)
        for shard, cands in kl_select_candidates(a, act).items():
            for c in cands:
                assert c.gain > 0
                before = edge_cut(g, a, "dynamic", act.undirected)
                moved = Assignment(dict(a.shard_of), k)
                moved.shard_of[c.vertex] = c.target
                after = edge_cut(g, moved, "dynamic", act.undirected)
                total = act.total_edge_weight()
                assert math.isclose((before - after) * total, c.gain, abs_tol=1e-9)


def kl_candidates_brute_force(k, shard, edges, key):
    """Every vertex's gain toward every other shard, summed edge by edge."""
    out = {i: [] for i in range(k)}
    for v in sorted({u for e in edges for u in e[:2]}, key=key):
        own = shard[v]
        toward = [0] * k
        for a, b, w in edges:
            if a != b and v in (a, b):
                toward[shard[b if a == v else a]] += w
        gains = [(toward[j] - toward[own], j) for j in range(k) if j != own]
        best = max((g for g, _ in gains), default=0)
        if best > 0:
            out[own].append(Candidate(v, min(j for g, j in gains if g == best), best))
    return out


@st.composite
def kl_cases(draw):
    k = draw(st.integers(1, 6))
    n = draw(st.integers(1, 10))
    shard = draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))
    vertex = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(vertex, vertex, st.integers(1, 3)), max_size=30))
    # deliberate ties: v gets the same weight toward a and toward b
    for v, a, b, w in draw(st.lists(st.tuples(vertex, vertex, vertex, st.integers(1, 3)), max_size=4)):
        edges += [(v, a, w), (b, v, w)]
    order = draw(st.permutations(range(n)))
    return k, shard, edges, [vid(i) for i in order]


@given(kl_cases())
def test_kl_candidates_match_brute_force(case):
    k, shard, edges, names = case
    activity = InteractionGraph()
    for a, b, w in edges:
        for _ in range(w):
            activity.record(a, b)
    got = kl_select_candidates(Assignment(shard, k), activity, names.__getitem__)
    assert got == kl_candidates_brute_force(k, shard, edges, names.__getitem__)


def test_kl_matrix_no_candidates_identity():
    a = Assignment({vid(0): 0, vid(1): 1}, 2)
    act = graph_from_pairs([(0, 1)])
    m = kl_build_matrix({0: [], 1: []}, a, act)
    assert m == [[1.0, 0.0], [0.0, 1.0]]


def test_kl_matrix_two_shard_flow():
    # shard 0 carries all the load; candidates offer enough weight to
    # equalize, so expected moved weight must be half the load difference
    k = 2
    # vertices 0,1 hot in shard 0; vertex 2 in shard 1
    pairs = [(0, 1)] * 6 + [(0, 2)] * 2
    a = Assignment({vid(0): 0, vid(1): 0, vid(2): 1}, k)
    act = graph_from_pairs(pairs)
    # loads: shard0 = va(0)+va(1) = 8+6 = 14, shard1 = va(2) = 2, mean = 8
    cands = {0: [Candidate(vid(1), 1, 1)], 1: []}  # candidate weight 6
    m = kl_build_matrix(cands, a, act)
    # surplus = 6, demand 6 -> flow 6 capped by receiver room 6 -> p = 6/6
    assert math.isclose(m[0][1], 1.0)
    assert m[1][0] == 0.0
    assert all(math.isclose(sum(row), 1.0) for row in m)


def test_kl_matrix_symmetric_case():
    pairs = [(0, 1)] * 4 + [(2, 3)] * 4 + [(0, 2)] * 2
    a = Assignment({vid(0): 0, vid(1): 0, vid(2): 1, vid(3): 1}, 2)
    act = graph_from_pairs(pairs)
    cands = {
        0: [Candidate(vid(0), 1, 1)],
        1: [Candidate(vid(2), 0, 1)],
    }
    m = kl_build_matrix(cands, a, act)
    assert math.isclose(m[0][1], m[1][0])


def test_kl_matrix_rows_stochastic_random():
    rng = random.Random(8)
    for _ in range(30):
        n, k = rng.randint(4, 14), rng.randint(2, 5)
        pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(4, 30))]
        a = Assignment({vid(i): rng.randrange(k) for i in range(n)}, k)
        act = graph_from_pairs(pairs)
        cands = kl_select_candidates(a, act)
        m = kl_build_matrix(cands, a, act)
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


def community_partgraph(seed, n, communities, degree, weights="unit"):
    """Planted communities (vertex u in community u % communities), edges
    mostly inside a community, weights 1-5. ``weights``: "unit", "skewed"
    (heavy-tailed, up to 200) or "heavy" (skewed plus one vertex heavier
    than any cap)."""
    rng = random.Random(seed)
    adj: list[dict[int, int]] = [{} for _ in range(n)]
    for u in range(n):
        for _ in range(degree):
            if rng.random() < 0.85:
                v = u % communities + communities * rng.randrange(n // communities)
            else:
                v = rng.randrange(n)
            if v != u:
                adj[u][v] = adj[v][u] = rng.randint(1, 5)
    if weights == "unit":
        vwgt = [1] * n
    else:
        vwgt = [min(200, int(rng.paretovariate(1.2))) for _ in range(n)]
    if weights == "heavy":
        vwgt[rng.randrange(n)] = 2 * sum(vwgt)
    return PartGraph(vwgt, adj)


def stars_partgraph(n, centres):
    """A forest of ``centres`` stars: each level matches one leaf per star, so coarsening stalls."""
    adj: list[dict[int, int]] = [{} for _ in range(n)]
    for leaf in range(centres, n):
        c = leaf % centres
        adj[leaf][c] = adj[c][leaf] = 1 + leaf % 3
    return PartGraph([1] * n, adj)


def test_two_cliques_split_perfectly():
    pairs = []
    for base in (0, 5):
        for i in range(5):
            for j in range(i + 1, 5):
                pairs.append((base + i, base + j))
    g = graph_from_pairs(pairs)
    res = multilevel_partition(g, PartitionerConfig(k=2, epsilon=0.05, seed=3))
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
    def total_edge_weight(g):
        return sum(sum(nbrs.values()) for nbrs in g.adj) // 2

    assert total_edge_weight(pg) == total_edge_weight(coarse) + folded


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
        cfg = PartitionerConfig(k=k, epsilon=0.05, seed=trial)
        res = partition_partgraph(pg, cfg)
        part = res.assignment.shard_of
        assert len(part) == n and all(0 <= s < k for s in part.values())
        if not res.infeasible_balance:
            weights = [0] * k
            for v in range(n):
                weights[part[v]] += pg.vwgt[v]
            assert max(weights) <= (1 + cfg.epsilon) * pg.total_vwgt() / k + 1e-9


def test_multilevel_deterministic():
    rng = random.Random(77)
    pg = random_partgraph(rng, 300, 0.03)
    cfg = PartitionerConfig(k=4, seed=5)
    a = partition_partgraph(pg, cfg).assignment.shard_of
    b = partition_partgraph(pg, cfg).assignment.shard_of
    assert a == b


def test_coarsening_kicks_in_on_large_graph():
    rng = random.Random(3)
    pg = random_partgraph(rng, 800, 0.01)
    cfg = PartitionerConfig(k=2, seed=1)
    res = partition_partgraph(pg, cfg)
    assert len(set(res.assignment.shard_of.values())) == 2
    assert res.refinement_cuts  # refinement ran on at least one level


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


# --- multilevel kernel oracles ----------------------------------------------
#
# The kernels as they were before they learned to skip work whose outcome is
# known. The kernels must make the same moves and draw the same random
# numbers as these, call for call.


def _coarsen_once_ref(pg: PartGraph, rng: random.Random) -> tuple[PartGraph, list[int]]:
    n = len(pg)
    order = list(range(n))
    rng.shuffle(order)
    match = [-1] * n
    for v in order:
        if match[v] != -1:
            continue
        best, best_w = -1, 0
        for u, w in pg.adj[v].items():
            if match[u] == -1 and (w > best_w or (w == best_w and (best == -1 or u < best))):
                best, best_w = u, w
        if best == -1:
            match[v] = v
        else:
            match[v] = best
            match[best] = v

    cmap = [-1] * n
    nc = 0
    for v in order:
        if cmap[v] != -1:
            continue
        cmap[v] = nc
        if match[v] != v:
            cmap[match[v]] = nc
        nc += 1

    cvwgt = [0] * nc
    cadj: list[dict[int, int]] = [{} for _ in range(nc)]
    for v in range(n):
        cvwgt[cmap[v]] += pg.vwgt[v]
        cv = cmap[v]
        nbrs = cadj[cv]
        for u, w in pg.adj[v].items():
            cu = cmap[u]
            if cu != cv:
                nbrs[cu] = nbrs.get(cu, 0) + w
    return PartGraph(cvwgt, cadj), cmap


def _greedy_grow_ref(pg: PartGraph, k: int, cap: float, rng: random.Random) -> list[int]:
    n = len(pg)
    part = [-1] * n
    unassigned = set(range(n))
    total_left = pg.total_vwgt()
    for shard in range(k - 1):
        if not unassigned:
            break
        target = total_left / (k - shard)
        weight = 0
        conn: dict[int, int] = {}
        while unassigned and weight < target:
            if conn:
                v = max(conn, key=lambda u: (conn[u], -u))
                conn.pop(v)
            else:
                v = rng.choice(sorted(unassigned))
            if weight > 0 and weight + pg.vwgt[v] > cap:
                break
            part[v] = shard
            unassigned.discard(v)
            weight += pg.vwgt[v]
            for u, w in pg.adj[v].items():
                if u in unassigned:
                    conn[u] = conn.get(u, 0) + w
        total_left -= weight
    for v in unassigned:
        part[v] = k - 1
    return part


def _fm_refine_ref(pg, part, k, cap, max_passes, rng, pass_cuts=None) -> int:
    n = len(pg)
    weights = _shard_weights(pg, part, k)
    cut = cut_weight(pg, part)
    order = list(range(n))
    for _ in range(max_passes):
        cut_before = cut
        rng.shuffle(order)
        moved = False
        for v in order:
            own = part[v]
            nbrs = pg.adj[v]
            if not nbrs:
                continue
            conn: dict[int, int] = {}
            for u, w in nbrs.items():
                pu = part[u]
                conn[pu] = conn.get(pu, 0) + w
            own_conn = conn.get(own, 0)
            best_j, best_gain = -1, 0
            for j, c in conn.items():
                if j == own:
                    continue
                gain = c - own_conn
                if gain > best_gain or (
                    gain == best_gain and best_gain > 0 and weights[j] < weights[best_j]
                ):
                    best_j, best_gain = j, gain
            if best_gain > 0 and weights[best_j] + pg.vwgt[v] <= cap:
                part[v] = best_j
                weights[own] -= pg.vwgt[v]
                weights[best_j] += pg.vwgt[v]
                cut -= best_gain
                moved = True
        assert cut <= cut_before, "refinement pass increased the cut"
        if pass_cuts is not None:
            pass_cuts.append((cut_before, cut))
        if not moved:
            break
    return cut


@st.composite
def kernel_cases(draw):
    """A symmetric PartGraph with positive weights, some vertices isolated, a
    starting part, k, a cap that is often tight, and an rng seed."""
    n = draw(st.integers(1, 40))
    k = draw(st.integers(2, 6))
    adj: list[dict[int, int]] = [{} for _ in range(n)]
    edge = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.integers(1, 4))
    for u, v, w in draw(st.lists(edge, min_size=n, max_size=4 * n)):
        if u != v:
            adj[u][v] = adj[v][u] = w
    if draw(st.booleans()):
        vwgt = [1] * n
    else:
        vwgt = draw(st.lists(st.integers(1, 12), min_size=n, max_size=n))
    epsilon = draw(st.sampled_from([0.0, 0.02, 0.1, 0.5]))
    part = draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))
    return PartGraph(vwgt, adj), part, k, (1 + epsilon) * sum(vwgt) / k, draw(st.integers(0, 2**32))


def _adjacency_in_order(pg: PartGraph) -> list[list[tuple[int, int]]]:
    # refinement breaks ties by neighbour order, so the order is part of the output
    return [list(nbrs.items()) for nbrs in pg.adj]


def test_shuffle_matches_random_shuffle():
    for n in range(65):
        for seed in range(50):
            reference, expected = random.Random(seed), list(range(n))
            reference.shuffle(expected)
            rng, got = random.Random(seed), list(range(n))
            _shuffle(got, rng.getrandbits)
            assert got == expected and rng.getstate() == reference.getstate(), (n, seed)


@settings(max_examples=150, deadline=None)
@given(kernel_cases())
def test_coarsen_once_matches_reference(case):
    pg, _, _, _, seed = case
    rng, ref_rng = random.Random(seed), random.Random(seed)
    coarse, cmap = coarsen_once(pg, rng)
    ref, ref_cmap = _coarsen_once_ref(pg, ref_rng)
    assert cmap == ref_cmap
    assert coarse.vwgt == ref.vwgt
    assert _adjacency_in_order(coarse) == _adjacency_in_order(ref)
    assert rng.getstate() == ref_rng.getstate()


@settings(max_examples=150, deadline=None)
@given(kernel_cases())
def test_greedy_grow_matches_reference(case):
    pg, _, k, cap, seed = case
    rng, ref_rng = random.Random(seed), random.Random(seed)
    assert _greedy_grow(pg, k, cap, rng) == _greedy_grow_ref(pg, k, cap, ref_rng)
    assert rng.getstate() == ref_rng.getstate()


@settings(max_examples=400, deadline=None)
@given(kernel_cases(), st.integers(1, 10), st.booleans())
def test_fm_refine_matches_reference(case, max_passes, pass_cut):
    pg, part, k, cap, seed = case
    rng, ref_rng = random.Random(seed), random.Random(seed)
    got, ref = list(part), list(part)
    got_cuts, ref_cuts = [], []
    known_cut = (cut_weight(pg, part),) if pass_cut else ()
    assert fm_refine(pg, got, k, cap, max_passes, rng, got_cuts, *known_cut) == _fm_refine_ref(
        pg, ref, k, cap, max_passes, ref_rng, ref_cuts
    )
    assert got == ref
    assert got_cuts == ref_cuts
    assert rng.getstate() == ref_rng.getstate()


def test_kernels_match_references_on_community_graphs():
    # larger graphs than hypothesis draws: many moves per pass, and caps
    # that fill up part-way through a pass
    for seed in range(6):
        pg = community_partgraph(seed, 300, 4, 2, "skewed" if seed % 2 else "unit")
        k = (2, 4, 8)[seed % 3]
        for epsilon in (0.0, 0.05):
            cap = (1 + epsilon) * pg.total_vwgt() / k
            rng, ref_rng = random.Random(seed), random.Random(seed)
            coarse, cmap = coarsen_once(pg, rng)
            ref, ref_cmap = _coarsen_once_ref(pg, ref_rng)
            assert (cmap, _adjacency_in_order(coarse)) == (ref_cmap, _adjacency_in_order(ref))
            part = _greedy_grow(coarse, k, cap, rng)
            assert part == _greedy_grow_ref(ref, k, cap, ref_rng)
            fine, ref_fine = [part[c] for c in cmap], [part[c] for c in cmap]
            cuts, ref_cuts = [], []
            assert fm_refine(pg, fine, k, cap, 10, rng, cuts) == _fm_refine_ref(pg, ref_fine, k, cap, 10, ref_rng, ref_cuts)
            assert (fine, cuts) == (ref_fine, ref_cuts)
            assert rng.getstate() == ref_rng.getstate()


# --- multilevel goldens --------------------------------------------------------
#
# The replay goldens' graphs are too small to coarsen. These pin
# partition_partgraph on graphs that do, and on one whose coarsening stalls.


MULTILEVEL_GOLDEN = {
    "communities-1000-k2-unit": (
        lambda: community_partgraph(1, 1000, 2, 3), 2,
        "600f3d9864f8c33f2b685d34edc4ec32de678a8661ae252774d73c5567158752",
    ),
    "communities-3000-k8-unit": (
        lambda: community_partgraph(2, 3000, 8, 2), 8,
        "a70fc1ef580c14f1f1b3073a439be38da1976396f4fdc782141e9d07930338c5",
    ),
    "communities-2000-k16-unit": (
        lambda: community_partgraph(3, 2000, 16, 2), 16,
        "590135bba73e5f9988a8dcc99fc5a33af3e2fcc2e6950ebb2e5ff876b28ca515",
    ),
    "communities-1500-k8-skewed": (
        lambda: community_partgraph(4, 1500, 8, 2, "skewed"), 8,
        "e45380fd4b46d36a50aaa15e0ab8facb2356edf3e9afbbcc67588aab6f99435b",
    ),
    "communities-2400-k16-skewed": (  # sparse enough to leave isolated vertices
        lambda: community_partgraph(5, 2400, 16, 1, "skewed"), 16,
        "572996a92d5d60b482c58f23cf4c8217a039f83977142c97df3009308557b173",
    ),
    "stars-1200-k8": (
        lambda: stars_partgraph(1200, 6), 8,
        "3219d2a9825bc7a68aa937766682e2586dacb5ff7b6db3d2263ccfbcd9e6dd15",
    ),
    "heavy-800-k2": (
        lambda: community_partgraph(6, 800, 2, 2, "heavy"), 2,
        "48e7d9d2c8f7c4d7f24df93a9bb4a98255af6b1e5462ac5eed0ead575bfd78bd",
    ),
}


@pytest.mark.parametrize("name", list(MULTILEVEL_GOLDEN))
def test_multilevel_golden(name):
    """SHA-256 of repr((part, infeasible, pass_cuts)) with seed 7."""
    build, k, digest = MULTILEVEL_GOLDEN[name]
    res = partition_partgraph(build(), PartitionerConfig(k=k, seed=7))
    out = (list(res.assignment.shard_of.values()), res.infeasible_balance, res.refinement_cuts)
    assert hashlib.sha256(repr(out).encode()).hexdigest() == digest
    if name.startswith("heavy"):
        assert out[1]  # the heavy vertex makes the cap unattainable


# --- new-vertex placement ---------------------------------------------------


def test_assign_all_neighbors_one_shard():
    a = Assignment({vid(1): 2, vid(2): 2}, 4)
    assert assign_new_vertex(a, {vid(1): 1, vid(2): 1}, [0, 0, 2, 0]) == 2


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


BAD_ADJACENCY = {
    "neighbour-above-n": ("2 1 011\n1 3 1\n1 1 1\n", "not another vertex"),
    "neighbour-zero": ("2 1 011\n1 0 1\n1 1 1\n", "not another vertex"),
    "one-way-pair": ("2 1 011\n1 2 1\n1\n", "both ends"),
    "unequal-pair-weights": ("2 1 011\n1 2 1\n1 1 2\n", "both ends"),
    "self-loop": ("2 1 011\n1 1 1 2 1\n1 1 1\n", "not another vertex"),
    "vertex-weight-zero": ("2 1 011\n0 2 1\n1 1 1\n", "weight 0 is below 1"),
    "edge-weight-zero": ("2 1 011\n1 2 0\n1 1 0\n", "edge weight 0 is below 1"),
    "edge-weight-negative": ("2 1 011\n1 2 -3\n1 1 -3\n", "edge weight -3 is below 1"),
    "header-edge-count": ("2 2 011\n1 2 1\n1 1 1\n", "header says 2 edges"),
    "neighbour-without-weight": ("2 1 011\n1 2\n1 1 1\n", "no edge weight"),
    "too-few-vertex-lines": ("3 1 011\n1 2 1\n1 1 1\n", "header says 3 vertices, the file ends after 2"),
    "line-after-last-vertex": ("2 1 011\n1 2 1\n1 1 1\n1\n", "non-blank line follows the 2 vertex lines"),
    "negative-vertex-count": ("-1 0 011\n", "header says -1 vertices"),
    # a third entry is the sidecar's text
    "repeated-sidecar-name": ("2 1 011\n1 2 1\n1 1 1\n", "sidecar names vertex 'a' more than once", "a\na\n"),
}


@pytest.mark.parametrize("case", list(BAD_ADJACENCY))
def test_read_adjacency_rejects_bad_graph(tmp_path, case):
    text, message, *sidecar = BAD_ADJACENCY[case]
    path, sidecar_path = tmp_path / "g.graph", tmp_path / "g.map"
    path.write_text(text)
    if sidecar:
        sidecar_path.write_text(sidecar[0])
    with pytest.raises(ValueError, match=message):
        read_adjacency(str(path), str(sidecar_path) if sidecar else None)
