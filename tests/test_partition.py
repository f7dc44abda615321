import hashlib
import math
import random
from collections import Counter, defaultdict

import pytest
from hypothesis import given, settings, strategies as st

from shardsim import partition
from shardsim.graph import InteractionGraph
from shardsim.metrics import Assignment, edge_cut, shard_loads
from shardsim.partition import (
    MASK64,
    Candidate,
    PartGraph,
    PartitionerConfig,
    _greedy_grow,
    _repair_balance,
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

from conftest import graph_from_pairs, id_graph, vid


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


def hash64_reference(data, seed=0):
    """hash64 as written before the seed's state was cached, verbatim."""
    h = 0xCBF29CE484222325
    for b in (seed & MASK64).to_bytes(8, "little") + data:
        h ^= b
        h = (h * 0x100000001B3) & MASK64
    h ^= h >> 30
    h = (h * 0xBF58476D1CE4E5B9) & MASK64
    h ^= h >> 27
    h = (h * 0x94D049BB133111EB) & MASK64
    h ^= h >> 31
    return h


@given(st.binary(max_size=64), st.sampled_from([0, 1, -1, 7, 2**64, 2**64 + 7, 3 * 2**70 - 1]) | st.integers())
def test_hash64_matches_reference(data, seed):
    assert hash64(data, seed) == hash64_reference(data, seed)
    assert hash64(data) == hash64_reference(data)


# --- KL oracle -------------------------------------------------------------


def test_kl_candidates_gain_arithmetic():
    # vertex 0 in shard 0: 3 unit edges to shard-1 vertices, 1 internal edge
    pairs = [(0, 1), (0, 2), (0, 3), (0, 4)]
    a = Assignment([0, 1, 1, 1, 0], 2)
    act = id_graph(pairs)
    cands = kl_select_candidates(a, act)
    c = [c for c in cands[0] if c.vertex == 0]
    assert c == [Candidate(0, 1, 2)]


def test_kl_internal_vertex_not_candidate():
    pairs = [(0, 1)]
    a = Assignment([0, 0, 1], 2)
    act = id_graph(pairs)
    cands = kl_select_candidates(a, act)
    assert cands[0] == [] and cands[1] == []


def test_kl_candidate_gain_matches_cut_delta():
    rng = random.Random(31)
    for _ in range(50):
        n = rng.randint(4, 12)
        k = rng.randint(2, 4)
        pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(3, 25))]
        act = id_graph(pairs)
        a = Assignment([rng.randrange(k) for _ in range(n)], k)
        for shard, cands in kl_select_candidates(a, act).items():
            for c in cands:
                assert c.gain > 0
                before = edge_cut(act, a, "dynamic")
                moved = Assignment(a.shard_of.copy(), k)
                moved.shard_of[c.vertex] = c.target
                after = edge_cut(act, moved, "dynamic")
                total = sum(act.undirected.values())
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
    a = Assignment([0, 1], 2)
    act = id_graph([(0, 1)])
    m = kl_build_matrix({0: [], 1: []}, a, act)
    assert m == [[1.0, 0.0], [0.0, 1.0]]


def test_kl_matrix_two_shard_flow():
    # shard 0 carries all the load; candidates offer enough weight to
    # equalize, so expected moved weight must be half the load difference
    k = 2
    # vertices 0,1 hot in shard 0; vertex 2 in shard 1
    pairs = [(0, 1)] * 6 + [(0, 2)] * 2
    a = Assignment([0, 0, 1], k)
    act = id_graph(pairs)
    # loads: shard0 = va(0)+va(1) = 8+6 = 14, shard1 = va(2) = 2, mean = 8
    cands = {0: [Candidate(1, 1, 1)], 1: []}  # candidate weight 6
    m = kl_build_matrix(cands, a, act)
    # surplus = 6, demand 6 -> flow 6 capped by receiver room 6 -> p = 6/6
    assert math.isclose(m[0][1], 1.0)
    assert m[1][0] == 0.0
    assert all(math.isclose(sum(row), 1.0) for row in m)


def test_kl_matrix_symmetric_case():
    pairs = [(0, 1)] * 4 + [(2, 3)] * 4 + [(0, 2)] * 2
    a = Assignment([0, 0, 1, 1], 2)
    act = id_graph(pairs)
    cands = {
        0: [Candidate(0, 1, 1)],
        1: [Candidate(2, 0, 1)],
    }
    m = kl_build_matrix(cands, a, act)
    assert math.isclose(m[0][1], m[1][0])


def test_kl_matrix_rows_stochastic_random():
    rng = random.Random(8)
    for _ in range(30):
        n, k = rng.randint(4, 14), rng.randint(2, 5)
        pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(4, 30))]
        a = Assignment([rng.randrange(k) for _ in range(n)], k)
        act = id_graph(pairs)
        cands = kl_select_candidates(a, act)
        m = kl_build_matrix(cands, a, act)
        for row in m:
            assert all(x >= -1e-12 for x in row)
            assert math.isclose(sum(row), 1.0, abs_tol=1e-9)


def test_kl_matrix_float_drift_guard():
    # Found by a random search: shard 2's off-diagonal entries sum to
    # 1.0000000000000002 before the guard rescales them, which would leave a
    # negative diagonal. A self-loop record adds 2 to its vertex's activity.
    weights = [998, 528, 836, 907, 476, 382, 274, 907, 144, 796, 81]
    act = id_graph([(v, v) for v, w in enumerate(weights) for _ in range(w)])
    a = Assignment([3, 2, 2, 0, 0, 2, 0, 0, 0, 1, 2], 4)
    moves = {0: [(3, 2), (6, 1), (7, 2), (8, 1)], 1: [(9, 2)], 2: [(1, 1), (5, 0), (10, 3)], 3: [(0, 2)]}
    m = kl_build_matrix({i: [Candidate(v, j, 1) for v, j in moves[i]] for i in moves}, a, act)
    assert m[2][2] == 0.0  # rescaled, not 1.0 - 1.0000000000000002
    for row in m:
        assert min(row) >= 0.0
        assert math.isclose(sum(row), 1.0)


def test_kl_exchange_identity_matrix_no_moves():
    a = Assignment([0, 1], 2)
    cands = {0: [Candidate(0, 1, 3)], 1: []}
    m = [[1.0, 0.0], [0.0, 1.0]]
    assert kl_exchange(a, cands, m, 4).shard_of == a.shard_of


def test_kl_exchange_forced_move():
    a = Assignment([0, 1], 2)
    cands = {0: [Candidate(0, 1, 3)], 1: []}
    m = [[0.0, 1.0], [0.0, 1.0]]
    out = kl_exchange(a, cands, m, 4)
    assert out.shard_of == [1, 1]  # vertex 1, no candidate, untouched


def test_kl_exchange_deterministic():
    rng = random.Random(2)
    a = Assignment([rng.randrange(3) for _ in range(30)], 3)
    cands = {s: [Candidate(v, (s + 1) % 3, 1) for v, sh in enumerate(a.shard_of) if sh == s] for s in range(3)}
    m = [[0.5, 0.25, 0.25], [0.25, 0.5, 0.25], [0.25, 0.25, 0.5]]
    assert kl_exchange(a, cands, m, 99).shard_of == kl_exchange(a, cands, m, 99).shard_of


def test_kl_exchange_flow_statistics():
    # expected moved weight per shard pair matches the matrix-implied flow
    a = Assignment([0] * 10, 2)
    weights = [i + 1 for i in range(10)]  # candidate weights 1..10
    cands = {0: [Candidate(i, 1, 1) for i in range(10)], 1: []}
    p01 = 0.3
    m = [[1 - p01, p01], [0.0, 1.0]]
    trials = 1000
    moved = 0.0
    for seed in range(trials):
        out = kl_exchange(a, cands, m, seed)
        moved += sum(w for w, s in zip(weights, out.shard_of) if s == 1)
    mean = moved / trials
    expect = p01 * sum(weights)
    var = sum((w**2) * p01 * (1 - p01) for w in weights)
    sigma = math.sqrt(var / trials)
    assert abs(mean - expect) <= 3 * sigma


# The KL layer as it was before ``kl_build_matrix`` kept only the swap and
# residual matrices and ``kl_exchange`` drew from a cumulative row: the
# matrices must match these bit for bit, since the draws are compared
# against their sums, and so must the assignments for the same seed.


def _kl_build_matrix_ref(candidates, a, activity):
    k = a.k
    vact = activity.vertices
    loads = [0.0] * k
    total = 0.0
    for v, w in vact.items():
        loads[a.shard_of[v]] += w
        total += w
    mean = total / k if k else 0.0
    surplus = [loads[i] - mean for i in range(k)]

    cand_weight = [0.0] * k
    demand = [[0.0] * k for _ in range(k)]
    for i in range(k):
        for c in candidates.get(i, ()):
            w = float(vact.get(c.vertex, 0))
            cand_weight[i] += w
            demand[i][c.target] += w

    swap = [[0.0] * k for _ in range(k)]
    residual = [[0.0] * k for _ in range(k)]
    for i in range(k):
        for j in range(k):
            if i != j:
                swap[i][j] = min(demand[i][j], demand[j][i])
                residual[i][j] = demand[i][j] - swap[i][j]

    net = [[0.0] * k for _ in range(k)]
    for i in range(k):
        row_demand = sum(residual[i])
        want_out = max(surplus[i], 0.0)
        if row_demand <= 0.0 or want_out <= 0.0:
            continue
        scale = min(1.0, want_out / row_demand)
        for j in range(k):
            net[i][j] = residual[i][j] * scale
    for j in range(k):
        inflow = sum(net[i][j] for i in range(k))
        room = max(-surplus[j], 0.0)
        if inflow > room:
            scale = room / inflow if inflow > 0 else 0.0
            for i in range(k):
                net[i][j] *= scale

    flow = [[swap[i][j] + net[i][j] for j in range(k)] for i in range(k)]

    p = [[0.0] * k for _ in range(k)]
    for i in range(k):
        if cand_weight[i] > 0.0:
            for j in range(k):
                if j != i:
                    p[i][j] = flow[i][j] / cand_weight[i]
        off = sum(p[i][j] for j in range(k) if j != i)
        if off > 1.0:
            for j in range(k):
                if j != i:
                    p[i][j] /= off
            off = 1.0
        p[i][i] = 1.0 - off
    return p


def _kl_exchange_ref(a, candidates, matrix, seed):
    rng = random.Random(seed)
    shard_of = a.shard_of.copy()
    for i in sorted(candidates):
        row = matrix[i]
        for c in candidates[i]:
            u = rng.random()
            acc = 0.0
            dest = i
            for j in range(a.k):
                acc += row[j]
                if u < acc:
                    dest = j
                    break
            shard_of[c.vertex] = dest
    return Assignment(shard_of, a.k)


@st.composite
def kl_matrix_cases(draw):
    """An assignment, its activity and candidates, some of them picked by hand.

    Vertices n..n+extra-1 are assigned but have no activity. Hand-picked
    candidates may name them (the matrix weighs them 0), and a shard's list
    may be emptied or dropped.
    """
    k = draw(st.integers(1, 8))
    n = draw(st.integers(1, 12))
    extra = draw(st.integers(0, 3))
    shard = draw(st.lists(st.integers(0, k - 1), min_size=n + extra, max_size=n + extra))
    vertex = st.integers(0, n - 1)
    activity = InteractionGraph()
    for u, v, w in draw(st.lists(st.tuples(vertex, vertex, st.integers(1, 4)), max_size=30)):
        for _ in range(w):
            activity.record(u, v)
    a = Assignment(shard, k)
    cands = kl_select_candidates(a, activity)
    if k > 1 and draw(st.booleans()):
        for i in range(k):
            members = [v for v in range(n + extra) if shard[v] == i]
            picked = draw(st.lists(st.sampled_from(members), max_size=4)) if members else []
            cands[i] = [Candidate(v, draw(st.sampled_from([j for j in range(k) if j != i])), 1) for v in picked]
    for i in draw(st.lists(st.integers(0, k - 1), max_size=2)):
        if draw(st.booleans()):
            cands.pop(i, None)
        else:
            cands[i] = []
    return a, activity, cands, draw(st.integers(0, 2**32))


@settings(max_examples=400, deadline=None)
@given(kl_matrix_cases())
def test_kl_matches_reference(case):
    a, activity, cands, seed = case
    m = kl_build_matrix(cands, a, activity)
    assert m == _kl_build_matrix_ref(cands, a, activity)
    # halved rows sum to about 0.5, so about half the draws reach past them
    for matrix in (m, [[x / 2 for x in row] for row in m]):
        assert kl_exchange(a, cands, matrix, seed).shard_of == _kl_exchange_ref(a, cands, matrix, seed).shard_of


def test_kl_matrix_matches_reference_on_each_scaling_case():
    # loads 15, 9 and 4 about a mean of 9.33. Past the 6 it swaps with
    # shard 1, shard 0 asks to send 9 there, more than its surplus (row
    # scaling) and more than shard 1's room (column scaling). Shard 1 is
    # under the mean, so its demand toward shard 2 is dropped; shard 2 has
    # no candidates.
    pairs = [(0, 1)] * 6 + [(2, 3)] * 3 + [(4, 5)] * 2 + [(0, 2)] * 2 + [(2, 0)]
    a = Assignment([0, 0, 1, 1, 2, 2], 3)
    act = id_graph(pairs)
    cands = {
        0: [Candidate(0, 1, 1), Candidate(1, 1, 1)],
        1: [Candidate(2, 0, 1), Candidate(3, 2, 1)],
        2: [],
    }
    m = kl_build_matrix(cands, a, act)
    assert m == _kl_build_matrix_ref(cands, a, act)
    assert math.isclose(m[0][1], (6 + 1 / 3) / 15)
    assert m[1] == [6 / 9, 1 - 6 / 9, 0.0] and m[2] == [0.0, 0.0, 1.0]


# ``kl_build_matrix`` as it was while it summed the shard loads in floats: the
# int loads of ``shard_loads`` are exact, and so was every float sum below
# 2**53, so the matrices must match entry for entry.


def _kl_build_matrix_float_sums(candidates, a, activity):
    k = a.k
    vact = activity.vertices
    loads = [0.0] * k
    total = 0.0
    for v, w in vact.items():
        loads[a.shard_of[v]] += w
        total += w
    mean = total / k
    surplus = [load - mean for load in loads]

    cand_weight = [0.0] * k
    net = [[0.0] * k for _ in range(k)]
    for i, cands in candidates.items():
        for c in cands:
            w = float(vact.get(c.vertex, 0))
            cand_weight[i] += w
            net[i][c.target] += w
    flow = [[min(d, net[j][i]) for j, d in enumerate(row)] for i, row in enumerate(net)]
    for i, (row, swaps) in enumerate(zip(net, flow)):
        residual = [d - s for d, s in zip(row, swaps)]
        row_demand = sum(residual)
        want_out = max(surplus[i], 0.0)
        scale = 0.0 if row_demand <= 0.0 or want_out <= 0.0 else min(1.0, want_out / row_demand)
        net[i] = [r * scale for r in residual]
    for j in range(k):
        inflow = sum(row[j] for row in net)
        room = max(-surplus[j], 0.0)
        if inflow > room:
            scale = room / inflow
            for row in net:
                row[j] *= scale

    p = []
    for i, (swaps, moves) in enumerate(zip(flow, net)):
        w = cand_weight[i]
        row = [(s + m) / w if j != i and w > 0.0 else 0.0 for j, (s, m) in enumerate(zip(swaps, moves))]
        off = sum(row)
        if off > 1.0:
            row = [x / off for x in row]
            off = 1.0
        row[i] = 1.0 - off
        p.append(row)
    return p


@st.composite
def kl_heavy_cases(draw):
    """A part vector, activity of up to 10**6 per vertex (some vertices
    without any) and random candidates: vertices of each shard, aimed at
    random other shards, repeats allowed."""
    k = draw(st.integers(1, 9))
    n = draw(st.integers(1, 40))
    shard = draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))
    activity = InteractionGraph()
    for v in draw(st.lists(st.integers(0, n - 1), unique=True)):
        activity.vertices[v] = draw(st.integers(1, 10**6))
    cands = {}
    for i in range(k):
        members = [v for v in range(n) if shard[v] == i]
        if members and k > 1 and draw(st.booleans()):
            others = [j for j in range(k) if j != i]
            cands[i] = [
                Candidate(v, draw(st.sampled_from(others)), 1)
                for v in draw(st.lists(st.sampled_from(members), max_size=8))
            ]
    return Assignment(shard, k), activity, cands


@settings(max_examples=400, deadline=None)
@given(kl_heavy_cases())
def test_kl_matrix_int_loads_match_float_sums(case):
    a, activity, cands = case
    got = kl_build_matrix(cands, a, activity)
    want = _kl_build_matrix_float_sums(cands, a, activity)
    assert len(got) == len(want) == a.k
    for got_row, want_row in zip(got, want):
        assert len(got_row) == len(want_row) == a.k
        for x, y in zip(got_row, want_row):
            assert x == y


def test_kl_exchange_draw_past_row_sum_stays():
    # row 0 sums to 0.6: a draw of 0.6 or more leaves the candidate in shard 0
    a = Assignment([0] * 20, 2)
    cands = {0: [Candidate(i, 1, 1) for i in range(20)]}
    m = [[0.3, 0.3], [0.0, 1.0]]
    draws = random.Random(5)
    expect = [1 if 0.3 <= draws.random() < 0.6 else 0 for _ in range(20)]
    assert 0 in expect and 1 in expect
    out = kl_exchange(a, cands, m, 5)
    assert out.shard_of == expect == _kl_exchange_ref(a, cands, m, 5).shard_of


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
    """A forest of ``centres`` stars: heavy-edge matching takes one leaf per star
    per level, and two-hop matching pairs up the other leaves on their centre."""
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
    a = Assignment(dict(zip(g.vertices, res.assignment.shard_of)), 2)
    assert edge_cut(g, a) == 0.0
    shards = [sum(1 for s in a.shard_of.values() if s == i) for i in range(2)]
    assert shards == [5, 5]
    assert not res.infeasible_balance


def test_k1_trivial():
    g = graph_from_pairs([(0, 1), (1, 2)])
    res = multilevel_partition(g, PartitionerConfig(k=1))
    assert set(res.assignment.shard_of) == {0}


def test_empty_graph_rejected():
    g = graph_from_pairs([])
    with pytest.raises(ValueError):
        multilevel_partition(g, PartitionerConfig(k=2))


def test_coarsening_conserves_weight():
    rng = random.Random(6)
    pg = random_partgraph(rng, 60, 0.15)
    coarse, cmap = coarsen_once(pg, random.Random(1))
    assert sum(coarse.vwgt) == sum(pg.vwgt)
    # edge weight: fine total = coarse total + weight folded into matches
    folded = 0
    for u in range(len(pg)):
        for v, w in pg.adj[u].items():
            if v > u and cmap[u] == cmap[v]:
                folded += w
    def total_edge_weight(g):
        return sum(sum(nbrs.values()) for nbrs in g.adj) // 2

    assert total_edge_weight(pg) == total_edge_weight(coarse) + folded


def test_two_hop_matching_pairs_the_leaves_of_a_star():
    # heavy-edge matching alone left 1,194 coarse vertices: one leaf per star
    pg = stars_partgraph(1200, 6)
    for seed in range(5):
        coarse, cmap = coarsen_once(pg, random.Random(seed))
        assert len(coarse) == 600
        assert sum(coarse.vwgt) == 1200


def test_coarsening_gives_up_below_ten_percent_shrink(monkeypatch):
    # 30 disjoint edges among 1,000 vertices: one level shrinks by 3 % only
    n = 1000
    adj: list[dict[int, int]] = [{} for _ in range(n)]
    for u in range(0, 60, 2):
        adj[u][u + 1] = adj[u + 1][u] = 1
    pg = PartGraph([1] * n, adj)
    calls = []

    def counted(g, rng):
        calls.append(len(g))
        return coarsen_once(g, rng)

    monkeypatch.setattr(partition, "coarsen_once", counted)
    cfg = PartitionerConfig(k=4, seed=3)
    res = partition_partgraph(pg, cfg)
    assert calls == [n]
    assert not res.infeasible_balance
    assert max(Counter(res.assignment.shard_of).values()) <= cfg.balance_cap(n)


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
        cap = 1.05 * sum(pg.vwgt) / 3
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
        assert len(part) == n and all(0 <= s < k for s in part)
        if not res.infeasible_balance:
            weights = [0] * k
            for v in range(n):
                weights[part[v]] += pg.vwgt[v]
            assert max(weights) <= (1 + cfg.epsilon) * sum(pg.vwgt) / k + 1e-9


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
    assert len(set(res.assignment.shard_of)) == 2
    assert res.refinement_cuts  # refinement ran on at least one level


# --- balance repair oracle ---------------------------------------------------


def _repair_balance_scan(pg: PartGraph, part: list[int], k: int, cap: float) -> bool:
    """Reference: the full-rescan repair that _repair_balance must reproduce move for move."""
    weights = shard_loads(part, pg.vwgt, k)
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


class _MovesOnce(list):
    """A part vector that fails on a vertex's second move: balance repair
    moves a vertex only into a shard within the cap, which stays within it,
    so it moves no vertex twice and ends within |V| moves."""

    def __init__(self, part):
        super().__init__(part)
        self.moved = set()

    def __setitem__(self, v, s):
        assert v not in self.moved, f"vertex {v} moved twice"
        self.moved.add(v)
        super().__setitem__(v, s)


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
    fast, ref = _MovesOnce(part), list(part)
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
    fast, ref = _MovesOnce(start), list(start)
    assert _repair_balance(pg, fast, 3, 4.2) is True
    assert _repair_balance_scan(pg, ref, 3, 4.2) is True
    assert fast == ref
    left = {start[v] for v in range(n) if fast[v] != start[v]}
    assert left == {0, 1}


@pytest.mark.parametrize(
    "seed,n,k,weights",
    [(1, 400, 2, "unit"), (2, 300, 8, "skewed"), (3, 200, 16, "unit"),
     (4, 300, 16, "skewed"), (5, 400, 8, "unit"), (6, 200, 2, "skewed")],
)
def test_repair_balance_matches_scan_reference_on_community_graphs(seed, n, k, weights):
    # hundreds of moves per call: targets gain weight from move to move, and
    # with two shards over the cap the heaviest one changes back and forth;
    # the skewed k=16 graph cannot meet its cap
    pg = community_partgraph(seed, n, k, 3, weights)
    cap = 1.05 * sum(pg.vwgt) / k
    starts = [[0] * n]
    if k > 2:  # shards 0 and 1 both over the cap
        starts.append([v % 2 if v % 4 else v % k for v in range(n)])
    for start in starts:
        fast, ref = _MovesOnce(start), list(start)
        assert _repair_balance(pg, fast, k, cap) == _repair_balance_scan(pg, ref, k, cap)
        assert fast == ref


# --- multilevel kernel oracles ----------------------------------------------
#
# The kernels as they were before they learned to skip work whose outcome is
# known. The kernels must make the same moves and draw the same random
# numbers as these, call for call. ``_coarsen_once_ref`` is heavy-edge
# matching alone; ``_two_hop_ref``, written apart from the kernel, adds the
# two-hop step to its result. ``_greedy_grow_ref``, also written apart from
# the kernel, passes over a vertex that does not fit instead of closing the
# shard.


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


def _hub(pg: PartGraph, v: int) -> int:
    """The heaviest neighbour of ``v``, lowest index on ties."""
    return min(pg.adj[v], key=lambda u: (-pg.adj[v][u], u))


def _two_hop_ref(pg: PartGraph, hem_cmap: list[int]) -> tuple[PartGraph, list[int]]:
    """Bucket the heavy-edge singles that have neighbours by hub, pair each
    bucket's singles consecutively in visit order, and contract."""
    # heavy-edge coarse vertices are numbered in visit order of their first member
    groups: list[list[int]] = [[] for _ in range(max(hem_cmap, default=-1) + 1)]
    for v, c in enumerate(hem_cmap):
        groups[c].append(v)
    buckets = defaultdict(list)
    for group in groups:
        if len(group) == 1 and pg.adj[group[0]]:
            buckets[_hub(pg, group[0])].append(group)
    for bucket in buckets.values():
        for first, second in zip(bucket[0::2], bucket[1::2]):
            first.extend(second)  # the pair keeps its first member's place
            second.clear()
    cmap = [-1] * len(pg)
    for c, group in enumerate(g for g in groups if g):
        for v in group:
            cmap[v] = c
    cvwgt = [0] * (max(cmap, default=-1) + 1)
    cadj: list[dict[int, int]] = [{} for _ in cvwgt]
    for v in range(len(pg)):
        cvwgt[cmap[v]] += pg.vwgt[v]
        for u, w in pg.adj[v].items():
            if cmap[u] != cmap[v]:
                cadj[cmap[v]][cmap[u]] = cadj[cmap[v]].get(cmap[u], 0) + w
    return PartGraph(cvwgt, cadj), cmap


def _greedy_grow_ref(pg: PartGraph, k: int, cap: float, rng: random.Random) -> list[int]:
    n = len(pg)
    part = [-1] * n
    unassigned = set(range(n))
    total_left = sum(pg.vwgt)
    for shard in range(k - 1):
        if not unassigned:
            break
        target = total_left / (k - shard)
        weight = 0
        passed: set[int] = set()  # unassigned, but too heavy for this shard
        conn: dict[int, int] = {}
        while weight < target:
            if conn:
                v = max(conn, key=lambda u: (conn[u], -u))
                conn.pop(v)
            elif unassigned - passed:
                v = rng.choice(sorted(unassigned - passed))
            else:
                break
            if weight > 0 and weight + pg.vwgt[v] > cap:
                passed.add(v)
                continue
            part[v] = shard
            unassigned.discard(v)
            weight += pg.vwgt[v]
            for u, w in pg.adj[v].items():
                if u in unassigned and u not in passed:
                    conn[u] = conn.get(u, 0) + w
        total_left -= weight
    for v in unassigned:
        part[v] = k - 1
    return part


def _fm_refine_ref(pg, part, k, cap, max_passes, rng, pass_cuts=None) -> int:
    n = len(pg)
    weights = shard_loads(part, pg.vwgt, k)
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
    ref, ref_cmap = _two_hop_ref(pg, _coarsen_once_ref(pg, ref_rng)[1])
    assert cmap == ref_cmap
    assert coarse.vwgt == ref.vwgt
    assert _adjacency_in_order(coarse) == _adjacency_in_order(ref)
    assert rng.getstate() == ref_rng.getstate()


@settings(max_examples=300, deadline=None)
@given(kernel_cases())
def test_two_hop_pairs_only_heavy_edge_singles_on_one_hub(case):
    pg, _, _, _, seed = case
    _, cmap = coarsen_once(pg, random.Random(seed))
    _, hem_cmap = _coarsen_once_ref(pg, random.Random(seed))

    def groups(m):
        members = defaultdict(set)
        for v, c in enumerate(m):
            members[c].add(v)
        return {frozenset(g) for g in members.values()}

    got, hem = groups(cmap), groups(hem_cmap)
    hem_singles = {v for g in hem if len(g) == 1 for v in g}
    assert all(len(g) <= 2 for g in got)
    # the heavy-edge pairs are those of heavy-edge matching alone
    assert {g for g in got if not g <= hem_singles} == {g for g in hem if len(g) == 2}
    # each two-hop pair joins two heavy-edge singles on one hub
    for g in got:
        if len(g) == 2 and g <= hem_singles:
            a, b = g
            assert _hub(pg, a) == _hub(pg, b)
    # no two leftover singles with neighbours share a hub
    hubs = [_hub(pg, v) for g in got if len(g) == 1 for v in g if pg.adj[v]]
    assert len(hubs) == len(set(hubs))


@settings(max_examples=150, deadline=None)
@given(kernel_cases())
def test_greedy_grow_matches_reference(case):
    pg, _, k, cap, seed = case
    rng, ref_rng = random.Random(seed), random.Random(seed)
    assert _greedy_grow(pg, k, cap, rng) == _greedy_grow_ref(pg, k, cap, ref_rng)
    assert rng.getstate() == ref_rng.getstate()


@settings(max_examples=300, deadline=None)
@given(kernel_cases())
def test_greedy_grow_closes_a_shard_only_when_nothing_fits(case):
    """Read from the output alone: shards 0..k-2 keep to the cap unless they
    hold one vertex, and one that ends below its target leaves no later
    vertex that would have fitted."""
    pg, _, k, cap, seed = case
    part = _greedy_grow(pg, k, cap, random.Random(seed))
    weights = shard_loads(part, pg.vwgt, k)
    total = sum(weights)
    for s in range(k - 1):
        if part.count(s) > 1:
            assert weights[s] <= cap, (s, weights)
        if weights[s] < (total - sum(weights[:s])) / (k - s):
            later = [v for v in range(len(pg)) if part[v] > s]
            assert all(weights[s] + pg.vwgt[v] > cap for v in later), (s, weights)


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
            cap = (1 + epsilon) * sum(pg.vwgt) / k
            rng, ref_rng = random.Random(seed), random.Random(seed)
            coarse, cmap = coarsen_once(pg, rng)
            ref, ref_cmap = _two_hop_ref(pg, _coarsen_once_ref(pg, ref_rng)[1])
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
# partition_partgraph on graphs that do, among them a star forest, on which
# heavy-edge matching alone stalled after one level (1,200 -> 1,194).


MULTILEVEL_GOLDEN = {
    "communities-1000-k2-unit": (
        lambda: community_partgraph(1, 1000, 2, 3), 2,
        "8cc1f829646cda4ef25028614b9398d18d2cddd3360b56ab3d4045800094d18f",
    ),
    "communities-3000-k8-unit": (
        lambda: community_partgraph(2, 3000, 8, 2), 8,
        "7037dd0ca8e9fd7a20671562e816e37113a1cae558c28c5a76715058123f65a4",
    ),
    "communities-2000-k16-unit": (
        lambda: community_partgraph(3, 2000, 16, 2), 16,
        "367bca22a4d79f1b23906d09e70abf146b6d98e9aa2cd638c1eea48f2d1c1867",
    ),
    "communities-1500-k8-skewed": (
        lambda: community_partgraph(4, 1500, 8, 2, "skewed"), 8,
        "5f053d9ab96161e7e2cd04b67ea75b94a85bf6b8285585992dab65826c26a3b3",
    ),
    "communities-2400-k16-skewed": (  # sparse enough to leave isolated vertices
        lambda: community_partgraph(5, 2400, 16, 1, "skewed"), 16,
        "3cb1062c26a6be0eb0452465bf6180d2fff4bd40078a1dbd9cd8d7a6bfb55b5a",
    ),
    "stars-1200-k8": (
        lambda: stars_partgraph(1200, 6), 8,
        "b336f9e7fbdd1c12a97156174dfd7bea7fe6b6a848efd1d2b09b5379e2ce1e14",
    ),
    "heavy-800-k2": (
        lambda: community_partgraph(6, 800, 2, 2, "heavy"), 2,
        "be404d946c2945b55befa3154b40034fbd331cb1b4aed961baef4a7fcc9195ae",
    ),
    "communities-800-k16-skewed": (  # the only one whose balance repair moves
        lambda: community_partgraph(7, 800, 16, 2, "skewed"), 16,
        "e4ab7ecfe5fad835fb6c587d020f86166a393df9f7b55f265325a3b3f1f37712",
    ),
}


@pytest.mark.parametrize("name", list(MULTILEVEL_GOLDEN))
def test_multilevel_golden(name, monkeypatch):
    """SHA-256 of repr((part, infeasible, pass_cuts)) with seed 7."""
    moved = []

    def counted(pg, part, k, cap):
        before = list(part)
        feasible = repair(pg, part, k, cap)
        moved.append(sum(a != b for a, b in zip(before, part)))
        return feasible

    repair = partition._repair_balance
    monkeypatch.setattr(partition, "_repair_balance", counted)
    build, k, digest = MULTILEVEL_GOLDEN[name]
    res = partition_partgraph(build(), PartitionerConfig(k=k, seed=7))
    out = (list(res.assignment.shard_of), res.infeasible_balance, res.refinement_cuts)
    assert hashlib.sha256(repr(out).encode()).hexdigest() == digest
    if name.startswith("heavy"):
        assert out[1]  # the heavy vertex makes the cap unattainable
    if name == "communities-800-k16-skewed":
        assert sum(moved) >= 1


# --- new-vertex placement ---------------------------------------------------


def _assign_new_vertex_ref(a: Assignment, tx_neighbors, shard_sizes) -> int:
    """The placement rule read from an id multiset and the assignment."""
    if not tx_neighbors:
        return min(range(a.k), key=lambda i: (shard_sizes[i], i))
    counts = [0] * a.k
    for v, mult in tx_neighbors.items():
        counts[a.shard_of[v]] += mult
    best = max(counts)
    return min((i for i in range(a.k) if counts[i] == best), key=lambda i: (shard_sizes[i], i))


def test_assign_all_neighbors_one_shard():
    assert assign_new_vertex([0, 0, 2, 0], [0, 0, 2, 0]) == 2


def test_assign_tie_breaks_to_lighter_shard():
    assert assign_new_vertex([1, 1], [5, 3]) == 1


def test_assign_no_neighbors_lightest_shard():
    assert assign_new_vertex([0, 0, 0], [5, 3, 4]) == 1


def test_assign_weighted_by_multiplicity():
    assert assign_new_vertex([3, 1], [9, 1]) == 0


@settings(max_examples=400, deadline=None)
@given(data=st.data(), k=st.integers(1, 8), n=st.integers(0, 12))
def test_assign_new_vertex_matches_reference(data, k, n):
    # counts read through the part vector pick the shard the id multiset did;
    # small shard sizes and multiplicities make ties common
    part = data.draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))
    sizes = data.draw(st.lists(st.integers(0, 3), min_size=k, max_size=k))
    members = Counter(data.draw(st.lists(st.integers(0, n - 1), max_size=8)) if n else [])
    other = data.draw(st.none() | st.integers(0, n - 1)) if n else None
    counts = [0] * k
    for v, mult in members.items():
        counts[part[v]] += mult
    if other is not None:  # the record's placed counterpart
        members[other] += 1
        counts[part[other]] += 1
    assert assign_new_vertex(counts, sizes) == _assign_new_vertex_ref(Assignment(part, k), members, sizes)


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
    with pytest.raises(ValueError, match="^unknown vertex weight mode 'bogus'$"):
        PartGraph.from_interaction_graph(g, "bogus")


def test_adjacency_roundtrip_of_int_keyed_graph(tmp_path):
    # the replay's graphs are keyed by int id, in order of first appearance
    g = InteractionGraph()
    for u, v in [(3, 1), (1, 0), (0, 2), (2, 3), (4, 4), (1, 3)]:
        g.record(u, v)
    gpath, spath = str(tmp_path / "g.graph"), str(tmp_path / "g.map")
    write_adjacency(g, gpath, spath)
    pg = read_adjacency(gpath, spath)
    assert pg.names == ["3", "1", "0", "2", "4"] == [str(v) for v in g.vertices]
    orig = PartGraph.from_interaction_graph(g)
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
    # a count no list can hold: nothing is allocated before the lines are read
    "vertex-count-past-any-list": (f"{10**30} 0 011\n", f"header says {10**30} vertices, the file ends after 0"),
    "edge-weights-only-format": ("3 2 001\n2 1 3 1\n1 1\n1 1\n", "format field is 001, not 011"),
    "unknown-format": ("4 3 xyz\n1 2 1\n1 1 1 3 1\n1 2 1 4 1\n1 3 1\n", "format field is xyz, not 011"),
    "no-format-field": ("4 3\n1 2 1\n1 1 1 3 1\n1 2 1 4 1\n1 3 1\n", "header has 2 fields"),
    "header-not-integer": ("abc 2 011\n1 2 1\n1 1 1\n", "adjacency header: 'abc' is not an integer"),
    "edge-weight-not-integer": ("2 1 011\n1 2 1\n1 1 1.5\n", r"vertex 2: '1\.5' is not an integer"),
    "neighbour-not-integer": ("2 1 011\n1 2x 1\n1 1 1\n", "vertex 1: '2x' is not an integer"),
    # int() reads these, but they are not plain decimal integers
    "header-with-underscore": ("2_0 1 011\n1 2 1\n1 1 1\n", "adjacency header: '2_0' is not an integer"),
    "neighbour-with-plus": ("2 1 011\n1 +2 1\n1 1 1\n", r"vertex 1: '\+2' is not an integer"),
    "edge-weight-with-underscore": ("2 1 011\n1 2 1_0\n1 1 10\n", "vertex 1: '1_0' is not an integer"),
    "edge-weight-non-ascii-digit": ("2 1 011\n1 2 \u0661\n1 1 1\n", "vertex 1: '\u0661' is not an integer"),
    # a third entry is the sidecar's text
    "repeated-sidecar-name": ("2 1 011\n1 2 1\n1 1 1\n", "sidecar names vertex 'a' more than once", "a\na\n"),
}


@pytest.mark.parametrize("case", list(BAD_ADJACENCY))
def test_read_adjacency_rejects_bad_graph(tmp_path, case):
    text, message, *sidecar = BAD_ADJACENCY[case]
    path, sidecar_path = tmp_path / "g.graph", tmp_path / "g.map"
    path.write_text(text, encoding="utf-8")
    if sidecar:
        sidecar_path.write_text(sidecar[0])
    with pytest.raises(ValueError, match=message):
        read_adjacency(str(path), str(sidecar_path) if sidecar else None)


def test_read_adjacency_blank_vertex_line_is_an_isolated_vertex(tmp_path):
    # a blank line among the |V| vertex lines is a vertex of weight 1 without edges
    path = tmp_path / "g.graph"
    path.write_text("3 1 011\n2 3 1\n\n1 1 1\n")
    pg = read_adjacency(str(path))
    assert pg.vwgt == [2, 1, 1]
    assert pg.adj == [{2: 1}, {}, {0: 1}]
