"""Partitioning strategies: identifier hashing, probabilistic KL exchange,
multilevel k-way partitioning, and incremental new-vertex placement.

The multilevel partitioner follows the standard scheme: heavy-edge-matching
coarsening, greedy graph growing on the coarsest graph, then boundary
refinement (positive-gain single-vertex moves under a balance cap) while
projecting back up the levels.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

from shardsim.graph import InteractionGraph
from shardsim.metrics import Assignment

MASK64 = (1 << 64) - 1


@dataclass
class PartitionerConfig:
    k: int = 2
    epsilon: float = 0.05  # shard weight cap, see balance_cap
    hash_seed: int = 0
    rng_seed: int = 0
    kl_rounds: int = 1
    fm_passes: int = 10  # refinement pass cap per level
    init_tries: int = 4  # greedy-growing restarts on the coarsest graph
    coarsen_min: int = 200  # stop coarsening at max(30*k, coarsen_min) vertices

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.epsilon < 0:
            raise ValueError("epsilon must be >= 0")

    def balance_cap(self, total_weight: int) -> float:
        """Largest shard weight allowed: (1 + epsilon) * total / k."""
        return (1.0 + self.epsilon) * total_weight / self.k


# ---------------------------------------------------------------------------
# Hashing


def hash64(data: bytes, seed: int = 0) -> int:
    """Seeded 64-bit FNV-1a with a splitmix64-style avalanche finalizer.

    Fixed and platform-independent so shard placement is reproducible
    everywhere (never Python's builtin hash).
    """
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


def hash_partition(vertex: str, cfg: PartitionerConfig) -> int:
    """Shard of a vertex by hashing its canonical address, mod k."""
    try:
        data = bytes.fromhex(vertex)
    except ValueError:
        data = vertex.encode("utf-8")
    return hash64(data, cfg.hash_seed) % cfg.k


# ---------------------------------------------------------------------------
# KL-style probabilistic exchange


@dataclass(frozen=True)
class Candidate:
    vertex: int | str  # the vertex's key in the assignment: a dense id in the replay
    target: int
    gain: int  # activity-weighted cut reduction if moved to target


def kl_select_candidates(
    a: Assignment, activity: InteractionGraph, key: Callable | None = None
) -> dict[int, list[Candidate]]:
    """Per-shard positive-gain move candidates from recent activity.

    gain(v, j) = activity toward shard j minus activity inside v's own shard;
    a vertex is a candidate iff its best gain is positive (ties broken toward
    the lowest shard index). Self-loop activity is ignored: it can never be
    cut, so it contributes nothing to the cut change of a move. Each shard's
    candidates are listed in vertex order, sorted by ``key`` (the replay
    passes the address of each id, so the order is by address).
    """
    k = a.k
    shard_of = a.shard_of
    conn = {v: [0] * k for v in activity.vertices}  # activity toward each shard
    for (u, v), w in activity.undirected.items():
        if u != v:
            conn[u][shard_of[v]] += w
            conn[v][shard_of[u]] += w
    out: dict[int, list[Candidate]] = {i: [] for i in range(k)}
    for v in sorted(conn, key=key):
        c = conn[v]
        own = shard_of[v]
        best_j, best_gain = own, 0
        for j in range(k):
            if j == own:
                continue
            gain = c[j] - c[own]
            if gain > best_gain:
                best_j, best_gain = j, gain
        if best_gain > 0:
            out[own].append(Candidate(v, best_j, best_gain))
    return out


def kl_build_matrix(
    candidates: dict[int, list[Candidate]],
    a: Assignment,
    activity: InteractionGraph,
    cfg: PartitionerConfig,
) -> list[list[float]]:
    """Row-stochastic k x k matrix directing candidate exchanges.

    The balance requirement constrains the expected NET flow per shard, so
    the flow has two parts: matched two-way swaps, min(demand[i][j],
    demand[j][i]), which never change loads, plus residual demand scaled so
    no shard sends more than its surplus over the mean load nor receives
    more than its deficit. Row i is converted to probabilities against shard
    i's total candidate weight, remainder mass on the diagonal (stay put).
    """
    k = a.k
    vact = activity.vertices
    loads = [0.0] * k
    total = 0.0
    for v, w in vact.items():
        loads[a.shard_of[v]] += w
        total += w
    mean = total / k if k else 0.0
    surplus = [loads[i] - mean for i in range(k)]

    cand_weight = [0.0] * k  # total movable activity weight per shard
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
        if off > 1.0:  # guard against float drift
            for j in range(k):
                if j != i:
                    p[i][j] /= off
            off = 1.0
        p[i][i] = 1.0 - off
    return p


def kl_exchange(
    a: Assignment,
    candidates: dict[int, list[Candidate]],
    matrix: Sequence[Sequence[float]],
    rng_seed: int,
) -> Assignment:
    """Move each candidate of shard i to shard j with probability matrix[i][j].

    Shards are drawn in index order and each shard's candidates in the order
    listed. Deterministic for a fixed seed; non-candidates never move. The
    result is a new assignment.
    """
    rng = random.Random(rng_seed)
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


# ---------------------------------------------------------------------------
# Multilevel partitioner


class PartGraph:
    """Undirected weighted graph in dense index form for partitioning kernels.

    Self-loops are dropped on construction (they never affect a cut).
    """

    def __init__(self, vwgt: list[int], adj: list[dict[int, int]], names: list[str] | None = None):
        self.vwgt = vwgt
        self.adj = adj
        self.names = names if names is not None else [str(i) for i in range(len(vwgt))]

    def __len__(self) -> int:
        return len(self.vwgt)

    def total_vwgt(self) -> int:
        return sum(self.vwgt)

    def total_edge_weight(self) -> int:
        return sum(sum(nbrs.values()) for nbrs in self.adj) // 2

    def num_edges(self) -> int:
        return sum(len(nbrs) for nbrs in self.adj) // 2

    @classmethod
    def from_interaction_graph(cls, g: InteractionGraph, vertex_weights: str = "unit") -> "PartGraph":
        """Index-form copy of the undirected view of an interaction graph.

        vertex_weights: "unit" (one per vertex) or "activity" (the graph's
        per-vertex endpoint counts).
        """
        names = list(g.vertices)
        index = {v: i for i, v in enumerate(names)}
        if vertex_weights == "unit":
            vwgt = [1] * len(names)
        elif vertex_weights == "activity":
            vwgt = [max(1, g.vertices[v]) for v in names]
        else:
            raise ValueError(f"unknown vertex weight mode {vertex_weights!r}")
        adj: list[dict[int, int]] = [{} for _ in names]
        for (u, v), w in g.undirected.items():
            if u == v:
                continue
            ui, vi = index[u], index[v]
            adj[ui][vi] = w
            adj[vi][ui] = w
        return cls(vwgt, adj, names)


def cut_weight(pg: PartGraph, part: Sequence[int]) -> int:
    cut = 0
    for u in range(len(pg)):
        pu = part[u]
        for v, w in pg.adj[u].items():
            if v > u and part[v] != pu:
                cut += w
    return cut


def coarsen_once(pg: PartGraph, rng: random.Random) -> tuple[PartGraph, list[int]]:
    """One level of heavy-edge-matching contraction.

    Returns the coarse graph and the fine->coarse vertex map. Total vertex
    weight is conserved; matched-pair edges fold away (self-loops dropped).
    """
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


def _greedy_grow(pg: PartGraph, k: int, cap: float, rng: random.Random) -> list[int]:
    """Initial partition by greedy graph growing from random seeds."""
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
                # full enough; do not blow the cap once the region is nonempty
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


def _shard_weights(pg: PartGraph, part: Sequence[int], k: int) -> list[int]:
    w = [0] * k
    for v in range(len(pg)):
        w[part[v]] += pg.vwgt[v]
    return w


def _repair_balance(pg: PartGraph, part: list[int], k: int, cap: float) -> bool:
    """Move cheapest vertices out of overweight shards. Returns feasibility.

    Each step takes the heaviest shard ``over`` (lowest index on ties) and
    makes the move of one of its vertices ``v`` to a shard ``j`` that stays
    within ``cap`` minimising ``(conn[v][over] - conn[v][j], weights[j], v,
    j)``, where ``conn[v][j]`` is v's edge weight into shard j. It stops when
    no shard is over the cap, no move fits, or after ``2 * |V|`` moves.

    No vertex ever joins a shard that is over the cap, so ``conn`` is kept
    only for the vertices of shards that start over it, and updated move by
    move. One heap per target shard ``j`` holds ``(conn[v][over] -
    conn[v][j], v)`` for the members of ``over``, rebuilt when the heaviest
    shard changes. A move out of ``over`` lowers every key of the mover's
    neighbours in ``over``, so their fresh keys are pushed and always sit
    ahead of the out-of-date ones. An entry is discarded when its vertex has
    left ``over`` or no longer fits in ``j``; the latter is final while
    ``over`` stays the heaviest, because the other shards only gain weight.
    Edge weights must be non-negative and the adjacency symmetric, as in
    every PartGraph.
    """
    n = len(pg)
    vwgt, adj = pg.vwgt, pg.adj
    weights = _shard_weights(pg, part, k)
    if max(weights) <= cap:
        return True
    conn: list[list[int] | None] = [None] * n
    for v in range(n):
        if weights[part[v]] > cap:
            c = conn[v] = [0] * k
            for u, w in adj[v].items():
                c[part[u]] += w
    heaps: list[list[tuple[int, int]]] = []
    heaps_over = -1
    for _ in range(n * 2):
        over = max(range(k), key=lambda i: weights[i])
        if weights[over] <= cap:
            return True
        if over != heaps_over:
            members = [v for v in range(n) if part[v] == over]
            heaps = [
                [(conn[v][over] - conn[v][j], v) for v in members if j != over and weights[j] + vwgt[v] <= cap]
                for j in range(k)
            ]
            for h in heaps:
                heapq.heapify(h)
            heaps_over = over
        best: tuple[int, int, int, int] | None = None
        for j, h in enumerate(heaps):
            while h:
                d, v = h[0]
                if part[v] == over and weights[j] + vwgt[v] <= cap:
                    if best is None or (d, weights[j], v, j) < best:
                        best = (d, weights[j], v, j)
                    break
                heapq.heappop(h)
        if best is None:
            return False
        _, _, v, to = best
        part[v] = to
        weights[over] -= vwgt[v]
        weights[to] += vwgt[v]
        for u, w in adj[v].items():
            c = conn[u]
            if c is None:
                continue
            c[over] -= w
            c[to] += w
            if part[u] == over:
                for j, h in enumerate(heaps):
                    if j != over and weights[j] + vwgt[u] <= cap:
                        heapq.heappush(h, (c[over] - c[j], u))
    return max(weights) <= cap


def fm_refine(
    pg: PartGraph,
    part: list[int],
    k: int,
    cap: float,
    max_passes: int,
    rng: random.Random,
    pass_cuts: list[tuple[int, int]] | None = None,
) -> int:
    """Boundary refinement: greedy positive-gain single-vertex moves.

    Each pass visits vertices in a shuffled order and applies any move with
    a strictly positive cut gain whose target shard stays under the weight
    cap; passes repeat until none improves (or max_passes). The cut is
    non-increasing per pass by construction. Returns the final cut weight.
    """
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


@dataclass
class MultilevelResult:
    assignment: Assignment
    infeasible_balance: bool = False
    # (cut_before, cut_after) per refinement pass, for monotonicity checks
    refinement_cuts: list[tuple[int, int]] = field(default_factory=list)
    balance_cap: float = 0.0
    max_vertex_weight: int = 0  # the cap cannot be met when this exceeds it


def partition_partgraph(pg: PartGraph, cfg: PartitionerConfig) -> tuple[list[int], bool, list[tuple[int, int]]]:
    """Multilevel k-way partition of an index-form graph.

    Returns (partition vector, infeasible-balance flag, per-pass cut pairs).
    """
    k = cfg.k
    n = len(pg)
    if n == 0:
        raise ValueError("cannot partition an empty graph")
    if k == 1:
        return [0] * n, False, []

    rng = random.Random(cfg.rng_seed)
    cap = cfg.balance_cap(pg.total_vwgt())
    infeasible = max(pg.vwgt) > cap
    pass_cuts: list[tuple[int, int]] = []

    # coarsening
    levels: list[tuple[PartGraph, list[int]]] = []  # (fine graph, fine->coarse map)
    cur = pg
    coarsen_stop = max(30 * k, cfg.coarsen_min)
    while len(cur) > coarsen_stop:
        coarse, cmap = coarsen_once(cur, rng)
        if len(coarse) > 0.9 * len(cur):  # shrinkage under 10%, give up
            break
        levels.append((cur, cmap))
        cur = coarse

    # initial partitioning on the coarsest graph, best of several tries
    best_part: list[int] | None = None
    best_key: tuple | None = None
    for _ in range(max(1, cfg.init_tries)):
        cand = _greedy_grow(cur, k, cap, rng)
        feasible = _repair_balance(cur, cand, k, cap)
        cut = fm_refine(cur, cand, k, cap, cfg.fm_passes, rng, pass_cuts)
        key = (not feasible, cut)
        if best_key is None or key < best_key:
            best_key, best_part = key, cand
    part = list(best_part or [])

    # uncoarsening with refinement at each level
    for fine, cmap in reversed(levels):
        part = [part[cmap[v]] for v in range(len(fine))]
        fm_refine(fine, part, k, cap, cfg.fm_passes, rng, pass_cuts)

    if not _repair_balance(pg, part, k, cap):
        infeasible = True
    return part, infeasible, pass_cuts


def multilevel_partition(
    graph: InteractionGraph, cfg: PartitionerConfig, weights: str = "unit"
) -> MultilevelResult:
    """Partition an interaction graph into cfg.k shards.

    ``weights`` selects vertex weights: "unit" balances vertex counts (the
    full-graph strategy), "activity" balances per-vertex record counts (the
    windowed strategies).
    """
    pg = PartGraph.from_interaction_graph(graph, weights)
    part, infeasible, pass_cuts = partition_partgraph(pg, cfg)
    shard_of = dict(zip(pg.names, part))
    return MultilevelResult(
        Assignment(shard_of, cfg.k), infeasible, pass_cuts, cfg.balance_cap(pg.total_vwgt()), max(pg.vwgt)
    )


# ---------------------------------------------------------------------------
# Incremental placement


def assign_new_vertex(a: Assignment, tx_neighbors: Mapping, shard_sizes: Sequence[int]) -> int:
    """Shard for a first-seen vertex.

    Picks the shard holding the most transaction neighbors (weighted by
    multiplicity; every neighbor must already be assigned); ties go to the
    lighter shard by ``shard_sizes`` (vertices per shard), and with no
    neighbors the globally lightest shard wins.
    """
    if not tx_neighbors:
        return min(range(a.k), key=lambda i: (shard_sizes[i], i))
    counts = [0] * a.k
    for v, mult in tx_neighbors.items():
        counts[a.shard_of[v]] += mult
    best = max(counts)
    return min((i for i in range(a.k) if counts[i] == best), key=lambda i: (shard_sizes[i], i))


# ---------------------------------------------------------------------------
# Adjacency file interchange (offline partitioning)


def write_adjacency(graph: InteractionGraph, path: str, sidecar: str, weights: str = "unit") -> None:
    """Export the undirected view in the de facto partitioner text format.

    Header ``|V| |E| 011`` then one line per vertex: vertex weight followed by
    (1-based neighbor index, edge weight) pairs. Self-loops are dropped (the
    format cannot express them). The sidecar maps line index -> vertex id.
    """
    pg = PartGraph.from_interaction_graph(graph, weights)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{len(pg)} {pg.num_edges()} 011\n")
        for v in range(len(pg)):
            parts = [str(pg.vwgt[v])]
            for u in sorted(pg.adj[v]):
                parts.append(str(u + 1))
                parts.append(str(pg.adj[v][u]))
            fh.write(" ".join(parts) + "\n")
    with open(sidecar, "w", encoding="utf-8") as fh:
        for name in pg.names:
            fh.write(name + "\n")


def read_adjacency(path: str, sidecar: str | None = None) -> PartGraph:
    """Load a graph written by write_adjacency."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().split()
        if len(header) < 2:
            raise ValueError("bad adjacency header")
        n = int(header[0])
        vwgt = [1] * n
        adj: list[dict[int, int]] = [{} for _ in range(n)]
        for v in range(n):
            tokens = fh.readline().split()
            if not tokens:
                continue
            vwgt[v] = int(tokens[0])
            for i in range(1, len(tokens), 2):
                u = int(tokens[i]) - 1
                w = int(tokens[i + 1])
                adj[v][u] = w
    names = None
    if sidecar:
        with open(sidecar, "r", encoding="utf-8") as fh:
            names = [line.strip() for line in fh if line.strip()]
        if len(names) != n:
            raise ValueError("sidecar length does not match vertex count")
    return PartGraph(vwgt, adj, names)
