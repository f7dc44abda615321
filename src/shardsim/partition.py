"""Partitioning strategies: identifier hashing, probabilistic KL exchange,
multilevel k-way partitioning, and incremental new-vertex placement.

The multilevel partitioner follows the standard scheme: heavy-edge-matching
coarsening, greedy graph growing on the coarsest graph, then boundary
refinement (positive-gain single-vertex moves under a balance cap) while
projecting back up the levels. Its kernels skip work whose outcome is known
without changing a move or a random draw: refinement re-evaluates a vertex
only when its neighbourhood or its targets' room has changed, projection
hands each level the cut of the last, and graph growing keeps its frontier
in a heap. Kernels shuffle through ``_shuffle``, which makes
``Random.shuffle``'s ``getrandbits`` draws and swaps inline: it leaves the
same order and generator state, without two Python-level calls per element.
"""

from __future__ import annotations

import heapq
import random
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from typing import Callable, ClassVar, Mapping, Sequence

from shardsim.graph import InteractionGraph
from shardsim.metrics import Assignment

MASK64 = (1 << 64) - 1
REFINE_PASSES = 10  # refinement pass cap per level
INITIAL_TRIES = 4  # greedy-growing restarts on the coarsest graph


@dataclass
class PartitionerConfig:
    k: int = 2
    epsilon: float = 0.05  # shard weight cap, see balance_cap
    seed: int = 0  # of identifier hashing, KL's draws and the multilevel partitioner
    kl_rounds: int = 1
    coarsen_min: ClassVar[int] = 200  # stop coarsening at max(30*k, coarsen_min) vertices

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.epsilon < 0:
            raise ValueError("epsilon must be >= 0")
        if self.kl_rounds < 1:
            raise ValueError("kl_rounds must be >= 1")

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
    return hash64(bytes.fromhex(vertex), cfg.seed) % cfg.k


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
    seed: int,
) -> Assignment:
    """Move each candidate of shard i to shard j with probability matrix[i][j].

    Shards are drawn in index order and each shard's candidates in the order
    listed. Deterministic for a fixed seed; non-candidates never move. The
    result is a new assignment.
    """
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


# ---------------------------------------------------------------------------
# Multilevel partitioner


class PartGraph:
    """Undirected weighted graph in dense index form for partitioning kernels.

    Self-loops are dropped on construction (they never affect a cut).
    ``names`` maps index to vertex id; without it each index names itself.
    """

    def __init__(self, vwgt: list[int], adj: list[dict[int, int]], names: Sequence | None = None):
        self.vwgt = vwgt
        self.adj = adj
        self.names = names if names is not None else range(len(vwgt))

    def __len__(self) -> int:
        return len(self.vwgt)

    def total_vwgt(self) -> int:
        return sum(self.vwgt)

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


def _shuffle(x: list, getrandbits: Callable[[int], int]) -> None:
    """Shuffle ``x`` in place exactly as ``Random.shuffle`` would, given
    that generator's ``getrandbits``: the same draws, swaps and final state."""
    for i in range(len(x) - 1, 0, -1):
        # Random._randbelow(i + 1): draw bit_length(i + 1) bits until <= i
        k = (i + 1).bit_length()
        j = getrandbits(k)
        while j > i:
            j = getrandbits(k)
        x[i], x[j] = x[j], x[i]


def coarsen_once(pg: PartGraph, rng: random.Random) -> tuple[PartGraph, list[int]]:
    """One level of heavy-edge-matching contraction.

    Returns the coarse graph and the fine->coarse vertex map. Vertices are
    visited in a shuffled order; one still unmatched takes its heaviest
    unmatched neighbour (lowest index on ties), which is therefore not visited
    yet, and the pair becomes the next coarse vertex. Total vertex weight is
    conserved; matched-pair edges fold away (self-loops dropped).
    """
    n = len(pg)
    adj = pg.adj
    order = list(range(n))
    _shuffle(order, rng.getrandbits)
    cmap = [-1] * n  # -1 while unmatched
    nc = 0
    for v in order:
        if cmap[v] != -1:
            continue
        best, best_w = -1, 0
        for u, w in adj[v].items():
            if cmap[u] == -1 and (w > best_w or (w == best_w and (best == -1 or u < best))):
                best, best_w = u, w
        cmap[v] = nc
        if best != -1:
            cmap[best] = nc
        nc += 1

    cvwgt = [0] * nc
    cadj: list[dict[int, int]] = [{} for _ in range(nc)]
    for v, cv in enumerate(cmap):
        cvwgt[cv] += pg.vwgt[v]
        nbrs = cadj[cv]
        for u, w in adj[v].items():
            cu = cmap[u]
            if cu != cv:
                nbrs[cu] = nbrs.get(cu, 0) + w
    return PartGraph(cvwgt, cadj), cmap


def _greedy_grow(pg: PartGraph, k: int, cap: float, rng: random.Random) -> list[int]:
    """Initial partition by greedy graph growing from random seeds.

    Shards 0..k-2 each grow from a random unassigned vertex by the frontier
    vertex with the most edge weight into the shard (lowest index on ties).
    That weight only grows, so a lazy heap of ``(-weight, vertex)`` finds it.
    """
    n = len(pg)
    vwgt, adj = pg.vwgt, pg.adj
    part = [-1] * n
    unassigned = list(range(n))  # kept sorted: rng.choice must see the same sequence
    total_left = pg.total_vwgt()
    for shard in range(k - 1):
        if not unassigned:
            break
        target = total_left / (k - shard)
        weight = 0
        conn: dict[int, int] = {}  # the frontier's edge weight into the shard
        frontier: list[tuple[int, int]] = []
        while unassigned and weight < target:
            if conn:
                c, v = heapq.heappop(frontier)
                while conn.get(v) != -c:
                    c, v = heapq.heappop(frontier)
                del conn[v]
            else:
                v = rng.choice(unassigned)
            if weight > 0 and weight + vwgt[v] > cap:
                # full enough; do not blow the cap once the region is nonempty
                break
            part[v] = shard
            del unassigned[bisect_left(unassigned, v)]
            weight += vwgt[v]
            for u, w in adj[v].items():
                if part[u] == -1:
                    c = conn[u] = conn.get(u, 0) + w
                    heapq.heappush(frontier, (-c, u))
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
    move. While ``over`` stays the heaviest the other shards only gain
    weight, so the lightest has the most room, and a vertex that does not
    fit in a shard never will. Lazy heaps of the members of ``over``,
    rebuilt when it changes, hold ``(conn[v][over], v)`` in ``nearest``,
    the key toward any shard v has no edge into, where the lightest is best,
    and ``(conn[v][over] - conn[v][j], v)`` in ``toward[j]`` for members
    with edges into j. ``nearest`` over-estimates those keys, so it never
    beats ``toward[j]`` with them. A move lowers keys of the mover's
    neighbours in ``over``: their fresh keys are pushed and sit ahead of the
    old ones. An entry is dropped once its vertex has left ``over`` or no
    longer fits. Edge weights must be positive and the adjacency symmetric.
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
    nearest: list[tuple[int, int]] = []
    toward: list[list[tuple[int, int]]] = []
    heaps_over = -1
    for _ in range(n * 2):
        heaviest = max(weights)
        if heaviest <= cap:
            return True
        over = weights.index(heaviest)
        if over != heaps_over:
            nearest, toward = [], [[] for _ in range(k)]
            for v in range(n):
                if part[v] == over:
                    c = conn[v]
                    nearest.append((c[over], v))
                    for j in range(k):
                        if c[j] and j != over:
                            toward[j].append((c[over] - c[j], v))
            heapq.heapify(nearest)
            for h in toward:
                heapq.heapify(h)
            heaps_over = over
        lightest, light = min((weights[j], j) for j in range(k) if j != over)
        best: tuple[int, int, int, int] | None = None
        room = cap - lightest
        while nearest:
            d, v = nearest[0]
            if part[v] == over and vwgt[v] <= room:
                best = (d, lightest, v, light)
                break
            heapq.heappop(nearest)
        for j, h in enumerate(toward):
            room = cap - weights[j]
            while h:
                d, v = h[0]
                if part[v] == over and vwgt[v] <= room:
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
                heapq.heappush(nearest, (c[over], u))
                for j in range(k):
                    if c[j] and j != over:
                        heapq.heappush(toward[j], (c[over] - c[j], u))
    return max(weights) <= cap


def fm_refine(
    pg: PartGraph,
    part: list[int],
    k: int,
    cap: float,
    max_passes: int,
    rng: random.Random,
    pass_cuts: list[tuple[int, int]] | None = None,
    cut: int | None = None,
) -> int:
    """Boundary refinement: greedy positive-gain single-vertex moves.

    Each pass visits vertices in a shuffled order and applies any move with
    a strictly positive cut gain whose target shard stays under the weight
    cap; passes repeat until none improves (or max_passes). The cut is
    non-increasing per pass by construction. Returns the final cut weight;
    ``cut``, the cut of ``part`` if the caller knows it, saves counting it.

    A vertex is evaluated again only when the result could differ: its gains
    depend only on its neighbours' shards, so it is skipped until a neighbour
    moves if its best gain was <= 0, or, if every target reaching its positive
    best gain was too full for it, while they stay too full (the lighter-shard
    tie-break only picks among them). This needs a symmetric adjacency.
    """
    n = len(pg)
    vwgt, adj = pg.vwgt, pg.adj
    weights = _shard_weights(pg, part, k)
    if cut is None:
        cut = cut_weight(pg, part)
    order = list(range(n))
    # None: evaluate; else the full best-gain targets, () when the gain was <= 0
    full_targets: list[tuple[int, ...] | None] = [None] * n
    getrandbits = rng.getrandbits
    for _ in range(max_passes):
        cut_before = cut
        _shuffle(order, getrandbits)
        moved = False
        for v in order:
            targets = full_targets[v]
            if targets is not None:
                for j in targets:
                    if weights[j] + vwgt[v] <= cap:
                        break
                else:
                    continue
            own = part[v]
            nbrs = adj[v]
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
            if best_gain <= 0:
                full_targets[v] = ()
            elif weights[best_j] + vwgt[v] > cap:
                full_targets[v] = tuple(j for j, c in conn.items() if j != own and c - own_conn == best_gain)
            else:
                part[v] = best_j
                weights[own] -= vwgt[v]
                weights[best_j] += vwgt[v]
                cut -= best_gain
                moved = True
                full_targets[v] = None
                for u in nbrs:
                    full_targets[u] = None
        assert cut <= cut_before, "refinement pass increased the cut"
        if pass_cuts is not None:
            pass_cuts.append((cut_before, cut))
        if not moved:
            break
    return cut


@dataclass
class MultilevelResult:
    assignment: Assignment  # keyed by PartGraph.names
    infeasible_balance: bool
    # (cut_before, cut_after) per refinement pass, for monotonicity checks
    refinement_cuts: list[tuple[int, int]]
    balance_cap: float
    max_vertex_weight: int  # the cap cannot be met when this exceeds it


def partition_partgraph(pg: PartGraph, cfg: PartitionerConfig) -> MultilevelResult:
    """Multilevel k-way partition of an index-form graph into cfg.k shards."""
    k = cfg.k
    n = len(pg)
    if n == 0:
        raise ValueError("cannot partition an empty graph")
    cap = cfg.balance_cap(pg.total_vwgt())
    heaviest = max(pg.vwgt)
    if k == 1:
        return MultilevelResult(Assignment(dict.fromkeys(pg.names, 0), k), False, [], cap, heaviest)

    rng = random.Random(cfg.seed)
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
    for _ in range(INITIAL_TRIES):
        cand = _greedy_grow(cur, k, cap, rng)
        feasible = _repair_balance(cur, cand, k, cap)
        cut = fm_refine(cur, cand, k, cap, REFINE_PASSES, rng, pass_cuts)
        key = (not feasible, cut)
        if best_key is None or key < best_key:
            best_key, best_part = key, cand
    part, cut = best_part, best_key[1]

    # uncoarsening with refinement at each level; projection keeps the cut
    for fine, cmap in reversed(levels):
        part = [part[c] for c in cmap]
        cut = fm_refine(fine, part, k, cap, REFINE_PASSES, rng, pass_cuts, cut)

    infeasible = not _repair_balance(pg, part, k, cap) or heaviest > cap
    return MultilevelResult(Assignment(dict(zip(pg.names, part)), k), infeasible, pass_cuts, cap, heaviest)


def multilevel_partition(
    graph: InteractionGraph, cfg: PartitionerConfig, weights: str = "unit"
) -> MultilevelResult:
    """Partition an interaction graph into cfg.k shards.

    ``weights`` selects vertex weights: "unit" balances vertex counts (the
    full-graph strategy), "activity" balances per-vertex record counts (the
    windowed strategies).
    """
    return partition_partgraph(PartGraph.from_interaction_graph(graph, weights), cfg)


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
    """Load a graph written by write_adjacency.

    Raises ValueError unless it is a PartGraph the kernels accept: exactly
    |V| >= 0 vertex lines (blank lines after them are ignored), neighbour
    indices in 1..|V|, no self-loops, vertex and edge weights of at least 1,
    each edge listed from both ends with one weight, |E| as the header says,
    and a sidecar, if given, of |V| distinct names.
    """
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().split()
        if len(header) < 2:
            raise ValueError("bad adjacency header")
        n, m = int(header[0]), int(header[1])
        if n < 0:
            raise ValueError(f"header says {n} vertices, a negative count")
        vwgt = [1] * n
        adj: list[dict[int, int]] = [{} for _ in range(n)]
        for v in range(n):
            line = fh.readline()
            if not line:
                raise ValueError(f"header says {n} vertices, the file ends after {v} vertex lines")
            tokens = line.split()
            if not tokens:
                continue
            if len(tokens) % 2 == 0:
                raise ValueError(f"vertex {v + 1}: a neighbour has no edge weight")
            vwgt[v] = int(tokens[0])
            if vwgt[v] < 1:
                raise ValueError(f"vertex {v + 1}: weight {vwgt[v]} is below 1")
            for i in range(1, len(tokens), 2):
                u, w = int(tokens[i]) - 1, int(tokens[i + 1])
                if not 0 <= u < n or u == v:
                    raise ValueError(f"vertex {v + 1}: neighbour {u + 1} is not another vertex in 1..{n}")
                if w < 1:
                    raise ValueError(f"vertex {v + 1}: edge weight {w} is below 1")
                adj[v][u] = w
        if any(line.strip() for line in fh):
            raise ValueError(f"a non-blank line follows the {n} vertex lines the header gives")
    for v, nbrs in enumerate(adj):
        for u, w in nbrs.items():
            if adj[u].get(v) != w:
                raise ValueError(f"edge {v + 1}-{u + 1} is not listed from both ends with one weight")
    edges = sum(len(nbrs) for nbrs in adj) // 2
    if edges != m:
        raise ValueError(f"header says {m} edges, the lines list {edges}")
    names = None
    if sidecar:
        with open(sidecar, "r", encoding="utf-8") as fh:
            names = [line.strip() for line in fh if line.strip()]
        if len(names) != n:
            raise ValueError("sidecar length does not match vertex count")
        repeated = [name for name, count in Counter(names).items() if count > 1]
        if repeated:
            raise ValueError(f"sidecar names vertex {repeated[0]!r} more than once")
    return PartGraph(vwgt, adj, names)
