"""Partitioning strategies: identifier hashing, probabilistic KL exchange,
multilevel k-way partitioning, and incremental new-vertex placement.

The multilevel partitioner follows the standard scheme: coarsening by
heavy-edge matching, then two-hop matching of the vertices left single that
share a hub (their heaviest neighbour), greedy graph growing on the coarsest
graph, then boundary refinement (positive-gain single-vertex moves under a
balance cap) while projecting back up the levels. Without the two-hop step a
hub with many leaves loses one leaf per level, and coarsening stalls on
hub-and-leaf activity graphs. Graph growing passes over a vertex that would
push the shard it grows over the cap and goes on growing, as METIS does
(Karypis & Kumar, SIAM J. Sci. Comput. 20(1), 1998), so the last shard is
not left with every vertex the others stopped short of, for the balance
repair to move one at a time. Its kernels skip work whose outcome is known
without changing a move or a random draw: refinement re-evaluates a vertex
only when its neighbourhood or its targets' room has changed, projection
hands each level the cut of the last, and graph growing keeps its frontier
in a heap. Balance repair rescans the heaviest shard for every move, since
the parts it is given need few. Kernels shuffle through ``_shuffle``, which
makes ``Random.shuffle``'s ``getrandbits`` draws and swaps inline: it leaves
the same order and generator state, without two Python-level calls per
element.
"""

from __future__ import annotations

import functools
import heapq
import random
import sys
from bisect import bisect_left, bisect_right, insort
from collections import Counter
from dataclasses import dataclass
from itertools import accumulate
from typing import Callable, ClassVar, Sequence

from shardsim.graph import InteractionGraph
from shardsim.metrics import Assignment, shard_loads
from shardsim.trace import decimal, open_trace

MASK64 = (1 << 64) - 1
REFINE_PASSES = 10  # refinement pass cap per level
INITIAL_TRIES = 4  # greedy-growing restarts on the coarsest graph


@dataclass
class PartitionerConfig:
    k: int = 2
    epsilon: float = 0.05  # shard weight cap, see balance_cap
    seed: int = 0  # of identifier hashing, KL's draws and the multilevel partitioner
    coarsen_min: ClassVar[int] = 200  # stop coarsening at max(30*k, coarsen_min) vertices

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.k > sys.maxsize:  # the longest list there can be
            raise ValueError(f"k must be <= {sys.maxsize}")
        if not self.epsilon >= 0:  # written so that NaN fails too; inf is a cap nothing exceeds
            raise ValueError("epsilon must be >= 0")

    def balance_cap(self, total_weight: int) -> float:
        """Largest shard weight allowed: (1 + epsilon) * total / k."""
        return (1.0 + self.epsilon) * total_weight / self.k


# ---------------------------------------------------------------------------
# Hashing


@functools.cache
def _fnv_seed_state(seed: int) -> int:
    """FNV-1a state after the 8 little-endian bytes of ``seed`` mod 2**64."""
    h = 0xCBF29CE484222325
    for b in (seed & MASK64).to_bytes(8, "little"):
        h ^= b
        h = (h * 0x100000001B3) & MASK64
    return h


def hash64(data: bytes, seed: int = 0) -> int:
    """Seeded 64-bit FNV-1a with a splitmix64-style avalanche finalizer.

    The seed's 8 bytes come before ``data``; their state is computed once per
    seed. Fixed and platform-independent so shard placement is reproducible
    everywhere (never Python's builtin hash).
    """
    h = _fnv_seed_state(seed)
    for b in data:
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


@dataclass(frozen=True, slots=True)
class Candidate:
    vertex: int  # the vertex's index in the part vector
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
        c = conn.pop(v)  # no row outlives the judging of its vertex
        own = shard_of[v]
        inside = c[own]
        c[own] = -1  # activity is never negative, so max picks another shard
        best = max(c)
        if best > inside:
            out[own].append(Candidate(v, c.index(best), best - inside))
    return out


def kl_build_matrix(
    candidates: dict[int, list[Candidate]],
    a: Assignment,
    activity: InteractionGraph,
) -> list[list[float]]:
    """Row-stochastic k x k matrix directing candidate exchanges.

    The balance requirement constrains the expected NET flow per shard, so
    the flow has two parts: ``flow``, the matched two-way swaps
    min(demand[i][j], demand[j][i]), which never change loads, and ``net``,
    the residual demand scaled so no shard sends more than its surplus over
    the mean load (rows first) nor receives more than its deficit (then
    columns). Row i is converted to probabilities against shard i's total
    candidate weight, remainder mass on the diagonal (stay put).
    """
    k = a.k
    vact = activity.vertices
    loads = shard_loads(map(a.shard_of.__getitem__, vact), vact.values(), k)
    mean = sum(loads) / k
    surplus = [load - mean for load in loads]  # the int loads are exact; floats from here on

    cand_weight = [0.0] * k  # total movable activity weight per shard
    net = [[0.0] * k for _ in range(k)]  # the demand, until the swaps leave it
    for i, cands in candidates.items():
        for c in cands:
            w = float(vact.get(c.vertex, 0))
            cand_weight[i] += w
            net[i][c.target] += w
    # on the diagonal this is the demand of a shard on itself, left out below
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
        if off > 1.0:  # guard against float drift
            row = [x / off for x in row]
            off = 1.0
        row[i] = 1.0 - off
        p.append(row)
    return p


def kl_exchange(
    a: Assignment,
    candidates: dict[int, list[Candidate]],
    matrix: Sequence[Sequence[float]],
    seed: int,
) -> Assignment:
    """Move each candidate of shard i to shard j with probability matrix[i][j].

    Shards are drawn in index order and each shard's candidates in the order
    listed. A candidate goes to the first shard whose cumulative row sum
    exceeds its draw, and stays in shard i when the draw reaches past the
    row's sum. Deterministic for a fixed seed; non-candidates never move. The
    result is a new assignment.
    """
    rng = random.Random(seed)
    shard_of = a.shard_of.copy()
    k = a.k
    for i in sorted(candidates):
        cumulative = list(accumulate(matrix[i]))
        for c in candidates[i]:
            j = bisect_right(cumulative, rng.random())
            shard_of[c.vertex] = j if j < k else i
    return Assignment(shard_of, k)


# ---------------------------------------------------------------------------
# Multilevel partitioner


class PartGraph:
    """Undirected weighted graph in dense index form for partitioning kernels.

    Self-loops are dropped on construction (they never affect a cut).
    ``names`` maps index to vertex id, given only by ``read_adjacency``'s
    sidecar; without it each index names itself.
    """

    def __init__(self, vwgt: list[int], adj: list[dict[int, int]], names: Sequence | None = None):
        self.vwgt = vwgt
        self.adj = adj
        self.names = names if names is not None else range(len(vwgt))

    def __len__(self) -> int:
        return len(self.vwgt)

    @classmethod
    def from_interaction_graph(cls, g: InteractionGraph, vertex_weights: str = "unit") -> "PartGraph":
        """Index-form copy of the undirected view of ``g``; index i is its i-th vertex.

        vertex_weights: "unit" (one per vertex) or "activity" (the graph's
        per-vertex endpoint counts).
        """
        index = {v: i for i, v in enumerate(g.vertices)}
        if vertex_weights == "unit":
            vwgt = [1] * len(index)
        elif vertex_weights == "activity":
            vwgt = [max(1, w) for w in g.vertices.values()]
        else:
            raise ValueError(f"unknown vertex weight mode {vertex_weights!r}")
        adj: list[dict[int, int]] = [{} for _ in index]
        for (u, v), w in g.undirected.items():
            if u == v:
                continue
            ui, vi = index[u], index[v]
            adj[ui][vi] = w
            adj[vi][ui] = w
        return cls(vwgt, adj)


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
    """One level of heavy-edge matching, then two-hop matching, contracted.

    Returns the coarse graph and the fine->coarse vertex map. Vertices are
    visited in a shuffled order; one still unmatched takes its heaviest
    unmatched neighbour (lowest index on ties), which is therefore not visited
    yet. A vertex left single has only matched neighbours. A second walk in
    the same order pairs those singles two hops apart: each takes its
    heaviest neighbour (lowest index on ties) as its hub, and joins the single
    waiting on that hub or else waits there itself. On a star, heavy-edge
    matching takes one leaf per level; the second walk pairs up the rest.
    Isolated vertices stay single. Coarse vertices are numbered in the visit
    order of their first member. Total vertex weight is conserved;
    matched-pair edges fold away (self-loops dropped).
    """
    n = len(pg)
    adj = pg.adj
    order = list(range(n))
    _shuffle(order, rng.getrandbits)
    mate = [-1] * n  # -1 while unmatched; a single vertex is its own mate
    singles: list[int] = []  # in visit order
    for v in order:
        if mate[v] != -1:
            continue
        best, best_w = -1, 0
        for u, w in adj[v].items():
            if mate[u] == -1 and (w > best_w or (w == best_w and (best == -1 or u < best))):
                best, best_w = u, w
        if best == -1:
            mate[v] = v
            singles.append(v)
        else:
            mate[v], mate[best] = best, v

    waiting: dict[int, int] = {}  # hub -> the single waiting on it
    for v in singles:
        nbrs = adj[v]
        if not nbrs:
            continue
        hub, hub_w = -1, 0
        for u, w in nbrs.items():
            if w > hub_w or (w == hub_w and (hub == -1 or u < hub)):
                hub, hub_w = u, w
        u = waiting.pop(hub, -1)
        if u == -1:
            waiting[hub] = v
        else:
            mate[u], mate[v] = v, u

    cmap = [-1] * n
    nc = 0
    for v in order:
        if cmap[v] == -1:
            cmap[v] = cmap[mate[v]] = nc
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
    A vertex that would push the non-empty shard over ``cap`` is passed over:
    it stays unassigned, leaves the frontier and is never offered to this
    shard again (the shard only gets heavier), and growing goes on with the
    next frontier vertex, or with a random seed among the unassigned vertices
    not passed over. A shard closes at its target, ``1/(k - shard)`` of the
    weight left, or when no unassigned vertex fits; shard k-1 takes the rest.
    """
    n = len(pg)
    vwgt, adj = pg.vwgt, pg.adj
    part = [-1] * n
    # kept sorted, rng.choice must see the same sequence; while a shard grows
    # it lacks the vertices passed over, which return when the shard closes
    unassigned = list(range(n))
    total_left = sum(vwgt)
    for shard in range(k - 1):
        if not unassigned:
            break
        target = total_left / (k - shard)
        weight = 0
        passed: set[int] = set()
        conn: dict[int, int] = {}  # the frontier's edge weight into the shard
        frontier: list[tuple[int, int]] = []
        while weight < target:
            if conn:
                c, v = heapq.heappop(frontier)
                while conn.get(v) != -c:
                    c, v = heapq.heappop(frontier)
                del conn[v]
            elif unassigned:
                v = rng.choice(unassigned)
            else:
                break  # nothing unassigned fits
            del unassigned[bisect_left(unassigned, v)]
            if weight > 0 and weight + vwgt[v] > cap:
                passed.add(v)
                continue
            part[v] = shard
            weight += vwgt[v]
            for u, w in adj[v].items():
                if part[u] == -1 and u not in passed:
                    c = conn[u] = conn.get(u, 0) + w
                    heapq.heappush(frontier, (-c, u))
        for v in passed:
            insort(unassigned, v)
        total_left -= weight
    for v in unassigned:
        part[v] = k - 1
    return part


def _repair_balance(pg: PartGraph, part: list[int], k: int, cap: float) -> bool:
    """Move cheapest vertices out of overweight shards. Returns feasibility.

    Each step takes the heaviest shard ``over`` (lowest index on ties),
    recomputes the edge weight ``conn[j]`` into each shard j of each of its
    vertices ``v``, and makes the move to a shard ``j`` that stays within
    ``cap`` minimising ``(conn[over] - conn[j], weights[j], v, j)``, until no
    shard is over the cap or no move fits. A move lands in a shard that it
    leaves within the cap, and such a shard is never the source of a later
    move, so no vertex moves twice: at most |V| moves, each an O(|V| + E) rescan.
    """
    n = len(pg)
    vwgt, adj = pg.vwgt, pg.adj
    weights = shard_loads(part, vwgt, k)
    while True:
        heaviest = max(weights)
        if heaviest <= cap:
            return True
        over = weights.index(heaviest)
        best = None
        for v in range(n):
            if part[v] != over:
                continue
            nbrs = adj[v]
            conn = shard_loads(map(part.__getitem__, nbrs), nbrs.values(), k)
            for j in range(k):
                if j != over and weights[j] + vwgt[v] <= cap:
                    move = (conn[over] - conn[j], weights[j], v, j)
                    if best is None or move < best:
                        best = move
        if best is None:
            return False
        _, _, v, j = best
        part[v] = j
        weights[over] -= vwgt[v]
        weights[j] += vwgt[v]


def fm_refine(
    pg: PartGraph,
    part: list[int],
    k: int,
    cap: float,
    max_passes: int,
    rng: random.Random,
    pass_cuts: list[tuple[int, int]],
    cut: int | None = None,
) -> int:
    """Boundary refinement: greedy positive-gain single-vertex moves.

    Each pass visits vertices in a shuffled order and applies any move with
    a strictly positive cut gain whose target shard stays under the weight
    cap; passes repeat until none improves (or max_passes). The cut is
    non-increasing per pass by construction. Appends each pass's
    ``(cut_before, cut_after)`` to ``pass_cuts`` and returns the final cut
    weight; ``cut``, the cut of ``part`` if the caller knows it, saves
    counting it.

    A vertex is evaluated again only when the result could differ: its gains
    depend only on its neighbours' shards, so it is skipped until a neighbour
    moves if its best gain was <= 0, or, if every target reaching its positive
    best gain was too full for it, while they stay too full (the lighter-shard
    tie-break only picks among them). This needs a symmetric adjacency.
    """
    n = len(pg)
    vwgt, adj = pg.vwgt, pg.adj
    weights = shard_loads(part, vwgt, k)
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
        pass_cuts.append((cut_before, cut))
        if not moved:
            break
    return cut


@dataclass
class MultilevelResult:
    assignment: Assignment  # a part vector in PartGraph index order
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
    cap = cfg.balance_cap(sum(pg.vwgt))
    heaviest = max(pg.vwgt)
    if k == 1:
        return MultilevelResult(Assignment([0] * n, k), False, [], cap, heaviest)

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

    infeasible = not _repair_balance(pg, part, k, cap)
    return MultilevelResult(Assignment(part, k), infeasible, pass_cuts, cap, heaviest)


def multilevel_partition(
    graph: InteractionGraph, cfg: PartitionerConfig, weights: str = "unit"
) -> MultilevelResult:
    """Partition an interaction graph into cfg.k shards, as a part vector in ``graph.vertices`` order.

    ``weights`` selects vertex weights: "unit" balances vertex counts (the
    full-graph strategy), "activity" balances per-vertex record counts (the
    windowed strategies).
    """
    return partition_partgraph(PartGraph.from_interaction_graph(graph, weights), cfg)


# ---------------------------------------------------------------------------
# Incremental placement


def assign_new_vertex(counts: Sequence[int], shard_sizes: Sequence[int]) -> int:
    """Shard for a first-seen vertex.

    ``counts[i]`` is how many of its transaction's endpoints sit in shard
    ``i``. Picks the shard with the most; ties go to the lighter shard by
    ``shard_sizes`` (vertices per shard), then to the lower index, so with
    no endpoints the lightest shard wins.
    """
    return min(range(len(counts)), key=lambda i: (-counts[i], shard_sizes[i]))


# ---------------------------------------------------------------------------
# Adjacency file interchange (offline partitioning)


def write_adjacency(graph: InteractionGraph, path: str, sidecar: str, weights: str = "unit") -> None:
    """Export the undirected view in the de facto partitioner text format.

    Header ``|V| |E| 011`` then one line per vertex: vertex weight followed by
    (1-based neighbor index, edge weight) pairs. Self-loops are dropped (the
    format cannot express them). The sidecar maps line index -> vertex id, each
    written as ``str`` writes it.
    """
    pg = PartGraph.from_interaction_graph(graph, weights)
    with open_trace(path, "w") as fh:
        fh.write(f"{len(pg)} {sum(len(nbrs) for nbrs in pg.adj) // 2} 011\n")
        for v in range(len(pg)):
            parts = [str(pg.vwgt[v])]
            for u in sorted(pg.adj[v]):
                parts.append(str(u + 1))
                parts.append(str(pg.adj[v][u]))
            fh.write(" ".join(parts) + "\n")
    with open_trace(sidecar, "w") as fh:
        for name in graph.vertices:
            fh.write(f"{name}\n")


def read_adjacency(path: str, sidecar: str | None = None) -> PartGraph:
    """Load a graph written by write_adjacency.

    Raises ValueError unless it is a PartGraph the kernels accept: a header
    of exactly ``|V| |E| 011``, ``decimal`` integer tokens, |V| >= 0 vertex
    lines (a blank one is a vertex of weight 1 without edges; blank lines
    after them are ignored), neighbour indices in 1..|V|, no self-loops,
    vertex and edge weights of at least 1, each edge listed from both ends
    with one weight, |E| as the header says, and a sidecar, if given, of |V|
    distinct names.
    """
    with open_trace(path) as fh:
        header = fh.readline().split()
        if len(header) != 3:
            raise ValueError(f"adjacency header has {len(header)} fields, not |V|, |E| and the format field 011")
        if header[2] != "011":
            raise ValueError(f"adjacency header's format field is {header[2]}, not 011 (vertex and edge weights)")
        n, m = decimal(header[0], "adjacency header:"), decimal(header[1], "adjacency header:")
        if n < 0:
            raise ValueError(f"header says {n} vertices, a negative count")
        # grown a vertex per line, so that a header's count allocates nothing
        vwgt: list[int] = []
        adj: list[dict[int, int]] = []
        for v in range(n):
            line = fh.readline()
            if not line:
                raise ValueError(f"header says {n} vertices, the file ends after {v} vertex lines")
            vwgt.append(1)
            adj.append({})
            tokens = line.split()
            if not tokens:
                continue
            if len(tokens) % 2 == 0:
                raise ValueError(f"vertex {v + 1}: a neighbour has no edge weight")
            where = f"vertex {v + 1}:"
            vwgt[v] = decimal(tokens[0], where)
            if vwgt[v] < 1:
                raise ValueError(f"vertex {v + 1}: weight {vwgt[v]} is below 1")
            for i in range(1, len(tokens), 2):
                u, w = decimal(tokens[i], where) - 1, decimal(tokens[i + 1], where)
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
        with open_trace(sidecar) as fh:
            names = [line.strip() for line in fh if line.strip()]
        if len(names) != n:
            raise ValueError("sidecar length does not match vertex count")
        repeated = [name for name, count in Counter(names).items() if count > 1]
        if repeated:
            raise ValueError(f"sidecar names vertex {repeated[0]!r} more than once")
    return PartGraph(vwgt, adj, names)
