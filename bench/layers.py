"""Per-layer tracing of one replay, from outside the program.

``instrument`` replaces the module attributes that ``shardsim.replay`` and
``shardsim.partition`` call through with timing wrappers, so nothing in
``src/`` changes. Calls made per window or per repartition get a span each
(name, start, end, parent); calls made per record only add to a count and a
total time, which keeps the tracing overhead down. Spans stay in memory and
are written out when the replay ends. ``layer_metrics`` turns them into the
``per_layer`` metrics of ``BENCHMARK.json``.

The patching is process-wide and never undone: use it only in a process that
exists to run one traced replay.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from time import perf_counter

from shardsim import partition, replay


class Tracer:
    """Spans and per-record accumulators, each tied to the span open at call time."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1, note]
        self.accumulators: dict[str, dict[int, list]] = {}  # name -> parent -> [calls, seconds]
        self._stack = [-1]

    def span(self, fn, name, note=None):
        """Wrap ``fn`` so each call records a span.

        ``name`` is a string or a function of the call's arguments. ``note``,
        if given, maps (args, result) to a value kept with the span; it runs
        after the span closes, so it must be cheap (keep references, not
        computed totals).
        """
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            label = name if isinstance(name, str) else name(args)
            entry = [label, 0.0, 0.0, stack[-1], None]
            stack.append(len(spans))
            spans.append(entry)
            entry[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                entry[2] = perf_counter()
                stack.pop()
            if note is not None:
                entry[4] = note(args, result)
            return result

        return traced

    def accumulate(self, fn, name: str):
        """Wrap a per-record ``fn`` to add its calls and time to ``name``."""
        cells = self.accumulators.setdefault(name, {})
        stack = self._stack

        def counted(*args):
            t0 = perf_counter()
            result = fn(*args)
            elapsed = perf_counter() - t0
            cell = cells.get(stack[-1])
            if cell is None:
                cell = cells[stack[-1]] = [0, 0.0]
            cell[0] += 1
            cell[1] += elapsed
            return result

        return counted

    def dump(self) -> dict:
        """Spans and accumulators in a JSON-ready form."""
        return {
            "spans": [[n, s, e, p] for n, s, e, p, _ in self.spans],
            "accumulators": {
                name: {str(parent): cell for parent, cell in cells.items()}
                for name, cells in self.accumulators.items()
            },
        }


class TimedIterator:
    """Iterator whose ``next()`` time and count go to the ``trace.parse`` accumulator."""

    def __init__(self, inner, tracer: Tracer) -> None:
        self._next = tracer.accumulate(iter(inner).__next__, "trace.parse")

    def __iter__(self):
        return self

    def __next__(self):
        return self._next()


def instrument(tracer: Tracer) -> None:
    """Route the calls of ``shardsim.replay`` and ``shardsim.partition`` through ``tracer``."""
    span, acc = tracer.span, tracer.accumulate
    r, p = replay, partition

    # per window
    r.edge_cut = span(
        r.edge_cut,
        lambda args: "metrics.edge_cut_" + args[2],
        lambda args, res: (len(args[0].vertices), len(args[0].undirected)) if args[2] == "static" else None,
    )
    r.balance = span(r.balance, "metrics.balance")
    # per repartition
    r.repartition = span(r.repartition, "replay.repartition", lambda args, res: res[2])
    r.relabel_to_match = span(r.relabel_to_match, "replay.relabel")
    r.count_moves = span(r.count_moves, "metrics.count_moves")
    r.window_subgraph = span(r.window_subgraph, "graph.window_subgraph", lambda args, res: (len(args[0]), res))
    r.activity_from_records = span(r.activity_from_records, "graph.activity_from_records")
    r.multilevel_partition = span(r.multilevel_partition, "partition.multilevel", lambda args, res: (args[1], res))
    r.kl_select_candidates = span(r.kl_select_candidates, "partition.kl_select", lambda args, res: res)
    r.kl_build_matrix = span(r.kl_build_matrix, "partition.kl_build_matrix")
    r.kl_exchange = span(r.kl_exchange, "partition.kl_exchange", lambda args, res: (args[0], args[1], res))
    p.PartGraph.from_interaction_graph = classmethod(
        span(p.PartGraph.from_interaction_graph.__func__, "partition.partgraph_build", lambda args, res: res)
    )
    p.coarsen_once = span(p.coarsen_once, "partition.coarsen")
    p.fm_refine = span(p.fm_refine, "partition.refine", lambda args, res: len(args[0]))
    # per record
    r.apply_record = acc(r.apply_record, "graph.apply_record")
    r.assign_new_vertex = acc(r.assign_new_vertex, "partition.place")
    r.hash_partition = acc(r.hash_partition, "partition.place")


def self_times(tracer: Tracer) -> tuple[list[float], list[int]]:
    """Self time and root span index of every span.

    A span's self time is its duration minus its child spans and the
    per-record calls made while it was the innermost open span.
    """
    spans = tracer.spans
    covered = [0.0] * len(spans)
    roots = [0] * len(spans)
    for i, (_, start, end, parent, _) in enumerate(spans):
        roots[i] = i if parent < 0 else roots[parent]  # parents precede children
        if parent >= 0:
            covered[parent] += end - start
    for cells in tracer.accumulators.values():
        for parent, (_, seconds) in cells.items():
            if parent >= 0:
                covered[parent] += seconds
    own = [end - start - covered[i] for i, (_, start, end, _, _) in enumerate(spans)]
    return own, roots


def layer_metrics(tracer: Tracer, result, scale: float) -> dict:
    """Per-layer figures of one traced replay; ``result`` is its ``ReplayResult``.

    Every time is multiplied by ``scale`` once the accounting is checked.

    Returns ``metrics`` (every per-layer metric except the percentiles and
    those run.py measures itself), ``call_ms`` (the per-call times the
    percentiles are taken from, pooled over a run's traced replays),
    ``self_s`` (self time per layer under ``run_replay``) and ``problems``
    (failed accounting checks: a negative self time would mean a nested call
    was counted twice).
    """
    spans = tracer.spans
    durations: dict[str, list[float]] = defaultdict(list)
    notes: dict[str, list] = defaultdict(list)
    for name, start, end, _, note in spans:
        durations[name].append(end - start)
        notes[name].append(note)

    def total(name: str) -> float:
        return sum(durations.get(name, ()))

    def calls(name: str) -> int:
        return len(durations.get(name, ()))

    def acc(name: str) -> tuple[int, float]:
        cells = tracer.accumulators.get(name, {}).values()
        return sum(c[0] for c in cells), sum(c[1] for c in cells)

    own, roots = self_times(tracer)
    problems: list[str] = []
    (run_idx,) = [i for i, s in enumerate(spans) if s[0] == "replay.run_replay"]
    under_run: dict[str, float] = defaultdict(float)
    for i, entry in enumerate(spans):
        if roots[i] == run_idx:
            under_run[entry[0]] += own[i]
            if own[i] < -1e-9:
                problems.append(f"span {entry[0]} has negative self time {own[i]:.3g} s")
    for name, cells in tracer.accumulators.items():
        under_run[name] += sum(c[1] for p, c in cells.items() if p >= 0 and roots[p] == run_idx)
    run_s = spans[run_idx][2] - spans[run_idx][1]
    if abs(sum(under_run.values()) - run_s) > 1e-6 * max(run_s, 1.0):
        problems.append(f"layer self times sum to {sum(under_run.values()):.6f} s, run_replay took {run_s:.6f} s")

    m: dict[str, float] = {}
    parse_calls, parse_s = acc("trace.parse")
    m["trace.parse_s"] = parse_s
    m["trace.records"] = parse_calls

    apply_calls, apply_s = acc("graph.apply_record")
    m["graph.apply_record_s"] = apply_s
    m["graph.apply_record_calls"] = apply_calls
    m["graph.window_subgraph_s"] = total("graph.window_subgraph")
    subs = notes.get("graph.window_subgraph", [])
    m["graph.window_subgraph_records_scanned"] = sum(scanned for scanned, _ in subs)
    m["graph.window_subgraph_records_used"] = sum(g.total_edge_weight() for _, g in subs)
    m["graph.activity_from_records_s"] = total("graph.activity_from_records")
    sizes = [n for n in notes.get("metrics.edge_cut_static", []) if n is not None]
    m["graph.vertices"], m["graph.edges"] = sizes[-1] if sizes else (0, 0)

    m["metrics.edge_cut_static_s"] = total("metrics.edge_cut_static")
    m["metrics.edge_cut_dynamic_s"] = total("metrics.edge_cut_dynamic")
    m["metrics.edge_cut_calls"] = calls("metrics.edge_cut_static") + calls("metrics.edge_cut_dynamic")
    m["metrics.static_edges_scanned"] = sum(edges for _, edges in sizes)
    m["metrics.balance_s"] = total("metrics.balance")
    m["metrics.count_moves_s"] = total("metrics.count_moves")

    ml = [i for i, s in enumerate(spans) if s[0] == "partition.multilevel"]
    m["partition.multilevel_s"] = total("partition.multilevel")
    m["partition.multilevel_calls"] = len(ml)
    m["partition.partgraph_build_s"] = total("partition.partgraph_build")
    m["partition.coarsen_s"] = total("partition.coarsen")
    m["partition.coarsen_levels"] = calls("partition.coarsen")
    m["partition.refine_s"] = total("partition.refine")
    m["partition.multilevel_self_s"] = sum(own[i] for i in ml)
    ratios, passes, useful, infeasible, violations = [], 0, 0, 0, 0
    children: dict[int, list[int]] = defaultdict(list)
    for i, s in enumerate(spans):
        children[s[3]].append(i)
    for i in ml:
        cfg, res = spans[i][4]
        kids = children[i]
        refines = [spans[j][4] for j in kids if spans[j][0] == "partition.refine"]
        if refines:  # the first refinement runs on the coarsest graph
            ratios.append(refines[0] / max(30 * cfg.k, cfg.coarsen_min))
        passes += len(res.refinement_cuts)
        useful += sum(1 for before, after in res.refinement_cuts if after < before)
        infeasible += res.infeasible_balance
        (pg,) = [spans[j][4] for j in kids if spans[j][0] == "partition.partgraph_build"]
        cap = (1.0 + cfg.epsilon) * sum(pg.vwgt) / cfg.k
        loads = [0] * cfg.k
        for name, w in zip(pg.names, pg.vwgt):
            loads[res.assignment.shard_of[name]] += w
        if max(loads) > cap and max(pg.vwgt) <= cap:
            violations += 1
    m["partition.coarsest_ratio"] = statistics.median(ratios) if ratios else 0.0
    m["partition.refine_passes"] = passes
    m["partition.refine_useful_ratio"] = useful / passes if passes else 0.0
    m["partition.infeasible_results"] = infeasible
    m["partition.cap_violations"] = violations

    m["partition.kl_select_s"] = total("partition.kl_select")
    selected = notes.get("partition.kl_select", [])
    m["partition.kl_candidates"] = sum(len(c) for cands in selected for c in cands.values())
    m["partition.kl_exchange_s"] = total("partition.kl_exchange") + total("partition.kl_build_matrix")
    moved = offered = 0
    for before, cands, after in notes.get("partition.kl_exchange", []):
        for shard_cands in cands.values():
            offered += len(shard_cands)
            moved += sum(1 for c in shard_cands if after.shard_of[c.vertex] != before.shard_of[c.vertex])
    m["partition.kl_moved_ratio"] = moved / offered if offered else 0.0
    place_calls, place_s = acc("partition.place")
    m["partition.place_s"] = place_s
    m["partition.place_calls"] = place_calls

    m["replay.run_replay_s"] = run_s
    m["replay.windows"] = len(result.samples)
    m["replay.repartitions"] = calls("replay.repartition")
    m["replay.repartition_s"] = total("replay.repartition")
    m["replay.relabel_s"] = total("replay.relabel")
    raw = sum(notes.get("replay.repartition", []))
    m["replay.raw_moves"] = raw
    m["replay.relabel_saved_ratio"] = (raw - result.total_moves) / raw if raw else 0.0
    m["replay.self_s"] = own[run_idx]

    m["report.samples_to_csv_s"] = total("report.samples_to_csv")
    for key in m:
        if key.endswith("_s"):
            m[key] *= scale
    call_ms = {
        "partition.multilevel_ms": [1000 * scale * d for d in durations.get("partition.multilevel", [])],
        "replay.repartition_ms": [1000 * scale * d for d in durations.get("replay.repartition", [])],
    }
    self_s = {layer: scale * seconds for layer, seconds in under_run.items()}
    return {"metrics": m, "call_ms": call_ms, "self_s": self_s, "problems": problems}
