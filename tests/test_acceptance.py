"""End-to-end acceptance checks.

Each test covers one numbered criterion and prints a single pass/fail line
(visible with ``pytest -s`` or in captured output). Criteria with published
reference numbers assert them at the stated tolerance; the rest compare the
implementation against independent oracles (exhaustive enumeration, planted
ground truth) on seeded synthetic workloads.
"""

import random
import statistics

from click.testing import CliRunner

from shardsim.cli import main as cli_main
from shardsim.metrics import Assignment, balance, edge_cut, normalized_balance
from shardsim.partition import PartitionerConfig, hash_partition, multilevel_partition
from shardsim.replay import DAY, HOUR, ReplayConfig, Strategy, run_replay
from shardsim.report import samples_to_csv
from shardsim.synth import WorkloadSpec, generate_workload
from shardsim.trace import serialize_trace

from conftest import graph_from_pairs, random_graph, refinement_cuts_of_replay, vid
from test_metrics import brute_force_metrics


def report(num, desc, ok):
    print(f"criterion {num:2d} [{'PASS' if ok else 'FAIL'}] {desc}")
    assert ok, f"criterion {num} failed: {desc}"


def test_criterion_1_hashing_cut_matches_theory():
    rng = random.Random(0)
    n = 10_000
    pairs = []
    for _ in range(50_000):
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u != v:
            pairs.append((u, v))
    g = graph_from_pairs(pairs)
    results = {}
    for k in (8, 2):
        cfg = PartitionerConfig(k=k, seed=1)
        a = Assignment({v: hash_partition(v, cfg) for v in g.vertices}, k)
        results[k] = edge_cut(g, a)
    ok = abs(results[8] - 0.875) <= 0.02 and abs(results[2] - 0.50) <= 0.02
    report(1, f"hashing static cut k=8 {results[8]:.4f} (0.875+-0.02), "
              f"k=2 {results[2]:.4f} (0.50+-0.02)", ok)


def test_criterion_2_worked_examples_exact():
    pairs = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (4, 5), (4, 6), (5, 6), (0, 4), (1, 5)]
    g = graph_from_pairs(pairs)
    a = Assignment({vid(i): 0 if i < 4 else 1 for i in range(7)}, 2)
    cut = edge_cut(g, a)

    ring = [(i, (i + 1) % 20) for i in range(20)]
    g2 = graph_from_pairs(ring)
    a2 = Assignment({vid(i): 0 if i < 13 else 1 for i in range(20)}, 2)
    bal = balance(g2, a2)
    ok = cut == 0.2 and bal == 1.3
    report(2, f"edge_cut {cut} == 0.200 exact, balance {bal} == 1.300 exact", ok)


def test_criterion_3_metric_oracle_equivalence():
    rng = random.Random(31)
    mismatches = 0
    for _ in range(1000):
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
        a = Assignment({vid(x): s for x, s in mapping.items()}, k)
        act = {(vid(u), vid(v)): w for (u, v), w in act_pairs.items()}
        vact = {}
        for (u, v), w in act_pairs.items():
            vact[vid(u)] = vact.get(vid(u), 0) + w
            vact[vid(v)] = vact.get(vid(v), 0) + w
        want = brute_force_metrics(pairs, mapping, k, act_pairs)
        got = (
            edge_cut(g, a),
            balance(g, a),
            edge_cut(g, a, "dynamic", act),
            balance(g, a, "dynamic", vact),
        )
        if got != want:
            mismatches += 1
    report(3, f"1000 random graphs |V|<=20, {mismatches} oracle mismatches", mismatches == 0)


def _exhaustive_best_cut(n, edges, cap):
    """Minimum bisection cut weight over all 2-way splits within the cap."""
    best = None
    for mask in range(1, 1 << (n - 1)):  # vertex n-1 pinned to side 0
        side1 = bin(mask).count("1")
        if side1 > cap or n - side1 > cap:
            continue
        cut = sum(w for u, v, w in edges if ((mask >> u) ^ (mask >> v)) & 1)
        if best is None or cut < best:
            best = cut
    return best


def test_criterion_4_partitioner_quality():
    rng = random.Random(17)
    within, total = 0, 0
    for trial in range(500):
        n = rng.choice([6, 8, 10, 12, 14])
        p = rng.uniform(0.2, 0.5)
        pairs = random_graph(rng, n, p, max_weight=5)
        if not pairs:
            pairs = [(0, 1)]
        g = graph_from_pairs(pairs)
        n_seen = g.num_vertices
        cfg = PartitionerConfig(k=2, epsilon=0.05, seed=trial)
        res = multilevel_partition(g, cfg)
        part = res.assignment.shard_of
        und = {}
        for u, v in pairs:
            und[(min(u, v), max(u, v))] = und.get((min(u, v), max(u, v)), 0) + 1
        edges = [(u, v, w) for (u, v), w in und.items()]
        index = {name: i for i, name in enumerate(sorted({x for e in edges for x in e[:2]}))}
        cap = 1.05 * n_seen / 2
        opt = _exhaustive_best_cut(len(index), [(index[u], index[v], w) for u, v, w in edges], cap)
        if opt is None:
            continue
        got = sum(w for u, v, w in edges if part[vid(u)] != part[vid(v)])
        total += 1
        if got <= 1.5 * opt or got == opt:
            within += 1
    frac = within / total

    planted_ok = True
    for seed in range(50):
        r2 = random.Random(1000 + seed)
        m = r2.choice([4, 6, 8])
        pairs = []
        for base in (0, m):
            for i in range(m):
                for j in range(i + 1, m):
                    if r2.random() < 0.8 or j == i + 1:
                        pairs.append((base + i, base + j))
        g = graph_from_pairs(pairs)
        res = multilevel_partition(g, PartitionerConfig(k=2, epsilon=0.05, seed=seed))
        if edge_cut(g, res.assignment) != 0.0 or balance(g, res.assignment) != 1.0:
            planted_ok = False
    ok = frac >= 0.90 and planted_ok
    report(4, f"cut <= 1.5x optimum in {frac:.1%} of {total} instances (>=90%), "
              f"planted zero-cut recovered: {planted_ok}", ok)


def test_criterion_5_refinement_monotone():
    violations = 0
    checked = 0
    for seed, strategy in ((1, Strategy.METIS_FULL), (2, Strategy.METIS_WINDOW), (3, Strategy.METIS_THRESHOLD)):
        spec = WorkloadSpec(vertices=120, communities=3, duration=40 * DAY, records_per_hour=30)
        recs, _ = generate_workload(spec, seed=seed)
        cfg = ReplayConfig(k=3, strategy=strategy, repartition_interval=14 * DAY,
                           cut_threshold=0.2, balance_threshold=1.5)
        for before, after in refinement_cuts_of_replay(recs, cfg):
            checked += 1
            if after > before:
                violations += 1
    report(5, f"{checked} FM passes checked, {violations} cut increases", checked > 0 and violations == 0)


def test_criterion_6_hashing_move_freedom():
    ok = True
    for seed, kw in ((1, {}), (2, {"rewire_at": 0.5}), (3, {"zipf_exponent": 1.2})):
        spec = WorkloadSpec(vertices=80, communities=2, duration=30 * DAY, records_per_hour=20, **kw)
        recs, _ = generate_workload(spec, seed=seed)
        res = run_replay(recs, ReplayConfig(k=4, strategy=Strategy.HASHING))
        if res.total_moves != 0 or res.repartition_timestamps:
            ok = False
    report(6, "hashing total_moves == 0 on all traces", ok)


def test_criterion_7_threshold_trigger_semantics():
    spec = WorkloadSpec(vertices=60, communities=3, duration=30 * DAY, records_per_hour=20)
    recs, _ = generate_workload(spec, seed=8)
    silent = run_replay(recs, ReplayConfig(
        k=3, strategy=Strategy.METIS_THRESHOLD, cut_threshold=1.1, balance_threshold=float("inf")))
    unreachable_ok = silent.total_moves == 0 and not silent.repartition_timestamps

    eager = run_replay(recs, ReplayConfig(
        k=3, strategy=Strategy.METIS_THRESHOLD, cut_threshold=0.0, balance_threshold=float("inf")))
    eager_ok = all(s.repartitioned == (s.dynamic_edge_cut > 0) for s in eager.samples)

    spec = WorkloadSpec(vertices=300, communities=3, inter_prob=0.02, zipf_exponent=0.3,
                        duration=112 * DAY, records_per_hour=45, rewire_at=0.5, rewire_frac=0.4)
    recs, _ = generate_workload(spec, seed=11)
    common = dict(k=3, metric_window=48 * HOUR, repartition_interval=14 * DAY)
    thr = run_replay(recs, ReplayConfig(
        strategy=Strategy.METIS_THRESHOLD, cut_threshold=0.45, balance_threshold=1e9, **common))
    win = run_replay(recs, ReplayConfig(strategy=Strategy.METIS_WINDOW, **common))
    cut_thr = thr.samples[-1].dynamic_edge_cut
    cut_win = win.samples[-1].dynamic_edge_cut
    claim_ok = (
        len(thr.repartition_timestamps) < len(win.repartition_timestamps)
        and thr.total_moves < win.total_moves
        and abs(cut_thr - cut_win) <= 0.05
    )
    ok = unreachable_ok and eager_ok and claim_ok
    report(7, f"unreachable: {unreachable_ok}, theta_c=0 fires on positive cut: {eager_ok}, "
              f"reparts {len(thr.repartition_timestamps)}<{len(win.repartition_timestamps)}, "
              f"moves {thr.total_moves}<{win.total_moves}, "
              f"final cut diff {abs(cut_thr - cut_win):.3f}<=0.05", ok)


def test_criterion_8_tradeoff_ordering():
    spec = WorkloadSpec(vertices=400, communities=4, inter_prob=0.05, zipf_exponent=0.6,
                        duration=28 * DAY, records_per_hour=150)
    recs, _ = generate_workload(spec, seed=7)
    med_cut, med_nbal = {}, {}
    for strategy in Strategy:
        cfg = ReplayConfig(k=2, strategy=strategy, repartition_interval=7 * DAY,
                           cut_threshold=0.2, balance_threshold=1.25)
        res = run_replay(recs, cfg)
        med_cut[strategy] = statistics.median(s.dynamic_edge_cut for s in res.samples)
        med_nbal[strategy] = statistics.median(
            normalized_balance(s.dynamic_balance, cfg.k) for s in res.samples)
    metis = (Strategy.METIS_FULL, Strategy.METIS_WINDOW, Strategy.METIS_THRESHOLD)
    cut_ok = (
        med_cut[Strategy.HASHING] > med_cut[Strategy.KL]
        and all(med_cut[Strategy.KL] > med_cut[m] for m in metis)
    )
    bal_ok = all(med_nbal[Strategy.METIS_FULL] > med_nbal[s]
                 for s in Strategy if s is not Strategy.METIS_FULL)
    cuts = ", ".join(f"{s.value}={med_cut[s]:.3f}" for s in Strategy)
    ok = cut_ok and bal_ok
    report(8, f"median dynamic cut hashing > kl > metis ({cuts}); "
              f"metis-full worst normalized balance: {bal_ok}", ok)


def test_criterion_9_byte_identical_runs(tmp_path):
    spec = WorkloadSpec(vertices=60, communities=2, duration=20 * DAY, records_per_hour=25)
    recs, _ = generate_workload(spec, seed=5)
    trace = tmp_path / "trace.csv"
    trace.write_text(serialize_trace(recs, "csv"))
    blobs = []
    for name in ("one.csv", "two.csv"):
        out = tmp_path / name
        result = CliRunner().invoke(cli_main, [
            "replay", "--trace", str(trace), "--shards", "3", "--strategy", "metis-window",
            "--repartition-interval", "7d", "--seed", "99", "--out", str(out)])
        assert result.exit_code == 0, result.output
        blobs.append(out.read_bytes())
    report(9, "two seeded replay runs byte-identical", blobs[0] == blobs[1])


def test_criterion_10_degenerate_coverage():
    spec = WorkloadSpec(vertices=30, communities=2, duration=2 * DAY, records_per_hour=20)
    recs, _ = generate_workload(spec, seed=5)
    res = run_replay(recs, ReplayConfig(k=1, strategy=Strategy.METIS_FULL))
    k1_ok = bool(res.samples) and all(
        s.static_edge_cut == 0.0 and s.dynamic_edge_cut == 0.0
        and s.static_balance == 1.0 and s.dynamic_balance == 1.0
        for s in res.samples)
    empty = run_replay([], ReplayConfig(k=2, strategy=Strategy.METIS_FULL))
    text = samples_to_csv(empty.samples, k=2)
    empty_ok = empty.samples == [] and empty.total_moves == 0 and len(text.splitlines()) == 1
    report(10, f"k=1 metrics flat: {k1_ok}, empty trace clean: {empty_ok}", k1_ok and empty_ok)
