import math

import pytest

from shardsim.graph import InteractionGraph
from shardsim.metrics import Assignment, edge_cut
from shardsim.synth import WorkloadSpec, generate_workload, vertex_id
from shardsim.trace import canonical_address


def build_graph(records):
    g = InteractionGraph()
    for r in records:
        g.record(r.src, r.dst)
    return g


def test_zero_inter_prob_ground_truth_cut_zero():
    spec = WorkloadSpec(vertices=100, communities=2, inter_prob=0.0, duration=86400, records_per_hour=100)
    records, truth = generate_workload(spec, seed=1)
    g = build_graph(records)
    a = Assignment({v: truth[v] for v in g.vertices}, 2)
    assert edge_cut(g, a) == 0.0


def test_deterministic_output():
    spec = WorkloadSpec(vertices=50, communities=3, duration=86400, records_per_hour=50)
    r1, t1 = generate_workload(spec, seed=9)
    r2, t2 = generate_workload(spec, seed=9)
    assert r1 == r2 and t1 == t2
    r3, _ = generate_workload(spec, seed=10)
    assert r3 != r1


def test_records_sorted_and_valid():
    spec = WorkloadSpec(vertices=40, communities=2, duration=5 * 86400, records_per_hour=40)
    records, truth = generate_workload(spec, seed=2)
    assert len(records) == spec.num_records
    for prev, cur in zip(records, records[1:]):
        assert cur.timestamp >= prev.timestamp
        assert cur.block >= prev.block
    for r in records[:50]:
        assert canonical_address(r.src) == r.src


def test_zipf_top_vertex_frequency():
    n = 500
    spec = WorkloadSpec(vertices=n, communities=1, zipf_exponent=1.0, duration=100 * 3600, records_per_hour=100)
    records, _ = generate_workload(spec, seed=13)
    total = len(records)
    assert total == 10_000
    harmonic = sum(1.0 / r for r in range(1, n + 1))
    p_top = 1.0 / harmonic
    count = sum(1 for r in records if r.src == vertex_id(0))
    sigma = math.sqrt(total * p_top * (1 - p_top))
    assert abs(count - total * p_top) <= 3 * sigma


def test_rewiring_changes_interaction_pattern():
    spec = WorkloadSpec(
        vertices=60, communities=2, inter_prob=0.0, duration=10 * 86400,
        records_per_hour=50, rewire_at=0.5, rewire_frac=0.5,
    )
    records, truth = generate_workload(spec, seed=4)
    mid = spec.start_time + spec.duration // 2
    early = [r for r in records if r.timestamp < mid]
    late = [r for r in records if r.timestamp >= mid]
    a = Assignment(truth, 2)
    g_early, g_late = build_graph(early), build_graph(late)
    a_early = Assignment({v: truth[v] for v in g_early.vertices}, 2)
    a_late = Assignment({v: truth[v] for v in g_late.vertices}, 2)
    assert edge_cut(g_early, a_early) == 0.0
    assert edge_cut(g_late, a_late) > 0.1  # rewired vertices now talk across


def test_invalid_specs_rejected():
    with pytest.raises(ValueError):
        WorkloadSpec(vertices=1)
    with pytest.raises(ValueError):
        WorkloadSpec(vertices=10, communities=20)
    with pytest.raises(ValueError):
        WorkloadSpec(vertices=10, inter_prob=1.5)
    with pytest.raises(ValueError):
        WorkloadSpec(vertices=10, rewire_at=1.5)
