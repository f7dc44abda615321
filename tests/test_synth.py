import gc
import hashlib
import math

import pytest

from shardsim import synth
from shardsim.graph import InteractionGraph
from shardsim.metrics import Assignment, edge_cut
from shardsim.synth import WorkloadSpec, generate_workload, vertex_id
from shardsim.trace import canonical_address, serialize_trace


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


@pytest.mark.parametrize("enabled", [True, False])
def test_collector_paused_and_restored(monkeypatch, enabled):
    spec = WorkloadSpec(vertices=20, duration=3600, records_per_hour=20)
    seen = []

    def spy(i):
        seen.append(gc.isenabled())
        return vertex_id(i)

    def fail(i):
        raise RuntimeError("boom")

    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        monkeypatch.setattr(synth, "vertex_id", spy)
        generate_workload(spec, seed=1)
        assert seen and not any(seen)
        assert gc.isenabled() is enabled
        monkeypatch.setattr(synth, "vertex_id", fail)
        with pytest.raises(RuntimeError, match="boom"):
            generate_workload(spec, seed=1)
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()


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


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("rewire_frac", 1.5, "rewire_frac must be in"),
        ("rewire_frac", -0.1, "rewire_frac must be in"),
        ("block_interval", 0, "block_interval must be >= 1"),
        ("start_time", -1, "start_time must be >= 0"),
    ],
)
def test_out_of_range_spec_fields_rejected(field, value, message):
    with pytest.raises(ValueError, match=message):
        WorkloadSpec(vertices=10, **{field: value})


def test_range_ends_accepted():
    for frac in (0.0, 1.0):
        spec = WorkloadSpec(vertices=10, duration=86400, rewire_at=0.5, rewire_frac=frac, block_interval=1, start_time=0)
        records, _ = generate_workload(spec, seed=3)
        assert records[0].timestamp == records[0].block == 0


DAY = 86400

# SHA-256 of the CSV trace, the JSONL trace and ``repr(list(truth.items()))``
# that each spec gives with seed 5. Generation and serialization must keep
# writing exactly these bytes: every replay result depends on them.
SETUP = {
    "rewire": (
        dict(vertices=300, communities=4, duration=3 * DAY, records_per_hour=60, rewire_at=0.4, rewire_frac=0.3),
        "5dc2178130a095e6bc8847293ab181fa7ec96f744df38327b394f000f81c26b3",
        "987843a7dcfcea9c2bdf6218c4a2648ad701eb9d0eff737346c9cad881c367fd",
        "65dfb3844f9f236e6ffbbacb1dc7810a176c16b08eb9d269d563ebc8aea853a8",
    ),
    "one-community": (
        dict(vertices=200, communities=1, duration=2 * DAY, records_per_hour=60, block_interval=12, start_time=0),
        "74c2eeeddcf1eb482b62aa05da6fa029176dba31cdc5e465ce5ee1fb4b6c4efc",
        "100557580e53227a97c9afa7daac9e10ac5ac9817ae8426cadf9e85d0c52d6c3",
        "944156a37e144c05b3a1a15cd2e58504bf09e63e041ca15e3937540fc2e22d4a",
    ),
    "inter-prob-0": (
        dict(vertices=200, communities=3, inter_prob=0.0, duration=2 * DAY, records_per_hour=60),
        "19f44de1e168afad5aac0539dce1ae5892b4f0d0f935b9e3d18d1f8d49d72f07",
        "c11c8847526ff6a588748e60778ce1b3e7c4edc3feb58b3e348b5c8f3394ca27",
        "e6e720b5649850d9eb45fa834bbcd73c64358167270550d4b3f56b0f6a4911ac",
    ),
    "inter-prob-1": (
        dict(vertices=200, communities=3, inter_prob=1.0, duration=2 * DAY, records_per_hour=60),
        "cb0ff782f63db231f843a16f7a841b1a3e6a69eca832e965c737d9e82f022103",
        "eb74395b3cc020c8730c2c2ad97bb4586817e55b16fac5627b52025493eca79b",
        "e6e720b5649850d9eb45fa834bbcd73c64358167270550d4b3f56b0f6a4911ac",
    ),
    "zipf-0": (
        dict(vertices=200, communities=3, zipf_exponent=0.0, duration=2 * DAY, records_per_hour=60),
        "b6eca5e6cf33c23a887ef82f4bc59f9e16f9767ac4d20c3cd53ab926d85d24bb",
        "ef76fd23119d882553650a9607097759215838f98918d4078646f390fab685f1",
        "e6e720b5649850d9eb45fa834bbcd73c64358167270550d4b3f56b0f6a4911ac",
    ),
}


@pytest.mark.parametrize("name", list(SETUP))
def test_setup_output_digest(name):
    spec, csv_digest, jsonl_digest, truth_digest = SETUP[name]
    records, truth = generate_workload(WorkloadSpec(**spec), seed=5)

    def sha(text):
        return hashlib.sha256(text.encode()).hexdigest()

    got = (sha(serialize_trace(records, "csv")), sha(serialize_trace(records, "jsonl")), sha(repr(list(truth.items()))))
    assert got == (csv_digest, jsonl_digest, truth_digest)
