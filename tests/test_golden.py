"""Replay output pinned across changes.

SHA-256 digests of the samples CSV and of the final assignment (the ``repr``
of its address-sorted items) for every strategy, plus metis-window with
cumulative weights, on one small fixed-seed synthetic trace. A change that
means to alter partitions or metrics updates these digests and says so; any
other change must leave them as they are. The same digests must come out when
the trace is written to a file and read back, as CSV and as gzipped JSONL.

The small trace's graphs stay below the partitioner's coarsening threshold,
so ``COARSENING`` pins metis-threshold and metis-full on a larger trace whose
repartitions do coarsen.
"""

import gzip
import hashlib

import pytest

from shardsim import partition
from shardsim.replay import DAY, HOUR, ReplayConfig, Strategy, run_replay
from shardsim.report import samples_to_csv
from shardsim.synth import WorkloadSpec, generate_workload
from shardsim.trace import read_trace, serialize_trace

GOLDEN = {
    ("hashing", False): "d82b54d2fa81d7a18e3bfd2328c4b2a889f60377daac1675e34cf268b688707c",
    ("kl", False): "541ea6a317fb5dcecde7f43d5a453dd92d64d0dcc859b14b299bb9fd2e553b47",
    ("metis-full", False): "e13976501ff296ec20aadf8afa0e10bfa50c555e0e687f46cc2f5282df35ccec",
    ("metis-window", False): "9351b91b55f5f72886d3804b14b53a1c4b9876825775a5666f07375efece3229",
    ("metis-threshold", False): "636c6c760c9a355fb357a720fe166b032fcb3af7fe1690bbfacab3cdba7619e5",
    ("metis-window", True): "a3e06c15c7626c66b77381a28b382a5ddffb4c5e770ecb4531c40653036959a7",
}

FINAL_ASSIGNMENT = {
    ("hashing", False): "a6d986ff182b2705d6cb353e04d1b7f44faaa44fafb157fe70c3d2b8fa6f83f5",
    ("kl", False): "26edf6f52ef31a866d6eff6f93dc6546b318a2ed735ae414df814dd4ba573081",
    ("metis-full", False): "ae248965fdcb630df204c4dc3b77c68379194b15ecc6e4647f0330b13be844cc",
    ("metis-window", False): "53e0364f4f0bbc9b764da08b6df74d1556a95ac74fd227a97e572628cc87b9d1",
    ("metis-threshold", False): "d302bbc76428feca5b7f34181019c866e0d55e7ba7c2203f0c9775f434e504db",
    ("metis-window", True): "53e0364f4f0bbc9b764da08b6df74d1556a95ac74fd227a97e572628cc87b9d1",
}


@pytest.fixture(scope="module")
def records():
    spec = WorkloadSpec(vertices=150, communities=3, duration=21 * DAY, records_per_hour=12, rewire_at=0.5)
    return generate_workload(spec, seed=11)[0]


@pytest.fixture(scope="module")
def trace_files(records, tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    (root / "trace.csv").write_text(serialize_trace(records, "csv"), encoding="utf-8")
    with gzip.open(root / "trace.jsonl.gz", "wt", encoding="utf-8") as fh:
        fh.write(serialize_trace(records, "jsonl"))
    return {"csv": str(root / "trace.csv"), "jsonl.gz": str(root / "trace.jsonl.gz")}


def digests(records, strategy, cumulative, k=3, **kwargs):
    """SHA-256 of the samples CSV and of the final assignment of one replay."""
    kwargs.setdefault("repartition_interval", 7 * DAY)
    cfg = ReplayConfig(k=k, strategy=strategy, cumulative_weights=cumulative, **kwargs)
    result = run_replay(records, cfg)
    text = samples_to_csv(result.samples, k)
    final = repr(sorted(result.final_assignment.shard_of.items()))
    return hashlib.sha256(text.encode()).hexdigest(), hashlib.sha256(final.encode()).hexdigest()


@pytest.mark.parametrize("strategy,cumulative", list(GOLDEN))
def test_samples_csv_digest(records, strategy, cumulative):
    key = (strategy, cumulative)
    assert digests(records, strategy, cumulative) == (GOLDEN[key], FINAL_ASSIGNMENT[key])


@pytest.mark.parametrize("fmt", ["csv", "jsonl.gz"])
@pytest.mark.parametrize("strategy,cumulative", list(GOLDEN))
def test_samples_csv_digest_through_read_trace(trace_files, fmt, strategy, cumulative):
    key = (strategy, cumulative)
    assert digests(read_trace(trace_files[fmt]), strategy, cumulative) == (GOLDEN[key], FINAL_ASSIGNMENT[key])


COARSENING = {
    "metis-threshold": (
        "91fbde4a0cd228e5d98eea9d3f0bfe0d4b5b731baff04418ad71a721d0c23e12",
        "a6a38053c6437f439f8d88b8026044babd4523431c29024c1734fb2f6b15d4fa",
    ),
    "metis-full": (
        "32b7e6f6ef0de18a3311904d3c5befb8b3c0f4c46b088ab9362fa0e903ec0aca",
        "fcad2ed82fea9c7c70757d5aa6c125c3fff7e423042956377613087b49aee786",
    ),
}


@pytest.fixture(scope="module")
def coarsening_records():
    spec = WorkloadSpec(vertices=1200, communities=4, duration=6 * DAY, records_per_hour=60, rewire_at=0.5)
    return generate_workload(spec, seed=11)[0]


@pytest.mark.parametrize("strategy", list(COARSENING))
def test_coarsening_replay_digest(coarsening_records, monkeypatch, strategy):
    levels = []

    def counted(pg, rng):
        levels.append(len(pg))
        return coarsen_once(pg, rng)

    coarsen_once = partition.coarsen_once
    monkeypatch.setattr(partition, "coarsen_once", counted)
    got = digests(coarsening_records, strategy, False, k=4, metric_window=12 * HOUR, repartition_interval=3 * DAY)
    assert levels, "the trace no longer makes the partitioner coarsen"
    assert got == COARSENING[strategy]
