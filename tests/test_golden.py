"""Replay output pinned across changes.

SHA-256 digests of the samples CSV and of the final assignment (the ``repr``
of its address-sorted items) for every strategy, plus metis-window with
cumulative weights, on one small fixed-seed synthetic trace. A change that
means to alter partitions or metrics updates these digests and says so; any
other change must leave them as they are. The same digests must come out when
the trace is written to a file and read back, as CSV and as gzipped JSONL.
"""

import gzip
import hashlib

import pytest

from shardsim.replay import DAY, ReplayConfig, Strategy, run_replay
from shardsim.report import samples_to_csv
from shardsim.synth import WorkloadSpec, generate_workload
from shardsim.trace import read_trace, serialize_trace

GOLDEN = {
    ("hashing", False): "d82b54d2fa81d7a18e3bfd2328c4b2a889f60377daac1675e34cf268b688707c",
    ("kl", False): "541ea6a317fb5dcecde7f43d5a453dd92d64d0dcc859b14b299bb9fd2e553b47",
    ("metis-full", False): "e13976501ff296ec20aadf8afa0e10bfa50c555e0e687f46cc2f5282df35ccec",
    ("metis-window", False): "61a4c3c43c30c7e95f573268ea10f85479142915d9fb9605fb47ae7bfc4c8040",
    ("metis-threshold", False): "7658069bcb259f692f75ab6628d1bf489128288c235c777cb889b1ccc049e72c",
    ("metis-window", True): "a1f2d446e128a0b8d872a9be74e70c3ee22edc86951a7596143cb82957378d39",
}

FINAL_ASSIGNMENT = {
    ("hashing", False): "a6d986ff182b2705d6cb353e04d1b7f44faaa44fafb157fe70c3d2b8fa6f83f5",
    ("kl", False): "26edf6f52ef31a866d6eff6f93dc6546b318a2ed735ae414df814dd4ba573081",
    ("metis-full", False): "ae248965fdcb630df204c4dc3b77c68379194b15ecc6e4647f0330b13be844cc",
    ("metis-window", False): "f5a40011e7f41c54e3484b20d2355541c577db189905af2e81f628b86f8cd853",
    ("metis-threshold", False): "19577096744d8f11d9199c1cdd609d139c8e4892db2fe23e5c9e7eec6c3d2543",
    ("metis-window", True): "f5a40011e7f41c54e3484b20d2355541c577db189905af2e81f628b86f8cd853",
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


def digests(records, strategy, cumulative):
    """SHA-256 of the samples CSV and of the final assignment of one replay."""
    cfg = ReplayConfig(k=3, strategy=strategy, repartition_interval=7 * DAY, cumulative_weights=cumulative)
    result = run_replay(records, cfg)
    text = samples_to_csv(result.samples, 3)
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
