"""Replay output pinned across changes.

SHA-256 digests of the samples CSV for every strategy, plus metis-window with
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


def digest(records, strategy, cumulative):
    cfg = ReplayConfig(k=3, strategy=strategy, repartition_interval=7 * DAY, cumulative_weights=cumulative)
    text = samples_to_csv(run_replay(records, cfg).samples, 3)
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("strategy,cumulative", list(GOLDEN))
def test_samples_csv_digest(records, strategy, cumulative):
    assert digest(records, strategy, cumulative) == GOLDEN[(strategy, cumulative)]


@pytest.mark.parametrize("fmt", ["csv", "jsonl.gz"])
@pytest.mark.parametrize("strategy,cumulative", list(GOLDEN))
def test_samples_csv_digest_through_read_trace(trace_files, fmt, strategy, cumulative):
    assert digest(read_trace(trace_files[fmt]), strategy, cumulative) == GOLDEN[(strategy, cumulative)]
