from dataclasses import fields

import pytest

import shardsim
from shardsim import PartitionerConfig, ReplayConfig, Strategy, run_replay

from conftest import make_record

PUBLIC_API = [
    "Assignment",
    "CallKind",
    "InteractionGraph",
    "MalformedRow",
    "MetricSample",
    "OutOfOrderBlock",
    "OutOfOrderTimestamp",
    "PartitionerConfig",
    "ReplayConfig",
    "ReplayResult",
    "Strategy",
    "TraceError",
    "TraceRecord",
    "VertexKind",
    "WorkloadSpec",
    "apply_record",
    "assign_new_vertex",
    "balance",
    "count_moves",
    "edge_cut",
    "generate_workload",
    "hash_partition",
    "kl_build_matrix",
    "kl_exchange",
    "kl_select_candidates",
    "multilevel_partition",
    "normalized_balance",
    "parse_trace",
    "read_trace",
    "run_replay",
    "serialize_trace",
    "window_subgraph",
]


def test_public_api():
    assert shardsim.__all__ == PUBLIC_API
    assert [name for name in PUBLIC_API if not hasattr(shardsim, name)] == []


def test_option_surface():
    # every settable value; a change to this list is a change to the options
    assert [f.name for f in fields(ReplayConfig) if f.init] == [
        "k",
        "strategy",
        "metric_window",
        "repartition_interval",
        "cut_threshold",
        "balance_threshold",
        "epsilon",
        "seed",
        "kl_rounds",
        "cumulative_weights",
    ]
    assert [f.name for f in fields(PartitionerConfig) if f.init] == ["k", "epsilon", "seed"]
    assert "partitioner" not in [f.name for f in fields(ReplayConfig)]


def test_replay_config_builds_its_partitioner():
    cfg = ReplayConfig(k=3, strategy=Strategy.KL, epsilon=0.1, seed=9, kl_rounds=2)
    assert cfg.partitioner == PartitionerConfig(3, 0.1, 9)
    default = ReplayConfig(k=3, strategy=Strategy.KL)
    assert default.partitioner == PartitionerConfig(3)
    for bad in ({"k": 0}, {"epsilon": -0.5}, {"kl_rounds": 0}):
        with pytest.raises(ValueError):
            ReplayConfig(**{"k": 3, "strategy": Strategy.KL, **bad})


def test_partitioner_follows_replay_config_changes():
    cfg = ReplayConfig(k=4, strategy=Strategy.HASHING)
    cfg.k = 8
    cfg.epsilon = 0.2
    cfg.seed = 9
    assert cfg.partitioner == PartitionerConfig(8, 0.2, 9)
    records = [make_record(i, i + 1, timestamp=i, block=i, tx_id=f"t{i}") for i in range(0, 200, 2)]
    shards = set(run_replay(records, cfg).final_assignment.shard_of.values())
    assert shards == set(range(8))
