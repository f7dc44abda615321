import shardsim

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
