"""shardsim: replay blockchain transaction traces against sharding strategies.

Builds the weighted interaction graph of a trace, assigns vertices
to shards under one of five strategies (hashing, probabilistic KL exchange,
and three multilevel-partitioner variants), and reports edge-cut, balance,
and vertex-move metrics per measurement window.
"""

from shardsim.trace import (
    CallKind,
    MalformedRow,
    OutOfOrderBlock,
    TraceError,
    TraceRecord,
    VertexKind,
    parse_trace,
    read_trace,
    serialize_trace,
    validate_kinds,
)
from shardsim.graph import InteractionGraph, WindowActivity, apply_record, close_window, window_subgraph
from shardsim.metrics import Assignment, MetricSample, balance, count_moves, edge_cut, normalized_balance
from shardsim.partition import (
    PartitionerConfig,
    assign_new_vertex,
    hash_partition,
    kl_build_matrix,
    kl_exchange,
    kl_select_candidates,
    multilevel_partition,
)
from shardsim.replay import ReplayConfig, ReplayResult, Strategy, run_replay
from shardsim.synth import WorkloadSpec, generate_workload

__version__ = "0.1.0"

__all__ = [
    "Assignment",
    "CallKind",
    "InteractionGraph",
    "MalformedRow",
    "MetricSample",
    "OutOfOrderBlock",
    "PartitionerConfig",
    "ReplayConfig",
    "ReplayResult",
    "Strategy",
    "TraceError",
    "TraceRecord",
    "VertexKind",
    "WindowActivity",
    "WorkloadSpec",
    "apply_record",
    "assign_new_vertex",
    "balance",
    "close_window",
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
    "validate_kinds",
    "window_subgraph",
]
