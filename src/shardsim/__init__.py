"""shardsim: replay blockchain transaction traces against sharding strategies.

Builds the weighted interaction graph of a trace, assigns vertices
to shards under one of five strategies (hashing, probabilistic KL exchange,
and three multilevel-partitioner variants), and reports edge-cut, balance,
and vertex-move metrics per measurement window. One counts type,
InteractionGraph, serves the whole trace, a metric window and a repartition
period alike.
"""

from shardsim.trace import (
    CallKind,
    MalformedRow,
    OutOfOrderBlock,
    OutOfOrderTimestamp,
    TraceError,
    TraceRecord,
    VertexKind,
    parse_trace,
    read_trace,
    serialize_trace,
)
from shardsim.graph import InteractionGraph, apply_record, window_subgraph
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
