import ast
import inspect
from collections import Counter
from dataclasses import fields
from pathlib import Path

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


# Functions and methods of src/shardsim that no code in src/ names, each with
# the reason it stays; any other would be a helper that only tests call.
NAMED_OUTSIDE_SRC = {
    "write_adjacency": "the only writer of the adjacency format that `shardsim partition` reads",
    "activity_from_records": "bench/layers.py wraps it",
    "Reader.convert": "a click hook",
    "CallKind._missing_": "an Enum hook",
}


def _definitions(node: ast.AST, prefix: str = ""):
    """(qualified name, node) of every function and method below ``node``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            name = prefix + child.name
            if not isinstance(child, ast.ClassDef):
                yield name, child
            yield from _definitions(child, name + ".")
        else:
            yield from _definitions(child, prefix)


def _names(node: ast.AST) -> Counter:
    """How often each identifier is read or written below ``node``, attributes included."""
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    )


def test_every_function_is_named_in_src():
    # dunders and decorated module-level functions (the click commands) are
    # called by their frameworks
    src = Path(shardsim.__file__).parent
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in sorted(src.glob("*.py"))]
    named = sum((_names(tree) for tree in trees), Counter())
    unnamed = []
    for tree in trees:
        for qualname, node in _definitions(tree):
            name = node.name
            if (name.startswith("__") and name.endswith("__")) or ("." not in qualname and node.decorator_list):
                continue
            if named[name] == _names(node)[name] and name not in shardsim.__all__:
                unnamed.append(qualname)
    assert sorted(unnamed) == sorted(NAMED_OUTSIDE_SRC)


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


PUBLIC_SIGNATURES = {
    "apply_record": ["self", "src", "dst"],
    "assign_new_vertex": ["counts", "shard_sizes"],
    "balance": ["graph", "a", "weighting"],
    "count_moves": ["old", "new"],
    "edge_cut": ["graph", "a", "weighting"],
    "generate_workload": ["spec", "seed"],
    "hash_partition": ["vertex", "cfg"],
    "kl_build_matrix": ["candidates", "a", "activity"],
    "kl_exchange": ["a", "candidates", "matrix", "seed"],
    "kl_select_candidates": ["a", "activity", "key"],
    "multilevel_partition": ["graph", "cfg", "weights"],
    "normalized_balance": ["b", "k"],
    "parse_trace": ["stream", "format", "strict", "stats"],
    "read_trace": ["path", "format", "strict", "stats"],
    "run_replay": ["trace", "cfg"],
    "serialize_trace": ["records", "format"],
    "window_subgraph": ["log", "from_t", "to_t"],
}


def test_public_signatures():
    # the parameters of every exported function; a change to this table is a
    # change to the library API
    signatures = {}
    for name in shardsim.__all__:
        obj = getattr(shardsim, name)
        if inspect.isfunction(obj):
            signatures[name] = list(inspect.signature(obj).parameters)
    assert signatures == PUBLIC_SIGNATURES


def test_replay_config_builds_its_partitioner():
    cfg = ReplayConfig(k=3, strategy=Strategy.KL, epsilon=0.1, seed=9, kl_rounds=2)
    assert cfg.partitioner == PartitionerConfig(3, 0.1, 9)
    default = ReplayConfig(k=3, strategy=Strategy.KL)
    assert default.partitioner == PartitionerConfig(3)
    for bad in ({"k": 0}, {"epsilon": -0.5}, {"kl_rounds": 0}):
        with pytest.raises(ValueError):
            ReplayConfig(**{"k": 3, "strategy": Strategy.KL, **bad})


def test_nan_settings_rejected_and_inf_accepted():
    nan, inf = float("nan"), float("inf")
    with pytest.raises(ValueError, match="epsilon must be >= 0"):
        PartitionerConfig(2, nan)
    for bad in ({"epsilon": nan}, {"cut_threshold": nan}, {"balance_threshold": nan}, {"cut_threshold": -0.1}):
        with pytest.raises(ValueError):
            ReplayConfig(**{"k": 3, "strategy": Strategy.METIS_THRESHOLD, **bad})
    cfg = ReplayConfig(k=3, strategy=Strategy.METIS_THRESHOLD, epsilon=inf, cut_threshold=inf, balance_threshold=inf)
    assert cfg.partitioner.balance_cap(30) == inf


def test_partitioner_follows_replay_config_changes():
    cfg = ReplayConfig(k=4, strategy=Strategy.HASHING)
    cfg.k = 8
    cfg.epsilon = 0.2
    cfg.seed = 9
    assert cfg.partitioner == PartitionerConfig(8, 0.2, 9)
    records = [make_record(i, i + 1, timestamp=i, block=i, tx_id=f"t{i}") for i in range(0, 200, 2)]
    shards = set(run_replay(records, cfg).final_assignment.shard_of.values())
    assert shards == set(range(8))
