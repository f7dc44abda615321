"""Committed mutants: changes to ``src/`` that the named tests must catch.

Each entry of ``MUTANTS`` holds a file under ``src/``, a snippet of it, the
snippet's replacement, and the tests to run against the mutated copy. The
mutant is killed when one of them fails. ``test_mutants.py`` checks in tier 1
that each snippet occurs exactly once in today's source, so a refactor that
moves a mutated line must update this table.

Run every mutant, or the ones named, from any directory:

    python tests/mutants.py [name ...]

Each mutant runs in a fresh copy of ``src/`` with ``pytest -x`` under the
``mutants`` hypothesis profile (``derandomize=True``, no example database),
which ``conftest.py`` registers, so a run does not depend on luck or on
examples saved by earlier runs. The exit status is 0 when every mutant is
killed, 1 when one survives or its tests cannot run or take more than
``TIMEOUT`` seconds.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT = 600  # a mutant that makes a loop endless fails the run instead of hanging it


class Mutant(NamedTuple):
    name: str
    file: str  # relative to src/
    snippet: str
    replacement: str
    tests: tuple[str, ...]


TRACE = "shardsim/trace.py"
CSV_PROPERTY = "tests/test_trace.py::test_one_loop_matches_per_row_parse"
JSONL_PROPERTY = "tests/test_trace.py::test_jsonl_one_loop_matches_per_row_parse"
CLEAN_TRACE = "tests/test_trace.py::test_a_clean_trace_never_takes_the_per_row_path"
CSV_SPLIT = 'row, plain = (text.split(",") if text else []), text.isascii()'
GUARD = "if not (timestamp.isdigit() and block.isdigit() and tx_id):"
STRING = r"""_STRING = r'"([^"\\\x00-\x1f]*)"'"""
INTEGERS = r"""r'\{"timestamp":(0|[1-9][0-9]*),"block":(0|[1-9][0-9]*),'"""
TRAILER = r"""rf'"call_kind":{_STRING},"tx_id":{_STRING}\}}\r?\n?'"""
CATCH = "except (ValueError, RecursionError) as exc:  # bad JSON"
REPLAY = "shardsim/replay.py"
TAIL_ORACLE = "tests/test_replay.py::test_repartition_tail_matches_the_whole_vector_tail"
OUTSIDE = "if n:  # the matching reads the same counts as over the whole vector"
MOVES = "moves = sum(n for (s_new, s_old), n in overlap.items() if mapping[s_new] != s_old)"
SIZES = "assignment, shard_sizes = rep.assignment, rep.shard_sizes"
REFERENCE = "tests/test_replay.py::test_replay_matches_reference_replay"
TRIGGER = "if fire_trigger(clock, last_repart, sample, cfg):"
RESULT = "return Repartition(Assignment(shard_of, k), moves, raw_moves, sizes)"
LEARN = "src = names.get(src) or _address(src, names)\n                dst = names.get(dst) or _address(dst, names)"
PARTITION = "shardsim/partition.py"
REPAIR_ORACLES = (
    "tests/test_partition.py::test_repair_balance_matches_scan_reference",
    "tests/test_partition.py::test_repair_balance_matches_scan_reference_on_community_graphs",
)
REPAIR_KEY = "move = (conn[over] - conn[j], weights[j], v, j)"
FITS = "if j != over and weights[j] + vwgt[v] <= cap:"
DECIMAL = '_DECIMAL = re.compile("-?[0-9]+")'
BOTH_ENDS = "if adj[u].get(v) != w:"
WRITER_PATHS = "tests/test_trace.py::test_csv_writer_paths_match_field_by_field_quoting"
UNQUOTED = '''if '"' not in text and "\\r" not in text and text.count(",") == 7 * n and text.count("\\n") == n:'''
CLI = "shardsim/cli.py"
METRICS = "shardsim/metrics.py"
NORMALIZED = '''def normalized_balance(b: float, k: int) -> float:
    """Rescale a balance ratio to [0, 1] for cross-k comparison: (b-1)/(k-1)."""
    if k <= 1:
        return 0.0
    return (b - 1.0) / (k - 1.0)'''

MUTANTS = [
    # table lookups read an integer int() takes but the integer rule does not,
    # or a row with an empty tx_id
    Mutant("csv-no-isdigit-guard", TRACE, GUARD, "if not tx_id:", (CSV_PROPERTY,)),
    Mutant("plain-takes-empty-tx-id", TRACE, GUARD, GUARD.replace(" and tx_id", ""), (CSV_PROPERTY, JSONL_PROPERTY)),
    # the record checks let a negative timestamp or block through
    Mutant("tail-takes-negative", TRACE, "if timestamp < 0 or block < 0:", "if False:",
           ("tests/test_trace.py::test_malformed_row_messages",)),
    Mutant("csv-non-ascii-plain", TRACE, CSV_SPLIT, CSV_SPLIT.replace("text.isascii()", "True"), (CSV_PROPERTY,)),
    # the pattern takes a line json.loads reads otherwise or not at all
    Mutant("jsonl-leading-zeros", TRACE, INTEGERS, INTEGERS.replace("(0|[1-9][0-9]*)", "([0-9]+)"),
           (JSONL_PROPERTY,)),
    Mutant("jsonl-backslash-in-string", TRACE, STRING, STRING.replace("\\\\\\x00", "\\x00"), (JSONL_PROPERTY,)),
    Mutant("jsonl-control-in-string", TRACE, STRING, STRING.replace("\\x00-\\x1f", ""), (JSONL_PROPERTY,)),
    Mutant("jsonl-any-space-after", TRACE, TRAILER, TRAILER.replace(r"\r?\n?", r"\s*"), (JSONL_PROPERTY,)),
    # rows of a clean trace leave the table lookups
    Mutant("csv-never-plain", TRACE, CSV_SPLIT, CSV_SPLIT.replace("text.isascii()", "False"), (CLEAN_TRACE,)),
    Mutant("jsonl-never-plain", TRACE, "row, plain = match.groups(), True", "row, plain = match.groups(), False",
           (CLEAN_TRACE,)),
    Mutant("loop-does-not-learn-addresses", TRACE, LEARN, "src, dst = names[src], names[dst]", (CLEAN_TRACE,)),
    # a JSON value json.loads rejects with a plain ValueError, or a line nested
    # past the recursion limit, escapes as a crash
    Mutant("jsonl-catch-decode-error-only", TRACE, CATCH, CATCH.replace("ValueError", "json.JSONDecodeError"),
           ("tests/test_trace.py::test_malformed_row_messages[integer-too-long-for-int]",)),
    Mutant("jsonl-recursion-escapes", TRACE, CATCH, CATCH.replace("(ValueError, RecursionError)", "ValueError"),
           ("tests/test_trace.py::test_jsonl_line_nested_past_the_recursion_limit_is_a_malformed_row",)),
    # the tail of a repartition reads other counts than the whole part vector
    Mutant("tail-keeps-zero-diagonal", REPLAY, OUTSIDE, OUTSIDE.replace("if n:", "if True:"), (TAIL_ORACLE,)),
    Mutant("tail-drops-outside-moves", REPLAY, MOVES, MOVES.replace("!= s_old)", "!= s_old != s_new)"),
           (TAIL_ORACLE,)),
    Mutant("tail-keeps-old-shard-sizes", REPLAY, SIZES, "assignment = rep.assignment", (REFERENCE,)),
    # balance repair makes another move than the full scan
    Mutant("repair-key-ignores-target-weight", PARTITION, REPAIR_KEY, REPAIR_KEY.replace(" weights[j],", ""),
           REPAIR_ORACLES),
    Mutant("repair-fit-ignores-vertex-weight", PARTITION, FITS, FITS.replace(" + vwgt[v]", ""), REPAIR_ORACLES),
    Mutant("repair-tie-to-last-shard", PARTITION, "over = weights.index(heaviest)",
           "over = k - 1 - weights[::-1].index(heaviest)", REPAIR_ORACLES),
    # the integer and adjacency rules let through what they reject
    Mutant("decimal-takes-plus-sign", TRACE, DECIMAL, DECIMAL.replace("-?", "[-+]?"),
           ("tests/test_trace.py::test_decimal_is_the_one_integer_rule",)),
    Mutant("adjacency-one-way-edge", PARTITION, BOTH_ENDS, "if False:",
           ("tests/test_partition.py::test_read_adjacency_rejects_bad_graph",)),
    # the adjacency reader allocates the vertex count its header claims
    Mutant("adjacency-allocates-header-count", PARTITION, "vwgt: list[int] = []", "vwgt: list[int] = ([1] * n)[:0]",
           ("tests/test_partition.py::test_read_adjacency_rejects_bad_graph[vertex-count-past-any-list]",
            "tests/test_cli.py::test_partition_rejects_wrong_vertex_line_count[vertex-count-past-any-list]")),
    # the CSV writer returns unquoted text that holds a character to quote,
    # or its fallback meets the iterator that the first pass spent
    Mutant("csv-writer-no-comma-count", TRACE, UNQUOTED, UNQUOTED.replace(' and text.count(",") == 7 * n', ""),
           (WRITER_PATHS,)),
    Mutant("csv-writer-no-lf-count", TRACE, UNQUOTED, UNQUOTED.replace(' and text.count("\\n") == n', ""),
           (WRITER_PATHS,)),
    Mutant("csv-writer-no-quote-test", TRACE, UNQUOTED, UNQUOTED.replace(''''"' not in text and ''', ""),
           (WRITER_PATHS,)),
    Mutant("csv-writer-no-cr-test", TRACE, UNQUOTED, UNQUOTED.replace(' and "\\r" not in text', ""),
           (WRITER_PATHS,)),
    Mutant("csv-writer-fallback-reads-spent-iterator", TRACE, "records = list(records)", "records = iter(records)",
           (WRITER_PATHS,)),
    # every k of a sweep after the first replays the parse that the first spent
    Mutant("sweep-replays-a-spent-iterator", CLI, "records = list(records)", "pass",
           ("tests/test_cli.py::test_sweep_runs_multiple_k",)),
    # the sweep builds its record list with the cyclic collector running
    Mutant("sweep-parse-collector-on", CLI, "with gc_paused():", "if True:",
           ("tests/test_cli.py::test_sweep_parses_with_the_collector_paused_and_restores_it",)),
    # a KL matrix row whose off-diagonal sum drifts past 1 keeps a negative diagonal
    Mutant("kl-matrix-no-drift-guard", PARTITION, "if off > 1.0:  # guard against float drift", "if False:",
           ("tests/test_partition.py::test_kl_matrix_float_drift_guard",)),
    # acceptance criteria 3-5: a metric, the partitioner's quality and the
    # refinement record each go wrong in a way their criterion catches
    Mutant("dynamic-balance-counts-vertices", METRICS, "loads_of = graph.vertices",
           "loads_of = dict.fromkeys(graph.vertices, 1)",
           ("tests/test_acceptance.py::test_criterion_3_metric_oracle_equivalence",)),
    # the one per-shard sum counts its entries: balance, KL's loads and both
    # of balance repair's sums go wrong
    Mutant("shard-loads-ignores-weight", METRICS, "loads[s] += w", "loads[s] += 1",
           ("tests/test_acceptance.py::test_criterion_3_metric_oracle_equivalence", *REPAIR_ORACLES,
            "tests/test_partition.py::test_kl_matrix_two_shard_flow",
            "tests/test_partition.py::test_kl_matrix_int_loads_match_float_sums")),
    Mutant("initial-partition-keeps-the-worst-try", PARTITION, "key = (not feasible, cut)",
           "key = (not feasible, -cut)", ("tests/test_acceptance.py::test_criterion_4_partitioner_quality",)),
    Mutant("refinement-records-passes-reversed", PARTITION, "pass_cuts.append((cut_before, cut))",
           "pass_cuts.append((cut, cut_before))", ("tests/test_acceptance.py::test_criterion_5_refinement_monotone",)),
    # every KL round of a repartition draws from one seed; no test but the
    # reference replay, whose KL repartitions run up to two rounds, catches it
    Mutant("kl-rounds-share-a-seed", REPLAY, "cfg.seed ^ clock ^ (rnd << 32)", "cfg.seed ^ clock",
           (REFERENCE,)),
    # the replay's bookkeeping between windows goes wrong; the reference
    # replay, which recounts every graph from the records, catches each
    Mutant("placement-counts-outlive-their-window", REPLAY, "tx_counts.clear()", "pass", (REFERENCE,)),
    Mutant("trigger-judges-a-window-late", REPLAY, TRIGGER,
           TRIGGER.replace("sample, cfg", "samples[-1] if samples else sample, cfg"), (REFERENCE,)),
    Mutant("moves-counted-before-relabelling", REPLAY, RESULT,
           RESULT.replace("moves, raw_moves", "raw_moves, raw_moves"), (REFERENCE,)),
    Mutant("period-never-reset", REPLAY, "                target = None", "                pass", (REFERENCE,)),
    Mutant("metis-full-graph-reset", REPLAY, "if cfg.strategy is not Strategy.METIS_FULL:", "if True:", (REFERENCE,)),
    Mutant("period-not-merged", REPLAY, "target.merge(finished)", "pass", (REFERENCE,)),
    # a file is opened by another rule than open_trace's: a graph that starts
    # with a byte-order mark is rejected, or a .gz output is plain text
    Mutant("adjacency-keeps-byte-order-mark", PARTITION, "with open_trace(path) as fh:",
           'with open(path, encoding="utf-8") as fh:', ("tests/test_cli.py::test_partition_reads_a_byte_order_mark",)),
    Mutant("emit-writes-plain-text-under-gz", CLI, 'with open_trace(path, "w") as fh:',
           'with open(path, "w", encoding="utf-8", newline="") as fh:',
           ("tests/test_cli.py::test_gz_outputs_are_gzip_and_read_back",)),
    # an exported function's parameter is renamed: callers that pass it by
    # keyword break, and nothing but the signature table notices
    Mutant("public-parameter-renamed", METRICS, NORMALIZED, NORMALIZED.replace("(b", "(ratio"),
           ("tests/test_api.py::test_public_signatures",)),
]


def run(mutant: Mutant) -> str:
    """``killed``, ``survived``, or ``error`` and pytest's output."""
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        path = src / mutant.file
        text = path.read_text()
        if text.count(mutant.snippet) != 1:
            return f"error: the snippet occurs {text.count(mutant.snippet)} times in {mutant.file}"
        path.write_text(text.replace(mutant.snippet, mutant.replacement))
        env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "--hypothesis-profile=mutants",
                 "-o", f"pythonpath={src}", *mutant.tests],
                cwd=ROOT, env=env, capture_output=True, text=True, timeout=TIMEOUT,
            )
        except subprocess.TimeoutExpired:
            return f"error: its tests ran past {TIMEOUT} s"
    if proc.returncode == 1:
        return "killed"
    if proc.returncode == 0:
        return "survived"
    return f"error: pytest exited {proc.returncode}\n{proc.stdout}{proc.stderr}"


def main(names: list[str]) -> int:
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 1
    failed = 0
    for mutant in MUTANTS:
        if names and mutant.name not in names:
            continue
        start = time.perf_counter()
        outcome = run(mutant)
        print(f"{outcome} {mutant.name} ({time.perf_counter() - start:.1f} s)", flush=True)
        failed += outcome != "killed"
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
