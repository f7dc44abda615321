"""Smoke test of the whole benchmark on micro workloads.

Each case runs the real run.py, child replays included, on a trace small
enough to replay in well under a second.
"""

import json
import shutil
import subprocess
import sys

import pytest

import run
from shardsim import WorkloadSpec

HOUR, DAY = run.HOUR, run.DAY

MICRO = {
    "kl-micro": {
        "spec": {"vertices": 300, "communities": 4, "duration": 15 * DAY, "records_per_hour": 6},
        "trace": "trace.csv",
        "traces": 2,
        "replay": {"k": 4, "strategy": "kl", "metric_window": 4 * HOUR, "repartition_interval": 14 * DAY},
    },
    "metis-full-micro": {
        "spec": {"vertices": 300, "communities": 4, "duration": 8 * DAY, "records_per_hour": 10},
        "trace": "trace.csv",
        "traces": 1,
        "replay": {"k": 4, "strategy": "metis-full", "metric_window": 4 * HOUR, "repartition_interval": 7 * DAY},
    },
    "threshold-micro": {
        "spec": {"vertices": 200, "communities": 4, "duration": 2 * DAY, "records_per_hour": 30, "rewire_at": 0.5},
        "trace": "trace.jsonl.gz",
        "traces": 2,
        "replay": {"k": 4, "strategy": "metis-threshold", "metric_window": 4 * HOUR},
    },
}


def run_micro(workload: str, trace: int, capsys) -> dict:
    argv = ["--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace)]
    assert run.main(argv, MICRO) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", MICRO)
def test_end_to_end_metrics(workload, capsys):
    result = run_micro(workload, 0, capsys)
    contract = run.load_contract()
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == MICRO[workload]["traces"]
    assert list(result["metrics"]) == [m["name"] for m in contract["end_to_end"]]
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert metrics["records_per_s"] == pytest.approx(
        WorkloadSpec(**MICRO[workload]["spec"]).num_records / metrics["replay_s"]
    )
    assert all(value > 0 for value in metrics.values())


@pytest.mark.parametrize("workload", MICRO)
def test_traced_run_accounts_for_replay_time(workload, capsys):
    result = run_micro(workload, 1, capsys)
    contract = run.load_contract()
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 2
    assert list(result["metrics"]) == [m["name"] for m in contract["per_layer"]]
    m = {name: v["value"] for name, v in result["metrics"].items()}
    assert m["trace.records"] == m["graph.apply_record_calls"] > 0
    assert m["replay.self_s"] >= 0
    assert m["replay.windows"] * 2 == m["metrics.edge_cut_calls"]
    if MICRO[workload]["replay"]["strategy"] == "kl":
        assert m["partition.multilevel_calls"] == 0 and m["partition.kl_candidates"] > 0
    else:
        assert m["partition.multilevel_calls"] == m["replay.repartitions"] > 0
        assert m["partition.multilevel_s"] >= m["partition.multilevel_self_s"] >= 0


def test_fails_without_the_program(tmp_path):
    """Given only BENCHMARK.json and the benchmark's files, it exits non-zero and reports nothing."""
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "kl-long", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
