"""shardsim replay benchmark.

Usage (from the repository root):

    python3 bench/run.py --workload kl-long --seed 1 --seconds 45 --trace 0

For the named workload it generates a few traces with ``synth`` from
``--seed``, writes them to disk, and replays them, one replay at a time, each
in a process of its own, through the library path the CLI uses
(``read_trace`` -> ``run_replay`` -> ``samples_to_csv``). With ``--trace 0``
every replay is untraced, every trace is replayed at least once, and the
end-to-end metrics are reported. With ``--trace 1`` each trace in turn is
replayed untraced, then traced (the first trace at least), and the per-layer
metrics are reported. Beyond that minimum, replays go on while the next one is
expected to end within ``--seconds``. Metric names and units come from
``BENCHMARK.json``.

Host times (set-up, replays and layer times) are rescaled to a reference
host speed by ``hostspeed.Probe``, because the shared machines this runs on
drift by tens of percent over a run; the wall times are printed beside them.

Every replay's outputs are checked; see ``check_replay``. The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``. Work files go to ``.bench_work/`` in the repository root;
the spans of the last traced replay stay in ``.bench_work/spans/``.
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import hostspeed

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

HOUR = 3600
DAY = 24 * HOUR
P90_MIN_CALLS = 100  # a p90 is reported only when ten calls lie beyond it
RUN_LIMIT_S = 170.0  # a run must end within 180 s

# Each workload: a synth WorkloadSpec, the trace file name (its extension
# picks the format), how many traces a run generates from its seed, and the
# ReplayConfig. Replay time and quality vary from trace to trace, so a run
# replays several traces and reports medians over them. kl-long and
# threshold-drift have their full-length durations shortened so that every
# trace fits in one run; each keeps the layer it exists to stress as its
# largest. metis-full-10k is full length and is left out of BENCHMARK.json
# because its results vary too much from seed to seed (see README.md).
WORKLOADS = {
    "kl-long": {
        "spec": {"vertices": 20000, "communities": 16, "duration": 28 * DAY, "records_per_hour": 400},
        "trace": "trace.csv",
        "traces": 3,
        "replay": {"k": 16, "strategy": "kl", "metric_window": 4 * HOUR, "repartition_interval": 14 * DAY},
    },
    "metis-full-10k": {
        "spec": {"vertices": 10000, "communities": 16, "duration": 28 * DAY, "records_per_hour": 400},
        "trace": "trace.csv",
        "traces": 3,
        "replay": {"k": 16, "strategy": "metis-full", "metric_window": 4 * HOUR, "repartition_interval": 7 * DAY},
    },
    "threshold-drift": {
        "spec": {
            "vertices": 3000, "communities": 8, "duration": 9 * DAY, "records_per_hour": 200, "rewire_at": 0.5,
        },
        "trace": "trace.jsonl.gz",
        "traces": 6,
        "replay": {"k": 8, "strategy": "metis-threshold", "metric_window": 4 * HOUR},
    },
}


def trace_seed(seed: int, i: int) -> int:
    """Seed of the ``i``-th trace of a run made with ``--seed seed``."""
    return 100 * seed + i


class BenchmarkError(Exception):
    """The benchmark cannot produce a result."""


def load_contract() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def set_up(workload: dict, seed: int, path: Path) -> tuple[list, hostspeed.Probe, hostspeed.Probe]:
    """Generate the workload's trace and write it; returns (records, generate, write) timings."""
    from shardsim import WorkloadSpec, generate_workload, serialize_trace
    from shardsim.trace import infer_format

    with hostspeed.Probe() as generate:
        records, _ = generate_workload(WorkloadSpec(**workload["spec"]), seed)
    with hostspeed.Probe() as write:
        text = serialize_trace(records, infer_format(str(path)))
        if path.suffix == ".gz":
            with gzip.open(path, "wt", encoding="utf-8", newline="") as fh:
                fh.write(text)
        else:
            with open(path, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
    return records, generate, write


def replay_in_child(job: dict, timeout: float) -> dict:
    """Run one replay in a fresh process; raises BenchmarkError if it fails."""
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "replay_once.py"), json.dumps(job)],
            cwd=ROOT, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"replay did not finish within {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchmarkError(f"replay exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    with open(job["result"], encoding="utf-8") as fh:
        return json.load(fh)


def check_replay(res: dict, vertices: set[str], k: int, csv: bytes, reference: bytes | None) -> list[str]:
    """Reasons a replay's outputs are wrong; empty when they are right."""
    problems = list(res.get("problems", []))
    shard_of = res["final_assignment"]
    missing = len(vertices - shard_of.keys())
    if missing:
        problems.append(f"final assignment misses {missing} trace vertices")
    outside = sum(1 for s in shard_of.values() if not 0 <= s < k)
    if outside:
        problems.append(f"{outside} vertices have a shard outside [0, {k})")
    if res["sample_moves"] != res["total_moves"]:
        problems.append(f"per-sample moves sum to {res['sample_moves']}, total_moves is {res['total_moves']}")
    if reference is not None and csv != reference:
        problems.append("samples CSV differs from the first replay of this run")
    return problems


def run_workload(name: str, workload: dict, seed: int, seconds: float, trace: bool) -> dict:
    """Set up, replay and check one workload; returns the run's figures."""
    started = perf_counter()
    work = WORK / f"{name}-seed{seed}-pid{os.getpid()}"
    spans_dir = WORK / "spans"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    spans_dir.mkdir(parents=True, exist_ok=True)
    try:
        paths, vertices, counts, generate, write = [], [], set(), [], []
        for i in range(workload["traces"]):
            path = work / f"{i}-{workload['trace']}"
            records, gen, wrote = set_up(workload, trace_seed(seed, i), path)
            paths.append(path)
            vertices.append({r.src for r in records} | {r.dst for r in records})
            counts.add(len(records))
            generate.append(gen)
            write.append(wrote)
            del records
        if len(counts) != 1:
            raise BenchmarkError(f"the traces of one run differ in length: {sorted(counts)} records")

        k = workload["replay"]["k"]
        # Replays follow this order, over and over. With --trace 0 every trace
        # is replayed before the time limit is looked at, so that each run
        # weighs the same traces; with --trace 1 only the first trace is,
        # untraced and traced, which keeps a traced run within its time.
        schedule = [(i, traced) for i in range(len(paths)) for traced in ([False, True] if trace else [False])]
        minimum = 2 if trace else len(schedule)
        results: dict[bool, list[dict]] = {False: [], True: []}
        last_s: dict[bool, float] = {}
        references: dict[int, bytes] = {}
        attempted = failed = 0
        problems: list[str] = []
        measure_start = perf_counter()
        while True:
            i, traced = schedule[attempted % len(schedule)]
            if attempted >= minimum and perf_counter() - measure_start + last_s[traced] > seconds:
                break
            remaining = RUN_LIMIT_S - (perf_counter() - started)
            if remaining < 1.0:
                break
            attempted += 1
            job = {
                "src": str(SRC),
                "trace": str(paths[i]),
                "replay": workload["replay"],
                "traced": traced,
                "csv": str(work / f"samples{attempted}.csv"),
                "result": str(work / f"result{attempted}.json"),
                "spans": str(spans_dir / f"{name}-seed{seed}.json"),
            }
            t0 = perf_counter()
            try:
                res = replay_in_child(job, remaining)
            except BenchmarkError as exc:
                failed += 1
                problems.append(f"replay {attempted}: {exc}")
                last_s[traced] = perf_counter() - t0
                continue
            last_s[traced] = perf_counter() - t0
            csv = Path(job["csv"]).read_bytes()
            found = check_replay(res, vertices[i], k, csv, references.get(i))
            if found:
                failed += 1
                problems.extend(f"replay {attempted} (trace {i}): {p}" for p in found)
                continue
            references.setdefault(i, csv)
            res["trace"] = i
            results[traced].append(res)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return {
        "records": counts.pop(),
        "vertices": [len(v) for v in vertices],
        "setup_s": [g.seconds + w.seconds for g, w in zip(generate, write)],
        "setup_wall_s": [g.busy_s + w.busy_s for g, w in zip(generate, write)],
        "generate_s": [g.seconds for g in generate],
        "write_s": [w.seconds for w in write],
        "untraced": results[False],
        "traced": results[True],
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
    }


def end_to_end_metrics(run: dict) -> dict[str, float]:
    """Each metric is a mean over the run's traces, so that the traces weigh
    alike whatever their count of replays. A trace's time and memory are the
    medians over its replays; its simulated figures repeat exactly, so its
    first replay gives them."""
    by_trace: dict[int, list[dict]] = {}
    for r in run["untraced"]:
        by_trace.setdefault(r["trace"], []).append(r)

    def mean(per_trace) -> float:
        return statistics.fmean(per_trace(rs) for rs in by_trace.values())

    replay_s = mean(lambda rs: statistics.median(r["replay_s"] for r in rs))
    return {
        "setup_s": statistics.median(run["setup_s"]),
        "replay_s": replay_s,
        "records_per_s": run["records"] / replay_s,
        "peak_rss_mb": mean(lambda rs: statistics.median(r["peak_rss_mb"] for r in rs)),
        "median_dynamic_cut": mean(lambda rs: rs[0]["median_dynamic_cut"]),
        "median_dynamic_balance": mean(lambda rs: rs[0]["median_dynamic_balance"]),
        "total_moves": mean(lambda rs: rs[0]["total_moves"]),
    }


def percentiles(calls_ms: list[float]) -> tuple[float, float]:
    """(p50, p90) of per-call times; 0 where there are too few calls."""
    if not calls_ms:
        return 0.0, 0.0
    if len(calls_ms) < P90_MIN_CALLS:
        return statistics.median(calls_ms), 0.0
    return statistics.median(calls_ms), statistics.quantiles(calls_ms, n=10, method="inclusive")[8]


def per_layer_metrics(run: dict) -> dict[str, float]:
    traced = run["traced"]
    m = {key: statistics.median(r["metrics"][key] for r in traced) for key in traced[0]["metrics"]}
    for prefix in traced[0]["call_ms"]:
        pooled = [ms for r in traced for ms in r["call_ms"][prefix]]
        m[f"{prefix}_p50"], m[f"{prefix}_p90"] = percentiles(pooled)
    m["synth.generate_s"] = statistics.median(run["generate_s"])
    m["trace.write_s"] = statistics.median(run["write_s"])
    # Traces differ in work, so traced and untraced replays are compared trace by trace.
    times: dict[int, dict[bool, list[float]]] = {}
    for kind in (False, True):
        for r in run["traced" if kind else "untraced"]:
            times.setdefault(r["trace"], {False: [], True: []})[kind].append(r["replay_s"])
    m["replay.trace_overhead_ratio"] = statistics.median(
        statistics.median(t[True]) / statistics.median(t[False]) for t in times.values() if t[True] and t[False]
    ) - 1.0
    return m


def main(argv: list[str] | None = None, workloads: dict | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workloads = WORKLOADS if workloads is None else workloads
    if args.workload not in workloads:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads)}")
    if not (SRC / "shardsim" / "__init__.py").is_file():
        print(f"error: shardsim sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    contract = load_contract()
    section = contract["per_layer"] if args.trace else contract["end_to_end"]
    units = {m["name"]: m["unit"] for m in section}
    why = {w["name"]: w["why"] for w in contract["workloads"]}

    workload = workloads[args.workload]
    run = run_workload(args.workload, workload, args.seed, args.seconds, bool(args.trace))
    n = workload["traces"]
    print(f"workload {args.workload}, seed {args.seed}: {n} traces (synth seeds"
          f" {trace_seed(args.seed, 0)}..{trace_seed(args.seed, n - 1)}), {run['records']} records each,"
          f" {', '.join(map(str, run['vertices']))} vertices")
    print(f"  spec {json.dumps(workload['spec'])}, trace file {workload['trace']}")
    print(f"  replay {json.dumps(workload['replay'])}")
    if args.workload in why:
        print(f"  why: {why[args.workload]}")
    failed = run["failed"]
    for problem in run["problems"]:
        print(f"FAILED {problem}", file=sys.stderr)
    print(f"replays: {run['attempted']} attempted, {failed} failed"
          f" ({len(run['untraced'])} untraced and {len(run['traced'])} traced passed)")
    if not run["untraced"] or (args.trace and not run["traced"]):
        print("error: no replay passed its checks, so there is nothing to report", file=sys.stderr)
        return 1
    print(f"  windows {run['untraced'][0]['windows']}")
    print("  setup_s per set-up (wall s): " + ", ".join(
        f"{s:.3f} ({w:.3f})" for s, w in zip(run["setup_s"], run["setup_wall_s"])))
    for kind in ("untraced", "traced"):
        if run[kind]:
            times = ", ".join(f"{r['replay_s']:.3f} ({r['wall_s']:.3f})" for r in run[kind])
            print(f"  {kind} replay_s per replay (wall s): {times}")

    metrics = per_layer_metrics(run) if args.trace else end_to_end_metrics(run)
    if metrics.keys() != units.keys():
        raise BenchmarkError(f"metrics {sorted(metrics.keys() ^ units.keys())} do not match BENCHMARK.json")
    for name, unit in units.items():
        print(f"  {name:<42} {metrics[name]:>14.6g} {unit}")
    if args.trace:
        self_s = run["traced"][-1]["self_s"]
        print("self time by layer, last traced replay (sums to replay.run_replay_s):")
        for layer, seconds in sorted(self_s.items(), key=lambda kv: -kv[1]):
            print(f"  {layer:<42} {seconds:>10.4f} s")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": run["attempted"],
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
