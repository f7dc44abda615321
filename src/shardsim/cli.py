"""Command-line entry point.

Subcommands: ``replay`` (run a trace through a strategy), ``partition``
(offline partitioning of an exported adjacency file), ``synth`` (generate a
synthetic workload), ``summarize`` (quartile table of a replay output).
Set ``SHARDSIM_LOG=DEBUG`` (or INFO, ...) for diagnostics.
"""

from __future__ import annotations

import concurrent.futures
import functools
import logging
import os
import re
import sys
from typing import NoReturn

import click

from shardsim.partition import PartitionerConfig, partition_partgraph, read_adjacency
from shardsim.replay import ReplayConfig, Strategy, run_replay
from shardsim.report import format_summary, read_samples_csv, samples_to_csv, samples_to_json, summarize
from shardsim.synth import WorkloadSpec, generate_workload, write_truth
from shardsim.trace import ParseStats, TraceError, infer_format, open_trace, read_trace, serialize_trace

_DURATION_RE = re.compile(r"^(\d+)\s*(s|m|h|d|w)?$")
_DURATION_UNITS = {"s": 1, "m": 60, "h": 3600, "d": 86400, "w": 7 * 86400}


def parse_duration(text: str) -> int:
    """Trace-time duration: plain seconds or a number with s/m/h/d/w suffix."""
    m = _DURATION_RE.match(text.strip().lower())
    if not m:
        raise click.BadParameter(f"bad duration {text!r} (examples: 4h, 14d, 900s)")
    return int(m.group(1)) * _DURATION_UNITS[m.group(2) or "s"]


class DurationParam(click.ParamType):
    name = "duration"

    def convert(self, value, param, ctx):
        if isinstance(value, int):
            return value
        return parse_duration(value)


DURATION = DurationParam()


def _positive_int(ctx, param, value):
    if value is not None and value < 1:
        raise click.BadParameter("must be >= 1")
    return value


def _fail(exc: Exception) -> NoReturn:
    """Print ``error: ...`` on stderr and exit 1."""
    click.echo(f"error: {exc}", err=True)
    sys.exit(1)


def _emit(payload: str, path: str | None) -> None:
    """Write ``payload`` to ``path``, or to stdout when it is None."""
    if path is None:
        click.echo(payload, nl=False)
        return
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(payload)
    except OSError as exc:
        _fail(exc)


@click.group()
def main() -> None:
    """Replay blockchain transaction traces against sharding strategies."""
    level = os.environ.get("SHARDSIM_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING))


def _run_one_replay(
    trace_path: str, fmt: str, strict: bool, cfg: ReplayConfig, out_format: str
) -> tuple[int, str, int]:
    """Worker for --sweep; module-level so it pickles.

    Returns (k, output text, malformed rows skipped).
    """
    stats = ParseStats()
    result = run_replay(read_trace(trace_path, fmt, strict=strict, stats=stats), cfg)
    if out_format == "json":
        payload = samples_to_json(result.samples, cfg.k)
    else:
        payload = samples_to_csv(result.samples, cfg.k)
    return cfg.k, payload, stats.skipped


@main.command()
@click.option("--trace", "trace_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--format", "fmt", type=click.Choice(["csv", "jsonl"]), default=None,
              help="Trace format; inferred from the extension by default.")
@click.option("--shards", "k", type=int, callback=_positive_int, default=None, help="Shard count.")
@click.option("--strategy", type=click.Choice([s.value for s in Strategy]), default="hashing")
@click.option("--metric-window", type=DURATION, default="4h", show_default=True)
@click.option("--repartition-interval", type=DURATION, default="14d", show_default=True)
@click.option("--cut-threshold", type=float, default=0.3, show_default=True)
@click.option("--balance-threshold", type=float, default=1.5, show_default=True)
@click.option("--epsilon", type=float, default=0.05, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--kl-rounds", type=int, default=1, show_default=True)
@click.option("--weights", type=click.Choice(["window", "cumulative"]), default="window",
              help="Activity weights for dynamic metrics.")
@click.option("--lenient", is_flag=True, help="Skip malformed rows instead of aborting.")
@click.option("--out", "out_path", type=click.Path(dir_okay=False), default=None,
              help="Output file (stdout when omitted).")
@click.option("--out-format", type=click.Choice(["csv", "json"]), default="csv", show_default=True)
@click.option("--sweep", default=None, help="Comma-separated shard counts, e.g. 'k=2,4,8'; "
              "runs independent replays in parallel, one output per k.")
def replay(trace_path, fmt, k, strategy, metric_window, repartition_interval, cut_threshold,
           balance_threshold, epsilon, seed, kl_rounds, weights, lenient, out_path, out_format, sweep):
    """Replay a trace and emit per-window metric samples."""
    fmt = fmt or infer_format(trace_path)
    if sweep is None and k is None:
        raise click.UsageError("either --shards or --sweep is required")
    ks = [k] if sweep is None else _parse_sweep(sweep)
    if sweep is not None and out_path is None:
        raise click.UsageError("--sweep requires --out")

    try:
        cfgs = [
            ReplayConfig(
                k=kk,
                strategy=Strategy(strategy),
                metric_window=metric_window,
                repartition_interval=repartition_interval,
                cut_threshold=cut_threshold,
                balance_threshold=balance_threshold,
                epsilon=epsilon,
                seed=seed,
                kl_rounds=kl_rounds,
                cumulative_weights=weights == "cumulative",
            )
            for kk in ks
        ]
    except ValueError as exc:
        raise click.UsageError(str(exc))
    run_one = functools.partial(_run_one_replay, trace_path, fmt, not lenient, out_format=out_format)
    try:
        if len(cfgs) == 1:
            results = [run_one(cfgs[0])]
        else:
            with concurrent.futures.ProcessPoolExecutor(max_workers=min(len(cfgs), os.cpu_count() or 1)) as pool:
                results = list(pool.map(run_one, cfgs))
    except TraceError as exc:
        _fail(exc)
    skipped = results[0][2]  # every job reads the same trace
    if skipped:
        click.echo(f"skipped {skipped} malformed rows", err=True)
    for kk, payload, _ in results:
        _emit(payload, out_path if len(results) == 1 else _sweep_path(out_path, kk))


def _parse_sweep(sweep: str) -> list[int]:
    text = sweep.split("=", 1)[1] if "=" in sweep else sweep
    try:
        ks = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise click.BadParameter(f"bad sweep {sweep!r}, expected e.g. 'k=2,4,8'")
    if not ks or any(kk < 1 for kk in ks):
        raise click.BadParameter("sweep shard counts must be >= 1")
    return ks


def _sweep_path(out_path: str, k: int) -> str:
    root, ext = os.path.splitext(out_path)
    return f"{root}.k{k}{ext}"


@main.command()
@click.option("--graph", "graph_path", required=True, type=click.Path(exists=True, dir_okay=False),
              help="Adjacency file in the exported text format.")
@click.option("--sidecar", type=click.Path(exists=True, dir_okay=False), default=None,
              help="Line-index -> vertex id map written alongside the export.")
@click.option("--shards", "k", type=int, callback=_positive_int, required=True)
@click.option("--epsilon", type=float, default=0.05, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", "out_path", type=click.Path(dir_okay=False), default=None)
def partition(graph_path, sidecar, k, epsilon, seed, out_path):
    """Partition an exported adjacency file offline; emits vertex,shard CSV."""
    try:
        cfg = PartitionerConfig(k=k, epsilon=epsilon, seed=seed)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    try:
        res = partition_partgraph(read_adjacency(graph_path, sidecar), cfg)
    except (OSError, ValueError) as exc:
        _fail(exc)
    lines = ["vertex,shard"] + [f"{v},{s}" for v, s in res.assignment.shard_of.items()]
    _emit("\n".join(lines) + "\n", out_path)
    if res.infeasible_balance:
        click.echo("warning: balance bound unattainable, best-effort result", err=True)


@main.command()
@click.option("--vertices", type=int, required=True)
@click.option("--communities", type=int, default=2, show_default=True)
@click.option("--inter-prob", type=float, default=0.05, show_default=True)
@click.option("--zipf", "zipf_exponent", type=float, default=1.0, show_default=True)
@click.option("--duration", type=DURATION, default="14d", show_default=True)
@click.option("--rate", "records_per_hour", type=float, default=100.0, show_default=True,
              help="Records per trace-time hour.")
@click.option("--rewire-at", type=float, default=None,
              help="Fraction of the duration at which communities rewire.")
@click.option("--rewire-frac", type=float, default=0.5, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", "out_path", required=True, type=click.Path(dir_okay=False),
              help="Trace file: JSONL for .jsonl/.ndjson, CSV otherwise; gzipped when it ends in .gz.")
@click.option("--truth-out", type=click.Path(dir_okay=False), default=None,
              help="Where to write the planted vertex,community ground truth.")
def synth(vertices, communities, inter_prob, zipf_exponent, duration, records_per_hour,
          rewire_at, rewire_frac, seed, out_path, truth_out):
    """Generate a deterministic planted-partition workload trace."""
    try:
        spec = WorkloadSpec(
            vertices=vertices,
            communities=communities,
            inter_prob=inter_prob,
            zipf_exponent=zipf_exponent,
            duration=duration,
            records_per_hour=records_per_hour,
            rewire_at=rewire_at,
            rewire_frac=rewire_frac,
        )
    except ValueError as exc:
        raise click.UsageError(str(exc))
    records, truth = generate_workload(spec, seed)
    try:
        with open_trace(out_path, "w") as fh:
            fh.write(serialize_trace(records, infer_format(out_path)))
        if truth_out:
            write_truth(truth, truth_out)
    except OSError as exc:
        _fail(exc)
    click.echo(f"wrote {len(records)} records to {out_path}")


@main.command("summarize")
@click.option("--in", "in_path", required=True, type=click.Path(exists=True, dir_okay=False))
def summarize_cmd(in_path):
    """Print min/q1/median/q3/max per metric for a replay CSV."""
    try:
        rows = read_samples_csv(in_path)
        stats, total_moves = summarize(rows)
    except (OSError, ValueError) as exc:
        _fail(exc)
    click.echo(format_summary(stats, total_moves), nl=False)


if __name__ == "__main__":
    main()
