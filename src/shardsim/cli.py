"""Command-line entry point.

Subcommands: ``replay`` (run a trace through a strategy), ``partition``
(offline partitioning of an exported adjacency file), ``synth`` (generate a
synthetic workload), ``summarize`` (quartile table of a replay output).
Set ``SHARDSIM_LOG=DEBUG`` (or INFO, ...) for diagnostics.
"""

from __future__ import annotations

import functools
import logging
import os
import re
import sys
import zlib
from typing import Callable, NoReturn

import click

from shardsim.partition import PartitionerConfig, partition_partgraph, read_adjacency
from shardsim.replay import ReplayConfig, Strategy, run_replay
from shardsim.report import format_summary, read_samples_csv, samples_to_csv, samples_to_json, summarize
from shardsim.synth import WorkloadSpec, generate_workload
from shardsim.trace import (ParseStats, TraceError, _csv_field, decimal, gc_paused, infer_format, open_trace,
                            read_trace, real, serialize_trace)

_DURATION_RE = re.compile("([0-9]+)([smhdw]?)")
_DURATION_UNITS = {"s": 1, "m": 60, "h": 3600, "d": 86400, "w": 7 * 86400}
_UNREADABLE = (OSError, EOFError, UnicodeDecodeError, zlib.error)  # cannot open, decompress or decode


def parse_duration(text: str) -> int:
    """Trace-time duration: digits 0-9 alone (seconds) or followed by an s/m/h/d/w unit."""
    m = _DURATION_RE.fullmatch(text.lower())
    if not m:
        raise ValueError(f"bad duration {text!r} (examples: 4h, 14d, 900s)")
    return int(m.group(1)) * _DURATION_UNITS[m.group(2) or "s"]


def _format_duration(seconds: int) -> str:
    """``seconds`` in the largest of d, h, m and s that divides it: 14400 -> 4h."""
    unit = next(u for u in "dhms" if seconds % _DURATION_UNITS[u] == 0)
    return f"{seconds // _DURATION_UNITS[unit]}{unit}"


class Reader(click.ParamType):
    """An option type that reads its text with ``read``; a ValueError is a usage error."""

    def __init__(self, name: str, read: Callable[[str], object]):
        self.name, self.read = name, read

    def convert(self, value, param, ctx):
        try:
            return self.read(value)
        except ValueError as exc:
            self.fail(str(exc), param, ctx)


DURATION = Reader("duration", parse_duration)
INTEGER = Reader("integer", functools.partial(decimal, name="value"))
REAL = Reader("number", functools.partial(real, name="value"))


def _fail(exc: Exception | str) -> NoReturn:
    """Print ``error: ...`` on stderr and exit 1."""
    click.echo(f"error: {exc}", err=True)
    sys.exit(1)


def _emit(payload: str, path: str | None) -> None:
    """Write ``payload`` to ``path`` by ``open_trace``'s rule, or to stdout when it is None."""
    if path is None:
        click.echo(payload, nl=False)
        return
    try:
        with open_trace(path, "w") as fh:
            fh.write(payload)
    except OSError as exc:
        _fail(exc)


@click.group()
def main() -> None:
    """Replay blockchain transaction traces against sharding strategies."""
    level = logging.getLevelName(os.environ.get("SHARDSIM_LOG", "WARNING").upper())
    logging.basicConfig(level=level if isinstance(level, int) else logging.WARNING)  # not a level name: warning


@main.command()
@click.option("--trace", "trace_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--format", "fmt", type=click.Choice(["csv", "jsonl"]), default=None,
              help="Trace format; inferred from the extension by default.")
@click.option("--shards", "k", type=INTEGER, default=None, help="Shard count.")
@click.option("--strategy", type=click.Choice([s.value for s in Strategy]), default="hashing")
@click.option("--metric-window", type=DURATION, default=_format_duration(ReplayConfig.metric_window), show_default=True)
@click.option("--repartition-interval", type=DURATION, default=_format_duration(ReplayConfig.repartition_interval),
              show_default=True)
@click.option("--cut-threshold", type=REAL, default=ReplayConfig.cut_threshold, show_default=True)
@click.option("--balance-threshold", type=REAL, default=ReplayConfig.balance_threshold, show_default=True)
@click.option("--epsilon", type=REAL, default=ReplayConfig.epsilon, show_default=True)
@click.option("--seed", type=INTEGER, default=ReplayConfig.seed, show_default=True)
@click.option("--kl-rounds", type=INTEGER, default=ReplayConfig.kl_rounds, show_default=True)
@click.option("--weights", type=click.Choice(["window", "cumulative"]),
              default="cumulative" if ReplayConfig.cumulative_weights else "window",
              help="Activity weights for dynamic metrics.")
@click.option("--lenient", is_flag=True, help="Skip malformed rows instead of aborting.")
@click.option("--out", "out_path", type=click.Path(dir_okay=False), default=None,
              help="Output file (stdout when omitted).")
@click.option("--out-format", type=click.Choice(["csv", "json"]), default="csv", show_default=True)
@click.option("--sweep", default=None, help="Comma-separated shard counts, e.g. 'k=2,4,8'; "
              "parses the trace once and replays it per k, one output per k.")
def replay(trace_path, fmt, k, weights, lenient, out_path, out_format, sweep, **settings):
    """Replay a trace and emit per-window metric samples."""
    if sweep is None and k is None:
        raise click.UsageError("either --shards or --sweep is required")
    if sweep is not None and k is not None:
        raise click.UsageError("--shards and --sweep cannot be used together")
    ks = [k] if sweep is None else _parse_sweep(sweep)
    if sweep is not None and out_path is None:
        raise click.UsageError("--sweep requires --out")

    try:  # ``settings`` are the options named after the ReplayConfig field they set
        cfgs = [ReplayConfig(k=kk, cumulative_weights=weights == "cumulative", **settings) for kk in ks]
    except ValueError as exc:
        raise click.UsageError(str(exc))
    to_text = samples_to_json if out_format == "json" else samples_to_csv
    stats = ParseStats()
    try:
        records = read_trace(trace_path, fmt, strict=not lenient, stats=stats)
        if len(cfgs) > 1:  # every k replays the one parse; a single replay streams
            with gc_paused():
                records = list(records)
        payloads = [to_text(run_replay(records, cfg).samples, cfg.k) for cfg in cfgs]
    except TraceError as exc:
        _fail(exc)
    except _UNREADABLE as exc:
        _fail(f"cannot read {trace_path}: {exc}")
    if stats.skipped:
        click.echo(f"skipped {stats.skipped} malformed rows", err=True)
    for cfg, payload in zip(cfgs, payloads):
        _emit(payload, out_path if sweep is None else _sweep_path(out_path, cfg.k))


def _parse_sweep(sweep: str) -> list[int]:
    name, equals, text = sweep.rpartition("=")  # "k=2,4" or "2,4"
    try:
        ks = [decimal(part, "shard count") for part in text.split(",")]
    except ValueError:
        ks = []
    if not ks or equals and name != "k":
        raise click.BadParameter(f"bad sweep {sweep!r}, expected e.g. 'k=2,4,8'")
    if len(set(ks)) < len(ks):
        raise click.BadParameter(f"bad sweep {sweep!r}, a shard count is repeated")
    return ks


def _sweep_path(out_path: str, k: int) -> str:
    root, ext = os.path.splitext(out_path)
    return f"{root}.k{k}{ext}"


@main.command()
@click.option("--graph", "graph_path", required=True, type=click.Path(exists=True, dir_okay=False),
              help="Adjacency file in the exported text format.")
@click.option("--sidecar", type=click.Path(exists=True, dir_okay=False), default=None,
              help="Line-index -> vertex id map written alongside the export.")
@click.option("--shards", "k", type=INTEGER, required=True)
@click.option("--epsilon", type=REAL, default=PartitionerConfig.epsilon, show_default=True)
@click.option("--seed", type=INTEGER, default=PartitionerConfig.seed, show_default=True)
@click.option("--out", "out_path", type=click.Path(dir_okay=False), default=None)
def partition(graph_path, sidecar, k, epsilon, seed, out_path):
    """Partition an exported adjacency file offline; emits vertex,shard CSV."""
    try:
        cfg = PartitionerConfig(k=k, epsilon=epsilon, seed=seed)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    try:
        pg = read_adjacency(graph_path, sidecar)
        res = partition_partgraph(pg, cfg)
    except (ValueError, *_UNREADABLE) as exc:
        _fail(exc)
    lines = ["vertex,shard"] + [f"{_csv_field(str(v))},{s}" for v, s in zip(pg.names, res.assignment.shard_of)]
    _emit("\n".join(lines) + "\n", out_path)
    if res.infeasible_balance:
        verdict = "unattainable" if res.max_vertex_weight > res.balance_cap else "not met"
        click.echo(
            f"warning: balance cap {res.balance_cap:g} {verdict} (heaviest vertex weighs "
            f"{res.max_vertex_weight}), best-effort result",
            err=True,
        )


@main.command()
@click.option("--vertices", type=INTEGER, required=True)
@click.option("--communities", type=INTEGER, default=WorkloadSpec.communities, show_default=True)
@click.option("--inter-prob", type=REAL, default=WorkloadSpec.inter_prob, show_default=True)
@click.option("--zipf", "zipf_exponent", type=REAL, default=WorkloadSpec.zipf_exponent, show_default=True)
@click.option("--duration", type=DURATION, default=_format_duration(WorkloadSpec.duration), show_default=True)
@click.option("--rate", "records_per_hour", type=REAL, default=WorkloadSpec.records_per_hour, show_default=True,
              help="Records per trace-time hour.")
@click.option("--rewire-at", type=REAL, default=WorkloadSpec.rewire_at,
              help="Fraction of the duration at which communities rewire.")
@click.option("--rewire-frac", type=REAL, default=WorkloadSpec.rewire_frac, show_default=True)
@click.option("--seed", type=INTEGER, default=0, show_default=True)
@click.option("--out", "out_path", required=True, type=click.Path(dir_okay=False),
              help="Trace file: JSONL for .jsonl/.ndjson, CSV otherwise; gzipped when it ends in .gz.")
@click.option("--truth-out", type=click.Path(dir_okay=False), default=None,
              help="Where to write the planted vertex,community ground truth.")
def synth(seed, out_path, truth_out, **settings):
    """Generate a deterministic planted-partition workload trace."""
    try:  # ``settings`` are the options named after the WorkloadSpec field they set
        spec = WorkloadSpec(**settings)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    records, truth = generate_workload(spec, seed)
    _emit(serialize_trace(records, infer_format(out_path)), out_path)
    if truth_out:
        _emit("vertex,community\n" + "".join(f"{vertex},{comm}\n" for vertex, comm in truth.items()), truth_out)
    click.echo(f"wrote {len(records)} records to {out_path}")


@main.command("summarize")
@click.option("--in", "in_path", required=True, type=click.Path(exists=True, dir_okay=False))
def summarize_cmd(in_path):
    """Print min/q1/median/q3/max per metric for a replay CSV."""
    try:
        rows = read_samples_csv(in_path)
        stats, total_moves = summarize(rows)
    except (ValueError, *_UNREADABLE) as exc:
        _fail(exc)
    click.echo(format_summary(stats, total_moves), nl=False)


if __name__ == "__main__":
    main()
