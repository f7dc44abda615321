"""Replay one trace file in a process of its own and report what it measured.

Usage: python3 replay_once.py JOB_JSON

JOB_JSON names the shardsim source directory, the trace, the replay settings,
whether to trace, and where to write the samples CSV, the result and (when
traced) the spans. The replay follows the library path the CLI uses:
``read_trace`` -> ``run_replay`` -> ``samples_to_csv`` -> file. Running it in
a fresh process makes ``peak_rss_mb`` the memory of the replay alone.

The replay runs under a ``hostspeed.Probe``: ``replay_s`` is its time at the
reference host speed and ``wall_s`` its wall time, probes taken out. The
layer times of a traced replay are scaled the same way.
"""

from __future__ import annotations

import json
import statistics
import sys

import hostspeed


def peak_rss_mb() -> float:
    """Peak resident memory of this process since it started its program.

    ``VmHWM`` is used, not ``ru_maxrss``: the latter carries the parent's peak
    over into a child that the parent started with ``vfork``.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024  # kB
    raise RuntimeError("VmHWM missing from /proc/self/status")


def main(job: dict) -> dict:
    sys.path.insert(0, job["src"])
    from shardsim import ReplayConfig, read_trace, replay, report

    cfg = ReplayConfig(**job["replay"])
    run_replay, samples_to_csv = replay.run_replay, report.samples_to_csv
    tracer = None
    if job["traced"]:
        import layers

        tracer = layers.Tracer()
        layers.instrument(tracer)
        run_replay = tracer.span(run_replay, "replay.run_replay")
        samples_to_csv = tracer.span(samples_to_csv, "report.samples_to_csv")

    with hostspeed.Probe() as probe:
        records = read_trace(job["trace"])
        if tracer is not None:
            records = layers.TimedIterator(records, tracer)
        result = run_replay(records, cfg)
        payload = samples_to_csv(result.samples, cfg.k)
        with open(job["csv"], "w", encoding="utf-8", newline="") as fh:
            fh.write(payload)

    out = {
        "replay_s": probe.seconds,
        "wall_s": probe.busy_s,
        "peak_rss_mb": peak_rss_mb(),
        "windows": len(result.samples),
        "total_moves": result.total_moves,
        "sample_moves": sum(s.moves for s in result.samples),
        "median_dynamic_cut": statistics.median(s.dynamic_edge_cut for s in result.samples),
        "median_dynamic_balance": statistics.median(s.dynamic_balance for s in result.samples),
        "final_assignment": result.final_assignment.shard_of,
    }
    if tracer is not None:
        # The probes fire evenly over the replay, so they take the same share
        # of every span: one factor takes them out of each layer time and
        # scales it to the reference host speed.
        out.update(layers.layer_metrics(tracer, result, probe.seconds / probe.wall_s))
        with open(job["spans"], "w", encoding="utf-8") as fh:
            json.dump(tracer.dump(), fh)
    return out


if __name__ == "__main__":
    job = json.loads(sys.argv[1])
    result = main(job)
    with open(job["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
