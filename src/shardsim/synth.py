"""Deterministic synthetic workload generation.

Generates planted-partition traces: vertices belong to communities, records
pick a Zipf-skewed source and a destination inside the source's community
with probability 1 - inter_prob (otherwise a uniform other community). An
optional mid-trace rewiring moves a fraction of vertices to the next
community, shifting the interaction structure.
"""

from __future__ import annotations

import gc
import itertools
import math
import random
from bisect import bisect_right
from dataclasses import dataclass

from shardsim.trace import CallKind, TraceRecord, VertexKind


@dataclass
class WorkloadSpec:
    vertices: int
    communities: int = 2
    inter_prob: float = 0.05
    zipf_exponent: float = 1.0
    duration: int = 14 * 86400  # trace-time seconds
    records_per_hour: float = 100.0
    start_time: int = 1_500_000_000
    block_interval: int = 15
    rewire_at: float | None = None  # fraction of duration, in (0, 1)
    rewire_frac: float = 0.5  # fraction of vertices that switch community

    def __post_init__(self) -> None:
        if self.vertices < 2:
            raise ValueError("need at least 2 vertices")
        if not 1 <= self.communities <= self.vertices:
            raise ValueError("communities must be in [1, vertices]")
        if not 0.0 <= self.inter_prob <= 1.0:
            raise ValueError("inter_prob must be in [0, 1]")
        if not self.zipf_exponent >= 0:  # written so that NaN fails too
            raise ValueError("zipf_exponent must be >= 0")
        if self.duration <= 0 or not 0 < self.records_per_hour < math.inf:
            raise ValueError("duration must be positive and records_per_hour positive and finite")
        if self.rewire_at is not None and not 0.0 < self.rewire_at < 1.0:
            raise ValueError("rewire_at must be in (0, 1)")
        if not 0.0 <= self.rewire_frac <= 1.0:
            raise ValueError("rewire_frac must be in [0, 1]")
        if self.block_interval < 1:
            raise ValueError("block_interval must be >= 1")
        if self.start_time < 0:
            raise ValueError("start_time must be >= 0")

    @property
    def num_records(self) -> int:
        return max(1, int(self.duration / 3600 * self.records_per_hour))


def vertex_id(i: int) -> str:
    """Deterministic 40-hex-digit synthetic address for vertex index i."""
    return f"{i:040x}"


def generate_workload(spec: WorkloadSpec, seed: int = 0) -> tuple[list[TraceRecord], dict[str, int]]:
    """Build the trace and the planted community of each vertex.

    The returned ground truth is the initial membership (before any rewiring).
    Deterministic for a fixed (spec, seed). Each vertex's address is one
    string, shared by every record that names it and by the ground truth.
    """
    # Each record is a GC-tracked object in no cycle, and every older-generation
    # collection would rescan the growing list: pause the cyclic collector.
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        return _generate(spec, seed)
    finally:
        if was_enabled:
            gc.enable()


def _generate(spec: WorkloadSpec, seed: int) -> tuple[list[TraceRecord], dict[str, int]]:
    rng = random.Random(seed)
    random_, choice = rng.random, rng.choice
    n, c = spec.vertices, spec.communities
    # contiguous rank blocks: community 0 holds the globally hottest vertices
    per = n // c
    membership = [min(i // per, c - 1) if per else c - 1 for i in range(n)]
    names = [vertex_id(i) for i in range(n)]
    truth = dict(zip(names, membership))

    # Zipf sampling: P(rank r) is proportional to 1/(r+1)^s. The cumulative
    # weights of ranks 0..m-1 are the first m entries of ``cum``, so one list
    # serves the global sampler (ranks = vertex indices) and every community
    # (ranks = positions in its ascending member list).
    cum = list(itertools.accumulate(1.0 / (r + 1) ** spec.zipf_exponent for r in range(n)))
    top = cum[-1]

    def community_tables(member: list[int]) -> tuple[list, list[list[int]]]:
        """Per community: (members, their count, their total weight), or None
        when empty; and the other non-empty communities of each community."""
        groups: list[list[int]] = [[] for _ in range(c)]
        for i in range(n):
            groups[member[i]].append(i)
        tables = [(g, len(g), cum[len(g) - 1]) if g else None for g in groups]
        others = [[j for j in range(c) if j != comm and groups[j]] for comm in range(c)]
        return tables, others

    tables, others_of = community_tables(membership)
    rewire_time = math.inf
    if spec.rewire_at is not None and c > 1:
        rewire_time = spec.start_time + int(spec.rewire_at * spec.duration)

    total = spec.num_records
    duration, start_time, block_interval = spec.duration, spec.start_time, spec.block_interval
    inter_prob = spec.inter_prob
    account, transfer = VertexKind.ACCOUNT, CallKind.TRANSFER
    records: list[TraceRecord] = []
    append = records.append
    for idx in range(total):
        elapsed = idx * duration // total
        timestamp = start_time + elapsed
        if timestamp >= rewire_time:
            for i in rng.sample(range(n), int(spec.rewire_frac * n)):
                membership[i] = (membership[i] + 1) % c
            tables, others_of = community_tables(membership)
            rewire_time = math.inf
        src = bisect_right(cum, random_() * top)
        comm = membership[src]
        if c > 1 and random_() < inter_prob:
            others = others_of[comm]
            comm = choice(others) if others else comm
        members, size, weight = tables[comm]
        dst = members[bisect_right(cum, random_() * weight, 0, size)]
        if dst == src:  # one resample to keep self-loops rare but possible
            dst = members[bisect_right(cum, random_() * weight, 0, size)]
        append(
            TraceRecord(
                timestamp, elapsed // block_interval, names[src], account, names[dst], account, transfer, f"tx{idx}"
            )
        )
    return records, truth


def write_truth(truth: dict[str, int], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("vertex,community\n")
        for vertex, comm in truth.items():
            fh.write(f"{vertex},{comm}\n")
