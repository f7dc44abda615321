import random

import pytest
from hypothesis import settings

from shardsim import replay
from shardsim.graph import InteractionGraph
from shardsim.trace import CallKind, TraceRecord, VertexKind

# the same examples on every run and none saved from earlier runs, for
# tests/mutants.py: pytest --hypothesis-profile=mutants
settings.register_profile("mutants", derandomize=True, database=None)


def vid(i: int) -> str:
    return f"{i:040x}"


def make_record(src: int, dst: int, timestamp: int = 0, block: int = 0, tx_id: str = "tx0") -> TraceRecord:
    return TraceRecord(
        timestamp=timestamp,
        block=block,
        src=vid(src),
        src_kind=VertexKind.ACCOUNT,
        dst=vid(dst),
        dst_kind=VertexKind.ACCOUNT,
        call_kind=CallKind.TRANSFER,
        tx_id=tx_id,
    )


def graph_from_pairs(pairs) -> InteractionGraph:
    g = InteractionGraph()
    for src, dst in pairs:
        g.record(vid(src), vid(dst))
    return g


def id_graph(pairs) -> InteractionGraph:
    """Graph of (src, dst) pairs keyed by the ints themselves, the replay's key form."""
    g = InteractionGraph()
    for src, dst in pairs:
        g.record(src, dst)
    return g


def random_graph(rng: random.Random, n: int, p: float, max_weight: int = 1):
    """Random undirected multigraph as (src, dst) pairs, repeated per weight."""
    pairs = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                for _ in range(rng.randint(1, max_weight)):
                    pairs.append((u, v))
    return pairs


def refinement_cuts_of_replay(records, cfg):
    """Replay and return the (cut_before, cut_after) pairs of every refinement
    pass of the multilevel partitions it ran."""
    pass_cuts = []
    real_multilevel = replay.multilevel_partition

    def multilevel_spy(*args, **kwargs):
        res = real_multilevel(*args, **kwargs)
        pass_cuts.extend(res.refinement_cuts)
        return res

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(replay, "multilevel_partition", multilevel_spy)
        replay.run_replay(records, cfg)
    return pass_cuts


@pytest.fixture
def rng():
    return random.Random(12345)
