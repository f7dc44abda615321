import gzip
import json

import pytest
from click.testing import CliRunner

from shardsim.cli import main, parse_duration
from shardsim.graph import InteractionGraph
from shardsim.partition import write_adjacency
from shardsim.report import read_samples_csv
from shardsim.synth import WorkloadSpec, generate_workload
from shardsim.trace import VertexKind, read_trace, serialize_trace

from conftest import vid


def run(*args):
    return CliRunner().invoke(main, list(args))


def make_trace_file(tmp_path, name="t.csv", **kw):
    spec = WorkloadSpec(vertices=40, communities=2, duration=2 * 86400, records_per_hour=30, **kw)
    records, _ = generate_workload(spec, seed=1)
    path = tmp_path / name
    text = serialize_trace(records, "jsonl" if ".jsonl" in name else "csv")
    if name.endswith(".gz"):
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(text)
    else:
        path.write_text(text)
    return path


def test_parse_duration_forms():
    assert parse_duration("4h") == 4 * 3600
    assert parse_duration("14d") == 14 * 86400
    assert parse_duration("900") == 900
    assert parse_duration("2w") == 14 * 86400


def test_replay_writes_csv(tmp_path):
    trace = make_trace_file(tmp_path)
    out = tmp_path / "s.csv"
    res = run("replay", "--trace", str(trace), "--shards", "2", "--strategy", "metis-full", "--out", str(out))
    assert res.exit_code == 0, res.output
    rows = read_samples_csv(str(out))
    assert rows and all(0.0 <= r["static_edge_cut"] <= 1.0 for r in rows)


def test_replay_zero_shards_usage_error(tmp_path):
    trace = make_trace_file(tmp_path)
    res = run("replay", "--trace", str(trace), "--shards", "0", "--out", str(tmp_path / "o.csv"))
    assert res.exit_code == 2


def test_replay_missing_shards_usage_error(tmp_path):
    trace = make_trace_file(tmp_path)
    res = run("replay", "--trace", str(trace))
    assert res.exit_code == 2


def test_replay_gzip_jsonl_inferred(tmp_path):
    trace = make_trace_file(tmp_path, "t.jsonl.gz")
    res = run("replay", "--trace", str(trace), "--shards", "2")
    assert res.exit_code == 0, res.output
    assert res.output.startswith("window_start,")


def test_replay_json_output(tmp_path):
    trace = make_trace_file(tmp_path)
    out = tmp_path / "s.json"
    res = run("replay", "--trace", str(trace), "--shards", "2", "--out", str(out), "--out-format", "json")
    assert res.exit_code == 0
    assert out.read_text().lstrip().startswith("[")


def test_replay_malformed_strict_vs_lenient(tmp_path):
    trace = make_trace_file(tmp_path)
    lines = trace.read_text().splitlines()
    lines.insert(2, "not,a,valid,row")
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines) + "\n")
    res = run("replay", "--trace", str(bad), "--shards", "2")
    assert res.exit_code == 1
    res = run("replay", "--trace", str(bad), "--shards", "2", "--lenient")
    assert res.exit_code == 0
    assert res.stdout.startswith("window_start,")
    assert res.stderr.splitlines()[-1] == "skipped 1 malformed rows"
    res = run("replay", "--trace", str(trace), "--shards", "2", "--lenient")
    assert res.exit_code == 0 and "skipped" not in res.stderr


def test_replay_empty_tx_id_strict_vs_lenient(tmp_path):
    trace = make_trace_file(tmp_path)
    lines = trace.read_text().splitlines()
    lines[3] = lines[3].rsplit(",", 1)[0] + ","
    bad = tmp_path / "empty_tx.csv"
    bad.write_text("\n".join(lines) + "\n")
    res = run("replay", "--trace", str(bad), "--shards", "2")
    assert res.exit_code == 1
    assert res.stderr.strip() == "error: line 4: tx_id is empty"
    res = run("replay", "--trace", str(bad), "--shards", "2", "--lenient")
    assert res.exit_code == 0
    assert res.stderr.splitlines()[-1] == "skipped 1 malformed rows"


def test_replay_backwards_timestamp_strict_vs_lenient(tmp_path):
    trace = make_trace_file(tmp_path)
    lines = trace.read_text().splitlines()
    first = lines[1].split(",")
    row = lines[5].split(",")
    row[0] = str(int(first[0]) - 1)  # before every earlier row; the block stays in order
    lines[5] = ",".join(row)
    bad = tmp_path / "backwards.csv"
    bad.write_text("\n".join(lines) + "\n")
    res = run("replay", "--trace", str(bad), "--shards", "2")
    assert res.exit_code == 1
    assert res.stderr.strip() == f"error: line 6: timestamp {row[0]} after timestamp {lines[4].split(',')[0]}"
    res = run("replay", "--trace", str(bad), "--shards", "2", "--lenient")
    assert res.exit_code == 0
    assert res.stderr.splitlines()[-1] == "skipped 1 malformed rows"


@pytest.mark.parametrize(
    "field, value",
    [("timestamp", None), ("timestamp", [1]), ("timestamp", 1.7), ("block", True), ("tx_id", None), ("tx_id", "")],
)
def test_replay_jsonl_field_types_strict_vs_lenient(tmp_path, field, value):
    trace = make_trace_file(tmp_path, "t.jsonl")
    lines = trace.read_text().splitlines()
    row = json.loads(lines[0])  # the first row, so no later row is out of order
    row[field] = value
    lines[0] = json.dumps(row)
    bad = tmp_path / "bad.jsonl"
    bad.write_text("\n".join(lines) + "\n")
    res = run("replay", "--trace", str(bad), "--shards", "2")
    assert res.exit_code == 1
    assert res.stderr.startswith("error: line 1: ")
    res = run("replay", "--trace", str(bad), "--shards", "2", "--lenient")
    assert res.exit_code == 0
    assert res.stdout.startswith("window_start,")
    assert res.stderr.splitlines()[-1] == "skipped 1 malformed rows"


def test_sweep_runs_multiple_k(tmp_path):
    trace = make_trace_file(tmp_path)
    out = tmp_path / "s.csv"
    res = run("replay", "--trace", str(trace), "--sweep", "k=2,4", "--out", str(out))
    assert res.exit_code == 0, res.output
    assert (tmp_path / "s.k2.csv").exists()
    assert (tmp_path / "s.k4.csv").exists()


def test_synth_then_summarize(tmp_path):
    trace = tmp_path / "w.csv"
    truth = tmp_path / "truth.csv"
    res = run("synth", "--vertices", "40", "--communities", "2", "--duration", "2d",
              "--rate", "30", "--out", str(trace), "--truth-out", str(truth))
    assert res.exit_code == 0, res.output
    assert truth.read_text().startswith("vertex,community")
    out = tmp_path / "s.csv"
    res = run("replay", "--trace", str(trace), "--shards", "2", "--out", str(out))
    assert res.exit_code == 0
    res = run("summarize", "--in", str(out))
    assert res.exit_code == 0
    assert "dynamic_edge_cut" in res.output and "total_moves:" in res.output


@pytest.mark.parametrize("args", [["--vertices", "1"], ["--rewire-frac", "2"], ["--rewire-frac", "-0.5"]])
def test_synth_invalid_spec_usage_error(tmp_path, args):
    res = run("synth", "--vertices", "40", *args, "--out", str(tmp_path / "w.csv"))
    assert res.exit_code == 2
    assert isinstance(res.exception, SystemExit)  # a message, not a traceback
    assert not (tmp_path / "w.csv").exists()


@pytest.mark.parametrize("missing", ["--out", "--truth-out"])
def test_synth_unwritable_output_is_an_error(tmp_path, missing):
    paths = {"--out": tmp_path / "w.csv", "--truth-out": tmp_path / "truth.csv"}
    paths[missing] = tmp_path / "no-such-dir" / "x.csv"
    res = run("synth", "--vertices", "40", "--duration", "1d", "--rate", "10",
              "--out", str(paths["--out"]), "--truth-out", str(paths["--truth-out"]))
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit)  # a message, not a traceback
    assert res.stderr.startswith("error: ") and "no-such-dir" in res.stderr


def test_synth_gzip_output_replays(tmp_path):
    outputs = {}
    for name in ("w.csv", "w.csv.gz", "w.jsonl.gz"):
        trace = tmp_path / name
        res = run("synth", "--vertices", "40", "--duration", "2d", "--rate", "30", "--out", str(trace))
        assert res.exit_code == 0, res.output
        if name.endswith(".gz"):
            with gzip.open(trace, "rb") as fh:
                fh.read()  # raises unless the file is gzip
        res = run("replay", "--trace", str(trace), "--shards", "2")
        assert res.exit_code == 0, res.output
        outputs[name] = res.stdout
    assert outputs["w.csv.gz"] == outputs["w.jsonl.gz"] == outputs["w.csv"]


def test_replay_oversize_field_strict_vs_lenient(tmp_path):
    trace = make_trace_file(tmp_path)
    lines = trace.read_text().splitlines()
    lines[3] = lines[3].rsplit(",", 1)[0] + "," + "x" * 200_000
    bad = tmp_path / "oversize.csv"
    bad.write_text("\n".join(lines) + "\n")
    res = run("replay", "--trace", str(bad), "--shards", "2")
    assert res.exit_code == 1
    assert res.stderr.strip() == "error: line 4: field larger than field limit (131072)"
    res = run("replay", "--trace", str(bad), "--shards", "2", "--lenient")
    assert res.exit_code == 0
    assert res.stdout.startswith("window_start,")
    assert res.stderr.splitlines()[-1] == "skipped 1 malformed rows"


def test_replay_invalid_config_usage_error(tmp_path):
    trace = make_trace_file(tmp_path)
    for extra in (
        ["--metric-window", "2d", "--repartition-interval", "1d"],
        ["--epsilon", "-1"],
        ["--kl-rounds", "0"],
        ["--kl-rounds", "-3"],
    ):
        res = run("replay", "--trace", str(trace), "--sweep", "k=2,3", "--out", str(tmp_path / "o.csv"), *extra)
        assert res.exit_code == 2, res.output
        assert not list(tmp_path.glob("o*.csv"))


def test_partition_rejects_out_of_range_neighbour(tmp_path):
    gpath = tmp_path / "g.graph"
    gpath.write_text("2 1 011\n1 3 1\n1 1 1\n")
    res = run("partition", "--graph", str(gpath), "--shards", "2")
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit)  # a message, not a traceback
    assert "error: vertex 1: neighbour 3 is not another vertex in 1..2" in res.output


@pytest.mark.parametrize(
    "text, message",
    [
        ("3 1 011\n1 2 1\n1 1 1\n", "error: header says 3 vertices, the file ends after 2 vertex lines"),
        ("2 1 011\n1 2 1\n1 1 1\n1\n", "error: a non-blank line follows the 2 vertex lines the header gives"),
    ],
    ids=["too-few-lines", "line-after-last"],
)
def test_partition_rejects_wrong_vertex_line_count(tmp_path, text, message):
    gpath = tmp_path / "g.graph"
    gpath.write_text(text)
    res = run("partition", "--graph", str(gpath), "--shards", "2")
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit)
    assert res.stderr.strip() == message


@pytest.mark.parametrize(
    "text, sidecar, message",
    [
        ("0 0 011\n", None, "error: cannot partition an empty graph"),
        ("-1 0 011\n", None, "error: header says -1 vertices, a negative count"),
        ("2 1 011\n1 2 1\n1 1 1\n", "a\na\n", "error: sidecar names vertex 'a' more than once"),
    ],
    ids=["empty-graph", "negative-vertex-count", "repeated-sidecar-name"],
)
def test_partition_rejects_graph_it_cannot_partition(tmp_path, text, sidecar, message):
    gpath, spath = tmp_path / "g.graph", tmp_path / "g.map"
    gpath.write_text(text)
    args = ["partition", "--graph", str(gpath), "--shards", "2"]
    if sidecar is not None:
        spath.write_text(sidecar)
        args += ["--sidecar", str(spath)]
    res = run(*args)
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit)  # a message, not a traceback
    assert res.stderr.strip() == message
    assert res.stdout == ""


def test_partition_negative_epsilon_usage_error(tmp_path):
    gpath = tmp_path / "g.graph"
    gpath.write_text("2 1 011\n1 2 1\n1 1 1\n")
    res = run("partition", "--graph", str(gpath), "--shards", "2", "--epsilon", "-1")
    assert res.exit_code == 2
    assert isinstance(res.exception, SystemExit)
    assert "epsilon must be >= 0" in res.stderr


def test_partition_unwritable_output_is_an_error(tmp_path):
    gpath = tmp_path / "g.graph"
    gpath.write_text("2 1 011\n1 2 1\n1 1 1\n")
    res = run("partition", "--graph", str(gpath), "--shards", "2", "--out", str(tmp_path / "no-such-dir" / "x.csv"))
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit)
    assert res.stderr.startswith("error: ") and "no-such-dir" in res.stderr


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda lines: [lines[0].replace(",dynamic_edge_cut", "")] + lines[1:],
         "error: missing columns: dynamic_edge_cut"),
        (lambda lines: lines[:2] + [lines[2].rsplit(",", 1)[0]] + lines[3:],
         "error: line 3: expected 8 fields, got 7"),
    ],
    ids=["missing-column", "short-row"],
)
def test_summarize_rejects_bad_samples_file(tmp_path, edit, message):
    trace = make_trace_file(tmp_path)
    out = tmp_path / "s.csv"
    assert run("replay", "--trace", str(trace), "--shards", "2", "--out", str(out)).exit_code == 0
    out.write_text("\n".join(edit(out.read_text().splitlines())) + "\n")
    res = run("summarize", "--in", str(out))
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit)  # a message, not a traceback
    assert res.stderr.strip() == message


def test_seed_reaches_hashing_and_partitioner(tmp_path):
    trace = make_trace_file(tmp_path)
    g = InteractionGraph()
    for r in read_trace(str(trace)):
        g.record(r.src, r.dst)
    gpath, spath = tmp_path / "g.graph", tmp_path / "g.map"
    write_adjacency(g, str(gpath), str(spath))
    hashed, parted = [], []
    for seed in ("1", "2"):
        res = run("replay", "--trace", str(trace), "--shards", "4", "--seed", seed)
        assert res.exit_code == 0, res.output
        hashed.append(res.stdout)
        res = run("partition", "--graph", str(gpath), "--sidecar", str(spath), "--shards", "4", "--seed", seed)
        assert res.exit_code == 0, res.output
        parted.append(res.stdout)
    assert hashed[0] != hashed[1]
    assert parted[0] != parted[1]


def test_partition_subcommand(tmp_path):
    g = InteractionGraph()
    for base in (0, 5):
        for i in range(5):
            for j in range(i + 1, 5):
                g.record(vid(base + i), vid(base + j))
    gpath, spath = tmp_path / "g.graph", tmp_path / "g.map"
    write_adjacency(g, str(gpath), str(spath))
    out = tmp_path / "parts.csv"
    res = run("partition", "--graph", str(gpath), "--sidecar", str(spath), "--shards", "2", "--out", str(out))
    assert res.exit_code == 0, res.output
    lines = out.read_text().splitlines()
    assert lines[0] == "vertex,shard"
    shards = {line.split(",")[0]: line.split(",")[1] for line in lines[1:]}
    first_clique = {shards[vid(i)] for i in range(5)}
    second_clique = {shards[vid(i)] for i in range(5, 10)}
    assert len(first_clique) == 1 and len(second_clique) == 1 and first_clique != second_clique


def test_replay_byte_identical_across_runs(tmp_path):
    trace = make_trace_file(tmp_path)
    outs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        res = run("replay", "--trace", str(trace), "--shards", "3", "--strategy", "metis-window",
                  "--repartition-interval", "1d", "--seed", "42", "--out", str(out))
        assert res.exit_code == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
