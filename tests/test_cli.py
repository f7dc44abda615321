import csv
import gzip
import inspect
import io
import json
import os
import subprocess
import sys
import time

import pytest
from click.testing import CliRunner

import shardsim
from shardsim import trace as trace_module
from shardsim.cli import main, parse_duration
from shardsim.graph import InteractionGraph
from shardsim.partition import PartitionerConfig, multilevel_partition, write_adjacency
from shardsim.replay import ReplayConfig
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
    assert parse_duration("007H") == 7 * 3600
    # the count is a plain decimal integer, and nothing surrounds the duration
    for bad in ("4h\n", " 4h", "4 h", "+4h", "1_0s", "\u0661\u0662h", "-4h", "h", ""):
        with pytest.raises(ValueError, match="^bad duration "):
            parse_duration(bad)


def option_defaults(command, *required):
    """The values ``command`` receives for every option not on its command line."""
    return main.commands[command].make_context(command, list(required)).params


def test_option_defaults_are_the_config_defaults(tmp_path):
    # each option that feeds a config field takes its default from that field
    replay = option_defaults("replay", "--trace", __file__)
    for name in ("metric_window", "repartition_interval", "cut_threshold", "balance_threshold",
                 "epsilon", "seed", "kl_rounds"):
        assert replay[name] == getattr(ReplayConfig, name), name
    assert (replay["weights"] == "cumulative") is ReplayConfig.cumulative_weights
    partition = option_defaults("partition", "--graph", __file__, "--shards", "2")
    for name in ("epsilon", "seed"):
        assert partition[name] == getattr(PartitionerConfig, name), name
    synth = option_defaults("synth", "--vertices", "40", "--out", str(tmp_path / "w.csv"))
    for name in ("communities", "inter_prob", "zipf_exponent", "duration", "records_per_hour",
                 "rewire_at", "rewire_frac"):
        assert synth[name] == getattr(WorkloadSpec, name), name
    assert synth["seed"] == inspect.signature(generate_workload).parameters["seed"].default


def test_integer_options_read_plain_decimals():
    replay = option_defaults("replay", "--trace", __file__, "--shards", "007", "--seed", "-3", "--kl-rounds", "2")
    assert (replay["k"], replay["seed"], replay["kl_rounds"]) == (7, -3, 2)


def test_duration_defaults_read_in_units():
    replay_help = run("replay", "--help").output
    assert "[default: 4h]" in replay_help and "[default: 14d]" in replay_help
    assert "[default: 14d]" in run("synth", "--help").output


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


def test_replay_jsonl_integer_too_long_for_int_strict_vs_lenient(tmp_path):
    trace = make_trace_file(tmp_path, "t.jsonl")
    lines = trace.read_text().splitlines()
    row = lines[2].replace('":', '": ')  # spaced, so JSON-decoded
    timestamp = json.loads(row)["timestamp"]
    lines.insert(2, row.replace(f'"timestamp": {timestamp}', '"timestamp": ' + "9" * 5000))
    bad = tmp_path / "long.jsonl"
    bad.write_text("\n".join(lines) + "\n")
    res = run("replay", "--trace", str(bad), "--shards", "2")
    assert res.exit_code == 1
    assert res.stderr == (
        "error: line 3: bad json: Exceeds the limit (4300 digits) for integer string conversion: "
        "value has 5000 digits; use sys.set_int_max_str_digits() to increase the limit\n"
    )
    res = run("replay", "--trace", str(bad), "--shards", "2", "--lenient")
    assert res.exit_code == 0
    assert res.stderr.splitlines()[-1] == "skipped 1 malformed rows"
    assert res.stdout == run("replay", "--trace", str(trace), "--shards", "2").stdout


@pytest.mark.parametrize("ext", ["csv", "json"])
def test_sweep_runs_multiple_k(tmp_path, ext):
    # every k replays the one parse of the trace: each output is the one a
    # replay of that k alone writes, byte for byte
    trace = make_trace_file(tmp_path)
    settings = ["--strategy", "metis-window", "--repartition-interval", "1d", "--out-format", ext]
    res = run("replay", "--trace", str(trace), "--sweep", "k=2,4", *settings, "--out", str(tmp_path / f"s.{ext}"))
    assert res.exit_code == 0, res.output
    assert sorted(p.name for p in tmp_path.glob("s*")) == [f"s.k2.{ext}", f"s.k4.{ext}"]
    for k in (2, 4):
        one = tmp_path / f"one.{ext}"
        res = run("replay", "--trace", str(trace), "--shards", str(k), *settings, "--out", str(one))
        assert res.exit_code == 0, res.output
        assert (tmp_path / f"s.k{k}.{ext}").read_bytes() == one.read_bytes()


def test_lenient_sweep_counts_the_skipped_rows_once(tmp_path):
    lines = make_trace_file(tmp_path).read_text().splitlines()
    lines[5] = "1,2,3"
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines) + "\n")
    res = run("replay", "--trace", str(bad), "--lenient", "--sweep", "k=2,4", "--out", str(tmp_path / "s.csv"))
    assert res.exit_code == 0, res.output
    assert res.stderr.splitlines().count("skipped 1 malformed rows") == 1
    for k in (2, 4):
        one = run("replay", "--trace", str(bad), "--lenient", "--shards", str(k))
        assert one.exit_code == 0, one.output
        assert (tmp_path / f"s.k{k}.csv").read_text() == one.stdout


def test_sweep_of_one_k_writes_its_per_k_file(tmp_path):
    trace = make_trace_file(tmp_path)
    res = run("replay", "--trace", str(trace), "--sweep", "k=2", "--out", str(tmp_path / "s.csv"))
    assert res.exit_code == 0, res.output
    assert sorted(p.name for p in tmp_path.glob("s*.csv")) == ["s.k2.csv"]
    res = run("replay", "--trace", str(trace), "--shards", "2", "--out", str(tmp_path / "t.csv"))
    assert (tmp_path / "t.csv").read_text() == (tmp_path / "s.k2.csv").read_text()


@pytest.mark.parametrize(
    "args,message",
    [
        (["--sweep", "k=2,2"], "a shard count is repeated"),
        (["--sweep", "k=4,2,4"], "a shard count is repeated"),
        (["--shards", "3", "--sweep", "k=2"], "--shards and --sweep cannot be used together"),
        (["--sweep", "k=a"], "bad sweep 'k=a'"),
        (["--sweep", "k="], "bad sweep 'k='"),
        (["--sweep", "k=2,3"], "--sweep requires --out"),
        (["--shards", "2", "--metric-window", "4x"], "bad duration '4x'"),
        (["--shards", "2", "--metric-window", "0"], "metric_window must be positive"),
        (["--sweep", "q=2,3"], "bad sweep 'q=2,3'"),
        (["--sweep", "=2,3"], "bad sweep '=2,3'"),
        (["--sweep", "k=1_0"], "bad sweep 'k=1_0'"),
        (["--sweep", "k=2, 3"], "bad sweep 'k=2, 3'"),
        (["--sweep", "k=2,,4"], "bad sweep 'k=2,,4'"),
        (["--sweep", "k=,2"], "bad sweep 'k=,2'"),
        (["--sweep", "k=2,"], "bad sweep 'k=2,'"),
        (["--shards", "1_6"], "value '1_6' is not an integer"),
        (["--shards", "2", "--seed", "+3"], "value '+3' is not an integer"),
        (["--shards", "2", "--metric-window", "\u0661\u0662h"], "bad duration '\u0661\u0662h'"),
    ],
    ids=["repeated", "repeated-apart", "shards-and-sweep", "not-a-number", "no-shard-count", "no-out",
         "bad-duration", "zero-window", "other-name", "no-name", "underscore-count", "spaced-count",
         "empty-between", "empty-first", "empty-last", "underscore-shards", "signed-seed", "non-ascii-duration"],
)
def test_sweep_usage_errors(tmp_path, args, message):
    trace = make_trace_file(tmp_path)
    out = [] if "--out" in message else ["--out", str(tmp_path / "s.csv")]  # a case about --out goes without
    res = run("replay", "--trace", str(trace), *args, *out)
    assert res.exit_code == 2, res.output
    assert message in res.output
    assert not list(tmp_path.glob("s*.csv"))


@pytest.mark.parametrize("case", ["malformed", "block", "timestamp"])
def test_sweep_over_a_bad_trace_is_an_error(tmp_path, case):
    # the parse error of the one read ends the sweep: a message, not a
    # traceback, and no output for any k
    lines = make_trace_file(tmp_path).read_text().splitlines()
    row = lines[5].split(",")
    if case == "malformed":
        lines[5] = "1,2,3"
        message = "error: line 6: expected 8 fields, got 3"
    else:
        field = 0 if case == "timestamp" else 1
        previous = lines[4].split(",")[field]
        row[field] = str(int(previous) - 1)
        lines[5] = ",".join(row)
        message = f"error: line 6: {case} {row[field]} after {case} {previous}"
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines) + "\n")
    res = run("replay", "--trace", str(bad), "--sweep", "k=2,4", "--out", str(tmp_path / "s.csv"))
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit)
    assert res.stderr.startswith("error: line") and res.stderr.strip() == message
    assert not list(tmp_path.glob("s*.csv"))


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


@pytest.mark.parametrize(
    "args",
    [["--vertices", "1"], ["--rewire-frac", "2"], ["--rewire-frac", "-0.5"],
     ["--rate", "nan"], ["--rate", "inf"], ["--zipf", "nan"]],
)
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


def test_synth_gzip_output_is_byte_identical(tmp_path, monkeypatch):
    # the gzip header would otherwise record when the file was written
    trace = tmp_path / "w.csv.gz"
    outputs = []
    for now in (1_000_000_000.0, 2_000_000_000.0):
        monkeypatch.setattr(time, "time", lambda now=now: now)
        res = run("synth", "--vertices", "40", "--duration", "1d", "--rate", "10", "--out", str(trace))
        assert res.exit_code == 0, res.output
        outputs.append(trace.read_bytes())
    assert outputs[0] == outputs[1]
    assert outputs[0][4:8] == bytes(4)  # the header's mtime


@pytest.mark.parametrize("name", ["t.csv", "t.csv.gz", "t.jsonl.gz"])
@pytest.mark.parametrize("mode", [[], ["--lenient"]], ids=["strict", "lenient"])
def test_replay_reads_trace_with_byte_order_mark(tmp_path, name, mode):
    # spreadsheet programs save UTF-8 text with a byte-order mark in front
    plain = make_trace_file(tmp_path, name)
    data = plain.read_bytes()
    if name.endswith(".gz"):
        data = gzip.compress(b"\xef\xbb\xbf" + gzip.decompress(data))
    else:
        data = b"\xef\xbb\xbf" + data
    marked = tmp_path / f"bom-{name}"
    marked.write_bytes(data)
    outputs = []
    for path in (plain, marked):
        res = run("replay", "--trace", str(path), "--shards", "2", *mode)
        assert res.exit_code == 0, res.output
        assert res.stderr == ""  # nothing skipped
        outputs.append(res.stdout)
    assert outputs[0] == outputs[1]


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



def unreadable_trace(tmp_path, monkeypatch, case):
    """Path of a trace that cannot be read to its end, as ``case`` names."""
    text = make_trace_file(tmp_path).read_bytes()
    packed = gzip.compress(text)
    if case == "invalid-utf8":
        path, data = tmp_path / "bad.csv", text[:500] + b"\xff" + text[500:]
    elif case == "not-gzip":
        path, data = tmp_path / "bad.csv.gz", text
    elif case == "truncated-gzip":
        path, data = tmp_path / "bad.csv.gz", packed[: len(packed) // 2]
    elif case == "corrupt-deflate":  # the first block header says block type 3, which does not exist
        path, data = tmp_path / "bad.csv.gz", packed[:10] + b"\xff" * 8 + packed[18:]
    else:
        path, data = tmp_path / "bad.csv", text

        def denied(file, *args, **kwargs):
            raise PermissionError(13, "Permission denied", file)

        # every mode opens the trace through the module's open, the sweep too
        monkeypatch.setattr(trace_module, "open", denied, raising=False)
    path.write_bytes(data)
    return path


# what each unreadable trace's error message says
UNREADABLE = {
    "invalid-utf8": "'utf-8' codec can't decode byte 0xff",
    "not-gzip": "Not a gzipped file",
    "truncated-gzip": "Compressed file ended before the end-of-stream marker was reached",
    "corrupt-deflate": "Error -3 while decompressing data: invalid block type",
    "permission": "Permission denied",
}


@pytest.mark.parametrize("case", UNREADABLE)
@pytest.mark.parametrize("mode", [[], ["--lenient"], ["--sweep", "k=2,4"]], ids=["strict", "lenient", "sweep"])
def test_replay_unreadable_trace_is_an_error(tmp_path, monkeypatch, case, mode):
    path = unreadable_trace(tmp_path, monkeypatch, case)
    shards = mode if "--sweep" in mode else ["--shards", "2", *mode]
    res = run("replay", "--trace", str(path), *shards, "--out", str(tmp_path / "s.csv"))
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit)  # a message, not a traceback
    assert res.stderr.startswith(f"error: cannot read {path}: ") and UNREADABLE[case] in res.stderr
    assert not list(tmp_path.glob("s*.csv"))

def test_replay_invalid_config_usage_error(tmp_path):
    trace = make_trace_file(tmp_path)
    for extra in (
        ["--metric-window", "2d", "--repartition-interval", "1d"],
        ["--epsilon", "-1"],
        ["--epsilon", "nan"],
        ["--cut-threshold", "nan"],
        ["--balance-threshold", "nan"],
        ["--kl-rounds", "0"],
        ["--kl-rounds", "-3"],
        ["--sweep", "k=0,2"],
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
        ("2 1 011\n1 2 1\n1 1 1\n", "a\nb\nc\n", "error: sidecar length does not match vertex count"),
    ],
    ids=["empty-graph", "negative-vertex-count", "repeated-sidecar-name", "sidecar-length"],
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


def test_partition_nan_epsilon_usage_error(tmp_path):
    gpath = tmp_path / "g.graph"
    gpath.write_text("2 1 011\n1 2 1\n1 1 1\n")
    res = run("partition", "--graph", str(gpath), "--shards", "2", "--epsilon", "nan")
    assert res.exit_code == 2
    assert isinstance(res.exception, SystemExit)
    assert "Invalid value for '--epsilon': value 'nan' is not a finite decimal" in res.stderr


def test_partition_zero_shards_usage_error(tmp_path):
    gpath = tmp_path / "g.graph"
    gpath.write_text("2 1 011\n1 2 1\n1 1 1\n")
    res = run("partition", "--graph", str(gpath), "--shards", "0")
    assert res.exit_code == 2
    assert isinstance(res.exception, SystemExit)
    assert "k must be >= 1" in res.stderr


@pytest.mark.parametrize(
    "text, warning",
    [
        # every vertex fits the cap of 3, but no split of three 2s does
        ("3 0 011\n2\n2\n2\n", "warning: balance cap 3 not met (heaviest vertex weighs 2), best-effort result"),
        ("2 0 011\n5\n1\n", "warning: balance cap 3 unattainable (heaviest vertex weighs 5), best-effort result"),
    ],
    ids=["every-vertex-fits", "heavy-vertex"],
)
def test_partition_warns_when_the_cap_is_not_met(tmp_path, text, warning):
    gpath = tmp_path / "g.graph"
    gpath.write_text(text)
    n = int(text.split()[0])
    res = run("partition", "--graph", str(gpath), "--shards", "2", "--epsilon", "0")
    assert res.exit_code == 0, res.output
    assert res.stderr.strip() == warning
    lines = res.stdout.splitlines()
    assert lines[0] == "vertex,shard"
    assert [line.split(",")[0] for line in lines[1:]] == [str(v) for v in range(n)]
    assert {line.split(",")[1] for line in lines[1:]} <= {"0", "1"}


def test_partition_unwritable_output_is_an_error(tmp_path):
    gpath = tmp_path / "g.graph"
    gpath.write_text("2 1 011\n1 2 1\n1 1 1\n")
    res = run("partition", "--graph", str(gpath), "--shards", "2", "--out", str(tmp_path / "no-such-dir" / "x.csv"))
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit)
    assert res.stderr.startswith("error: ") and "no-such-dir" in res.stderr


def test_partition_of_an_export_matches_the_library(tmp_path):
    # address keys in an order that is not sorted: each row pairs a vertex
    # with its own shard only if the CLI joins the sidecar to the part vector
    order = [7, 19, 3, 12, 0, 15, 8, 1, 17, 5, 10, 14, 2, 18, 6, 11, 4, 16, 9, 13]
    g = InteractionGraph()
    for i, u in enumerate(order):  # a ring with some chords
        g.record(vid(u), vid(order[(i + 1) % 20]))
        if i % 3 == 0:
            g.record(vid(u), vid(order[(i + 7) % 20]))
    assert list(g.vertices) != sorted(g.vertices)
    gpath, spath = tmp_path / "g.graph", tmp_path / "g.map"
    write_adjacency(g, str(gpath), str(spath))
    res = run("partition", "--graph", str(gpath), "--sidecar", str(spath), "--shards", "3")
    assert res.exit_code == 0, res.output
    rows = [tuple(line.split(",")) for line in res.stdout.splitlines()[1:]]
    expected = multilevel_partition(g, PartitionerConfig(k=3)).assignment.shard_of
    assert rows == [(v, str(s)) for v, s in zip(g.vertices, expected)]
    assert len(set(expected)) == 3


# spellings float() reads that the one float rule does not
FLOAT_SPELLINGS = ["1_0.5", " 0.3", "\u0661.5", "nan", "inf", "1e999"]


@pytest.mark.parametrize("spelling", FLOAT_SPELLINGS)
@pytest.mark.parametrize(
    "command, option",
    [("replay", "--cut-threshold"), ("replay", "--balance-threshold"), ("replay", "--epsilon"),
     ("partition", "--epsilon"), ("synth", "--inter-prob"), ("synth", "--zipf"), ("synth", "--rate"),
     ("synth", "--rewire-at"), ("synth", "--rewire-frac")],
)
def test_float_options_are_finite_decimals(tmp_path, command, option, spelling):
    if command == "replay":
        args = ["--trace", str(make_trace_file(tmp_path)), "--shards", "2"]
    elif command == "partition":
        gpath = tmp_path / "g.graph"
        gpath.write_text("2 1 011\n1 2 1\n1 1 1\n")
        args = ["--graph", str(gpath), "--shards", "2"]
    else:
        args = ["--vertices", "40", "--duration", "1d"]
    res = run(command, *args, option, spelling, "--out", str(tmp_path / "o.csv"))
    assert res.exit_code == 2, res.output
    assert f"Invalid value for '{option}': value {spelling!r} is not a finite decimal" in res.stderr
    assert not (tmp_path / "o.csv").exists()


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda lines: [lines[0].replace(",dynamic_edge_cut", "")] + lines[1:],
         "error: missing columns: dynamic_edge_cut"),
        (lambda lines: lines[:2] + [lines[2].rsplit(",", 1)[0]] + lines[3:],
         "error: line 3: expected 8 fields, got 7"),
        (lambda lines: lines[:2] + [lines[2] + "9" * 131073] + lines[3:],
         "error: line 3: field larger than field limit (131072)"),
        (lambda lines: lines[:2] + [lines[2].rsplit(",", 1)[0] + ",True"] + lines[3:],
         "error: line 3: not true or false: 'True'"),
        (lambda lines: lines[:2] + [",".join(lines[2].split(",")[:6] + ["1_0", "false"])] + lines[3:],
         "error: line 3: moves '1_0' is not an integer"),
        # every metric column spelled one way; the first is named
        *((lambda lines, spelling=spelling: lines[:2] + [f"0,{f'{spelling},' * 5}0,false"] + lines[3:],
           f"error: line 3: static_edge_cut {spelling!r} is not a finite decimal") for spelling in FLOAT_SPELLINGS),
    ],
    ids=["missing-column", "short-row", "oversize-field", "capitalised-flag", "underscore-moves",
         *(f"float-{spelling!r}" for spelling in FLOAT_SPELLINGS)],
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


def test_partition_quotes_vertex_names(tmp_path):
    gpath, spath = tmp_path / "g.graph", tmp_path / "g.map"
    gpath.write_text("2 1 011\n1 2 1\n1 1 1\n")
    spath.write_text('a,b\n"c\n')
    res = run("partition", "--graph", str(gpath), "--sidecar", str(spath), "--shards", "2")
    assert res.exit_code == 0, res.output
    rows = list(csv.reader(io.StringIO(res.stdout)))
    assert rows[0] == ["vertex", "shard"]
    assert [row[0] for row in rows[1:]] == ["a,b", '"c']
    assert all(len(row) == 2 for row in rows)


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


# Installed into every interpreter of the smoke run below as a sitecustomize
# module: any import of a test-only package fails.
TEST_ONLY_BLOCKER = """
import sys

class TestOnlyBlocker:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] in {"numpy", "scipy", "hypothesis", "networkx"}:
            raise ImportError(f"{name} is a test-only package")
        return None

sys.meta_path.insert(0, TestOnlyBlocker())
"""


def test_cli_runs_with_click_as_the_only_dependency(tmp_path):
    (tmp_path / "sitecustomize.py").write_text(TEST_ONLY_BLOCKER)
    src = os.path.dirname(os.path.dirname(shardsim.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(tmp_path), src])}

    def shardsim_cli(*args):
        return subprocess.run([sys.executable, "-m", "shardsim.cli", *args], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=120)

    blocked = subprocess.run([sys.executable, "-c", "import numpy"], env=env, capture_output=True, text=True)
    assert blocked.returncode == 1 and "numpy is a test-only package" in blocked.stderr
    (tmp_path / "g.graph").write_text("3 3 011\n1 2 1 3 1\n1 1 1 3 1\n1 1 1 2 1\n")
    for args in (
        ["synth", "--vertices", "60", "--communities", "3", "--duration", "3d", "--rate", "40", "--out", "t.csv"],
        ["replay", "--trace", "t.csv", "--sweep", "k=2,3", "--strategy", "metis-window",
         "--repartition-interval", "1d", "--out", "s.csv"],
        ["replay", "--trace", "t.csv", "--shards", "2", "--strategy", "kl", "--repartition-interval", "1d",
         "--out", "kl.csv"],
        ["summarize", "--in", "s.k3.csv"],
        ["partition", "--graph", "g.graph", "--shards", "2"],
    ):
        res = shardsim_cli(*args)
        assert res.returncode == 0, (args, res.stderr)


@pytest.mark.parametrize("name, logs", [("debug", True), ("Debug", True), ("basic_format", False), ("nosuchlevel", False)])
def test_log_level_from_environment(tmp_path, name, logs):
    # only a level name sets the level; any other name means warning, even one
    # the logging module defines (BASIC_FORMAT is a format string). Run in a
    # subprocess: under pytest the root logger has handlers already, so
    # basicConfig would not look at the level.
    trace = make_trace_file(tmp_path)
    src = os.path.dirname(os.path.dirname(shardsim.__file__))
    env = {**os.environ, "PYTHONPATH": src, "SHARDSIM_LOG": name}
    res = subprocess.run(
        [sys.executable, "-m", "shardsim.cli", "replay", "--trace", str(trace), "--shards", "2",
         "--strategy", "metis-window", "--repartition-interval", "1d", "--out", str(tmp_path / "s.csv")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert res.returncode == 0, res.stderr
    assert "Traceback" not in res.stderr
    assert ("repartition at" in res.stderr) == logs
