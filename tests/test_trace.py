import csv
import dataclasses
import gzip
import io
import itertools
import json
import logging
import math
import re

import pytest
from hypothesis import given, settings, strategies as st

from shardsim import trace as trace_module
from shardsim.synth import WorkloadSpec, generate_workload
from shardsim.trace import (
    CSV_HEADER,
    CallKind,
    MalformedRow,
    OutOfOrderBlock,
    OutOfOrderTimestamp,
    ParseStats,
    TraceError,
    TraceRecord,
    VertexKind,
    _record_from_fields,
    canonical_address,
    decimal,
    infer_format,
    open_trace,
    parse_trace,
    read_trace,
    real,
    serialize_trace,
)

A1 = "89" * 20
A2 = "97" * 20
A3 = "17" * 20


def parse_str(text, fmt="csv", strict=True, stats=None):
    return list(parse_trace(io.StringIO(text), fmt, strict=strict, stats=stats))


CSV_TEXT = (
    ",".join(CSV_HEADER)
    + "\n"
    + f"1441000000,100,0x{A1.upper()},account,0x{A2},contract,contractcall,tx1\n"
)


def test_parse_csv_row_maps_fields():
    (r,) = parse_str(CSV_TEXT)
    assert r == TraceRecord(1441000000, 100, A1, VertexKind.ACCOUNT, A2, VertexKind.CONTRACT, CallKind.CONTRACT_CALL, "tx1")


def test_addresses_canonicalized_lowercase_no_prefix():
    (r,) = parse_str(CSV_TEXT)
    assert r.src == A1 and "0x" not in r.src


def test_empty_input_yields_nothing():
    assert parse_str("") == []
    assert parse_str(",".join(CSV_HEADER) + "\n") == []
    assert parse_str("", "jsonl") == []


def test_unknown_format_rejected():
    with pytest.raises(ValueError, match="^unknown trace format 'xml'$"):
        parse_str(CSV_TEXT, "xml")
    with pytest.raises(ValueError, match="^unknown trace format 'xml'$"):
        serialize_trace([], "xml")


def test_out_of_order_block_strict():
    text = (
        ",".join(CSV_HEADER) + "\n"
        f"10,100,{A1},account,{A2},contract,contractcall,tx1\n"
        f"11,99,{A1},account,{A2},contract,contractcall,tx2\n"
    )
    with pytest.raises(OutOfOrderBlock):
        parse_str(text)


# the second row's timestamp goes back, its block does not
BACKWARDS = [
    TraceRecord(t, b, A1, VertexKind.ACCOUNT, A2, VertexKind.CONTRACT, CallKind.CONTRACT_CALL, tx)
    for t, b, tx in ((10, 100, "tx1"), (9, 100, "tx2"), (10, 101, "tx3"))
]


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_backwards_timestamp_strict(fmt):
    with pytest.raises(OutOfOrderTimestamp) as info:
        parse_str(serialize_trace(BACKWARDS, fmt), fmt)
    line_no = 3 if fmt == "csv" else 2
    assert (info.value.line_no, info.value.timestamp, info.value.previous) == (line_no, 9, 10)
    assert str(info.value) == f"line {line_no}: timestamp 9 after timestamp 10"


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_backwards_timestamp_lenient_skips_row(fmt):
    stats = ParseStats()
    records = parse_str(serialize_trace(BACKWARDS, fmt), fmt, strict=False, stats=stats)
    assert records == [BACKWARDS[0], BACKWARDS[2]]
    assert stats.skipped == 1


def test_equal_timestamps_accepted():
    text = (
        ",".join(CSV_HEADER) + "\n"
        f"10,100,{A1},account,{A2},contract,contractcall,tx1\n"
        f"10,101,{A1},account,{A2},contract,contractcall,tx2\n"
    )
    assert len(parse_str(text)) == 2


def test_lenient_counts_balance():
    text = (
        ",".join(CSV_HEADER) + "\n"
        f"10,100,{A1},account,{A2},contract,contractcall,tx1\n"
        f"11,100,not-an-address,account,{A2},contract,contractcall,tx2\n"
        f"12,100,{A1},account,{A2},contract,badkind,tx3\n"
        f"13,101,{A1},account,{A2},contract,transfer,tx4\n"
    )
    stats = ParseStats()
    records = parse_str(text, strict=False, stats=stats)
    assert len(records) == 2
    assert stats.skipped == 2


@pytest.mark.parametrize(
    "exc, message, attrs",
    [
        (MalformedRow(6, "expected 8 fields, got 3"), "line 6: expected 8 fields, got 3",
         {"line_no": 6, "reason": "expected 8 fields, got 3"}),
        (OutOfOrderBlock(7, 3, 9), "line 7: block 3 after block 9", {"line_no": 7, "block": 3, "previous": 9}),
        (OutOfOrderTimestamp(8, 100, 200), "line 8: timestamp 100 after timestamp 200",
         {"line_no": 8, "timestamp": 100, "previous": 200}),
    ],
)
def test_trace_error_messages_and_attributes(exc, message, attrs):
    assert isinstance(exc, TraceError)
    assert str(exc) == message
    assert {name: getattr(exc, name) for name in attrs} == attrs


def test_unknown_call_kind_rejected():
    text = ",".join(CSV_HEADER) + "\n" + f"10,1,{A1},account,{A2},contract,frobnicate,tx1\n"
    with pytest.raises(MalformedRow):
        parse_str(text)


def test_create_target_must_be_contract():
    text = ",".join(CSV_HEADER) + "\n" + f"10,1,{A1},account,{A2},account,contractcreate,tx1\n"
    with pytest.raises(MalformedRow):
        parse_str(text)


def test_bad_header_rejected():
    with pytest.raises(MalformedRow):
        parse_str("a,b,c\n1,2,3\n")


def test_jsonl_parses():
    line = (
        '{"timestamp": 5, "block": 1, "from": "%s", "from_kind": "account",'
        ' "to": "%s", "to_kind": "contract", "call_kind": "transfer", "tx_id": "t"}\n' % (A1, A2)
    )
    (r,) = parse_str(line, "jsonl")
    assert r.timestamp == 5 and r.call_kind is CallKind.TRANSFER


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
@pytest.mark.parametrize(
    "spelling, kind",
    [
        ("contractcall", CallKind.CONTRACT_CALL),
        ("contract_call", CallKind.CONTRACT_CALL),
        ("contractcreate", CallKind.CONTRACT_CREATE),
        ("contract_create", CallKind.CONTRACT_CREATE),
    ],
)
def test_call_kind_spellings(fmt, spelling, kind):
    record = TraceRecord(5, 1, A1, VertexKind.ACCOUNT, A2, VertexKind.CONTRACT, kind, "t")
    text = serialize_trace([record], fmt).replace(kind.value, spelling)
    assert spelling in text
    assert parse_str(text, fmt) == [record]


addresses = st.text(alphabet="0123456789abcdef", min_size=40, max_size=40)
records_strategy = st.builds(
    TraceRecord,
    timestamp=st.integers(min_value=0, max_value=2**40),
    block=st.just(7),
    src=addresses,
    src_kind=st.sampled_from([VertexKind.ACCOUNT, VertexKind.CONTRACT]),
    dst=addresses,
    dst_kind=st.just(VertexKind.CONTRACT),
    call_kind=st.sampled_from(list(CallKind)),
    tx_id=st.text(min_size=1, max_size=16),
)


@given(
    st.lists(records_strategy, max_size=20).map(lambda rs: sorted(rs, key=lambda r: r.timestamp)),
    st.sampled_from(["csv", "jsonl"]),
)
def test_roundtrip_identity(records, fmt):
    assert parse_str(serialize_trace(records, fmt), fmt) == records


def csv_module_reference(records):
    """The CSV trace as ``csv.writer`` writes it."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for r in records:
        writer.writerow(
            [r.timestamp, r.block, r.src, r.src_kind.value, r.dst, r.dst_kind.value, r.call_kind.value, r.tx_id]
        )
    return buf.getvalue()


# csv.writer leaves a "\r" unquoted when the line terminator is "\n", so rows
# holding one are left out of the comparison.
no_cr_text = st.text(st.characters(exclude_characters="\r"))


@given(
    st.lists(
        st.builds(
            TraceRecord,
            timestamp=st.integers(min_value=0),
            block=st.integers(min_value=0),
            src=no_cr_text,
            src_kind=st.sampled_from(list(VertexKind)),
            dst=no_cr_text,
            dst_kind=st.sampled_from(list(VertexKind)),
            call_kind=st.sampled_from(list(CallKind)),
            tx_id=no_cr_text,
        ),
        max_size=10,
    )
)
def test_csv_writer_matches_csv_module(records):
    assert serialize_trace(records, "csv") == csv_module_reference(records)


WRITER_RECORDS = [
    TraceRecord(10 + i, 7, A1, VertexKind.ACCOUNT, A2, VertexKind.CONTRACT, CallKind.CONTRACT_CALL, f"tx{i}")
    for i in range(3)
]
# the clean records, then one record per character that needs quoting and per
# field that can hold it, the character alone in its trace
WRITER_CASES = {"clean": WRITER_RECORDS} | {
    f"{field}-{name}": [
        WRITER_RECORDS[0], dataclasses.replace(WRITER_RECORDS[1], **{field: f"a{char}b"}), WRITER_RECORDS[2],
    ]
    for name, char in [("comma", ","), ("quote", '"'), ("lf", "\n"), ("cr", "\r")]
    for field in ("src", "dst", "tx_id")
}


@pytest.mark.parametrize("as_generator", [False, True], ids=["list", "generator"])
@pytest.mark.parametrize("case", list(WRITER_CASES))
def test_csv_writer_paths_match_field_by_field_quoting(monkeypatch, case, as_generator):
    """A clean trace is written without quoting a field, any other trace with
    _csv_field on each string field, even when its records come from an
    iterator that the first pass has spent."""
    records = WRITER_CASES[case]
    field, quoted = trace_module._csv_field, []

    def csv_field(text):
        quoted.append(text)
        return field(text)

    expected = "".join(
        ",".join(field(str(value)) for value in row) + "\n"
        for row in [CSV_HEADER] + [
            [r.timestamp, r.block, r.src, r.src_kind.value, r.dst, r.dst_kind.value, r.call_kind.value, r.tx_id]
            for r in records
        ]
    )
    monkeypatch.setattr(trace_module, "_csv_field", csv_field)
    assert serialize_trace((r for r in records) if as_generator else records, "csv") == expected
    assert len(quoted) == (0 if case == "clean" else 3 * len(records))


def json_module_reference(records):
    """The JSONL trace as ``json.JSONEncoder`` writes each row's dict."""
    encode = json.JSONEncoder(separators=(",", ":")).encode
    return "".join(
        encode(
            {
                "timestamp": r.timestamp, "block": r.block, "from": r.src, "from_kind": r.src_kind.value,
                "to": r.dst, "to_kind": r.dst_kind.value, "call_kind": r.call_kind.value, "tx_id": r.tx_id,
            }
        )
        + "\n"
        for r in records
    )


# text with quotes, backslashes, control and non-ASCII characters in plenty
json_text = st.text(st.one_of(st.sampled_from('"\\\n\r\t\x00\x1f\x7f\xe9\u2028\U0001f600'), st.characters()))


@given(
    st.lists(
        st.builds(
            TraceRecord,
            timestamp=st.integers(min_value=0),
            block=st.integers(min_value=0),
            src=json_text,
            src_kind=st.sampled_from(list(VertexKind)),
            dst=json_text,
            dst_kind=st.sampled_from(list(VertexKind)),
            call_kind=st.sampled_from(list(CallKind)),
            tx_id=json_text,
        ),
        max_size=10,
    )
)
def test_jsonl_writer_matches_json_module(records):
    assert serialize_trace(records, "jsonl") == json_module_reference(records)


# tx_ids that need CSV quoting, each line break among them
AWKWARD_TX_IDS = ["a\rb", "a\nb", "a\r\nb", "\r", "a,b", 'say "hi"', " padded "]


@pytest.mark.parametrize("name", ["t.csv", "t.csv.gz", "t.jsonl", "t.jsonl.gz"])
def test_roundtrip_through_file(tmp_path, name):
    records = [
        TraceRecord(i, i, A1, VertexKind.ACCOUNT, A2, VertexKind.CONTRACT, CallKind.CONTRACT_CALL, tx_id)
        for i, tx_id in enumerate(AWKWARD_TX_IDS)
    ]
    path = str(tmp_path / name)
    with open_trace(path, "w") as fh:
        fh.write(serialize_trace(records, infer_format(path)))
    with open(path, "rb") as fh:
        assert (fh.read(2) == b"\x1f\x8b") == name.endswith(".gz")
    assert list(read_trace(path)) == records


def test_gzip_and_format_inference(tmp_path):
    records = parse_str(CSV_TEXT)
    path = tmp_path / "trace.csv.gz"
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        fh.write(CSV_TEXT)
    assert infer_format(str(path)) == "csv"
    assert list(read_trace(str(path))) == records


def test_canonical_address_rejects_bad():
    # a sign, underscores or an inner space are not hex digits, whatever int() accepts
    for raw in ("1234", "zz" * 20, "-" + "a" * 39, "+" + "a" * 39, "a_" * 19 + "aa", "a" * 20 + " " + "a" * 19):
        with pytest.raises(ValueError, match="is not 40 hex digits"):
            canonical_address(raw)
    assert canonical_address("0x" + A1.upper()) == A1
    assert canonical_address(f" 0X{A2} ") == A2


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_equal_addresses_share_one_string(fmt):
    rows = [
        TraceRecord(5, 1, A1, VertexKind.ACCOUNT, A2, VertexKind.CONTRACT, CallKind.CONTRACT_CALL, "t1"),
        TraceRecord(6, 1, A2, VertexKind.CONTRACT, A1, VertexKind.ACCOUNT, CallKind.TRANSFER, "t2"),
        TraceRecord(7, 2, A1, VertexKind.ACCOUNT, A1, VertexKind.ACCOUNT, CallKind.TRANSFER, "t3"),
    ]
    # the last row spells A1 with a prefix and in upper case
    text = serialize_trace(rows, fmt)
    head, last = text.rsplit(A1, 1)
    text = head + "0x" + A1.upper() + last
    a, b, c = parse_str(text, fmt)
    assert (a, b, c) == tuple(rows)
    assert a.src is b.dst is c.src is c.dst
    assert a.dst is b.src


def jsonl_row(**fields):
    obj = {
        "timestamp": 5, "block": 1, "from": A1, "from_kind": "account", "to": A2,
        "to_kind": "contract", "call_kind": "transfer", "tx_id": "t",
    }
    obj.update(fields)
    return json.dumps(obj) + "\n"


@pytest.mark.parametrize(
    "fields, src_kind, call_kind",
    [
        ({"from_kind": " Account "}, VertexKind.ACCOUNT, CallKind.TRANSFER),
        ({"from_kind": "CONTRACT", "to_kind": "\tcontract"}, VertexKind.CONTRACT, CallKind.TRANSFER),
        ({"call_kind": " Contract_Call"}, VertexKind.ACCOUNT, CallKind.CONTRACT_CALL),
        ({"call_kind": "CONTRACTCREATE "}, VertexKind.ACCOUNT, CallKind.CONTRACT_CREATE),
    ],
)
def test_kinds_accept_case_and_spaces(fields, src_kind, call_kind):
    (r,) = parse_str(jsonl_row(**fields), "jsonl")
    assert (r.src_kind, r.dst_kind, r.call_kind) == (src_kind, VertexKind.CONTRACT, call_kind)


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"from_kind": []}, "line 1: '[]' is not a valid VertexKind"),
        ({"to_kind": 5}, "line 1: '5' is not a valid VertexKind"),
        ({"from_kind": None}, "line 1: 'none' is not a valid VertexKind"),
        ({"call_kind": []}, "line 1: unknown call kind []"),
        ({"call_kind": 5}, "line 1: unknown call kind 5"),
    ],
)
def test_non_string_kinds_are_malformed(fields, message):
    with pytest.raises(MalformedRow) as info:
        parse_str(jsonl_row(**fields), "jsonl")
    assert str(info.value) == message


HEADER = ",".join(CSV_HEADER) + "\n"
JSONL_LINE = jsonl_row().rstrip("\n")  # 216 characters
ROW = f"10,100,{A1},account,{A2},contract,contractcall,tx1\n"


@pytest.mark.parametrize(
    "text, fmt, message",
    [
        (HEADER + ROW + "1,2,3\n", "csv", "line 3: expected 8 fields, got 3"),
        # a quoted line break makes a row two lines long; line numbers count file lines
        (HEADER + ROW.replace("tx1", '"a\nb"') + "1,2,3\n", "csv", "line 4: expected 8 fields, got 3"),
        # blank lines are skipped but still counted in line numbers
        (HEADER + "\n" + ROW + "\n" + "x\n", "csv", "line 5: expected 8 fields, got 1"),
        (HEADER + "  \n", "csv", "line 2: expected 8 fields, got 1"),
        (HEADER + f"1x,100,{A1},account,{A2},contract,contractcall,tx1\n", "csv",
         "line 2: timestamp '1x' is not an integer"),
        # after a row of the same addresses, so the one loop sees them: int() would read both
        (HEADER + ROW.replace("10,100,", "1,1,") + f"+5,1,{A1},account,{A2},contract,contractcall,tx1\n", "csv",
         "line 3: timestamp '+5' is not an integer"),
        (HEADER + ROW.replace("10,100,", "1,1,") + f"5,\u0661\u0662,{A1},account,{A2},contract,contractcall,tx1\n",
         "csv", "line 3: block '\u0661\u0662' is not an integer"),
        (HEADER + f"-1,100,{A1},account,{A2},contract,contractcall,tx1\n", "csv", "line 2: negative timestamp or block"),
        (HEADER + f"1,100,xyz,account,{A2},contract,contractcall,tx1\n", "csv", "line 2: address 'xyz' is not 40 hex digits"),
        (HEADER + ROW + f"11,100,{A1},account,{A2},contract,transfer,\n", "csv", "line 3: tx_id is empty"),
        ('{"a": \n', "jsonl", "line 1: bad json: Expecting value: line 2 column 1 (char 7)"),
        ("\n[1, 2]\n", "jsonl", "line 2: record is not an object"),
        (jsonl_row() + jsonl_row().replace(', "tx_id": "t"', ""), "jsonl", "line 2: 'tx_id'"),
        (jsonl_row(**{"from": 5}), "jsonl", "line 1: address '5' is not 40 hex digits"),
        (jsonl_row(to=["a"]), "jsonl", "line 1: address \"['a']\" is not 40 hex digits"),
        # lines a decoded value does not fill up to JSON whitespace
        (jsonl_row() + JSONL_LINE + " x\n", "jsonl", "line 2: bad json: Extra data: line 1 column 218 (char 217)"),
        (JSONL_LINE + JSONL_LINE + "\n", "jsonl", "line 1: bad json: Extra data: line 1 column 217 (char 216)"),
        (jsonl_row() + "\ufeff" + jsonl_row(), "jsonl",
         "line 2: bad json: Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)"),
        (JSONL_LINE + "\f\n", "jsonl", "line 1: bad json: Extra data: line 1 column 217 (char 216)"),
        (jsonl_row() + JSONL_LINE + "\xa0\n", "jsonl", "line 2: bad json: Extra data: line 1 column 217 (char 216)"),
        (jsonl_row(timestamp=math.nan), "jsonl", "line 1: timestamp nan is not an integer"),
        # json.loads raises a ValueError that is not a JSONDecodeError for an
        # integer over int()'s string limit
        pytest.param(
            jsonl_row() + JSONL_LINE.replace('"timestamp": 5', '"timestamp": ' + "9" * 5000) + "\n", "jsonl",
            "line 2: bad json: Exceeds the limit (4300 digits) for integer string conversion: "
            "value has 5000 digits; use sys.set_int_max_str_digits() to increase the limit",
            id="integer-too-long-for-int",
        ),
    ],
)
def test_malformed_row_messages(text, fmt, message):
    with pytest.raises(MalformedRow) as info:
        parse_str(text, fmt)
    assert str(info.value) == message
    assert info.value.line_no == int(message.split()[1].rstrip(":"))
    stats = ParseStats()
    parse_str(text, fmt, strict=False, stats=stats)
    assert stats.skipped == 1


def test_jsonl_line_nested_past_the_recursion_limit_is_a_malformed_row():
    # json.loads raises RecursionError for it, which is not a ValueError
    text = "[" * 100_000 + "\n" + JSONL_LINE + "\n"
    with pytest.raises(MalformedRow, match="^line 1: bad json: ") as info:
        parse_str(text, "jsonl")
    assert info.value.line_no == 1
    stats = ParseStats()
    assert parse_str(text, "jsonl", strict=False, stats=stats) == parse_str(JSONL_LINE + "\n", "jsonl")
    assert stats.skipped == 1


def test_jsonl_whitespace_around_rows_accepted():
    text = (
        "  " + JSONL_LINE + "\n" + JSONL_LINE + "\t\n" + "\xa0 \n" + JSONL_LINE + "\r\n"
        + " \t\r\n" + "\n" + " " + JSONL_LINE + " \r\n" + "\xa0"
    )
    expected = TraceRecord(5, 1, A1, VertexKind.ACCOUNT, A2, VertexKind.CONTRACT, CallKind.TRANSFER, "t")
    assert parse_str(text, "jsonl") == [expected] * 4
    # blank lines still count in line numbers
    assert parse_str(text + "\n[]\n", "jsonl", strict=False) == [expected] * 4
    with pytest.raises(MalformedRow, match="^line 9: record is not an object$"):
        parse_str(text + "\n[]\n", "jsonl")


def test_jsonl_error_key_is_an_ordinary_field():
    (r,) = parse_str(jsonl_row(__error__="not an error"), "jsonl")
    assert r == TraceRecord(5, 1, A1, VertexKind.ACCOUNT, A2, VertexKind.CONTRACT, CallKind.TRANSFER, "t")


JSONL_BAD_TYPES = [
    ({"timestamp": None}, "line 1: timestamp None is not an integer"),
    ({"timestamp": [1]}, "line 1: timestamp [1] is not an integer"),
    ({"timestamp": 1.7}, "line 1: timestamp 1.7 is not an integer"),
    ({"timestamp": 5.0}, "line 1: timestamp 5.0 is not an integer"),
    ({"timestamp": True}, "line 1: timestamp True is not an integer"),
    ({"block": True}, "line 1: block True is not an integer"),
    ({"block": None}, "line 1: block None is not an integer"),
    ({"block": "1.5"}, "line 1: block '1.5' is not an integer"),
    ({"timestamp": "+5"}, "line 1: timestamp '+5' is not an integer"),
    ({"timestamp": "1_0"}, "line 1: timestamp '1_0' is not an integer"),
    ({"block": " 7"}, "line 1: block ' 7' is not an integer"),
    ({"block": "\u0661\u0662"}, "line 1: block '\u0661\u0662' is not an integer"),
    ({"tx_id": None}, "line 1: tx_id is null"),
    ({"tx_id": ""}, "line 1: tx_id is empty"),
]


@pytest.mark.parametrize("fields, message", JSONL_BAD_TYPES)
def test_jsonl_field_types(fields, message):
    with pytest.raises(MalformedRow) as info:
        parse_str(jsonl_row(**fields), "jsonl")
    assert str(info.value) == message
    stats = ParseStats()
    records = parse_str(jsonl_row(**fields) + jsonl_row(timestamp=6), "jsonl", strict=False, stats=stats)
    assert [r.timestamp for r in records] == [6]
    assert stats.skipped == 1


def test_jsonl_integers_and_digit_strings_accepted():
    rows = jsonl_row(timestamp=5, block=1, tx_id=7) + jsonl_row(timestamp="6", block="2", tx_id="t")
    a, b = parse_str(rows, "jsonl")
    assert (a.timestamp, a.block, a.tx_id) == (5, 1, "7")
    assert (b.timestamp, b.block, b.tx_id) == (6, 2, "t")


def test_decimal_is_the_one_integer_rule():
    assert [decimal(raw, "n") for raw in ("007", "-5", "0", 5, -3, 10**30)] == [7, -5, 0, 5, -3, 10**30]
    for raw in ("+5", "1_0", " 7", "7 ", "5\n", "\u0661\u0662", "\uff15", "", "-", "1.5", True, 5.0, None):
        with pytest.raises(ValueError) as info:
            decimal(raw, "n")
        assert str(info.value) == f"n {raw!r} is not an integer"
    # both trace formats read their integers by it
    (a,) = parse_str(HEADER + ROW.replace("10,100,", "007,0100,"))
    (b,) = parse_str(jsonl_row(timestamp="007", block="0100"), "jsonl")
    assert (a.timestamp, a.block) == (b.timestamp, b.block) == (7, 100)
    for text, fmt in ((HEADER + ROW.replace("10,100,", "-5,100,"), "csv"), (jsonl_row(timestamp="-5"), "jsonl")):
        with pytest.raises(MalformedRow, match="^line [12]: negative timestamp or block$"):
            parse_str(text, fmt)


def test_real_is_the_one_float_rule():
    spellings = ("0.3", "-0.5", "5", "5.", ".5", "1e-05", "1.23457e+06", "2E3", "-0", 0.25)
    assert [real(raw, "x") for raw in spellings] == [0.3, -0.5, 5.0, 5.0, 0.5, 1e-05, 1234570.0, 2000.0, 0.0, 0.25]
    for raw in ("1_0.5", " 0.3", "0.3 ", "\u0661.5", "+1", "nan", "inf", "-inf", "1e999", ".", "", "e5", "1e", "0x1",
                math.nan, math.inf, 5, True, None):
        with pytest.raises(ValueError) as info:
            real(raw, "x")
        assert str(info.value) == f"x {raw!r} is not a finite decimal"


@pytest.mark.parametrize(
    "field, message",
    [
        # a bare "\r" reaches the reader inside a line only from a stream;
        # files are opened so that it ends the line
        ("tx\rx", "new-line character seen in unquoted field"),
        ("x" * (csv.field_size_limit() + 1), f"field larger than field limit ({csv.field_size_limit()})"),
    ],
    ids=["bare-cr", "oversize"],
)
def test_csv_reader_error_is_malformed_row(caplog, field, message):
    text = HEADER + ROW + f"11,100,{A1},account,{A2},contract,transfer,{field}\n" + ROW.replace("10,", "12,", 1)
    with pytest.raises(MalformedRow) as info:
        parse_str(text)
    assert info.value.line_no == 3 and info.value.reason.startswith(message)
    # lenient parsing goes on at the next line, and line numbers stay right
    stats = ParseStats()
    records = parse_str(text + "1,2,3\n", strict=False, stats=stats)
    assert [r.timestamp for r in records] == [10, 12]
    assert stats.skipped == 2
    skipped = [rec.getMessage() for rec in caplog.records]
    assert len(skipped) == 2 and skipped[0].startswith(f"skipping row: line 3: {message}")
    assert skipped[1] == "skipping row: line 5: expected 8 fields, got 3"


def test_header_the_reader_cannot_split_is_malformed():
    text = "x" * (csv.field_size_limit() + 1) + "\n" + ROW
    for strict in (True, False):  # a bad header ends the parse in either mode
        with pytest.raises(MalformedRow) as info:
            parse_str(text, strict=strict)
        assert str(info.value) == f"line 1: field larger than field limit ({csv.field_size_limit()})"


def single_reader_parse(stream, strict=True, stats=None):
    """The CSV branch of ``parse_trace`` as it was when one ``csv.reader``
    read every line: the oracle of the reader that splits plain lines itself."""
    if stats is None:
        stats = ParseStats()

    def rows():
        reader = csv.reader(stream)
        try:
            header = next(reader)
        except StopIteration:
            return
        if [h.strip().lower() for h in header] != CSV_HEADER:
            raise MalformedRow(1, f"bad header {header!r}, expected {','.join(CSV_HEADER)}")
        while True:
            try:
                for row in reader:
                    if not row:
                        continue
                    if len(row) != len(CSV_HEADER):
                        yield reader.line_num, f"expected {len(CSV_HEADER)} fields, got {len(row)}"
                        continue
                    yield reader.line_num, row
                return
            except csv.Error as exc:  # the reader goes on at the next line
                yield reader.line_num, str(exc)

    names = {}
    last_block = last_timestamp = -1
    for line_no, fields in rows():
        try:
            if type(fields) is str:
                raise MalformedRow(line_no, fields)
            record = _record_from_fields(fields, line_no, names)
            if record.block < last_block:
                raise OutOfOrderBlock(line_no, record.block, last_block)
            if record.timestamp < last_timestamp:
                raise OutOfOrderTimestamp(line_no, record.timestamp, last_timestamp)
        except TraceError:
            if strict:
                raise
            stats.skipped += 1
            continue
        last_block = record.block
        last_timestamp = record.timestamp
        yield record


def parse_outcome(parse, lines, strict):
    """Records and skip count of a parse, or the type, message and line of its error."""
    stats = ParseStats()
    try:
        records = list(parse(lines, strict=strict, stats=stats))
    except TraceError as exc:
        return type(exc), str(exc), exc.line_no
    return records, stats.skipped


def assert_csv_reader_matches_single_reader(body, limit):
    """``parse_trace`` reads HEADER + ``body`` as one ``csv.reader`` did, under
    field size limit ``limit``: from a stream, and from lists of lines split
    at line feeds only or at carriage returns only, so that a line may hold
    the other one inside."""
    text = HEADER + body
    old_limit = csv.field_size_limit(limit)
    try:
        for lines in (
            lambda: io.StringIO(text, newline=""),
            lambda: list(io.StringIO(text, newline="\n")),
            lambda: [HEADER] + re.findall("[^\r]*\r|[^\r]+", body),
        ):
            for strict in (True, False):
                got = parse_outcome(parse_trace, lines(), strict)
                assert got == parse_outcome(single_reader_parse, lines(), strict)
    finally:
        csv.field_size_limit(old_limit)


# A row that parses, and one whose quoted fields need the csv module and span
# two lines ("\r\n" inside its tx_id).
QUOTED_ROW = f'10,100,"{A1}",account,{A2},contract,transfer,"t,""\r\nx"\n'

CSV_EDGE_CASES = [
    ("", 131072),
    (ROW + QUOTED_ROW + ROW, 131072),
    (ROW + QUOTED_ROW + ROW, 45),  # every row over the limit goes to csv; no field is over it
    (ROW + ROW, len(ROW)),  # a line exactly as long as the limit
    (ROW + ROW, len(ROW) - 1),
    (ROW + ROW, 39),  # the addresses are over the limit
    ("\n\r\n\r" + ROW + "\r\r\n\n", 131072),  # blank lines of every line end
    ("\n" * 20, 9),  # a blank line over the limit
    ("a,1\n", 9),
    (' a, "1" ,\n', 131072),  # a quote after a space is an ordinary character
    ('"a\n', 131072),  # a quoted field open at the end of the input
    ('"a\n' + ROW, 131072),  # ... takes the rows after it in
    ('a"b\n' + ROW, 131072),  # a quote inside an unquoted field
    ('"a"b,1\n' + ROW, 131072),  # text after a closing quote
    ("a\rb\n" + ROW, 131072),  # a carriage return inside a line
    ('"a\rb"\n' + ROW, 131072),
    ("a\0b\n" + ROW, 131072),  # NUL: an error under Python 3.10, a character from 3.11
    ('"a\0b\n' + ROW, 131072),
    ("aaaaaaaaaa,1\n" + ROW, 9),  # a field over the limit
    ("a" * 10 + "\n" + ROW, 9),  # ... the line's only field
    ("a" * 9 + "\n" + ROW, 9),  # a field as long as the limit
    ("a" * 10, 9),  # a line one over the limit, with no line end
    ('"aaaaaaaaaa"\n' + ROW, 9),
    ('"aaaa\naaaaaa"\n' + ROW, 9),  # ... over two lines
    ("1\r", 131072),  # the input ends with a bare carriage return
    (ROW.rstrip("\n"), 131072),  # ... with no line end at all
]


@pytest.mark.parametrize("body, limit", CSV_EDGE_CASES)
def test_csv_reader_matches_single_reader_on_edge_cases(body, limit):
    assert_csv_reader_matches_single_reader(body, limit)


@given(
    st.lists(st.sampled_from(["a", "1", ",", '"', "\r", "\n", "\0", " ", ROW, QUOTED_ROW]), max_size=40).map("".join),
    st.integers(min_value=9, max_value=130),  # 9: the longest header field
)
def test_csv_reader_matches_single_reader(body, limit):
    assert_csv_reader_matches_single_reader(body, limit)


def per_row_checked(rows, strict, stats, skipped):
    """Records of ``(line number, field values or error)`` rows, each checked
    by ``_record_from_fields`` and the order test: the per-row path alone.
    Each skipped row's warning goes to ``skipped``."""
    if stats is None:
        stats = ParseStats()
    names = {}
    last_block = last_timestamp = -1
    for line_no, fields in rows:
        try:
            if type(fields) is str:
                raise MalformedRow(line_no, fields)
            record = _record_from_fields(fields, line_no, names)
            if record.block < last_block:
                raise OutOfOrderBlock(line_no, record.block, last_block)
            if record.timestamp < last_timestamp:
                raise OutOfOrderTimestamp(line_no, record.timestamp, last_timestamp)
        except TraceError as exc:
            if strict:
                raise
            stats.skipped += 1
            if skipped is not None:
                skipped.append(f"skipping row: {exc}")
            continue
        last_block = record.block
        last_timestamp = record.timestamp
        yield record


def per_row_parse(stream, strict=True, stats=None, skipped=None):
    """The CSV branch of ``parse_trace`` as it was before plain lines went
    through one loop: every row, split at its commas or read by
    ``csv.reader``, then checked by ``per_row_checked``. The oracle of the
    one loop on CSV."""

    def rows():
        lines = iter(stream)
        limit = csv.field_size_limit()

        def csv_row(line):
            reader = csv.reader(itertools.chain((line,), lines))
            try:
                return next(reader), reader.line_num
            except csv.Error as exc:
                return str(exc), reader.line_num

        first = next(lines, None)
        if first is None:
            return
        header, line_no = csv_row(first)
        if type(header) is str:
            raise MalformedRow(1, header)
        if [h.strip().lower() for h in header] != CSV_HEADER:
            raise MalformedRow(1, f"bad header {header!r}, expected {','.join(CSV_HEADER)}")
        for line in lines:
            text = line.rstrip("\r\n")
            if '"' in text or "\0" in text or "\r" in text or "\n" in text or len(line) > limit:
                row, n = csv_row(line)
                line_no += n
                if type(row) is str:
                    yield line_no, row
                    continue
            else:
                line_no += 1
                row = text.split(",") if text else []
            if not row:
                continue
            if len(row) != len(CSV_HEADER):
                yield line_no, f"expected {len(CSV_HEADER)} fields, got {len(row)}"
                continue
            yield line_no, row

    return per_row_checked(rows(), strict, stats, skipped)


def per_row_jsonl_parse(stream, strict=True, stats=None, skipped=None):
    """The JSONL branch of ``parse_trace`` as it was before canonical lines
    went through the one loop: every line JSON-decoded, then checked by
    ``per_row_checked``. The oracle of the one loop on JSONL."""

    def rows():
        decode = json.JSONDecoder().raw_decode
        for line_no, line in enumerate(stream, start=1):
            try:
                obj, end = decode(line)
                decoded = not line[end:].strip(" \t\n\r")
            except ValueError:
                decoded = False
            if not decoded:
                if not line.strip():
                    continue
                try:
                    obj = json.loads(line)
                except json.JSONDecodeError as exc:
                    yield line_no, f"bad json: {exc}"
                    continue
            if not isinstance(obj, dict):
                yield line_no, "record is not an object"
                continue
            try:
                fields = tuple(obj[key] for key in CSV_HEADER)
            except KeyError as exc:
                fields = str(exc)
            yield line_no, fields

    return per_row_checked(rows(), strict, stats, skipped)


def full_outcome(parse, lines, strict, fmt="csv"):
    """What a parse gives: its records, which of their addresses are one
    object, and in lenient mode its skip count and the warning of each
    skipped row; or the type, message and line of its error."""
    stats = ParseStats()
    skipped = []
    if parse is parse_trace:
        handler = logging.Handler()
        handler.emit = lambda rec: skipped.append(rec.getMessage())
        logger = logging.getLogger("shardsim.trace")
        logger.addHandler(handler)
        run = lambda: list(parse_trace(lines, fmt, strict=strict, stats=stats))  # noqa: E731
    else:
        handler = None
        run = lambda: list(parse(lines, strict=strict, stats=stats, skipped=skipped))  # noqa: E731
    try:
        records = run()
    except TraceError as exc:
        return type(exc), str(exc), exc.line_no
    finally:
        if handler is not None:
            logger.removeHandler(handler)
    objects = {}
    shared = [objects.setdefault(id(a), len(objects)) for r in records for a in (r.src, r.dst)]
    return records, shared, stats.skipped, skipped


def assert_one_loop_matches_per_row(text, limit=131072, fmt="csv"):
    """``parse_trace`` reads ``text`` as the per-row parser of ``fmt`` does
    under field size limit ``limit``: from a stream, and from lists of lines
    split at line feeds only or at carriage returns only."""
    oracle = per_row_parse if fmt == "csv" else per_row_jsonl_parse
    old_limit = csv.field_size_limit(limit)
    try:
        for lines in (
            lambda: io.StringIO(text, newline=""),
            lambda: list(io.StringIO(text, newline="\n")),
            lambda: re.findall("[^\r]*\r|[^\r]+", text),
        ):
            for strict in (True, False):
                assert full_outcome(parse_trace, lines(), strict, fmt) == full_outcome(oracle, lines(), strict)
    finally:
        csv.field_size_limit(old_limit)


A4 = "ab" * 20
ADDRESS_SPELLINGS = [
    A1, A2, A3, A4,
    "0x" + A1, A2.upper(), "0X" + A3.upper(), " " + A1, A2 + " ", f'"{A3}"', f'"0x{A4}"',
    A1[:-1], "0x" + A2 + "0", "x" * 40,
]
KIND_SPELLINGS = ["account", "contract", "Account", " contract", "CONTRACT ", "acount", '"account"', ""]
CALL_SPELLINGS = [
    "transfer", "contractcall", "contract_call", "contractcreate", "contract_create",
    "Transfer", " contractcall", "CONTRACTCREATE", "call", '"transfer"',
]
TX_SPELLINGS = ["tx1", "tx2", "t", "", '"t,x"', '"a""b"', '"x\ny"', "x\0y", "\ufefft", "t" * 150]


@st.composite
def integer_spellings(draw, value):
    """``value`` as a CSV field: mostly its digits, sometimes another spelling."""
    return draw(st.sampled_from([str(value)] * 6 + [
        f" {value}", f"{value} ", f"+{value}", f"{value:_}", f"-{value}", f"{value}.0", f'"{value}"', "x", "",
        "9" * 150, "\u0661\u0662",
    ]))


ARABIC_INDIC = str.maketrans("0123456789", "".join(map(chr, range(0x660, 0x66A))))


def non_plain_integers(value):
    """Spellings of ``value`` (at least 10) that ``int`` reads as ``value``
    but the integer rule does not: only the one loop's guard keeps a row that
    holds one off the one loop."""
    digits = str(value)
    return [f"+{digits}", f"{digits[:1]}_{digits[1:]}", digits.translate(ARABIC_INDIC), f" {digits}", f"{digits} "]


@st.composite
def csv_traces(draw):
    """A header and rows mixing plain lines of known spellings with every
    kind of line the one loop hands to the per-row path."""
    out = [draw(st.sampled_from(["", "", "", "\ufeff"])) + ",".join(CSV_HEADER) + "\n"]
    timestamp = block = top_timestamp = top_block = 10
    for _ in range(draw(st.integers(0, 16))):
        kind = draw(st.sampled_from(
            ["plain"] * 3 + ["fuzzed"] * 3 + ["spelled"] * 2 + ["first-seen-out-of-order", "blank", "count"]
        ))
        timestamp += draw(st.integers(-2, 4))
        block += draw(st.integers(-2, 3))
        top_timestamp, top_block = max(top_timestamp, timestamp), max(top_block, block)
        end = draw(st.sampled_from(["\n", "\n", "\r\n", "\r"]))
        if kind == "blank":
            out.append(end)
            continue
        fields = [str(timestamp), str(block), draw(st.sampled_from([A1, A2, A3])), "account",
                  draw(st.sampled_from([A1, A2, A3])), "contract", draw(st.sampled_from(CALL_SPELLINGS[:5])), "tx1"]
        if kind == "fuzzed":  # one or two fields spelled another way
            spellings = [
                integer_spellings(timestamp),
                integer_spellings(block),
                st.sampled_from(ADDRESS_SPELLINGS),
                st.sampled_from(KIND_SPELLINGS),
                st.sampled_from(ADDRESS_SPELLINGS),
                st.sampled_from(KIND_SPELLINGS),
                st.sampled_from(CALL_SPELLINGS),
                st.sampled_from(TX_SPELLINGS),
            ]
            for i in draw(st.lists(st.integers(0, 7), min_size=1, max_size=2)):
                fields[i] = draw(spellings[i])
        elif kind == "spelled":
            # a plain row at the highest values so far, then the same row, in
            # order on the addresses it taught, with a non-plain integer
            fields[:2] = str(top_timestamp), str(top_block)
            out.append(",".join(fields) + end)
            i = draw(st.sampled_from([0, 1]))
            fields[i] = draw(st.sampled_from(non_plain_integers(int(fields[i]))))
        elif kind == "first-seen-out-of-order":
            # a row with an address not seen before, then one that goes back in time
            fields[2] = draw(st.sampled_from(["0x" + A4, A4, A4.upper()]))
            out.append(",".join(fields) + end)
            fields[draw(st.sampled_from([0, 1]))] = str(draw(st.integers(0, 9)))
        elif kind == "count":
            fields = fields[: draw(st.sampled_from([1, 7]))] + draw(st.sampled_from([[], ["", "x"]]))
        out.append(",".join(fields) + end)
    text = "".join(out)
    if text.endswith("\n") and draw(st.booleans()):
        text = text.rstrip("\r\n")  # no line end after the last row
    return text


ONE_LOOP_EDGE_CASES = [
    HEADER + ROW * 3,
    HEADER + ROW.replace("\n", "\r\n") * 2,
    HEADER + ROW + f"11,101,0x{A3},account,{A3},contract,transfer,tx2\n" + ROW,  # first-seen, then back in time
    HEADER + ROW + f"11,99,{A3},account,{A1},contract,transfer,tx2\n" + ROW.replace("10,100", "12,101"),
    HEADER + f"-1,100,{A1},account,{A2},contract,transfer,tx1\n" + ROW,
    # lenient mode skips the first row, but its addresses are seen
    HEADER + f"-5,100,{A1},account,{A2},contract,transfer,tx1\n" + f"-1,100,{A1},account,{A2},contract,transfer,tx1\n" + ROW,
    HEADER + f"5,-5,{A1},account,{A2},contract,transfer,tx1\n" + f"5,-1,{A1},account,{A2},contract,transfer,tx1\n" + ROW,
    HEADER + ROW + ROW.replace(",tx1", ","),  # empty tx_id
    HEADER + ROW + ROW.replace("contract,contractcall", "account,contractcreate"),
    HEADER + ROW + ROW.replace("tx1", '"tx1"'),  # every field as the plain line's, through csv
    HEADER + ROW + ROW.replace(f",{A2},", f",{A2.upper()},"),
    HEADER + ROW + ROW.replace(",account,", ",Account,"),  # known addresses, a cased kind
    # known addresses, integers that int() reads but that are not plain decimals
    HEADER + ROW + ROW.replace("10,100,", "+11,101,") + ROW.replace("10,100,", "11,1_01,"),
    HEADER + ROW + ROW.replace("10,100,", "\u0661\u0661,101,") + ROW.replace("10,100,", " 11,101 ,"),
]


@pytest.mark.parametrize("text", ONE_LOOP_EDGE_CASES)
def test_one_loop_matches_per_row_parse_on_edge_cases(text):
    assert_one_loop_matches_per_row(text, 131072)


@settings(max_examples=300, deadline=None)
@given(csv_traces(), st.sampled_from([131072, 131072, 160, 100, 45]))
def test_one_loop_matches_per_row_parse(text, limit):
    assert_one_loop_matches_per_row(text, limit)


def jsonl_line(tokens, keys=CSV_HEADER, comma=",", colon=":"):
    """A JSON object of the JSON texts ``tokens`` under ``keys``, in that order."""
    return "{" + comma.join(f'"{key}"{colon}{tokens[key]}' for key in keys) + "}"


def jsonl_integers(value):
    """JSON texts of ``value``: mostly its digits, sometimes another spelling."""
    return [str(value)] * 4 + [
        f"0{value}", f"-{value}", f"{value}.0", f"{value}e0", "true", "null", f'"{value}"', f'" {value}"',
        '"\u0661\u0662"', "[1]",
    ]


# JSON texts of each field: the spelling serialize_trace writes first
JSONL_SPELLINGS = {
    "from": [json.dumps(a) for a in (A1, A4, "0x" + A1, A2.upper(), " " + A1, A1[:-1], "x" * 40)]
    + ["5", "null", '"\\u0038' + A1[1:] + '"'],
    "from_kind": [
        '"account"', '"contract"', '"Account"', '"CONTRACT"', '"acount"', '"\\u0061ccount"', "5", "null", '""',
    ],
    "call_kind": [json.dumps(c) for c in CALL_SPELLINGS] + ["5", "null", '"contract\\u0063all"'],
    "tx_id": ['"tx1"', '"t"', '""', "null", "7", '"t,x"', '"t\\"x"', '"\\u00e9"', '"\u00e9"', '"t\x01"', '"t\x1f"',
              '"t\x7f"', '"\ud800"'],
}
JSONL_SPELLINGS.update(to=JSONL_SPELLINGS["from"], to_kind=JSONL_SPELLINGS["from_kind"])

# texts after the closing brace: JSON whitespace, and characters that are not
TRAILERS = ["", "", "", " ", "\t", "\f", "\xa0"]


def jsonl_non_canonical(tokens):
    """One change to the canonical tokens of an accepted row that the pattern
    must not take: with it, a broken pattern would read a value the JSON
    decoder reads otherwise or not at all."""
    return [
        ("timestamp", f"0{tokens['timestamp']}"),
        ("block", f"0{tokens['block']}"),
        ("tx_id", '"t\\"x"'),
        ("tx_id", '"\\u00e9"'),
        ("tx_id", '"t\\\\x"'),
        ("tx_id", '"t\x01"'),
        ("from_kind", '"\\u0061ccount"'),
        ("trailer", "\f"),
        ("trailer", "\xa0"),
    ]


@st.composite
def jsonl_traces(draw):
    """JSONL lines mixing the canonical shape with every kind of line the
    pattern hands to the per-row path: other layouts, escapes, bad values,
    first-seen addresses, out-of-order rows, blank lines and line ends."""
    out = []
    timestamp = block = top_timestamp = top_block = 10
    for _ in range(draw(st.integers(0, 16))):
        kind = draw(st.sampled_from(
            ["canonical"] * 3 + ["fuzzed"] * 3 + ["layout"] * 2 + ["spelled"] * 2
            + ["first-seen-out-of-order", "blank", "not-a-record"]
        ))
        timestamp += draw(st.integers(-2, 4))
        block += draw(st.integers(-2, 3))
        top_timestamp, top_block = max(top_timestamp, timestamp), max(top_block, block)
        end = draw(st.sampled_from(["\n", "\n", "\r\n", "\r"]))
        if kind == "blank":
            out.append(draw(st.sampled_from(["", " ", "\t "])) + end)
            continue
        if kind == "not-a-record":
            out.append(draw(st.sampled_from(["[]", "5", "{", '{"timestamp":1}', "{}x"])) + end)
            continue
        tokens = {
            "timestamp": str(timestamp), "block": str(block), "from": json.dumps(draw(st.sampled_from([A1, A2, A3]))),
            "from_kind": '"account"', "to": json.dumps(draw(st.sampled_from([A1, A2, A3]))), "to_kind": '"contract"',
            "call_kind": json.dumps(draw(st.sampled_from(CALL_SPELLINGS[:5]))), "tx_id": '"tx1"',
        }
        keys, comma, colon, trailer = CSV_HEADER, ",", ":", ""
        if kind == "fuzzed":  # one or two fields spelled another way
            for key in draw(st.lists(st.sampled_from(CSV_HEADER), min_size=1, max_size=2)):
                spellings = jsonl_integers(tokens[key]) if key in ("timestamp", "block") else JSONL_SPELLINGS[key]
                tokens[key] = draw(st.sampled_from(spellings))
        elif kind == "layout":  # the canonical values, spaced, reordered or with extra keys
            comma, colon = draw(st.sampled_from([(",", ":"), (", ", ": "), (",", ": "), (" ,", ":")]))
            keys = draw(st.sampled_from([CSV_HEADER, CSV_HEADER[::-1], CSV_HEADER[1:] + CSV_HEADER[:1]]))
            tokens["x"] = "1"
            keys = keys + draw(st.sampled_from([[], ["x"], ["tx_id"]]))  # a repeated key: the last one counts
            trailer = draw(st.sampled_from(TRAILERS))
        elif kind == "spelled":
            # a canonical row at the highest values so far, then the same row,
            # in order on the addresses it taught, changed in one place
            tokens.update(timestamp=str(top_timestamp), block=str(top_block))
            out.append(jsonl_line(tokens) + end)
            key, text = draw(st.sampled_from(jsonl_non_canonical(tokens)))
            if key == "trailer":
                trailer = text
            else:
                tokens[key] = text
        elif kind == "first-seen-out-of-order":
            # a row with an address not seen before, then one that goes back in time
            tokens["from"] = json.dumps(draw(st.sampled_from(["0x" + A4, A4, A4.upper()])))
            out.append(jsonl_line(tokens) + end)
            tokens[draw(st.sampled_from(["timestamp", "block"]))] = str(draw(st.integers(0, 9)))
        out.append(jsonl_line(tokens, keys, comma, colon) + trailer + end)
    text = "".join(out)
    if text.endswith("\n") and draw(st.booleans()):
        text = text.rstrip("\r\n")  # no line end after the last row
    return text


JL = serialize_trace(parse_str(HEADER + ROW), "jsonl")  # ROW as a canonical JSONL line
JSONL_ONE_LOOP_EDGE_CASES = [
    JL * 3,
    JL.replace("\n", "\r\n") * 2,
    JL + JL.rstrip("\n"),
    JL + JL.replace(":", ": "),
    JL + JL.replace(f'"to":"{A2}"', f'"to":"{A3}"') + JL.replace('"block":100', '"block":99'),  # first-seen, then back
    # after a line of the same addresses: what the pattern must leave to the JSON decoder
    JL + JL.replace('"timestamp":10', '"timestamp":010') + JL.replace('"block":100', '"block":0100'),
    JL + JL.replace('"tx1"', '"t\\u00e9"') + JL.replace('"tx1"', '"t\\"1"') + JL.replace('"tx1"', '"t\x011"'),
    JL + JL.replace("}\n", "}\f\n") + JL.replace("}\n", "} \n"),
    JL + JL.replace('"tx1"', '""')
    + JL.replace('"contract","call_kind":"contractcall"', '"account","call_kind":"contractcreate"'),
]


@pytest.mark.parametrize("text", JSONL_ONE_LOOP_EDGE_CASES)
def test_jsonl_one_loop_matches_per_row_parse_on_edge_cases(text):
    assert_one_loop_matches_per_row(text, fmt="jsonl")


@settings(max_examples=300, deadline=None)
@given(jsonl_traces())
def test_jsonl_one_loop_matches_per_row_parse(text):
    assert_one_loop_matches_per_row(text, fmt="jsonl")


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_a_clean_trace_never_takes_the_per_row_path(monkeypatch, fmt):
    # a broken pattern or guard, or a loop that does not learn new addresses,
    # would send rows down the per-row path and still give the same records:
    # count the rows that reach it
    spec = WorkloadSpec(vertices=60, communities=3, duration=86400, records_per_hour=80, rewire_at=0.5)
    records, _ = generate_workload(spec, seed=5)
    reached = []

    def spy(fields, line_no, names):
        reached.append(line_no)
        return _record_from_fields(fields, line_no, names)

    monkeypatch.setattr(trace_module, "_record_from_fields", spy)
    text = serialize_trace(records, fmt)
    assert parse_str(text, fmt) == records
    assert reached == []
    # rows the loop leaves to it: a kind of another spelling, and a CSV
    # timestamp that int() reads but the integer rule does not
    last = dataclasses.replace(records[-1], src_kind=VertexKind.ACCOUNT)
    row = serialize_trace([last], fmt).splitlines()[-1]
    extra = [row.replace("account", " Account", 1)] + (["+" + row] if fmt == "csv" else [])
    stats = ParseStats()
    assert parse_str(text + "\n".join(extra) + "\n", fmt, strict=False, stats=stats) == records + [last]
    assert stats.skipped == len(extra) - 1
    n = len(text.splitlines())
    assert reached == [n + 1, n + 2][: len(extra)]
