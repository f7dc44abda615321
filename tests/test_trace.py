import csv
import gzip
import io
import json
import math

import pytest
from hypothesis import given, strategies as st

from shardsim.trace import (
    CSV_HEADER,
    CallKind,
    MalformedRow,
    OutOfOrderBlock,
    OutOfOrderTimestamp,
    ParseStats,
    TraceRecord,
    VertexKind,
    canonical_address,
    infer_format,
    open_trace,
    parse_trace,
    read_trace,
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
         "line 2: invalid literal for int() with base 10: '1x'"),
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
    ({"block": "1.5"}, "line 1: invalid literal for int() with base 10: '1.5'"),
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
