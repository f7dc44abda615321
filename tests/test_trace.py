import gzip
import io

import pytest
from hypothesis import given, strategies as st

from shardsim.trace import (
    CSV_HEADER,
    CallKind,
    KindConflict,
    MalformedRow,
    OutOfOrderBlock,
    ParseStats,
    TraceRecord,
    UseBeforeCreate,
    VertexKind,
    canonical_address,
    infer_format,
    parse_trace,
    read_trace,
    serialize_trace,
    validate_kinds,
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
    assert stats.skipped + stats.yielded == stats.data_rows == 4


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
    tx_id=st.text(alphabet="abcdef0123456789x", min_size=1, max_size=16),
)


@given(st.lists(records_strategy, max_size=20), st.sampled_from(["csv", "jsonl"]))
def test_roundtrip_identity(records, fmt):
    assert parse_str(serialize_trace(records, fmt), fmt) == records


def test_gzip_and_format_inference(tmp_path):
    records = parse_str(CSV_TEXT)
    path = tmp_path / "trace.csv.gz"
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        fh.write(CSV_TEXT)
    assert infer_format(str(path)) == "csv"
    assert list(read_trace(str(path))) == records


def test_canonical_address_rejects_bad():
    with pytest.raises(ValueError):
        canonical_address("1234")
    with pytest.raises(ValueError):
        canonical_address("zz" * 20)
    assert canonical_address("0x" + A1.upper()) == A1


def make(src, src_kind, dst, dst_kind, call, block):
    return TraceRecord(block, block, src, src_kind, dst, dst_kind, call, f"tx{block}")


def test_validate_kinds_conflict():
    recs = [
        make(A1, VertexKind.ACCOUNT, A2, VertexKind.CONTRACT, CallKind.CONTRACT_CALL, 1),
        make(A2, VertexKind.ACCOUNT, A3, VertexKind.ACCOUNT, CallKind.TRANSFER, 2),
    ]
    with pytest.raises(KindConflict):
        list(validate_kinds(recs))


def test_validate_kinds_create_before_use_ok():
    recs = [
        make(A1, VertexKind.ACCOUNT, A2, VertexKind.CONTRACT, CallKind.CONTRACT_CREATE, 5),
        make(A1, VertexKind.ACCOUNT, A2, VertexKind.CONTRACT, CallKind.CONTRACT_CALL, 6),
    ]
    assert list(validate_kinds(recs)) == recs


def test_validate_kinds_use_before_create():
    recs = [
        make(A1, VertexKind.ACCOUNT, A2, VertexKind.CONTRACT, CallKind.CONTRACT_CALL, 4),
        make(A1, VertexKind.ACCOUNT, A2, VertexKind.CONTRACT, CallKind.CONTRACT_CREATE, 5),
    ]
    with pytest.raises(UseBeforeCreate):
        list(validate_kinds(recs))
    stats = ParseStats()
    assert list(validate_kinds(recs, strict=False, stats=stats)) == recs
    assert stats.warnings == 1
