"""Parsing and validation of transaction trace files.

Canonical trace formats:

* CSV with header ``timestamp,block,from,from_kind,to,to_kind,call_kind,tx_id``
* JSONL, one object per line with the same keys

Addresses are 40 hex digits (an optional ``0x`` prefix is stripped and the
string lowercased on input). Blocks and timestamps must not decrease from
row to row. In JSONL, a timestamp or block is an integer (not a boolean or a
float) or a string holding one, and ``tx_id`` must not be null. ``tx_id``
must not be empty in either format. ``.gz`` files are decompressed
transparently.

A CSV field is written in double quotes, inner quotes doubled, when it holds
a comma, a quote, a carriage return or a line feed, as ``csv`` reads it back.
Trace files are read and written with line ends untranslated, so a line break
inside a quoted field survives a round trip.
"""

from __future__ import annotations

import csv
import gzip
import json
import logging
import operator
import re
from dataclasses import dataclass, field
from enum import Enum
from typing import IO, Iterable, Iterator, Sequence

log = logging.getLogger(__name__)

CSV_HEADER = ["timestamp", "block", "from", "from_kind", "to", "to_kind", "call_kind", "tx_id"]


class VertexKind(Enum):
    ACCOUNT = "account"
    CONTRACT = "contract"


class CallKind(Enum):
    """Call kind of a record. Input also accepts ``contract_call`` and
    ``contract_create``; traces are written with the values below."""

    TRANSFER = "transfer"
    CONTRACT_CALL = "contractcall"
    CONTRACT_CREATE = "contractcreate"

    @classmethod
    def _missing_(cls, value: object) -> "CallKind | None":
        return _CALL_KINDS.get(value)  # type: ignore[arg-type]


# The field values of a JSONL object in CSV_HEADER order, as a tuple.
_jsonl_fields = operator.itemgetter(*CSV_HEADER)

# Field value -> member, for the parser's exact-spelling fast path.
_VERTEX_KINDS = {kind.value: kind for kind in VertexKind}
_CALL_KINDS = {
    **{kind.value: kind for kind in CallKind},
    "contract_call": CallKind.CONTRACT_CALL,
    "contract_create": CallKind.CONTRACT_CREATE,
}


class TraceError(Exception):
    """Base class for trace parsing/validation failures."""


class MalformedRow(TraceError):
    def __init__(self, line_no: int, reason: str):
        super().__init__(f"line {line_no}: {reason}")
        self.line_no = line_no
        self.reason = reason


class OutOfOrderBlock(TraceError):
    def __init__(self, line_no: int, block: int, previous: int):
        super().__init__(f"line {line_no}: block {block} after block {previous}")
        self.line_no = line_no
        self.block = block
        self.previous = previous


class OutOfOrderTimestamp(TraceError):
    def __init__(self, line_no: int, timestamp: int, previous: int):
        super().__init__(f"line {line_no}: timestamp {timestamp} after timestamp {previous}")
        self.line_no = line_no
        self.timestamp = timestamp
        self.previous = previous


class KindConflict(TraceError):
    def __init__(self, vertex: str, seen: "VertexKind", now: "VertexKind"):
        super().__init__(f"vertex {vertex} seen as {seen.value}, now {now.value}")
        self.vertex = vertex


class UseBeforeCreate(TraceError):
    def __init__(self, vertex: str):
        super().__init__(f"contract {vertex} used before its create record")
        self.vertex = vertex


_HEX40 = re.compile("[0-9a-f]{40}")


def canonical_address(raw: str) -> str:
    """Lowercase 40-hex-digit form of an address; raises ValueError otherwise."""
    s = raw.strip().lower()
    if s.startswith("0x"):
        s = s[2:]
    if not _HEX40.fullmatch(s):
        raise ValueError(f"address {raw!r} is not 40 hex digits")
    return s


@dataclass
class TraceRecord:
    """One caller->callee interaction extracted from a transaction."""

    # Slotted and mutable, so cheap to build; tests take weak references.
    __slots__ = ("timestamp", "block", "src", "src_kind", "dst", "dst_kind", "call_kind", "tx_id", "__weakref__")
    timestamp: int
    block: int
    src: str
    src_kind: VertexKind
    dst: str
    dst_kind: VertexKind
    call_kind: CallKind
    tx_id: str


@dataclass
class ParseStats:
    data_rows: int = 0
    yielded: int = 0
    skipped: int = 0
    warnings: int = 0


def _kind(kind: type[Enum], raw: object):
    """Member of ``kind`` for a field value the exact-spelling tables miss:
    case, spaces and non-strings go through ``kind`` itself."""
    return kind(str(raw).strip().lower())


def _address(spelling: str, names: dict[str, str]) -> str:
    """Canonical address of ``spelling`` as one shared string.

    ``names`` maps every spelling seen so far in a parse to the shared string
    of its canonical address, so a repeated spelling costs one lookup and
    equal addresses come out as the same object.
    """
    address = names.get(spelling)
    if address is None:
        address = canonical_address(spelling)
        address = names[spelling] = names.setdefault(address, address)
    return address


def _integer(raw: object, name: str) -> int:
    """A timestamp or block given as a non-string: it must be an int."""
    if type(raw) is not int:  # bool is a subclass of int, so it fails too
        raise ValueError(f"{name} {raw!r} is not an integer")
    return raw


def _record_from_fields(fields: Sequence, line_no: int, names: dict[str, str]) -> TraceRecord:
    """Record of the eight field values of one row, in ``CSV_HEADER`` order.

    String fields, which every CSV field and most JSONL fields are, take the
    table lookups inline; a miss or any other value takes the slow path.
    """
    timestamp, block, src, src_kind, dst, dst_kind, call_kind, tx_id = fields
    try:
        timestamp = int(timestamp) if type(timestamp) is str else _integer(timestamp, "timestamp")
        block = int(block) if type(block) is str else _integer(block, "block")
        src = (type(src) is str and names.get(src)) or _address(str(src), names)
        dst = (type(dst) is str and names.get(dst)) or _address(str(dst), names)
        src_kind = (type(src_kind) is str and _VERTEX_KINDS.get(src_kind)) or _kind(VertexKind, src_kind)
        dst_kind = (type(dst_kind) is str and _VERTEX_KINDS.get(dst_kind)) or _kind(VertexKind, dst_kind)
        if tx_id is None:
            raise ValueError("tx_id is null")
        tx_id = str(tx_id)
        if not tx_id:
            raise ValueError("tx_id is empty")
    except ValueError as exc:
        raise MalformedRow(line_no, str(exc)) from exc
    try:
        call_kind = (type(call_kind) is str and _CALL_KINDS.get(call_kind)) or _kind(CallKind, call_kind)
    except ValueError as exc:
        raise MalformedRow(line_no, f"unknown call kind {call_kind!r}") from exc
    if timestamp < 0 or block < 0:
        raise MalformedRow(line_no, "negative timestamp or block")
    if call_kind is CallKind.CONTRACT_CREATE and dst_kind is not VertexKind.CONTRACT:
        raise MalformedRow(line_no, "contractcreate target must be a contract")
    return TraceRecord(timestamp, block, src, src_kind, dst, dst_kind, call_kind, tx_id)


def parse_trace(
    stream: IO[str],
    format: str = "csv",
    strict: bool = True,
    stats: ParseStats | None = None,
) -> Iterator[TraceRecord]:
    """Yield records from a CSV or JSONL trace stream in file order.

    In strict mode any malformed row or decreasing block number or timestamp
    aborts; in lenient mode bad rows are skipped and counted in ``stats``.
    Equal addresses come out as one shared string per parse.
    """
    if format not in ("csv", "jsonl"):
        raise ValueError(f"unknown trace format {format!r}")
    if stats is None:
        stats = ParseStats()

    def rows() -> Iterator[tuple[int, Sequence | str]]:
        """Line number and field values of each row, or the row's error."""
        if format == "csv":
            reader = csv.reader(stream)
            try:
                header = next(reader)
            except StopIteration:
                return
            if [h.strip().lower() for h in header] != CSV_HEADER:
                raise MalformedRow(1, f"bad header {header!r}, expected {','.join(CSV_HEADER)}")
            line_no = 1
            while True:
                try:
                    for row in reader:
                        line_no += 1
                        if not row:
                            continue
                        if len(row) != len(CSV_HEADER):
                            yield line_no, f"expected {len(CSV_HEADER)} fields, got {len(row)}"
                            continue
                        yield line_no, row
                    return
                except csv.Error as exc:  # the reader goes on at the next line
                    line_no += 1
                    yield line_no, str(exc)
        else:
            for line_no, line in enumerate(stream, start=1):
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
                    fields = _jsonl_fields(obj)
                except KeyError as exc:
                    fields = str(exc)
                yield line_no, fields

    names: dict[str, str] = {}
    last_block = last_timestamp = -1
    for line_no, fields in rows():
        stats.data_rows += 1
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
            log.warning("skipping row: %s", exc)
            continue
        last_block = record.block
        last_timestamp = record.timestamp
        stats.yielded += 1
        yield record


def _csv_field(text: str) -> str:
    """``text`` as a CSV field, quoted the way ``csv`` quotes (inner quotes
    doubled) when it holds a comma, a quote or a line break."""
    if "," in text or '"' in text or "\n" in text or "\r" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def serialize_trace(records: Iterable[TraceRecord], format: str = "csv") -> str:
    """Inverse of parse_trace on canonical records (round-trip identity)."""
    # Kinds are read through ``_value_``, a plain attribute: ``.value`` is a
    # property, and hashing a member calls the Python-level Enum.__hash__.
    if format == "csv":
        lines = [",".join(CSV_HEADER)]
        append = lines.append
        for r in records:
            append(
                f"{r.timestamp},{r.block},{_csv_field(r.src)},{r.src_kind._value_},{_csv_field(r.dst)},"
                f"{r.dst_kind._value_},{r.call_kind._value_},{_csv_field(r.tx_id)}"
            )
        return "\n".join(lines) + "\n"
    if format == "jsonl":
        encode = json.JSONEncoder(separators=(",", ":")).encode
        lines = [
            encode(
                {
                    "timestamp": r.timestamp,
                    "block": r.block,
                    "from": r.src,
                    "from_kind": r.src_kind._value_,
                    "to": r.dst,
                    "to_kind": r.dst_kind._value_,
                    "call_kind": r.call_kind._value_,
                    "tx_id": r.tx_id,
                }
            )
            for r in records
        ]
        return "\n".join(lines) + ("\n" if lines else "")
    raise ValueError(f"unknown trace format {format!r}")


def infer_format(path: str) -> str:
    name = path[:-3] if path.endswith(".gz") else path
    if name.endswith(".jsonl") or name.endswith(".ndjson"):
        return "jsonl"
    return "csv"


def open_trace(path: str, mode: str = "r") -> IO[str]:
    """Open a trace file for reading (``"r"``) or writing (``"w"``) as UTF-8
    text, gzip-compressed when its name ends in ``.gz``. Line ends are passed
    through untranslated, so a line break inside a quoted CSV field survives."""
    opener = gzip.open if path.endswith(".gz") else open
    return opener(path, mode + "t", encoding="utf-8", newline="")


def read_trace(
    path: str,
    format: str | None = None,
    strict: bool = True,
    stats: ParseStats | None = None,
) -> Iterator[TraceRecord]:
    """Open a trace file (gzip by extension) and yield its records."""
    fmt = format or infer_format(path)
    with open_trace(path) as fh:
        yield from parse_trace(fh, fmt, strict=strict, stats=stats)


def validate_kinds(
    records: Iterable[TraceRecord],
    strict: bool = True,
    stats: ParseStats | None = None,
) -> Iterator[TraceRecord]:
    """Check full-trace kind invariants while passing records through.

    Every vertex must keep a single kind, and a contract's create record must
    precede any other use of it. In lenient mode violations are logged as
    warnings (real chains can break the assumptions at fork boundaries).
    """
    kinds: dict[str, VertexKind] = {}
    created: set[str] = set()
    seen: set[str] = set()
    for r in records:
        for vertex, kind in ((r.src, r.src_kind), (r.dst, r.dst_kind)):
            prior = kinds.get(vertex)
            if prior is None:
                kinds[vertex] = kind
            elif prior is not kind:
                err = KindConflict(vertex, prior, kind)
                if strict:
                    raise err
                if stats is not None:
                    stats.warnings += 1
                log.warning("%s", err)
        if r.call_kind is CallKind.CONTRACT_CREATE:
            if r.dst in seen:
                err = UseBeforeCreate(r.dst)
                if strict:
                    raise err
                if stats is not None:
                    stats.warnings += 1
                log.warning("%s", err)
            created.add(r.dst)
        seen.add(r.src)
        seen.add(r.dst)
        yield r
