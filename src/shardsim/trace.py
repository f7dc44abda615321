"""Parsing and validation of transaction trace files.

Canonical trace formats:

* CSV with header ``timestamp,block,from,from_kind,to,to_kind,call_kind,tx_id``
* JSONL, one object per line with the same keys

Addresses are 40 hex digits (an optional ``0x`` prefix is stripped and the
string lowercased on input). Blocks and timestamps must not decrease from
row to row. A timestamp or block is a string of a plain decimal integer
(``decimal``: an optional ``-`` and the digits 0-9) or, in JSONL, an integer
(not a boolean or a float). In JSONL ``tx_id`` must not be null; in either
format it must not be empty. ``.gz`` files are decompressed transparently.

A CSV field is written in double quotes, inner quotes doubled, when it holds
a comma, a quote, a carriage return or a line feed, as ``csv`` reads it back.
Trace files are read and written with line ends untranslated, so a line break
inside a quoted field survives a round trip.

A CSV line is split at its commas directly unless it holds a double quote or
a NUL, holds a carriage return or line feed anywhere but in its line end, or
is longer than ``csv.field_size_limit()`` (read once per parse); those lines,
the lines a quoted field on them runs on into, and the header are read by
``csv.reader``. A JSONL line in the exact shape ``serialize_trace`` writes
(``_CANONICAL_JSONL``: keys in header order without spaces, integers without
a sign or leading zero, 40-hex-digit addresses, strings without escapes or
control characters) is read by one pattern; any other JSONL line is decoded
once by ``json.loads``. The fields of a split ASCII line or a pattern-read
line are read by table lookups, the same for both formats, when its
timestamp and block are the digits 0-9, its ``tx_id`` is not empty, its kinds
are exact lowercase spellings and its addresses are valid (one seen for the
first time is read by the address rule and remembered): every row of a
``synth`` trace is. The fields of any other row take the per-row path,
``_read_fields``, which reads each by its rule and names the first error.
Every row then passes the same record checks (no negative timestamp or
block, a ``contractcreate`` targets a contract, blocks and timestamps do not
decrease). Routes and paths give the same records, errors, line numbers and
skip counts, so the result never depends on which a line takes.
"""

from __future__ import annotations

import csv
import gc
import gzip
import io
import itertools
import json
import logging
import math
import re
from contextlib import contextmanager
from dataclasses import dataclass
from enum import Enum
from json.encoder import encode_basestring_ascii
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


# Field value -> member, for the exact spellings table lookups read.
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


_HEX40 = re.compile("[0-9a-f]{40}")
_DECIMAL = re.compile("-?[0-9]+")
_REAL = re.compile(r"-?([0-9]+\.?[0-9]*|\.[0-9]+)([eE][-+]?[0-9]+)?")

# A JSONL line in the shape serialize_trace writes: the eight keys in
# CSV_HEADER order with no spaces, integers with no sign or leading zero,
# addresses of 40 hex digits, and strings with no escape or control
# character, so that the text of each group is the field's JSON value.
_STRING = r'"([^"\\\x00-\x1f]*)"'
_CANONICAL_JSONL = re.compile(
    r'\{"timestamp":(0|[1-9][0-9]*),"block":(0|[1-9][0-9]*),'
    rf'"from":"([0-9a-f]{{40}})","from_kind":{_STRING},"to":"([0-9a-f]{{40}})","to_kind":{_STRING},'
    rf'"call_kind":{_STRING},"tx_id":{_STRING}\}}\r?\n?'
)


def decimal(raw: object, name: str) -> int:
    """The one integer rule: an int (not a bool) as it is, or a string of an
    optional ``-`` and the digits 0-9; anything else is a ValueError naming ``name``."""
    if type(raw) is int:
        return raw
    if type(raw) is str and _DECIMAL.fullmatch(raw):
        return int(raw)
    raise ValueError(f"{name} {raw!r} is not an integer")


def real(raw: object, name: str) -> float:
    """The one float rule: a finite float as it is, or a string of an optional
    ``-``, the digits 0-9 with at most one ``.`` among them and an optional
    exponent (``e``, a sign, digits) whose value is finite; anything else is a
    ValueError naming ``name``."""
    if type(raw) is float or (type(raw) is str and _REAL.fullmatch(raw)):
        value = float(raw)
        if math.isfinite(value):
            return value
    raise ValueError(f"{name} {raw!r} is not a finite decimal")


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


@contextmanager
def gc_paused() -> Iterator[None]:
    """Pause the cyclic collector, then restore its state: a list of records grows
    under it, and each collection would rescan records that are in no cycle."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


@dataclass
class ParseStats:
    skipped: int = 0


def _kind(kind: type[Enum], raw: object):
    """The one kind rule: the member of ``kind`` whose value is ``raw`` as a
    string, stripped and lowercased; a ValueError otherwise."""
    return kind(str(raw).strip().lower())


def _address(spelling: str, names: dict[str, str]) -> str:
    """The one address rule: canonical address of ``spelling`` as one shared
    string, or a ValueError.

    ``names`` maps every spelling seen so far in a parse to the shared string
    of its canonical address, so equal addresses come out as the same object.
    The per-row path reads every address with it; table lookups read a
    repeated spelling with ``names.get`` alone and call it on a miss.
    """
    address = names.get(spelling)
    if address is None:
        address = canonical_address(spelling)
        address = names[spelling] = names.setdefault(address, address)
    return address


def _read_fields(fields: Sequence, line_no: int, names: dict[str, str]) -> tuple:
    """The eight values of one row's fields, in ``CSV_HEADER`` order, each
    read by its rule."""
    timestamp, block, src, src_kind, dst, dst_kind, call_kind, tx_id = fields
    try:
        timestamp, block = decimal(timestamp, "timestamp"), decimal(block, "block")
        src, dst = _address(str(src), names), _address(str(dst), names)
        src_kind, dst_kind = _kind(VertexKind, src_kind), _kind(VertexKind, dst_kind)
        if tx_id is None:
            raise ValueError("tx_id is null")
        tx_id = str(tx_id)
        if not tx_id:
            raise ValueError("tx_id is empty")
    except ValueError as exc:
        raise MalformedRow(line_no, str(exc)) from exc
    try:
        call_kind = _kind(CallKind, call_kind)
    except ValueError as exc:
        raise MalformedRow(line_no, f"unknown call kind {call_kind!r}") from exc
    return timestamp, block, src, src_kind, dst, dst_kind, call_kind, tx_id


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
    names: dict[str, str] = {}
    last_block = last_timestamp = 0  # a record with a negative block or timestamp is malformed
    lines = iter(stream)
    jsonl = format == "jsonl"
    if jsonl:
        line_no = 0
        canonical = _CANONICAL_JSONL.fullmatch
    else:
        limit = csv.field_size_limit()

        def csv_row(line: str) -> tuple[list[str] | str, int]:
            """The csv module's row starting at ``line``, or its error, and the
            number of lines the row took from ``lines``."""
            reader = csv.reader(itertools.chain((line,), lines))
            try:
                return next(reader), reader.line_num
            except csv.Error as exc:  # reading goes on at the next line
                return str(exc), reader.line_num

        first = next(lines, None)
        if first is None:
            return
        header, line_no = csv_row(first)
        if type(header) is str:
            raise MalformedRow(1, header)
        if [h.strip().lower() for h in header] != CSV_HEADER:
            raise MalformedRow(1, f"bad header {header!r}, expected {','.join(CSV_HEADER)}")
    create, contract = CallKind.CONTRACT_CREATE, VertexKind.CONTRACT
    for line in lines:
        # Each line gives a row (its field values, its error, or an empty
        # sequence when blank) and whether table lookups may read its fields: a
        # JSONL line the pattern read, or a CSV line split at its commas that
        # is ASCII, so that isdigit below means the digits 0-9.
        if jsonl:
            line_no += 1
            match = canonical(line)
            if match is None:
                row, plain = _jsonl_row(line), False
            else:
                row, plain = match.groups(), True
        else:
            text = line.rstrip("\r\n")
            # NUL goes to csv: Python 3.10's reader rejects it, 3.11's reads it
            if '"' in text or "\0" in text or "\r" in text or "\n" in text or len(line) > limit:
                row, n = csv_row(line)  # a row that spans lines is numbered by its last line
                line_no += n
                plain = False
            else:
                line_no += 1
                row, plain = (text.split(",") if text else []), text.isascii()
        if plain:
            # Table lookups, for both formats: eight field strings of exact
            # spellings, an address seen for the first time read by _address.
            # A row they cannot read goes to _read_fields below.
            try:
                timestamp, block, src, src_kind, dst, dst_kind, call_kind, tx_id = row
                if not (timestamp.isdigit() and block.isdigit() and tx_id):
                    raise ValueError  # not digits 0-9 alone, or no tx_id: _read_fields reads or names it
                timestamp, block = int(timestamp), int(block)
                src = names.get(src) or _address(src, names)
                dst = names.get(dst) or _address(dst, names)
                src_kind, dst_kind = _VERTEX_KINDS[src_kind], _VERTEX_KINDS[dst_kind]
                call_kind = _CALL_KINDS[call_kind]
            except (ValueError, KeyError):
                plain = False
        try:
            if not plain:
                if type(row) is str:
                    raise MalformedRow(line_no, row)
                if not row:
                    continue
                if len(row) != len(CSV_HEADER):
                    raise MalformedRow(line_no, f"expected {len(CSV_HEADER)} fields, got {len(row)}")
                timestamp, block, src, src_kind, dst, dst_kind, call_kind, tx_id = _read_fields(row, line_no, names)
            # The record checks, the same for every row whichever way it was read
            if timestamp < 0 or block < 0:
                raise MalformedRow(line_no, "negative timestamp or block")
            if call_kind is create and dst_kind is not contract:
                raise MalformedRow(line_no, "contractcreate target must be a contract")
            if block < last_block:
                raise OutOfOrderBlock(line_no, block, last_block)
            if timestamp < last_timestamp:
                raise OutOfOrderTimestamp(line_no, timestamp, last_timestamp)
        except TraceError as exc:
            if strict:
                raise
            stats.skipped += 1
            log.warning("skipping row: %s", exc)
            continue
        last_block, last_timestamp = block, timestamp
        yield TraceRecord(timestamp, block, src, src_kind, dst, dst_kind, call_kind, tx_id)


def _jsonl_row(line: str) -> Sequence | str:
    """Field values of one JSONL line, its error, or ``()`` when it is blank."""
    if not line.strip():
        return ()
    try:
        obj = json.loads(line)
    except (ValueError, RecursionError) as exc:  # bad JSON, an integer too long for int(), or nested too deep
        return f"bad json: {exc}"
    if not isinstance(obj, dict):
        return "record is not an object"
    try:
        return [obj[key] for key in CSV_HEADER]
    except KeyError as exc:
        return str(exc)


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
    # Each text ends in one join: the "" appended last puts the final line end
    # in it, where `+ "\n"` would copy the whole text once more.
    if format == "csv":
        # Only src, dst and tx_id can need quoting: ints and kind words never
        # do. So the lines are built with them as they are, and the text is
        # checked once: with no quote, no CR, and 7 commas and one line end
        # per line, no field held a character _csv_field quotes.
        records = list(records)  # the fallback reads them a second time
        lines = [",".join(CSV_HEADER)]
        lines += [
            f"{r.timestamp},{r.block},{r.src},{r.src_kind._value_},{r.dst},"
            f"{r.dst_kind._value_},{r.call_kind._value_},{r.tx_id}"
            for r in records
        ]
        lines.append("")
        text = "\n".join(lines)
        n = len(lines) - 1
        if '"' not in text and "\r" not in text and text.count(",") == 7 * n and text.count("\n") == n:
            return text
        lines[1:-1] = [
            f"{r.timestamp},{r.block},{_csv_field(r.src)},{r.src_kind._value_},{_csv_field(r.dst)},"
            f"{r.dst_kind._value_},{r.call_kind._value_},{_csv_field(r.tx_id)}"
            for r in records
        ]
        return "\n".join(lines)
    if format == "jsonl":
        # As json.JSONEncoder(separators=(",", ":")) writes the row dict:
        # strings ASCII-escaped, kind values (plain ASCII words) and ints as is.
        q = encode_basestring_ascii
        lines = [
            f'{{"timestamp":{r.timestamp},"block":{r.block},"from":{q(r.src)},"from_kind":"{r.src_kind._value_}",'
            f'"to":{q(r.dst)},"to_kind":"{r.dst_kind._value_}","call_kind":"{r.call_kind._value_}","tx_id":{q(r.tx_id)}}}'
            for r in records
        ]
        lines.append("")  # no records: "", as the join of [""]
        return "\n".join(lines)
    raise ValueError(f"unknown trace format {format!r}")


def infer_format(path: str) -> str:
    name = path[:-3] if path.endswith(".gz") else path
    if name.endswith(".jsonl") or name.endswith(".ndjson"):
        return "jsonl"
    return "csv"


def open_trace(path: str, mode: str = "r") -> IO[str]:
    """Open a file for reading (``"r"``) or writing (``"w"``) as UTF-8 text,
    gzip-compressed when its name ends in ``.gz``; every file shardsim reads
    or writes is opened here. Line ends are passed through untranslated, so a
    line break inside a quoted CSV field survives.

    Reading drops a byte-order mark at the start of the file. A written gzip
    header holds mtime 0, so the same text gives the same bytes."""
    if mode == "w" and path.endswith(".gz"):
        return io.TextIOWrapper(gzip.GzipFile(path, "wb", mtime=0), encoding="utf-8", newline="")
    opener = gzip.open if path.endswith(".gz") else open
    return opener(path, mode + "t", encoding="utf-8-sig" if mode == "r" else "utf-8", newline="")


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
