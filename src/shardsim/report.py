"""Result serialization and summary statistics.

One row per metric window, its columns named by ``SAMPLE_COLUMNS`` in that
order (a stable order), their types by ``COLUMN_READERS``.

Floats are serialized with 6 significant digits using round-half-even, so
identical replays produce byte-identical files.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from functools import partial
from typing import Iterable, Sequence

from shardsim.metrics import MetricSample, normalized_balance
from shardsim.trace import decimal, open_trace, real

SAMPLE_COLUMNS = [
    "window_start",
    "static_edge_cut",
    "dynamic_edge_cut",
    "static_balance",
    "dynamic_balance",
    "normalized_dynamic_balance",
    "moves",
    "repartitioned",
]


def _read_bool(text: str) -> bool:
    """``true`` or ``false``, as ``sample_row`` writes them; anything else raises ValueError."""
    if text not in ("true", "false"):
        raise ValueError(f"not true or false: {text!r}")
    return text == "true"


# The typed value of each column from its CSV text, in SAMPLE_COLUMNS order.
METRIC_COLUMNS = SAMPLE_COLUMNS[1:6]
COLUMN_READERS = [partial(decimal, name="window_start"), *(partial(real, name=col) for col in METRIC_COLUMNS),
                  partial(decimal, name="moves"), _read_bool]


def fmt6(x: float) -> str:
    """6 significant digits, round-half-even (Python's float formatting)."""
    return format(float(x), ".6g")


def sample_row(s: MetricSample, k: int) -> list:
    return [
        s.window_start,
        fmt6(s.static_edge_cut),
        fmt6(s.dynamic_edge_cut),
        fmt6(s.static_balance),
        fmt6(s.dynamic_balance),
        fmt6(normalized_balance(s.dynamic_balance, k)),
        s.moves,
        "true" if s.repartitioned else "false",
    ]


def typed_row(row: Sequence) -> dict:
    """Column name -> typed value of one row in SAMPLE_COLUMNS order."""
    return {col: read(value) for col, read, value in zip(SAMPLE_COLUMNS, COLUMN_READERS, row)}


def samples_to_csv(samples: Iterable[MetricSample], k: int) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(SAMPLE_COLUMNS)
    for s in samples:
        writer.writerow(sample_row(s, k))
    return buf.getvalue()


def samples_to_json(samples: Iterable[MetricSample], k: int) -> str:
    """The CSV's rows as a JSON list of objects, each value read back from its text."""
    return json.dumps([typed_row(sample_row(s, k)) for s in samples], indent=2) + "\n"


def read_samples_csv(path: str) -> list[dict]:
    """Load a per-window CSV back into typed dicts (for summarize).

    Columns are found by header name. Raises ValueError when the header lacks
    a column, when a row has a field too few or too many or one that does not
    parse, or when the CSV reader cannot split a line (such as a field longer
    than ``csv.field_size_limit()``); blank lines are skipped.
    """
    out: list[dict] = []
    with open_trace(path) as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, [])
            missing = [col for col in SAMPLE_COLUMNS if col not in header]
            if missing:
                raise ValueError(f"missing columns: {', '.join(missing)}")
            index = [header.index(col) for col in SAMPLE_COLUMNS]
            for row in reader:
                if not row:
                    continue
                try:
                    if len(row) != len(header):
                        raise ValueError(f"expected {len(header)} fields, got {len(row)}")
                    out.append(typed_row([row[i] for i in index]))
                except ValueError as exc:
                    raise ValueError(f"line {reader.line_num}: {exc}") from None
        except csv.Error as exc:
            raise ValueError(f"line {reader.line_num}: {exc}") from None
    return out


@dataclass
class SummaryStats:
    min: float
    q1: float
    median: float
    q3: float
    max: float


class EmptySeries(ValueError):
    pass


def quantile(values: Sequence[float], p: float) -> float:
    """Quantile by linear interpolation between closest ranks.

    For sorted x[0..n-1] the p-quantile sits at index h = (n-1)*p, linearly
    interpolated between the surrounding ranks.
    """
    if not values:
        raise EmptySeries("cannot take a quantile of an empty series")
    xs = sorted(values)
    h = (len(xs) - 1) * p
    lo = int(h)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (h - lo) * (xs[hi] - xs[lo])


def summarize_series(values: Sequence[float]) -> SummaryStats:
    """Min, quartiles and max; an empty series raises EmptySeries."""
    return SummaryStats(*(quantile(values, p) for p in (0.0, 0.25, 0.5, 0.75, 1.0)))


def summarize(rows: Sequence[dict]) -> tuple[dict[str, SummaryStats], int]:
    """Per-metric five-number summaries plus total moves over a sample series."""
    if not rows:
        raise EmptySeries("no samples to summarize")
    stats = {col: summarize_series([r[col] for r in rows]) for col in METRIC_COLUMNS}
    total_moves = sum(r["moves"] for r in rows)
    return stats, total_moves


def format_summary(stats: dict[str, SummaryStats], total_moves: int) -> str:
    width = max(len(c) for c in METRIC_COLUMNS)
    lines = [f"{'metric':<{width}}  {'min':>10} {'q1':>10} {'median':>10} {'q3':>10} {'max':>10}"]
    for col in METRIC_COLUMNS:
        s = stats[col]
        lines.append(
            f"{col:<{width}}  {fmt6(s.min):>10} {fmt6(s.q1):>10} {fmt6(s.median):>10}"
            f" {fmt6(s.q3):>10} {fmt6(s.max):>10}"
        )
    lines.append(f"total_moves: {total_moves}")
    return "\n".join(lines) + "\n"
