import random

import numpy as np
import pytest

from shardsim.metrics import MetricSample
from shardsim.report import (
    EmptySeries,
    fmt6,
    quantile,
    read_samples_csv,
    samples_to_csv,
    samples_to_json,
    summarize,
    summarize_series,
)


def test_constant_series():
    s = summarize_series([0.7] * 9)
    assert s.min == s.q1 == s.median == s.q3 == s.max == 0.7


def test_two_point_series_median_interpolates():
    s = summarize_series([0.0, 1.0])
    assert s.min == 0.0 and s.max == 1.0 and s.median == 0.5


def test_empty_series_raises():
    with pytest.raises(EmptySeries):
        summarize_series([])
    with pytest.raises(EmptySeries):
        summarize([])


def test_quantiles_match_numpy_linear():
    rng = random.Random(55)
    values = [rng.random() for _ in range(1000)]
    for p in (0.0, 0.25, 0.5, 0.75, 1.0, 0.1, 0.9):
        assert quantile(values, p) == pytest.approx(float(np.quantile(values, p)), abs=1e-12)


def test_fmt6_six_significant_digits():
    assert fmt6(0.875) == "0.875"
    assert fmt6(1.0) == "1"
    assert fmt6(0.12345678) == "0.123457"
    assert fmt6(2 / 3) == "0.666667"


def make_samples():
    return [
        MetricSample(0, 0.2, 0.25, 1.1, 1.3, 0, False),
        MetricSample(14400, 0.3, 0.35, 1.2, 1.5, 7, True),
    ]


def test_csv_columns_and_roundtrip(tmp_path):
    text = samples_to_csv(make_samples(), k=2)
    header = text.splitlines()[0]
    assert header == (
        "window_start,static_edge_cut,dynamic_edge_cut,static_balance,"
        "dynamic_balance,normalized_dynamic_balance,moves,repartitioned"
    )
    path = tmp_path / "out.csv"
    path.write_text(text)
    rows = read_samples_csv(str(path))
    assert rows[1]["moves"] == 7 and rows[1]["repartitioned"] is True
    assert rows[0]["dynamic_balance"] == 1.3
    assert rows[1]["normalized_dynamic_balance"] == 0.5


def test_read_samples_csv_accepts_byte_order_mark(tmp_path):
    text = samples_to_csv(make_samples(), k=2)
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    plain.write_text(text, encoding="utf-8")
    marked.write_text(text, encoding="utf-8-sig")
    assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
    assert read_samples_csv(str(marked)) == read_samples_csv(str(plain))


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda header, first, second: ["window_start,moves", "0,1"],
         "missing columns: static_edge_cut, dynamic_edge_cut, static_balance, "
         "dynamic_balance, normalized_dynamic_balance, repartitioned"),
        (lambda header, first, second: [header, ",".join(first.split(",")[:6]), second],
         "line 2: expected 8 fields, got 6"),
        (lambda header, first, second: [header, first, second.replace(",0.3,", ",x,")],
         "line 3: could not convert string to float: 'x'"),
        (lambda header, first, second: [header, first, second.replace(",0.3,", "," + "9" * 131073 + ",")],
         "line 3: field larger than field limit (131072)"),
        (lambda header, first, second: ["x" * 131073, first],
         "line 1: field larger than field limit (131072)"),
    ],
    ids=["missing-columns", "short-row", "unparsable-field", "oversize-field", "oversize-header"],
)
def test_read_samples_csv_rejects_bad_file(tmp_path, edit, message):
    lines = edit(*samples_to_csv(make_samples(), k=2).splitlines())
    path = tmp_path / "bad.csv"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError) as info:
        read_samples_csv(str(path))
    assert str(info.value) == message


def test_json_mirrors_csv():
    import json

    rows = json.loads(samples_to_json(make_samples(), k=2))
    assert rows[0]["static_edge_cut"] == 0.2
    assert rows[1]["repartitioned"] is True
    assert set(rows[0]) == {
        "window_start",
        "static_edge_cut",
        "dynamic_edge_cut",
        "static_balance",
        "dynamic_balance",
        "normalized_dynamic_balance",
        "moves",
        "repartitioned",
    }


def test_summarize_totals():
    stats, total_moves = summarize(
        [
            {"static_edge_cut": 0.1, "dynamic_edge_cut": 0.2, "static_balance": 1.0,
             "dynamic_balance": 1.1, "normalized_dynamic_balance": 0.1, "moves": 3},
            {"static_edge_cut": 0.3, "dynamic_edge_cut": 0.4, "static_balance": 1.2,
             "dynamic_balance": 1.5, "normalized_dynamic_balance": 0.5, "moves": 4},
        ]
    )
    assert total_moves == 7
    assert stats["static_edge_cut"].median == pytest.approx(0.2)
    s = stats["dynamic_balance"]
    assert s.min <= s.q1 <= s.median <= s.q3 <= s.max
