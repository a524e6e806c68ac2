"""The summary of ``scripts/bench_pairs.py``, on synthetic records: no
benchmark runs."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

METRICS = [{"name": "ops_per_s", "better": "higher"}, {"name": "p50_gmean_ms", "better": "lower"}]


def record(ops, p50, failed=0):
    return {"failed": failed, "metrics": {"ops_per_s": {"value": ops, "unit": "1/s"},
                                          "p50_gmean_ms": {"value": p50, "unit": "ms"}}}


def test_summary_reads_each_metrics_direction():
    pairs = [{"seed": s, "parent": record(100.0 + s, 150.0 + s),
              "change": record(110.0 + s, 140.0 + s, failed=s == 2)} for s in range(5)]
    # a tie: neither side wins it
    pairs[4]["change"] = record(104.0, 154.0)
    got = bench_pairs.summarize(pairs, METRICS)
    assert got["pairs"] == 5 and got["failed"] == {"parent": 0, "change": 1}
    ops, p50 = got["ops_per_s"], got["p50_gmean_ms"]
    assert ops["parent_q1_median_q3"] == [101.0, 102.0, 103.0]
    assert ops["change_q1_median_q3"] == [110.0, 111.0, 112.0]
    assert ops["change_wins"] == 4 and p50["change_wins"] == 4
    assert ops["parent_quartile_spread"] == 2.0 == p50["parent_quartile_spread"]
    assert ops["median_gain"] == 9.0 and p50["median_gain"] == 10.0
    assert p50["change_over_parent"] == pytest.approx(142.0 / 152.0)


def test_a_slower_change_has_a_negative_gain():
    pairs = [{"parent": record(100.0, 100.0), "change": record(90.0, 120.0)}] * 3
    got = bench_pairs.summarize(pairs, METRICS)
    assert got["ops_per_s"]["median_gain"] == -10.0
    assert got["p50_gmean_ms"]["median_gain"] == -20.0
    assert got["ops_per_s"]["change_wins"] == 0 == got["p50_gmean_ms"]["change_wins"]


def test_seed_ranges_are_inclusive():
    assert bench_pairs.seed_range("2301-2310") == range(2301, 2311)
    assert bench_pairs.seed_range("7") == range(7, 8)
