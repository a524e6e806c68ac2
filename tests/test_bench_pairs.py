"""The summary of ``scripts/bench_pairs.py``, on synthetic records: no
benchmark runs."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

METRICS = [{"name": "ops_per_s", "better": "higher", "bound": 0.25},
           {"name": "p50_gmean_ms", "better": "lower", "bound": 0.25}]


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


def verdicts(parent, change, metric="ops_per_s"):
    """gain_shown and within_bound of one metric over pairs of its values."""
    pairs = [{"parent": record(p, p), "change": record(c, c)} for p, c in zip(parent, change)]
    got = bench_pairs.summarize(pairs, METRICS)[metric]
    return got["gain_shown"], got["within_bound"]


def test_a_gain_needs_nine_wins_in_ten_and_a_gain_beyond_the_spread():
    parent = [100.0 + s for s in range(10)]  # quartiles 102.25, 104.5, 106.75: spread 4.5
    # nine wins, the median gain 5 beyond the spread; then eight
    assert verdicts(parent, [p + 6.0 for p in parent[:9]] + [parent[9] - 1.0]) == (True, True)
    assert verdicts(parent, [p + 6.0 for p in parent[:8]] + parent[8:]) == (False, True)
    # ten wins, but the median gain 4 within the spread
    assert verdicts(parent, [p + 4.0 for p in parent]) == (False, True)
    # in the lower-is-better direction, a gain is a smaller value
    assert verdicts(parent, [p - 5.0 for p in parent], "p50_gmean_ms") == (True, True)
    assert verdicts(parent, [p + 5.0 for p in parent], "p50_gmean_ms") == (False, True)


def test_the_bound_is_a_fraction_of_the_parents_median():
    parent = [100.0] * 5
    assert verdicts(parent, [75.0] * 5) == (False, True)
    assert verdicts(parent, [74.0] * 5) == (False, False)
    assert verdicts(parent, [125.0] * 5, "p50_gmean_ms") == (False, True)
    assert verdicts(parent, [126.0] * 5, "p50_gmean_ms") == (False, False)


def test_a_run_keeps_the_detail_objects_printed_before_its_record(tmp_path):
    (tmp_path / "bench").mkdir()
    (tmp_path / "bench" / "run.py").write_text(
        "import json, sys\n"
        "print('workload=mc_biv seed=' + sys.argv[-1])\n"
        "print('  ops_per_s   286.9 1/s')\n"
        "print('  passes: 12')\n"
        "print('  case_p50_ms: ' + json.dumps({'a_interior': 61.5}))\n"
        "print('  FAILED gate replay.a {}')\n"
        "print(json.dumps({'correct': True, 'failed': 0, 'metrics': {}}))\n")
    got = bench_pairs.run_bench(tmp_path, "mc_biv", 7)
    assert got == {"correct": True, "failed": 0, "metrics": {},
                   "detail": {"case_p50_ms": {"a_interior": 61.5}}}
