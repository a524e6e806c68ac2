"""The summary of ``scripts/bench_pairs.py``, on synthetic records: no
benchmark runs."""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
BENCHMARK = SCRIPT.parents[1] / "BENCHMARK.json"
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


# writes the marker of the module in its checkout's src into the output directory
STUB = ("import marker, pathlib, sys; out = pathlib.Path(sys.argv[-1]); "
        "(out / 'sub').mkdir(); (out / 'sub' / 'report.json').write_text(marker.VALUE)")


@pytest.mark.parametrize("markers,pairs_failed", [(("same", "same"), 0), (("one", "two"), 3)])
def test_a_command_target_hashes_each_sides_output(markers, pairs_failed, tmp_path,
                                                   monkeypatch):
    sides = []
    for name, marker in zip(("parent", "change"), markers):
        (tmp_path / name / "src").mkdir(parents=True)
        (tmp_path / name / "src" / "marker.py").write_text(f"VALUE = {marker!r}\n")
        sides.append(str(tmp_path / name))
    (tmp_path / "change" / "BENCHMARK.json").write_bytes(BENCHMARK.read_bytes())
    monkeypatch.setitem(bench_pairs.COMMANDS, "part2-t1", [sys.executable, "-c", STUB])
    out = tmp_path / "BENCH.json"
    assert bench_pairs.main([*sides, "--command", "part2-t1", "--pairs", "3",
                             "--out", str(out)]) == 0
    got = json.loads(out.read_text())["commands"]["part2-t1"]
    assert [pair["first"] for pair in got["pairs"]] == ["parent", "change", "parent"]
    assert got["summary"]["pairs"] == 3 and got["summary"]["pairs_failed"] == pairs_failed
    assert got["summary"]["failed"] == {"parent": 0, "change": 0}
    for pair in got["pairs"]:
        for side, marker in zip(("parent", "change"), markers):
            assert pair[side]["exit_code"] == 0 and pair[side]["metrics"]["wall_s"]["value"] > 0
            assert pair[side]["sha256"] == hashlib.sha256(
                f"sub/report.json\0{len(marker)}\0{marker}".encode()).hexdigest()


def test_a_failing_command_is_a_failed_run(tmp_path, monkeypatch):
    for name in ("parent", "change"):
        (tmp_path / name).mkdir()
    (tmp_path / "change" / "BENCHMARK.json").write_bytes(BENCHMARK.read_bytes())
    monkeypatch.setitem(bench_pairs.COMMANDS, "part2-t1",
                        [sys.executable, "-c", "import sys; sys.exit(3)"])
    out = tmp_path / "BENCH.json"
    bench_pairs.main([str(tmp_path / "parent"), str(tmp_path / "change"), "--command",
                      "part2-t1", "--pairs", "2", "--out", str(out)])
    got = json.loads(out.read_text())["commands"]["part2-t1"]
    assert got["summary"]["failed"] == {"parent": 2, "change": 2}
    # two failed runs write the same nothing, but the pair still failed
    assert got["summary"]["pairs_failed"] == 2
    assert got["pairs"][0]["parent"]["exit_code"] == 3


def test_a_command_takes_the_throughput_bound_of_the_benchmark():
    end_to_end = json.loads(BENCHMARK.read_text())["end_to_end"]
    bound = next(m["bound"] for m in end_to_end if m["name"] == "ops_per_s")
    rss_bound = next(m["bound"] for m in end_to_end if m["name"] == "peak_rss_mb")
    assert bench_pairs.command_metrics(end_to_end) == [
        {"name": "wall_s", "better": "lower", "bound": bound},
        {"name": "peak_rss_mb", "better": "lower", "bound": rss_bound}]
    halved = [{**m, "bound": m["bound"] / 2} for m in end_to_end]
    assert bench_pairs.command_metrics(halved)[0]["bound"] == bound / 2


def test_a_workload_needs_seeds(tmp_path):
    with pytest.raises(SystemExit):
        bench_pairs.main([str(tmp_path), str(tmp_path), "--workload", "mc_biv",
                          "--out", str(tmp_path / "x.json")])


def test_a_metric_is_summarised_over_the_pairs_where_both_sides_reported_it():
    pairs = [{"parent": record(100.0 + s, 100.0), "change": record(110.0 + s, 90.0)}
             for s in range(4)]
    pairs[1]["parent"] = {"failed": 1, "exit_code": 1, "metrics": {}}
    got = bench_pairs.summarize(pairs, METRICS)
    assert got["pairs"] == 4 and got["failed"] == {"parent": 1, "change": 0}
    assert got["ops_per_s"]["pairs"] == 3
    assert got["ops_per_s"]["parent_q1_median_q3"] == [101.0, 102.0, 102.5]
    assert got["ops_per_s"]["change_wins"] == 3 and got["ops_per_s"]["gain_shown"]
    # one pair gives no quartiles, and no verdict
    assert bench_pairs.summarize(pairs[:2], METRICS)["ops_per_s"] == {"better": "higher",
                                                                      "pairs": 1}


# a bench/run.py that exits 1 for seed 2 and reports 100 ops/s otherwise
FAILING_RUN = ("import json, sys\n"
               "if sys.argv[-1] == '2':\n"
               "    sys.exit(1)\n"
               "print(json.dumps({'failed': 0, 'metrics': {\n"
               "    'ops_per_s': {'value': 100.0, 'unit': '1/s'},\n"
               "    'p50_gmean_ms': {'value': 10.0, 'unit': 'ms'}}}))\n")


def test_a_workload_run_that_exits_nonzero_is_a_failed_run(tmp_path):
    for name in ("parent", "change"):
        (tmp_path / name / "bench").mkdir(parents=True)
    (tmp_path / "parent" / "bench" / "run.py").write_text(FAILING_RUN)
    (tmp_path / "change" / "bench" / "run.py").write_text(FAILING_RUN.replace("'2'", "'0'"))
    (tmp_path / "change" / "BENCHMARK.json").write_text(json.dumps({"end_to_end": METRICS}))
    out = tmp_path / "BENCH.json"
    assert bench_pairs.main([str(tmp_path / "parent"), str(tmp_path / "change"),
                             "--workload", "mc_biv", "--seeds", "1-4", "--out", str(out)]) == 0
    got = json.loads(out.read_text())["workloads"]["mc_biv"]
    assert got["pairs"][1]["parent"] == {"failed": 1, "exit_code": 1, "metrics": {}}
    assert got["summary"]["failed"] == {"parent": 1, "change": 0}
    assert got["summary"]["ops_per_s"]["pairs"] == 3
    assert got["summary"]["ops_per_s"]["within_bound"]


def test_the_output_holds_every_pair_run_before_a_series_breaks(tmp_path, monkeypatch):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({"end_to_end": METRICS}))

    def run_bench(root, workload, seed):
        if seed == 3:
            raise KeyboardInterrupt
        return record(100.0, 10.0)

    monkeypatch.setattr(bench_pairs, "run_bench", run_bench)
    out = tmp_path / "BENCH.json"
    with pytest.raises(KeyboardInterrupt):
        bench_pairs.main([str(tmp_path), str(tmp_path), "--workload", "mc_biv",
                          "--seeds", "1-5", "--out", str(out)])
    got = json.loads(out.read_text())["workloads"]["mc_biv"]
    assert [pair["seed"] for pair in got["pairs"]] == [1, 2]
    assert got["summary"]["pairs"] == 2


@pytest.mark.parametrize("target", [["--command", "part2-t1", "--pairs", "1"],
                                    ["--command", "part1", "--pairs", "0"],
                                    ["--workload", "mc_biv", "--seeds", "5-5"]])
def test_fewer_than_two_pairs_are_refused_before_any_run(target, tmp_path, monkeypatch):
    def run(*args):
        raise AssertionError("ran")

    monkeypatch.setattr(bench_pairs, "run_bench", run)
    monkeypatch.setattr(bench_pairs, "run_command", run)
    with pytest.raises(SystemExit):
        bench_pairs.main([str(tmp_path), str(tmp_path), *target,
                          "--out", str(tmp_path / "x.json")])
    assert not (tmp_path / "x.json").exists()


def test_a_command_run_records_its_own_peak_rss(tmp_path, monkeypatch):
    # the change holds 80 MB more than the parent: RUSAGE_CHILDREN of the
    # wrapper sees each run alone, so the two records differ by about that
    for name, size in (("parent", 0), ("change", 80_000_000)):
        (tmp_path / name / "src").mkdir(parents=True)
        (tmp_path / name / "src" / "marker.py").write_text(f"SIZE = {size}\n")
    (tmp_path / "change" / "BENCHMARK.json").write_bytes(BENCHMARK.read_bytes())
    monkeypatch.setitem(bench_pairs.COMMANDS, "part2-t1", [
        sys.executable, "-c", "import marker; b = bytearray(marker.SIZE); b[::4096] = b'1' * "
        "len(b[::4096])"])
    out = tmp_path / "BENCH.json"
    bench_pairs.main([str(tmp_path / "parent"), str(tmp_path / "change"), "--command",
                      "part2-t1", "--pairs", "2", "--out", str(out)])
    got = json.loads(out.read_text())["commands"]["part2-t1"]
    for pair in got["pairs"]:
        parent, change = (pair[side]["metrics"]["peak_rss_mb"]["value"]
                          for side in ("parent", "change"))
        assert 70.0 < change - parent < 90.0
    assert got["summary"]["peak_rss_mb"]["pairs"] == 2
    assert not got["summary"]["peak_rss_mb"]["within_bound"]


def run_stub_target(target, tmp_path, monkeypatch):
    """Two pairs of the command target ``target`` with its argv swapped for
    ``STUB``; the summary of the target."""
    sides = []
    for name in ("parent", "change"):
        (tmp_path / name / "src").mkdir(parents=True)
        (tmp_path / name / "src" / "marker.py").write_text("VALUE = 'same'\n")
        sides.append(str(tmp_path / name))
    (tmp_path / "change" / "BENCHMARK.json").write_bytes(BENCHMARK.read_bytes())
    monkeypatch.setitem(bench_pairs.COMMANDS, target, [sys.executable, "-c", STUB])
    out = tmp_path / "BENCH.json"
    bench_pairs.main([*sides, "--command", target, "--pairs", "2", "--out", str(out)])
    return json.loads(out.read_text())["commands"][target]["summary"]


def test_the_part1_target_runs_the_univariate_battery(tmp_path, monkeypatch):
    assert bench_pairs.COMMANDS["part1"][1:] == ["scripts/run_part1.py", "--out-dir"]
    summary = run_stub_target("part1", tmp_path, monkeypatch)
    assert summary["pairs_failed"] == 0 and summary["wall_s"]["pairs"] == 2


def test_the_part2_target_runs_the_bivariate_battery_at_its_defaults(tmp_path, monkeypatch):
    # no --threads: run_part2.py's own default, 4 workers
    assert bench_pairs.COMMANDS["part2"][1:] == ["scripts/run_part2.py", "--out-dir"]
    summary = run_stub_target("part2", tmp_path, monkeypatch)
    assert summary["pairs_failed"] == 0 and summary["wall_s"]["pairs"] == 2
