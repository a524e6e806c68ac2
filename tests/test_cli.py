import argparse
import io
import json
import math
import os
import shutil
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest
import test_golden
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from cdsupport import (
    PART2_COV,
    PointSet,
    bootstrap_cloud,
    cli,
    direct_support,
    make_student_t_cd,
    p_multi,
    p_multi_max,
    parse_region,
)
from cdsupport.cli import load_region_config, main
from cdsupport.regions import number

SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_sample(path, values):
    path.write_text("\n".join(f"{v:.12f}" for v in values) + "\n")


@pytest.fixture
def sample_csv(tmp_path):
    rng = np.random.default_rng(2026)
    values = rng.standard_normal(200)
    path = tmp_path / "sample.csv"
    write_sample(path, values)
    return path, values


@pytest.fixture
def table1_csv(tmp_path, table1):
    path = tmp_path / "table1.csv"
    lines = ["x1,x2"] + [f"{a},{b}" for a, b in table1]
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.fixture
def rect_config(tmp_path):
    path = tmp_path / "region.cfg"
    path.write_text(
        "# model-validation acceptance box\n"
        "shape = rectangle\n"
        "lo = -0.154, -0.28\n"
        "hi = 0.154, 0.28\n"
    )
    return path


class TestPval:
    def test_half_line_matches_library(self, sample_csv, capsys):
        path, values = sample_csv
        code, out, _ = run_cli(
            ["pval", "--input", str(path), "--region", "[0,inf)", "--cd", "t"], capsys
        )
        assert code == 0
        report = json.loads(out)
        cd = make_student_t_cd(len(values), values.mean(), values.std(ddof=1))
        want = direct_support(cd, parse_region("[0,inf)"))
        assert report["p"] == pytest.approx(want, abs=1e-12)
        assert report["p"] == pytest.approx(1.0 - cd.cdf(0.0), abs=1e-12)
        assert report["schema"] == 1
        assert report["config"]["seed"] == 0
        assert report["n"] == 200

    def test_brace_region_is_parse_error(self, sample_csv, capsys):
        path, _ = sample_csv
        code, out, err = run_cli(
            ["pval", "--input", str(path), "--region", "{0.3}"], capsys
        )
        assert code == 1 and out == ""
        error = json.loads(err)["error"]
        assert error["category"] == "parse"
        assert "{0.3}" in error["message"]

    def test_union_region_lists_pieces(self, sample_csv, capsys):
        path, values = sample_csv
        code, out, _ = run_cli(
            ["pval", "--input", str(path), "--region", "[0,0.1];[0.5,0.6];[1,1.1]"],
            capsys,
        )
        assert code == 0
        report = json.loads(out)
        assert len(report["pieces"]) == 3
        fulls = [piece["full"] for piece in report["pieces"]]
        assert report["p"] == pytest.approx(max(fulls), abs=1e-15)

    def test_direct_method_prints_caution_on_narrow_piece(self, sample_csv, capsys):
        path, _ = sample_csv
        code, out, err = run_cli(
            ["pval", "--input", str(path), "--region", "[-0.01,0.01]",
             "--method", "direct"],
            capsys,
        )
        assert code == 0
        assert "caution" in json.loads(out)
        assert "caution" in err

    def test_nan_row_rejected(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        for bad, kind in (("nan", "NaN"), ("inf", "infinite"), ("-inf", "infinite")):
            path.write_text(f"1.0\n{bad}\n2.0\n")
            code, _, err = run_cli(["pval", "--input", str(path), "--region", "0"], capsys)
            assert code == 1
            assert json.loads(err)["error"] == {
                "category": "parse", "message": f"{path}:2: {kind} values are rejected"
            }

    def test_missing_file_is_io_error(self, tmp_path, capsys):
        code, _, err = run_cli(
            ["pval", "--input", str(tmp_path / "nope.csv"), "--region", "0"], capsys
        )
        assert code == 1
        assert json.loads(err)["error"]["category"] == "io"

    def test_header_after_blank_lines(self, tmp_path, capsys):
        # the first non-blank line is the optional header, wherever it starts
        path = tmp_path / "sample.csv"
        argv = ["pval", "--input", str(path), "--region", "[-0.2,0.4]"]
        outputs = []
        for text in ("\n\nx\n0.5\n-0.25\n\n1.5\n", "x\n0.5\n-0.25\n1.5\n"):
            path.write_text(text)
            outputs.append(run_cli(argv, capsys))
        assert outputs[0] == outputs[1]
        assert outputs[0][0] == 0 and json.loads(outputs[0][1])["n"] == 3

    def test_wrong_arity_rejected(self, tmp_path, capsys):
        path = tmp_path / "wide.csv"
        path.write_text("1.0,2.0\n")
        code, _, err = run_cli(["pval", "--input", str(path), "--region", "0"], capsys)
        assert code == 1
        assert json.loads(err)["error"]["category"] == "parse"


class TestPval2d:
    def test_reference_report(self, table1_csv, rect_config, capsys):
        code, out, _ = run_cli(
            ["pval2d", "--input", str(table1_csv), "--config", str(rect_config),
             "--depth", "mahalanobis", "--boot-reps", "2000", "--seed", "1"],
            capsys,
        )
        assert code == 0
        report = json.loads(out)
        assert report["m"] == 2000
        assert report["depth"] == "mahalanobis"
        assert report["p_multi"] == pytest.approx(
            min(report["esp"] + report["tail"], 1.0), abs=1e-15
        )
        assert 0.25 < report["p_multi"] < 0.55
        assert "p_max" in report  # rectangle corners are designated by default
        assert report["config"]["region"]["shape"] == "rectangle"

    def test_whole_plane_is_one(self, table1_csv, tmp_path, capsys):
        cfg = tmp_path / "plane.cfg"
        cfg.write_text("shape = rectangle\nlo = -inf, -inf\nhi = inf, inf\n")
        code, out, _ = run_cli(
            ["pval2d", "--input", str(table1_csv), "--config", str(cfg),
             "--boot-reps", "200"],
            capsys,
        )
        assert code == 0
        assert json.loads(out)["p_multi"] == 1.0

    def test_deterministic_bytes_across_runs(self, table1_csv, rect_config,
                                             tmp_path, capsys):
        # a larger cloud in between leaves other numbers in the kept work buffer
        blobs = []
        for reps in (500, 2000, 500):
            out_path = tmp_path / "report.json"
            code, _, _ = run_cli(
                ["pval2d", "--input", str(table1_csv), "--config", str(rect_config),
                 "--depth", "simplicial", "--boot-reps", str(reps), "--seed", "5",
                 "--out", str(out_path)],
                capsys,
            )
            assert code == 0
            blobs.append(out_path.read_bytes())
        assert blobs[0] == blobs[2] != blobs[1]

    def test_threads_flag_is_gone(self, table1_csv, rect_config, capsys):
        # depths run on the calling thread; only simulate counts workers
        with pytest.raises(SystemExit) as exit_info:
            main(["pval2d", "--input", str(table1_csv), "--config", str(rect_config),
                  "--threads", "2"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --threads 2" in capsys.readouterr().err

    def test_point_set_config_matches_library(self, table1, table1_csv, tmp_path, capsys):
        cfg = tmp_path / "points.cfg"
        cfg.write_text("shape = points\npoints = 0.1, 0.2 ; -0.05, 0.3\n")
        code, out, _ = run_cli(
            ["pval2d", "--input", str(table1_csv), "--config", str(cfg),
             "--depth", "simplicial", "--boot-reps", "300", "--seed", "2"],
            capsys,
        )
        assert code == 0
        report = json.loads(out)
        region = PointSet(points=[[0.1, 0.2], [-0.05, 0.3]])
        res = p_multi_max(bootstrap_cloud(table1, 300, seed=2), "simplicial", region)
        assert report["config"]["region"] == region.describe()
        assert (report["p_max"], report["corner_p"], report["p_multi"]) == (
            res.p, list(res.corner_p), res.base.p)
        assert (report["esp"], report["tail"], report["depth_floor"], report["floor_source"]) == (
            res.esp, res.tail, res.depth_floor, res.floor_source)

    def test_far_point_gets_a_mahalanobis_report(self, table1, table1_csv, tmp_path, capsys):
        # the quadratic form of (1e155, 1e155) overflows: its depth is 0.0,
        # where the report once held NaN and was refused
        cfg = tmp_path / "far.cfg"
        cfg.write_text("shape = points\npoints = 0,0; 1e155,1e155\n")
        code, out, _ = run_cli(
            ["pval2d", "--input", str(table1_csv), "--config", str(cfg),
             "--depth", "mahalanobis", "--boot-reps", "300", "--seed", "2"],
            capsys,
        )
        assert code == 0
        report = json.loads(out)
        region = PointSet(points=[[0.0, 0.0], [1e155, 1e155]])
        res = p_multi_max(bootstrap_cloud(table1, 300, seed=2), "mahalanobis", region)
        assert (report["p_max"], report["corner_p"], report["depth_floor"]) == (
            res.p, list(res.corner_p), res.depth_floor)
        assert report["corner_p"][1] == 0.0

    def test_quadrant_complement_config(self, table1_csv, tmp_path, capsys):
        cfg = tmp_path / "quad.cfg"
        cfg.write_text("shape = quadrant-complement\ncorner = 0, 0\ncorners = 0,0\n")
        code, out, _ = run_cli(
            ["pval2d", "--input", str(table1_csv), "--config", str(cfg),
             "--boot-reps", "300", "--seed", "2"],
            capsys,
        )
        assert code == 0
        report = json.loads(out)
        assert 0.0 <= report["p_multi"] <= 1.0
        assert len(report["corner_p"]) == 1


class TestBioeq:
    def test_reference_summary(self, capsys):
        code, out, _ = run_cli(
            ["bioeq", "--n1", "12", "--n2", "12", "--mean-t", "80.272",
             "--mean-r", "82.559", "--var-d", "83.623",
             "--lower", "-16.51", "--upper", "16.51"],
            capsys,
        )
        assert code == 0
        report = json.loads(out)
        assert report["p"] == pytest.approx(0.000479, abs=5e-5)
        assert report["p"] == max(report["lower_tail"], report["upper_tail"])
        assert report["df"] == 22
        assert report["equivalence_supported"]["0.05"] is True

    def test_symmetric_tails(self, capsys):
        code, out, _ = run_cli(
            ["bioeq", "--n1", "10", "--n2", "10", "--mean-t", "5", "--mean-r", "5",
             "--var-d", "4", "--lower", "-8", "--upper", "8"],
            capsys,
        )
        assert code == 0
        report = json.loads(out)
        assert report["lower_tail"] == pytest.approx(report["upper_tail"], abs=1e-12)

    def test_equal_limits_rejected(self, capsys):
        code, _, err = run_cli(
            ["bioeq", "--n1", "10", "--n2", "10", "--mean-t", "5", "--mean-r", "5",
             "--var-d", "4", "--lower", "1", "--upper", "1"],
            capsys,
        )
        assert code == 1
        assert json.loads(err)["error"]["category"] == "validation"


class TestSimulate:
    def test_writes_report_and_qq(self, tmp_path, capsys):
        out_path = tmp_path / "run.json"
        qq_path = tmp_path / "run.csv"
        code, _, _ = run_cli(
            ["simulate", "--region", "0", "--true-mean", "0", "--n", "60",
             "--reps", "60", "--cd", "z", "--seed", "4",
             "--out", str(out_path), "--qq-out", str(qq_path)],
            capsys,
        )
        assert code == 0
        report = json.loads(out_path.read_text())
        assert report["command"] == "simulate"
        assert report["config"]["seed"] == 4
        assert report["reps"] == 60
        assert 0.0 <= report["ks"] <= 1.0
        lines = qq_path.read_text().splitlines()
        assert lines[0] == "rank,empirical_p,uniform_quantile"
        assert len(lines) == 61

    def test_byte_identity_across_threads(self, tmp_path, capsys):
        blobs = []
        for threads in (1, 4, 8):
            out_path = tmp_path / "sim.json"
            code, _, _ = run_cli(
                ["simulate", "--region", "[-0.5,0.5]", "--true-mean", "0",
                 "--n", "50", "--reps", "50", "--seed", "8",
                 "--threads", str(threads), "--out", str(out_path)],
                capsys,
            )
            assert code == 0
            blobs.append(out_path.read_bytes())
        assert blobs[0] == blobs[1] == blobs[2]

    def test_bivariate_config_run(self, tmp_path, capsys):
        cfg = tmp_path / "caseb.cfg"
        cfg.write_text("shape = rectangle\nlo = -1, -4\nhi = 0, 4\n")
        out_path = tmp_path / "sim2d.json"
        code, _, _ = run_cli(
            ["simulate", "--config", str(cfg), "--true-mean", "0,0", "--n", "60",
             "--reps", "50", "--method", "multi", "--depth", "mahalanobis",
             "--boot-reps", "120", "--seed", "1", "--out", str(out_path)],
            capsys,
        )
        assert code == 0
        report = json.loads(out_path.read_text())
        assert report["config"]["cov"] == [[1.0, 0.8], [0.8, 4.0]]
        assert report["config"]["region"]["shape"] == "rectangle"

    def test_whole_line_report_reproducible_from_itself(self, capsys):
        argv = ["simulate", "--true-mean", "0", "--n", "50", "--reps", "50", "--seed", "3"]
        code, out, _ = run_cli(argv + ["--region", "(-inf,0];[0,inf)"], capsys)
        assert code == 0
        first = json.loads(out)
        assert first["config"]["region"] == "(-inf,inf)"
        code, out, _ = run_cli(argv + ["--region", first["config"]["region"]], capsys)
        assert code == 0
        assert json.loads(out) == first

    @pytest.mark.parametrize("argv,given,recorded", [
        (["--region", "0"], [], {"cd": "t", "depth": "simplicial"}),
        (["--region", "0"], ["--cd", "z"], {"cd": "z", "depth": "simplicial"}),
        (["--config", "{cfg}", "--true-mean", "0,0", "--method", "multi"], [],
         {"cd": "t", "depth": "simplicial"}),
        (["--config", "{cfg}", "--true-mean", "0,0", "--method", "multi"],
         ["--depth", "mahalanobis"], {"cd": "t", "depth": "mahalanobis"}),
    ])
    def test_report_records_given_options_and_defaults(self, argv, given, recorded, tmp_path,
                                                       capsys):
        cfg = tmp_path / "box.cfg"
        cfg.write_text("shape = rectangle\nlo = -1, -1\nhi = 1, 1\n")
        base = ["simulate", "--n", "20", "--reps", "50", "--boot-reps", "100"]
        code, out, _ = run_cli(base + [a.format(cfg=cfg) for a in argv] + given, capsys)
        assert code == 0
        config = json.loads(out)["config"]
        assert {key: config[key] for key in recorded} == recorded

    def test_missing_region_is_validation_error(self, capsys):
        code, _, err = run_cli(["simulate", "--true-mean", "0"], capsys)
        assert code == 1
        assert json.loads(err)["error"]["category"] == "validation"


def test_pval_report_reproducible_from_itself(sample_csv, capsys):
    path, _ = sample_csv
    code, out, _ = run_cli(
        ["pval", "--input", str(path), "--region", "[-0.2,0.4]"], capsys
    )
    assert code == 0
    first = json.loads(out)
    cfg = first["config"]
    code, out, _ = run_cli(
        ["pval", "--input", cfg["input"], "--region", cfg["region"],
         "--method", cfg["method"], "--cd", cfg["cd"],
         "--boot-reps", str(cfg["boot_reps"]), "--seed", str(cfg["seed"])],
        capsys,
    )
    assert code == 0
    assert json.loads(out) == first


# -- bad input -----------------------------------------------------------------

UNI = ["simulate", "--region", "0", "--n", "20", "--reps", "50"]
BIV = ["simulate", "--true-mean", "0,0", "--n", "20", "--reps", "50", "--boot-reps", "100"]
BIOEQ = ["bioeq", "--n1", "10", "--n2", "10", "--mean-t", "5", "--mean-r", "5"]
PVAL2D = ["pval2d", "--input", "{d}/table1.csv", "--boot-reps", "200", "--seed", "1"]

# (id, argv, category, message); "{d}" is the directory of the input files.
# Library errors reach stderr only through main, so their messages are pinned
# byte for byte.
BAD_INPUT = [
    ("uni-multi", UNI + ["--method", "multi"],
     "validation", "method 'multi' not valid for univariate runs"),
    ("uni-multi-max", UNI + ["--method", "multi-max"],
     "validation", "method 'multi-max' not valid for univariate runs"),
    ("uni-boot-reps", UNI + ["--boot-reps", "50"], "validation", "need boot_m >= 100, got 50"),
    ("uni-n", UNI + ["--n", "1"], "validation", "need n >= 2, got 1"),
    ("uni-reps", UNI + ["--reps", "10"], "validation", "need reps >= 50, got 10"),
    ("uni-true-mean", UNI + ["--true-mean", "1,2"],
     "validation", "univariate runs need a scalar --true-mean"),
    ("uni-seed", UNI + ["--seed", "-1"], "validation", "seed must be >= 0, got -1"),
    ("uni-threads", UNI + ["--threads", "-5"], "validation", "threads must be >= 1, got -5"),
    ("biv-threads", BIV + ["--config", "{d}/half.cfg", "--method", "multi", "--threads", "0"],
     "validation", "threads must be >= 1, got 0"),
    ("biv-pstar", BIV + ["--config", "{d}/half.cfg", "--method", "pstar"],
     "validation", "method 'p-star' not valid for bivariate runs"),
    ("biv-no-corners", BIV + ["--config", "{d}/half.cfg", "--method", "multi-max"],
     "validation",
     "replication rep=0 with seed (0, 0, 0) failed: region has no designated corner points"),
    ("bioeq-var-d", BIOEQ + ["--var-d", "-1", "--lower", "-8", "--upper", "8"],
     "validation", "pooled variance must be positive, got -1.0"),
    ("bioeq-limits", BIOEQ + ["--var-d", "4", "--lower", "1", "--upper", "1"],
     "validation", "equivalence limits must satisfy lower < upper, got [1.0, 1.0]"),
    ("pval2d-boot-reps", PVAL2D + ["--config", "{d}/half.cfg", "--boot-reps", "50"],
     "validation", "need reps >= 100, got 50"),
    ("inf-row", ["pval", "--input", "{d}/inf.csv", "--region", "0"],
     "parse", "{d}/inf.csv:2: infinite values are rejected"),
    ("pval2d-offset-text", PVAL2D + ["--config", "{d}/offset_text.cfg"],
     "parse", "config key 'offset': bad number in 'abc'"),
    ("pval2d-offset-pair", PVAL2D + ["--config", "{d}/offset_pair.cfg"],
     "parse", "config key 'offset': '1, 2' is not one number"),
    ("pval2d-ragged-cov", PVAL2D + ["--config", "{d}/ragged_cov.cfg"],
     "parse", "config key 'cov': rows of unequal length in '1,0 ; 0'"),
    ("biv-ragged-cov", BIV + ["--config", "{d}/ragged_cov.cfg", "--method", "multi"],
     "parse", "config key 'cov': rows of unequal length in '1,0 ; 0'"),
    ("pval2d-ragged-corners", PVAL2D + ["--config", "{d}/ragged_corners.cfg"],
     "parse", "config key 'corners': rows of unequal length in '0,0 ; 1'"),
    ("bioeq-mean-t-nan", BIOEQ + ["--mean-t", "nan", "--var-d", "4", "--lower", "-8",
                                  "--upper", "8"],
     "validation", "means must be finite, got mean_t=nan, mean_r=5.0"),
    ("bioeq-var-d-inf", BIOEQ + ["--var-d", "inf", "--lower", "-8", "--upper", "8"],
     "validation", "pooled variance must be finite, got inf"),
    ("bioeq-alphas-nan", BIOEQ + ["--var-d", "4", "--lower", "-8", "--upper", "8",
                                  "--alphas", "nan"],
     "validation", "--alphas must lie in (0, 1), got [nan]"),
    ("bioeq-out-missing-dir", BIOEQ + ["--var-d", "4", "--lower", "-8", "--upper", "8",
                                       "--out", "{d}/missing/report.json"],
     "io", "cannot write {d}/missing/report.json: [Errno 2] No such file or directory: "
           "'{d}/missing/report.json'"),
    ("pval2d-out-is-dir", PVAL2D + ["--config", "{d}/half.cfg", "--out", "{d}"],
     "io", "cannot write {d}: [Errno 21] Is a directory: '{d}'"),
    ("uni-qq-out-missing-dir", UNI + ["--qq-out", "{d}/missing/qq.csv"],
     "io", "cannot write {d}/missing/qq.csv: [Errno 2] No such file or directory: "
           "'{d}/missing/qq.csv'"),
    ("uni-out-missing-dir", UNI + ["--out", "{d}/missing/run.json"],
     "io", "cannot write {d}/missing/run.json.qq.csv: [Errno 2] No such file or directory: "
           "'{d}/missing/run.json.qq.csv'"),
    ("uni-true-mean-inf", UNI + ["--true-mean", "inf"],
     "validation", "true_mean must be finite, got inf"),
    ("uni-true-mean-nan", UNI + ["--true-mean", "nan"],
     "validation", "true_mean must be finite, got nan"),
    ("biv-true-mean-inf", BIV + ["--config", "{d}/half.cfg", "--method", "multi",
                                 "--true-mean", "0,inf"],
     "validation", "true_mean must be finite, got [0.0, inf]"),
    ("pval-bootstrap-seed", ["pval", "--input", "{d}/one.csv", "--region", "0", "--cd",
                             "bootstrap", "--seed", "-1"],
     "validation", "seed must be >= 0, got -1"),
    ("pval2d-seed", PVAL2D + ["--config", "{d}/half.cfg", "--seed", "-3"],
     "validation", "seed must be >= 0, got -3"),
    ("pval2d-overflow-mahalanobis", ["pval2d", "--input", "{d}/huge.csv", "--config",
                                     "{d}/half.cfg", "--boot-reps", "200"],
     "validation", "degenerate cloud: covariance is singular or ill-conditioned"),
] + [
    (f"pval-overflow-{cd}", ["pval", "--input", "{d}/big.csv", "--region", "[0,1]", "--cd", cd],
     "validation", "sample mean and sd must be finite, got mean=9.999999999999999e+198, sd=inf")
    for cd in ("t", "z", "bootstrap")
] + [
    (f"{cmd}-{k}d-{depth}", argv + ["--config", f"{{d}}/box{k}.cfg", "--depth", depth],
     "validation", message.format(k=k))
    for depth in ("mahalanobis", "simplicial")
    for k in (1, 3)
    for cmd, argv, message in (
        ("pval2d", PVAL2D, "region dimension {k} differs from the cloud's 2"),
        ("simulate", BIV + ["--method", "multi"], "bivariate runs need a 2-D region, not {k}-D"),
    )
] + [
    (f"pval-{cd}-seed", ["pval", "--input", "{d}/one.csv", "--region", "0", "--cd", cd,
                         "--seed", "-1"],
     "validation", "seed must be >= 0, got -1")
    for cd in ("t", "z")
] + [
    (f"pval-{cd}-boot-reps", ["pval", "--input", "{d}/one.csv", "--region", "0", "--cd", cd,
                              "--boot-reps", "50"],
     "validation", "need reps >= 100 bootstrap replicates, got 50")
    for cd in ("t", "z", "bootstrap")
] + [
    ("non-numeric-row", ["pval", "--input", "{d}/text_row.csv", "--region", "0"],
     "parse", "{d}/text_row.csv:3: non-numeric row 'abc'"),
    ("header-only", ["pval", "--input", "{d}/header_only.csv", "--region", "0"],
     "parse", "{d}/header_only.csv: no numeric rows"),
    ("one-observation", ["pval", "--input", "{d}/single.csv", "--region", "0"],
     "validation", "need at least 2 observations"),
    ("config-missing", PVAL2D + ["--config", "{d}/missing.cfg"],
     "io", "cannot read {d}/missing.cfg: [Errno 2] No such file or directory: "
           "'{d}/missing.cfg'"),
    ("config-no-equals", PVAL2D + ["--config", "{d}/no_equals.cfg"],
     "parse", "{d}/no_equals.cfg:2: expected 'key = value', got 'lo -1, -1'"),
    ("config-no-shape", PVAL2D + ["--config", "{d}/no_shape.cfg"],
     "parse", "{d}/no_shape.cfg: missing required key 'shape'"),
    ("config-unknown-shape", PVAL2D + ["--config", "{d}/circle.cfg"],
     "parse", "{d}/circle.cfg: unknown shape 'circle'"),
    ("config-missing-key", PVAL2D + ["--config", "{d}/no_hi.cfg"],
     "parse", "{d}/no_hi.cfg: shape 'rectangle' needs key 'hi'"),
    ("config-lo-above-hi", PVAL2D + ["--config", "{d}/flipped.cfg"],
     "validation", "{d}/flipped.cfg: rectangle bounds must satisfy lo <= hi per axis"),
    ("simulate-bad-region", ["simulate", "--region", "[1,0]", "--n", "20", "--reps", "50"],
     "parse", "malformed region piece '[1,0]': lo > hi"),
    ("simulate-region-and-config", UNI + ["--config", "{d}/half.cfg"],
     "validation", "simulate takes --region or --config, not both"),
    ("uni-depth", UNI + ["--depth", "mahalanobis"],
     "validation", "--depth does not apply to univariate-normal runs"),
    ("uni-depth-default-value", UNI + ["--depth", "simplicial"],
     "validation", "--depth does not apply to univariate-normal runs"),
    ("biv-cd", BIV + ["--config", "{d}/half.cfg", "--method", "multi", "--cd", "z"],
     "validation", "--cd does not apply to bivariate-normal runs"),
    ("not-utf8", ["pval", "--input", "{d}/not_utf8.csv", "--region", "0"],
     "parse", "{d}/not_utf8.csv: not utf-8 text at byte offset 0 (invalid start byte)"),
    ("pval2d-halfspace-far-boundary", PVAL2D + ["--config", "{d}/far_boundary.cfg"],
     "validation", "halfspace boundary point offset * normal / (normal . normal) is not finite"),
    # found by the same test: sums of finite draws overflowed, with a numpy warning
    ("biv-true-mean-overflows", BIV + ["--config", "{d}/half.cfg", "--method", "multi",
                                       "--true-mean", "0,1.6342664862384688e+307"],
     "validation", "replication rep=0 with seed (0, 0, 0) failed: resample means overflow: "
                   "the data are too large to sum"),
    ("uni-true-mean-overflows", UNI + ["--true-mean", "1.7e308", "--cd", "z"],
     "validation", "replication rep=0 with seed (0, 0, 0) failed: sample mean and sd must be "
                   "finite, got mean=[inf], sd=[inf]"),
    # pval and simulate build their CDs through ``cd.sample_cd``, which checks
    # the region first and the sample's mean and sd before any CD kind's own check
    ("pval-one-row-bad-region", ["pval", "--input", "{d}/single.csv", "--region", "[1,0]"],
     "parse", "malformed region piece '[1,0]': lo > hi"),
    ("uni-bootstrap-true-mean-overflows", UNI + ["--true-mean", "1.7e308", "--cd", "bootstrap"],
     "validation", "replication rep=0 with seed (0, 0, 0) failed: sample mean and sd must be "
                   "finite, got mean=inf, sd=inf"),
    # ``ExperimentSpec`` rejects a univariate list truth after its earlier checks
    ("uni-true-mean-pair-n", UNI + ["--true-mean", "1,2", "--n", "1"],
     "validation", "need n >= 2, got 1"),
    ("uni-true-mean-pair-seed", UNI + ["--true-mean", "1,2", "--seed", "-1"],
     "validation", "seed must be >= 0, got -1"),
    ("uni-true-mean-pair-depth", UNI + ["--true-mean", "1,2", "--depth", "mahalanobis"],
     "validation", "--depth does not apply to univariate-normal runs"),
    # a byte-order mark is dropped: the one row is data, not a header, and
    # the config's first key is read
    ("bom-one-row", ["pval", "--input", "{d}/bom_single.csv", "--region", "0"],
     "validation", "need at least 2 observations"),
    ("bom-config-no-hi", PVAL2D + ["--config", "{d}/bom_no_hi.cfg"],
     "parse", "{d}/bom_no_hi.cfg: shape 'rectangle' needs key 'hi'"),
    ("config-not-utf8", PVAL2D + ["--config", "{d}/not_utf8.cfg"],
     "parse", "{d}/not_utf8.cfg: not utf-8 text at byte offset 48 (invalid start byte)"),
    ("biv-config-not-utf8", BIV + ["--config", "{d}/not_utf8.cfg", "--method", "multi"],
     "parse", "{d}/not_utf8.cfg: not utf-8 text at byte offset 48 (invalid start byte)"),
    # a first line with a number in it is data, never a header
    ("mixed-first-row", ["pval", "--input", "{d}/mixed_first.csv", "--region", "0"],
     "parse", "{d}/mixed_first.csv:1: non-numeric row '1.5,'"),
    # a number is ASCII and holds no "_": Python's float alone reads 1_0 as 10
    # and the Arabic-Indic digit one as 1.  A first line that float reads is
    # data, so it fails as a row instead of being dropped as a header
    ("underscore-row", ["pval", "--input", "{d}/underscore.csv", "--cd", "t", "--region", "0"],
     "parse", "{d}/underscore.csv:1: non-numeric row '1_0'"),
    ("arabic-digit-row", ["pval", "--input", "{d}/arabic_digit.csv", "--cd", "t",
                          "--region", "0"],
     "parse", "{d}/arabic_digit.csv:1: non-numeric row '\u0661'"),
    ("underscore-region", ["pval", "--input", "{d}/one.csv", "--region", "[0,1_0]"],
     "parse", "malformed region piece '[0,1_0]': bad number '1_0'"),
    ("arabic-digit-region", ["pval", "--input", "{d}/one.csv", "--region", "\u0661"],
     "parse", "malformed region piece '\u0661'"),
    ("underscore-seed", PVAL2D + ["--config", "{d}/half.cfg", "--seed", "1_0"],
     "usage", "argument --seed: invalid int value: '1_0'"),
    ("underscore-n1", BIOEQ + ["--n1", "1_2", "--var-d", "4", "--lower", "-8", "--upper", "8"],
     "usage", "argument --n1: invalid int value: '1_2'"),
    ("underscore-mean-t", BIOEQ + ["--mean-t", "8_0.272", "--var-d", "4", "--lower", "-8",
                                   "--upper", "8"],
     "usage", "argument --mean-t: invalid float value: '8_0.272'"),
    # a config key is read once, and only when its shape reads it
    ("config-repeated-key", BIV + ["--config", "{d}/repeated_key.cfg", "--method", "multi"],
     "parse", "{d}/repeated_key.cfg:4: key 'lo' repeats line 2"),
    ("config-misspelt-key", BIV + ["--config", "{d}/misspelt_cov.cfg", "--method", "multi"],
     "parse", "{d}/misspelt_cov.cfg:4: shape 'rectangle' takes no key 'covariance'"),
    ("config-other-shape-key", PVAL2D + ["--config", "{d}/rectangle_normal.cfg"],
     "parse", "{d}/rectangle_normal.cfg:4: shape 'rectangle' takes no key 'normal'"),
    ("config-empty-field", PVAL2D + ["--config", "{d}/empty_field.cfg"],
     "parse", "config key 'lo': bad number in '-1,,-1'"),
    # an empty row between semicolons is an error, as an empty field is
    ("config-empty-row", PVAL2D + ["--config", "{d}/empty_row.cfg"],
     "parse", "config key 'points': empty row in '0,0 ;; 1,1'"),
    ("biv-config-trailing-semicolon", BIV + ["--config", "{d}/trailing_semicolon.cfg",
                                             "--method", "multi"],
     "parse", "config key 'cov': empty row in '1,0;'"),
    # a list given as a flag is named by its flag
    ("bioeq-alphas-underscore", BIOEQ + ["--var-d", "4", "--lower", "-8", "--upper", "8",
                                         "--alphas", "0.05,1_0"],
     "parse", "--alphas: bad number in '0.05,1_0'"),
    ("uni-true-mean-underscore", UNI + ["--true-mean", "1_0"],
     "parse", "--true-mean: bad number in '1_0'"),
    # a covariance is for simulate runs; pval2d resamples its data instead
    ("pval2d-cov", PVAL2D + ["--config", "{d}/box_cov.cfg"],
     "parse", "{d}/box_cov.cfg: pval2d takes no key 'cov'"),
]


BOM = "\ufeff".encode()
# a halfspace config with byte 0xff at offset 48, in its last comment
NOT_UTF8_CONFIG = b"shape = halfspace\nnormal = 1, 0\noffset = 0\n# abc\xff\n"


@pytest.fixture
def bad_input_dir(tmp_path, table1):
    (tmp_path / "table1.csv").write_text("\n".join(f"{a},{b}" for a, b in table1) + "\n")
    (tmp_path / "half.cfg").write_text("shape = halfspace\nnormal = 1, 0\noffset = 0\n")
    for k in (1, 3):
        (tmp_path / f"box{k}.cfg").write_text(
            f"shape = rectangle\nlo = {', '.join(['-0.1'] * k)}\nhi = {', '.join(['0.1'] * k)}\n"
        )
    (tmp_path / "inf.csv").write_text("1.0\ninf\n2.0\n")
    (tmp_path / "one.csv").write_text("0.5\n-0.25\n1.5\n0.75\n")
    # finite rows whose covariance overflows
    (tmp_path / "huge.csv").write_text("1e300,-1e300\n-1e300,1e300\n1e300,1e300\n-1e300,-1e300\n")
    # finite values whose squares overflow
    (tmp_path / "big.csv").write_text("1e200\n-1e200\n2e200\n-3e200\n1.5e200\n")
    for name, value in (("offset_text", "abc"), ("offset_pair", "1, 2")):
        (tmp_path / f"{name}.cfg").write_text(
            f"shape = halfspace\nnormal = 1, 0\noffset = {value}\n")
    (tmp_path / "ragged_cov.cfg").write_text(
        "shape = halfspace\nnormal = 1, 0\noffset = 0\ncov = 1,0 ; 0\n")
    (tmp_path / "ragged_corners.cfg").write_text(
        "shape = halfspace\nnormal = 1, 0\noffset = 0\ncorners = 0,0 ; 1\n")
    (tmp_path / "text_row.csv").write_text("x\n1.0\nabc\n2.0\n")
    (tmp_path / "header_only.csv").write_text("\nx\n\n")
    (tmp_path / "single.csv").write_text("0.5\n")
    (tmp_path / "not_utf8.csv").write_bytes(b"\xff1.0\n2.0\n")
    (tmp_path / "not_utf8.cfg").write_bytes(NOT_UTF8_CONFIG)
    (tmp_path / "bom_single.csv").write_bytes(BOM + b"0.5\n")
    (tmp_path / "bom_no_hi.cfg").write_bytes(BOM + b"shape = rectangle\nlo = -1, -1\n")
    (tmp_path / "mixed_first.csv").write_text("1.5,\n2.0\n3.5\n")
    (tmp_path / "underscore.csv").write_text("1_0\n2\n3\n")
    (tmp_path / "arabic_digit.csv").write_bytes("\u0661\n2\n3\n".encode())
    for name, normal, offset in (("tiny_normal", "0.0, 2.8345852743287677e-165", "0.0"),
                                 ("far_boundary", "10, 0", "-1e308")):
        (tmp_path / f"{name}.cfg").write_text(
            f"shape = halfspace\nnormal = {normal}\noffset = {offset}\n")
    for name, text in (("no_equals", "shape = rectangle\nlo -1, -1\nhi = 1, 1\n"),
                       ("no_shape", "# a box\nlo = -1, -1\nhi = 1, 1\n"),
                       ("circle", "shape = circle\n"),
                       ("no_hi", "shape = rectangle\nlo = -1, -1\n"),
                       ("flipped", "shape = rectangle\nlo = 1, -1\nhi = -1, 1\n"),
                       ("repeated_key", "shape = rectangle\nlo = -1, -1\nhi = 1, 1\n"
                                        "lo = -0.5, -0.5\ncovariance = 2, 0 ; 0, 2\n"),
                       ("misspelt_cov", "shape = rectangle\nlo = -1, -1\nhi = 1, 1\n"
                                        "covariance = 2, 0 ; 0, 2\n"),
                       ("rectangle_normal", "shape = rectangle\nlo = -1, -1\nhi = 1, 1\n"
                                            "normal = 5, 5\n"),
                       ("box_cov", "shape = rectangle\nlo = -1, -1\nhi = 1, 1\n"
                                   "cov = 9, 0 ; 0, 9\n"),
                       ("empty_field", "shape = rectangle\nlo = -1,,-1\nhi = 1, 1\n"),
                       ("empty_row", "shape = points\npoints = 0,0 ;; 1,1\n"),
                       ("trailing_semicolon", "shape = halfspace\nnormal = 1, 0\noffset = 0\n"
                                              "cov = 1,0;\n")):
        (tmp_path / f"{name}.cfg").write_text(text)
    return tmp_path


# pytest captures warnings, so a numpy warning would never reach the captured
# stderr that the error line is compared with; it fails the test instead
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("argv,category,message", [case[1:] for case in BAD_INPUT],
                         ids=[case[0] for case in BAD_INPUT])
def test_bad_input_is_one_error_line(argv, category, message, bad_input_dir, capsys):
    d = str(bad_input_dir)
    argv = [arg.format(d=d) for arg in argv]
    if category == "usage":
        # argparse rejects a flag value: exit status 2, the usage, then one error line
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        captured = capsys.readouterr()
        assert (exit_info.value.code, captured.out) == (2, "")
        assert captured.err.endswith(f"\ncdsupport {argv[0]}: error: {message}\n")
        return
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (1, "")
    line = json.dumps({"error": {"category": category, "message": message.format(d=d)}})
    assert err == line + "\n"


# once a row of BAD_INPUT: the boundary grid, used when no replicate is inside,
# divided by a squared length that underflowed to 0.  Normal and offset are
# now scaled by a power of two first, and the grid decides every replication.
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_tiny_normal_halfspace_is_answered_from_the_boundary_grid(bad_input_dir, capsys):
    config = bad_input_dir / "tiny_normal.cfg"
    code, out, err = run_cli(["simulate", "--true-mean", "0,100", "--n", "20", "--reps", "50",
                              "--boot-reps", "100", "--config", str(config),
                              "--method", "multi"], capsys)
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert report["reps"] == 50 and 0.0 <= report["median_p"] <= 1.0
    # replication 0 of that run, as the harness draws it
    rng = np.random.default_rng([0, 0, 0])
    data = np.array([0.0, 100.0]) + rng.standard_normal((20, 2)) @ np.linalg.cholesky(PART2_COV).T
    cloud = bootstrap_cloud(data, 100, seed=[0, 0, 1])
    res = p_multi(cloud, "simplicial", load_region_config(config)[0])
    assert res.floor_source == "boundary-grid" and res.esp == 0.0


def test_undecodable_byte_is_located_in_the_file(tmp_path, capsys):
    # the text reader decodes in chunks of some KiB; the offset counts from
    # the start of the file, not of the chunk that held the byte
    path = tmp_path / "late.csv"
    path.write_bytes(b"1.0\n" * 5000 + b"\xff\n")
    code, out, err = run_cli(["pval", "--input", str(path), "--region", "0"], capsys)
    assert (code, out) == (1, "")
    assert json.loads(err)["error"] == {
        "category": "parse",
        "message": f"{path}: not utf-8 text at byte offset 20000 (invalid start byte)"}


def test_byte_order_mark_is_not_a_header(tmp_path, capsys):
    # spreadsheet tools start UTF-8 files with a byte-order mark; the first
    # row stays data, and the report is the one for the file without it
    path = tmp_path / "sample.csv"
    argv = ["pval", "--input", str(path), "--cd", "t", "--region", "0"]
    outputs = []
    for mark in (b"", BOM):
        path.write_bytes(mark + b"1.5\n2.0\n3.5\n")
        outputs.append(run_cli(argv, capsys))
    assert outputs[0] == outputs[1]
    assert outputs[0][0] == 0 and json.loads(outputs[0][1])["n"] == 3


@pytest.mark.parametrize("text,lineno,line", [("x,1\n2,3\n", 1, "x,1"),
                                               ("1\x1c,x\n2,3\n", 1, "1\x1c,x"),
                                               ("\n -0 , y\n2,3\n", 2, "-0 , y")])
def test_a_first_line_with_a_number_is_data(text, lineno, line, tmp_path):
    # a field the row reader takes for a number keeps the line from being a header
    path = tmp_path / "data.csv"
    path.write_text(text)
    with pytest.raises(cli.CliError) as raised:
        cli.read_csv_columns(path, 2)
    assert str(raised.value) == f"{path}:{lineno}: non-numeric row {line!r}"


def test_config_with_a_byte_order_mark_parses(tmp_path):
    text = b"shape = rectangle\nlo = -1, -2\nhi = 1, 2\ncov = 1, 0 ; 0, 1\n"
    loaded = []
    for mark in (b"", BOM):
        path = tmp_path / "region.cfg"
        path.write_bytes(mark + text)
        region, cov = load_region_config(path)
        loaded.append((region.describe(), cov.tolist()))
    assert loaded[0] == loaded[1]


@pytest.mark.parametrize("text", ["", "\n \n\t\n", "\nx\n\n", "x"],
                         ids=["empty", "blank-only", "header-only", "header-no-newline"])
def test_empty_table_is_one_error_line_with_no_warning(text, tmp_path, capsys):
    # numpy's text reader warns on a body with no data; it never sees one
    path = tmp_path / "empty.csv"
    path.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(["pval", "--input", str(path), "--region", "0"], capsys)
    assert (code, out) == (1, "")
    assert err == json.dumps({"error": {"category": "parse",
                                        "message": f"{path}: no numeric rows"}}) + "\n"


def test_memory_error_is_one_error_line(bad_input_dir, capsys):
    # 10**15 replicate means take 8 PB, beyond a 47-bit address space: numpy
    # refuses the allocation at once, whatever the overcommit setting
    code, out, err = run_cli(["pval", "--input", f"{bad_input_dir}/one.csv", "--region", "0",
                              "--cd", "bootstrap", "--boot-reps", "1000000000000000"], capsys)
    assert (code, out) == (1, "")
    assert err.count("\n") == 1
    error = json.loads(err)["error"]
    assert error["category"] == "validation"
    assert error["message"].startswith("Unable to allocate")


def test_non_finite_report_is_one_error_line(tmp_path, monkeypatch, capsys):
    # a command that returns NaN: the report cannot leave as strict JSON
    stub = argparse.ArgumentParser(prog="cdsupport")
    stub.set_defaults(fn=lambda args: {"p": math.nan}, out=str(tmp_path / "report.json"))
    monkeypatch.setattr(cli, "build_parser", lambda: stub)
    code, out, err = run_cli([], capsys)
    assert (code, out) == (1, "")
    assert err == json.dumps({"error": {
        "category": "validation",
        "message": "report holds a non-finite number, which JSON cannot carry"}}) + "\n"
    assert not (tmp_path / "report.json").exists()


def strict_json(text):
    def reject(constant):
        raise ValueError(f"not strict JSON: {constant}")
    return json.loads(text, parse_constant=reject)


def test_infinite_bounds_are_reported_as_text(table1_csv, tmp_path, capsys):
    cfg = tmp_path / "plane.cfg"
    cfg.write_text("shape = rectangle\nlo = -inf, 0\nhi = inf, inf\n")
    code, out, _ = run_cli(["pval2d", "--input", str(table1_csv), "--config", str(cfg),
                            "--boot-reps", "200"], capsys)
    assert code == 0
    region = strict_json(out)["config"]["region"]
    assert (region["lower"], region["upper"]) == (["-inf", 0.0], ["inf", "inf"])
    code, out, _ = run_cli(BIOEQ + ["--var-d", "4", "--lower=-inf", "--upper", "8"], capsys)
    assert code == 0
    report = strict_json(out)
    assert (report["config"]["lower"], report["lower_tail"]) == ("-inf", 0.0)


# (id, argv, flag, negative value): a value argparse alone would take for a flag
NEGATIVE_VALUES = [
    ("bioeq-exponent", BIOEQ + ["--var-d", "4", "--upper", "8"], "--lower", "-1e1"),
    ("bioeq-inf", BIOEQ + ["--var-d", "4", "--upper", "8"], "--lower", "-inf"),
    ("pval-region", ["pval", "--input", "{d}/one.csv"], "--region", "-0.5;0.5"),
    ("simulate-true-mean", BIV + ["--config", "{d}/half.cfg", "--method", "multi"],
     "--true-mean", "-0.5,0.5"),
]


@pytest.mark.parametrize("argv,flag,value", [case[1:] for case in NEGATIVE_VALUES],
                         ids=[case[0] for case in NEGATIVE_VALUES])
def test_negative_number_after_its_flag_is_a_value(argv, flag, value, bad_input_dir, capsys):
    argv = [arg.format(d=bad_input_dir) for arg in argv]
    code, out, err = run_cli(argv + [flag, value], capsys)
    assert (code, err) == (0, "")
    assert (code, out, err) == run_cli(argv + [f"{flag}={value}"], capsys)


# -- one parser per process ---------------------------------------------------------


def test_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()


def test_parser_reused_after_a_bad_flag_gives_golden_bytes(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    test_golden._write_inputs()
    with pytest.raises(SystemExit) as exit_info:
        main(test_golden.CLI_CASES["bioeq"][0] + ["--no-such-flag"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --no-such-flag" in capsys.readouterr().err
    for name in ("bioeq", "pval2d_simplicial_rect_m300"):
        assert test_golden.cli_digests(name) == test_golden.GOLDEN_CLI[name]


def test_importing_the_cli_builds_no_parser():
    # a fresh interpreter: earlier tests in this process have built the parser
    script = ("import cdsupport.cli as cli\n"
              "assert cli.build_parser.cache_info().currsize == 0\n"
              "cli.build_parser()\n"
              "assert cli.build_parser.cache_info().currsize == 1\n")
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=60)
    assert result.returncode == 0, result.stderr


# -- the one-call CSV parse and the per-row reader -----------------------------------

CSV_NUMBERS = st.one_of(st.floats(allow_nan=False, allow_infinity=False).map(repr),
                        st.integers(-10**6, 10**6).map(str))
CSV_ODD_FIELDS = st.sampled_from(["1_0", "nan", "inf", "-inf", "1e400", "", "x", " 1.5 ", "\t2",
                                  "1 2", "1,", "\u0661", "1\xa0", "\x0c3", "+.5", "-0"])


@st.composite
def csv_files(draw):
    """A column count and a file of up to 12 lines for it: a header or not,
    blank lines, and rows of numbers of which about one line or field in
    eight is off (wrong width, a field that is not a plain finite number);
    its lines end as text mode reads a newline."""
    columns = draw(st.sampled_from([1, 2]))

    def odd():
        return draw(st.integers(0, 7)) == 0

    lines = []
    if draw(st.booleans()):
        lines += [""] * draw(st.integers(0, 2)) + [draw(st.sampled_from(["x", "a,b", "x, y ,z"]))]
    for _ in range(draw(st.integers(0, 12))):
        if odd():
            lines.append(draw(st.sampled_from(["", "  ", "\t"])))
            continue
        width = draw(st.integers(0, 3)) if odd() else columns
        lines.append(",".join(draw(CSV_ODD_FIELDS if odd() else CSV_NUMBERS)
                              for _ in range(width)))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return end.join(lines) + draw(st.sampled_from(["", end])), columns


def read_or_error(read, *args):
    try:
        return read(*args).tolist()
    except cli.CliError as exc:
        return exc.category, str(exc)


@given(case=csv_files())
@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@example(case=("x\n1,2\n3,4\n", 2))
@example(case=("1,2,3\n4\n", 2))
@example(case=("1\n2\n1_0\n", 1))
@example(case=("a,b\n1, 2\n\n 3 ,4 \n", 2))
@example(case=("1\n \t\n2\n", 1))
@example(case=("1_0\n2\n", 1))
@example(case=("Infinity\n2\n", 1))
@example(case=("1,nan\n2,3\n", 2))
@example(case=("1\x0b\n2\n", 1))
@example(case=("1,2\x1c\n3,4\n", 2))
@example(case=("\x1cx\x1f\n1\n", 1))
@example(case=("x\r\n1,2\r\n3,4\r\n", 2))
@example(case=("\ufeff1.5\n2\n", 1))
@example(case=("\ufeffx,y\n1,2\n", 2))
@example(case=("x\n\n \n\n", 1))
@example(case=("1.5,\n2\n", 1))
@example(case=("x,1\n2,3\n", 2))
def test_one_call_parse_equals_the_row_reader(case, tmp_path):
    text, columns = case
    path = tmp_path / "data.csv"
    path.write_bytes(text.encode())
    lines = cli._read_text(path).split("\n")

    def rows(path, columns):
        data = cli._read_rows(path, lines, columns)
        return data[:, 0] if columns == 1 else data

    assert read_or_error(cli.read_csv_columns, path, columns) == read_or_error(rows, path, columns)


def test_plain_files_take_the_one_call_parse(monkeypatch, tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("a,b\n\n1.5, -2\n 3e-3 ,4\n\n")
    monkeypatch.setattr(cli, "_read_rows", None)
    assert cli.read_csv_columns(path, 2).tolist() == [[1.5, -2.0], [0.003, 4.0]]


LONG_DECIMALS = st.builds(
    "{}{}.{}e{}".format,
    st.sampled_from(["", "-", "+"]),
    st.text("0123456789", min_size=1, max_size=40),
    st.text("0123456789", max_size=40),
    st.integers(-380, 330),
)


@given(fields=st.lists(st.one_of(st.floats().map(repr), LONG_DECIMALS),
                       min_size=1, max_size=40))
@settings(max_examples=300, deadline=None)
def test_loadtxt_rounds_as_float_does(fields):
    # the one-call parse relies on numpy's text reader giving ``float``'s
    # bits for every number; a numpy whose parser rounds otherwise fails here
    parsed = np.loadtxt(io.StringIO("\n".join(fields)), delimiter=",", comments=None, ndmin=2)
    expected = np.array([[float(field)] for field in fields])
    assert parsed.tobytes() == expected.tobytes()


ARABIC_INDIC_DIGITS = [chr(0x660 + i) for i in range(10)]
NUMBER_LIKE = st.lists(st.sampled_from([*"0123456789.e+-_ ", "inf", "nan", *ARABIC_INDIC_DIGITS]),
                       max_size=6).map("".join)


def _reads(read, *args) -> bool:
    try:
        read(*args)
    except ValueError:
        return False
    return True


@given(token=NUMBER_LIKE)
@settings(max_examples=500, deadline=None)
@example(token="1_0")
@example(token="\u0661")
@example(token=" -inf ")
@example(token="")
def test_one_rule_decides_every_number(token):
    # the rule accepts exactly the ASCII strings without "_" that float
    # (int for the integer flags) accepts
    plain = token.isascii() and "_" not in token
    assert _reads(number, token) == (plain and _reads(float, token))
    assert _reads(number, token, int) == (plain and _reads(int, token))
    if _reads(number, token):
        assert number(token) == float(token) or math.isnan(number(token))
    else:
        # and numpy's table reader, which parses plain tables, takes no
        # field that the rule refuses
        table = f"1,{token}"
        assert not _reads(lambda: np.loadtxt(io.StringIO(table), delimiter=",", comments=None))


# -- --out is rewritten in place -----------------------------------------------------

OUT_ARGV = BIOEQ + ["--var-d", "4", "--lower", "-8", "--upper", "8"]


@pytest.mark.parametrize("before", [None, b"{\n" + b" " * 4096 + b"}\n", b"{}\n"],
                         ids=["fresh", "after-longer", "after-shorter"])
def test_out_file_holds_the_stdout_report(before, tmp_path, capsys):
    code, report, _ = run_cli(OUT_ARGV, capsys)
    assert code == 0
    out = tmp_path / "report.json"
    if before is not None:
        out.write_bytes(before)
    assert run_cli(OUT_ARGV + ["--out", str(out)], capsys) == (0, "", "")
    assert out.read_bytes() == report.encode()


def test_out_file_needs_no_read_permission(tmp_path, capsys):
    _, report, _ = run_cli(OUT_ARGV, capsys)
    out = tmp_path / "report.json"
    out.write_bytes(b"x" * 5000)
    out.chmod(0o200)
    assert run_cli(OUT_ARGV + ["--out", str(out)], capsys) == (0, "", "")
    out.chmod(0o600)
    assert out.read_bytes() == report.encode()


def test_out_to_the_null_device(capsys):
    assert run_cli(OUT_ARGV + ["--out", os.devnull], capsys) == (0, "", "")
    assert not Path(os.devnull).is_file()


def test_out_to_a_fifo_is_the_report(tmp_path, capsys):
    _, report, _ = run_cli(OUT_ARGV, capsys)
    fifo = tmp_path / "report.fifo"
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()))
    reader.start()
    assert run_cli(OUT_ARGV + ["--out", str(fifo)], capsys) == (0, "", "")
    reader.join(timeout=30)
    assert got == [report.encode()]


def test_out_to_dev_stdout(tmp_path):
    argv = [sys.executable, "-m", "cdsupport.cli", *OUT_ARGV]
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    report = subprocess.run(argv, capture_output=True, env=env, timeout=60).stdout
    piped = subprocess.run(argv + ["--out", "/dev/stdout"], capture_output=True, env=env,
                           timeout=60)
    assert (piped.returncode, piped.stdout, piped.stderr) == (0, report, b"")
    # a regular file as standard output, opened without truncation
    path = tmp_path / "stdout.json"
    path.write_bytes(b"z" * 5000)
    with open(path, "r+b") as fh:
        run = subprocess.run(argv + ["--out", "/dev/stdout"], stdout=fh, env=env, timeout=60)
    assert run.returncode == 0 and path.read_bytes() == report


@pytest.mark.parametrize("where", ["directory", "under-a-file"])
def test_unwritable_out_is_one_io_line(where, tmp_path, capsys):
    (tmp_path / "file").write_text("x")
    path = str(tmp_path if where == "directory" else tmp_path / "file" / "report.json")
    with pytest.raises(OSError) as opened:
        open(path, "w")
    code, out, err = run_cli(OUT_ARGV + ["--out", path], capsys)
    assert (code, out) == (1, "")
    assert err == json.dumps({"error": {"category": "io",
                                        "message": f"cannot write {path}: {opened.value}"}}) + "\n"


# -- every argv ends in a report or in one error line ----------------------------------

def usually(valid, odd):
    """``valid`` five draws in six, ``odd`` in the sixth."""
    return st.integers(0, 5).flatmap(lambda i: odd if i == 5 else valid)


ODD_FLOAT = st.one_of(st.floats().map(repr), st.sampled_from(["nan", "inf", "-inf", "-0.0"]))
PLAIN_FLOAT = st.floats(-3, 3).map(repr)
CLI_FLOAT = usually(PLAIN_FLOAT, ODD_FLOAT)
ERROR_CATEGORIES = {"io", "parse", "validation"}


def floats_in_order(count):
    """``count`` floats, ascending but for odd draws."""
    return usually(st.lists(st.floats(-3, 3), min_size=count, max_size=count)
                   .map(lambda xs: [repr(x) for x in sorted(xs)]),
                   st.lists(CLI_FLOAT, min_size=count, max_size=count))


@st.composite
def csv_texts(draw, columns):
    """A table of 2-12 rows of floats in [-3, 3].  One draw in six has 0
    or 1 rows instead, one in six a row of the wrong width, and one in six
    draws its values from any float."""
    values = draw(usually(st.just(PLAIN_FLOAT), st.just(CLI_FLOAT)))
    rows = [[draw(values) for _ in range(columns)]
            for _ in range(draw(usually(st.integers(2, 12), st.integers(0, 1))))]
    if rows and draw(usually(st.just(False), st.just(True))):
        row = rows[draw(st.integers(0, len(rows) - 1))]
        row[:] = row[:-1] if draw(st.booleans()) else row + [draw(values)]
    lines = [",".join(row) for row in rows]
    return "\n".join(lines) + ("\n" if lines and draw(st.booleans()) else "")


@st.composite
def region_texts(draw):
    def piece():
        lo, hi = draw(floats_in_order(2))
        return draw(st.sampled_from([lo, f"[{lo},{hi}]", f"(-inf,{hi}]", f"[{lo},inf)"]))
    return ";".join(piece() for _ in range(draw(st.integers(1, 3))))


@st.composite
def config_texts(draw):
    if draw(st.booleans()):
        (lo_x, hi_x), (lo_y, hi_y) = draw(floats_in_order(2)), draw(floats_in_order(2))
        text = f"shape = rectangle\nlo = {lo_x}, {lo_y}\nhi = {hi_x}, {hi_y}\n"
    else:
        normal = ", ".join(draw(usually(st.sampled_from([["1", "0"], ["0.6", "-0.8"]]),
                                        st.lists(CLI_FLOAT, min_size=2, max_size=2))))
        text = f"shape = halfspace\nnormal = {normal}\noffset = {draw(CLI_FLOAT)}\n"
    if draw(st.booleans()):
        text += f"corners = {draw(CLI_FLOAT)}, {draw(CLI_FLOAT)}\n"
    return text


def _flag(name, value):
    # "=" keeps a value that starts with "-" a value
    return f"--{name}={value}"


BOOT_REPS = usually(st.sampled_from(["100", "200"]), st.sampled_from(["0", "99"]))
SEED = usually(st.integers(0, 3), st.integers(-2, -1))


@st.composite
def cli_runs(draw):
    """An argv for one of the four subcommands, with the files it reads,
    as (argv, {file name: text}, out) where out is None (stdout), or the
    bytes an existing --out file holds before the run, or b"" for a path
    that does not exist yet."""
    command = draw(st.sampled_from(["pval", "pval2d", "bioeq", "simulate"]))
    files = {}
    if command == "pval":
        files["x.csv"] = draw(csv_texts(1))
        argv = ["pval", "--input", "{d}/x.csv", _flag("region", draw(region_texts())),
                "--cd", draw(st.sampled_from(["t", "z", "bootstrap"])),
                "--method", draw(st.sampled_from(sorted(cli.METHOD_TOKENS))),
                "--boot-reps", draw(BOOT_REPS), _flag("seed", draw(SEED))]
    elif command == "pval2d":
        files["x.csv"] = draw(csv_texts(2))
        files["r.cfg"] = draw(config_texts())
        argv = ["pval2d", "--input", "{d}/x.csv", "--config", "{d}/r.cfg",
                "--depth", draw(st.sampled_from(["mahalanobis", "simplicial"])),
                "--boot-reps", draw(BOOT_REPS), _flag("seed", draw(SEED))]
    elif command == "bioeq":
        lower, upper = draw(floats_in_order(2))
        var_d = draw(usually(st.floats(0.01, 9).map(repr), CLI_FLOAT))
        argv = ["bioeq", *(_flag(name, draw(usually(st.integers(2, 30), st.integers(-1, 1))))
                           for name in ("n1", "n2")),
                _flag("mean-t", draw(CLI_FLOAT)), _flag("mean-r", draw(CLI_FLOAT)),
                _flag("var-d", var_d), _flag("lower", lower), _flag("upper", upper)]
        if draw(st.booleans()):
            alphas = usually(st.floats(0.001, 0.5).map(repr), CLI_FLOAT)
            argv.append(_flag("alphas", ",".join(draw(alphas) for _ in range(2))))
    else:
        argv = ["simulate", _flag("n", draw(usually(st.integers(2, 12), st.integers(0, 1)))),
                _flag("reps", draw(usually(st.just(50), st.just(49)))), "--boot-reps", "100",
                _flag("seed", draw(SEED))]
        if draw(st.booleans()):
            argv += [_flag("region", draw(region_texts())), _flag("true-mean", draw(CLI_FLOAT)),
                     "--cd", draw(st.sampled_from(["t", "z"])),
                     "--method", draw(st.sampled_from(sorted(cli.METHOD_TOKENS)))]
        else:
            files["r.cfg"] = draw(config_texts())
            method = st.sampled_from(["multi", "multi-max"])
            argv += ["--config", "{d}/r.cfg", "--method", draw(method),
                     _flag("true-mean", f"{draw(CLI_FLOAT)},{draw(CLI_FLOAT)}")]
    out = draw(st.one_of(st.none(), st.just(b""), st.binary(min_size=1, max_size=3000)))
    if out is not None:
        argv += ["--out", "{d}/report.json"]
    return argv, files, out


def _floats(value):
    if isinstance(value, float):
        yield value
    elif isinstance(value, dict):
        for item in value.values():
            yield from _floats(item)
    elif isinstance(value, list):
        for item in value:
            yield from _floats(item)


P_KEYS = ("p", "p_multi", "p_max", "corner_p", "lower_tail", "upper_tail", "median_p",
          "direct", "indirect", "full")


def _p_values(value):
    if isinstance(value, dict):
        for key, item in value.items():
            if key in P_KEYS:
                yield from item if isinstance(item, list) else [item]
            else:
                yield from _p_values(item)
    elif isinstance(value, list):
        for item in value:
            yield from _p_values(item)


@given(run=cli_runs())
@settings(max_examples=150, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
def test_every_argv_gives_a_report_or_one_error_line(run, tmp_path, capsys):
    argv, files, out = run
    d = tmp_path / "run"
    shutil.rmtree(d, ignore_errors=True)
    d.mkdir()
    for name, text in files.items():
        (d / name).write_text(text)
    if out:  # b"" is a path that does not exist yet
        (d / "report.json").write_bytes(out)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, stdout, stderr = run_cli([arg.format(d=d) for arg in argv], capsys)
    assert not [str(w.message) for w in caught]
    if code == 1:
        assert stdout == ""
        lines = stderr.splitlines()
        assert len(lines) == 1 and stderr.endswith("\n"), stderr
        error = json.loads(lines[0])["error"]
        assert set(error) == {"category", "message"}
        assert error["category"] in ERROR_CATEGORIES and error["message"]
        return
    assert code == 0
    assert all(line.startswith("caution: ") for line in stderr.splitlines()), stderr
    if out is not None:
        assert stdout == ""
        stdout = (d / "report.json").read_text()
    report = strict_json(stdout)
    assert all(math.isfinite(v) for v in _floats(report))
    assert all(0.0 <= p <= 1.0 for p in _p_values(report)), report
