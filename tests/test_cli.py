import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import test_golden

from cdsupport import (
    PointSet,
    bootstrap_cloud,
    cli,
    direct_support,
    make_student_t_cd,
    p_multi_max,
    parse_region,
)
from cdsupport.cli import main

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
        # a larger cloud in between leaves other numbers in the kept tile buffers
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
]


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
    for name, text in (("no_equals", "shape = rectangle\nlo -1, -1\nhi = 1, 1\n"),
                       ("no_shape", "# a box\nlo = -1, -1\nhi = 1, 1\n"),
                       ("circle", "shape = circle\n"),
                       ("no_hi", "shape = rectangle\nlo = -1, -1\n"),
                       ("flipped", "shape = rectangle\nlo = 1, -1\nhi = -1, 1\n")):
        (tmp_path / f"{name}.cfg").write_text(text)
    return tmp_path


# pytest captures warnings, so a numpy warning would never reach the captured
# stderr that the error line is compared with; it fails the test instead
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("argv,category,message", [case[1:] for case in BAD_INPUT],
                         ids=[case[0] for case in BAD_INPUT])
def test_bad_input_is_one_error_line(argv, category, message, bad_input_dir, capsys):
    d = str(bad_input_dir)
    code, out, err = run_cli([arg.format(d=d) for arg in argv], capsys)
    assert (code, out) == (1, "")
    line = json.dumps({"error": {"category": category, "message": message.format(d=d)}})
    assert err == line + "\n"


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
