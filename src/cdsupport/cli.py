"""Command-line surface: evidence p-values from files or summary statistics.

Subcommands::

    pval      univariate p-value for a region, from a one-column CSV
    pval2d    depth-based bivariate p-value, from a two-column CSV + region config
    bioeq     two one-sided equivalence p-value from inline summary statistics
    simulate  Monte Carlo uniformity run; writes a JSON summary and a QQ CSV

Every report is JSON with a ``schema`` field and the full resolved
configuration (seed included), so any report can be reproduced from itself.
Exit status is 0 exactly when a report was produced; otherwise a one-line
JSON error with a machine-readable ``category`` goes to stderr.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math
import os
import re
import stat
import sys
from typing import TYPE_CHECKING

import numpy as np

from . import support
from .cd import CD_TOKENS, sample_cd
from .depth import DEPTH_KINDS, MULTI_METHODS, bootstrap_cloud, check_region_dim
from .regions import (
    Halfspace,
    NullRegion,
    PointSet,
    QuadrantComplement,
    Rectangle,
    RegionND,
    format_region,
    json_bound,
    number,
    parse_region,
)
from .simulate import PART2_COV, ExperimentSpec, run_experiment, write_qq_csv

if TYPE_CHECKING:
    import argparse

SCHEMA_VERSION = 1

# CLI token -> support.METHODS name
METHOD_TOKENS = {
    "full": "full",
    "direct": "direct",
    "max-direct": "max-direct",
    "pstar": "p-star",
    "pmax": "p-max",
}


class CliError(Exception):
    def __init__(self, category: str, message: str):
        super().__init__(message)
        self.category = category


# -- input handling ----------------------------------------------------------


def read_csv_columns(path, columns: int) -> np.ndarray:
    """Read a comma-separated numeric table with an optional header row.

    Rows with the wrong arity, non-numeric fields, or NaN or infinite values
    abort the read; silently dropping rows would corrupt n.  A file that
    ``_parse_plain`` accepts is parsed in one call; any other goes through
    the per-row reader, ``_read_rows``, which names the line at fault.
    """
    text = _read_text(path)
    data = _parse_plain(text, columns)
    if data is None:
        data = _read_rows(path, text.split("\n"), columns)
    return data[:, 0] if columns == 1 else data


def _read_text(path) -> str:
    """The UTF-8 text of an input file, without one leading byte-order mark,
    its line ends read as text mode reads them."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise CliError("io", f"cannot read {path}: {exc}") from None
    try:
        text = data.decode()
    except UnicodeDecodeError as exc:
        raise CliError("parse", f"{path}: not {exc.encoding} text at byte offset {exc.start} "
                                f"({exc.reason})") from None
    return text.removeprefix("\ufeff").replace("\r\n", "\n").replace("\r", "\n")


def _is_header(line: str) -> bool:
    """Whether a table's first non-blank line is a header: none of its
    fields is a number, nor one that only Python's ``float`` reads, such as
    ``1_0``; such a first line is a bad row, never a header to drop."""
    for field in line.split(","):
        with contextlib.suppress(ValueError):
            float(field.strip())
            return False
    return True


def _read_rows(path, lines: list[str], columns: int) -> np.ndarray:
    """The rows of a table, one line at a time: the first non-blank line
    is a header when none of its fields is a number."""
    rows = []
    numbered = [(lineno, ln.strip()) for lineno, ln in enumerate(lines, start=1) if ln.strip()]
    for i, (lineno, line) in enumerate(numbered):
        fields = [f.strip() for f in line.split(",")]
        try:
            values = [number(f) for f in fields]
        except ValueError:
            if i == 0 and _is_header(line):
                continue
            raise CliError("parse", f"{path}:{lineno}: non-numeric row {line!r}") from None
        if len(values) != columns:
            raise CliError(
                "parse", f"{path}:{lineno}: expected {columns} column(s), got {len(values)}"
            )
        if not all(map(math.isfinite, values)):
            kind = "NaN" if any(map(math.isnan, values)) else "infinite"
            raise CliError("parse", f"{path}:{lineno}: {kind} values are rejected")
        rows.append(values)
    if not rows:
        raise CliError("parse", f"{path}: no numeric rows")
    return np.array(rows, dtype=float)


def _parse_plain(text: str, columns: int) -> np.ndarray | None:
    """The (rows x columns) table of ``text`` in one ``np.loadtxt`` call, or
    None when the per-row reader must decide.

    It takes only ASCII text.  numpy converts a field as ``float`` does
    once ``str.strip`` has trimmed its ends, and refuses what the two would
    read apart (``1_0``, a line of only whitespace), so every table it
    returns is the per-row reader's.  A blank body, a wrong width or a
    value that is not finite is left to that reader to word.
    """
    if not text.isascii():
        return None
    body = text.lstrip()
    end = body.find("\n")
    if _is_header(body if end < 0 else body[:end]):
        body = "" if end < 0 else body[end + 1:]
    if not body.strip():
        return None  # loadtxt would warn that the input holds no data
    try:
        values = np.loadtxt(io.StringIO(body), delimiter=",", comments=None, ndmin=2)
    except ValueError:
        return None
    if values.shape[1] != columns or not np.isfinite(values).all():
        return None
    return values


def _parse_vector(text: str, key: str) -> list[float]:
    """The comma-separated numbers of ``text``, the value of a config key or
    of a flag such as ``--alphas``; an empty field is an error."""
    try:
        return [number(tok) for tok in text.split(",")]
    except ValueError:
        where = key if key.startswith("--") else f"config key {key!r}"
        raise CliError("parse", f"{where}: bad number in {text!r}") from None


def _parse_points(text: str, key: str) -> list[list[float]]:
    """The semicolon-separated rows of ``text``; an empty row is an error."""
    parts = text.split(";")
    if not all(part.strip() for part in parts):
        raise CliError("parse", f"config key {key!r}: empty row in {text!r}")
    points = [_parse_vector(part, key) for part in parts]
    if len({len(point) for point in points}) > 1:
        raise CliError("parse", f"config key {key!r}: rows of unequal length in {text!r}")
    return points


# each config shape's own keys; any shape may also give ``corners`` and ``cov``
_SHAPE_KEYS = {
    "rectangle": ("lo", "hi"),
    "halfspace": ("normal", "offset"),
    "quadrant-complement": ("corner",),
    "points": ("points",),
}


def load_region_config(path) -> tuple[RegionND, np.ndarray | None]:
    """Key-value region config; returns the region and an optional covariance.

    Keys: ``shape`` (rectangle | halfspace | quadrant-complement | points),
    rectangle ``lo``/``hi``, halfspace ``normal``/``offset``,
    quadrant-complement ``corner``, point list ``points``; optional
    ``corners`` (semicolon-separated points) and ``cov`` (rows separated by
    semicolons) for simulation runs.  A key given twice, or one that the
    shape does not read, is an error.
    """
    lines = _read_text(path).splitlines()
    kv: dict[str, str] = {}
    where: dict[str, int] = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise CliError("parse", f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in kv:
            raise CliError("parse", f"{path}:{lineno}: key {key!r} repeats line {where[key]}")
        kv[key], where[key] = value, lineno
    shape = kv.get("shape")
    if shape is None:
        raise CliError("parse", f"{path}: missing required key 'shape'")
    if shape not in _SHAPE_KEYS:
        raise CliError("parse", f"{path}: unknown shape {shape!r}")
    for key in kv:  # in file order
        if key not in ("shape", "corners", "cov", *_SHAPE_KEYS[shape]):
            raise CliError("parse", f"{path}:{where[key]}: shape {shape!r} takes no key {key!r}")
    for key in _SHAPE_KEYS[shape]:
        if key not in kv:
            raise CliError("parse", f"{path}: shape {shape!r} needs key {key!r}")
    corners = _parse_points(kv["corners"], "corners") if "corners" in kv else None
    try:
        if shape == "rectangle":
            region = Rectangle(
                lower=_parse_vector(kv["lo"], "lo"),
                upper=_parse_vector(kv["hi"], "hi"),
                corners=corners,
            )
        elif shape == "halfspace":
            normal = _parse_vector(kv["normal"], "normal")
            offset = _parse_vector(kv["offset"], "offset")
            if len(offset) != 1:
                raise CliError("parse", f"config key 'offset': {kv['offset']!r} is not one number")
            region = Halfspace(normal=normal, offset=offset[0], corners=corners)
        elif shape == "quadrant-complement":
            region = QuadrantComplement(corner=_parse_vector(kv["corner"], "corner"),
                                        corners=corners)
        else:
            region = PointSet(points=_parse_points(kv["points"], "points"), corners=corners)
    except ValueError as exc:
        raise CliError("validation", f"{path}: {exc}") from None
    cov = None
    if "cov" in kv:
        cov = np.array(_parse_points(kv["cov"], "cov"), dtype=float)
    return region, cov


@contextlib.contextmanager
def _writing(path):
    """Turn an ``OSError`` raised while writing ``path`` into an ``io`` error."""
    try:
        yield
    except OSError as exc:
        raise CliError("io", f"cannot write {path}: {exc}") from None


def emit_report(report: dict, out_path) -> None:
    """Write the report as strict JSON to ``out_path``, or to stdout.  A
    report holding NaN or infinity raises ``ValueError`` before anything is
    written.

    An existing regular file is rewritten in place: the report's bytes go
    over the old ones and the file is then cut at their end, so it ends up
    byte for byte what a fresh write gives.  Opening it with truncation
    frees its blocks first, which cost 128-132 us per 0.5-0.8 KB report on
    an ext4 file system mounted with ``discard``, against 7-8 us in place;
    a temporary file renamed over it cost 107 us.  A new file, a FIFO or
    ``/dev/stdout`` takes the same open and is not cut.
    """
    try:
        text = json.dumps(report, sort_keys=True, indent=2, allow_nan=False)
    except ValueError:
        raise ValueError("report holds a non-finite number, which JSON cannot carry") from None
    if out_path:
        with _writing(out_path):
            _write_over(out_path, (text + "\n").encode())
    else:
        print(text)


def _write_over(path, data: bytes) -> None:
    """Write ``data`` from the start of ``path``, creating it if need be, and
    cut a regular file at their end.  The open needs no read permission and
    creates a file with the mode ``open(path, "w")`` gives."""
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as fh:
        fh.write(data)
        if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
            fh.truncate()


# -- subcommands --------------------------------------------------------------


def cmd_pval(args) -> dict:
    sample = read_csv_columns(args.input, 1)
    try:
        region = parse_region(args.region)
    except ValueError as exc:
        raise CliError("parse", str(exc)) from None
    cd, mean, sd = sample_cd(args.cd, sample, args.boot_reps, args.seed)
    method = METHOD_TOKENS[args.method]
    table = support.support_table(cd, region)
    pieces = table.pieces()
    p = support.METHODS[method](table).item()
    report = {
        "schema": SCHEMA_VERSION,
        "command": "pval",
        "config": {
            "input": str(args.input),
            "region": format_region(region),
            "method": args.method,
            "cd": args.cd,
            "boot_reps": args.boot_reps,
            "seed": args.seed,
        },
        "n": int(sample.size),
        "mean": mean,
        "sd": sd,
        "pieces": [
            {
                "piece": format_region(NullRegion((ps.piece,))),
                "direct": ps.direct,
                "indirect": ps.indirect,
                "full": ps.full,
            }
            for ps in pieces
        ],
        "p": p,
        "method": method,
    }
    if method == "direct":
        narrow = [ps.piece for ps in pieces if ps.piece.width < 2.0 * cd.scale]
        if narrow:
            caution = (
                "direct support underestimates evidence on pieces narrower than "
                "twice the CD scale; the full-support method is recommended"
            )
            report["caution"] = caution
            print(f"caution: {caution}", file=sys.stderr)
    return report


def cmd_pval2d(args) -> dict:
    data = read_csv_columns(args.input, 2)
    region, _ = load_region_config(args.config)
    check_region_dim(region, data.shape[1])
    cloud = bootstrap_cloud(data, args.boot_reps, seed=args.seed)
    method = "multi-max" if region.corners.size else "multi"
    res = MULTI_METHODS[method](cloud, args.depth, region)
    extra = {"corner_p": list(res.corner_p), "p_max": res.p} if res.corner_p else {}
    return {
        "schema": SCHEMA_VERSION,
        "command": "pval2d",
        "config": {
            "input": str(args.input),
            "region": region.describe(),
            "depth": args.depth,
            "boot_reps": args.boot_reps,
            "seed": args.seed,
        },
        "n": int(data.shape[0]),
        "m": cloud.m,
        "depth": args.depth,
        "esp": res.esp,
        "tail": res.tail,
        "depth_floor": res.depth_floor,
        "floor_source": res.floor_source,
        "p_multi": res.base.p,
        **extra,
    }


def cmd_bioeq(args) -> dict:
    cd = support.bioeq_cd(args.n1, args.n2, args.mean_t, args.mean_r, args.var_d)
    lower_tail, upper_tail = support.bioeq_tails(cd, args.lower, args.upper)
    p = max(lower_tail, upper_tail)
    alphas = _parse_vector(args.alphas, "--alphas")
    if not all(0.0 < a < 1.0 for a in alphas):
        raise ValueError(f"--alphas must lie in (0, 1), got {alphas}")
    return {
        "schema": SCHEMA_VERSION,
        "command": "bioeq",
        "config": {
            "n1": args.n1,
            "n2": args.n2,
            "mean_t": args.mean_t,
            "mean_r": args.mean_r,
            "var_d": args.var_d,
            "lower": json_bound(args.lower),
            "upper": json_bound(args.upper),
            "alphas": alphas,
        },
        "df": cd.df,
        "lower_tail": lower_tail,
        "upper_tail": upper_tail,
        "p": p,
        "equivalence_supported": {f"{a:g}": bool(p <= a) for a in alphas},
    }


def cmd_simulate(args) -> dict:
    truth = _parse_vector(args.true_mean, "--true-mean")
    # one number is a scalar truth; ``ExperimentSpec`` rejects a univariate list
    true_mean = truth[0] if len(truth) == 1 else truth
    if args.config and args.region:
        raise CliError("validation", "simulate takes --region or --config, not both")
    if args.config:
        region, cov = load_region_config(args.config)
        model = {"model": "bivariate-normal", "true_mean": true_mean, "depth": args.depth,
                 "cov": PART2_COV if cov is None else cov}
        ignored = "cd"
    elif args.region:
        try:
            region = parse_region(args.region)
        except ValueError as exc:
            raise CliError("parse", str(exc)) from None
        model = {"model": "univariate-normal", "true_mean": true_mean, "cd": args.cd}
        ignored = "depth"
    else:
        raise CliError("validation", "simulate needs --region or --config")
    # an option the model ignores is an error when given; an omitted option
    # takes the ``ExperimentSpec`` default, which the report records
    if getattr(args, ignored) is not None:
        raise CliError("validation", f"--{ignored} does not apply to {model['model']} runs")
    model = {key: value for key, value in model.items() if value is not None}
    spec = ExperimentSpec(
        region=region,
        n=args.n,
        reps=args.reps,
        method=METHOD_TOKENS.get(args.method, args.method),
        boot_m=args.boot_reps,
        seed=args.seed,
        **model,
    )
    report = run_experiment(spec, threads=args.threads)
    qq_path = args.qq_out or (str(args.out) + ".qq.csv" if args.out else None)
    if qq_path:
        with _writing(qq_path):
            write_qq_csv(report, qq_path)
    return {
        "schema": SCHEMA_VERSION,
        "command": "simulate",
        "config": {
            "model": spec.model,
            "true_mean": truth,
            "region": spec.region.describe(),
            "n": spec.n,
            "reps": spec.reps,
            "method": spec.method,
            "cd": spec.cd,
            "depth": spec.depth,
            "boot_reps": spec.boot_m,
            "seed": spec.seed,
            "cov": np.asarray(spec.cov).tolist() if spec.model == "bivariate-normal" else None,
        },
        "qq_csv": qq_path,
        **report.summary(),
    }


# -- entry point ---------------------------------------------------------------


def _flag_type(kind):
    """An argparse ``type`` that reads a flag value by ``number``.  It bears
    ``kind``'s name, by which argparse words a rejection:
    ``invalid int value: '1_0'``."""
    def read(text: str):
        return number(text, kind)
    read.__name__ = kind.__name__
    return read


_FLOAT, _INT = _flag_type(float), _flag_type(int)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and then shared; parsing
    reads it and never changes it.  argparse loads here, not on import."""
    import argparse

    parser = argparse.ArgumentParser(prog="cdsupport", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *, region=False, input_file=False, config=False):
        if input_file:
            p.add_argument("--input", required=True, help="CSV input path")
        if region:
            p.add_argument("--region", help="region text, e.g. '[-0.01,0.01];0.5'")
        if config:
            p.add_argument("--config", help="key-value region config file")
        p.add_argument("--seed", type=_INT, default=0)
        p.add_argument("--out", help="report path (default: stdout)")

    p = sub.add_parser("pval", help="univariate region p-value from a CSV sample")
    common(p, region=True, input_file=True)
    p.add_argument("--method", choices=sorted(METHOD_TOKENS), default="full")
    p.add_argument("--cd", choices=CD_TOKENS, default="t")
    p.add_argument("--boot-reps", type=_INT, default=2000)
    p.set_defaults(fn=cmd_pval)

    p = sub.add_parser("pval2d", help="depth-based bivariate p-value from a CSV sample")
    common(p, input_file=True, config=True)
    p.add_argument("--depth", choices=DEPTH_KINDS, default="mahalanobis")
    p.add_argument("--boot-reps", type=_INT, default=2000)
    p.set_defaults(fn=cmd_pval2d)

    p = sub.add_parser("bioeq", help="equivalence p-value from summary statistics")
    p.add_argument("--n1", type=_INT, required=True)
    p.add_argument("--n2", type=_INT, required=True)
    p.add_argument("--mean-t", type=_FLOAT, required=True)
    p.add_argument("--mean-r", type=_FLOAT, required=True)
    p.add_argument("--var-d", type=_FLOAT, required=True)
    p.add_argument("--lower", type=_FLOAT, required=True)
    p.add_argument("--upper", type=_FLOAT, required=True)
    p.add_argument("--alphas", default="0.01,0.05,0.1")
    p.add_argument("--out", help="report path (default: stdout)")
    p.set_defaults(fn=cmd_bioeq)

    p = sub.add_parser("simulate", help="Monte Carlo uniformity run")
    common(p, region=True, config=True)
    p.add_argument("--true-mean", default="0", help="scalar, or 'a,b' for bivariate")
    p.add_argument("--n", type=_INT, default=200)
    p.add_argument("--reps", type=_INT, default=2000)
    p.add_argument("--method", choices=sorted(METHOD_TOKENS) + list(MULTI_METHODS),
                   default="full")
    p.add_argument("--cd", choices=CD_TOKENS,
                   help="univariate runs only (default: t)")
    p.add_argument("--depth", choices=DEPTH_KINDS,
                   help="bivariate runs only (default: simplicial)")
    p.add_argument("--boot-reps", type=_INT, default=500)
    p.add_argument("--threads", type=_INT, default=1,
                   help="workers that run blocks of replications, for both models")
    p.add_argument("--qq-out", help="QQ CSV path (default: <out>.qq.csv)")
    p.set_defaults(fn=cmd_simulate)
    # an argument that starts like a negative number is a value, never a flag:
    # argparse's own test takes -12 and -1.5 but not -1e1, -inf or "-0.5;0.5"
    negative = re.compile(r"-(?:[\d.]|inf)", re.IGNORECASE)
    for p in (parser, *sub.choices.values()):
        p._negative_number_matcher = negative
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        emit_report(args.fn(args), args.out)
    # a library ValueError, or an allocation too large for the machine, is a validation error
    except (CliError, ValueError, MemoryError) as exc:
        category = getattr(exc, "category", "validation")
        message = str(exc) or "out of memory"
        print(json.dumps({"error": {"category": category, "message": message}}), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
