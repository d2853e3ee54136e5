"""Batch command-line front door.

Subcommands ``binary``, ``pooled``, ``covariate``, ``aroc``, ``timedep``
and ``simulate`` ingest a cohort CSV (or scenario settings), run one
configured analysis, and write artifacts into an output directory:

* ``curve.csv``: columns ``p,roc,band_lo,band_hi`` (band cells empty for
  estimators without uncertainty bands); always includes p=0 and p=1.
* ``summary.txt``: AUC with interval plus Youden index, threshold and
  optimal-FPF lines, then one ``warning:`` line per distinct roclab
  warning the analysis raised (``NegativeYoudenWarning`` when the reported
  AUC is below 0.5).
* ``metadata.json``: every parameter, seed and library version needed to
  reproduce the run byte-exactly, the sorted ``warnings`` list when
  there are any, and deterministic fit ``diagnostics`` where an analysis
  has them (ROC-GLM: whether IRLS converged and its iteration count).  No
  timestamps.
* ``curve.svg`` (optional): fixed-size static plot.
* ``curve_full.csv`` (optional): full-precision sidecar.

Defaults may come from an INI config file (section per subcommand plus
``[common]``); command-line flags override the file.  Exit codes: 0 ok,
2 validation failure, 3 numeric failure.  The environment variable
``ROCLAB_OUTDIR`` supplies the default output directory.
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import csv
import functools
import json
import math
import os
import sys
import tempfile
import warnings

import numpy as np

from . import __version__
from .core import SeedSpec, forked_spans
from .errors import (AllCensoredWarning, InvalidInputError, NegativeYoudenWarning,
                     SeparationWarning)

ENV_OUTDIR = "ROCLAB_OUTDIR"


# ---------------------------------------------------------------------------
# atomic artifact writers


def _write_files(outdir: str, files: list[tuple[str, str]]) -> None:
    """Write ``(name, text)`` pairs into ``outdir`` as one set.

    Every text goes to a temporary file before any is renamed into place,
    in the order given.  On a failure the temporary files and the files
    this call already renamed are removed, so a failed call leaves none of
    the set behind.
    """
    tmps, placed = [], []
    try:
        for _, text in files:
            fd, tmp = tempfile.mkstemp(dir=outdir, prefix=".roclab-")
            tmps.append(tmp)
            with os.fdopen(fd, "w", newline="") as fh:
                fh.write(text)
        for (name, _), tmp in zip(files, tmps):
            os.replace(tmp, os.path.join(outdir, name))
            placed.append(os.path.join(outdir, name))
    except BaseException:
        for path in tmps + placed:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(path)
        raise


def _fmt6(x) -> str:
    if x is None:
        return ""
    return format(float(x), ".6g")


def _fmt_full(x) -> str:
    if x is None:
        return ""
    return repr(float(x))


def _curve_csv_text(curve, fmt) -> str:
    lines = ["p,roc,band_lo,band_hi"]
    lo = curve.band_lo if curve.band_lo is not None else [None] * len(curve.grid)
    hi = curve.band_hi if curve.band_hi is not None else [None] * len(curve.grid)
    for p, r, a, b in zip(curve.grid, curve.roc, lo, hi):
        lines.append(f"{fmt(p)},{fmt(r)},{fmt(a)},{fmt(b)}")
    return "\n".join(lines) + "\n"


def _interval_line(name: str, value, lo=None, hi=None) -> str:
    if value is None:
        return f"{name}: n/a"
    if lo is None or hi is None:
        return f"{name}: {_fmt6(value)}"
    return f"{name}: {_fmt6(value)} ({_fmt6(lo)}, {_fmt6(hi)})"


def _svg_text(curve) -> str:
    size, margin = 480, 40
    span = size - 2 * margin

    def sx(p):
        return margin + float(p) * span

    def sy(r):
        return margin + (1.0 - float(r)) * span

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<rect x="{margin}" y="{margin}" width="{span}" height="{span}" '
        f'fill="white" stroke="#333333"/>',
    ]
    if curve.band_lo is not None and curve.band_hi is not None:
        fwd = [f"{sx(p):.2f},{sy(r):.2f}" for p, r in zip(curve.grid, curve.band_hi)]
        back = [f"{sx(p):.2f},{sy(r):.2f}"
                for p, r in zip(curve.grid[::-1], curve.band_lo[::-1])]
        parts.append('<polygon points="' + " ".join(fwd + back)
                     + '" fill="#9ecae1" fill-opacity="0.55" stroke="none"/>')
    parts.append(f'<line x1="{sx(0):.2f}" y1="{sy(0):.2f}" x2="{sx(1):.2f}" '
                 f'y2="{sy(1):.2f}" stroke="#999999" stroke-dasharray="6,4"/>')
    pts = " ".join(f"{sx(p):.2f},{sy(r):.2f}" for p, r in zip(curve.grid, curve.roc))
    parts.append(f'<polyline points="{pts}" fill="none" stroke="#08519c" '
                 f'stroke-width="2"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _json_default(obj):
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    raise TypeError(f"not JSON-serializable: {type(obj).__name__}")


def _write_outputs(outdir: str, params: dict, summary_lines: list[str],
                   curve, report, warned: list[str], extra: list,
                   diagnostics: dict) -> None:
    meta = {
        "tool": "roclab",
        "version": __version__,
        "libraries": _library_versions(),
        "params": params,
    }
    if diagnostics:
        meta["diagnostics"] = diagnostics
    if report is not None:
        meta["input_report"] = report
    if warned:
        meta["warnings"] = warned
        summary_lines = summary_lines + [f"warning: {w}" for w in warned]
    files = [("summary.txt", "\n".join(summary_lines) + "\n"), *extra]
    if curve is not None:
        files.append(("curve.csv", _curve_csv_text(curve, _fmt6)))
        if params.get("full_precision"):
            files.append(("curve_full.csv", _curve_csv_text(curve, _fmt_full)))
        if params.get("svg"):
            files.append(("curve.svg", _svg_text(curve)))
    # metadata.json is renamed last: a directory that has it has the whole set
    files.append(("metadata.json", json.dumps(meta, indent=2, sort_keys=True,
                                              default=_json_default) + "\n"))
    _write_files(outdir, files)


def _library_versions() -> dict:
    import scipy
    return {"numpy": np.__version__, "scipy": scipy.__version__,
            "python": ".".join(str(v) for v in sys.version_info[:3])}


# ---------------------------------------------------------------------------
# cohort ingestion


def _parse_cell(raw: str, column: str, row: int) -> float:
    try:
        return float(raw)
    except ValueError:
        raise InvalidInputError(
            f"non-numeric value {raw!r} in column '{column}' at row {row}") from None


def read_cohort(path: str, columns: list[str], *, binary_cols=(),
                log_cols=()) -> tuple[dict, dict]:
    """Read selected columns from a cohort CSV.

    Returns ``(data, report)``: ``data`` maps each requested column name to
    a float array over the retained rows; ``report`` records row counts and
    the 1-based file rows excluded for missing values.  Non-numeric cells
    and out-of-range binary codes raise validation errors naming the row
    and column.  A column requested twice (say as the marker and as a
    covariate) is rejected.
    """
    repeated = sorted({c for c in columns if columns.count(c) > 1})
    if repeated:
        raise InvalidInputError(
            f"column(s) {', '.join(repr(c) for c in repeated)} requested in more "
            "than one role")
    try:
        # utf-8-sig: a file saved with a byte-order mark (as spreadsheets
        # write it) reads as the same file without one
        fh = open(path, newline="", encoding="utf-8-sig")
    except OSError as exc:
        raise InvalidInputError(f"cannot read input file: {exc}") from None
    with fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise InvalidInputError(f"{path}: empty file, expected a CSV header")
        missing = [c for c in columns if c not in header]
        if missing:
            raise InvalidInputError(
                f"{path}: missing required column(s) {', '.join(sorted(missing))}; "
                f"found {', '.join(header)}")
        # a name that heads two columns means the last of them
        index = [len(header) - 1 - header[::-1].index(c) for c in columns]
        binary = [columns.index(c) for c in binary_cols]
        logs = [columns.index(c) for c in log_cols]
        values: list[float] = []  # row after row
        n_rows = 0
        excluded: list[int] = []
        last = reader.line_num  # a record's row is its first line
        for fields in reader:
            row, last = last + 1, reader.line_num
            if not fields:  # blank lines are skipped and not counted
                continue
            n_rows += 1
            width = len(fields)
            cells = [fields[i].strip() if i < width else "" for i in index]
            if "" in cells:
                excluded.append(row)
                continue
            try:
                parsed = [float(cell) for cell in cells]
            except ValueError:  # name the first bad cell
                parsed = [_parse_cell(cell, c, row) for cell, c in zip(cells, columns)]
            for j in binary:
                if parsed[j] not in (0.0, 1.0):
                    raise InvalidInputError(
                        f"column '{columns[j]}' must be 0 or 1, got {cells[j]!r} at row {row}")
            for j in logs:
                if parsed[j] <= 0.0:
                    raise InvalidInputError(
                        f"cannot log-transform nonpositive value {cells[j]!r} "
                        f"in column '{columns[j]}' at row {row}")
                parsed[j] = math.log(parsed[j])
            values.extend(parsed)
    if n_rows == 0:
        raise InvalidInputError(f"{path}: no data rows")
    table = np.array(values, dtype=float).reshape(-1, len(columns))
    data = {c: table[:, j].copy() for j, c in enumerate(columns)}
    report = {"path": path, "n_rows": n_rows, "n_used": n_rows - len(excluded),
              "n_excluded": len(excluded), "excluded_rows": excluded}
    if report["n_used"] == 0:
        raise InvalidInputError(f"{path}: every row was excluded for missing values")
    return data, report


def _cohort(opts: Options, survival: bool = False):
    """Resolve the cohort options: ``input``, ``marker_col``, the group
    columns (``status_col``, or ``time_col`` and ``event_col``) and
    ``log_marker``, in that order.

    Returns ``read(extra=())``, which reads the marker, the group columns
    and the ``extra`` columns through ``read_cohort`` and returns their
    arrays, in that order, and the input report.
    """
    path = opts.get("input", str, required=True)
    marker = opts.get("marker_col", str, "marker")
    if survival:
        groups = [opts.get("time_col", str, "time"), opts.get("event_col", str, "event")]
    else:
        groups = [opts.get("status_col", str, "status")]
    log_cols = (marker,) if opts.get("log_marker", bool, False) else ()

    def read(extra=()):
        columns = [marker, *groups, *extra]
        data, report = read_cohort(path, columns, binary_cols=groups[-1:],
                                   log_cols=log_cols)
        return [data[c] for c in columns], report

    return read


def _split_groups(values: np.ndarray, status: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # the diseased (status 1) and the nondiseased rows of values
    mask = status == 1.0
    d, nd = values[mask], values[~mask]
    if d.size == 0 or nd.size == 0:
        raise InvalidInputError(
            f"empty group after filtering: {d.size} diseased, {nd.size} nondiseased")
    return d, nd


# ---------------------------------------------------------------------------
# config/flag resolution


def _load_config(path: str | None) -> configparser.ConfigParser:
    cfg = configparser.ConfigParser()
    if path is not None:
        if not os.path.exists(path):
            raise InvalidInputError(f"config file not found: {path}")
        try:
            with open(path) as fh:
                cfg.read_file(fh)
        except OSError as exc:
            raise InvalidInputError(f"cannot read config file: {exc}") from None
        except configparser.Error as exc:
            raise InvalidInputError(f"cannot parse config file: {exc}") from None
    return cfg


def _cast_bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise InvalidInputError(f"expected a boolean, got {raw!r}")


class Options:
    """Flag-over-config-over-default resolution for one subcommand."""

    def __init__(self, args: argparse.Namespace, cfg: configparser.ConfigParser,
                 section: str):
        self.args = args
        self.cfg = cfg
        self.section = section
        self.resolved: dict = {}
        # deterministic facts about the fit, for metadata.json's diagnostics
        self.diagnostics: dict = {}

    def get(self, key: str, cast, default=None, required: bool = False):
        value = getattr(self.args, key, None)
        if value is None:
            for section in (self.section, "common"):
                if self.cfg.has_option(section, key):
                    raw = self.cfg.get(section, key)
                    try:
                        value = _cast_bool(raw) if cast is bool else cast(raw)
                    except (ValueError, TypeError):
                        raise InvalidInputError(
                            f"config option [{section}] {key} = {raw!r} "
                            f"is not a valid {cast.__name__}") from None
                    break
        if value is None:
            if required:
                raise InvalidInputError(f"missing required option '{key}'")
            value = default
        self.resolved[key] = value
        return value


def _resolve_outdir(opts: Options) -> str:
    outdir = opts.get("outdir", str, os.environ.get(ENV_OUTDIR) or ".")
    try:
        os.makedirs(outdir, exist_ok=True)
    except OSError as exc:
        raise InvalidInputError(f"cannot create output directory: {exc}") from None
    return outdir


def _grid(opts: Options) -> np.ndarray:
    n = opts.get("grid_points", int, 201)
    if n < 2:
        raise InvalidInputError("grid_points must be at least 2")
    return np.linspace(0.0, 1.0, n)


def _parse_floats(raw: str, name: str) -> list[float]:
    try:
        values = [float(tok) for tok in raw.split(",") if tok.strip() != ""]
    except ValueError:
        raise InvalidInputError(f"{name}: expected comma-separated numbers, got {raw!r}") from None
    if not all(map(math.isfinite, values)):
        raise InvalidInputError(f"{name}: expected finite numbers, got {raw!r}")
    return values


# ---------------------------------------------------------------------------
# subcommand handlers: each takes the ``Options`` that ``_run`` set up and
# returns (summary lines, curve or None, input report or None), then any
# further (name, text) artifacts; ``_run`` writes them all as one set.
# Each imports the estimators it calls from their home modules when it
# runs, so a process loads only its subcommand's modules


def _summary_lines(head: list[str], curve, youden=None) -> list[str]:
    """``head``, then the AUC and Youden lines; ``youden`` is a ``YoudenResult``
    or a dict whose values are numbers, ``(value, lo, hi)`` or None, and
    by default the curve's own largest gap (``indices._curve_gap``) with no
    threshold.

    Every Youden-reporting analysis passes here, so this is the one place
    that issues ``NegativeYoudenWarning``: when the reported AUC (the
    posterior mean for an ensemble) is below 0.5, whatever the estimator.
    """
    from .indices import _curve_gap

    if curve.auc < 0.5:
        warnings.warn("AUC below 0.5; marker orders the groups the other way",
                      NegativeYoudenWarning)
    if youden is None:
        yi, p_star = _curve_gap(curve)
        youden = {"yi": yi, "c_star": None, "p_star": p_star}
    lines = head + [_interval_line("auc", curve.auc, *(curve.auc_ci or (None, None)))]
    values = youden if isinstance(youden, dict) else vars(youden)
    for name in ("yi", "c_star", "p_star"):
        value = values[name]
        lines.append(_interval_line(name, *value) if isinstance(value, tuple)
                     else _interval_line(name, value))
    return lines


def _cmd_binary(opts: Options) -> tuple:
    from .binary_metrics import classification_fractions, predictive_values

    read = _cohort(opts)
    threshold = opts.get("threshold", float, required=True)
    prevalence = opts.get("prevalence", float, None)

    (marker, status), report = read()
    d, nd = _split_groups(marker, status)
    fractions = classification_fractions(d, nd, threshold)
    lines = [
        "analysis: binary",
        f"threshold: {_fmt6(threshold)}",
        f"n_diseased: {d.size}",
        f"n_nondiseased: {nd.size}",
        f"tpf: {_fmt6(fractions.tpf)}",
        f"fpf: {_fmt6(fractions.fpf)}",
        f"tnf: {_fmt6(fractions.tnf)}",
        f"fnf: {_fmt6(fractions.fnf)}",
    ]
    ppv, npv = ((None, None) if prevalence is None
                else predictive_values(fractions, prevalence))
    return lines + [_interval_line("ppv", ppv), _interval_line("npv", npv)], None, report


# sweeps per chain (burn-in plus saved) from which the two Gibbs chains run
# side by side.  Measured: BENCH_26.json fork_floors
_FORK_SWEEPS = 200
# subjects in both groups from which the kernel analysis runs its curve
# and its Youden search side by side.  Measured: BENCH_26.json fork_floors
_FORK_KERNEL = 1000


def _side_by_side(jobs: list, fork: bool) -> list:
    """The results of ``jobs`` (independent callables of no arguments), in
    order, each job a span of ``forked_spans``: with ``fork`` the first
    runs here and each other one in a forked child, one per CPU."""
    spans = forked_spans(lambda start, stop: [job() for job in jobs[start:stop]],
                         len(jobs), fork)
    return [result for span in spans for result in span]


def _mixture_fits(opts: Options, fit, samples) -> list:
    """``fit`` of the diseased and the nondiseased sample, each chain with
    its own seed stream, side by side (``_side_by_side``) from
    ``_FORK_SWEEPS`` sweeps on: the diseased chain here and the
    nondiseased one in a forked child."""
    from .pooled_roc import DpmConfig

    seed = opts.get("seed", int, 20260815)
    kwargs = dict(
        truncation=opts.get("truncation", int, 10),
        alpha=opts.get("alpha", float, 1.0),
        burn_in=opts.get("burn_in", int, 500),
        n_save=opts.get("n_save", int, 1000),
    )
    jobs = [functools.partial(fit, sample, DpmConfig(seed=SeedSpec(seed, stream), **kwargs))
            for sample, stream in zip(samples, (1, 2))]
    return _side_by_side(jobs, kwargs["burn_in"] + kwargs["n_save"] >= _FORK_SWEEPS)


def _pooled_curve_and_youden(opts: Options, d: np.ndarray, nd: np.ndarray,
                             grid: np.ndarray):
    from .indices import youden_empirical, youden_from_cdfs
    from .pooled_roc import (_check_bandwidths, bb_roc, dpm_fit, dpm_roc, empirical_roc,
                             kernel_cdf, kernel_roc, lscv_bandwidth, silverman_bandwidth)

    estimator = opts.get("estimator", str, "empirical")
    level = opts.get("level", float, 0.95)
    if estimator == "empirical":
        return empirical_roc(d, nd, grid), youden_empirical(d, nd)
    if estimator == "kernel":
        method = opts.get("bandwidth_method", str, "silverman")
        if method not in ("silverman", "lscv"):
            raise InvalidInputError("bandwidth_method must be 'silverman' or 'lscv'")
        pick = silverman_bandwidth if method == "silverman" else lscv_bandwidth
        h_d = opts.get("bandwidth_d", float, None)
        h_nd = opts.get("bandwidth_nd", float, None)
        h_d = pick(d) if h_d is None else h_d
        h_nd = pick(nd) if h_nd is None else h_nd
        opts.resolved["bandwidth_d"] = h_d
        opts.resolved["bandwidth_nd"] = h_nd
        _check_bandwidths((d, nd), h_d, h_nd)
        lo = float(min(d.min(), nd.min())) - 4.0 * max(h_d, h_nd)
        hi = float(max(d.max(), nd.max())) + 4.0 * max(h_d, h_nd)
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise InvalidInputError(
                f"bandwidth {max(h_d, h_nd):.3g} overflows the Youden search range, "
                "the data widened by 4 bandwidths; use a smaller bandwidth")
        return _side_by_side([lambda: kernel_roc(d, nd, h_d, h_nd, grid),
                              lambda: youden_from_cdfs(lambda c: kernel_cdf(d, h_d, c),
                                                       lambda c: kernel_cdf(nd, h_nd, c),
                                                       lo, hi)],
                             d.size + nd.size >= _FORK_KERNEL)
    if estimator == "bb":
        n_draws = opts.get("draws", int, 1000)
        seed = opts.get("seed", int, 20260815)
        ensemble = bb_roc(d, nd, n_draws, grid, seed=SeedSpec(seed, 0), youden=True)
        return ensemble.summarize(level), ensemble.youden_summary(level)
    if estimator == "dpm":
        draws_d, draws_nd = _mixture_fits(opts, dpm_fit, (d, nd))
        ensemble = dpm_roc(draws_d, draws_nd, grid, youden=True)
        return ensemble.summarize(level), ensemble.youden_summary(level)
    raise InvalidInputError(
        f"unknown estimator {estimator!r}: choose empirical, kernel, bb or dpm")


def _cmd_pooled(opts: Options) -> tuple:
    read = _cohort(opts)
    grid = _grid(opts)

    (marker, status), report = read()
    d, nd = _split_groups(marker, status)
    curve, youden = _pooled_curve_and_youden(opts, d, nd, grid)
    head = ["analysis: pooled", f"estimator: {opts.resolved['estimator']}",
            f"n_diseased: {d.size}", f"n_nondiseased: {nd.size}"]
    return _summary_lines(head, curve, youden), curve, report


def _regression_samples(read, covariates: list[str]) -> tuple:
    """Diseased and nondiseased ``RegressionSample`` s and the input report."""
    from .covariate_roc import RegressionSample

    (marker, status, *xs), report = read(covariates)
    design = np.column_stack([np.ones(marker.size), *xs])
    labels = ("intercept", *covariates)
    (y_d, y_nd), (x_d, x_nd) = _split_groups(marker, status), _split_groups(design, status)
    return (RegressionSample(y_d, x_d, labels), RegressionSample(y_nd, x_nd, labels), report)


def _cmd_covariate(opts: Options) -> tuple:
    from .covariate_roc import (ddp_fit, ddp_roc, faraggi_roc, location_scale_cdf,
                                location_scale_youden, ols_fit, pepe_semiparam_roc,
                                rocglm_fit)

    read = _cohort(opts)
    covariates = _parse_names(opts.get("covariates", str, required=True))
    at = _parse_floats(opts.get("at", str, required=True), "at")
    if len(at) != len(covariates):
        raise InvalidInputError(
            f"--at needs {len(covariates)} value(s) for {', '.join(covariates)}")
    estimator = opts.get("estimator", str, "faraggi")
    level = opts.get("level", float, 0.95)
    grid = _grid(opts)

    sample_d, sample_nd, report = _regression_samples(read, covariates)
    if estimator in ("faraggi", "pepe"):
        fit_d, fit_nd = ols_fit(sample_d), ols_fit(sample_nd)
        errors = "normal" if estimator == "faraggi" else "empirical"
        build = faraggi_roc if estimator == "faraggi" else pepe_semiparam_roc
        curve = build(fit_d, fit_nd, at, grid)
        youden = location_scale_youden(fit_d, fit_nd, at, errors)
    elif estimator == "ddp":
        draws_d, draws_nd = _mixture_fits(opts, ddp_fit, (sample_d, sample_nd))
        z = np.concatenate([[1.0], np.asarray(at, dtype=float)])
        ensemble = ddp_roc(draws_d, draws_nd, z, grid, youden=True)
        curve = ensemble.summarize(level)
        youden = ensemble.youden_summary(level)
    elif estimator == "rocglm":
        errors = opts.get("errors", str, "empirical")
        baseline = opts.get("baseline", str, "parametric")
        nd_cdf = location_scale_cdf(ols_fit(sample_nd), errors)
        fit = rocglm_fit(sample_d, nd_cdf, baseline=baseline)
        curve = fit.curve(at, grid)
        opts.resolved["rocglm_alpha"] = [float(v) for v in fit.alpha]
        opts.resolved["rocglm_beta"] = [float(v) for v in fit.beta]
        opts.diagnostics["rocglm"] = {"converged": fit.converged, "n_iter": fit.n_iter}
        youden = None
    else:
        raise InvalidInputError(
            f"unknown estimator {estimator!r}: choose faraggi, pepe, ddp or rocglm")
    head = ["analysis: covariate", f"estimator: {estimator}",
            f"at: {','.join(_fmt6(v) for v in at)}",
            f"n_diseased: {sample_d.n}", f"n_nondiseased: {sample_nd.n}"]
    return _summary_lines(head, curve, youden), curve, report


def _cmd_aroc(opts: Options) -> tuple:
    from .covariate_roc import aroc, location_scale_cdf, ols_fit

    read = _cohort(opts)
    covariates = _parse_names(opts.get("covariates", str, required=True))
    errors = opts.get("errors", str, "empirical")
    grid = _grid(opts)

    sample_d, sample_nd, report = _regression_samples(read, covariates)
    nd_cdf = location_scale_cdf(ols_fit(sample_nd), errors)
    curve = aroc(sample_d, nd_cdf, grid)
    head = ["analysis: aroc", f"errors: {errors}",
            f"n_diseased: {sample_d.n}", f"n_nondiseased: {sample_nd.n}"]
    return _summary_lines(head, curve), curve, report


def _cmd_timedep(opts: Options) -> tuple:
    from .timedep_roc import SurvivalSample, _roc_and_youden

    read = _cohort(opts, survival=True)
    horizon = opts.get("time", float, required=True)
    isotonic = opts.get("isotonic", bool, False)
    grid = _grid(opts)

    (marker, time, event), report = read()
    sample = SurvivalSample(marker=marker, time=time, event=event)
    curve, youden = _roc_and_youden(sample, horizon, grid, isotonic=isotonic)
    head = ["analysis: timedep", f"time: {_fmt6(horizon)}", f"n_subjects: {sample.n}"]
    return _summary_lines(head, curve, youden), curve, report


def _cohort_csv_text(header: list[str], rows) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(repr(float(v)) for v in row))
    return "\n".join(lines) + "\n"


def _cmd_simulate(opts: Options) -> tuple:
    from .simulate import (BinormalScenario, gen_binormal, gen_covariate_linear,
                           gen_survival, true_binormal_auc, true_binormal_youden)

    scenario = opts.get("scenario", str, "binormal")
    seed = opts.get("seed", int, 20260815)
    spec = SeedSpec(seed, 0)

    if scenario == "binormal":
        a = opts.get("a", float, 1.0)
        b = opts.get("b", float, 1.0)
        n_d = opts.get("n_diseased", int, 100)
        n_nd = opts.get("n_nondiseased", int, 100)
        sample = gen_binormal(BinormalScenario(a=a, b=b, n_diseased=n_d,
                                               n_nondiseased=n_nd, seed=spec))
        rows = [(v, 1.0) for v in sample.diseased] + \
               [(v, 0.0) for v in sample.nondiseased]
        text = _cohort_csv_text(["marker", "status"], rows)
        truth = true_binormal_youden(a, b)
        lines = [
            "analysis: simulate",
            "scenario: binormal",
            f"n_diseased: {n_d}",
            f"n_nondiseased: {n_nd}",
            f"true_auc: {_fmt6(true_binormal_auc(a, b))}",
            f"true_yi: {_fmt6(truth.yi)}",
            f"true_c_star: {_fmt6(truth.c_star)}",
            f"true_p_star: {_fmt6(truth.p_star)}",
        ]
    elif scenario == "covariate":
        beta_d = _parse_floats(opts.get("beta_d", str, "0.5,1.0"), "beta_d")
        beta_nd = _parse_floats(opts.get("beta_nd", str, "0.0,1.0"), "beta_nd")
        sigma_d = opts.get("sigma_d", float, 1.0)
        sigma_nd = opts.get("sigma_nd", float, 1.0)
        n_d = opts.get("n_diseased", int, 100)
        n_nd = opts.get("n_nondiseased", int, 100)
        sample_d, sample_nd = gen_covariate_linear(
            beta_d, beta_nd, sigma_d, sigma_nd, n_d, n_nd, seed=spec)
        rows = [(y, 1.0, x) for y, x in zip(sample_d.outcomes, sample_d.design[:, 1])]
        rows += [(y, 0.0, x) for y, x in zip(sample_nd.outcomes, sample_nd.design[:, 1])]
        text = _cohort_csv_text(["marker", "status", "x"], rows)
        lines = ["analysis: simulate", "scenario: covariate",
                 f"n_diseased: {n_d}", f"n_nondiseased: {n_nd}"]
    elif scenario == "survival":
        n = opts.get("n", int, 200)
        gamma = opts.get("gamma", float, 1.0)
        censor_rate = opts.get("censor_rate", float, 0.0)
        sample = gen_survival(n, gamma, censor_rate, seed=spec)
        rows = zip(sample.marker, sample.time, sample.event)
        text = _cohort_csv_text(["marker", "time", "event"], rows)
        lines = ["analysis: simulate", "scenario: survival",
                 f"n_subjects: {n}",
                 f"n_events: {int(np.sum(sample.event))}"]
    else:
        raise InvalidInputError(
            f"unknown scenario {scenario!r}: choose binormal, covariate or survival")

    return lines, None, None, ("cohort.csv", text)


def _parse_names(raw: str) -> list[str]:
    names = [tok.strip() for tok in raw.split(",") if tok.strip() != ""]
    if not names:
        raise InvalidInputError("expected at least one column name")
    return names


# ---------------------------------------------------------------------------
# argument parsing and dispatch


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="INI config file; flags override it")
    sub.add_argument("--outdir", help=f"output directory (default ${ENV_OUTDIR} or .)")
    sub.add_argument("--svg", action="store_const", const=True, default=None,
                     help="also write curve.svg")
    sub.add_argument("--full-precision", dest="full_precision",
                     action="store_const", const=True, default=None,
                     help="also write curve_full.csv with full-precision values")
    sub.add_argument("--grid-points", dest="grid_points", type=int,
                     help="number of FPF grid points including 0 and 1 (default 201)")
    sub.add_argument("--seed", type=int, help="master seed for stochastic estimators")


def _add_cohort(sub: argparse.ArgumentParser, survival: bool) -> None:
    sub.add_argument("--input", help="cohort CSV path")
    sub.add_argument("--marker-col", dest="marker_col", help="marker column (default marker)")
    if survival:
        sub.add_argument("--time-col", dest="time_col", help="time column (default time)")
        sub.add_argument("--event-col", dest="event_col", help="event column (default event)")
    else:
        sub.add_argument("--status-col", dest="status_col", help="status column (default status)")
    sub.add_argument("--log-marker", dest="log_marker", action="store_const",
                     const=True, default=None,
                     help="analyze the natural log of the marker")


def _add_mixture(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--level", type=float, help="credible level (default 0.95)")
    sub.add_argument("--truncation", type=int)
    sub.add_argument("--alpha", type=float)
    sub.add_argument("--burn-in", dest="burn_in", type=int)
    sub.add_argument("--n-save", dest="n_save", type=int)


def _subparser(subs, name: str, handler, help: str, *, cohort: bool = True,
               survival: bool = False) -> argparse.ArgumentParser:
    sub = subs.add_parser(name, help=help)
    _add_common(sub)
    if cohort:
        _add_cohort(sub, survival)
    sub.set_defaults(handler=handler)
    return sub


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="roclab", description="ROC analysis of diagnostic and prognostic tests")
    parser.add_argument("--version", action="version", version=f"roclab {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    p = _subparser(subs, "binary", _cmd_binary, "confusion fractions at a fixed threshold")
    p.add_argument("--threshold", type=float, help="positivity threshold (marker >= c)")
    p.add_argument("--prevalence", type=float, help="disease prevalence for PPV/NPV")

    p = _subparser(subs, "pooled", _cmd_pooled, "pooled ROC curve, AUC and Youden index")
    p.add_argument("--estimator", choices=["empirical", "kernel", "bb", "dpm"])
    p.add_argument("--bandwidth-method", dest="bandwidth_method",
                   choices=["silverman", "lscv"])
    p.add_argument("--bandwidth-d", dest="bandwidth_d", type=float)
    p.add_argument("--bandwidth-nd", dest="bandwidth_nd", type=float)
    p.add_argument("--draws", type=int, help="Bayesian bootstrap draws (default 1000)")
    _add_mixture(p)

    p = _subparser(subs, "covariate", _cmd_covariate, "covariate-specific ROC curve")
    p.add_argument("--estimator", choices=["faraggi", "pepe", "ddp", "rocglm"])
    p.add_argument("--covariates", help="comma-separated covariate columns")
    p.add_argument("--at", help="comma-separated covariate values to condition on")
    p.add_argument("--errors", choices=["empirical", "normal"],
                   help="residual law for the conditional reference CDF")
    p.add_argument("--baseline", choices=["parametric", "spline"],
                   help="ROC-GLM baseline form")
    _add_mixture(p)

    p = _subparser(subs, "aroc", _cmd_aroc, "covariate-adjusted ROC curve")
    p.add_argument("--covariates", help="comma-separated covariate columns")
    p.add_argument("--errors", choices=["empirical", "normal"])

    p = _subparser(subs, "timedep", _cmd_timedep, "cumulative/dynamic time-dependent ROC",
                   survival=True)
    p.add_argument("--time", type=float, help="evaluation time t")
    p.add_argument("--isotonic", action="store_const", const=True, default=None,
                   help="project the curve to a monotone step function")

    p = _subparser(subs, "simulate", _cmd_simulate, "generate a synthetic cohort CSV",
                   cohort=False)
    p.add_argument("--scenario", choices=["binormal", "covariate", "survival"])
    p.add_argument("--a", type=float, help="binormal intercept parameter")
    p.add_argument("--b", type=float, help="binormal slope parameter")
    p.add_argument("--n-diseased", dest="n_diseased", type=int)
    p.add_argument("--n-nondiseased", dest="n_nondiseased", type=int)
    p.add_argument("--n", type=int, help="survival scenario cohort size")
    p.add_argument("--gamma", type=float, help="marker effect on the event hazard")
    p.add_argument("--censor-rate", dest="censor_rate", type=float)
    p.add_argument("--beta-d", dest="beta_d", help="diseased mean coefficients")
    p.add_argument("--beta-nd", dest="beta_nd", help="nondiseased mean coefficients")
    p.add_argument("--sigma-d", dest="sigma_d", type=float)
    p.add_argument("--sigma-nd", dest="sigma_nd", type=float)
    return parser


def _write_error(args, cfg: configparser.ConfigParser, exc: Exception,
                 code: int) -> None:
    try:
        outdir = _resolve_outdir(Options(args, cfg, args.command))
        _write_files(outdir, [("error.json", json.dumps(
            {"error": type(exc).__name__, "message": str(exc), "exit_code": code},
            indent=2, sort_keys=True) + "\n")])
    except (OSError, InvalidInputError):  # no usable output directory
        pass


# warnings about the data or the fit; they are deterministic, so recording
# them keeps reruns byte-identical
_RECORDED_WARNINGS = (AllCensoredWarning, NegativeYoudenWarning, SeparationWarning)


def _run(args, cfg: configparser.ConfigParser) -> None:
    """Set up the run, call the subcommand's handler and write its artifacts.

    The output directory and the ``svg``/``full_precision`` flags are
    resolved first; the handler gets the ``Options`` and resolves the rest,
    and everything resolved goes into ``metadata.json`` as ``params``.
    Every distinct warning the handler raises still goes to stderr once;
    the roclab ones are also listed, sorted, in the artifacts.  An
    ``OSError`` while writing them is an input error (exit 2).
    """
    opts = Options(args, cfg, args.command)
    outdir = _resolve_outdir(opts)
    opts.get("svg", bool, False)
    opts.get("full_precision", bool, False)
    seen = {}
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            lines, curve, report, *extra = args.handler(opts)
    finally:
        for w in caught:
            seen.setdefault((w.category, str(w.message)), w)
        for w in seen.values():
            warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
    warned = sorted(f"{category.__name__}: {message}" for category, message in seen
                    if issubclass(category, _RECORDED_WARNINGS))
    try:
        _write_outputs(outdir, opts.resolved, lines, curve, report, warned, extra,
                       opts.diagnostics)
    except OSError as exc:  # e.g. a directory named summary.txt in the way
        raise InvalidInputError(f"cannot write artifacts: {exc}") from None


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    cfg = configparser.ConfigParser()  # stays empty if the file fails to load
    try:
        cfg = _load_config(args.config)
        _run(args, cfg)
        return 0
    except (ValueError, RuntimeError) as exc:
        code = 2 if isinstance(exc, ValueError) else 3
        print(f"error: {exc}", file=sys.stderr)
        _write_error(args, cfg, exc, code)
        return code


if __name__ == "__main__":
    sys.exit(main())
