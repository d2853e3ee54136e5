import csv
import importlib
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import roclab
from roclab import InvalidInputError, NegativeYoudenWarning, NumericError
from roclab.cli import main, read_cohort


def write_csv(path, text):
    path.write_text(text)
    return str(path)


SEPARATED = "marker,status\n1,0\n2,0\n10,1\n12,1\n"


def run(argv):
    return main([str(a) for a in argv])


class TestReadCohort:
    def test_small_cohort_split(self, tmp_path):
        p = write_csv(tmp_path / "c.csv", SEPARATED)
        data, report = read_cohort(p, ["marker", "status"], binary_cols=("status",))
        assert report["n_rows"] == 4 and report["n_used"] == 4
        assert (data["status"] == 1.0).sum() == 2
        assert (data["status"] == 0.0).sum() == 2

    def test_missing_cells_excluded_and_reported(self, tmp_path):
        p = write_csv(tmp_path / "c.csv",
                      "marker,status\n1.0,0\n,1\n2.0,1\n3.0,\n")
        data, report = read_cohort(p, ["marker", "status"], binary_cols=("status",))
        assert report["n_used"] == 2
        assert report["excluded_rows"] == [3, 5]  # 1-based file rows
        assert data["marker"].size == 2

    def test_nonnumeric_cell_names_row_and_column(self, tmp_path):
        p = write_csv(tmp_path / "c.csv", "marker,status\n1.0,0\noops,1\n")
        with pytest.raises(InvalidInputError, match=r"marker.*row 3"):
            read_cohort(p, ["marker", "status"])

    def test_bad_status_code_names_row(self, tmp_path):
        p = write_csv(tmp_path / "c.csv", "marker,status\n1.0,0\n2.0,7\n")
        with pytest.raises(InvalidInputError, match=r"status.*row 3"):
            read_cohort(p, ["marker", "status"], binary_cols=("status",))

    def test_missing_column(self, tmp_path):
        p = write_csv(tmp_path / "c.csv", "m,status\n1.0,0\n")
        with pytest.raises(InvalidInputError, match="missing required column"):
            read_cohort(p, ["marker", "status"])

    def test_log_transform(self, tmp_path):
        p = write_csv(tmp_path / "c.csv", "marker,status\n1.0,0\n7.5,1\n")
        data, _ = read_cohort(p, ["marker", "status"], log_cols=("marker",))
        assert data["marker"][1] == np.log(7.5)

    def test_log_of_nonpositive_rejected(self, tmp_path):
        p = write_csv(tmp_path / "c.csv", "marker,status\n-1.0,0\n2.0,1\n")
        with pytest.raises(InvalidInputError, match="log-transform"):
            read_cohort(p, ["marker", "status"], log_cols=("marker",))


def read_cohort_dictreader(path, columns, *, binary_cols=(), log_cols=()):
    """``read_cohort`` as first written, over ``csv.DictReader`` records."""
    repeated = sorted({c for c in columns if columns.count(c) > 1})
    if repeated:
        raise InvalidInputError(
            f"column(s) {', '.join(repr(c) for c in repeated)} requested in more "
            "than one role")
    try:
        fh = open(path, newline="")
    except OSError as exc:
        raise InvalidInputError(f"cannot read input file: {exc}") from None
    with fh:
        # a record's row is its first line: the first nonblank line after
        # the previous record (csv.DictReader skips blank lines)
        blank = [line in ("\n", "\r\n", "\r") for line in fh]
        fh.seek(0)
        reader = csv.DictReader(fh)
        header = reader.fieldnames
        if header is None:
            raise InvalidInputError(f"{path}: empty file, expected a CSV header")
        missing = [c for c in columns if c not in header]
        if missing:
            raise InvalidInputError(
                f"{path}: missing required column(s) {', '.join(sorted(missing))}; "
                f"found {', '.join(header)}")
        values = {c: [] for c in columns}
        n_rows = 0
        excluded = []
        last = reader.line_num
        for record in reader:
            n_rows += 1
            row = next(k for k in range(last + 1, reader.line_num + 1) if not blank[k - 1])
            last = reader.line_num
            cells = {c: (record[c] or "").strip() for c in columns}
            if any(cell == "" for cell in cells.values()):
                excluded.append(row)
                continue
            parsed = {}
            for c in columns:
                try:
                    parsed[c] = float(cells[c])
                except ValueError:
                    raise InvalidInputError(f"non-numeric value {cells[c]!r} in column "
                                            f"'{c}' at row {row}") from None
            for c in binary_cols:
                if parsed[c] not in (0.0, 1.0):
                    raise InvalidInputError(
                        f"column '{c}' must be 0 or 1, got {cells[c]!r} at row {row}")
            for c in log_cols:
                if parsed[c] <= 0.0:
                    raise InvalidInputError(
                        f"cannot log-transform nonpositive value {cells[c]!r} "
                        f"in column '{c}' at row {row}")
                parsed[c] = math.log(parsed[c])
            for c in columns:
                values[c].append(parsed[c])
    if n_rows == 0:
        raise InvalidInputError(f"{path}: no data rows")
    data = {c: np.asarray(v, dtype=float) for c, v in values.items()}
    report = {"path": path, "n_rows": n_rows, "n_used": n_rows - len(excluded),
              "n_excluded": len(excluded), "excluded_rows": excluded}
    if report["n_used"] == 0:
        raise InvalidInputError(f"{path}: every row was excluded for missing values")
    return data, report


NAMES = ["marker", "status", "x"]
CELLS = ["", " ", "0", "1", " 1 ", "2.5", "-1", "1e3", "nan", "inf", "abc", '"4\n"',
         '"0,5"']
csv_line = st.one_of(st.just(""), st.lists(st.sampled_from(CELLS), max_size=5).map(",".join))


class TestByteOrderMark:
    @pytest.mark.parametrize("text", [SEPARATED, "marker,status,x\n1,0,a\n,1,2\n3.5,1,\n"])
    def test_a_bom_prefixed_file_reads_like_the_plain_one(self, tmp_path, text):
        plain = write_csv(tmp_path / "plain.csv", text)
        bom = tmp_path / "bom.csv"
        bom.write_bytes(b"\xef\xbb\xbf" + text.encode())
        want = read_cohort(plain, ["marker", "status"], binary_cols=("status",))
        got = read_cohort(str(bom), ["marker", "status"], binary_cols=("status",))
        assert got[1] == {**want[1], "path": str(bom)}
        assert got[0].keys() == want[0].keys()
        assert all(np.array_equal(got[0][c], want[0][c]) for c in want[0])

    def test_cli_reads_a_bom_prefixed_file(self, tmp_path):
        bom = tmp_path / "bom.csv"
        bom.write_bytes(b"\xef\xbb\xbf" + SEPARATED.encode())
        plain = write_csv(tmp_path / "plain.csv", SEPARATED)
        for name, path in (("bom", bom), ("plain", plain)):
            assert run(["pooled", "--input", path, "--outdir", tmp_path / name]) == 0
        assert ((tmp_path / "bom" / "curve.csv").read_text()
                == (tmp_path / "plain" / "curve.csv").read_text())
        assert ((tmp_path / "bom" / "summary.txt").read_text()
                == (tmp_path / "plain" / "summary.txt").read_text())


class TestReadCohortAgainstDictReader:
    """``csv.reader`` with column indices reads as ``csv.DictReader`` did."""

    @given(st.lists(st.sampled_from(NAMES + ["m"]), max_size=5),
           st.lists(csv_line, max_size=12), st.booleans(),
           st.lists(st.sampled_from(NAMES), min_size=1, max_size=3, unique=True),
           st.sets(st.sampled_from(NAMES)), st.sets(st.sampled_from(NAMES)))
    def test_same_data_report_and_errors(self, tmp_path_factory, header, lines, no_header,
                                         columns, binary, logs):
        path = str(tmp_path_factory.getbasetemp() / "cohort.csv")
        text = "" if no_header else ",".join(header) + "\n"
        with open(path, "w", newline="") as fh:
            fh.write(text + "".join(line + "\n" for line in lines))
        kwargs = dict(binary_cols=[c for c in columns if c in binary],
                      log_cols=[c for c in columns if c in logs])
        try:
            want = read_cohort_dictreader(path, columns, **kwargs)
        except InvalidInputError as exc:
            with pytest.raises(InvalidInputError) as err:
                read_cohort(path, columns, **kwargs)
            assert str(err.value) == str(exc)
            return
        data, report = read_cohort(path, columns, **kwargs)
        assert report == want[1]
        assert list(data) == list(want[0])
        for c in columns:
            assert np.array_equal(data[c], want[0][c], equal_nan=True)

    def test_a_record_with_a_quoted_newline_is_numbered_by_its_first_line(self, tmp_path):
        # records on lines 2, 3-4 (excluded: no x) and 6-7, after a blank line 5
        text = 'marker,status,x\n1,0,1\n"4\n",1,\n\n"5\n",1,2\n'
        data, report = read_cohort(write_csv(tmp_path / "c.csv", text),
                                   ["marker", "status", "x"])
        assert report["excluded_rows"] == [3]
        assert data["marker"].tolist() == [1.0, 5.0]
        bad = write_csv(tmp_path / "d.csv", text.replace(",2\n", ",oops\n"))
        with pytest.raises(InvalidInputError, match=r"'x' at row 6$"):
            read_cohort(bad, ["marker", "x"])

    def test_blank_lines_and_duplicate_names(self, tmp_path):
        # blank lines are neither records nor rows' numbers; a repeated
        # name means its last column
        p = write_csv(tmp_path / "c.csv", "marker,status,marker\n1,0,5\n\n\n2,1,\n3,1,7\n")
        data, report = read_cohort(p, ["marker", "status"])
        assert data["marker"].tolist() == [5.0, 7.0]
        assert report["excluded_rows"] == [5] and report["n_rows"] == 3


class TestBinarySubcommand:
    def test_fractions_and_predictive_values(self, tmp_path):
        p = write_csv(tmp_path / "c.csv", SEPARATED)
        out = tmp_path / "out"
        rc = run(["binary", "--input", p, "--threshold", "5", "--prevalence",
                  "0.1", "--outdir", out])
        assert rc == 0
        summary = (out / "summary.txt").read_text()
        assert "tpf: 1" in summary and "fpf: 0" in summary
        assert "ppv: 1" in summary and "npv: 1" in summary
        meta = json.loads((out / "metadata.json").read_text())
        assert meta["params"]["threshold"] == 5.0
        assert meta["input_report"]["n_used"] == 4

    def test_no_curve_artifacts(self, tmp_path):
        p = write_csv(tmp_path / "c.csv", SEPARATED)
        out = tmp_path / "out"
        run(["binary", "--input", p, "--threshold", "5", "--outdir", out])
        assert not (out / "curve.csv").exists()


class TestPooledSubcommand:
    def test_separated_empirical_auc_one(self, tmp_path):
        p = write_csv(tmp_path / "c.csv", SEPARATED)
        out = tmp_path / "out"
        rc = run(["pooled", "--input", p, "--estimator", "empirical",
                  "--outdir", out])
        assert rc == 0
        assert "auc: 1\n" in (out / "summary.txt").read_text()

    def test_curve_includes_both_endpoints(self, tmp_path):
        p = write_csv(tmp_path / "c.csv", SEPARATED)
        out = tmp_path / "out"
        run(["pooled", "--input", p, "--outdir", out, "--grid-points", "11"])
        rows = (out / "curve.csv").read_text().strip().splitlines()
        assert rows[0] == "p,roc,band_lo,band_hi"
        assert rows[1].startswith("0,")
        assert rows[-1].startswith("1,")
        assert len(rows) == 12

    def test_marker_log_invariance(self, tmp_path):
        # log is monotone: the empirical curve cannot change
        rng = np.random.default_rng(80)
        rows = "\n".join(f"{v},{s}" for v, s in
                         zip(np.exp(rng.normal(0, 1, 60)), [0, 1] * 30))
        p = write_csv(tmp_path / "c.csv", "marker,status\n" + rows + "\n")
        out1, out2 = tmp_path / "raw", tmp_path / "log"
        run(["pooled", "--input", p, "--outdir", out1])
        run(["pooled", "--input", p, "--outdir", out2, "--log-marker"])
        assert (out1 / "curve.csv").read_text() == (out2 / "curve.csv").read_text()
        meta = json.loads((out2 / "metadata.json").read_text())
        assert meta["params"]["log_marker"] is True

    def test_bb_rerun_byte_identical(self, tmp_path):
        rng = np.random.default_rng(81)
        rows = "\n".join(f"{v},{s}" for v, s in
                         zip(rng.normal(0, 1, 80), [0, 1] * 40))
        p = write_csv(tmp_path / "c.csv", "marker,status\n" + rows + "\n")
        out = tmp_path / "out"
        run(["pooled", "--input", p, "--estimator", "bb", "--draws", "50",
             "--seed", "7", "--outdir", out, "--svg", "--full-precision"])
        first = {f: (out / f).read_bytes()
                 for f in ("curve.csv", "curve_full.csv", "summary.txt",
                           "metadata.json", "curve.svg")}
        run(["pooled", "--input", p, "--estimator", "bb", "--draws", "50",
             "--seed", "7", "--outdir", out, "--svg", "--full-precision"])
        for f, blob in first.items():
            assert (out / f).read_bytes() == blob, f

    def test_full_precision_sidecar_roundtrips(self, tmp_path):
        p = write_csv(tmp_path / "c.csv", SEPARATED)
        out = tmp_path / "out"
        run(["pooled", "--input", p, "--outdir", out, "--full-precision"])
        rows = (out / "curve_full.csv").read_text().strip().splitlines()[1:]
        for row in rows:
            pv, roc = row.split(",")[:2]
            assert float(pv) == float(repr(float(pv)))  # repr round-trip
            assert 0.0 <= float(roc) <= 1.0

    def test_svg_has_curve_polyline(self, tmp_path):
        p = write_csv(tmp_path / "c.csv", SEPARATED)
        out = tmp_path / "out"
        run(["pooled", "--input", p, "--outdir", out, "--svg"])
        svg = (out / "curve.svg").read_text()
        assert "<polyline" in svg and "</svg>" in svg

    def test_kernel_estimator_runs(self, tmp_path):
        rng = np.random.default_rng(82)
        rows = "\n".join(f"{v},{s}" for v, s in
                         zip(rng.normal(0.5, 1, 60), [0, 1] * 30))
        p = write_csv(tmp_path / "c.csv", "marker,status\n" + rows + "\n")
        out = tmp_path / "out"
        rc = run(["pooled", "--input", p, "--estimator", "kernel", "--outdir", out])
        assert rc == 0
        meta = json.loads((out / "metadata.json").read_text())
        assert meta["params"]["bandwidth_d"] > 0.0

    @pytest.mark.parametrize("h, message", [
        ("1e308", "bandwidth 1e+308 overflows the Youden search range"),
        ("1e-320", "bandwidth 1e-320 is below the smallest normal double"),
        ("3e-308", "bandwidth 3e-308 is too small for data spanning 11"),
    ])
    def test_kernel_bandwidth_at_the_edges_of_double_range(self, tmp_path, capsys, h,
                                                          message):
        p = write_csv(tmp_path / "c.csv", SEPARATED)
        out = tmp_path / "out"
        assert run(["pooled", "--input", p, "--estimator", "kernel", "--bandwidth-d", h,
                    "--outdir", out]) == 2
        assert capsys.readouterr().err.startswith(f"error: {message}")
        assert json.loads((out / "error.json").read_text())["message"].startswith(message)


class TestConfigAndEnv:
    def test_config_supplies_options(self, tmp_path):
        p = write_csv(tmp_path / "c.csv", SEPARATED)
        ini = tmp_path / "run.ini"
        ini.write_text("[common]\ngrid_points = 5\n\n[pooled]\nestimator = empirical\n"
                       f"input = {p}\n")
        out = tmp_path / "out"
        rc = run(["pooled", "--config", ini, "--outdir", out])
        assert rc == 0
        rows = (out / "curve.csv").read_text().strip().splitlines()
        assert len(rows) == 6  # header + 5 grid points

    def test_flag_overrides_config(self, tmp_path):
        p = write_csv(tmp_path / "c.csv", SEPARATED)
        ini = tmp_path / "run.ini"
        ini.write_text(f"[pooled]\ninput = {p}\ngrid_points = 5\n")
        out = tmp_path / "out"
        run(["pooled", "--config", ini, "--outdir", out, "--grid-points", "3"])
        rows = (out / "curve.csv").read_text().strip().splitlines()
        assert len(rows) == 4

    def test_outdir_env_var(self, tmp_path, monkeypatch):
        p = write_csv(tmp_path / "c.csv", SEPARATED)
        out = tmp_path / "env_out"
        monkeypatch.setenv("ROCLAB_OUTDIR", str(out))
        rc = run(["pooled", "--input", p])
        assert rc == 0
        assert (out / "summary.txt").exists()

    def test_missing_config_file(self, tmp_path, capsys):
        rc = run(["pooled", "--input", "x.csv", "--config",
                  tmp_path / "nope.ini", "--outdir", tmp_path])
        assert rc == 2
        assert "config file not found" in capsys.readouterr().err

    def test_config_that_cannot_be_read(self, tmp_path, capsys):
        # a directory passes the existence check but cannot be opened
        out = tmp_path / "out"
        rc = run(["pooled", "--input", "x.csv", "--config", tmp_path, "--outdir", out])
        assert rc == 2
        assert "cannot read config file" in capsys.readouterr().err
        assert json.loads((out / "error.json").read_text())["exit_code"] == 2


class TestErrorPaths:
    def test_invalid_input_exits_2_with_error_json(self, tmp_path, capsys):
        p = write_csv(tmp_path / "c.csv", "marker,status\n1.0,0\nbad,1\n")
        out = tmp_path / "out"
        rc = run(["pooled", "--input", p, "--outdir", out])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "row 3" in err
        blob = json.loads((out / "error.json").read_text())
        assert blob["exit_code"] == 2

    def test_numeric_error_exits_3(self, tmp_path, monkeypatch, capsys):
        p = write_csv(tmp_path / "c.csv", SEPARATED)
        out = tmp_path / "out"

        def boom(*a, **k):
            raise NumericError("synthetic numerical failure")

        monkeypatch.setattr("roclab.pooled_roc.empirical_roc", boom)
        rc = run(["pooled", "--input", p, "--outdir", out])
        assert rc == 3
        assert "synthetic numerical failure" in capsys.readouterr().err
        assert json.loads((out / "error.json").read_text())["exit_code"] == 3

    def test_error_json_follows_config_outdir(self, tmp_path, monkeypatch, capsys):
        out = tmp_path / "out"
        ini = tmp_path / "run.ini"
        ini.write_text(f"[common]\noutdir = {out}\n")
        cwd = tmp_path / "cwd"
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        monkeypatch.delenv("ROCLAB_OUTDIR", raising=False)
        rc = run(["pooled", "--config", ini, "--input", tmp_path / "missing.csv"])
        assert rc == 2
        assert "cannot read input file" in capsys.readouterr().err
        assert json.loads((out / "error.json").read_text())["exit_code"] == 2
        assert not (cwd / "error.json").exists()

    def test_outdir_that_cannot_be_created(self, tmp_path, capsys):
        p = write_csv(tmp_path / "c.csv", SEPARATED)
        for outdir in (p, tmp_path / "c.csv" / "sub"):
            rc = run(["pooled", "--input", p, "--outdir", outdir])
            assert rc == 2
            assert "cannot create output directory" in capsys.readouterr().err
        assert (tmp_path / "c.csv").read_text() == SEPARATED

    def test_artifact_write_error_exits_2_with_error_json(self, tmp_path, capsys):
        # a directory named summary.txt: the summary cannot replace it, and
        # the failed run leaves no metadata.json beside its error.json
        p = write_csv(tmp_path / "c.csv", SEPARATED)
        out = tmp_path / "out"
        (out / "summary.txt").mkdir(parents=True)
        rc = run(["binary", "--input", p, "--threshold", "5", "--outdir", out])
        assert rc == 2
        assert "cannot write artifacts" in capsys.readouterr().err
        blob = json.loads((out / "error.json").read_text())
        assert blob["error"] == "InvalidInputError" and blob["exit_code"] == 2
        assert (out / "summary.txt").is_dir()
        assert not (out / "metadata.json").exists()
        assert not [f for f in os.listdir(out) if f.startswith(".roclab-")]

    def test_failed_artifact_set_leaves_no_file_of_the_set(self, tmp_path):
        # metadata.json is renamed last, so the summary and the curve are
        # in place when it fails; they are removed again, old copies too
        p = write_csv(tmp_path / "c.csv", SEPARATED)
        out = tmp_path / "out"
        assert run(["pooled", "--input", p, "--svg", "--outdir", out]) == 0
        assert {"summary.txt", "curve.csv", "curve.svg"} <= set(os.listdir(out))
        (out / "metadata.json").unlink()
        (out / "metadata.json").mkdir()
        assert run(["pooled", "--input", p, "--svg", "--outdir", out]) == 2
        assert sorted(os.listdir(out)) == ["error.json", "metadata.json"]
        assert (out / "metadata.json").is_dir()

    def test_unknown_flag_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as e:
            run(["pooled", "--nonsense", "1"])
        assert e.value.code == 2

    def test_missing_required_option(self, tmp_path, capsys):
        rc = run(["pooled", "--outdir", tmp_path])  # no input anywhere
        assert rc == 2
        assert "missing required option 'input'" in capsys.readouterr().err


def negated_cohort(path, cohort):
    """``cohort`` (a ``marker,status`` CSV) with the marker negated, written to ``path``."""
    rows = [line.split(",") for line in cohort.read_text().splitlines()[1:]]
    return write_csv(path, "marker,status\n" + "".join(
        f"{-float(marker)!r},{status}\n" for marker, status in rows))


class TestBayesianBootstrapYouden:
    def test_reversed_marker_prints_no_probability_below_zero(self, tmp_path):
        # a 60 + 60 binormal cohort with the marker negated: some draws'
        # weighted ECDFs sum to just above 1, which the step rule's
        # cross-multiplied gap and p* absorb without a clamp
        assert run(["simulate", "--scenario", "binormal", "--n-diseased", "60",
                    "--n-nondiseased", "60", "--seed", "3", "--outdir", tmp_path / "sim"]) == 0
        p = negated_cohort(tmp_path / "neg.csv", tmp_path / "sim" / "cohort.csv")
        out = tmp_path / "out"
        assert run(["pooled", "--input", p, "--estimator", "bb", "--outdir", out]) == 0
        summary = (out / "summary.txt").read_text().splitlines()
        p_star = next(line for line in summary if line.startswith("p_star:"))
        assert p_star == "p_star: 0.815917 (0.046781, 1)"
        for name in ("auc", "yi", "p_star"):
            line = next(line for line in summary if line.startswith(f"{name}:"))
            values = line.split(":", 1)[1].replace("(", " ").replace(")", " ").replace(",", " ")
            assert min(float(v) for v in values.split()) >= 0.0, line


# every Youden-reporting analysis, as (cohort kind, arguments)
AT = ["--covariates", "x", "--at", "0.5"]
MIXTURE = ["--burn-in", "100", "--n-save", "100"]
YOUDEN_ANALYSES = {
    "empirical": ("pooled", ["pooled", "--estimator", "empirical"]),
    "kernel": ("pooled", ["pooled", "--estimator", "kernel"]),
    "bb": ("pooled", ["pooled", "--estimator", "bb", "--draws", "200"]),
    "dpm": ("pooled", ["pooled", "--estimator", "dpm", *MIXTURE]),
    "faraggi": ("covariate", ["covariate", "--estimator", "faraggi", *AT]),
    "pepe": ("covariate", ["covariate", "--estimator", "pepe", *AT]),
    "rocglm": ("covariate", ["covariate", "--estimator", "rocglm", *AT]),
    "ddp": ("covariate", ["covariate", "--estimator", "ddp", *AT, *MIXTURE]),
    "aroc": ("covariate", ["aroc", "--covariates", "x"]),
    "timedep": ("survival", ["timedep", "--time", "0.5"]),
}


class TestNonFiniteOptions:
    """nan and +-inf in a numeric option exit 2 with error.json, naming it."""

    def _fails(self, argv, out, capsys, name):
        assert run([*argv, "--outdir", out]) == 2
        err = capsys.readouterr().err
        blob = json.loads((out / "error.json").read_text())
        assert blob["error"] == "InvalidInputError" and blob["exit_code"] == 2
        assert name in blob["message"] and name in err
        assert sorted(os.listdir(out)) == ["error.json"]

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0.5,nan"])
    @pytest.mark.parametrize("estimator", ["faraggi", "pepe", "rocglm", "ddp"])
    def test_at(self, tmp_path, capsys, estimator, value):
        p = TestCovariateAndArocSubcommands()._cohort(tmp_path)
        covariates = "x" if "," not in value else "x,x"
        self._fails(["covariate", "--input", p, "--estimator", estimator, "--covariates",
                     covariates, f"--at={value}", *MIXTURE], tmp_path / "out", capsys, "at")

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("argv", [["pooled", "--estimator", "dpm"],
                                      ["covariate", "--estimator", "ddp", *AT]],
                             ids=["dpm", "ddp"])
    def test_alpha(self, tmp_path, capsys, argv, value):
        p = TestCovariateAndArocSubcommands()._cohort(tmp_path)
        self._fails([*argv, "--input", p, f"--alpha={value}", *MIXTURE], tmp_path / "out",
                    capsys, "alpha")

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_censor_rate(self, tmp_path, capsys, value):
        self._fails(["simulate", "--scenario", "survival", "--n", "20",
                     f"--censor-rate={value}"], tmp_path / "out", capsys, "censor_rate")

    @pytest.mark.parametrize("flag, name", [("--beta-d", "beta_d"), ("--beta-nd", "beta_nd")])
    def test_simulated_coefficients(self, tmp_path, capsys, flag, name):
        self._fails(["simulate", "--scenario", "covariate", flag, "0.5,nan"],
                    tmp_path / "out", capsys, name)


class TestSignWarningFollowsTheData:
    """``NegativeYoudenWarning`` comes from the reported AUC, for every
    estimator alike: once on a reversed cohort, never on a forward one."""

    @pytest.fixture(scope="class")
    def cohorts(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("cohorts")
        paths = {}
        for direction, sign in (("forward", "1.0"), ("reversed", "-1.0")):
            out = root / direction
            assert run(["simulate", "--n-diseased", "60", "--n-nondiseased", "60",
                        "--seed", "3", "--outdir", out / "pooled"]) == 0
            assert run(["simulate", "--scenario", "covariate", f"--beta-d={sign},1.0",
                        "--seed", "3", "--outdir", out / "covariate"]) == 0
            assert run(["simulate", "--scenario", "survival", "--n", "200", f"--gamma={sign}",
                        "--censor-rate", "0.3", "--seed", "3", "--outdir", out / "survival"]) == 0
            paths[direction] = {kind: str(out / kind / "cohort.csv")
                                for kind in ("pooled", "covariate", "survival")}
        paths["reversed"]["pooled"] = negated_cohort(
            root / "negated.csv", root / "forward" / "pooled" / "cohort.csv")
        return paths

    @pytest.mark.parametrize("direction", ["forward", "reversed"])
    @pytest.mark.parametrize("analysis", list(YOUDEN_ANALYSES))
    def test_one_warning_on_a_reversed_cohort_none_on_a_forward_one(
            self, tmp_path, cohorts, analysis, direction):
        kind, argv = YOUDEN_ANALYSES[analysis]
        out = tmp_path / "out"
        assert run([*argv, "--input", cohorts[direction][kind], "--outdir", out]) == 0
        warned = json.loads((out / "metadata.json").read_text()).get("warnings", [])
        if direction == "forward":
            assert warned == []
        else:
            assert warned == ["NegativeYoudenWarning: AUC below 0.5; "
                              "marker orders the groups the other way"]


class TestMixtureChainsSideBySide:
    """The two groups' chains give the same artifacts forked as serial."""

    def _cohort(self, tmp_path):
        rng = np.random.default_rng(86)
        x = rng.uniform(0, 1, 120)
        status = np.array([0, 1] * 60)
        y = 0.8 * status + x + rng.normal(0, 1, 120)
        rows = "\n".join(f"{a},{int(s)},{b}" for a, s, b in zip(y, status, x))
        return write_csv(tmp_path / "c.csv", "marker,status,x\n" + rows + "\n")

    @pytest.mark.parametrize("argv", [["pooled", "--estimator", "dpm"],
                                      ["covariate", "--estimator", "ddp",
                                       "--covariates", "x", "--at", "0.4"]])
    def test_artifacts_equal_at_one_and_two_workers(self, tmp_path, force_workers, argv):
        p = self._cohort(tmp_path)
        blobs = []
        for workers in (1, 2):
            force_workers(workers)
            out = tmp_path / f"out{workers}"
            assert run([*argv, "--input", p, "--burn-in", "100", "--n-save", "100",
                        "--full-precision", "--outdir", out]) == 0
            blobs.append({f: (out / f).read_text() for f in
                          ("summary.txt", "curve.csv", "curve_full.csv", "metadata.json")})
        blobs[1]["metadata.json"] = blobs[1]["metadata.json"].replace("out2", "out1")
        assert blobs[0] == blobs[1]
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_a_degenerate_group_in_the_child_exits_2(self, tmp_path, force_workers, capsys):
        # the nondiseased chain runs in the child; its error comes back
        force_workers(2)
        p = write_csv(tmp_path / "c.csv", "marker,status\n" + "".join(
            f"{v},1\n0.5,0\n" for v in np.linspace(0, 1, 30)))
        out = tmp_path / "out"
        assert run(["pooled", "--estimator", "dpm", "--input", p, "--burn-in", "100",
                    "--n-save", "100", "--outdir", out]) == 2
        assert "zero residual variance" in capsys.readouterr().err
        assert json.loads((out / "error.json").read_text())["error"] == "DegenerateSampleError"

    @pytest.mark.parametrize("sweeps, want", [(("20", "20"), 0), (("50", "149"), 0),
                                              (("50", "150"), 1)])
    def test_short_chains_run_one_after_the_other(self, tmp_path, force_workers, monkeypatch,
                                                  forks, sweeps, want):
        force_workers(2)
        # count the chains' forks alone: 150 draws of 10 components reach
        # the posterior ensemble's own fork floor
        monkeypatch.setattr("roclab.pooled_roc._FORK_ENSEMBLE", 10**12)
        p = self._cohort(tmp_path)
        assert run(["pooled", "--estimator", "dpm", "--input", p, "--burn-in", sweeps[0],
                    "--n-save", sweeps[1], "--outdir", tmp_path / "out"]) == 0
        assert len(forks) == want


def binormal_cohort(path, n_d, n_nd, seed):
    rng = np.random.default_rng(seed)
    rows = [f"{v!r},1\n" for v in rng.normal(1.0, 1.0, n_d).tolist()]
    rows += [f"{v!r},0\n" for v in rng.normal(0.0, 1.0, n_nd).tolist()]
    return write_csv(path, "marker,status\n" + "".join(rows))


class TestKernelCurveAndYoudenSideBySide:
    """The kernel analysis gives the same artifacts with its curve and its
    Youden search forked as two spans as with both run here."""

    @pytest.fixture(autouse=True)
    def no_child_left(self):
        yield
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("method", ["silverman", "lscv"])
    def test_artifacts_equal_forked_and_serial(self, tmp_path, force_workers, monkeypatch,
                                               forks, method):
        monkeypatch.setattr("roclab.cli._FORK_KERNEL", 0)
        p = binormal_cohort(tmp_path / "c.csv", 150, 130, 89)
        blobs = []
        for workers in (1, 2):
            force_workers(workers)
            out = tmp_path / f"out{workers}"
            assert run(["pooled", "--estimator", "kernel", "--bandwidth-method", method,
                        "--input", p, "--full-precision", "--outdir", out]) == 0
            blobs.append({f: (out / f).read_text() for f in
                          ("summary.txt", "curve.csv", "curve_full.csv", "metadata.json")})
        assert len(forks) == 1  # at two workers alone
        blobs[1]["metadata.json"] = blobs[1]["metadata.json"].replace("out2", "out1")
        assert blobs[0] == blobs[1]

    def test_forks_once_above_the_floor_and_never_below(self, tmp_path, force_workers, forks):
        force_workers(2)
        floor = roclab.cli._FORK_KERNEL
        for subjects, want in ((floor - 1, 0), (floor, 1)):
            p = binormal_cohort(tmp_path / f"c{subjects}.csv", subjects // 2,
                                subjects - subjects // 2, 90)
            assert run(["pooled", "--estimator", "kernel", "--input", p,
                        "--outdir", tmp_path / f"out{subjects}"]) == 0
            assert len(forks) == want

    def test_a_fault_in_the_youden_span_exits_with_its_code(self, tmp_path, force_workers,
                                                            monkeypatch, capsys):
        force_workers(2)
        monkeypatch.setattr("roclab.cli._FORK_KERNEL", 0)
        caller = os.getpid()

        def fault(*args):
            where = "here" if os.getpid() == caller else "in a child"
            raise NumericError(f"Youden search failed {where}")

        monkeypatch.setattr("roclab.indices.youden_from_cdfs", fault)
        p = binormal_cohort(tmp_path / "c.csv", 40, 40, 91)
        out = tmp_path / "out"
        assert run(["pooled", "--estimator", "kernel", "--input", p, "--outdir", out]) == 3
        assert "Youden search failed in a child" in capsys.readouterr().err
        blob = json.loads((out / "error.json").read_text())
        assert blob["error"] == "NumericError" and blob["exit_code"] == 3
        assert sorted(os.listdir(out)) == ["error.json"]


class TestCovariateAndArocSubcommands:
    def _cohort(self, tmp_path):
        rng = np.random.default_rng(83)
        x = rng.uniform(0, 1, 120)
        status = np.array([0, 1] * 60)
        y = 0.4 * status + x + rng.normal(0, 1, 120)
        rows = "\n".join(f"{a},{int(s)},{b}" for a, s, b in zip(y, status, x))
        return write_csv(tmp_path / "c.csv", "marker,status,x\n" + rows + "\n")

    def test_faraggi_runs(self, tmp_path):
        p = self._cohort(tmp_path)
        out = tmp_path / "out"
        rc = run(["covariate", "--input", p, "--estimator", "faraggi",
                  "--covariates", "x", "--at", "0.5", "--outdir", out])
        assert rc == 0
        summary = (out / "summary.txt").read_text()
        assert "analysis: covariate" in summary and "auc:" in summary

    def test_rocglm_runs(self, tmp_path):
        p = self._cohort(tmp_path)
        out = tmp_path / "out"
        rc = run(["covariate", "--input", p, "--estimator", "rocglm",
                  "--covariates", "x", "--at", "0.5", "--outdir", out])
        assert rc == 0
        meta = json.loads((out / "metadata.json").read_text())
        assert len(meta["params"]["rocglm_alpha"]) == 2
        assert meta["diagnostics"] == {"rocglm": {"converged": True, "n_iter": 5}}

    @pytest.mark.parametrize("scale, word", [(1e300, "overflow"), (1e-300, "underflow")])
    @pytest.mark.parametrize("estimator", ["faraggi", "rocglm", "ddp"])
    def test_extreme_magnitudes_exit_2_naming_the_overflow(self, tmp_path, capsys,
                                                           scale, word, estimator):
        rows = [line.split(",") for line in
                open(self._cohort(tmp_path)).read().splitlines()[1:]]
        p = write_csv(tmp_path / "scaled.csv", "marker,status,x\n" + "".join(
            f"{float(m) * scale!r},{st},{x}\n" for m, st, x in rows))
        out = tmp_path / "out"
        rc = run(["covariate", "--input", p, "--estimator", estimator,
                  "--covariates", "x", "--at", "0.5", "--outdir", out])
        assert rc == 2
        assert word in json.loads((out / "error.json").read_text())["message"]

    def test_at_must_match_covariates(self, tmp_path, capsys):
        p = self._cohort(tmp_path)
        rc = run(["covariate", "--input", p, "--estimator", "faraggi",
                  "--covariates", "x", "--at", "0.5,0.6", "--outdir", tmp_path])
        assert rc == 2

    @pytest.mark.parametrize("flags", [["--covariates", "marker", "--at", "0.5"],
                                       ["--covariates", "x", "--at", "0.5",
                                        "--status-col", "marker"]])
    def test_column_in_two_roles_exits_2_naming_it(self, tmp_path, capsys, flags):
        p = self._cohort(tmp_path)
        out = tmp_path / "out"
        rc = run(["covariate", "--input", p, "--estimator", "faraggi", *flags,
                  "--outdir", out])
        assert rc == 2
        assert "'marker' requested in more than one role" in capsys.readouterr().err
        blob = json.loads((out / "error.json").read_text())
        assert blob["exit_code"] == 2 and "'marker'" in blob["message"]

    def test_aroc_runs(self, tmp_path):
        p = self._cohort(tmp_path)
        out = tmp_path / "out"
        rc = run(["aroc", "--input", p, "--covariates", "x", "--outdir", out])
        assert rc == 0
        rows = (out / "curve.csv").read_text().strip().splitlines()
        assert rows[-1].startswith("1,1")


class TestTimedepSubcommand:
    def _cohort(self, tmp_path):
        import roclab as rl
        s = rl.gen_survival(150, 1.0, 0.3, seed=rl.SeedSpec(84, 0))
        rows = "\n".join(f"{m},{t},{int(e)}" for m, t, e in
                         zip(s.marker, s.time, s.event))
        med = float(np.quantile(s.time[s.event == 1], 0.5))
        return write_csv(tmp_path / "c.csv", "marker,time,event\n" + rows + "\n"), med

    def test_runs_and_reports_auc(self, tmp_path):
        p, med = self._cohort(tmp_path)
        out = tmp_path / "out"
        rc = run(["timedep", "--input", p, "--time", med, "--outdir", out])
        assert rc == 0
        assert "analysis: timedep" in (out / "summary.txt").read_text()

    def test_summary_matches_exact_oracle_and_reruns_identically(self, tmp_path):
        from test_timedep import oracle_auc, oracle_fractions, oracle_sweep
        import roclab as rl
        p, med = self._cohort(tmp_path)
        s = rl.SurvivalSample(*np.loadtxt(p, delimiter=",", skiprows=1, unpack=True))
        best = (-np.inf, None)
        for c in np.unique(s.marker):
            tpf, tnf = (float(f) for f in oracle_fractions(s, c, med))
            if tpf + tnf - 1.0 > best[0]:
                best = (tpf + tnf - 1.0, (c, 1.0 - tnf))
        yi, (c_star, p_star) = best
        expected = {"auc": oracle_auc(*oracle_sweep(s, med)), "yi": yi,
                    "c_star": c_star, "p_star": p_star}
        files = ["curve.csv", "curve_full.csv", "summary.txt", "metadata.json"]
        out = tmp_path / "out"
        blobs = []
        for _ in range(2):
            assert run(["timedep", "--input", p, "--time", med, "--outdir", out,
                        "--full-precision"]) == 0
            blobs.append([(out / f).read_bytes() for f in files])
        lines = dict(line.split(": ", 1) for line in
                     (out / "summary.txt").read_text().splitlines())
        for key, value in expected.items():
            assert lines[key] == format(float(value), ".6g"), key
        assert blobs[0] == blobs[1]

    def test_one_sweep_per_run(self, tmp_path, monkeypatch):
        # the package's timedep_roc is the function, not the module
        td = importlib.import_module("roclab.timedep_roc")
        p, med = self._cohort(tmp_path)
        calls, sweep = [], td._sweep
        monkeypatch.setattr(td, "_sweep", lambda *args: calls.append(args) or sweep(*args))
        assert run(["timedep", "--input", p, "--time", med, "--outdir", tmp_path / "out"]) == 0
        assert len(calls) == 1

    def test_time_before_events_is_input_error(self, tmp_path, capsys):
        p, _ = self._cohort(tmp_path)
        out = tmp_path / "out"
        rc = run(["timedep", "--input", p, "--time", "1e-9", "--outdir", out])
        assert rc == 2
        assert "no event mass" in capsys.readouterr().err


class TestSimulateSubcommand:
    def test_binormal_cohort_then_pooled_pipeline(self, tmp_path):
        out = tmp_path / "sim"
        rc = run(["simulate", "--scenario", "binormal", "--a", "1", "--b", "1",
                  "--n-diseased", "500", "--n-nondiseased", "500",
                  "--seed", "20260815", "--outdir", out])
        assert rc == 0
        summary = (out / "summary.txt").read_text()
        assert "true_auc: 0.76025" in summary
        out2 = tmp_path / "ana"
        rc = run(["pooled", "--input", out / "cohort.csv", "--outdir", out2])
        assert rc == 0
        auc = float([ln for ln in (out2 / "summary.txt").read_text().splitlines()
                     if ln.startswith("auc:")][0].split()[1])
        assert 0.73 <= auc <= 0.79

    def test_survival_cohort_composes_with_timedep(self, tmp_path):
        out = tmp_path / "sim"
        rc = run(["simulate", "--scenario", "survival", "--n", "200",
                  "--gamma", "1.0", "--censor-rate", "0.3", "--seed", "3",
                  "--outdir", out])
        assert rc == 0
        cohort = np.genfromtxt(out / "cohort.csv", delimiter=",", names=True)
        t = float(np.quantile(cohort["time"][cohort["event"] == 1.0], 0.5))
        rc = run(["timedep", "--input", out / "cohort.csv", "--time", t,
                  "--outdir", tmp_path / "ana"])
        assert rc == 0

    def test_cohort_write_error_exits_2_with_error_json(self, tmp_path, capsys):
        # cohort.csv is one artifact of the set: a directory in its way
        # fails the whole set, and the run leaves only its error.json
        out = tmp_path / "out"
        (out / "cohort.csv").mkdir(parents=True)
        assert run(["simulate", "--scenario", "binormal", "--outdir", out]) == 2
        assert "cannot write artifacts" in capsys.readouterr().err
        assert json.loads((out / "error.json").read_text())["exit_code"] == 2
        assert sorted(os.listdir(out)) == ["cohort.csv", "error.json"]

    def test_simulate_rerun_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            run(["simulate", "--scenario", "covariate", "--n-diseased", "50",
                 "--n-nondiseased", "50", "--seed", "11", "--outdir", out])
        assert (a / "cohort.csv").read_bytes() == (b / "cohort.csv").read_bytes()


COMMON_PARAMS = {"outdir", "svg", "full_precision"}
COHORT_PARAMS = COMMON_PARAMS | {"input", "marker_col", "log_marker"}
MIXTURE_PARAMS = {"seed", "truncation", "alpha", "burn_in", "n_save"}


class TestResolvedParams:
    """``metadata.json`` ``params`` holds exactly the options a run resolved."""

    @pytest.mark.parametrize("argv, config, keys", [
        (["binary", "--input", "status.csv", "--threshold", "5"], None,
         COHORT_PARAMS | {"status_col", "threshold", "prevalence"}),
        (["pooled", "--input", "status.csv"], None,
         COHORT_PARAMS | {"status_col", "grid_points", "estimator", "level"}),
        (["covariate", "--input", "c.csv", "--covariates", "x", "--at", "0.5"], None,
         COHORT_PARAMS | {"status_col", "covariates", "at", "estimator", "level",
                          "grid_points"}),
        (["aroc", "--input", "c.csv", "--covariates", "x"], None,
         COHORT_PARAMS | {"status_col", "covariates", "errors", "grid_points"}),
        (["timedep", "--input", "surv.csv", "--time", "2.5"], None,
         COHORT_PARAMS | {"time_col", "event_col", "time", "isotonic", "grid_points"}),
        (["simulate", "--n-diseased", "5", "--n-nondiseased", "5"], None,
         COMMON_PARAMS | {"scenario", "seed", "a", "b", "n_diseased", "n_nondiseased"}),
        (["pooled"], "[common]\ngrid_points = 5\n\n[pooled]\ninput = status.csv\n"
         "estimator = dpm\nburn_in = 5\nn_save = 5\ntruncation = 3\n",
         COHORT_PARAMS | MIXTURE_PARAMS | {"status_col", "grid_points", "estimator",
                                           "level"}),
    ])
    def test_params_keys(self, tmp_path, monkeypatch, argv, config, keys):
        monkeypatch.chdir(tmp_path)
        write_csv(tmp_path / "status.csv", SEPARATED)
        TestCovariateAndArocSubcommands()._cohort(tmp_path)  # writes c.csv
        write_csv(tmp_path / "surv.csv", "marker,time,event\n1,1,1\n2,2,0\n3,3,1\n4,4,1\n")
        if config is not None:
            write_csv(tmp_path / "run.ini", config)
            argv = argv + ["--config", "run.ini"]
        assert run(argv + ["--outdir", "out"]) == 0
        params = json.loads((tmp_path / "out" / "metadata.json").read_text())["params"]
        assert set(params) == keys
        if config is not None:
            assert params["grid_points"] == 5 and params["n_save"] == 5


class TestMetadataStability:
    def test_metadata_sorted_and_versioned(self, tmp_path):
        p = write_csv(tmp_path / "c.csv", SEPARATED)
        out = tmp_path / "out"
        run(["pooled", "--input", p, "--outdir", out])
        blob = (out / "metadata.json").read_text()
        meta = json.loads(blob)
        assert meta["tool"] == "roclab"
        assert "numpy" in meta["libraries"] and "scipy" in meta["libraries"]
        assert list(meta) == sorted(meta)


class TestWarningsInArtifacts:
    def _cohort(self, tmp_path, sign):
        # the diseased group sits below the other when sign is -1
        rng = np.random.default_rng(85)
        status = np.array([0, 1] * 40)
        y = sign * 1.5 * status + rng.normal(0, 1, 80)
        rows = "\n".join(f"{v},{s}" for v, s in zip(y, status))
        return write_csv(tmp_path / f"c{sign}.csv", "marker,status\n" + rows + "\n")

    def _run_kernel(self, p, out):
        rc = run(["pooled", "--input", p, "--estimator", "kernel", "--outdir", out])
        assert rc == 0
        return {f: (out / f).read_bytes() for f in ("summary.txt", "metadata.json", "curve.csv")}

    def test_reversed_marker_warning_recorded_and_rerun_identical(self, tmp_path):
        p = self._cohort(tmp_path, -1)
        out = tmp_path / "out"
        with pytest.warns(NegativeYoudenWarning):
            first = self._run_kernel(p, out)
        note = ("NegativeYoudenWarning: AUC below 0.5; "
                "marker orders the groups the other way")
        assert json.loads(first["metadata.json"])["warnings"] == [note]
        assert first["summary.txt"].decode().splitlines()[-1] == f"warning: {note}"
        with pytest.warns(NegativeYoudenWarning):
            assert self._run_kernel(p, out) == first

    def test_no_warnings_no_key(self, tmp_path):
        out = tmp_path / "out"
        blobs = self._run_kernel(self._cohort(tmp_path, 1), out)
        assert "warnings" not in json.loads(blobs["metadata.json"])
        assert b"warning:" not in blobs["summary.txt"]


SCIPY_SUBMODULES = ("scipy.interpolate", "scipy.optimize", "scipy.special", "scipy.stats")


def loaded_by(statement, argv=(), modules=SCIPY_SUBMODULES):
    """Run ``statement`` in a fresh interpreter; which of ``modules`` it loaded."""
    code = (f"import json, sys\n{statement}\n"
            f"print(json.dumps(sorted(set(sys.modules) & set({tuple(modules)!r}))))")
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(roclab.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code, *map(str, argv)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


RUN_CLI = "from roclab.cli import main\nassert main(sys.argv[1:]) == 0"


class TestImportCost:
    """Start-up stays on numpy: scipy modules load only where they are used."""

    @pytest.mark.parametrize("statement", ["import roclab", "import roclab.cli"])
    def test_import_loads_no_scipy_module(self, statement):
        assert loaded_by(statement) == []

    def test_numpy_only_subcommands_leave_scipy_special_unloaded(self, tmp_path):
        pooled = write_csv(tmp_path / "c.csv", SEPARATED)
        survival = write_csv(tmp_path / "s.csv",
                             "marker,time,event\n1,1,1\n2,2,0\n3,3,1\n4,4,1\n")
        for argv in (["binary", "--input", pooled, "--threshold", "5"],
                     ["pooled", "--input", pooled, "--estimator", "empirical"],
                     ["timedep", "--input", survival, "--time", "2.5"]):
            loaded = loaded_by(RUN_CLI, argv + ["--outdir", tmp_path / argv[0]])
            assert "scipy.special" not in loaded, argv[0]

    def test_import_leaves_the_thread_pool_unloaded(self):
        # roclab starts no thread pool, and forked_spans imports signal
        # only to stop its children after a raise
        assert loaded_by("import roclab.cli", modules=["concurrent.futures", "signal"]) == []

    def test_kernel_run_leaves_the_thread_pool_unloaded(self, tmp_path):
        # two CPUs, and the curve and the Youden search forked side by
        # side: the sums over 1,500 values per group run in plain loops,
        # no thread pool loads and the run leaves no thread behind
        p = binormal_cohort(tmp_path / "c.csv", 1500, 1500, 92)
        code = ("import threading\nimport roclab.cli, roclab.core\n"
                "roclab.core._worker_count = lambda: 2\nroclab.cli._FORK_KERNEL = 0\n"
                + RUN_CLI + "\nassert threading.enumerate() == [threading.main_thread()]")
        assert loaded_by(code, ["pooled", "--estimator", "kernel", "--input", p,
                                "--outdir", tmp_path / "out"],
                         modules=["concurrent.futures.thread"]) == []

    def test_import_loads_no_estimator_module(self):
        estimators = ["roclab.binary_metrics", "roclab.covariate_roc", "roclab.indices",
                      "roclab.pooled_roc", "roclab.simulate", "roclab.timedep_roc"]
        assert loaded_by("import roclab", modules=estimators) == []
        assert loaded_by("import roclab.cli", modules=estimators) == []

    def test_binary_loads_no_curve_module(self, tmp_path):
        p = write_csv(tmp_path / "c.csv", SEPARATED)
        assert loaded_by(RUN_CLI, ["binary", "--input", p, "--threshold", "5",
                                   "--outdir", tmp_path / "out"],
                         modules=["roclab.covariate_roc", "roclab.pooled_roc",
                                  "roclab.simulate", "roclab.timedep_roc"]) == []

    def test_binormal_simulate_loads_neither_scipy_special_nor_pooled_roc(self, tmp_path):
        assert loaded_by(RUN_CLI, ["simulate", "--scenario", "binormal",
                                   "--outdir", tmp_path / "out"],
                         modules=["roclab.pooled_roc", "scipy.special"]) == []

    def test_import_and_timedep_leave_fractions_unloaded(self, tmp_path):
        # numpy does not load the exact-rational module, so roclab must not
        assert loaded_by("import numpy", modules=["fractions"]) == []
        assert loaded_by("import roclab", modules=["fractions"]) == []
        survival = write_csv(tmp_path / "s.csv",
                             "marker,time,event\n1,1,1\n2,2,0\n3,3,1\n4,4,1\n")
        assert loaded_by(RUN_CLI, ["timedep", "--input", survival, "--time", "2.5",
                                         "--outdir", tmp_path / "out"],
                               modules=["fractions"]) == []

    def test_rocglm_imports_scipy_on_first_use(self, tmp_path):
        # scipy.special's ufunc modules alone, not its package, with either
        # baseline
        p = TestCovariateAndArocSubcommands()._cohort(tmp_path)
        for baseline in ("parametric", "spline"):
            loaded = loaded_by(RUN_CLI, ["covariate", "--input", p, "--estimator", "rocglm",
                                         "--baseline", baseline, "--covariates", "x",
                                         "--at", "0.5", "--outdir", tmp_path / baseline],
                               modules=SCIPY_SUBMODULES + ("scipy.special._ufuncs",))
            assert loaded == ["scipy.special._ufuncs"], baseline

    @pytest.mark.parametrize("argv", [
        ["pooled", "--estimator", "kernel", "--bandwidth-method", "lscv"],
        ["pooled", "--estimator", "dpm", "--burn-in", "20", "--n-save", "20"],
        ["covariate", "--estimator", "ddp", "--covariates", "x", "--at", "0.5",
         "--burn-in", "20", "--n-save", "20"],
        ["covariate", "--estimator", "faraggi", "--covariates", "x", "--at", "0.5"],
        ["covariate", "--estimator", "rocglm", "--covariates", "x", "--at", "0.5"],
    ], ids=lambda argv: argv[2])
    def test_normal_cdf_runs_load_the_ufuncs_without_scipy_special(self, tmp_path, argv):
        # Phi comes through core's seam: scipy.special's package, whose
        # array-API layer loads numpy.testing and numpy.f2py, never runs
        p = TestCovariateAndArocSubcommands()._cohort(tmp_path)
        assert loaded_by(RUN_CLI, argv + ["--input", p, "--outdir", tmp_path / "out"],
                         modules=["numpy.f2py", "numpy.testing", "scipy.special",
                                  "scipy.special._ufuncs"]) == ["scipy.special._ufuncs"]

    @pytest.mark.parametrize("argv", [
        None,
        ["binary", "--threshold", "0.5"],
        ["pooled", "--estimator", "kernel", "--bandwidth-method", "lscv"],
        ["covariate", "--estimator", "ddp", "--covariates", "x", "--at", "0.5",
         "--burn-in", "20", "--n-save", "20"],
        ["aroc", "--covariates", "x", "--errors", "normal"],
        ["timedep", "--time", "0.5"],
        ["simulate", "--scenario", "covariate", "--n-diseased", "20",
         "--n-nondiseased", "20"],
    ], ids=lambda argv: "import" if argv is None else argv[0])
    def test_no_path_loads_scipy_optimize_or_interpolate(self, tmp_path, argv):
        unused = ["scipy.interpolate", "scipy.optimize"]
        if argv is None:
            assert loaded_by("import roclab", modules=unused) == []
            return
        if argv[0] == "timedep":
            cohort = write_csv(tmp_path / "s.csv", "marker,time,event\n1,0.1,1\n2,0.2,0\n"
                                                   "3,0.3,1\n4,0.4,1\n5,0.6,1\n6,0.7,0\n")
        else:
            cohort = TestCovariateAndArocSubcommands()._cohort(tmp_path)
        if argv[0] != "simulate":
            argv = argv + ["--input", cohort]
        assert loaded_by(RUN_CLI, argv + ["--outdir", tmp_path / "out"],
                         modules=unused) == []


class TestLazyPackage:
    """``roclab.<name>`` resolves each exported name from its home module
    on every access."""

    @pytest.mark.parametrize("name", roclab.__all__)
    def test_name_is_the_object_of_its_home_module(self, name):
        value = getattr(roclab, name)
        home = sys.modules[f"roclab.{roclab._HOMES[name]}"]  # loaded by the lookup
        assert vars(home)[name] is value

    def test_function_keeps_its_name_over_its_home_module(self):
        module = importlib.import_module("roclab.timedep_roc")
        assert roclab.timedep_roc is module.timedep_roc

    def test_star_import_binds_every_name(self):
        namespace = {}
        exec("from roclab import *", namespace)
        assert all(namespace[name] is getattr(roclab, name) for name in roclab.__all__)

    def test_dir_lists_every_name(self):
        assert set(roclab.__all__) <= set(dir(roclab))

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            roclab.no_such_name  # noqa: B018

    def test_a_patch_on_the_home_module_shows_through_the_package(self, monkeypatch):
        # nothing is cached on the package, so a name patched while a
        # tracer records reads unpatched once the tracer restores it
        original = roclab.empirical_roc
        monkeypatch.setattr("roclab.pooled_roc.empirical_roc", len)
        assert roclab.empirical_roc is len
        monkeypatch.undo()
        assert roclab.empirical_roc is original and "empirical_roc" not in vars(roclab)
