import contextlib
import csv
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import effx.cli
from effx.cli import run
from effx.dataset import FIXTURE_INPUTS, FIXTURE_OUTPUTS, bundled_fixture, serialize_dataset
from effx.dea import DeaOptions, run_frontier
from effx.report import ReportTable, frontier_table, render_table, round_half_away
from oracles import read_covariates_by_cell, read_scores_by_cell


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


def write_covariates(path, ids, seed=0):
    rng = np.random.default_rng(seed)
    lines = ["id,SUSTAINABILITY,EBITDA,LCC,OWNERSHIP,GROUP,LOGAREAPAX"]
    for rid in ids:
        lines.append(
            f"{rid},{rng.integers(0, 8)},{rng.uniform(-0.5, 0.6):.4f},"
            f"{rng.uniform(0, 1):.4f},{rng.integers(0, 2)},{rng.integers(0, 2)},"
            f"{rng.uniform(5.5, 12.0):.4f}"
        )
    path.write_text("\n".join(lines) + "\n", "utf-8")


class TestRounding:
    def test_half_away_from_zero(self):
        assert round_half_away(0.485, 2) == 0.49
        assert round_half_away(-0.485, 2) == -0.49
        assert round_half_away(0.4988, 2) == 0.5
        assert round_half_away(1.0049999, 2) == 1.0


class TestRenderTable:
    def test_empty_rows_header_only(self):
        t = ReportTable(title="t", headers=("a", "b"), rows=(), decimals=(None, 2))
        assert render_table(t, "csv") == "a,b\n"

    def test_deterministic(self):
        t = ReportTable(
            title="t",
            headers=("a", "b"),
            rows=(("x", 1.23456), ("y", -2.5)),
            decimals=(None, 2),
            footnotes=("note",),
        )
        assert render_table(t, "csv") == render_table(t, "csv")
        assert render_table(t, "json") == render_table(t, "json")

    def test_json_key_stable(self):
        t = ReportTable(title="t", headers=("b", "a"), rows=((1.0, 2.0),), decimals=(1, 1))
        payload = json.loads(render_table(t, "json"))
        assert list(payload["rows"][0].keys()) == ["b", "a"]

    def test_ragged_rows_rejected(self):
        with pytest.raises(ValueError):
            ReportTable(title="t", headers=("a",), rows=(("x", 1),), decimals=(None,))


class TestDeaCommand:
    def test_fixture_both_csv(self, tmp_path):
        out_file = tmp_path / "scores.csv"
        code, _, _ = invoke(
            ["dea", "--fixture", "--rts", "both", "--format", "csv", "--out", str(out_file)]
        )
        assert code == 0
        lines = out_file.read_text("utf-8").strip().splitlines()
        data_rows = [ln for ln in lines if not ln.startswith("#")]
        assert data_rows[0] == "id,ote,pte,se,rts"
        assert len(data_rows) == 31

    def test_rts_selection_columns(self):
        code, out, _ = invoke(["dea", "--fixture", "--rts", "crs"])
        assert code == 0
        assert out.splitlines()[0] == "id,ote"

    def test_json_format(self):
        code, out, _ = invoke(["dea", "--fixture", "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        assert len(payload["rows"]) == 30
        assert payload["rows"][0]["id"] == "AHO"

    def test_empty_input_exits_3(self, tmp_path):
        bad = tmp_path / "empty.csv"
        bad.write_text("id,name,EMPLOYEES,CHINDESKS,RUNWAYMT,PRODCOSTS,TOTPAX,GOODS,TOTPLANES,TOTREVENUES\n", "utf-8")
        code, _, err = invoke(["dea", "--input", str(bad)])
        assert code == 3
        assert "InvalidDataset" in err
        assert "n >= 1" in err

    def test_missing_file_exits_3(self):
        code, _, err = invoke(["dea", "--input", "/nonexistent/file.csv"])
        assert code == 3

    def test_non_utf8_input_exits_3(self, tmp_path):
        bad = tmp_path / "latin1.csv"
        bad.write_bytes(serialize_dataset(bundled_fixture()).replace("AHO", "AH\u00d6").encode("latin-1"))
        code, out, err = invoke(["dea", "--input", str(bad)])
        assert code == 3
        assert out == ""
        assert "UnicodeDecodeError" in err

    def test_out_into_missing_directory_exits_3(self, tmp_path):
        target = tmp_path / "missing" / "scores.csv"
        code, out, err = invoke(["dea", "--fixture", "--out", str(target)])
        assert code == 3
        assert out == ""
        assert "FileNotFoundError" in err
        assert not target.exists()

    def test_usage_error_exits_2(self):
        code, _, _ = invoke(["dea", "--rts", "bogus"])
        assert code == 2
        code, _, _ = invoke(["not-a-command"])
        assert code == 2

    @pytest.mark.parametrize("tol", ["0", "-1e-6", "0.01", "0.5", "nan"])
    def test_tolerance_out_of_range_exits_2(self, tol):
        code, out, err = invoke(["dea", "--fixture", f"--tol-efficiency={tol}"])
        assert code == 2
        assert out == ""
        assert "--tol-efficiency" in err
        assert "Traceback" not in err

    def test_deterministic_bytes(self):
        _, first, _ = invoke(["dea", "--fixture", "--rts", "both"])
        _, second, _ = invoke(["dea", "--fixture", "--rts", "both"])
        assert first == second

    def test_seed_flag_is_a_usage_error(self):
        code, out, err = invoke(["dea", "--fixture", "--seed", "1"])
        assert code == 2
        assert out == ""
        assert "--seed" in err

    def test_matches_report_table(self):
        ds = bundled_fixture()
        table = frontier_table(run_frontier(ds, DeaOptions()), rts="both")
        _, out, _ = invoke(["dea", "--fixture", "--rts", "both"])
        assert out == render_table(table, "csv")

    def test_phase_one_breakdown_exits_4(self, tmp_path):
        """Data spanning eight decades ends phase 1 of one LP without an
        optimum in floating point; that is a solver failure, not a crash.
        The first to fail is u21's CRS program, left to solve_lp by the
        lockstep; u2, which failed first while every lockstep program
        started cold, is now scored (tests/test_dea.py)."""
        rng = np.random.default_rng(1)
        X = 10 ** rng.uniform(0, 8, (60, 4))
        Y = 10 ** rng.uniform(0, 8, (60, 4))
        lines = [",".join(["id", "name", *FIXTURE_INPUTS, *FIXTURE_OUTPUTS, "GROUP"])]
        for i in range(60):
            lines.append(",".join([f"u{i}", f"u{i}", *map(repr, X[i].tolist()), *map(repr, Y[i].tolist()), "0"]))
        data = tmp_path / "wide.csv"
        data.write_text("\n".join(lines) + "\n", "utf-8")
        code, out, err = invoke(["dea", "--input", str(data)])
        assert code == 4
        assert out == ""
        assert err == "effx: SolverFailure: unit 'u21': phase 1 terminated without an optimum\n"

    def test_rendered_scores_match_reference_at_two_decimals(self):
        from test_acceptance import GOLDEN_SCORES

        _, out, _ = invoke(["dea", "--fixture", "--rts", "both"])
        rows = [ln for ln in out.strip().splitlines()[1:] if not ln.startswith("#")]
        assert len(rows) == 30
        for line in rows:
            rid, ote, pte, se, rts = line.split(",")
            want = GOLDEN_SCORES[rid]
            assert (ote, pte, se) == (f"{want[0]:.2f}", f"{want[1]:.2f}", f"{want[2]:.2f}"), line
            assert rts == want[3]


FIXTURE_BYTES = serialize_dataset(bundled_fixture()).encode("utf-8")


@pytest.mark.filterwarnings("ignore:dataset has n")
class TestDeaExitCodes:
    """effx dea --input on a damaged copy of the fixture CSV exits 0, or 3
    with empty stdout and one ``effx: <Error>: ...`` line on stderr; it
    never lets a traceback out."""

    @staticmethod
    def dea(data: bytes) -> tuple[int, str]:
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "data.csv"
            path.write_bytes(data)
            code, out, err = invoke(["dea", "--input", str(path)])
        assert code in (0, 3), (code, err)
        assert "Traceback" not in err
        if code == 3:
            assert out == ""
            assert re.fullmatch(r"effx: \w+: [^\n]*\n", err), err
        return code, err

    @settings(max_examples=60)
    @given(st.integers(0, len(FIXTURE_BYTES)))
    @example(0)
    @example(len(FIXTURE_BYTES) - 1)
    def test_truncated_file(self, cut):
        self.dea(FIXTURE_BYTES[:cut])

    @settings(max_examples=60)
    @given(st.lists(st.tuples(st.integers(0, len(FIXTURE_BYTES)), st.binary(min_size=1, max_size=3)), min_size=1, max_size=3))
    def test_non_utf8_bytes(self, splices):
        data = FIXTURE_BYTES
        for pos, raw in sorted(splices, reverse=True):
            data = data[:pos] + bytes(0x80 | v for v in raw) + data[pos:]
        code, err = self.dea(data)
        try:
            data.decode("utf-8")
        except UnicodeDecodeError:
            assert code == 3 and err.startswith("effx: UnicodeDecodeError: "), err


class TestSummaryCommand:
    def test_fixture_summary_shape(self):
        code, out, _ = invoke(["summary", "--fixture"])
        assert code == 0
        lines = [ln for ln in out.strip().splitlines() if not ln.startswith("#")]
        assert lines[0] == "variable,min,q1,median,mean,q3,max,stdev"
        assert len(lines) == 9  # 8 fixture columns
        assert lines[1].startswith("EMPLOYEES,5.0,39.5,158.0,298.1,")


class TestFixtureCommand:
    def test_emits_exact_schema(self):
        code, out, _ = invoke(["fixture"])
        assert code == 0
        header = out.splitlines()[0]
        assert header == (
            "id,name,EMPLOYEES,CHINDESKS,RUNWAYMT,PRODCOSTS,"
            "TOTPAX,GOODS,TOTPLANES,TOTREVENUES,GROUP"
        )
        assert len(out.strip().splitlines()) == 31

    def test_round_trips_through_dea_input(self, tmp_path):
        data = tmp_path / "fixture.csv"
        code, _, _ = invoke(["fixture", "--out", str(data)])
        assert code == 0
        code, out, _ = invoke(["dea", "--input", str(data), "--rts", "crs"])
        assert code == 0
        assert len(out.strip().splitlines()) == 33  # header + 30 + 2 notes


class TestTobitCommand:
    def test_scores_joined_with_covariates(self, tmp_path):
        scores = tmp_path / "scores.csv"
        rng = np.random.default_rng(1)
        ids = [f"u{i}" for i in range(40)]
        lines = ["id,ote,pte"]
        for rid in ids:
            ote = min(1.0, max(0.05, rng.normal(0.8, 0.15)))
            pte = min(1.0, max(ote, rng.normal(0.9, 0.1)))
            lines.append(f"{rid},{ote:.6f},{pte:.6f}")
        scores.write_text("\n".join(lines) + "\n", "utf-8")
        covs = tmp_path / "covs.csv"
        write_covariates(covs, ids, seed=2)

        code, out, _ = invoke(
            ["tobit", "--input", str(scores), "--covariates", str(covs)]
        )
        assert code == 0
        lines = [ln for ln in out.strip().splitlines() if not ln.startswith("#")]
        header = lines[0].split(",")
        assert header[0] == "variable"
        assert "estimate_ote" in header and "estimate_pte" in header
        variables = [ln.split(",")[0] for ln in lines[1:]]
        assert variables[:7] == [
            "const",
            "SUSTAINABILITY",
            "EBITDA",
            "LCC",
            "OWNERSHIP",
            "GROUP",
            "LOGAREAPAX",
        ]
        assert "wald_stat_df6" in variables
        assert "pseudo_r2" in variables

    def test_invalid_sustainability_exits_3(self, tmp_path):
        scores = tmp_path / "scores.csv"
        scores.write_text("id,ote\nu0,0.5\n", "utf-8")
        covs = tmp_path / "covs.csv"
        covs.write_text("id,SUSTAINABILITY\nu0,9\n", "utf-8")
        code, _, err = invoke(["tobit", "--input", str(scores), "--covariates", str(covs)])
        assert code == 3
        assert "InvalidDataset" in err

    def test_missing_covariate_row_exits_3(self, tmp_path):
        scores = tmp_path / "scores.csv"
        scores.write_text("id,ote\nu0,0.5\nu1,0.7\n", "utf-8")
        covs = tmp_path / "covs.csv"
        covs.write_text("id,EBITDA\nu0,0.3\n", "utf-8")
        code, _, err = invoke(["tobit", "--input", str(scores), "--covariates", str(covs)])
        assert code == 3

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_covariate_exits_3(self, tmp_path, cell):
        scores = tmp_path / "scores.csv"
        scores.write_text("id,ote\nu0,0.5\nu1,0.7\n", "utf-8")
        covs = tmp_path / "covs.csv"
        covs.write_text(f"id,EBITDA\nu0,0.3\nu1,{cell}\n", "utf-8")
        code, _, err = invoke(["tobit", "--input", str(scores), "--covariates", str(covs)])
        assert code == 3
        assert "NonNumericCell" in err and "row 2" in err

    @pytest.mark.parametrize("cell", ["nan", "inf"])
    def test_non_finite_score_exits_3(self, tmp_path, cell):
        scores = tmp_path / "scores.csv"
        scores.write_text(f"id,ote\nu0,{cell}\nu1,0.7\n", "utf-8")
        covs = tmp_path / "covs.csv"
        covs.write_text("id,EBITDA\nu0,0.3\nu1,0.1\n", "utf-8")
        code, _, err = invoke(["tobit", "--input", str(scores), "--covariates", str(covs)])
        assert code == 3
        assert "NonNumericCell" in err and "'ote'" in err

    def test_duplicate_id_names_first_repeat(self, tmp_path):
        scores = tmp_path / "scores.csv"
        scores.write_text("id,ote\nu0,0.5\nu1,0.7\nu0,0.6\nu1,0.8\n", "utf-8")
        covs = tmp_path / "covs.csv"
        covs.write_text("id,EBITDA\nu0,0.3\nu1,0.1\n", "utf-8")
        code, _, err = invoke(["tobit", "--input", str(scores), "--covariates", str(covs)])
        assert code == 3
        assert "DuplicateId" in err and "'u0'" in err and "'u1'" not in err

    @pytest.mark.parametrize(
        "limits",
        [
            ["--lower", "1", "--upper", "0"],
            ["--lower", "0.5", "--upper", "0.5"],
            ["--upper=inf"],
            ["--lower=-inf"],
        ],
    )
    def test_lower_not_below_upper_exits_2(self, tmp_path, limits):
        scores = tmp_path / "scores.csv"
        scores.write_text("id,ote\nu0,0.5\nu1,0.7\n", "utf-8")
        covs = tmp_path / "covs.csv"
        covs.write_text("id,EBITDA\nu0,0.3\nu1,0.1\n", "utf-8")
        argv = ["tobit", "--input", str(scores), "--covariates", str(covs), *limits]
        code, _, err = invoke(argv)
        assert code == 2
        assert "--lower" in err
        assert "Traceback" not in err

    def test_reads_dea_output(self, tmp_path):
        scores = tmp_path / "scores.csv"
        code, _, _ = invoke(["dea", "--fixture", "--out", str(scores)])
        assert code == 0
        assert scores.read_text("utf-8").splitlines()[-1].startswith("# ")
        covs = tmp_path / "covs.csv"
        write_covariates(covs, [rec.id for rec in bundled_fixture().dmus], seed=4)
        code, out, err = invoke(["tobit", "--input", str(scores), "--covariates", str(covs)])
        assert code == 0, err
        assert "observations,30.000," in out

    def test_no_score_rows_exits_3(self, tmp_path):
        scores = tmp_path / "scores.csv"
        scores.write_text("id,ote\n\n# no rows\n", "utf-8")
        covs = tmp_path / "covs.csv"
        covs.write_text("id,EBITDA\nu0,0.3\n", "utf-8")
        code, out, err = invoke(["tobit", "--input", str(scores), "--covariates", str(covs)])
        assert code == 3
        assert out == ""
        assert "InvalidDataset" in err and "Traceback" not in err

    def test_oversized_field_exits_3(self, tmp_path):
        scores = tmp_path / "scores.csv"
        scores.write_text("id,ote\nu0," + "9" * 200_000 + "\n", "utf-8")
        covs = tmp_path / "covs.csv"
        covs.write_text("id,EBITDA\nu0,0.3\n", "utf-8")
        code, out, err = invoke(["tobit", "--input", str(scores), "--covariates", str(covs)])
        assert code == 3
        assert out == ""
        assert "field larger than field limit" in err and "Traceback" not in err

    def test_fit_failure_exits_4(self, tmp_path):
        # every score at the upper limit: scale not identified
        scores = tmp_path / "scores.csv"
        lines = ["id,ote"] + [f"u{i},1.0" for i in range(10)]
        scores.write_text("\n".join(lines) + "\n", "utf-8")
        covs = tmp_path / "covs.csv"
        write_covariates(covs, [f"u{i}" for i in range(10)], seed=3)
        code, _, err = invoke(["tobit", "--input", str(scores), "--covariates", str(covs)])
        assert code == 4
        assert "NotIdentified" in err


class TestPipelineCommand:
    def test_fixture_pipeline(self, tmp_path):
        ds = bundled_fixture()
        covs = tmp_path / "covs.csv"
        write_covariates(covs, [rec.id for rec in ds.dmus], seed=4)
        code, out, _ = invoke(["pipeline", "--fixture", "--covariates", str(covs)])
        assert code == 0
        lines = [ln for ln in out.strip().splitlines() if not ln.startswith("#")]
        header = lines[0].split(",")
        assert "estimate_ote" in header and "estimate_pte" in header
        assert any(ln.startswith("observations,30") for ln in lines)

    def test_nan_covariate_exits_3(self, tmp_path):
        ds = bundled_fixture()
        covs = tmp_path / "covs.csv"
        write_covariates(covs, [rec.id for rec in ds.dmus], seed=4)
        lines = covs.read_text("utf-8").splitlines()
        cells = lines[3].split(",")
        cells[2] = "nan"
        lines[3] = ",".join(cells)
        covs.write_text("\n".join(lines) + "\n", "utf-8")
        code, out, err = invoke(["pipeline", "--fixture", "--covariates", str(covs)])
        assert code == 3
        assert out == ""
        assert "NonNumericCell" in err and "'EBITDA'" in err

    def test_non_utf8_covariates_exits_3(self, tmp_path):
        ds = bundled_fixture()
        covs = tmp_path / "covs.csv"
        write_covariates(covs, [rec.id for rec in ds.dmus], seed=4)
        covs.write_bytes(covs.read_text("utf-8").replace("LCC", "LC\u00c7").encode("latin-1"))
        code, out, err = invoke(["pipeline", "--fixture", "--covariates", str(covs)])
        assert code == 3
        assert out == ""
        assert "UnicodeDecodeError" in err

    def test_lower_not_below_upper_exits_2(self, tmp_path):
        ds = bundled_fixture()
        covs = tmp_path / "covs.csv"
        write_covariates(covs, [rec.id for rec in ds.dmus], seed=4)
        argv = ["pipeline", "--fixture", "--covariates", str(covs), "--lower", "1", "--upper", "0"]
        code, out, _ = invoke(argv)
        assert code == 2
        assert out == ""

    @pytest.mark.parametrize("limit", ["--upper=inf", "--lower=-inf"])
    def test_infinite_limit_exits_2(self, tmp_path, limit):
        ds = bundled_fixture()
        covs = tmp_path / "covs.csv"
        write_covariates(covs, [rec.id for rec in ds.dmus], seed=4)
        code, out, err = invoke(["pipeline", "--fixture", "--covariates", str(covs), limit])
        assert code == 2
        assert out == ""
        assert "finite" in err and "Traceback" not in err

    def test_tolerance_out_of_range_exits_2(self, tmp_path):
        ds = bundled_fixture()
        covs = tmp_path / "covs.csv"
        write_covariates(covs, [rec.id for rec in ds.dmus], seed=4)
        argv = ["pipeline", "--fixture", "--covariates", str(covs), "--tol-efficiency", "0.1"]
        code, _, _ = invoke(argv)
        assert code == 2

    def test_rts_flag_is_a_usage_error(self, tmp_path):
        covs = tmp_path / "covs.csv"
        write_covariates(covs, [rec.id for rec in bundled_fixture().dmus], seed=4)
        code, out, err = invoke(["pipeline", "--fixture", "--covariates", str(covs), "--rts", "both"])
        assert code == 2
        assert out == ""
        assert "--rts" in err

    def test_deterministic(self, tmp_path):
        ds = bundled_fixture()
        covs = tmp_path / "covs.csv"
        write_covariates(covs, [rec.id for rec in ds.dmus], seed=5)
        _, first, _ = invoke(["pipeline", "--fixture", "--covariates", str(covs)])
        _, second, _ = invoke(["pipeline", "--fixture", "--covariates", str(covs)])
        assert first == second


# Cells that float() reads differently from a plain decimal, or rejects.
ODD_CELLS = ["nan", "inf", "-inf", "infinity", "", "1_000", " 0.5 ", "\uff11", "7.5", "-1", "8", "2", "-0.0"]
# Quoted cells whose text csv.reader alone reads: a comma, a newline, a
# doubled quote, a number, or a quote left open to the end of the file.
QUOTED_CELLS = ['"0.5"', '"1,5"', '"0.5\n1"', '"u1"', '"a""b"', '""', '"x']
# Cells of csv.field_size_limit() characters (131072 by default) and one more.
LONG_CELLS = ["0" * 131071 + "1", "0" * 131072 + "1"]
positions = st.integers(0, 40)
mutations = st.one_of(
    st.tuples(st.just("blank"), positions),
    st.tuples(st.just("comment"), positions),
    st.tuples(st.just("spaces"), positions),
    st.tuples(st.just("short"), positions, positions),
    st.tuples(st.just("extra"), positions, st.integers(1, 3)),
    st.tuples(st.just("repeat_header"), positions, positions),
    st.tuples(st.just("repeat_id"), positions, positions),
    st.tuples(st.just("bom")),
    st.tuples(st.just("crlf")),
    st.tuples(st.just("no_final_newline")),
    st.tuples(st.just("header_only")),
    st.tuples(st.just("cell"), positions, positions, st.sampled_from(ODD_CELLS)),
    st.tuples(st.just("cell"), positions, positions, st.sampled_from(["1\r5", "1\x005", "\x00"])),
    st.tuples(st.just("cell"), positions, positions, st.sampled_from(LONG_CELLS)),
    st.tuples(st.just("quoted"), positions, positions, st.sampled_from(QUOTED_CELLS)),
)


def mutated_csv(header: list[str], rows: list[list[str]], muts) -> str:
    """CSV text of header + rows after the mutations; positions wrap. A
    "cell" mutation never touches the id column; a "quoted" one may."""
    header, rows = list(header), [list(r) for r in rows]
    width = len(header)
    line_edits, flags = [], set()
    for kind, *args in muts:
        if kind == "short":
            row = rows[args[0] % len(rows)]
            del row[args[1] % width :]
        elif kind == "extra":
            rows[args[0] % len(rows)].extend(["9"] * args[1])
        elif kind == "repeat_header":
            header[1 + args[1] % (width - 1)] = header[args[0] % width]
        elif kind == "repeat_id":
            src, dst = rows[args[0] % len(rows)], rows[args[1] % len(rows)]
            if src and dst:  # a row cut to nothing has no id to copy
                dst[0] = src[0]
        elif kind == "cell":
            row = rows[args[0] % len(rows)]
            if len(row) > 1:
                row[1 + args[1] % (len(row) - 1)] = args[2]
        elif kind == "quoted":
            row = rows[args[0] % len(rows)]
            if row:
                row[args[1] % len(row)] = args[2]
        elif kind in ("blank", "comment", "spaces"):
            line_edits.append((kind, args[0]))
        else:
            flags.add(kind)
    lines = [",".join(header)] + ([] if "header_only" in flags else [",".join(r) for r in rows])
    for kind, pos in line_edits:
        lines.insert(1 + pos % len(lines), {"blank": "", "comment": "# note", "spaces": "  "}[kind])
    eol = "\r\n" if "crlf" in flags else "\n"
    text = eol.join(lines) + ("" if "no_final_newline" in flags else eol)
    return ("\ufeff" if "bom" in flags else "") + text


def quote_all(cells: list[str]) -> list[str]:
    return [f'"{cell}"' for cell in cells]


def bits(x):
    """x with every array replaced by its dtype, shape and bytes."""
    if isinstance(x, np.ndarray):
        return x.dtype.str, x.shape, x.tobytes()
    if isinstance(x, dict):
        return [(k, bits(v)) for k, v in x.items()]
    return x


REPEATED = "column {!r} appears more than once in the header"


def outcome_unless_repeated(reader, path):
    """outcome(reader, path), except that a header naming a column twice
    is the data error the CLI readers raise for it, naming the first
    repeat; the per-cell readers read the last such column instead."""
    lines = (ln for ln in Path(path).read_text("utf-8").splitlines() if not ln.startswith("#"))
    header = next(csv.reader(lines), [])
    repeats = [h for i, h in enumerate(header) if h in header[:i]]
    if "id" in header and repeats:
        return "error", "InvalidDataset", REPEATED.format(repeats[0])
    return outcome(reader, path)


def outcome(reader, path):
    """A reader's result down to the bits, or the type and message of
    what it raised."""
    try:
        return "ok", [bits(part) for part in reader(path)]
    except Exception as err:  # noqa: BLE001 - the error is the outcome
        return "error", type(err).__name__, str(err)


class TestColumnwiseIngest:
    """The CLI readers convert whole columns and fall back to a per-cell
    scan only to name the first bad cell; they must agree with per-cell
    readers everywhere, down to the bits and the error messages."""

    COV_HEADER = ["id", "SUSTAINABILITY", "EBITDA", "LCC", "OWNERSHIP", "GROUP"]
    SCORE_HEADER = ["id", "ote", "pte"]

    @staticmethod
    def base_rows(n: int = 12):
        rng = np.random.default_rng(7)
        ids = [f"u{i}" for i in range(n)]
        covs = [
            [rid, str(rng.integers(0, 8)), f"{rng.uniform(-0.5, 0.6):.4f}", f"{rng.uniform(0, 1):.4f}",
             str(rng.integers(0, 2)), str(rng.integers(0, 2))]
            for rid in ids
        ]
        scores = []
        for rid in ids:
            ote = rng.uniform(0.2, 1.0)
            scores.append([rid, repr(ote), repr(min(1.0, ote + rng.uniform(0.0, 0.3)))])
        return covs, scores

    @settings(max_examples=150)
    @given(st.lists(mutations, max_size=4), st.lists(mutations, max_size=4))
    # one row a cell short and another a cell long: as many commas in all
    # as a plain file
    @example([("short", 1, 5), ("extra", 2, 1)], [("short", 1, 2), ("extra", 2, 1)])
    # a quote left open on the last row, then a comment line with no
    # newline after it: the open cell keeps the row's newline
    @example([("quoted", 11, 1, '"x'), ("comment", 12), ("no_final_newline",)], [])
    def test_matches_per_cell_readers(self, cov_muts, score_muts):
        cov_rows, score_rows = self.base_rows()
        with tempfile.TemporaryDirectory() as tmp:
            covs, scores = Path(tmp, "covs.csv"), Path(tmp, "scores.csv")
            covs.write_text(mutated_csv(self.COV_HEADER, cov_rows, cov_muts), "utf-8")
            scores.write_text(mutated_csv(self.SCORE_HEADER, score_rows, score_muts), "utf-8")

            cov_want = outcome_unless_repeated(read_covariates_by_cell, covs)
            assert outcome(effx.cli._read_covariates, covs) == cov_want
            score_want = outcome_unless_repeated(read_scores_by_cell, scores)
            assert outcome(effx.cli._read_scores, scores) == score_want
            code, out, err = invoke(["tobit", "--input", str(scores), "--covariates", str(covs)])
        # Scores are read before covariates, a score file without rows
        # stops there, and a reader error is a data error. Past the
        # readers, a mutation can still leave an id without covariates (3).
        # A repeated header name no longer reaches the fit as two copies of
        # one column, which made the design singular (4).
        wants = [score_want, cov_want]
        if score_want[0] == "ok" and not score_want[1][0]:
            wants.insert(1, ("error", "InvalidDataset", "tobit needs at least one score row"))
        first_error = next((w for w in wants if w[0] == "error"), None)
        if first_error:
            assert code == 3 and out == ""
            assert err == f"effx: {first_error[1]}: {first_error[2]}\n"
        else:
            assert code in (0, 3), err
        assert "Traceback" not in err

    def test_every_odd_cell_in_every_column(self, tmp_path):
        cov_rows, score_rows = self.base_rows(3)
        path = tmp_path / "data.csv"
        for header, rows, new, old in [
            (self.COV_HEADER, cov_rows, effx.cli._read_covariates, read_covariates_by_cell),
            (self.SCORE_HEADER, score_rows, effx.cli._read_scores, read_scores_by_cell),
        ]:
            for j in range(1, len(header)):
                for cell in ODD_CELLS:
                    path.write_text(mutated_csv(header, rows, [("cell", 1, j - 1, cell)]), "utf-8")
                    assert outcome(new, path) == outcome(old, path), (header[j], cell)

    def test_plain_and_quoted_files_read_alike(self, tmp_path):
        # The plain file is split on ',' without csv.reader; quoting every
        # cell sends the same file through csv.reader.
        cov_rows, score_rows = self.base_rows()
        path = tmp_path / "data.csv"
        for header, rows, reader in [
            (self.COV_HEADER, cov_rows, effx.cli._read_covariates),
            (self.SCORE_HEADER, score_rows, effx.cli._read_scores),
        ]:
            path.write_text(mutated_csv(header, rows, []), "utf-8")
            with mock.patch("csv.reader", side_effect=AssertionError("csv.reader")):
                plain = outcome(reader, path)
            path.write_text(mutated_csv(quote_all(header), list(map(quote_all, rows)), []), "utf-8")
            assert plain[0] == "ok"
            assert outcome(reader, path) == plain

    def test_odd_cells_parse_like_float(self, tmp_path):
        covs = tmp_path / "covs.csv"
        covs.write_text("id,EBITDA,GROUP\nu0,1_000,-0.0\nu1, 0.5 ,\uff11\n", "utf-8")
        ids, names, data = effx.cli._read_covariates(str(covs))
        assert ids == ["u0", "u1"] and names == ["EBITDA", "GROUP"]
        assert data.tolist() == [[1000.0, 0.0], [0.5, 1.0]]
        assert np.signbit(data[0, 1])

    def test_extra_cells_dropped_and_repeated_names_rejected(self, tmp_path):
        covs, scores = tmp_path / "covs.csv", tmp_path / "scores.csv"
        covs.write_text("id,EBITDA,LCC\nu0,1,2,3\nu1,4,5\n", "utf-8")
        ids, names, data = effx.cli._read_covariates(str(covs))
        assert names == ["EBITDA", "LCC"]
        assert data.tolist() == [[1.0, 2.0], [4.0, 5.0]]
        # a name given twice would read one column twice, so it is refused
        covs.write_text("id,EBITDA,LCC,EBITDA\nu0,1,2,3\nu1,4,5,6\n", "utf-8")
        scores.write_text("id,ote,pte,pte\nu0,0.5,0.6,0.7\nu1,0.5,0.6,0.7\n", "utf-8")
        assert outcome(effx.cli._read_covariates, covs) == ("error", "InvalidDataset", REPEATED.format("EBITDA"))
        assert outcome(effx.cli._read_scores, scores) == ("error", "InvalidDataset", REPEATED.format("pte"))
        code, out, err = invoke(["pipeline", "--fixture", "--covariates", str(covs)])
        assert (code, out) == (3, "")
        assert err == f"effx: InvalidDataset: {REPEATED.format('EBITDA')}\n"

    def test_first_bad_cell_is_named_row_major(self, tmp_path):
        covs = tmp_path / "covs.csv"
        covs.write_text("id,EBITDA,SUSTAINABILITY\nu0,1,0\nu1,2,8\nu2,x,1\n", "utf-8")
        code, _, err = invoke(["pipeline", "--fixture", "--covariates", str(covs)])
        assert code == 3
        assert err == "effx: InvalidDataset: row 2: SUSTAINABILITY must be an integer in 0..7, got 8\n"


def run_fresh(program: str) -> subprocess.CompletedProcess:
    """Run program in a fresh interpreter that imports effx from src/."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", program], capture_output=True, text=True, env=env, timeout=120)


class TestRuntimeImports:
    def test_commands_run_without_scipy(self, tmp_path):
        """dea, tobit and pipeline run in a fresh interpreter without loading scipy."""
        covs = tmp_path / "covs.csv"
        write_covariates(covs, [rec.id for rec in bundled_fixture().dmus], seed=4)
        scores = tmp_path / "scores.csv"
        argvs = [
            ["dea", "--fixture", "--out", str(scores)],
            ["tobit", "--input", str(scores), "--covariates", str(covs), "--out", str(tmp_path / "t.csv")],
            ["pipeline", "--fixture", "--covariates", str(covs), "--out", str(tmp_path / "p.csv")],
        ]
        program = (
            "import sys\n"
            "from effx.cli import run\n"
            f"codes = [run(argv) for argv in {argvs!r}]\n"
            "scipy = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
            "print(codes, scipy)\n"
        )
        proc = run_fresh(program)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[0, 0, 0] []"

    def test_import_loads_only_numpy_and_the_stdlib(self):
        """A cold ``import effx`` loads no top-level module but effx, numpy
        and the standard library's."""
        program = (
            "import sys\n"
            "before = set(sys.modules)\n"
            "import effx\n"
            "top = {m.split('.')[0] for m in set(sys.modules) - before}\n"
            "print(sorted(top - {'effx', 'numpy'} - set(sys.stdlib_module_names)), 'effx' in top)\n"
        )
        proc = run_fresh(program)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[] True"
