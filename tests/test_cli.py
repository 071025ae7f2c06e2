import contextlib
import io
import json
import os

import numpy as np
import pytest

from effx.cli import run
from effx.dataset import bundled_fixture
from effx.dea import DeaOptions, run_frontier
from effx.report import ReportTable, frontier_table, render_table, round_half_away


def invoke(argv, env=None):
    out, err = io.StringIO(), io.StringIO()
    saved = {}
    if env:
        for key, val in env.items():
            saved[key] = os.environ.get(key)
            os.environ[key] = val
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(argv)
    finally:
        for key, val in saved.items():
            if val is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = val
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

    def test_threaded_matches_serial(self):
        _, serial, _ = invoke(["dea", "--fixture"])
        _, threaded, _ = invoke(["dea", "--fixture"], env={"EFFX_THREADS": "4"})
        assert serial == threaded

    def test_matches_report_table(self):
        ds = bundled_fixture()
        table = frontier_table(run_frontier(ds, DeaOptions()), rts="both")
        _, out, _ = invoke(["dea", "--fixture", "--rts", "both"])
        assert out == render_table(table, "csv")

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

    @pytest.mark.parametrize("limits", [["--lower", "1", "--upper", "0"], ["--lower", "0.5", "--upper", "0.5"]])
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

    def test_lower_not_below_upper_exits_2(self, tmp_path):
        ds = bundled_fixture()
        covs = tmp_path / "covs.csv"
        write_covariates(covs, [rec.id for rec in ds.dmus], seed=4)
        argv = ["pipeline", "--fixture", "--covariates", str(covs), "--lower", "1", "--upper", "0"]
        code, out, _ = invoke(argv)
        assert code == 2
        assert out == ""

    def test_tolerance_out_of_range_exits_2(self, tmp_path):
        ds = bundled_fixture()
        covs = tmp_path / "covs.csv"
        write_covariates(covs, [rec.id for rec in ds.dmus], seed=4)
        argv = ["pipeline", "--fixture", "--covariates", str(covs), "--tol-efficiency", "0.1"]
        code, _, _ = invoke(argv)
        assert code == 2

    def test_deterministic(self, tmp_path):
        ds = bundled_fixture()
        covs = tmp_path / "covs.csv"
        write_covariates(covs, [rec.id for rec in ds.dmus], seed=5)
        _, first, _ = invoke(["pipeline", "--fixture", "--covariates", str(covs)])
        _, second, _ = invoke(["pipeline", "--fixture", "--covariates", str(covs)])
        assert first == second
