import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import effx.dea
from effx.dataset import Dataset, DmuRecord
from effx.dea import (
    DeaOptions,
    DomainError,
    Rts,
    RtsClass,
    build_envelopment_lp,
    classify_rts,
    efficiency,
    run_frontier,
    scale_efficiency,
)
from effx.dea import _rts_class, _snap
from effx.lp import EQ, GE, LpOptions, LpStatus, check_solution, solve_lp
from conftest import random_dataset
from oracles import lambda_sum_range_highs, vertex_minimum
from test_acceptance import GOLDEN_SCORES, TOL

CRS = DeaOptions(returns_to_scale=Rts.CRS)
VRS = DeaOptions(returns_to_scale=Rts.VRS)

seeds = st.integers(min_value=0, max_value=10**9)


def one_unit_dataset():
    rec = DmuRecord(id="only", name="only", inputs=(2.0, 3.0), outputs=(1.0,))
    return Dataset(dmus=(rec,), input_names=("i0", "i1"), output_names=("o0",))


def single_io_dataset(*units):
    """One input, one output: units given as (x, y) pairs, ids u0, u1, ..."""
    records = tuple(
        DmuRecord(id=f"u{k}", name="", inputs=(float(x),), outputs=(float(y),))
        for k, (x, y) in enumerate(units)
    )
    return Dataset(dmus=records, input_names=("i",), output_names=("o",))


@pytest.fixture
def lp_calls(monkeypatch):
    """Problems passed to effx.dea.solve_lp while the test runs."""
    calls = []
    solve = effx.dea.solve_lp

    def counting(problem, *args, **kwargs):
        calls.append(problem)
        return solve(problem, *args, **kwargs)

    monkeypatch.setattr(effx.dea, "solve_lp", counting)
    return calls


class TestBuildLp:
    def test_crs_dimensions(self, airports):
        j = airports.index_of("BGY")
        p = build_envelopment_lp(airports, j, CRS)
        assert p.n_vars == 1 + 30
        assert p.n_rows == 8
        assert all(rel == GE for rel in p.relations)

    def test_vrs_adds_convexity(self, airports):
        j = airports.index_of("BGY")
        p = build_envelopment_lp(airports, j, VRS)
        assert p.n_rows == 9
        assert p.relations[-1] == EQ
        np.testing.assert_allclose(p.A[-1, 1:], 1.0)
        assert p.b[-1] == 1.0

    def test_row_structure(self, airports):
        j = airports.index_of("AHO")
        p = build_envelopment_lp(airports, j, CRS)
        X = airports.input_matrix
        # contraction rows: theta coefficient is the unit's own input
        for i in range(airports.m):
            assert p.A[i, 0] == X[j, i]
            assert p.A[i, 1 + j] == -X[j, i]
            assert p.b[i] == 0.0

    def test_column_subset(self, airports):
        j = airports.index_of("AHO")
        full = build_envelopment_lp(airports, j, VRS)
        same = build_envelopment_lp(airports, j, VRS, np.arange(airports.n))
        np.testing.assert_array_equal(same.A, full.A)
        np.testing.assert_array_equal(same.b, full.b)
        cols = np.array([2, j, 17])
        sub = build_envelopment_lp(airports, j, VRS, cols)
        assert sub.n_vars == 1 + 3
        np.testing.assert_array_equal(sub.A[:, 0], full.A[:, 0])
        np.testing.assert_array_equal(sub.A[:, 1:], full.A[:, 1 + cols])
        np.testing.assert_array_equal(sub.b, full.b)

    def test_single_unit_self_reference(self):
        ds = one_unit_dataset()
        assert efficiency(ds, 0, CRS) == pytest.approx(1.0, abs=1e-9)
        assert efficiency(ds, 0, VRS) == pytest.approx(1.0, abs=1e-9)


class TestFixtureScores:
    def test_parma_crs(self, airports):
        theta = efficiency(airports, airports.index_of("PMF"), CRS)
        assert theta == pytest.approx(0.23, abs=0.005)

    def test_bolzano_crs(self, airports):
        theta = efficiency(airports, airports.index_of("BZO"), CRS)
        assert theta == pytest.approx(0.4988, abs=0.0005)

    def test_parma_vrs(self, airports):
        theta = efficiency(airports, airports.index_of("PMF"), VRS)
        assert theta == pytest.approx(0.48, abs=0.005)

    def test_bergamo_efficient(self, airports):
        theta = efficiency(airports, airports.index_of("BGY"), CRS)
        assert theta == pytest.approx(1.0, abs=1e-8)


class TestScaleEfficiency:
    def test_alghero(self, airports):
        j = airports.index_of("AHO")
        ote = efficiency(airports, j, CRS)
        pte = efficiency(airports, j, VRS)
        assert pte == pytest.approx(0.7622, abs=0.001)
        assert scale_efficiency(ote, pte) == pytest.approx(0.9678, abs=0.001)

    def test_both_efficient(self):
        assert scale_efficiency(1.0, 1.0) == 1.0

    def test_bolzano_ratio(self, airports):
        j = airports.index_of("BZO")
        se = scale_efficiency(efficiency(airports, j, CRS), efficiency(airports, j, VRS))
        assert se == pytest.approx(0.4988, abs=0.001)

    def test_inconsistent_scores_raise(self):
        with pytest.raises(DomainError):
            scale_efficiency(0.9, 0.5)

    def test_fp_overshoot_clamped(self):
        assert scale_efficiency(1.0 + 1e-9, 1.0) == 1.0


class TestRtsClassification:
    def test_milan_constant(self, airports):
        assert classify_rts(airports, airports.index_of("LIN-MXP"), CRS) is RtsClass.CONSTANT

    def test_parma_increasing(self, airports):
        assert classify_rts(airports, airports.index_of("PMF"), CRS) is RtsClass.INCREASING

    def test_single_unit_constant(self):
        assert classify_rts(one_unit_dataset(), 0, CRS) is RtsClass.CONSTANT

    def test_decreasing_branch(self):
        # one-input one-output ray frontier: the big unit sits below the
        # ray, its optimal intensity sum is 2, so returns are decreasing
        records = (
            DmuRecord(id="small", name="", inputs=(1.0,), outputs=(1.0,)),
            DmuRecord(id="big", name="", inputs=(4.0,), outputs=(2.0,)),
        )
        ds = Dataset(dmus=records, input_names=("i",), output_names=("o",))
        assert efficiency(ds, 1, CRS) == pytest.approx(0.5, abs=1e-9)
        assert classify_rts(ds, 1, CRS) is RtsClass.DECREASING
        assert classify_rts(ds, 0, CRS) is RtsClass.CONSTANT


class TestRtsRule:
    """_rts_class: the class of the sum(lambda) range over the CRS optimal
    set, from the CRS and VRS solves plus at most one range LP."""

    def test_sum_near_one_solves_nothing(self, lp_calls):
        ds = single_io_dataset((1, 1), (4, 2))
        lam = np.array([1.0 + 5e-7, 0.0])
        assert _rts_class(ds, 1, 0.5, 1.0, lam, DeaOptions()) is RtsClass.CONSTANT
        assert lp_calls == []

    def test_differing_scores_solve_nothing(self, lp_calls):
        # small sits on the CRS ray; big needs 2 x small, so sum(lambda) = 2
        ds = single_io_dataset((1, 1), (4, 2))
        above = _rts_class(ds, 1, 0.5, 1.0, np.array([2.0, 0.0]), DeaOptions())
        below = _rts_class(ds, 1, 0.5, 1.0, np.array([0.5, 0.0]), DeaOptions())
        assert above is RtsClass.DECREASING
        assert below is RtsClass.INCREASING
        assert lp_calls == []

    def test_tie_fallback_constant(self, lp_calls):
        # A and B both on the CRS ray: B is covered by 2 x A or by itself,
        # so the sum ranges over [1, 2] and the class is constant
        ds = single_io_dataset((1, 1), (2, 2))
        rule = _rts_class(ds, 1, 1.0, 1.0, np.array([2.0, 0.0]), DeaOptions())
        assert rule is RtsClass.CONSTANT
        assert len(lp_calls) == 1
        assert (lp_calls[0].c == 1.0).all()  # min sum(lambda)

    def test_tie_fallback_decreasing(self, lp_calls):
        # scores within efficiency_tol of each other, yet every CRS optimum
        # of big is 2 x small: the min of the range is 2
        ds = single_io_dataset((1, 1), (4, 2))
        rule = _rts_class(ds, 1, 0.5, 0.5 + 5e-7, np.array([2.0, 0.0]), DeaOptions())
        assert rule is RtsClass.DECREASING
        assert len(lp_calls) == 1

    def test_tie_fallback_increasing(self, lp_calls):
        # tiny sits below the ray of big: its only CRS optimum is
        # 0.125 x big, so the max of the range is 0.125
        ds = single_io_dataset((2, 2), (1, 0.25))
        assert efficiency(ds, 1, CRS) == pytest.approx(0.25, abs=1e-9)
        lp_calls.clear()
        rule = _rts_class(ds, 1, 0.25, 0.25, np.array([0.125, 0.0]), DeaOptions())
        assert rule is RtsClass.INCREASING
        assert len(lp_calls) == 1
        assert (lp_calls[0].c == -1.0).all()  # max sum(lambda)

    def test_fixture_solves_two_lps_per_unit(self, airports, lp_calls):
        # only the CRS and VRS score programs run: no intensity-sum LP; one
        # working-set solve is repeated after a unit prices out
        run_frontier(airports, DeaOptions())
        assert all(p.c[0] == 1.0 and not p.c[1:].any() for p in lp_calls)
        assert len(lp_calls) == 2 * airports.n + 1 == 61

    def test_classify_rts_solves_two_lps(self, airports, lp_calls):
        assert classify_rts(airports, airports.index_of("PMF"), CRS) is RtsClass.INCREASING
        assert len(lp_calls) == 2

    @pytest.mark.filterwarnings("ignore:dataset has n")
    @settings(max_examples=25)
    @given(seeds)
    def test_matches_two_sided_range(self, seed):
        rng = np.random.default_rng(seed)
        ds = random_dataset(rng, n=int(rng.integers(2, 9)))
        # a scaled twin puts two units on one ray; their CRS scores tie
        # with several optima, which sends some units to the range LP
        src = ds.dmus[int(rng.integers(0, ds.n))]
        k = float(rng.choice([0.5, 2.0, 3.0]))
        twin = DmuRecord(
            "twin", "", tuple(k * v for v in src.inputs), tuple(k * v for v in src.outputs)
        )
        ds = Dataset(ds.dmus + (twin,), ds.input_names, ds.output_names)
        tol = effx.dea._RTS_TOL
        for j, r in enumerate(run_frontier(ds, DeaOptions()).results):
            low, high = lambda_sum_range_highs(ds.input_matrix, ds.output_matrix, j)
            if high < 1.0 - tol:
                want = RtsClass.INCREASING
            elif low > 1.0 + tol:
                want = RtsClass.DECREASING
            else:
                want = RtsClass.CONSTANT
            assert r.rts is want, (j, low, high, r.lambda_sum)


class TestFrontierReport:
    def test_fixture_headline(self, airports):
        rep = run_frontier(airports, DeaOptions())
        assert rep.efficient_crs == 6
        assert rep.efficient_vrs == 12
        assert rep.mean_ote == pytest.approx(0.79, abs=0.005)
        assert rep.mean_pte == pytest.approx(0.879, abs=0.005)

    def test_single_unit(self):
        ds = one_unit_dataset()
        with pytest.warns(UserWarning):
            rep = run_frontier(ds, DeaOptions())
        r = rep.results[0]
        assert r.ote == 1.0 and r.pte == 1.0 and r.se == 1.0
        assert r.rts is RtsClass.CONSTANT
        assert r.lambda_crs == pytest.approx([1.0])

    def test_se_consistency(self, airports):
        for r in run_frontier(airports, DeaOptions()).results:
            assert r.se == pytest.approx(r.ote / r.pte, rel=1e-12)
            assert (r.lambda_crs >= -1e-9).all()
            assert r.lambda_sum >= 0

    def test_warns_on_poor_discrimination(self):
        ds = random_dataset(np.random.default_rng(0), n=5, m=2, s=2)
        with pytest.warns(UserWarning):
            run_frontier(ds, DeaOptions())


def with_ties(ds, rng):
    """ds plus a scaled twin of one unit and an exact copy of another: both
    put units on a shared facet, so the LPs have degenerate ties."""
    src = ds.dmus[int(rng.integers(0, ds.n))]
    k = float(rng.choice([0.5, 2.0, 3.0]))
    twin = DmuRecord("twin", "", tuple(k * v for v in src.inputs), tuple(k * v for v in src.outputs))
    dup = ds.dmus[int(rng.integers(0, ds.n))]
    copy = DmuRecord("copy", "", dup.inputs, dup.outputs)
    return Dataset(ds.dmus + (twin, copy), ds.input_names, ds.output_names)


class TestWorkingSet:
    """run_frontier solves each unit over a working set of known peers and
    prices the rest with the duals; the scores equal full-column solves."""

    @pytest.mark.filterwarnings("ignore:dataset has n")
    @settings(max_examples=30)
    @given(seeds)
    def test_matches_full_column_solves(self, seed):
        rng = np.random.default_rng(seed)
        ds = random_dataset(
            rng, n=int(rng.integers(2, 41)), m=int(rng.integers(1, 4)), s=int(rng.integers(1, 4))
        )
        ds = with_ties(ds, rng)
        tol = DeaOptions().efficiency_tol
        for j, r in enumerate(run_frontier(ds, DeaOptions()).results):
            assert abs(r.ote - _snap(efficiency(ds, j, CRS), tol)) <= 1e-9, j
            assert abs(r.pte - _snap(efficiency(ds, j, VRS), tol)) <= 1e-9, j

    def test_most_solves_use_a_subset(self, lp_calls):
        n = 300
        ds = random_dataset(np.random.default_rng(2), n, 4, 4)
        rep = run_frontier(ds, DeaOptions())
        envelopment = [p for p in lp_calls if p.c[0] == 1.0 and not p.c[1:].any()]
        assert len(envelopment) >= 2 * n
        assert sum(p.n_vars < n + 1 for p in envelopment) > 0.9 * len(envelopment)
        full = scores_for(ds)
        want = np.where(np.abs(full - 1.0) <= DeaOptions().efficiency_tol, 1.0, full)
        got = np.array([[r.ote, r.pte] for r in rep.results])
        assert np.abs(got - want).max() <= 1e-9

    def test_no_duals_falls_back_to_all_columns(self, airports, monkeypatch, lp_calls):
        def singular(*args, **kwargs):
            raise np.linalg.LinAlgError("singular")

        monkeypatch.setattr(np.linalg, "solve", singular)
        rep = run_frontier(airports, DeaOptions())
        # every unit: one working-set solve without duals, then all columns
        assert len(lp_calls) == 4 * airports.n
        assert sum(p.n_vars == airports.n + 1 for p in lp_calls) >= 2 * airports.n
        for r in rep.results:
            ote, pte, se, rts = GOLDEN_SCORES[r.dmu_id]
            assert abs(r.ote - ote) <= TOL and abs(r.pte - pte) <= TOL, r.dmu_id
            assert abs(r.se - se) <= TOL and r.rts.value == rts, r.dmu_id

    def test_fixture_full_column_pivots(self, airports):
        # the pivot sequence of a full-column solve is pinned: 714 pivots
        # over the fixture's 60 score programs
        pivots = sum(
            solve_lp(build_envelopment_lp(airports, j, o)).iterations
            for j in range(airports.n)
            for o in (CRS, VRS)
        )
        assert pivots == 714


class TestSolverRegressions:
    def test_uniform_draw_7_unit_997(self):
        # Dantzig pricing cycles on this VRS program until the pivot cap;
        # the retry with Bland's rule from the first pivot solves it
        ds = random_dataset(np.random.default_rng(7), 1500, 4, 4)
        problem = build_envelopment_lp(ds, 997, VRS)
        sol = solve_lp(problem)
        assert sol.status is LpStatus.OPTIMAL
        assert sol.objective_value == pytest.approx(1.0, abs=1e-9)
        assert check_solution(problem, sol)
        assert sol.iterations > LpOptions().max_iterations  # both attempts counted


def scores_for(ds, opts_list=(CRS, VRS)):
    return np.array([[efficiency(ds, j, o) for o in opts_list] for j in range(ds.n)])


class TestProperties:
    @settings(max_examples=20)
    @given(seeds)
    def test_nesting_vrs_at_least_crs(self, seed):
        rng = np.random.default_rng(seed)
        ds = random_dataset(rng, n=int(rng.integers(2, 7)))
        for j in range(ds.n):
            ote = efficiency(ds, j, CRS)
            pte = efficiency(ds, j, VRS)
            assert pte >= ote - 1e-7
            assert ote <= 1.0 + 1e-6 and pte <= 1.0 + 1e-6

    @settings(max_examples=15)
    @given(seeds)
    def test_units_invariance(self, seed):
        rng = np.random.default_rng(seed)
        ds = random_dataset(rng, n=int(rng.integers(2, 7)))
        base = scores_for(ds)
        col = int(rng.integers(0, ds.m + ds.s))
        factor = float(rng.choice([1e-3, 0.37, 4.2, 1e3]))
        records = []
        for rec in ds.dmus:
            inputs = list(rec.inputs)
            outputs = list(rec.outputs)
            if col < ds.m:
                inputs[col] *= factor
            else:
                outputs[col - ds.m] *= factor
            records.append(
                DmuRecord(rec.id, rec.name, tuple(inputs), tuple(outputs), rec.group)
            )
        scaled = Dataset(tuple(records), ds.input_names, ds.output_names)
        assert np.abs(scores_for(scaled) - base).max() <= 1e-7

    @settings(max_examples=15)
    @given(seeds)
    def test_dominated_unit_changes_nothing(self, seed):
        rng = np.random.default_rng(seed)
        ds = random_dataset(rng, n=int(rng.integers(2, 6)))
        base = scores_for(ds)
        victim = ds.dmus[int(rng.integers(0, ds.n))]
        worse = DmuRecord(
            id="dominated",
            name="dominated",
            inputs=tuple(v * float(f) for v, f in zip(victim.inputs, rng.uniform(1.0, 2.0, ds.m))),
            outputs=tuple(v * float(f) for v, f in zip(victim.outputs, rng.uniform(0.3, 1.0, ds.s))),
        )
        bigger = Dataset(ds.dmus + (worse,), ds.input_names, ds.output_names)
        again = scores_for(bigger)[: ds.n]
        assert np.abs(again - base).max() <= 1e-7

    @settings(max_examples=15)
    @given(seeds)
    def test_vrs_output_translation_invariance(self, seed):
        rng = np.random.default_rng(seed)
        ds = random_dataset(rng, n=int(rng.integers(2, 7)))
        base = np.array([efficiency(ds, j, VRS) for j in range(ds.n)])
        col = int(rng.integers(0, ds.s))
        shift = float(rng.uniform(0.5, 5.0))
        records = tuple(
            DmuRecord(
                rec.id,
                rec.name,
                rec.inputs,
                tuple(v + shift if k == col else v for k, v in enumerate(rec.outputs)),
                rec.group,
            )
            for rec in ds.dmus
        )
        shifted = Dataset(records, ds.input_names, ds.output_names)
        again = np.array([efficiency(shifted, j, VRS) for j in range(ds.n)])
        assert np.abs(again - base).max() <= 1e-7

    @settings(max_examples=15)
    @given(seeds)
    def test_small_instance_oracle(self, seed):
        rng = np.random.default_rng(seed)
        ds = random_dataset(rng, n=int(rng.integers(2, 7)))
        for j in range(ds.n):
            for opts in (CRS, VRS):
                problem = build_envelopment_lp(ds, j, opts)
                status, ref, _ = vertex_minimum(problem)
                assert status == "optimal"
                assert abs(efficiency(ds, j, opts) - ref) <= 1e-7
