from unittest import mock

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
    SolverFailure,
    build_envelopment_lp,
    efficiency,
    run_frontier,
    scale_efficiency,
)
from effx.dea import _evaluate_dmu, _rts_class
from effx.lp import EQ, GE, LpOptions, LpStatus, solve_lp
from effx.report import frontier_table, render_table
from conftest import index_of, random_dataset
from oracles import (
    check_solution,
    envelopment_theta_highs,
    exact_minimum,
    lambda_sum_range_highs,
    vertex_minimum,
)

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


@pytest.fixture
def lockstep_calls(monkeypatch):
    """(programs, lambda columns) of each effx.dea._lockstep call while the
    test runs."""
    calls = []
    lockstep = effx.dea._lockstep

    def counting(N, theta, rhs, slack, *args, **kwargs):
        calls.append((rhs.shape[0], N.shape[1] - 1 - int((slack >= 0).sum())))
        return lockstep(N, theta, rhs, slack, *args, **kwargs)

    monkeypatch.setattr(effx.dea, "_lockstep", counting)
    return calls


class TestBuildLp:
    def test_crs_dimensions(self, airports):
        j = index_of(airports, "BGY")
        p = build_envelopment_lp(airports, j, CRS)
        assert p.n_vars == 1 + 30
        assert p.n_rows == 8
        assert all(rel == GE for rel in p.relations)

    def test_vrs_adds_convexity(self, airports):
        j = index_of(airports, "BGY")
        p = build_envelopment_lp(airports, j, VRS)
        assert p.n_rows == 9
        assert p.relations[-1] == EQ
        np.testing.assert_allclose(p.A[-1, 1:], 1.0)
        assert p.b[-1] == 1.0

    def test_row_structure(self, airports):
        j = index_of(airports, "AHO")
        p = build_envelopment_lp(airports, j, CRS)
        X = airports.input_matrix
        # contraction rows: theta coefficient is the unit's own input
        for i in range(airports.m):
            assert p.A[i, 0] == X[j, i]
            assert p.A[i, 1 + j] == -X[j, i]
            assert p.b[i] == 0.0

    def test_single_unit_self_reference(self):
        ds = one_unit_dataset()
        assert efficiency(ds, 0, CRS) == pytest.approx(1.0, abs=1e-9)
        assert efficiency(ds, 0, VRS) == pytest.approx(1.0, abs=1e-9)


class TestFixtureScores:
    def test_parma_crs(self, airports):
        theta = efficiency(airports, index_of(airports, "PMF"), CRS)
        assert theta == pytest.approx(0.23, abs=0.005)

    def test_bolzano_crs(self, airports):
        theta = efficiency(airports, index_of(airports, "BZO"), CRS)
        assert theta == pytest.approx(0.4988, abs=0.0005)

    def test_parma_vrs(self, airports):
        theta = efficiency(airports, index_of(airports, "PMF"), VRS)
        assert theta == pytest.approx(0.48, abs=0.005)

    def test_bergamo_efficient(self, airports):
        theta = efficiency(airports, index_of(airports, "BGY"), CRS)
        assert theta == pytest.approx(1.0, abs=1e-8)


class TestScaleEfficiency:
    def test_alghero(self, airports):
        j = index_of(airports, "AHO")
        ote = efficiency(airports, j, CRS)
        pte = efficiency(airports, j, VRS)
        assert pte == pytest.approx(0.7622, abs=0.001)
        assert scale_efficiency(ote, pte) == pytest.approx(0.9678, abs=0.001)

    def test_both_efficient(self):
        assert scale_efficiency(1.0, 1.0) == 1.0

    def test_bolzano_ratio(self, airports):
        j = index_of(airports, "BZO")
        se = scale_efficiency(efficiency(airports, j, CRS), efficiency(airports, j, VRS))
        assert se == pytest.approx(0.4988, abs=0.001)

    def test_inconsistent_scores_raise(self):
        with pytest.raises(DomainError):
            scale_efficiency(0.9, 0.5)

    def test_fp_overshoot_clamped(self):
        assert scale_efficiency(1.0 + 1e-9, 1.0) == 1.0


class TestRtsClassification:
    def test_milan_constant(self, airports):
        assert _evaluate_dmu(airports, index_of(airports, "LIN-MXP"), CRS).rts is RtsClass.CONSTANT

    def test_parma_increasing(self, airports):
        assert _evaluate_dmu(airports, index_of(airports, "PMF"), CRS).rts is RtsClass.INCREASING

    def test_single_unit_constant(self):
        assert _evaluate_dmu(one_unit_dataset(), 0, CRS).rts is RtsClass.CONSTANT

    def test_decreasing_branch(self):
        # one-input one-output ray frontier: the big unit sits below the
        # ray, its optimal intensity sum is 2, so returns are decreasing
        records = (
            DmuRecord(id="small", name="", inputs=(1.0,), outputs=(1.0,)),
            DmuRecord(id="big", name="", inputs=(4.0,), outputs=(2.0,)),
        )
        ds = Dataset(dmus=records, input_names=("i",), output_names=("o",))
        assert efficiency(ds, 1, CRS) == pytest.approx(0.5, abs=1e-9)
        assert _evaluate_dmu(ds, 1, CRS).rts is RtsClass.DECREASING
        assert _evaluate_dmu(ds, 0, CRS).rts is RtsClass.CONSTANT


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

    def test_fixture_solves_two_lps_per_unit(self, airports, lp_calls, lockstep_calls):
        # only the CRS and VRS score programs run, as one lockstep block of
        # 30 programs over the 30 units each: no intensity-sum LP, no
        # serial solve
        run_frontier(airports, DeaOptions())
        assert lp_calls == []
        assert lockstep_calls == [(airports.n, airports.n)] * 2

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
        assert r.peers.tolist() == [0]
        assert r.peer_weights == pytest.approx([1.0])

    def test_se_consistency(self, airports):
        for r in run_frontier(airports, DeaOptions()).results:
            assert r.se == pytest.approx(r.ote / r.pte, rel=1e-12)
            assert (r.peer_weights >= -1e-9).all()
            assert r.peers.size == r.peer_weights.size <= airports.m + airports.s
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
    prices the rest with the duals; for any block size the scores and
    classes equal those of full-column solves."""

    @pytest.mark.filterwarnings("ignore:dataset has n")
    @settings(max_examples=30)
    @given(seeds, st.sampled_from([1, 2, 5, effx.dea._BLOCK]))
    def test_matches_full_column_solves(self, seed, block):
        rng = np.random.default_rng(seed)
        ds = random_dataset(
            rng, n=int(rng.integers(2, 41)), m=int(rng.integers(1, 4)), s=int(rng.integers(1, 4))
        )
        ds = with_ties(ds, rng)
        if ds.s > 1:
            # a zero output starts its row on the surplus, not an artificial
            dmus = list(ds.dmus)
            for j in rng.choice(ds.n, size=3, replace=False):
                outputs = list(dmus[j].outputs)
                outputs[int(rng.integers(0, ds.s))] = 0.0
                dmus[j] = DmuRecord(dmus[j].id, "", dmus[j].inputs, tuple(outputs))
            ds = Dataset(tuple(dmus), ds.input_names, ds.output_names)
        with mock.patch.object(effx.dea, "_BLOCK", block):
            rep = run_frontier(ds, DeaOptions())
        for j, r in enumerate(rep.results):
            full = _evaluate_dmu(ds, j, DeaOptions())
            assert abs(r.ote - full.ote) <= 1e-9, j
            assert abs(r.pte - full.pte) <= 1e-9, j
            assert r.rts is full.rts, j

    def test_most_solves_use_a_subset(self, lp_calls, lockstep_calls):
        n = 300
        ds = random_dataset(np.random.default_rng(2), n, 4, 4)
        rep = run_frontier(ds, DeaOptions())
        envelopment = [p for p in lp_calls if p.c[0] == 1.0 and not p.c[1:].any()]
        # lambda columns of every score program, in lockstep or serial
        sizes = [k for size, k in lockstep_calls for _ in range(size)]
        sizes += [p.n_vars - 1 for p in envelopment]
        assert len(sizes) >= 2 * n
        assert sum(k < n for k in sizes) > 0.9 * len(sizes)
        full = scores_for(ds)
        want = np.where(np.abs(full - 1.0) <= DeaOptions().efficiency_tol, 1.0, full)
        got = np.array([[r.ote, r.pte] for r in rep.results])
        assert np.abs(got - want).max() <= 1e-9

    def test_no_factorable_basis_fails_first_unit(self, airports, monkeypatch, lp_calls):
        # no basis can be factored, so neither the lockstep nor solve_lp
        # can certify an optimum: the first unit fails, with no score
        def singular(*args, **kwargs):
            raise np.linalg.LinAlgError("singular")

        monkeypatch.setattr(np.linalg, "solve", singular)
        with pytest.raises(SolverFailure, match="optimum fails its certificate") as err:
            run_frontier(airports, DeaOptions())
        assert err.value.dmu_id == airports.dmus[0].id
        # one full-column solve of the first unit's CRS program
        assert len(lp_calls) == 1 and lp_calls[0].c[0] == 1.0 and EQ not in lp_calls[0].relations
        assert lp_calls[0].n_vars == 1 + airports.n

    def test_fixture_full_column_pivots(self, airports):
        # the pivot sequence of a full-column solve is pinned: 714 pivots
        # over the fixture's 60 score programs
        pivots = sum(
            solve_lp(build_envelopment_lp(airports, j, o)).iterations
            for j in range(airports.n)
            for o in (CRS, VRS)
        )
        assert pivots == 714


class TestLockstep:
    """run_frontier scores blocks of units in lockstep and leaves to a
    full-column solve_lp only the programs _lockstep cannot finish."""

    def test_peers_join_the_frame(self, lockstep_calls):
        # the first blocks run again for the units their small frame
        # prices out; as peers join the frame, later blocks seldom do
        n = 300
        ds = random_dataset(np.random.default_rng(2), n, 4, 4)
        with mock.patch.object(effx.dea, "_BLOCK", 32):
            run_frontier(ds, DeaOptions())
        assert sum(size for size, _ in lockstep_calls) < 1.25 * 2 * n

    def test_programs_left_to_solve_lp(self, monkeypatch, lp_calls):
        n = 300
        ds = random_dataset(np.random.default_rng(2), n, 4, 4)
        want = run_frontier(ds, DeaOptions())
        lp_calls.clear()
        lockstep = effx.dea._lockstep
        forced, left = [], []

        def stalling(*args, **kwargs):
            ok, basis, x, y = lockstep(*args, **kwargs)
            forced.append(int(ok[::7].sum()))
            ok[::7] = False  # as if every seventh program had stalled
            left.append(int((~ok).sum()))
            return ok, basis, x, y

        monkeypatch.setattr(effx.dea, "_lockstep", stalling)
        got = run_frontier(ds, DeaOptions())
        # exactly one solve_lp call over all n + 1 columns per program left
        envelopment = [p for p in lp_calls if p.c[0] == 1.0 and not p.c[1:].any()]
        solved = {(tuple(p.A[: ds.m, 0]), EQ in p.relations) for p in envelopment}
        assert len(envelopment) == len(solved) == sum(left) >= sum(forced) > 2 * n // 7 - 10
        assert all(p.n_vars == n + 1 for p in envelopment)
        # the bytes catch a settled unit whose peers stay out of the frame:
        # the later units would go unpriced against them
        assert render_table(frontier_table(got), "csv") == render_table(frontier_table(want), "csv")
        for r, w in zip(got.results, want.results):
            assert abs(r.ote - w.ote) <= 1e-9 and abs(r.pte - w.pte) <= 1e-9, r.dmu_id
            assert r.rts is w.rts, r.dmu_id

    def test_one_singular_basis_sends_only_its_program_to_solve_lp(self, airports, monkeypatch, lp_calls):
        # Every basis matrix holding PMF's CRS theta column reads as
        # singular. The lockstep refactors its block's optima one by one
        # when the stacked solve fails, so only PMF's CRS program leaves it.
        # solve_lp cannot certify that program either: its optimal basis
        # holds the same column, so PMF fails.
        j = index_of(airports, "PMF")
        X = airports.input_matrix
        m, r = airports.m, airports.m + airports.s
        theta_j = -(X[j] / X.max(axis=0))  # its equilibrated input rows
        solve = np.linalg.solve

        def singular_for_j(a, b):
            if a.shape[-1] == r:
                mats = a.reshape(-1, r, r)
                if (mats[:, :m] == theta_j[:, None]).all(axis=1).any() or (
                    mats[:, :, :m] == theta_j
                ).all(axis=2).any():
                    raise np.linalg.LinAlgError("singular")
            return solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", singular_for_j)
        with pytest.raises(SolverFailure, match="optimum fails its certificate") as err:
            run_frontier(airports, DeaOptions())
        assert err.value.dmu_id == "PMF"
        # one full-column solve, of PMF's CRS program
        assert len(lp_calls) == 1
        p = lp_calls[0]
        assert (p.A[:m, 0] == X[j]).all() and EQ not in p.relations and p.n_vars == 1 + airports.n

    def test_bland_rule_finishes_a_cycling_program(self):
        # Dantzig pricing cycles on draw 7 unit 997's VRS program until the
        # pivot cap (TestSolverRegressions). Alone, cold and over all 1500
        # columns, the lockstep turns to Bland's rule when it stalls and
        # finishes it at theta = 1.
        ds = random_dataset(np.random.default_rng(7), 1500, 4, 4)
        frame = effx.dea._Frame(ds, VRS)
        rows, k = frame.slacks.shape
        N = np.hstack([np.zeros((rows, 1)), frame.lp_cols.T, frame.slacks])
        slack = np.where(np.arange(rows) < k, 1 + ds.n + np.arange(rows), -1)
        own = frame.lp_cols[[997]]
        theta = np.where(frame.is_input, -own, 0.0)
        rhs = np.where(frame.is_input, 0.0, own)
        ok, basis, x, _ = effx.dea._lockstep(N, theta, rhs, slack)
        assert ok[0]
        assert x[0, basis[0] == 0].sum() == pytest.approx(1.0, abs=1e-9)


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

    def test_eight_decade_set_unit_u2(self):
        # The set tests/test_cli.py pins (60 units, 4 x 4, 10^U(0, 8)). u2's
        # cold-started serial solve ended phase 1 without an optimum; from
        # its one-peer start the lockstep scores it, as HiGHS does.
        ds = eight_decade_dataset(1)
        X, Y = ds.input_matrix, ds.output_matrix
        for rts in (Rts.CRS, Rts.VRS):
            got = effx.dea._Frame(ds, DeaOptions(rts)).solve_block(range(ds.n))[2]
            assert got is not None, rts
            dual, ipm = envelopment_theta_highs(X, Y, 2, rts is Rts.VRS)
            assert dual == pytest.approx(ipm, rel=1e-10)
            assert got.theta == pytest.approx(dual, rel=1e-10), rts

    def test_eight_decade_set_seed_0_unit_u41(self):
        # Seed 0 of the same generator. The lockstep used to leave u41's
        # VRS program to a serial working-set solve, which stopped at
        # theta = 0 (exact 1) before solve_lp certified its optima, and
        # then failed its certificate. The run now completes with the
        # exact score.
        ds = eight_decade_dataset(0)
        assert exact_minimum(build_envelopment_lp(ds, 41, VRS)) == 1
        assert efficiency(ds, 41, VRS) == pytest.approx(1.0, rel=1e-9)
        assert run_frontier(ds, DeaOptions()).results[41].pte == 1.0

    def test_eight_decade_set_seed_1_scores_are_exact(self, monkeypatch):
        # Seed 1 of the same generator, whose u21 CRS program ended phase 1
        # without an optimum in a serial working-set solve (the exit-4 case
        # of tests/test_cli.py before it moved to another seed). The run
        # completes; u21's CRS score and every score that a full-column
        # settle gave match the exact rational minimum.
        ds = eight_decade_dataset(1)
        settle = effx.dea._Frame.settle
        settled = []

        def recording(frame, j):
            got = settle(frame, j)
            settled.append((j, frame.opts, got.theta))
            return got

        monkeypatch.setattr(effx.dea._Frame, "settle", recording)
        rep = run_frontier(ds, DeaOptions())
        u21 = index_of(ds, "u21")
        checks = [(u21, CRS, rep.results[u21].ote)] + settled
        for j, opts, theta in checks:
            exact = float(exact_minimum(build_envelopment_lp(ds, j, opts)))
            assert theta == pytest.approx(exact, rel=1e-9), (j, opts)


def eight_decade_dataset(seed):
    """60 units with 4 inputs and 4 outputs, every entry 10^U(0, 8)."""
    rng = np.random.default_rng(seed)
    X = 10 ** rng.uniform(0, 8, (60, 4))
    Y = 10 ** rng.uniform(0, 8, (60, 4))
    return Dataset(
        tuple(DmuRecord(f"u{i}", "", tuple(X[i]), tuple(Y[i])) for i in range(60)),
        tuple(f"in{i}" for i in range(4)),
        tuple(f"out{o}" for o in range(4)),
    )


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
