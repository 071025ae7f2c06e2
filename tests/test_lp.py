from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from effx.dataset import Dataset, DmuRecord
from effx.dea import DeaOptions, Rts, build_envelopment_lp
from effx.lp import (
    EQ,
    GE,
    LE,
    LpError,
    LpOptions,
    LpProblem,
    LpSolution,
    LpStatus,
    NumericalBreakdown,
    _lockstep,
    _solve,
    _Tableau,
    solve_lp,
)
from oracles import check_solution, degenerate_lp, exact_minimum, random_bounded_lp, vertex_minimum


def simple(c, A, rels, b):
    return LpProblem(c=c, A=A, relations=rels, b=b)


class TestBasics:
    def test_single_binding_constraint(self):
        sol = solve_lp(simple([1.0], [[1.0]], (GE,), [3.0]))
        assert sol.status is LpStatus.OPTIMAL
        assert sol.x[0] == pytest.approx(3.0, abs=1e-9)
        assert sol.objective_value == pytest.approx(3.0, abs=1e-9)

    def test_simplex_face(self):
        # frozen from enumerating the vertices (0,0), (1,0), (0,1)
        p = simple([-1.0, -1.0], [[1.0, 1.0]], (LE,), [1.0])
        status, ref, _ = vertex_minimum(p)
        assert status == "optimal" and ref == pytest.approx(-1.0, abs=1e-12)
        sol = solve_lp(p)
        assert sol.objective_value == pytest.approx(-1.0, abs=1e-9)

    def test_infeasible(self):
        sol = solve_lp(simple([1.0], [[1.0]], (LE,), [-1.0]))
        assert sol.status is LpStatus.INFEASIBLE
        assert sol.x is None

    def test_unbounded_with_ray(self):
        p = simple([-1.0, 0.0], [[0.0, 1.0]], (LE,), [1.0])
        sol = solve_lp(p)
        assert sol.status is LpStatus.UNBOUNDED
        ray = sol.ray
        assert ray is not None
        assert float(p.c @ ray) < 0.0
        # the ray stays inside the recession cone
        assert float(p.A[0] @ ray) <= 1e-9

    def test_equality_rows(self):
        p = simple([1.0, 1.0], [[1.0, 1.0], [1.0, -1.0]], (EQ, EQ), [2.0, 0.0])
        sol = solve_lp(p)
        assert sol.status is LpStatus.OPTIMAL
        np.testing.assert_allclose(sol.x, [1.0, 1.0], atol=1e-9)

    def test_objective_equals_c_dot_x(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            p = random_bounded_lp(rng, max_vars=5, max_rows=6)
            sol = solve_lp(p)
            assert sol.status is LpStatus.OPTIMAL
            cx = float(p.c @ sol.x)
            assert abs(sol.objective_value - cx) <= 1e-9 * (1.0 + abs(cx))

    def test_no_rows(self):
        sol = solve_lp(LpProblem(c=[1.0, 2.0], A=np.zeros((0, 2)), relations=(), b=np.zeros(0)))
        assert sol.status is LpStatus.OPTIMAL
        assert sol.objective_value == 0.0 and sol.duals.shape == (0,)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            simple([np.inf], [[1.0]], (LE,), [1.0])

    def test_rejects_bad_relation(self):
        with pytest.raises(ValueError):
            simple([1.0], [[1.0]], ("<",), [1.0])


class TestDegeneracy:
    def test_beale_cycling_instance_terminates(self):
        # classic instance that cycles under naive Dantzig pricing
        p = simple(
            [-0.75, 150.0, -0.02, 6.0],
            [[0.25, -60.0, -0.04, 9.0], [0.5, -90.0, -0.02, 3.0], [0.0, 0.0, 1.0, 0.0]],
            (LE, LE, LE),
            [0.0, 0.0, 1.0],
        )
        sol = solve_lp(p)
        assert sol.status is LpStatus.OPTIMAL
        _, ref, _ = vertex_minimum(p)
        assert sol.objective_value == pytest.approx(ref, abs=1e-9)

    def test_duplicated_rows_terminate(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            p = degenerate_lp(rng)
            sol = solve_lp(p)
            assert sol.status is LpStatus.OPTIMAL
            assert check_solution(p, sol)
            assert sol.iterations <= LpOptions().max_iterations


def eight_decade_envelopment(seed, j, rts):
    """Unit j's full-column envelopment program on 60 units with 4 inputs
    and 4 outputs, every entry drawn as 10^U(0, 8)."""
    rng = np.random.default_rng(seed)
    X, Y = 10 ** rng.uniform(0, 8, (60, 4)), 10 ** rng.uniform(0, 8, (60, 4))
    units = tuple(DmuRecord(f"u{i}", "", tuple(X[i]), tuple(Y[i])) for i in range(60))
    ds = Dataset(units, ("i0", "i1", "i2", "i3"), ("o0", "o1", "o2", "o3"))
    return build_envelopment_lp(ds, j, DeaOptions(rts))


class TestCertificate:
    def test_singular_refactor_raises(self, monkeypatch):
        # no basis can be factored, so no optimum can be certified, in
        # the Dantzig attempt or in the Bland retry
        def singular(*args, **kwargs):
            raise np.linalg.LinAlgError("singular")

        monkeypatch.setattr(np.linalg, "solve", singular)
        with pytest.raises(NumericalBreakdown, match="optimum fails its certificate"):
            solve_lp(simple([1.0, 2.0], [[1.0, 1.0]], (GE,), [3.0]))

    def test_suboptimal_vertex_is_not_returned(self):
        # seed 33, u50, VRS: the Dantzig attempt stops at theta =
        # 0.0824229137, which fails the certificate (see TestCheckSolution);
        # the Bland retry reaches theta = 0, which fails it too
        p = eight_decade_envelopment(33, 50, Rts.VRS)
        try:
            sol = solve_lp(p)
        except NumericalBreakdown:
            return
        assert sol.objective_value == pytest.approx(0.0823678223, rel=1e-9)

    def test_redundant_row_keeps_its_artificial(self):
        # the second row repeats the first, so phase 1 leaves an artificial
        # basic on one of them at zero; it is not priced and the optimum
        # is certified
        p = simple([1.0, 1.0], [[1.0, 2.0], [1.0, 2.0]], (EQ, EQ), [2.0, 2.0])
        sol = solve_lp(p)
        assert sol.status is LpStatus.OPTIMAL
        assert sol.objective_value == pytest.approx(1.0, abs=1e-12)
        assert max(sol.basis) >= p.n_vars  # no slack on = rows: an artificial
        assert check_solution(p, sol)


class TestCheckSolution:
    def test_accepts_verified_optimum(self):
        p = simple([1.0], [[1.0]], (GE,), [3.0])
        assert check_solution(p, solve_lp(p)) is True

    def test_rejects_perturbed_binding_row(self):
        p = simple([1.0], [[1.0]], (GE,), [3.0])
        sol = solve_lp(p)
        shifted = LpSolution(
            status=sol.status,
            x=sol.x - 10.0 * LpOptions().feas_tol,
            objective_value=sol.objective_value,
            basis=sol.basis,
            iterations=sol.iterations,
            duals=sol.duals,
        )
        assert check_solution(p, shifted) is False

    def test_requires_optimal_status(self):
        p = simple([1.0], [[1.0]], (LE,), [-1.0])
        with pytest.raises(ValueError):
            check_solution(p, solve_lp(p))

    @pytest.mark.parametrize("rel, sign", [(GE, 1.0), (LE, -1.0)])
    def test_rejects_row_dual_of_wrong_sign(self, rel, sign):
        # min x1 s.t. x1 - x2 >= 0, x2 >= 1, x1 >= 1, or the same rows
        # negated as <=. All three bind at (1, 1), where the duals
        # (1, 1, 0) and (2, 2, -1) (negated for <=) both zero every reduced
        # cost; only the first has the sign its rows require.
        A = sign * np.array([[1.0, -1.0], [0.0, 1.0], [1.0, 0.0]])
        p = simple([1.0, 0.0], A, (rel,) * 3, sign * np.array([0.0, 1.0, 1.0]))
        sol = solve_lp(p)
        assert check_solution(p, replace(sol, duals=sign * np.array([1.0, 1.0, 0.0]))) is True
        assert check_solution(p, replace(sol, duals=sign * np.array([2.0, 2.0, -1.0]))) is False

    def test_rejects_suboptimal_vertex_on_eight_decades(self):
        # Entries spanning eight decades: the Dantzig attempt on unit u50's
        # full-column VRS program stops at theta = 0.0824229137 (exact
        # 0.0823678223) with a dual of -4.05e-10 on the >= row of input 0,
        # -0.0116 once that row is equilibrated. Every reduced cost of a
        # structural column passes.
        p = eight_decade_envelopment(33, 50, Rts.VRS)
        sol, certified = _solve(p, _Tableau(p, LpOptions()), bland=False)
        assert not certified
        assert sol.objective_value > 0.0823678223 * (1.0 + 1e-4)
        assert -0.012 < sol.duals[0] * np.abs(p.A[0]).max() < -0.011
        assert check_solution(p, sol) is False

    def test_random_five_var_agreement(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            p = random_bounded_lp(rng, max_vars=5, max_rows=7)
            sol = solve_lp(p)
            status, ref, _ = vertex_minimum(p)
            assert status == "optimal"
            assert check_solution(p, sol) is True
            assert abs(sol.objective_value - ref) <= 1e-9 * (1.0 + abs(ref))


class TestOracleEquivalence:
    @settings(max_examples=60)
    @given(st.integers(min_value=0, max_value=10**9))
    def test_matches_vertex_enumeration(self, seed):
        rng = np.random.default_rng(seed)
        p = random_bounded_lp(rng)
        sol = solve_lp(p)
        assert sol.status is LpStatus.OPTIMAL
        status, ref, _ = vertex_minimum(p)
        assert status == "optimal"
        assert abs(sol.objective_value - ref) <= 1e-8 * (1.0 + abs(ref))


def wide_envelopment(rng):
    """One unit's envelopment program over 12 to 20 units with 1 to 4
    inputs and outputs, every entry drawn as 10^U(0, 8)."""
    n, m, s = int(rng.integers(12, 21)), int(rng.integers(1, 5)), int(rng.integers(1, 5))
    X, Y = 10 ** rng.uniform(0, 8, (n, m)), 10 ** rng.uniform(0, 8, (n, s))
    units = tuple(DmuRecord(f"u{i}", "", tuple(X[i]), tuple(Y[i])) for i in range(n))
    ds = Dataset(units, tuple(f"i{k}" for k in range(m)), tuple(f"o{k}" for k in range(s)))
    return build_envelopment_lp(ds, int(rng.integers(0, n)), DeaOptions(rng.choice([Rts.CRS, Rts.VRS])))


class TestCertifiedOptima:
    @settings(max_examples=150)
    @given(st.integers(0, 10**9), st.sampled_from(["bounded", "degenerate", "envelopment"]))
    @example(251945, "envelopment")
    def test_optimum_is_right_or_raises(self, seed, kind):
        # Every draw is feasible and bounded: solve_lp reports its exact
        # optimum, certified and with duals, or raises. In the example the
        # Dantzig attempt ends at theta = 2.19e-6 (exact 2.25e-6) with a
        # surplus of -4e-12 on a row whose activity is 7e-11: within an
        # absolute feas_tol, so only the row-relative test rejects it.
        rng = np.random.default_rng(seed)
        p = {"bounded": random_bounded_lp, "degenerate": degenerate_lp, "envelopment": wide_envelopment}[kind](rng)
        try:
            sol = solve_lp(p)
        except LpError:
            return
        assert sol.status is LpStatus.OPTIMAL
        assert sol.duals is not None and sol.duals.shape == (p.n_rows,)
        assert check_solution(p, sol)
        exact = float(exact_minimum(p))
        if kind == "envelopment":
            assert sol.objective_value == pytest.approx(exact, rel=1e-9)
        else:
            assert abs(sol.objective_value - exact) <= 1e-9 * (1.0 + abs(exact))
            _, ref, _ = vertex_minimum(p)
            assert abs(sol.objective_value - ref) <= 1e-8 * (1.0 + abs(ref))


def lockstep_program(rng, r, d):
    """Shared columns N (slack columns last: +1 on the first rows, -1 on
    the rest but one, which has none), own columns and rhs for 4 programs."""
    k = r - 1
    N = np.zeros((r, d + k))
    N[:, 1:d] = rng.uniform(0.0, 1.0, (r, d - 1)) * (rng.uniform(size=(r, d - 1)) < 0.8)
    N[np.arange(k), d + np.arange(k)] = np.where(np.arange(k) < k // 2, 1.0, -1.0)
    slack = np.r_[d + np.arange(k), -1]
    theta = -rng.uniform(0.0, 1.0, (4, r)) * (np.arange(r) < k // 2)
    rhs = rng.uniform(0.0, 1.0, (4, r)) * (np.arange(r) >= k // 2) * (rng.uniform(size=(4, r)) < 0.9)
    return N, theta, rhs, slack


def serial_program(N, own, rhs):
    """The program _lockstep solves for one column `own` and one rhs, as an
    LpProblem for solve_lp."""
    A = N.copy()
    A[:, 0] = own
    c = np.zeros(A.shape[1])
    c[0] = 1.0
    return LpProblem(c=c, A=A, relations=(EQ,) * A.shape[0], b=rhs)


class TestLockstep:
    @settings(max_examples=60)
    @given(st.integers(0, 10**9))
    def test_agrees_with_solve_lp(self, seed):
        rng = np.random.default_rng(seed)
        N, theta, rhs, slack = lockstep_program(rng, int(rng.integers(2, 6)), int(rng.integers(2, 9)))
        ok, basis, x, _ = _lockstep(N, theta, rhs, slack)
        for l in range(rhs.shape[0]):
            sol = solve_lp(serial_program(N, theta[l], rhs[l]))
            if ok[l]:
                # a program _lockstep finishes is optimal, with solve_lp's value
                assert sol.status is LpStatus.OPTIMAL
                assert x[l, basis[l] == 0].sum() == pytest.approx(sol.objective_value, abs=1e-9)

    def test_solves_most_feasible_programs(self):
        rng = np.random.default_rng(3)
        solved = optimal = 0
        for _ in range(30):
            N, theta, rhs, slack = lockstep_program(rng, 5, 8)
            ok, _, _, _ = _lockstep(N, theta, rhs, slack)
            for l in range(rhs.shape[0]):
                sol = solve_lp(serial_program(N, theta[l], rhs[l]))
                optimal += sol.status is LpStatus.OPTIMAL
                solved += bool(ok[l])
        assert solved > 0.9 * optimal > 0

    def test_infeasible_program_is_not_ok(self):
        # v1 = 1 and v1 + v2 = 0.5 have no solution with v >= 0
        N = np.array([[0.0, 1.0, 0.0], [0.0, 1.0, 1.0]])
        ok, _, _, _ = _lockstep(N, np.zeros((1, 2)), np.array([[1.0, 0.5]]), np.array([-1, -1]))
        assert not ok[0]


    def test_own_optimal_basis_makes_no_pivot(self):
        # with max_iterations = 0 any pivot drops a program: only a start
        # that is already optimal can finish, with the same basis and values
        rng = np.random.default_rng(5)
        N, theta, rhs, slack = lockstep_program(rng, 5, 8)
        ok, basis, x, y = _lockstep(N, theta, rhs, slack)
        assert ok.any()
        no_pivots = LpOptions(max_iterations=0)
        ok0, _, _, _ = _lockstep(N, theta, rhs, slack, opts=no_pivots)
        assert not ok0.any()
        start = np.where(ok[:, None], basis, -1)
        warm_ok, warm_basis, warm_x, warm_y = _lockstep(N, theta, rhs, slack, start, no_pivots)
        np.testing.assert_array_equal(warm_ok, ok)
        np.testing.assert_array_equal(warm_basis[ok], basis[ok])
        np.testing.assert_allclose(warm_x, x, atol=1e-12)
        np.testing.assert_allclose(warm_y, y, atol=1e-12)

    def test_infeasible_or_singular_start_starts_cold(self):
        rng = np.random.default_rng(8)
        N, theta, rhs, slack = lockstep_program(rng, 5, 8)
        r, d = rhs.shape[1], N.shape[1]
        cold = _lockstep(N, theta, rhs, slack)
        # program 0 repeats a column (singular); program 1 gets a nonsingular
        # basis with a negative level
        start = np.full(rhs.shape, -1)
        start[0] = 1
        for _ in range(1000):
            cand = np.sort(rng.choice(d, r, replace=False))
            B = N[:, cand].copy()
            B[:, cand == 0] = theta[1][:, None]
            if abs(np.linalg.det(B)) > 1e-6 and (np.linalg.solve(B, rhs[1]) < -1e-3).any():
                start[1] = cand
                break
        assert start[1, 0] >= 0
        warm = _lockstep(N, theta, rhs, slack, start)
        np.testing.assert_array_equal(warm[0], cold[0])
        np.testing.assert_array_equal(warm[1], cold[1])
        for got, want in zip(warm[2:], cold[2:]):
            np.testing.assert_allclose(got, want, atol=1e-12)

    @settings(max_examples=60)
    @given(st.integers(0, 10**9))
    def test_warm_and_cold_agree_with_solve_lp(self, seed):
        # start each program from the optimum of the same program with
        # another rhs: feasible for some programs (warm), not for others
        rng = np.random.default_rng(seed)
        N, theta, rhs, slack = lockstep_program(rng, int(rng.integers(2, 6)), int(rng.integers(2, 9)))
        other = rhs[rng.permutation(rhs.shape[0])] * rng.uniform(0.5, 2.0, rhs.shape)
        ok_other, start, _, _ = _lockstep(N, theta, other, slack)
        start[~ok_other, 0] = -1
        ok, basis, x, _ = _lockstep(N, theta, rhs, slack, start)
        for l in range(rhs.shape[0]):
            sol = solve_lp(serial_program(N, theta[l], rhs[l]))
            if ok[l]:
                assert sol.status is LpStatus.OPTIMAL
                assert x[l, basis[l] == 0].sum() == pytest.approx(sol.objective_value, abs=1e-9)
