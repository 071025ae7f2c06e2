import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from effx.lp import (
    EQ,
    GE,
    LE,
    LpOptions,
    LpProblem,
    LpSolution,
    LpStatus,
    solve_lp,
    check_solution,
)
from oracles import degenerate_lp, random_bounded_lp, vertex_minimum


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


class TestRefine:
    def test_singular_refactor_gives_no_duals(self, monkeypatch):
        def singular(*args, **kwargs):
            raise np.linalg.LinAlgError("singular")

        monkeypatch.setattr(np.linalg, "solve", singular)
        sol = solve_lp(simple([1.0, 2.0], [[1.0, 1.0]], (GE,), [3.0]))
        assert sol.status is LpStatus.OPTIMAL
        assert sol.duals is None
        np.testing.assert_allclose(sol.x, [3.0, 0.0], atol=1e-12)


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
