import itertools

import numpy as np
import pytest

from mjlstab.lp import LpProblem, LpResult, lp_solve


def solve(c, a_ub, b_ub, lb, ub, sense="max"):
    return lp_solve(LpProblem(c=c, a_ub=a_ub, b_ub=b_ub, lb=lb, ub=ub, sense=sense))


# ---------------------------------------------------------------------------
# Known small problems
# ---------------------------------------------------------------------------


def test_basic_min_prefers_cheap_variable():
    res = solve([2.0, 1.0], [[-1.0, -1.0]], [-3.0], [0.0, 0.0], [5.0, 5.0], sense="min")
    assert res.status == "optimal"
    assert res.objective == pytest.approx(3.0, abs=1e-9)
    assert np.allclose(res.x, [0.0, 3.0], atol=1e-8)


def test_box_only_problem():
    res = solve([1.0, 2.0], None, None, [-1.0, -1.0], [2.0, 3.0])
    assert res.status == "optimal"
    assert res.objective == pytest.approx(8.0, abs=1e-9)
    assert np.allclose(res.x, [2.0, 3.0], atol=1e-9)


def test_negative_rhs_goes_through_phase_one():
    # x >= 1 written as -x <= -1: the start x = 5 has the least load, and the
    # improving move down stops where the budget runs out
    res = solve([-1.0], [[-1.0]], [-1.0], [0.0], [5.0])
    assert res.status == "optimal"
    assert res.objective == pytest.approx(-1.0, abs=1e-9)
    assert res.x[0] == pytest.approx(1.0, abs=1e-9)


def test_infeasible_detected():
    res = solve([1.0], [[1.0]], [-1.0], [0.0], [5.0])
    assert res.status == "infeasible"
    assert res.x is None and res.objective is None


def test_ties_fill_in_index_order():
    res = solve([1.0, 1.0, 1.0], [[1.0, 1.0, 1.0]], [1.5], [0.0] * 3, [1.0] * 3)
    assert res.status == "optimal"
    assert np.array_equal(res.x, [1.0, 0.5, 0.0])


def test_min_equals_negated_max():
    rng = np.random.default_rng(5)
    for _ in range(50):
        c, a, b, lo, hi = random_problem(rng)
        mn = solve(c, a, b, lo, hi, sense="min")
        mx = solve(-c, a, b, lo, hi, sense="max")
        assert mn.status == mx.status
        if mn.status == "optimal":
            assert mn.objective == pytest.approx(-mx.objective, abs=1e-9)
            assert np.array_equal(mn.x, mx.x)


# ---------------------------------------------------------------------------
# Vertex-enumeration oracle
# ---------------------------------------------------------------------------


def brute_force(c, a_ub, b_ub, lb, ub, sense="max"):
    """Enumerate candidate vertices from every n-subset of the stacked
    constraint set (rows plus box faces) and keep the best feasible one."""
    c = np.asarray(c, dtype=float)
    n = c.shape[0]
    rows = np.vstack([a_ub, np.eye(n), -np.eye(n)])
    rhs = np.concatenate([b_ub, ub, -np.asarray(lb, dtype=float)])
    best = None
    arg = None
    for subset in itertools.combinations(range(rows.shape[0]), n):
        sq = rows[list(subset)]
        if abs(np.linalg.det(sq)) < 1e-10:
            continue
        x = np.linalg.solve(sq, rhs[list(subset)])
        if np.any(rows @ x > rhs + 1e-7):
            continue
        val = float(c @ x)
        if best is None or (val > best if sense == "max" else val < best):
            best, arg = val, x
    return best, arg


def random_problem(rng):
    """One row, coefficients of both signs and some exact zeros."""
    n = int(rng.integers(2, 5))
    c = rng.uniform(-1, 1, size=n) * (rng.random(n) > 0.1)
    a = rng.uniform(-1, 1, size=(1, n)) * (rng.random((1, n)) > 0.1)
    b = rng.uniform(-1.5, 1.0, size=1)
    lo = rng.uniform(-2.0, 0.0, size=n)
    hi = lo + rng.uniform(0.5, 3.0, size=n)
    return c, a, b, lo, hi


def test_matches_vertex_enumeration_on_random_problems():
    rng = np.random.default_rng(0)
    solved = 0
    infeasible = 0
    for _ in range(200):
        c, a, b, lo, hi = random_problem(rng)
        res = solve(c, a, b, lo, hi)
        oracle, _ = brute_force(c, a, b, lo, hi)
        if oracle is None:
            assert res.status == "infeasible"
            infeasible += 1
            continue
        assert res.status == "optimal"
        scale = 1.0 + abs(oracle)
        assert abs(res.objective - oracle) <= 1e-7 * scale
        assert np.all(a @ res.x <= b + 1e-7)
        assert np.all(res.x >= lo - 1e-9) and np.all(res.x <= hi + 1e-9)
        solved += 1
    assert solved >= 100  # the generator must mostly produce feasible cases
    assert infeasible >= 10
    assert solved + infeasible == 200


def test_matches_vertex_enumeration_minimization():
    rng = np.random.default_rng(42)
    for _ in range(200):
        c, a, b, lo, hi = random_problem(rng)
        res = solve(c, a, b, lo, hi, sense="min")
        oracle, _ = brute_force(c, a, b, lo, hi, sense="min")
        if oracle is None:
            assert res.status == "infeasible"
            continue
        assert res.status == "optimal"
        assert abs(res.objective - oracle) <= 1e-7 * (1.0 + abs(oracle))
        assert np.all(a @ res.x <= b + 1e-7)
        assert np.all(res.x >= lo) and np.all(res.x <= hi)


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


def test_problem_validation_errors():
    with pytest.raises(ValueError, match="columns"):
        LpProblem(c=[1.0, 2.0], a_ub=[[1.0]], b_ub=[1.0], lb=[0.0, 0.0], ub=[1.0, 1.0])
    with pytest.raises(ValueError, match="b_ub length"):
        LpProblem(c=[1.0], a_ub=[[1.0]], b_ub=[1.0, 2.0], lb=[0.0], ub=[1.0])
    with pytest.raises(ValueError, match="one entry per variable"):
        LpProblem(c=[1.0, 2.0], a_ub=None, b_ub=None, lb=[0.0], ub=[1.0, 1.0])
    with pytest.raises(ValueError, match="non-finite"):
        LpProblem(c=[np.inf], a_ub=None, b_ub=None, lb=[0.0], ub=[1.0])
    with pytest.raises(ValueError, match="lb > ub"):
        LpProblem(c=[1.0], a_ub=None, b_ub=None, lb=[2.0], ub=[1.0])
    with pytest.raises(ValueError, match="sense"):
        LpProblem(c=[1.0], a_ub=None, b_ub=None, lb=[0.0], ub=[1.0], sense="maximize")


def test_two_row_problem_rejected():
    with pytest.raises(ValueError, match="at most one"):
        LpProblem(c=[1.0], a_ub=[[1.0], [2.0]], b_ub=[1.0, 1.0], lb=[0.0], ub=[1.0])


def test_result_defaults():
    res = LpResult(status="infeasible")
    assert res.x is None and res.objective is None
