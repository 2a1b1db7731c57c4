import itertools

import numpy as np
import pytest

from mjlstab.lp import lp_solve


def solve(a, b, lb, ub):
    """One column: maximize sum(x) s.t. a x <= b, lb <= x <= ub."""
    lb = np.asarray(lb, dtype=float)[:, None]
    ub = np.asarray(ub, dtype=float)[:, None]
    return lp_solve(np.asarray(a, dtype=float), np.atleast_1d(np.asarray(b, dtype=float)),
                    lb, ub)[:, 0]


# ---------------------------------------------------------------------------
# Known small problems
# ---------------------------------------------------------------------------


def test_basic_fill_prefers_cheap_variable():
    # max x0 + x1 s.t. 2 x0 + x1 <= 3: x1 gains as much for half the load
    x = solve([2.0, 1.0], 3.0, [0.0, 0.0], [5.0, 5.0])
    assert x.sum() == pytest.approx(3.0, abs=1e-9)
    assert np.allclose(x, [0.0, 3.0], atol=1e-8)


def test_box_only_problem():
    # a zero row leaves only the box: every variable ends at its upper end
    x = solve([0.0, 0.0], 0.0, [-1.0, -1.0], [2.0, 3.0])
    assert np.array_equal(x, [2.0, 3.0])


def test_negative_rhs_goes_through_phase_one():
    # x0 - x1 <= -1: the start (x0, x1) = (0, 5) has the least load, 4 less
    # than b, and the move up in x0 stops where that budget runs out
    x = solve([1.0, -1.0], -1.0, [0.0, 0.0], [5.0, 5.0])
    assert np.allclose(x, [4.0, 5.0], atol=1e-9)


def test_infeasible_detected():
    with pytest.raises(ArithmeticError, match="column 0"):
        solve([1.0], -1.0, [0.0], [5.0])


def test_ties_fill_in_index_order():
    x = solve([1.0, 1.0, 1.0], 1.5, [0.0] * 3, [1.0] * 3)
    assert np.array_equal(x, [1.0, 0.5, 0.0])


# ---------------------------------------------------------------------------
# Vertex-enumeration oracle
# ---------------------------------------------------------------------------


def brute_force(a_ub, b_ub, lb, ub):
    """Enumerate candidate vertices from every n-subset of the stacked
    constraint set (rows plus box faces) and keep the one of largest sum."""
    n = a_ub.shape[1]
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
        val = float(x.sum())
        if best is None or val > best:
            best, arg = val, x
    return best, arg


def random_problem(rng):
    """One row, coefficients of both signs and some exact zeros."""
    n = int(rng.integers(2, 5))
    a = rng.uniform(-1, 1, size=n) * (rng.random(n) > 0.1)
    b = rng.uniform(-1.5, 1.0, size=1)
    lo = rng.uniform(-2.0, 0.0, size=n)
    hi = lo + rng.uniform(0.5, 3.0, size=n)
    return a, b, lo, hi


def test_matches_vertex_enumeration_on_random_problems():
    rng = np.random.default_rng(0)
    solved = 0
    infeasible = 0
    for _ in range(200):
        a, b, lo, hi = random_problem(rng)
        oracle, _ = brute_force(a[None, :], b, lo, hi)
        if oracle is None:
            with pytest.raises(ArithmeticError):
                solve(a, b, lo, hi)
            infeasible += 1
            continue
        x = solve(a, b, lo, hi)
        scale = 1.0 + abs(oracle)
        assert abs(x.sum() - oracle) <= 1e-7 * scale
        assert a @ x <= b[0] + 1e-7
        assert np.all(x >= lo - 1e-9) and np.all(x <= hi + 1e-9)
        solved += 1
    assert solved >= 100  # the generator must mostly produce feasible cases
    assert infeasible >= 10
    assert solved + infeasible == 200


# ---------------------------------------------------------------------------
# Many columns in one call
# ---------------------------------------------------------------------------


def test_columns_match_vertex_enumeration_per_column():
    rng = np.random.default_rng(11)
    checked = 0
    for _ in range(30):
        a, _, _, _ = random_problem(rng)
        n, k = a.shape[0], 6
        b = rng.uniform(-1.5, 1.0, size=k)
        lo = rng.uniform(-2.0, 0.0, size=(n, k))
        hi = lo + rng.uniform(0.5, 3.0, size=(n, k))
        oracles = [brute_force(a[None, :], b[j:j + 1], lo[:, j], hi[:, j])[0]
                   for j in range(k)]
        keep = [j for j in range(k) if oracles[j] is not None]
        x = lp_solve(a, b[keep], lo[:, keep], hi[:, keep])
        assert x.shape == (n, len(keep))
        for col, j in enumerate(keep):
            assert abs(x[:, col].sum() - oracles[j]) <= 1e-7 * (1.0 + abs(oracles[j]))
            assert a @ x[:, col] <= b[j] + 1e-7
            assert np.all(x[:, col] >= lo[:, j]) and np.all(x[:, col] <= hi[:, j])
            checked += 1
    assert checked >= 100


def test_infeasible_column_is_named():
    a = np.array([1.0, 1.0])
    lb = np.zeros((2, 4))
    ub = np.ones((2, 4))
    # columns 2 and 3 need a x <= -1 from a box whose least load is 0
    b = np.array([1.0, 0.5, -1.0, -2.0])
    with pytest.raises(ArithmeticError, match="column 2 "):
        lp_solve(a, b, lb, ub)
    x = lp_solve(a, b[:2], lb[:, :2], ub[:, :2])
    assert np.array_equal(x, [[1.0, 0.5], [0.0, 0.0]])
