"""Closed-form solver for the one-row linear programs of the bound procedure.

Solves max/min c^T x subject to at most one row a x <= b and finite box
bounds lb <= x <= ub. With one row this is a fractional knapsack, which the
greedy rule solves exactly (G. B. Dantzig, "Discrete-variable extremum
problems", Operations Research 5(2), 1957): start every variable at the end
of its box where a_r x_r is smallest, then make the improving moves toward
the other ends in descending order of objective gain per unit of load,
|c_r| / |a_r| (ties in index order), each as far as its box and the budget
b - a x left allow. A variable with a_r = 0 starts at its better end. When
the starting load already exceeds b, no point of the box meets the row.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

_FEAS_TOL = 1e-8


@dataclass(eq=False)
class LpProblem:
    """max/min c^T x  s.t.  a_ub x <= b_ub (at most one row),  lb <= x <= ub
    (all finite)."""

    c: np.ndarray
    a_ub: np.ndarray
    b_ub: np.ndarray
    lb: np.ndarray
    ub: np.ndarray
    sense: str = "max"

    def __post_init__(self):
        self.c = np.atleast_1d(np.asarray(self.c, dtype=float))
        n = self.c.shape[0]
        if self.a_ub is None:
            self.a_ub = np.zeros((0, n))
        if self.b_ub is None:
            self.b_ub = np.zeros(0)
        self.a_ub = np.atleast_2d(np.asarray(self.a_ub, dtype=float))
        self.b_ub = np.atleast_1d(np.asarray(self.b_ub, dtype=float))
        self.lb = np.atleast_1d(np.asarray(self.lb, dtype=float))
        self.ub = np.atleast_1d(np.asarray(self.ub, dtype=float))
        if self.a_ub.size == 0:
            self.a_ub = np.zeros((0, n))
        if self.a_ub.shape[1] != n:
            raise ValueError(
                f"a_ub has {self.a_ub.shape[1]} columns for {n} variables"
            )
        if self.a_ub.shape[0] > 1:
            raise ValueError(f"a_ub has {self.a_ub.shape[0]} rows; at most one is allowed")
        if self.b_ub.shape[0] != self.a_ub.shape[0]:
            raise ValueError("b_ub length does not match a_ub rows")
        if self.lb.shape[0] != n or self.ub.shape[0] != n:
            raise ValueError("bound vectors must have one entry per variable")
        for name, arr in (("c", self.c), ("a_ub", self.a_ub), ("b_ub", self.b_ub),
                          ("lb", self.lb), ("ub", self.ub)):
            if not np.isfinite(arr).all():
                raise ValueError(f"{name} has non-finite entries")
        if np.any(self.lb > self.ub + 1e-15):
            raise ValueError("lb > ub for some variable")
        if self.sense not in ("max", "min"):
            raise ValueError(f"sense must be 'max' or 'min', got {self.sense!r}")


@dataclass
class LpResult:
    status: str  # "optimal" | "infeasible"
    x: np.ndarray | None = field(default=None)
    objective: float | None = None


def lp_solve(problem: LpProblem) -> LpResult:
    """Solve the LP in closed form; see LpProblem for the accepted form."""
    c = problem.c if problem.sense == "max" else -problem.c
    lb, ub = problem.lb, problem.ub
    if problem.b_ub.size:
        a, b = problem.a_ub[0], problem.b_ub[0]
    else:
        a, b = np.zeros_like(c), np.inf
    # start at the least-load end of each box, the better end where a_r = 0
    x = np.where((a > 0) | ((a == 0) & (c <= 0)), lb, ub)
    budget = b - a @ x
    if budget < -_FEAS_TOL:
        return LpResult(status="infeasible")
    # moving x_r off its start end costs |a_r| per unit of |c_r| gained, and
    # gains only when c_r and a_r have the same sign
    improving = np.flatnonzero(c * a > 0)
    rate = np.abs(c[improving] / a[improving])
    for r in improving[np.argsort(-rate, kind="stable")]:
        if budget <= 0:
            break
        step = min(ub[r] - lb[r], budget / abs(a[r]))
        x[r] += step if a[r] > 0 else -step
        budget -= abs(a[r]) * step
    # snap roundoff back inside the box
    x = np.clip(x, lb, ub)
    return LpResult(status="optimal", x=x, objective=float(problem.c @ x))
