"""Closed-form solver for the one-row linear programs of the bound procedure.

`lp_solve` solves k programs at once, one per column j: maximize sum_r x_rj
subject to the one row a x_j <= b_j and the box lb[:, j] <= x_j <= ub[:, j].
Each is a fractional knapsack, which the greedy rule solves exactly (G. B.
Dantzig, "Discrete-variable extremum problems", Operations Research 5(2),
1957): start every variable at the end of its box where a_r x_r is
smallest, the upper end where a_r = 0, then raise the variables with
a_r > 0 in descending order of gain per unit of load, 1 / a_r (ties in
index order), each as far as its box and the budget b_j - a x_j left allow.
When the starting load already exceeds b_j, no point of the box meets the
row. Since a is shared, so are the start side and the greedy order: the
loop runs over the n variables and advances every column's budget together.
"""

from __future__ import annotations

import numpy as np

_FEAS_TOL = 1e-8


def lp_solve(a, b, lb, ub) -> np.ndarray:
    """Maximize sum_r x_rj s.t. a x_j <= b_j, lb[:, j] <= x_j <= ub[:, j], for
    every column j; a has shape (n,), b (k,), lb and ub (n, k).

    Returns the optimizers as the columns of an (n, k) array. Raises
    ArithmeticError naming the first column whose box cannot meet its row.
    """
    # start at the least-load end of each box, the upper end where a_r = 0
    x = np.where((a > 0)[:, None], lb, ub)
    budget = b - a @ x
    short = np.flatnonzero(budget < -_FEAS_TOL)
    if short.size:
        j = short[0]
        raise ArithmeticError(
            f"LP column {j} is infeasible: its least load exceeds b by {-budget[j]:.6g}"
        )
    # raising x_r costs a_r per unit gained, so only a_r > 0 has a move left;
    # a spent budget moves nothing more
    improving = np.flatnonzero(a > 0)
    for r in improving[np.argsort(-1.0 / a[improving], kind="stable")]:
        step = np.minimum(ub[r] - lb[r], np.maximum(budget, 0.0) / a[r])
        x[r] += step
        budget -= a[r] * step
    # snap roundoff back inside the box
    return np.clip(x, lb, ub)
