"""Robustness of the stability verdict to transition-matrix uncertainty.

Given a mode family and its joint chain, a sufficient condition says the
perturbed system stays mean-square stable whenever, for every column s,
sum_r alpha_r |dp_rs| < beta_s, where beta_s is the nominal margin of that
column and alpha_r how much a unit of probability moved into mode r uses of
it. The two-step procedure turns this into per-row bounds eps_r: step 1
pushes each column's perturbation as far up and as far down as the margin and
the box constraints allow (the columns decouple, and each is a fractional
knapsack with one row; all of them share the objective and the row, so
`lp.lp_solve` solves every column in one closed-form pass per direction),
step 2 takes the per-row worst case over columns and directions.

Two certificates supply alpha and beta:

- `compute_bounds`, the infinity-norm baseline of the paper: alpha_r is the
  infinity norm of W_r kron W_r and beta_s = 1 - sum_r pbar_rs alpha_r. Its
  eps are the per-row worst cases of the column optimizers, not a box that
  the inequality certifies: the scalar chain [[0.4, 0.6], [0.5, 0.5]] with
  modes 0.5 and 1.25 gets eps = [0.4, 0.02], whose load
  sum_r alpha_r eps_r = 0.13125 exceeds beta_0 = 0.11875, and the largest
  spectral radius over that box is exactly 1 (marginal).

  This certificate is empty on every delayed network. With tau_d >= 1 each
  mode matrix holds the identity shift block that copies states into the
  delay buffer, so some row of W_r has absolute sum 1 and alpha_r >= 1.
  The column sums of pbar add up to m, hence
  sum_s sum_r alpha_r pbar_rs = sum_r alpha_r >= m, some column has
  sum_r alpha_r pbar_rs >= 1 and min beta <= 0: the result is
  feasible=False with eps = 0 whatever the coupling.

- `weighted_bounds`, margins weighted by a coupled-Lyapunov solution (Costa,
  Fragoso & Marques, Discrete-Time Markov Jump Linear Systems, 2005,
  Thm 3.9: mean-square stable iff some V > 0 has L(V) < V for the
  second-moment operator L). With V = sum_{k<K} L^k(I) / c^k and c just
  above the spectral radius, beta_s = 1 - lambda_max(V_s^-1/2 L(V)_s V_s^-1/2)
  is positive whenever the nominal chain is stable, and with
  alpha_r = max_s lambda_max(V_s^-1/2 W_r V_r W_r^T V_s^-1/2) any
  perturbation with sum_r alpha_r max(dp_rs, 0) <= beta_s keeps
  L'(V) <= V. Its eps are scaled so that sum_r alpha_r eps_r <= min beta:
  the box is certified by its own inequality.

Perturbations are structured: each row of the chain must still sum to one, so
every admissible dP has zero row sums, and entries of nominal+dP must stay in
[0, 1] (which is where the per-column boxes come from).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import spectral_radius
from .lp import lp_solve
from .stability import alphas, betas, mss_matrix, scope_radius, second_moment_map
from .switched import ModeFamily, _check_chain

# The weighting V sums K = _SERIES_TERMS powers of L at c = rho (1 + _C_GAP).
# Both only set how tight the margins are: beta and alpha are computed
# exactly from the V that is used, so any choice is sound.
_SERIES_TERMS = 400
_C_GAP = 1e-4


class BoundsInfeasibleError(RuntimeError):
    """The nominal chain already fails the norm margin (some beta <= 0)."""


def solve_bound_lp(
    family: ModeFamily,
    direction: str = "upper",
    margin: float = 0.0,
    *,
    alpha=None,
    beta=None,
) -> np.ndarray:
    """Step 1: per-column extremal perturbations under the norm margin.

    For each column s, maximize (direction="upper") or minimize ("lower")
    sum_r z_r subject to sum_r alpha_r z_r <= beta_s - margin and the box
    -P[r, s] <= z_r <= 1 - P[r, s] around the family's chain P. Columns are
    independent; one `lp_solve` call solves them all and returns the
    per-column optimizers as the columns of an m x m array.
    alpha and beta default to the infinity-norm certificate; weighted_bounds
    passes its own.

    Requires beta_s > margin for every s (the nominal point must satisfy
    the margin strictly); raises BoundsInfeasibleError otherwise.
    """
    if direction not in ("upper", "lower"):
        raise ValueError(f"direction must be 'upper' or 'lower', got {direction!r}")
    m, p = family.mode_count, family.joint_P
    if alpha is None:
        alpha = alphas(family)
    if beta is None:
        beta = betas(alpha, p)
    if np.min(beta) <= margin:
        raise BoundsInfeasibleError(
            f"nominal chain fails the norm margin: min beta = {beta.min():.6g} "
            f"(margin {margin:.6g})"
        )

    sign = 1.0 if direction == "upper" else -1.0
    return lp_solve(np.full(m, sign), alpha, beta - margin, -p, 1.0 - p)


def feasible_bound(z_lb, z_ub) -> np.ndarray:
    """Step 2: per-row bound eps_r = min over columns and directions of the
    absolute optimizer entries."""
    z_lb = np.asarray(z_lb, dtype=float)
    z_ub = np.asarray(z_ub, dtype=float)
    if z_lb.shape != z_ub.shape or z_lb.ndim != 2:
        raise ValueError("z_lb and z_ub must be equal-shape 2-d arrays")
    return np.minimum(np.abs(z_lb).min(axis=1), np.abs(z_ub).min(axis=1))


@dataclass(eq=False)
class BoundResult:
    """Outcome of the two-step bound estimation for one mode family.
    `to_dict` leaves out z_ub and z_lb: megabytes of JSON at m=256."""

    alpha: np.ndarray
    beta: np.ndarray
    z_ub: np.ndarray = field(repr=False)
    z_lb: np.ndarray = field(repr=False)
    eps: np.ndarray
    feasible: bool

    def to_dict(self) -> dict:
        return {
            "alpha": self.alpha.tolist(),
            "beta": self.beta.tolist(),
            "eps": self.eps.tolist(),
            "feasible": self.feasible,
        }


def _two_step(family: ModeFamily, alpha, beta, margin: float) -> BoundResult:
    """Both step-1 directions, then the step-2 eps, under the given alpha
    and beta; feasible=False with eps = 0 when some beta_s <= margin."""
    m = family.mode_count
    try:
        z_ub = solve_bound_lp(family, "upper", margin, alpha=alpha, beta=beta)
    except BoundsInfeasibleError:
        zeros = np.zeros((m, m))
        return BoundResult(alpha, beta, zeros, zeros.copy(), np.zeros(m), False)
    z_lb = solve_bound_lp(family, "lower", margin, alpha=alpha, beta=beta)
    return BoundResult(alpha, beta, z_ub, z_lb, feasible_bound(z_lb, z_ub), True)


def compute_bounds(family: ModeFamily, margin: float = 0.0) -> BoundResult:
    """Full pipeline: alphas, betas, both LP directions, then eps.

    When some beta_s <= margin the nominal chain sits outside the
    norm-certifiable region; that is reported in-band as feasible=False with
    eps = 0 (the condition is only sufficient, so the exact spectral test may
    still pass there).
    """
    alpha = alphas(family)
    return _two_step(family, alpha, betas(alpha, family.joint_P), margin)


def _top_eig(m, v) -> np.ndarray:
    """lambda_max(V^-1/2 M V^-1/2) for stacks of symmetric M and V > 0."""
    c = np.linalg.cholesky(v)
    a = np.linalg.solve(c, m)
    b = np.linalg.solve(c, np.swapaxes(a, -1, -2))
    return np.linalg.eigvalsh(0.5 * (b + np.swapaxes(b, -1, -2)))[..., -1]


def weighted_bounds(family: ModeFamily, margin: float = 0.0) -> BoundResult:
    """Two-step bounds under the coupled-Lyapunov certificate.

    Builds V = sum_{k<K} L^k(I) / c^k with c just above the spectral radius
    of L at the nominal chain, takes beta and alpha from V (see the module
    docstring), runs both step-1 LP directions with them, and scales the
    step-2 eps by t = min(1, (min beta - margin) / sum_r alpha_r eps_r), so
    every perturbation in the box has sum_r alpha_r |dp_rs| <= beta_s - margin
    in every column. When some beta_s <= margin (the nominal chain is
    unstable, or closer to the margin than this V can show) the result is
    feasible=False with eps = 0.
    """
    m, d = family.mode_count, family.state_dim
    rho = scope_radius(family)
    # the floor keeps V well conditioned when L is nilpotent (rho = 0)
    c = (1.0 + _C_GAP) * max(rho, 1e-3)
    term = np.broadcast_to(np.eye(d), (m, d, d))
    v = term.copy()
    for _ in range(_SERIES_TERMS - 1):
        term = second_moment_map(family, term) / c
        v += term
    w = family.matrices
    pushed = w @ v @ w.transpose(0, 2, 1)  # W_r V_r W_r^T
    beta = 1.0 - _top_eig(second_moment_map(family, v), v)
    alpha = _top_eig(pushed[:, None], v[None, :]).max(axis=1)
    result = _two_step(family, alpha, beta, margin)
    load = float(alpha @ result.eps)
    budget = float(np.min(beta)) - margin
    if result.feasible and load > budget:
        result.eps *= budget / load
    return result


def column_corners(nominal, eps) -> np.ndarray:
    """The m chains at the column corners of the box |dp_rs| <= eps_r.

    Corner s moves eps_r of every row r into column s, taken from that row's
    largest other entry. Each puts the largest load sum_r alpha_r eps_r on
    column s that the box allows, so they are where a bound box is checked
    against the spectral test when the chain has more than two modes.
    """
    nominal = np.asarray(nominal, dtype=float)
    eps = np.asarray(eps, dtype=float)
    m = nominal.shape[0]
    if eps.shape != (m,):
        raise ValueError("eps must have one entry per mode")
    rows = np.arange(m)
    corners = np.repeat(nominal[None], m, axis=0)
    for s in range(m):
        others = np.where(rows == s, -np.inf, nominal)
        corners[s, rows, s] += eps
        corners[s, rows, np.argmax(others, axis=1)] -= eps
    return corners


def robust_sufficient(family: ModeFamily, nominal, delta) -> bool:
    """Norm-based sufficient stability check of a structured perturbation.

    delta must have zero row sums (rows of a chain keep summing to one) and
    nominal+delta must stay entrywise in [0, 1]; violations raise ValueError.
    True means every column satisfies sum_r alpha_r |delta_rs| < beta_s,
    which guarantees the perturbed spectral test still passes. False says
    nothing either way.
    """
    m = family.mode_count
    nominal = _check_chain(nominal, m, "nominal chain")
    delta = np.asarray(delta, dtype=float)
    if delta.shape != (m, m):
        raise ValueError(f"delta: expected ({m}, {m}), got {delta.shape}")
    if np.any(np.abs(delta.sum(axis=1)) > 1e-10):
        raise ValueError("perturbation rows must sum to zero")
    perturbed = nominal + delta
    if np.any(perturbed < -1e-12) or np.any(perturbed > 1.0 + 1e-12):
        raise ValueError("perturbed chain leaves [0, 1]")
    alpha = alphas(family)
    beta = betas(alpha, nominal)
    return bool(np.all(alpha @ np.abs(delta) < beta))


def grid_scan_max_rho(
    family: ModeFamily, nominal, eps, resolution: float = 1e-3
) -> float:
    """Worst spectral radius over the certified box, for 2-mode chains.

    Scans the two free perturbation parameters (one per row, since row sums
    are pinned to zero) on a grid of the given resolution, evaluating the
    spectral test at every admissible chain nominal + dP with |dp_r| <= eps_r.
    """
    m = family.mode_count
    if m != 2:
        raise ValueError("grid scan is implemented for 2-mode chains only")
    nominal = _check_chain(nominal, m, "nominal chain")
    eps = np.asarray(eps, dtype=float)
    if eps.shape != (2,):
        raise ValueError("eps must have one entry per mode")

    def axis(bound: float) -> np.ndarray:
        if bound <= 0:
            return np.zeros(1)
        count = int(round(2 * bound / resolution)) + 1
        return np.linspace(-bound, bound, count)

    worst = 0.0
    for t1 in axis(eps[0]):
        for t2 in axis(eps[1]):
            p = nominal + np.array([[t1, -t1], [t2, -t2]])
            if np.any(p < -1e-12) or np.any(p > 1.0 + 1e-12):
                continue
            test = mss_matrix(family, transition=p).matrix
            worst = max(worst, spectral_radius(test))
    return worst
