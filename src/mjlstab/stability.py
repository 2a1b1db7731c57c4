"""Mean-square stability tests for the switched representation.

A mode family is mean-square stable iff the spectral radius of its
second-moment operator L is below one. The full-network family is exact but
exponentially large. The scalable route is the per-agent reduced test: the
same spectral test on every agent's neighborhood family, with the couplings
that leave the neighborhood dropped. It certifies each neighborhood
subsystem, not the whole network, which can be unstable while every
neighborhood passes. Agents with the same exact local structure share one
build and solve; symmetric agents can also be grouped in the report. Scopes
run serially.

Every scope is first tested matrix free, by the cone iteration on L (only L
is applied, as batched matmul), so the solver state is a few stacks of
m d x d matrices. When that does not settle, a scope of at most QR_CUTOFF
rows falls back to the dense eigensolve of its test matrix and a larger one
to ARPACK on L (ARPACK_NCV + 2 stacks).

The covariance recursion implemented here is the exact second-moment
propagation of the switched system and serves as an independent oracle for
the spectral verdicts.
"""

from __future__ import annotations

import itertools
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .linalg import ARPACK_NCV, QR_CUTOFF, check_bytes, inf_norm, spectral_radius
from .linalg import sparse_spectral_radius
from .model import DncsModel, neighborhood
from .switched import ModeFamily, _check_chain, build_mode_family, enumerate_links

# Spectral radii within this distance of 1 are reported as "marginal" rather
# than being forced into a stable/unstable boolean.
MARGINAL_BAND = 1e-9

# Above this neighborhood size, agent grouping falls back from canonical
# relabeling (factorial in the neighborhood size) to the identity labeling,
# which may split classes but never merges distinct subsystems.
_CANONICAL_LIMIT = 8

# Step budget and relative error target of the cone iteration (`_cone_radius`).
_CONE_MAX_ITER = 500
_CONE_TOL = 1e-13
# A change that shrinks by no more than _CONE_STALL per step cannot meet
# _CONE_TOL within the budget (0.95^500 is 7e-12); the cone iteration gives
# up after _CONE_STALL_STEPS such steps that each also reverse the growth.
_CONE_STALL = 0.95
_CONE_STALL_STEPS = 8


def verdict(rho: float) -> str:
    """Classify a spectral radius: stable / unstable / marginal."""
    if rho < 1.0 - MARGINAL_BAND:
        return "stable"
    if rho > 1.0 + MARGINAL_BAND:
        return "unstable"
    return "marginal"


@dataclass(eq=False)
class MssTestMatrix:
    """Second-moment test matrix of one mode family (dimension m*d^2)."""

    matrix: np.ndarray = field(repr=False)
    scope: str = "global"


def mss_matrix(family: ModeFamily, transition=None) -> MssTestMatrix:
    """Build the test matrix whose spectral radius decides stability.

    Block (s, r) equals P[r, s] * (W_r kron W_r): it maps the stacked
    per-mode second moments forward one step. `transition` overrides the
    family's joint chain (used by robustness scans that try perturbed
    chains against fixed mode matrices).
    """
    p = family.joint_P if transition is None else np.asarray(transition, dtype=float)
    m = family.mode_count
    if p.shape != (m, m):
        raise ValueError(f"transition: expected ({m}, {m}), got {p.shape}")
    d = family.state_dim
    dim = m * d * d
    check_bytes(8 * dim * dim, f"test matrix {dim}x{dim}")
    out = np.empty((dim, dim))
    d2 = d * d
    for r in range(m):
        w = family.matrices[r]
        kr = np.kron(w, w)
        # column block r: rows s get P[r, s] * (W_r kron W_r)
        out[:, r * d2 : (r + 1) * d2] = np.kron(p[r][:, None], kr)
    return MssTestMatrix(matrix=out, scope=family.label)


@dataclass(frozen=True)
class ScopeResult:
    """Spectral test outcome for one scope (global or one agent)."""

    scope: str
    rho: float
    stable: bool
    verdict: str
    m: int
    dim: int
    solver: str  # "cone", "dense" or "arpack": the route of `scope_radius`


@dataclass
class StabilityReport:
    """Per-scope spectral radii plus the overall verdict.

    `classes` lists the agent groups that were deduplicated (None when the
    test ran without grouping); scopes then hold one entry per class
    representative.
    """

    scopes: list
    overall: str
    classes: list | None = None

    def to_dict(self) -> dict:
        return {
            "overall": self.overall,
            "scopes": [asdict(s) for s in self.scopes],
            "classes": self.classes,
        }


def _overall(scopes) -> str:
    verdicts = {s.verdict for s in scopes}
    if "unstable" in verdicts:
        return "unstable"
    if "marginal" in verdicts:
        return "marginal"
    return "stable"


def _scope_result(family: ModeFamily) -> ScopeResult:
    rho, solver = _solve_scope(family)
    return ScopeResult(
        scope=family.label,
        rho=rho,
        stable=rho < 1.0,
        m=family.mode_count,
        dim=family.mode_count * family.state_dim**2,
        verdict=verdict(rho),
        solver=solver,
    )


def scope_radius(family: ModeFamily) -> float:
    """Spectral radius of the second-moment operator L of one scope.

    At every size this is first `_cone_radius`, matrix free. When that does
    not settle (a periodic chain, say), a scope of at most QR_CUTOFF rows
    (the same cutoff as `model.nominal_stability`) takes the dense
    eigensolve of its test matrix, and a larger one ARPACK on L as a
    LinearOperator. Above QR_CUTOFF, raises SizeLimitError when the solver
    state, m*d^2 float64s times ARPACK's Krylov size plus two, would exceed
    `linalg.BYTE_CAP`.
    """
    return _solve_scope(family)[0]


def _solve_scope(family: ModeFamily) -> tuple[float, str]:
    """`scope_radius` and the solver that produced it: "cone", "dense" or
    "arpack"."""
    m, d = family.mode_count, family.state_dim
    dim = m * d * d
    if dim > QR_CUTOFF:
        check_bytes(8 * dim * (ARPACK_NCV + 2),
                    f"scope {family.label}: the spectral test's solver state",
                    "; try --dedup or a sparser neighborhood")
    rho = _cone_radius(family)
    if rho is not None:
        return rho, "cone"
    if dim <= QR_CUTOFF:
        return spectral_radius(mss_matrix(family).matrix), "dense"
    from scipy.sparse.linalg import LinearOperator

    def apply(v):
        return second_moment_map(family, v.reshape(m, d, d)).ravel()

    return sparse_spectral_radius(LinearOperator((dim, dim), matvec=apply, dtype=float)), "arpack"


def _cone_radius(family: ModeFamily) -> float | None:
    """Spectral radius of L by power iteration from the stacked identities,
    or None when it does not settle within _CONE_MAX_ITER steps.

    L maps the PSD cone into itself (Costa, Fragoso & Marques, Discrete-Time
    Markov Jump Linear Systems, 2005, ch. 3), so its radius is an eigenvalue
    with a PSD eigenvector, and the growth of the trace tends to it. The
    iteration stops on an a-posteriori error estimate: with r the ratio of
    successive changes of the growth, a geometric tail has |change| r/(1-r)
    left to go. The estimate must pass twice in a row, so one change that
    happens to be tiny cannot stop it. A periodic chain keeps the growth
    oscillating and gets None: early, after _CONE_STALL_STEPS steps in a row
    that each reverse the growth's direction without shrinking its change
    below _CONE_STALL times the last one.
    """
    m, d = family.mode_count, family.state_dim
    x = np.broadcast_to(np.eye(d) / (m * d), (m, d, d))
    growth = step = change = 0.0
    passed = stalled = 0
    for _ in range(_CONE_MAX_ITER):
        y = second_moment_map(family, x)
        prev, growth = growth, float(np.trace(y, axis1=1, axis2=2).sum())
        if growth == 0.0:
            return 0.0
        prev_step, step = step, growth - prev
        prev_change, change = change, abs(step)
        if change == 0.0:
            error = 0.0
        elif change < prev_change:
            r = change / prev_change
            error = change * r / (1.0 - r)
        else:
            error = np.inf
        passed = passed + 1 if error <= _CONE_TOL * growth else 0
        if passed == 2:
            return growth
        reverses = step * prev_step < 0.0
        stalled = stalled + 1 if reverses and change >= _CONE_STALL * prev_change else 0
        if stalled == _CONE_STALL_STEPS:
            return None
        x = y / growth
    return None


def mss_test_family(family: ModeFamily) -> StabilityReport:
    """Spectral mean-square test of a single prebuilt mode family."""
    result = _scope_result(family)
    return StabilityReport(scopes=[result], overall=_overall([result]))


def mss_test_full(model: DncsModel) -> StabilityReport:
    """Full-network test: enumerate every delay mode of the whole network.

    Exact but exponential in the link count; raises SizeLimitError with a
    pointer to the reduced test when the network's family is too large.
    """
    family = build_mode_family(model, scope=None)
    return mss_test_family(family)


def dedup_agents(model: DncsModel) -> list[list[int]]:
    """Group agents whose reduced subsystems are identical up to relabeling.

    Two agents land in the same class when some bijection between their
    neighborhoods (mapping center to center) carries every stored block of
    one exactly onto the corresponding block of the other. Each class can
    then be analyzed through a single representative.

    The canonical signature is a function of an agent's exact local
    structure and its center's position in the sorted neighborhood, so its
    permutation search runs once per distinct pair of the two.
    """
    signatures: dict = {}
    groups: dict = {}
    for agent in range(1, model.n_agents + 1):
        nb = neighborhood(model, agent)
        links = enumerate_links(model, agent)
        pos = {a: k for k, a in enumerate(nb)}
        key = (_structure(model, nb, links, pos), pos[agent])
        if key not in signatures:
            signatures[key] = _canonical_signature(model, agent, nb, links)
        groups.setdefault(signatures[key], []).append(agent)
    return sorted(groups.values(), key=min)


def _canonical_signature(model: DncsModel, agent: int, nb, links):
    """The least `_structure` of the neighborhood `nb` over every labeling
    that puts `agent` at position 0 (only the sorted order above
    _CANONICAL_LIMIT other members)."""
    others = [a for a in nb if a != agent]
    if len(others) <= _CANONICAL_LIMIT:
        orderings = itertools.permutations(others)
    else:
        orderings = [tuple(others)]
    best = None
    for perm in orderings:
        pos = {agent: 0}
        for k, a in enumerate(perm):
            pos[a] = k + 1
        candidate = _structure(model, nb, links, pos)
        if best is None or candidate < best:
            best = candidate
    return best


def _local_structure(model: DncsModel, agent: int):
    """The exact local structure of an agent's scope: `_structure` under the
    sorted-neighborhood positions that `build_mode_family` assembles by.
    Agents with equal structures get byte-identical mode families."""
    nb = neighborhood(model, agent)
    pos = {a: k for k, a in enumerate(nb)}
    return _structure(model, nb, enumerate_links(model, agent), pos)


def _structure(model: DncsModel, nb, links, pos):
    """A neighborhood's blocks under the labeling `pos`: its size, each
    diagonal block by position, and (receiver, sender, block) of each link."""
    diag = tuple(sorted((pos[a], model.blocks[(a, a)].tobytes()) for a in nb))
    link_sig = tuple(
        sorted((pos[l], pos[j], model.blocks[(l, j)].tobytes()) for (l, j) in links)
    )
    return (len(nb), diag, link_sig)


def mss_test_reduced(model: DncsModel, dedup: bool = False) -> StabilityReport:
    """Per-agent reduced test: the spectral test of every agent's
    neighborhood subsystem, one scope per agent. It certifies each
    neighborhood subsystem, with the couplings that reach outside it
    dropped; it does not certify the whole network, which `mss_test_full`
    tests.

    Each distinct local structure (`_local_structure`) is built and solved
    once, and agents that share it share its result. With dedup=True,
    symmetric agents are grouped first and one representative per class is
    reported.
    """
    if dedup:
        classes = dedup_agents(model)
    else:
        classes = [[i] for i in range(1, model.n_agents + 1)]
    solved: dict = {}
    scopes = []
    for cls in classes:
        agent = cls[0]
        key = _local_structure(model, agent)
        if key not in solved:
            family = build_mode_family(model, scope=agent)
            solved[key] = _scope_result(family)
        scopes.append(replace(solved[key], scope=f"agent {agent}"))
    return StabilityReport(
        scopes=scopes,
        overall=_overall(scopes),
        classes=classes if dedup else None,
    )


def alphas(family: ModeFamily) -> np.ndarray:
    """Per-mode norm coefficients: the infinity norm of W_r kron W_r.

    Absolute row sums multiply under the Kronecker product, so this equals
    the squared infinity norm of W_r; computed that way to avoid
    materializing the product.
    """
    return np.array([inf_norm(w) ** 2 for w in family.matrices])


def betas(alpha, nominal) -> np.ndarray:
    """Per-column stability margins: beta_s = 1 - sum_r nominal[r, s] * alpha_r.

    Negative entries mean the nominal chain itself is outside the
    norm-certifiable region.
    """
    alpha = np.asarray(alpha, dtype=float)
    return 1.0 - alpha @ _check_chain(nominal, alpha.shape[0], "nominal chain")


def block_norm_sufficient(family: ModeFamily, transition=None) -> bool:
    """Quick sufficient test: row sums of mode-norm blocks all below one.

    For every block row s of the test matrix, sum_r P[r, s] * |W_r kron W_r|
    must be < 1, i.e. every margin beta_s is positive (the infinity norm
    bounds the spectral radius). True implies the spectral test passes;
    false says nothing.
    """
    p = family.joint_P if transition is None else transition
    return bool(np.all(betas(alphas(family), p) > 0.0))


# ---------------------------------------------------------------------------
# Exact covariance recursion (second-moment oracle)
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class CovarianceState:
    """Mode-conditioned second moments Q_s(k) (already weighted by the mode
    occupation probability) plus the mode distribution at step k."""

    Q: np.ndarray = field(repr=False)
    pi: np.ndarray
    k: int = 0


def covariance_init(family: ModeFamily) -> CovarianceState:
    """Isotropic start: Q_s(0) = pi0_s * I, exciting every direction."""
    d = family.state_dim
    q0 = np.stack([pi * np.eye(d) for pi in family.joint_pi0])
    return CovarianceState(Q=q0, pi=family.joint_pi0.copy(), k=0)


def second_moment_map(family: ModeFamily, q) -> np.ndarray:
    """The second-moment operator: L(Q)_s = sum_r P[r, s] W_r Q_r W_r^T.

    The test matrix is this map written out densely, so its spectral radius
    decides stability. P is the family's joint chain; to apply L at another
    chain, pass `dataclasses.replace(family, joint_P=p)`.
    """
    w = family.matrices
    m, d = w.shape[:2]
    pushed = (w @ q @ w.transpose(0, 2, 1)).reshape(m, -1)
    return (family.joint_P.T @ pushed).reshape(m, d, d)


def covariance_step(family: ModeFamily, state: CovarianceState) -> CovarianceState:
    """One exact step: Q_s(k+1) = sum_r P[r, s] W_r Q_r(k) W_r^T."""
    w = family.matrices
    if state.Q.shape != w.shape:
        raise ValueError(
            f"covariance state shape {state.Q.shape} does not match family "
            f"{w.shape}"
        )
    new_q = second_moment_map(family, state.Q)
    new_pi = state.pi @ family.joint_P
    return CovarianceState(Q=new_q, pi=new_pi, k=state.k + 1)


def covariance_trace(state: CovarianceState) -> float:
    """Total expected squared norm at the state's step: sum_s tr Q_s."""
    return float(np.trace(state.Q, axis1=1, axis2=2).sum())


def stack_covariance(state: CovarianceState) -> np.ndarray:
    """Column-major vectorization of every Q_s, stacked mode by mode.

    The test matrix propagates exactly this vector: stacking after
    covariance_step equals mss_matrix(family).matrix @ stacking before.
    """
    return np.concatenate([q.reshape(-1, order="F") for q in state.Q])
