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

Every scope takes one route, matrix free: restarted Arnoldi
(`linalg.krylov_radius`) ranked by real part on L^p, for each period p of
the joint chain's cycles, from the stacked identities. Only L is applied, as
batched matmul: the solver state is KRYLOV_STEPS + 2 stacks of m d x d,
which the full and reduced tests check before they build a scope.

The covariance recursion implemented here is the exact second-moment
propagation of the switched system and serves as an independent oracle for
the spectral verdicts.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .linalg import KRYLOV_STEPS, check_bytes, inf_norm, krylov_radius
from .model import DncsModel, neighborhood
from .switched import (ModeFamily, _check_family_bytes, _scope_label, _scope_size, _size_hint,
                       build_mode_family, enumerate_links)

# Spectral radii within this distance of 1 are reported as "marginal" rather
# than being forced into a stable/unstable boolean.
MARGINAL_BAND = 1e-9

# Above this neighborhood size, agent grouping falls back from canonical
# relabeling (factorial in the neighborhood size) to the identity labeling,
# which may split classes but never merges distinct subsystems.
_CANONICAL_LIMIT = 8


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


def mss_matrix(family: ModeFamily) -> MssTestMatrix:
    """Build the test matrix whose spectral radius decides stability.

    Block (s, r) equals P[r, s] * (W_r kron W_r): it maps the stacked
    per-mode second moments forward one step. P is the family's joint chain;
    for another chain, pass `dataclasses.replace(family, joint_P=p)`.
    """
    m, d = family.mode_count, family.state_dim
    dim = m * d * d
    check_bytes(8 * dim * dim, f"test matrix {dim}x{dim}")
    out = np.empty((dim, dim))
    d2 = d * d
    for r in range(m):
        w = family.matrices[r]
        kr = np.kron(w, w)
        # column block r: rows s get P[r, s] * (W_r kron W_r)
        out[:, r * d2 : (r + 1) * d2] = np.kron(family.joint_P[r][:, None], kr)
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
    rho = scope_radius(family)
    outcome = verdict(rho)
    return ScopeResult(scope=family.label, rho=rho, stable=outcome == "stable", verdict=outcome,
                       m=family.mode_count, dim=family.mode_count * family.state_dim**2)


def _check_solver_state(scope, m: int, d: int) -> None:
    """Refuse a scope of m modes of dimension d whose Krylov state (m*d^2
    float64s times KRYLOV_STEPS + 2) would exceed BYTE_CAP."""
    check_bytes(8 * m * d * d * (KRYLOV_STEPS + 2), f"scope {_scope_label(scope)}: the "
                "spectral test's solver state", _size_hint(scope))


def _solvable_family(model: DncsModel, scope: int | None) -> ModeFamily:
    """`build_mode_family` of a model scope, refused before anything is
    allocated if its family (checked first) or solver state passes BYTE_CAP."""
    size = _scope_size(model, scope)
    _check_family_bytes(scope, size)
    _check_solver_state(scope, size.modes, size.dim)
    return build_mode_family(model, scope)


def scope_radius(family: ModeFamily) -> float:
    """Spectral radius of the second-moment operator L of one scope, the
    largest over the `chain_periods` groups of that of L's block on the
    group: `linalg.krylov_radius` ranked by real part on (L/c)^p from the
    stacked identities, p the group's period and c (1 if p = 1) their
    geometric-mean growth over p steps. SizeLimitError before any step if
    the Krylov state (m*d^2 float64s times KRYLOV_STEPS + 2) would exceed
    BYTE_CAP; ArithmeticError naming the scope if Krylov gives up.

    L maps the PSD cone into itself (Costa, Fragoso & Marques 2005, ch. 3):
    rho(L) is its rightmost eigenvalue (Krein-Rutman), with a PSD dual
    eigenvector that the identities excite, also with L's output zeroed off
    a group; L^p puts a circle of period p together at rho^p (Varga, ch. 2)."""
    m, d = family.mode_count, family.state_dim
    _check_solver_state(family.scope, m, d)
    start, rho = np.tile(np.eye(d).ravel(), m), 0.0
    for p, states in chain_periods(family.joint_P).items():
        off, c = np.flatnonzero(~np.repeat(states, d * d)), 1.0

        def apply(v, times=p):
            for _ in range(times):
                v = second_moment_map(family, v.reshape(m, d, d)).ravel() / c
                v[off] = 0.0
            return v
        x, log_c = start, 0.0
        for _ in range(p if p > 1 else 0):  # a zero norm (L^p vanishes: rho = 0) counts as 1
            x = apply(x / (np.linalg.norm(x) or 1.0), 1)
            log_c += np.log(np.linalg.norm(x) or 1.0) / p
        c = float(np.exp(log_c))
        theta = krylov_radius(apply, start, rightmost=True)
        if theta is None:
            raise ArithmeticError(f"scope {family.label}: restarted Arnoldi did not settle")
        rho = max(rho, c * theta ** (1.0 / p))
    return rho


def chain_periods(p) -> dict[int, np.ndarray]:
    """States of a chain on cycles, a mask per period. Breadth-first trees,
    each from the first state not reached, have edges out only into earlier
    ones, so L is block triangular over them; the gcd of level[u] + 1 -
    level[v] on a tree's edges is its class's period, or divides each's."""
    support, level, groups = np.asarray(p) > 0, np.full(len(p), -1), {}
    while (level < 0).any():
        root = np.argmax(level < 0)
        earlier, level[root], frontier, g = level >= 0, 0, np.array([root]), 0
        while frontier.size:
            reach = support[frontier].any(axis=0) & ~earlier
            depth, frontier = level[frontier[0]] + 1, np.flatnonzero(reach & (level < 0))
            level[frontier] = depth
            g = int(np.gcd.reduce(depth - level[reach], initial=g))
        groups[g] = groups.get(g, False) | (level >= 0) & ~earlier
    return {g: states for g, states in groups.items() if g}


def mss_test_family(family: ModeFamily) -> StabilityReport:
    """Spectral mean-square test of a single prebuilt mode family."""
    result = _scope_result(family)
    return StabilityReport(scopes=[result], overall=_overall([result]))


def mss_test_full(model: DncsModel) -> StabilityReport:
    """Full-network test: enumerate every delay mode of the whole network.

    Exact but exponential in the link count; raises SizeLimitError with a
    pointer to the reduced test, before the build, when it is too large.
    """
    return mss_test_family(_solvable_family(model, None))


def dedup_agents(model: DncsModel) -> list[list[int]]:
    """Group agents whose reduced subsystems are identical up to relabeling.

    Two agents land in the same class when some bijection between their
    neighborhoods (mapping center to center) carries every stored block of
    one exactly onto the corresponding block of the other. Each class can
    then be analyzed through a single representative.

    Agents key on their exact local structure and the center's position in
    the sorted neighborhood. A key whose `_summary`, which relabeling cannot
    change, no other key shares can match no other key and is its own class
    label; only the others run the permutation search of the canonical
    signature, a function of the key.
    """
    keys, first = [], {}  # first: the first agent of each key, its neighborhood and links
    for agent in range(1, model.n_agents + 1):
        nb = neighborhood(model, agent)
        links = enumerate_links(model, agent)
        pos = {a: k for k, a in enumerate(nb)}
        keys.append((_structure(model, nb, links, pos), pos[agent]))
        first.setdefault(keys[-1], (agent, nb, links))
    shared = Counter(_summary(key) for key in first)
    labels = {key: _canonical_signature(model, *scope) if shared[_summary(key)] > 1 else key
              for key, scope in first.items()}
    groups: dict = {}
    for agent, key in enumerate(keys, 1):
        groups.setdefault(labels[key], []).append(agent)
    return sorted(groups.values(), key=min)


def _summary(key):
    """What relabeling leaves of an exact key (`_structure`, center
    position): the neighborhood size, the center's diagonal block, and the
    sorted diagonal and link blocks."""
    (size, diag, links), center = key
    return (size, diag[center][1], tuple(sorted(b for _, b in diag)),
            tuple(sorted(b for *_, b in links)))


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
            solved[key] = _scope_result(_solvable_family(model, agent))
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


def betas(family: ModeFamily, alpha) -> np.ndarray:
    """Per-column stability margins of the family's chain P under the norm
    coefficients alpha: beta_s = 1 - sum_r P[r, s] * alpha_r.

    Negative entries mean the nominal chain itself is outside the
    norm-certifiable region.
    """
    return 1.0 - np.asarray(alpha, dtype=float) @ family.joint_P


def block_norm_sufficient(family: ModeFamily) -> bool:
    """Quick sufficient test: row sums of mode-norm blocks all below one.

    For every block row s of the test matrix, sum_r P[r, s] * |W_r kron W_r|
    must be < 1, i.e. every margin beta_s is positive (the infinity norm
    bounds the spectral radius). True implies the spectral test passes;
    false says nothing.
    """
    return bool(np.all(betas(family, alphas(family)) > 0.0))


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

