"""Switched-system representation of a delayed network.

Every directed communication link carries its own delay in 0..tau_d, so one
"mode" of the network is a full assignment of delays to links. The state is
augmented with tau_d steps of history, which turns the delayed dynamics into
a delay-free switched system x(k+1) = W_sigma(k) x(k): the top block row of
each W holds the coupling blocks sorted into delay slots, and the rows below
are the shift (companion) structure.

Scopes: `scope=None` enumerates the whole network's links; `scope=i` builds
the reduced model of agent i over its neighborhood, keeping only links whose
endpoints both lie in the neighborhood (couplings reaching outside are
dropped). Diagonal blocks never pass through the network and always sit in
the zero-delay slot.

Mode indexing is big-endian over the sorted link list (first link is the most
significant digit), and the joint transition matrix is the matching Kronecker
power of the per-link chain, so index order and probability order always
agree.

The mode count q^L explodes with the link count L. `build_mode_family`
checks the q^L mode matrices and the q^L x q^L joint chain against
`linalg.BYTE_CAP` before it allocates anything, and then assembles every
mode in one batched pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import check_bytes, kron_power
from .model import DncsModel, neighborhood, senders

# Integer size above which mode counts are reported as (base, exponent).
_EXACT_COUNT_LIMIT = 1 << 62


def enumerate_links(model: DncsModel, scope: int | None = None) -> list[tuple[int, int]]:
    """Directed links (receiver, sender) of a scope, sorted ascending.

    Global scope lists every stored off-diagonal block; the reduced scope of
    agent i lists only links internal to its neighborhood.
    """
    agents = _scope_agents(model, scope)
    inside = set(agents)
    return [(i, j) for i in agents for j in senders(model, i) if j in inside]


def mode_count(model: DncsModel, scope: int | None = None):
    """Number of delay modes of a scope: q^L over its L links.

    Returns an exact int, or the pair (q, L) when the count exceeds 2^62.
    """
    links = enumerate_links(model, scope)
    q = model.q
    count = q ** len(links)
    if count > _EXACT_COUNT_LIMIT:
        return (q, len(links))
    return count


def mode_count_formula(model: DncsModel, i: int) -> int:
    """Mode count of agent i by neighborhood size alone: q^(n_hat*(n_hat-1)).

    This counts all ordered pairs in the neighborhood as links, so it upper
    bounds the link-aware `mode_count` and is the number usually quoted when
    summing over agents.
    """
    n_hat = len(neighborhood(model, i))
    return model.q ** (n_hat * (n_hat - 1))


def _scope_agents(model: DncsModel, scope: int | None) -> list[int]:
    if scope is None:
        return list(range(1, model.n_agents + 1))
    return neighborhood(model, scope)


def _assemble(
    model: DncsModel,
    agents: list[int],
    links: list[tuple[int, int]],
    digits: np.ndarray,
) -> np.ndarray:
    """Mode matrices of a scope, one per row of `digits` (rows, L), whose
    entry t is the delay of the t-th link."""
    n = model.n
    q = model.q
    pos = {agent: k for k, agent in enumerate(agents)}
    size = len(agents) * n
    w = np.zeros((len(digits), size * q, size * q))
    # delay-free slot: every diagonal block of the scope
    for agent in agents:
        k = pos[agent] * n
        w[:, k : k + n, k : k + n] = model.blocks[(agent, agent)]
    # coupling blocks, each shifted into the slot of its link's delay
    for t, (recv, send) in enumerate(links):
        r = pos[recv] * n
        for d in range(q):
            c = d * size + pos[send] * n
            w[digits[:, t] == d, r : r + n, c : c + n] = model.blocks[(recv, send)]
    # shift structure: identity sub-diagonal moving history down one slot
    for t in range(1, q):
        w[:, t * size : (t + 1) * size, (t - 1) * size : t * size] = np.eye(size)
    return w


def _check_chain(p, m: int, label: str) -> np.ndarray:
    """`p` as a finite row-stochastic m x m float array; errors name it `label`."""
    p = np.asarray(p, dtype=float)
    if p.shape != (m, m):
        raise ValueError(f"{label}: expected ({m}, {m}), got {p.shape}")
    if not np.isfinite(p).all():
        raise ValueError(f"{label}: non-finite entries")
    if np.any(p < -1e-12) or np.any(np.abs(p.sum(axis=1) - 1.0) > 1e-9):
        raise ValueError(f"{label} is not row-stochastic")
    return p


@dataclass(eq=False)
class ModeFamily:
    """All mode matrices of one scope plus the matching joint delay chain.

    matrices[idx] is the mode whose link delays, as big-endian base-q
    digits over the sorted link list, spell idx; joint_P is the Kronecker
    power of the per-link transition matrix under the same digit ordering,
    and joint_pi0 the matching initial distribution. The operator, the
    spectral tests and the bounds read only this chain:
    `dataclasses.replace` swaps it.
    """

    scope: object
    state_dim: int
    matrices: np.ndarray = field(repr=False)
    joint_P: np.ndarray = field(repr=False)
    joint_pi0: np.ndarray = field(repr=False)

    def __post_init__(self):
        mats = np.asarray(self.matrices, dtype=float)
        pi0 = np.asarray(self.joint_pi0, dtype=float)
        if mats.ndim != 3 or mats.shape[1] != mats.shape[2]:
            raise ValueError(f"matrices: expected (m, d, d), got {mats.shape}")
        m, d, _ = mats.shape
        if d != self.state_dim:
            raise ValueError(f"state_dim {self.state_dim} != matrix dim {d}")
        if not np.isfinite(mats).all():
            raise ValueError("matrices: non-finite entries")
        self.joint_P = _check_chain(self.joint_P, m, "joint_P")
        # written so that a NaN sum fails too
        if pi0.shape != (m,) or not abs(pi0.sum() - 1.0) <= 1e-9 or np.any(pi0 < -1e-12):
            raise ValueError("joint_pi0 is not a distribution")
        self.matrices = mats
        self.joint_pi0 = pi0

    @property
    def mode_count(self) -> int:
        return self.matrices.shape[0]

    @property
    def label(self) -> str:
        if self.scope is None:
            return "global"
        if isinstance(self.scope, int):
            return f"agent {self.scope}"
        return str(self.scope)

    @classmethod
    def from_matrices(cls, matrices, transition, pi0=None) -> "ModeFamily":
        """Wrap a raw list of mode matrices and transition matrix (no delay
        structure) as scope "family", e.g. for a hand-specified jump-linear
        system."""
        mats = np.asarray(matrices, dtype=float)
        if mats.ndim != 3:
            raise ValueError("matrices must be a list of square matrices")
        m = mats.shape[0]
        if pi0 is None:
            pi0 = np.full(m, 1.0 / m)
        return cls(
            scope="family",
            state_dim=mats.shape[1],
            matrices=mats,
            joint_P=np.asarray(transition, dtype=float),
            joint_pi0=np.asarray(pi0, dtype=float),
        )


def _size_hint(scope) -> str:
    """What a refusal of the scope suggests instead."""
    if scope is None:
        return "; use the reduced per-agent test"
    return "; neighborhood too dense" if isinstance(scope, int) else ""


def build_mode_family(model: DncsModel, scope: int | None = None) -> ModeFamily:
    """Enumerate every delay mode of a scope into a ModeFamily.

    Raises SizeLimitError, before anything is allocated, when the q^L mode
    matrices or the q^L x q^L joint chain would exceed `linalg.BYTE_CAP`;
    for the global scope of a large network that is the expected outcome,
    and the per-agent reduced scope is the tractable alternative.
    """
    links = enumerate_links(model, scope)
    q = model.q
    count = q ** len(links)
    agents = _scope_agents(model, scope)
    dim = len(agents) * model.n * q
    where = "global scope" if scope is None else f"agent {scope}"
    for what, nbytes in (("mode matrices", 8 * count * dim * dim),
                         ("joint chain", 8 * count * count)):
        check_bytes(nbytes, f"{where}: the {what} of {q}^{len(links)} delay modes",
                    _size_hint(scope))
    digits = np.arange(count)[:, None] // q ** np.arange(len(links))[::-1] % q
    return ModeFamily(
        scope=scope,
        state_dim=dim,
        matrices=_assemble(model, agents, links, digits),
        joint_P=kron_power(model.chain.P, len(links)),
        joint_pi0=kron_power(model.chain.pi0[None, :], len(links))[0],
    )
