"""Network model definition, JSON ingestion, and benchmark generators.

A DncsModel describes N coupled linear agents x_i(k+1) = sum_j A_ij x_j(k*),
where the off-diagonal terms arrive over communication links subject to a
random delay governed by a shared Markov chain. Blocks are stored sparsely:
only pairs (i, j) with a nonzero coupling are present, and the diagonal block
A_ii is always stored. Agent indices are one-based everywhere, matching the
JSON schema. Each model indexes its adjacency once at construction, so
`neighborhood` and the per-scope link lists cost O(degree), not a scan of
every block.

The nominal (delay-free) check is the delay-free case of the second-moment
test (Costa, Fragoso & Marques 2005, ch. 3): Schur stability of the global
block matrix. At every size, a homogeneous network of identical agents with
one coupling block K and symmetric weights, I (x) C + W (x) K, has its
spectrum in closed form: the union of spec(C + lambda K) over the
eigenvalues lambda of W, so it needs one symmetric eigensolve of W and N
tiny n x n ones. Any other network is split along the strongly connected
components of the coupling graph (Tarjan's search over the senders index)
and each component above `QR_CUTOFF` rows has its radius taken by
`linalg.krylov_radius` on a block matrix-vector product read from `blocks`;
smaller components, and large ones on which Krylov gives up, get a dense
eigensolve. Every path uses numpy alone.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .linalg import QR_CUTOFF, dense_radius, krylov_radius

_STOCH_TOL = 1e-12

# Seed of the nominal check's Krylov start: a structured start (all ones,
# say) can be orthogonal to the dominant eigenvector of a symmetric network.
_START_SEED = 0x5EED0


class ModelError(ValueError):
    """Raised for malformed model documents or invariant violations.

    The message starts with the path of the offending field when the error
    comes from document parsing (e.g. ``blocks[2].values``).
    """


def _frozen_array(values) -> np.ndarray:
    arr = np.array(values, dtype=float)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class DelayChain:
    """Per-link delay Markov chain: q delay states 0..tau_d.

    P is the q x q row-stochastic transition matrix, pi0 the initial
    distribution over delay values.
    """

    P: np.ndarray
    pi0: np.ndarray

    def __post_init__(self):
        p = _frozen_array(self.P)
        pi0 = _frozen_array(self.pi0)
        if p.ndim != 2 or p.shape[0] != p.shape[1] or p.shape[0] < 1:
            raise ModelError(f"chain.P: expected a square matrix, got shape {p.shape}")
        q = p.shape[0]
        if pi0.shape != (q,):
            raise ModelError(f"chain.pi0: expected length {q}, got shape {pi0.shape}")
        if np.any(p < -_STOCH_TOL) or np.any(p > 1 + _STOCH_TOL):
            raise ModelError("chain.P: entries must lie in [0, 1]")
        if np.any(np.abs(p.sum(axis=1) - 1.0) > _STOCH_TOL):
            bad = int(np.argmax(np.abs(p.sum(axis=1) - 1.0)))
            raise ModelError(
                f"chain.P[{bad}]: row not stochastic (sums to {p[bad].sum()!r})"
            )
        if np.any(pi0 < -_STOCH_TOL) or np.any(pi0 > 1 + _STOCH_TOL):
            raise ModelError("chain.pi0: entries must lie in [0, 1]")
        if abs(pi0.sum() - 1.0) > _STOCH_TOL:
            raise ModelError(f"chain.pi0: sums to {pi0.sum()!r}, not 1")
        object.__setattr__(self, "P", p)
        object.__setattr__(self, "pi0", pi0)

    @property
    def q(self) -> int:
        return self.P.shape[0]

    def __eq__(self, other):
        if not isinstance(other, DelayChain):
            return NotImplemented
        return np.array_equal(self.P, other.P) and np.array_equal(self.pi0, other.pi0)


@dataclass(frozen=True)
class PendulumParams:
    """Physical and control parameters of the coupled inverted-pendulum chain.

    Defaults: gravity 9.8, control gain 5, pendulum mass 0.5, length 1,
    sampling period 0.1, spring coupling 0.04. Endpoints of the chain have one
    spring (a_end = 1), interior pendulums two (a_mid = 2).
    """

    gravity: float = 9.8
    gain: float = 5.0
    mass: float = 0.5
    length: float = 1.0
    dt: float = 0.1
    coupling: float = 0.04
    a_end: float = 1.0
    a_mid: float = 2.0

    def __post_init__(self):
        for name in ("gravity", "gain", "mass", "length", "dt", "coupling", "a_end", "a_mid"):
            if not math.isfinite(getattr(self, name)):
                raise ModelError(f"pendulum parameter {name} must be finite")
            if name != "coupling" and getattr(self, name) <= 0:
                raise ModelError(f"pendulum parameter {name} must be positive")
        if self.coupling < 0:
            raise ModelError("pendulum parameter coupling must be non-negative")


@dataclass(eq=False)
class DncsModel:
    """Networked model: agent count, per-agent dimension, sparse coupling
    blocks, delay bound and the shared per-link delay chain.

    Immutable by convention after construction (arrays are read-only); all
    operations on it are pure reads.
    """

    n_agents: int
    n: int
    tau_d: int
    blocks: dict = field(repr=False)
    chain: DelayChain

    def __post_init__(self):
        if not isinstance(self.n_agents, int) or self.n_agents < 1:
            raise ModelError("N: expected integer >= 1")
        if not isinstance(self.n, int) or self.n < 1:
            raise ModelError("n: expected integer >= 1")
        if not isinstance(self.tau_d, int) or self.tau_d < 0:
            raise ModelError("tau_d: expected integer >= 0")
        if self.chain.q != self.tau_d + 1:
            raise ModelError(
                f"chain: has {self.chain.q} delay states, expected tau_d+1 = "
                f"{self.tau_d + 1}"
            )
        frozen = {}
        for key, mat in self.blocks.items():
            i, j = key
            if not (1 <= i <= self.n_agents and 1 <= j <= self.n_agents):
                raise ModelError(f"blocks: agent pair {key} out of range")
            arr = _frozen_array(mat)
            if arr.shape != (self.n, self.n):
                raise ModelError(
                    f"blocks: block {key} has shape {arr.shape}, expected "
                    f"({self.n}, {self.n})"
                )
            if i != j and not arr.any():
                raise ModelError(
                    f"blocks: off-diagonal block {key} is zero; omit it instead"
                )
            frozen[(i, j)] = arr
        for i in range(1, self.n_agents + 1):
            if (i, i) not in frozen:
                raise ModelError(f"blocks: missing diagonal block for agent {i}")
        self.blocks = frozen
        # adjacency index: agent -> sorted senders (j of each stored (i, j),
        # i != j) and sorted neighbors (either direction, the agent included)
        senders = {i: [] for i in range(1, self.n_agents + 1)}
        neighbors = {i: {i} for i in range(1, self.n_agents + 1)}
        for (i, j) in sorted(frozen):
            if i != j:
                senders[i].append(j)
                neighbors[i].add(j)
                neighbors[j].add(i)
        self._senders = {i: tuple(s) for i, s in senders.items()}
        self._neighbors = {i: tuple(sorted(nb)) for i, nb in neighbors.items()}

    @property
    def q(self) -> int:
        return self.tau_d + 1

    def __eq__(self, other):
        if not isinstance(other, DncsModel):
            return NotImplemented
        if (self.n_agents, self.n, self.tau_d) != (other.n_agents, other.n, other.tau_d):
            return False
        if self.chain != other.chain:
            return False
        if set(self.blocks) != set(other.blocks):
            return False
        return all(np.array_equal(self.blocks[k], other.blocks[k]) for k in self.blocks)


def neighborhood(model: DncsModel, i: int) -> list[int]:
    """Sorted neighbor set of agent i, including i itself.

    An agent j is a neighbor when either coupling block (i, j) or (j, i) is
    stored.
    """
    if not 1 <= i <= model.n_agents:
        raise ModelError(f"agent index {i} out of range (1..{model.n_agents})")
    return list(model._neighbors[i])


def senders(model: DncsModel, i: int) -> tuple[int, ...]:
    """Sorted agents j != i whose coupling block (i, j) is stored: the
    senders of agent i's incoming links."""
    return model._senders[i]


def build_global_matrix(model: DncsModel) -> np.ndarray:
    """Assemble the dense block matrix of the delay-free network."""
    n = model.n
    size = model.n_agents * n
    a = np.zeros((size, size))
    for (i, j), blk in model.blocks.items():
        a[(i - 1) * n : i * n, (j - 1) * n : j * n] = blk
    return a


def _block_matrix(model: DncsModel, agents: list[int]):
    """The delay-free network matrix restricted to `agents` (sorted), read
    from `model.blocks`: its product with a vector, and a builder of it
    dense.

    The product gathers each stored coupling's sender state one coordinate
    at a time, multiplies by broadcasting (as `sim._products` does) and sums
    the products per receiver row with one `np.bincount`; no matrix is
    formed. Coupling-last layouts keep each multiply contiguous: that halves
    the product's time against one coupling per row.
    """
    n = model.n
    pos = {a: k for k, a in enumerate(agents)}
    keys = [(i, j) for i in agents for j in (i, *senders(model, i)) if j in pos]
    recv, send = np.array([(pos[i], pos[j]) for i, j in keys]).T
    data = np.stack([model.blocks[key] for key in keys])
    # column c of every block (n x couplings) and the state entries it meets
    cols = [np.ascontiguousarray(data[:, :, c].T) for c in range(n)]
    picks = [send * n + c for c in range(n)]
    slots = (recv * n + np.arange(n)[:, None]).ravel()
    rows = len(agents) * n

    def apply(x):
        prod = cols[0] * x.take(picks[0])
        for c in range(1, n):
            prod += cols[c] * x.take(picks[c])
        return np.bincount(slots, prod.ravel(), minlength=rows)

    def dense():
        a = np.zeros((len(agents), n, len(agents), n))
        a[recv, :, send, :] = data
        return a.reshape(rows, rows)

    return apply, dense


def _strong_components(model: DncsModel) -> list[list[int]]:
    """Strongly connected components of the agent graph (an edge j -> i per
    stored block (i, j)), each a sorted list of agents, ordered by their
    first agent.

    Tarjan's depth-first search (SIAM J. Comput. 1972) over the senders
    index, run with an explicit stack so a long path does not recurse.
    Reversing every edge leaves the components as they are, so following
    each agent to its senders finds those of the graph above.
    """
    size = model.n_agents + 1
    # order of visit from 1 (0: not yet visited); an agent whose component
    # is found gets `size`, above every open index, so edges into it change
    # no low link
    index, low = [0] * size, [0] * size
    stack, found, count = [], [], 0

    def visit(v):
        nonlocal count
        count += 1
        index[v] = low[v] = count
        stack.append(v)
        return v, iter(model._senders[v])

    for root in range(1, size):
        path = [] if index[root] else [visit(root)]
        while path:
            v, todo = path[-1]
            for w in todo:
                if not index[w]:
                    path.append(visit(w))
                    break
                low[v] = min(low[v], index[w])
            else:
                path.pop()
                if path:
                    u = path[-1][0]
                    low[u] = min(low[u], low[v])
                if low[v] == index[v]:  # v roots a component: pop it
                    part = [stack.pop()]
                    while part[-1] != v:
                        part.append(stack.pop())
                    for w in part:
                        index[w] = size
                    found.append(sorted(part))
    return sorted(found)


def _kronecker_radius(model: DncsModel) -> float | None:
    """Spectral radius of a homogeneous network, I (x) C + W (x) K, from
    the eigenvalues of the weight matrix W; None when the model is not of
    that form.

    The form holds when every diagonal block equals one C exactly, every
    off-diagonal block (i, j) equals w_ij * K for one K (the first
    off-diagonal block) to within 4 eps |w_ij| max|K| per entry, and W is
    exactly symmetric. w_ij is read at K's largest entry, so a block built
    as w * k with a real weight reads back w_ij = w / w_1 rounded, and
    w_ij * K then misses the block by a few ulps (at most 1.9 eps |w_ij|
    max|K| measured on seeded uniform weights, n up to 4). That difference
    is of the order of rounding the network matrix itself, below the
    backward error of any eigensolver.

    A W that is a uniform path in agent order (every coupling (i, i +- 1)
    stored, no other, all weights bitwise one w) has the eigenvalues
    2 w cos(k pi / (N + 1)), k = 1..N (Brouwer & Haemers, Spectra of
    Graphs, 2012, 1.4.4), so a chain needs no N x N array, and neither does
    W = 0 (no coupling), whose one eigenvalue is 0. Any other W is built
    dense for `eigvalsh`; it and the copy `eigvalsh` makes of it count
    against `linalg.BYTE_CAP`.
    """
    keys = np.array(list(model.blocks)) - 1
    vals = np.stack(list(model.blocks.values()))
    diag = keys[:, 0] == keys[:, 1]
    c = vals[diag][0]
    if not (vals[diag] == c).all():
        return None
    off_keys, off = keys[~diag], vals[~diag]
    k = off[0] if len(off) else np.zeros_like(c)
    at = np.unravel_index(np.argmax(np.abs(k)), k.shape)
    weights = off[(slice(None), *at)] / k[at]
    tol = 4 * np.finfo(float).eps * np.abs(weights * k[at])
    if not (np.abs(off - weights[:, None, None] * k) <= tol[:, None, None]).all():
        return None
    n_agents = model.n_agents
    if not len(weights):  # no coupling: the spectrum is spec(C)
        lam = np.zeros(1)
    elif (len(weights) == 2 * (n_agents - 1) > 0
            and (np.abs(off_keys[:, 0] - off_keys[:, 1]) == 1).all()
            and (weights == weights[0]).all()):
        lam = 2 * weights[0] * np.cos(np.pi * np.arange(1, n_agents + 1) / (n_agents + 1))
    else:
        if 2 * n_agents ** 2 * 8 > linalg.BYTE_CAP:
            return None
        w = np.zeros((n_agents, n_agents))
        w[off_keys[:, 0], off_keys[:, 1]] = weights
        if not (w == w.T).all():
            return None
        lam = np.linalg.eigvalsh(w)
    return float(np.max(np.abs(np.linalg.eigvals(c + lam[:, None, None] * k))))


def nominal_stability(model: DncsModel) -> tuple[float, bool]:
    """Spectral radius of the delay-free network matrix and whether it is
    Schur stable (rho < 1).

    At every size, a homogeneous network (one diagonal block C, every
    coupling a multiple w_ij K of one block K, symmetric weights W) is
    solved in closed form by `_kronecker_radius`: its matrix is
    I (x) C + W (x) K, and the Schur form W = Q T Q^H makes it similar to the
    block-triangular I (x) C + T (x) K, so its spectrum is the union of
    spec(C + lambda K) over the eigenvalues lambda of W (Fax & Murray, IEEE
    TAC 2004; Massioni & Verhaegen, IEEE TAC 2009). That holds for
    disconnected graphs and isolated agents too (lambda = 0 gives spec(C)).
    A uniform path W (a chain numbered in order, such as the pendulum)
    has its lambda in closed form, and W = 0 (no coupling) has lambda = 0
    alone; any other symmetric W gives real lambda
    from `eigvalsh` of the dense N x N matrix. C + lambda K is one n x n
    eigensolve each.

    Every other model is split into the strongly connected components of
    the coupling graph; ordered by them the matrix is block triangular, so
    its spectrum is the union of the components' spectra. This gives
    feed-forward structure (chains, leader-follower networks, isolated
    agents), whose nilpotent or defective spectra give Krylov no dominant
    direction, to small exact eigensolves. A component above
    QR_CUTOFF rows runs `krylov_radius` on its block matrix-vector product
    (`_block_matrix`, no matrix formed) from a seeded start; a smaller one,
    or one on which Krylov gives up (many eigenvalues of top modulus, say),
    takes `linalg.dense_radius` of its dense block matrix.
    """
    rho = _kronecker_radius(model)
    if rho is not None:
        return rho, rho < 1.0
    rho = 0.0
    for agents in _strong_components(model):
        apply, dense = _block_matrix(model, agents)
        rows = len(agents) * model.n
        r = (krylov_radius(apply, np.random.default_rng(_START_SEED).standard_normal(rows))
             if rows > QR_CUTOFF else None)
        if r is None:
            r = dense_radius(rows, dense, f"nominal check: a {rows}-row component")
        rho = max(rho, r)
    return rho, rho < 1.0


# ---------------------------------------------------------------------------
# Benchmark generator: chain of spring-coupled inverted pendulums
# ---------------------------------------------------------------------------


def default_chain() -> DelayChain:
    """Two-state delay chain used by the pendulum benchmark: delays start at
    0 and persist with the transition matrix [[0.5, 0.5], [0.3, 0.7]]."""
    return DelayChain(P=[[0.5, 0.5], [0.3, 0.7]], pi0=[1.0, 0.0])


def build_pendulum_model(
    n_agents: int,
    params: PendulumParams | None = None,
    chain: DelayChain | None = None,
) -> DncsModel:
    """Chain of inverted pendulums coupled to nearest neighbors by springs,
    each stabilized by local state feedback.

    The discretized pendulum has state (angle, angular velocity). The local
    state feedback u_i = K_i x_i with K_i = [a_i*gain - (m l^2/4)(8 + 4g/l),
    -3 m l^2] cancels the open-loop gravity and spring-count terms exactly,
    placing the closed-loop poles at 1-dt and 1-2dt for every agent. The
    diagonal block is therefore built in its cancelled form [[1, dt],
    [-2dt, 1-3dt]]: agent grouping compares blocks bitwise, and evaluating
    A_i + B_i K_i per agent would leave ulp-level residue that differs
    between endpoint and interior agents. The spring coupling enters through
    the off-diagonal blocks to agents i-1 and i+1.
    """
    if n_agents < 2:
        raise ModelError("pendulum chain needs at least 2 agents")
    p = params if params is not None else PendulumParams()
    ch = chain if chain is not None else default_chain()

    ml2 = p.mass * p.length * p.length
    closed_loop = np.array([[1.0, p.dt], [-2.0 * p.dt, 1.0 - 3.0 * p.dt]])
    coupling_block = np.array([[0.0, 0.0], [p.coupling * p.gain * p.dt / ml2, 0.0]])

    blocks = {}
    coupled = p.coupling > 0  # coupling=0 decouples the chain: store no links
    for i in range(1, n_agents + 1):
        blocks[(i, i)] = closed_loop
        if coupled and i > 1:
            blocks[(i, i - 1)] = coupling_block
        if coupled and i < n_agents:
            blocks[(i, i + 1)] = coupling_block
    return DncsModel(n_agents=n_agents, n=2, tau_d=ch.q - 1, blocks=blocks, chain=ch)


# ---------------------------------------------------------------------------
# JSON ingestion / serialization
# ---------------------------------------------------------------------------


def _req(obj: dict, key: str, path: str):
    if key not in obj:
        raise ModelError(f"{path}: missing field '{key}'" if path else f"missing field '{key}'")
    return obj[key]


def _as_int(value, path: str, minimum: int) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ModelError(f"{path}: expected an integer")
    if value < minimum:
        raise ModelError(f"{path}: must be >= {minimum}")
    return value


def _as_number_list(value, count: int, path: str) -> list[float]:
    if not isinstance(value, list):
        raise ModelError(f"{path}: expected an array")
    if len(value) != count:
        raise ModelError(f"{path}: expected {count} numbers, got {len(value)}")
    out = []
    for idx, item in enumerate(value):
        if isinstance(item, bool) or not isinstance(item, (int, float)):
            raise ModelError(f"{path}[{idx}]: expected a number")
        if not math.isfinite(item):
            raise ModelError(f"{path}[{idx}]: non-finite value")
        out.append(float(item))
    return out


def load_model(text: str) -> DncsModel:
    """Parse and validate a JSON model document.

    Schema: {"N": int, "n": int, "tau_d": int,
             "blocks": [{"i": int, "j": int, "values": [n*n numbers]}],
             "chain": {"P": [[q*q numbers]], "pi0": [q numbers]}}
    with one-based agent indices and row-major block values. Errors carry the
    path of the offending field.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModelError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ModelError("top level: expected an object")

    n_agents = _as_int(_req(doc, "N", ""), "N", 1)
    n = _as_int(_req(doc, "n", ""), "n", 1)
    tau_d = _as_int(_req(doc, "tau_d", ""), "tau_d", 0)
    q = tau_d + 1

    raw_blocks = _req(doc, "blocks", "")
    if not isinstance(raw_blocks, list):
        raise ModelError("blocks: expected an array")
    blocks = {}
    for idx, entry in enumerate(raw_blocks):
        path = f"blocks[{idx}]"
        if not isinstance(entry, dict):
            raise ModelError(f"{path}: expected an object")
        i = _as_int(_req(entry, "i", path), f"{path}.i", 1)
        j = _as_int(_req(entry, "j", path), f"{path}.j", 1)
        if i > n_agents or j > n_agents:
            raise ModelError(f"{path}: agent pair ({i}, {j}) out of range (1..{n_agents})")
        if (i, j) in blocks:
            raise ModelError(f"{path}: duplicate block ({i}, {j})")
        values = _as_number_list(_req(entry, "values", path), n * n, f"{path}.values")
        mat = np.array(values).reshape(n, n)
        if i != j and not mat.any():
            raise ModelError(f"{path}: off-diagonal block ({i}, {j}) is zero; omit it instead")
        blocks[(i, j)] = mat

    raw_chain = _req(doc, "chain", "")
    if not isinstance(raw_chain, dict):
        raise ModelError("chain: expected an object")
    raw_p = _req(raw_chain, "P", "chain")
    if not isinstance(raw_p, list) or len(raw_p) != q:
        raise ModelError(f"chain.P: expected {q} rows")
    p_rows = [_as_number_list(row, q, f"chain.P[{r}]") for r, row in enumerate(raw_p)]
    for r, row in enumerate(p_rows):
        if any(not 0.0 <= v <= 1.0 for v in row):
            raise ModelError(f"chain.P[{r}]: probability out of [0, 1]")
        if abs(sum(row) - 1.0) > _STOCH_TOL:
            raise ModelError(f"chain.P[{r}]: row not stochastic (sums to {sum(row)!r})")
    pi0 = _as_number_list(_req(raw_chain, "pi0", "chain"), q, "chain.pi0")
    if any(not 0.0 <= v <= 1.0 for v in pi0):
        raise ModelError("chain.pi0: probability out of [0, 1]")
    if abs(sum(pi0) - 1.0) > _STOCH_TOL:
        raise ModelError(f"chain.pi0: sums to {sum(pi0)!r}, not 1")

    chain = DelayChain(P=p_rows, pi0=pi0)
    return DncsModel(n_agents=n_agents, n=n, tau_d=tau_d, blocks=blocks, chain=chain)


def dump_model(model: DncsModel) -> str:
    """Serialize a model to canonical JSON (blocks sorted by (i, j)).

    load_model(dump_model(m)) == m exactly; float values round-trip bit-for-bit.
    """
    doc = {
        "N": model.n_agents,
        "n": model.n,
        "tau_d": model.tau_d,
        "blocks": [
            {"i": i, "j": j, "values": [float(v) for v in model.blocks[(i, j)].ravel()]}
            for (i, j) in sorted(model.blocks)
        ],
        "chain": {
            "P": [[float(v) for v in row] for row in model.chain.P],
            "pi0": [float(v) for v in model.chain.pi0],
        },
    }
    return json.dumps(doc, indent=1)
