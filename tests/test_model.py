import json

import numpy as np
import pytest

from mjlstab.model import (
    DelayChain,
    DncsModel,
    ModelError,
    PendulumParams,
    build_global_matrix,
    build_pendulum_model,
    default_chain,
    dump_model,
    load_model,
    neighborhood,
    nominal_stability,
)
from mjlstab.linalg import QR_CUTOFF
from mjlstab.switched import enumerate_links


def two_agent_model(tau_d: int = 1) -> DncsModel:
    chain = DelayChain(P=np.eye(tau_d + 1), pi0=[1.0] + [0.0] * tau_d)
    blocks = {
        (1, 1): np.array([[0.5]]),
        (2, 2): np.array([[0.5]]),
        (1, 2): np.array([[0.1]]),
        (2, 1): np.array([[0.1]]),
    }
    return DncsModel(n_agents=2, n=1, tau_d=tau_d, blocks=blocks, chain=chain)


def static_model(n_agents: int, n: int, blocks: dict) -> DncsModel:
    chain = DelayChain(P=[[1.0]], pi0=[1.0])
    return DncsModel(n_agents=n_agents, n=n, tau_d=0, blocks=blocks, chain=chain)


def random_sparse_model(seed: int, n_agents: int, n: int, degree: float,
                        isolated: int = 0) -> DncsModel:
    """Seeded model whose links are drawn as random ordered pairs, so most are
    one-directional; `isolated` agents get no link at all."""
    rng = np.random.default_rng(seed)
    blocks = {(i, i): rng.uniform(-0.5, 0.5, (n, n)) for i in range(1, n_agents + 1)}
    lonely = set(rng.choice(np.arange(1, n_agents + 1), isolated, replace=False).tolist())
    for _ in range(int(degree * n_agents)):
        i, j = (int(a) for a in rng.integers(1, n_agents + 1, size=2))
        if i != j and i not in lonely and j not in lonely:
            blocks[(i, j)] = rng.uniform(0.05, 0.3, (n, n))
    return static_model(n_agents, n, blocks)


def diagonal_model(n_agents: int, value: float = 0.5) -> DncsModel:
    chain = DelayChain(P=[[1.0]], pi0=[1.0])
    blocks = {(i, i): np.array([[value]]) for i in range(1, n_agents + 1)}
    return DncsModel(n_agents=n_agents, n=1, tau_d=0, blocks=blocks, chain=chain)


# ---------------------------------------------------------------------------
# DelayChain
# ---------------------------------------------------------------------------


def test_delay_chain_q_counts_states():
    assert default_chain().q == 2
    assert DelayChain(P=[[1.0]], pi0=[1.0]).q == 1


def test_delay_chain_rejects_non_stochastic_rows():
    with pytest.raises(ValueError):
        DelayChain(P=[[0.5, 0.6], [0.3, 0.7]], pi0=[1.0, 0.0])


def test_delay_chain_rejects_entries_outside_unit_interval():
    with pytest.raises(ValueError):
        DelayChain(P=[[1.2, -0.2], [0.3, 0.7]], pi0=[1.0, 0.0])


def test_delay_chain_rejects_bad_pi0():
    with pytest.raises(ValueError):
        DelayChain(P=[[0.5, 0.5], [0.3, 0.7]], pi0=[0.7, 0.7])


@pytest.mark.parametrize(
    "p, pi0, message",
    [
        ([[0.5, 0.5]], [1.0], "chain.P: expected a square matrix, got shape (1, 2)"),
        (np.eye(2), [1.0, 0.0, 0.0], "chain.pi0: expected length 2, got shape (3,)"),
        (np.eye(2), [1.5, -0.5], "chain.pi0: entries must lie in [0, 1]"),
    ],
)
def test_delay_chain_names_the_malformed_field(p, pi0, message):
    with pytest.raises(ModelError) as info:
        DelayChain(P=p, pi0=pi0)
    assert str(info.value) == message


def test_default_chain_values():
    ch = default_chain()
    assert np.array_equal(ch.P, [[0.5, 0.5], [0.3, 0.7]])
    assert np.array_equal(ch.pi0, [1.0, 0.0])


# ---------------------------------------------------------------------------
# PendulumParams
# ---------------------------------------------------------------------------


def test_pendulum_params_defaults():
    p = PendulumParams()
    assert (p.gravity, p.gain, p.mass, p.length) == (9.8, 5.0, 0.5, 1.0)
    assert (p.dt, p.coupling, p.a_end, p.a_mid) == (0.1, 0.04, 1.0, 2.0)


def test_pendulum_params_reject_nonpositive():
    with pytest.raises(ValueError):
        PendulumParams(mass=0.0)
    with pytest.raises(ValueError):
        PendulumParams(dt=-0.1)
    # coupling may be zero (uncoupled pendulums), not negative
    PendulumParams(coupling=0.0)
    with pytest.raises(ValueError):
        PendulumParams(coupling=-0.01)


# ---------------------------------------------------------------------------
# DncsModel validation and helpers
# ---------------------------------------------------------------------------


def test_model_rejects_chain_not_matching_tau_d():
    with pytest.raises(ValueError):
        DncsModel(
            n_agents=1,
            n=1,
            tau_d=1,
            blocks={(1, 1): np.array([[0.5]])},
            chain=DelayChain(P=[[1.0]], pi0=[1.0]),
        )


def test_model_rejects_wrong_block_shape():
    with pytest.raises(ValueError):
        DncsModel(
            n_agents=1,
            n=2,
            tau_d=0,
            blocks={(1, 1): np.array([[0.5]])},
            chain=DelayChain(P=[[1.0]], pi0=[1.0]),
        )


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"n_agents": 2.0}, "N: expected integer >= 1"),
        ({"n_agents": 0}, "N: expected integer >= 1"),
        ({"n": "1"}, "n: expected integer >= 1"),
        ({"n": 0}, "n: expected integer >= 1"),
        ({"tau_d": 1.0}, "tau_d: expected integer >= 0"),
        ({"tau_d": -1}, "tau_d: expected integer >= 0"),
        ({"blocks": {(1, 1): [[0.5]], (2, 2): [[0.5]], (1, 3): [[0.1]]}},
         "blocks: agent pair (1, 3) out of range"),
        ({"blocks": {(1, 1): [[0.5]], (2, 2): [[0.5]], (1, 2): [[0.0]]}},
         "blocks: off-diagonal block (1, 2) is zero; omit it instead"),
    ],
)
def test_model_names_the_invalid_field(fields, message):
    base = two_agent_model()
    args = {"n_agents": 2, "n": 1, "tau_d": 1, "blocks": base.blocks, "chain": base.chain}
    with pytest.raises(ModelError) as info:
        DncsModel(**{**args, **fields})
    assert str(info.value) == message


def test_model_equality_is_exact():
    a = two_agent_model()
    b = two_agent_model()
    assert a == b
    d = DncsModel(
        n_agents=2,
        n=1,
        tau_d=1,
        blocks={
            (1, 1): np.array([[0.5]]),
            (2, 2): np.array([[0.5]]),
            (1, 2): np.array([[0.10000001]]),
            (2, 1): np.array([[0.1]]),
        },
        chain=DelayChain(P=np.eye(2), pi0=[1.0, 0.0]),
    )
    assert a != d


def test_blocks_are_frozen():
    model = two_agent_model()
    with pytest.raises(ValueError):
        model.blocks[(1, 1)][0, 0] = 2.0


def test_neighborhood_pendulum():
    model = build_pendulum_model(100)
    assert neighborhood(model, 50) == [49, 50, 51]
    assert neighborhood(model, 1) == [1, 2]
    assert neighborhood(model, 100) == [99, 100]


def test_neighborhood_diagonal_only():
    model = diagonal_model(4)
    for i in range(1, 5):
        assert neighborhood(model, i) == [i]


def _scan_neighborhood(model, i):
    nb = {i}
    for (a, b) in model.blocks:
        if a == i:
            nb.add(b)
        elif b == i:
            nb.add(a)
    return sorted(nb)


def _scan_links(model, i):
    nb = set(_scan_neighborhood(model, i))
    return sorted((a, b) for (a, b) in model.blocks if a != b and a in nb and b in nb)


@pytest.mark.parametrize("seed", range(4))
def test_adjacency_index_matches_block_scan(seed):
    built = random_sparse_model(seed, n_agents=40, n=2, degree=1.5, isolated=5)
    loaded = load_model(dump_model(built))
    for model in (built, loaded):
        assert enumerate_links(model) == sorted(k for k in model.blocks if k[0] != k[1])
        for i in range(1, model.n_agents + 1):
            assert neighborhood(model, i) == _scan_neighborhood(model, i)
            assert enumerate_links(model, i) == _scan_links(model, i)


def test_neighborhood_rejects_out_of_range():
    model = diagonal_model(3)
    with pytest.raises(ValueError):
        neighborhood(model, 0)
    with pytest.raises(ValueError):
        neighborhood(model, 4)


# ---------------------------------------------------------------------------
# Global matrix and nominal stability
# ---------------------------------------------------------------------------


def test_global_matrix_diagonal_model():
    model = diagonal_model(5)
    assert np.array_equal(build_global_matrix(model), 0.5 * np.eye(5))


def test_global_matrix_two_agent():
    assert np.array_equal(
        build_global_matrix(two_agent_model()), [[0.5, 0.1], [0.1, 0.5]]
    )


def test_global_matrix_pendulum_is_block_tridiagonal():
    model = build_pendulum_model(100)
    g = build_global_matrix(model)
    assert g.shape == (200, 200)
    for i in (1, 37, 99):
        bi = 2 * (i - 1)
        assert g[bi + 1, bi + 2] != 0.0  # coupling to the right neighbor
    # no block beyond the first off-diagonal
    assert not g[0:2, 4:].any()
    assert not g[4:6, 8:].any()


def test_global_matrix_linear_in_blocks():
    model = two_agent_model()
    scaled = DncsModel(
        n_agents=2,
        n=1,
        tau_d=1,
        blocks={
            (1, 1): np.array([[0.5]]),
            (2, 2): np.array([[0.5]]),
            (1, 2): np.array([[0.4]]),
            (2, 1): np.array([[0.1]]),
        },
        chain=DelayChain(P=np.eye(2), pi0=[1.0, 0.0]),
    )
    g0 = build_global_matrix(model)
    g1 = build_global_matrix(scaled)
    assert g1[0, 1] == 4.0 * g0[0, 1]
    g1[0, 1] = g0[0, 1]
    assert np.array_equal(g0, g1)


def test_nominal_stability_diagonal():
    rho, stable = nominal_stability(diagonal_model(4, 0.5))
    assert rho == pytest.approx(0.5, abs=1e-12)
    assert stable


def test_nominal_stability_two_agent_closed_form():
    # eigenvalues of [[0.5, 0.1], [0.1, 0.5]] are 0.4 and 0.6
    rho, stable = nominal_stability(two_agent_model())
    assert rho == pytest.approx(0.6, abs=1e-12)
    assert stable


def _charpoly_coeffs(a: np.ndarray) -> np.ndarray:
    """Characteristic polynomial by the Leverrier-Faddeev recursion."""
    n = a.shape[0]
    coeffs = [1.0]
    m = np.zeros_like(a)
    c = 1.0
    for k in range(1, n + 1):
        m = a @ m + c * np.eye(n)
        c = -np.trace(a @ m) / k
        coeffs.append(c)
    return np.array(coeffs)


def test_nominal_stability_matches_charpoly_oracle():
    rng = np.random.default_rng(17)
    for _ in range(12):
        n_agents = int(rng.integers(1, 3))
        n = int(rng.integers(1, 3))
        blocks = {}
        for i in range(1, n_agents + 1):
            blocks[(i, i)] = rng.uniform(-1, 1, size=(n, n))
        if n_agents == 2:
            blocks[(1, 2)] = rng.uniform(-1, 1, size=(n, n))
        chain = DelayChain(P=[[1.0]], pi0=[1.0])
        model = DncsModel(n_agents=n_agents, n=n, tau_d=0, blocks=blocks, chain=chain)
        rho, _ = nominal_stability(model)
        roots = np.roots(_charpoly_coeffs(build_global_matrix(model)))
        assert rho == pytest.approx(float(np.max(np.abs(roots))), rel=1e-8, abs=1e-10)


# ---------------------------------------------------------------------------
# Pendulum benchmark
# ---------------------------------------------------------------------------


def test_pendulum_closed_loop_matches_feedback_formulas():
    p = PendulumParams()
    ml2 = p.mass * p.length * p.length
    a_mat = np.array(
        [[1.0, p.dt], [(p.gravity / p.length - p.a_mid * p.gain / ml2) * p.dt, 1.0]]
    )
    b_vec = np.array([[0.0], [p.dt / ml2]])
    k_row = np.array(
        [[p.a_mid * p.gain - (ml2 / 4.0) * (8.0 + 4.0 * p.gravity / p.length), -3.0 * ml2]]
    )
    expected = a_mat + b_vec @ k_row
    model = build_pendulum_model(3)
    assert np.allclose(model.blocks[(2, 2)], expected, atol=1e-12)
    # same closed loop for the endpoint gain a_end: the feedback cancels it
    assert np.allclose(model.blocks[(1, 1)], expected, atol=1e-12)


def test_pendulum_closed_loop_poles():
    model = build_pendulum_model(2)
    eigs = sorted(np.abs(np.linalg.eigvals(model.blocks[(1, 1)])))
    assert eigs[0] == pytest.approx(0.8, abs=1e-12)
    assert eigs[1] == pytest.approx(0.9, abs=1e-12)


def test_pendulum_coupling_block_value():
    model = build_pendulum_model(2)
    # coupling * gain * dt / (m l^2) = 0.04 * 5 * 0.1 / 0.5
    assert np.allclose(model.blocks[(1, 2)], [[0.0, 0.0], [0.04, 0.0]], atol=1e-15)


def test_pendulum_relabeling_symmetry():
    n_agents = 7
    model = build_pendulum_model(n_agents)
    for (i, j), block in model.blocks.items():
        mirrored = model.blocks[(n_agents + 1 - i, n_agents + 1 - j)]
        assert np.array_equal(block, mirrored)


def test_pendulum_rejects_single_agent():
    with pytest.raises(ModelError):
        build_pendulum_model(1)


def test_pendulum_nominal_rho():
    rho, stable = nominal_stability(build_pendulum_model(100))
    assert rho == pytest.approx(0.9525, abs=1e-3)
    assert stable


def _dense_rho(model) -> float:
    return float(np.max(np.abs(np.linalg.eigvals(build_global_matrix(model)))))


@pytest.mark.parametrize("n_agents", [300, 1000])
def test_pendulum_nominal_rho_matches_dense_eig(n_agents):
    model = build_pendulum_model(n_agents)
    rho, _ = nominal_stability(model)
    assert abs(rho - _dense_rho(model)) <= 1e-9


def _rotation(radius, theta):
    return radius * np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])


# 260 agents of dimension 2: 520 rows, just above the dense cutoff. Each
# model has a spectrum that Arnoldi cannot resolve on its own, or a
# dominant complex pair.
_N, _EYE, _ZERO = 260, np.eye(2), np.zeros((2, 2))
_AGENTS = range(1, _N + 1)
DEGENERATE = {
    "zero": {(i, i): _ZERO for i in _AGENTS},
    "shift_chain": {**{(i, i): _ZERO for i in _AGENTS},
                    **{(i, i - 1): _EYE for i in _AGENTS if i > 1}},
    "leader_follower": {**{(i, i): 0.9 * _EYE for i in _AGENTS},
                        **{(i, i - 1): 0.1 * _EYE for i in _AGENTS if i > 1}},
    "shift_ring": {**{(i, i): _ZERO for i in _AGENTS},
                   **{(i, (i - 2) % _N + 1): _EYE for i in _AGENTS}},
    "rotation_ring": {**{(i, i): _rotation(0.9 if i == 1 else 0.5, 0.3 + 0.01 * i)
                         for i in _AGENTS},
                      **{(i, (i - 2) % _N + 1): 0.01 * _EYE for i in _AGENTS}},
}


@pytest.mark.parametrize("name", sorted(DEGENERATE))
def test_nominal_degenerate_models_match_dense_eig(name):
    model = static_model(_N, 2, DEGENERATE[name])
    assert model.n_agents * model.n > QR_CUTOFF
    rho, stable = nominal_stability(model)
    assert rho == pytest.approx(_dense_rho(model), abs=1e-12)
    assert stable == (rho < 1.0)


@pytest.fixture
def krylov_answers(monkeypatch):
    """What each `krylov_radius` call of the nominal check returned (None
    for a stall), in call order."""
    import mjlstab.model as model_module

    answers = []

    def spy(apply, start, _real=model_module.krylov_radius):
        answers.append(_real(apply, start))
        return answers[-1]
    monkeypatch.setattr(model_module, "krylov_radius", spy)
    return answers


@pytest.mark.parametrize("seed,degree", [(0, 1.0), (1, 5.0), (2, 5.0)])
def test_nominal_random_sparse_models_match_dense_eig(seed, degree, krylov_answers):
    # degree 1 leaves only components of one or two agents; degree 5 gives
    # one strongly connected component of more than 512 rows, which Krylov
    # settles by itself
    model = random_sparse_model(seed, n_agents=300, n=2, degree=degree, isolated=10)
    rho, _ = nominal_stability(model)
    assert rho == pytest.approx(_dense_rho(model), abs=1e-12)
    assert krylov_answers == ([] if degree == 1.0 else [rho])


def symmetric_weighted_model(seed: int, n_agents: int, n: int, isolated: int,
                             uniform: bool = False) -> DncsModel:
    """Seeded homogeneous model: one diagonal block C and couplings w_ij * K
    on random undirected pairs, w_ij = w_ji; `isolated` agents get no link.
    The weights are signed powers of two, so every block is an exact
    multiple of every other and the weights read back exactly whichever
    block serves as K; with `uniform` they are drawn from [-0.3, 0.3] and
    read back only to within a few ulps."""
    rng = np.random.default_rng(seed)
    c = rng.uniform(-0.5, 0.5, (n, n))
    k = rng.uniform(-0.5, 0.5, (n, n))
    blocks = {(i, i): c for i in range(1, n_agents + 1)}
    lonely = set(rng.choice(np.arange(1, n_agents + 1), isolated, replace=False).tolist())
    for _ in range(2 * n_agents):
        i, j = (int(a) for a in rng.integers(1, n_agents + 1, size=2))
        if i != j and i not in lonely and j not in lonely:
            w = (rng.uniform(-0.3, 0.3) if uniform
                 else rng.choice([-1.0, 1.0]) * 2.0 ** -int(rng.integers(0, 4)))
            blocks[(i, j)] = blocks[(j, i)] = w * k
    return static_model(n_agents, n, blocks)


def path_model(n: int, weights, order=None, seed: int = 5) -> DncsModel:
    """Seeded homogeneous chain: one diagonal block C and couplings
    w_k * K both ways between its k-th and (k+1)-th agents, which are agents
    k and k + 1 unless `order` lists them."""
    rng = np.random.default_rng(seed)
    c = rng.uniform(-0.5, 0.5, (n, n))
    k = rng.uniform(-0.5, 0.5, (n, n))
    n_agents = len(weights) + 1
    order = list(order) if order is not None else list(range(1, n_agents + 1))
    blocks = {(i, i): c for i in order}
    for a, b, w in zip(order, order[1:], weights):
        blocks[(a, b)] = blocks[(b, a)] = w * k
    return static_model(n_agents, n, blocks)


def _unequal_path() -> DncsModel:
    weights = [0.37] * 299
    weights[150] = -0.21
    return path_model(3, weights)


@pytest.fixture
def general_path_calls(monkeypatch):
    """Names of the general nominal path's solvers, appended on each call."""
    import mjlstab.model as model_module

    calls = []
    for name in ("_strong_components", "krylov_radius", "dense_radius"):
        def spy(*args, _real=getattr(model_module, name), _name=name):
            calls.append(_name)
            return _real(*args)
        monkeypatch.setattr(model_module, name, spy)
    return calls


KRONECKER = {
    "weighted_n2": lambda: symmetric_weighted_model(0, 300, 2, isolated=10),
    "weighted_n3": lambda: symmetric_weighted_model(1, 300, 3, isolated=10),
    "uniform_n2": lambda: symmetric_weighted_model(2, 300, 2, isolated=10, uniform=True),
    "uniform_n3": lambda: symmetric_weighted_model(3, 300, 3, isolated=10, uniform=True),
    "pendulum": lambda: build_pendulum_model(300),
    "pendulum_uncoupled": lambda: build_pendulum_model(300, params=PendulumParams(coupling=0.0)),
    "path_uniform_n3": lambda: path_model(3, [0.37] * 299),
    "path_unequal_n3": _unequal_path,
}


@pytest.mark.parametrize("name", sorted(KRONECKER))
def test_homogeneous_nominal_takes_kronecker_path(name, general_path_calls):
    model = KRONECKER[name]()
    assert model.n_agents * model.n > QR_CUTOFF
    rho, stable = nominal_stability(model)
    assert general_path_calls == []
    assert rho == pytest.approx(_dense_rho(model), abs=1e-9)
    assert stable == (rho < 1.0)


SMALL_HOMOGENEOUS = {
    "pendulum": lambda: build_pendulum_model(4),
    "single": lambda: static_model(1, 2, {(1, 1): _rotation(0.9, 0.3)}),
    "pair": two_agent_model,
    "disconnected": lambda: symmetric_weighted_model(4, 12, 2, isolated=3, uniform=True),
    "uncoupled": lambda: build_pendulum_model(4, params=PendulumParams(coupling=0.0)),
    "chain_2": lambda: build_pendulum_model(2),
    "chain_3": lambda: path_model(3, [-0.7, -0.7]),
}


@pytest.mark.parametrize("name", sorted(SMALL_HOMOGENEOUS))
def test_small_homogeneous_nominal_takes_closed_form(name, general_path_calls):
    model = SMALL_HOMOGENEOUS[name]()
    assert model.n_agents * model.n <= QR_CUTOFF
    rho, stable = nominal_stability(model)
    assert general_path_calls == []
    assert rho == pytest.approx(_dense_rho(model), abs=1e-12)
    assert stable == (rho < 1.0)


def test_small_heterogeneous_nominal_goes_through_spectral_radius(general_path_calls):
    from mjlstab.model import _kronecker_radius

    model = random_sparse_model(3, n_agents=4, n=2, degree=2.0)
    assert _kronecker_radius(model) is None
    rho, _ = nominal_stability(model)
    # two strong components, {1, 2, 4} and {3}, each below the cutoff
    assert general_path_calls == ["_strong_components", "dense_radius", "dense_radius"]
    assert rho == pytest.approx(_dense_rho(model), abs=1e-12)


def _with_block(model: DncsModel, key, block) -> DncsModel:
    return static_model(model.n_agents, model.n, {**model.blocks, key: block})


def _pendulum_diagonal_ulp(n_agents: int = 300) -> DncsModel:
    pend = build_pendulum_model(n_agents)
    blk = pend.blocks[(7, 7)].copy()
    blk[1, 1] = np.nextafter(blk[1, 1], np.inf)
    return _with_block(pend, (7, 7), blk)


def _pendulum_coupling_not_multiple() -> DncsModel:
    pend = build_pendulum_model(300)
    blk = pend.blocks[(8, 7)].copy()
    blk[0, 1] = 1e-3 * blk[1, 0]
    return _with_block(pend, (8, 7), blk)


def _weighted_coupling_beyond_tolerance() -> DncsModel:
    """One coupling pair of a weighted model moved by twice the closed
    form's tolerance, 8 eps |w_ij| max|K|, at an entry other than K's
    largest (the entry its weight is read at)."""
    model = symmetric_weighted_model(0, 300, 2, isolated=10)
    off = [key for key in model.blocks if key[0] != key[1]]
    k = model.blocks[off[0]]
    at = np.unravel_index(np.argmax(np.abs(k)), k.shape)
    i, j = off[-1]
    blk = model.blocks[(i, j)].copy()
    weight = blk[at] / k[at]
    blk[1 - at[0], at[1]] += 8 * np.finfo(float).eps * abs(weight * k[at])
    return static_model(model.n_agents, 2, {**model.blocks, (i, j): blk, (j, i): blk})


GENERAL = {
    "diagonal_ulp": _pendulum_diagonal_ulp,
    "coupling_not_multiple": _pendulum_coupling_not_multiple,
    "coupling_beyond_tolerance": _weighted_coupling_beyond_tolerance,
    # exactly one diagonal block and one K, but W is not symmetric
    "shift_ring": lambda: static_model(_N, 2, DEGENERATE["shift_ring"]),
    "leader_follower": lambda: static_model(_N, 2, DEGENERATE["leader_follower"]),
}


@pytest.mark.parametrize("name", sorted(GENERAL))
def test_inhomogeneous_nominal_takes_general_path(name, general_path_calls, krylov_answers):
    model = GENERAL[name]()
    rho, _ = nominal_stability(model)
    assert "_strong_components" in general_path_calls
    assert rho == pytest.approx(_dense_rho(model), abs=1e-12)
    # Krylov settles every large component but the shift ring's, whose
    # eigenvalues all lie on the unit circle; the leader-follower chain
    # splits into single agents
    settled = {"shift_ring": [None], "leader_follower": []}.get(name, [rho])
    assert krylov_answers == settled


def test_clustered_chain_is_settled_by_krylov(krylov_answers):
    # the pendulum chain's top eigenvalues crowd together as it grows: at
    # 1000 pendulums Krylov needs thousands of products, as ARPACK did, and
    # must not give up before. One ulp moves the closed-form radius of the
    # unperturbed chain by far less than the tolerance.
    rho, _ = nominal_stability(_pendulum_diagonal_ulp(1000))
    assert krylov_answers == [rho]
    assert rho == pytest.approx(nominal_stability(build_pendulum_model(1000))[0], abs=1e-12)


def test_kronecker_path_respects_state_byte_cap(monkeypatch, general_path_calls):
    from mjlstab import linalg

    model = symmetric_weighted_model(0, 300, 2, isolated=10)
    need = 2 * model.n_agents ** 2 * 8  # W and the copy eigvalsh makes of it
    monkeypatch.setattr(linalg, "BYTE_CAP", need - 1)
    rho, _ = nominal_stability(model)
    # isolated agents and small components take the dense eigensolve, the
    # large component Krylov
    assert general_path_calls[0] == "_strong_components"
    assert set(general_path_calls[1:]) == {"dense_radius", "krylov_radius"}
    assert rho == pytest.approx(_dense_rho(model), abs=1e-12)
    general_path_calls.clear()
    monkeypatch.setattr(linalg, "BYTE_CAP", need)
    nominal_stability(model)
    assert general_path_calls == []


def test_nominal_dense_fallback_respects_byte_cap(monkeypatch):
    import mjlstab.model as model_module
    from mjlstab import linalg

    # a directed ring of 4 agents: one strongly connected 8-row component,
    # taken past the dense cutoff to Krylov, which stalls here
    model = static_model(4, 2, {**{(i, i): _rotation(0.5, 0.1 * i) for i in range(1, 5)},
                                **{(i, i % 4 + 1): 0.1 * _EYE for i in range(1, 5)}})
    monkeypatch.setattr(model_module, "QR_CUTOFF", 2)
    monkeypatch.setattr(model_module, "krylov_radius", lambda apply, start: None)
    need = 2 * 8 * 8 ** 2  # the dense matrix and the eigensolver's copy
    monkeypatch.setattr(linalg, "BYTE_CAP", need - 1)
    with pytest.raises(linalg.SizeLimitError) as info:
        nominal_stability(model)
    for part in ("8-row component", f"{need} bytes", f"cap {need - 1}"):
        assert part in str(info.value)
    monkeypatch.setattr(linalg, "BYTE_CAP", need)
    rho, _ = nominal_stability(model)
    assert rho == pytest.approx(_dense_rho(model), abs=1e-12)


def _scipy_components(model: DncsModel) -> list[list[int]]:
    """Strongly connected components by scipy's csgraph, the oracle of
    `_strong_components`: sorted agent lists, ordered by their first agent."""
    from scipy.sparse import csr_array
    from scipy.sparse.csgraph import connected_components

    rows, cols = np.array(list(model.blocks)).T - 1
    graph = csr_array((np.ones(rows.size), (rows, cols)), shape=(model.n_agents,) * 2)
    _, labels = connected_components(graph, directed=True, connection="strong")
    order = np.argsort(labels, kind="stable")
    parts = np.split(order, np.cumsum(np.bincount(labels))[:-1])
    return sorted((part + 1).tolist() for part in parts)


def random_digraph_model(seed: int, n_agents: int) -> DncsModel:
    """Seeded scalar model on a random directed graph: one-way links between
    random ordered pairs, some two-way pairs (2-cycles), and a tenth of the
    agents with no link at all, only their diagonal block."""
    rng = np.random.default_rng(seed)
    blocks = {(i, i): np.array([[0.5]]) for i in range(1, n_agents + 1)}
    lonely = set(rng.choice(np.arange(1, n_agents + 1), n_agents // 10, replace=False).tolist())
    for k in range(n_agents + n_agents // 10):
        i, j = (int(a) for a in rng.integers(1, n_agents + 1, size=2))
        if i != j and i not in lonely and j not in lonely:
            blocks[(i, j)] = np.array([[0.1]])
            if k >= n_agents:
                blocks[(j, i)] = np.array([[0.1]])
    return static_model(n_agents, 1, blocks)


@pytest.mark.parametrize("seed", range(12))
def test_strong_components_match_scipy(seed):
    from mjlstab.model import _strong_components

    model = random_digraph_model(seed, n_agents=20 + 15 * seed)
    found = _strong_components(model)
    assert found == _scipy_components(model)
    sizes = [len(part) for part in found]
    assert 1 in sizes and max(sizes) > 1


_LONG = 20_000
LONG_GRAPHS = {
    # an edge j -> i per stored (i, j): the search follows each agent to its
    # senders, so the first path is one walk 20,000 agents deep
    "path_to_first": {(i, i + 1): [[1.0]] for i in range(1, _LONG)},
    "path_to_last": {(i + 1, i): [[1.0]] for i in range(1, _LONG)},
    "ring": {(i, i % _LONG + 1): [[1.0]] for i in range(1, _LONG + 1)},
}


@pytest.mark.parametrize("name", sorted(LONG_GRAPHS))
def test_strong_components_of_long_graphs_do_not_recurse(name):
    from mjlstab.model import _strong_components

    blocks = {**{(i, i): [[0.5]] for i in range(1, _LONG + 1)}, **LONG_GRAPHS[name]}
    model = static_model(_LONG, 1, blocks)
    found = _strong_components(model)
    assert found == _scipy_components(model)
    assert len(found) == (1 if name == "ring" else _LONG)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_block_matrix_matches_global_matrix(n):
    from mjlstab.model import _block_matrix, _strong_components

    model = random_sparse_model(n, n_agents=60, n=n, degree=2.0, isolated=5)
    full = build_global_matrix(model)
    x = np.random.default_rng(n).standard_normal(full.shape[0])
    for agents in [list(range(1, 61)), *_strong_components(model)]:
        rows = np.concatenate([np.arange((a - 1) * n, a * n) for a in agents])
        sub = full[np.ix_(rows, rows)]
        apply, dense = _block_matrix(model, agents)
        assert np.array_equal(dense(), sub)
        assert np.allclose(apply(x[rows]), sub @ x[rows], rtol=0, atol=1e-15)


@pytest.fixture
def eigvalsh_calls(monkeypatch):
    """Sizes of the matrices passed to np.linalg.eigvalsh, one per call."""
    calls = []

    def spy(a, *args, _real=np.linalg.eigvalsh, **kwargs):
        calls.append(len(a))
        return _real(a, *args, **kwargs)
    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    return calls


CHAINS = {
    "pendulum": lambda: build_pendulum_model(300),
    "path_uniform_n3": KRONECKER["path_uniform_n3"],
    "chain_3": SMALL_HOMOGENEOUS["chain_3"],
    # no coupling at all: W = 0, whose one eigenvalue is 0
    "pendulum_uncoupled": lambda: build_pendulum_model(
        300, params=PendulumParams(coupling=0.0)),
    "single": SMALL_HOMOGENEOUS["single"],
    "uncoupled": SMALL_HOMOGENEOUS["uncoupled"],
}


@pytest.mark.parametrize("name", sorted(CHAINS))
def test_uniform_chain_needs_no_weight_matrix(name, monkeypatch, eigvalsh_calls,
                                              general_path_calls):
    # the eigenvalues of a uniform path, or of no coupling, are closed form,
    # so no N x N array is built: a cap below one such array changes nothing
    from mjlstab import linalg

    model = CHAINS[name]()
    rho, _ = nominal_stability(model)
    monkeypatch.setattr(linalg, "BYTE_CAP", model.n_agents ** 2 * 8 - 1)
    assert nominal_stability(model)[0] == rho
    assert eigvalsh_calls == []
    assert general_path_calls == []


NON_PATHS = {
    "path_unequal_n3": _unequal_path,
    # the uniform chain with its agents numbered out of chain order
    "path_shuffled": lambda: path_model(
        2, [0.37] * 299, order=np.random.default_rng(6).permutation(300) + 1),
}


@pytest.mark.parametrize("name", sorted(NON_PATHS))
def test_other_weights_take_eigvalsh(name, eigvalsh_calls, general_path_calls):
    model = NON_PATHS[name]()
    rho, _ = nominal_stability(model)
    assert eigvalsh_calls == [model.n_agents]
    assert general_path_calls == []
    assert rho == pytest.approx(_dense_rho(model), abs=1e-9)


def test_pendulum_param_overrides_shape_coupling():
    strong = build_pendulum_model(3, params=PendulumParams(coupling=0.08))
    weak = build_pendulum_model(3)
    assert strong.blocks[(1, 2)][1, 0] == pytest.approx(
        2.0 * weak.blocks[(1, 2)][1, 0], rel=1e-12
    )


# ---------------------------------------------------------------------------
# JSON load / dump
# ---------------------------------------------------------------------------


MINIMAL_DOC = {
    "N": 2,
    "n": 1,
    "tau_d": 1,
    "blocks": [
        {"i": 1, "j": 1, "values": [0.5]},
        {"i": 2, "j": 2, "values": [0.5]},
        {"i": 1, "j": 2, "values": [0.1]},
        {"i": 2, "j": 1, "values": [0.1]},
    ],
    "chain": {"P": [[0.5, 0.5], [0.3, 0.7]], "pi0": [1.0, 0.0]},
}


def test_load_model_minimal_document():
    model = load_model(json.dumps(MINIMAL_DOC))
    assert model.n_agents == 2
    assert model.n == 1
    assert model.tau_d == 1
    assert np.array_equal(build_global_matrix(model), [[0.5, 0.1], [0.1, 0.5]])


def test_load_model_reports_non_stochastic_row_with_path():
    doc = json.loads(json.dumps(MINIMAL_DOC))
    doc["chain"]["P"][0] = [0.5, 0.6]
    with pytest.raises(ModelError, match=r"chain\.P\[0\].*not stochastic"):
        load_model(json.dumps(doc))


def test_load_model_reports_missing_diagonal():
    doc = json.loads(json.dumps(MINIMAL_DOC))
    doc["blocks"] = [b for b in doc["blocks"] if (b["i"], b["j"]) != (2, 2)]
    with pytest.raises(ModelError, match="missing diagonal block for agent 2"):
        load_model(json.dumps(doc))


def test_load_model_reports_duplicate_block():
    doc = json.loads(json.dumps(MINIMAL_DOC))
    doc["blocks"].append({"i": 1, "j": 2, "values": [0.2]})
    with pytest.raises(ModelError, match=r"blocks\[4\].*duplicate"):
        load_model(json.dumps(doc))


def test_load_model_rejects_zero_off_diagonal():
    doc = json.loads(json.dumps(MINIMAL_DOC))
    doc["blocks"][2]["values"] = [0.0]
    with pytest.raises(ModelError, match="is zero; omit it"):
        load_model(json.dumps(doc))


def test_load_model_rejects_out_of_range_agent():
    doc = json.loads(json.dumps(MINIMAL_DOC))
    doc["blocks"][2]["i"] = 3
    with pytest.raises(ModelError, match=r"blocks\[2\].*out of range"):
        load_model(json.dumps(doc))


def test_load_model_rejects_wrong_value_count():
    doc = json.loads(json.dumps(MINIMAL_DOC))
    doc["blocks"][0]["values"] = [0.5, 0.5]
    with pytest.raises(ModelError, match=r"blocks\[0\]\.values"):
        load_model(json.dumps(doc))


def test_load_model_rejects_invalid_json_and_non_object():
    with pytest.raises(ModelError, match="invalid JSON"):
        load_model("{not json")
    with pytest.raises(ModelError, match="expected an object"):
        load_model("[1, 2]")


_DROP = object()


def edited_doc(path, value):
    """MINIMAL_DOC as JSON with the field at `path` (keys and indices) set
    to `value`, or removed when `value` is _DROP."""
    doc = json.loads(json.dumps(MINIMAL_DOC))
    *parents, last = path
    target = doc
    for key in parents:
        target = target[key]
    if value is _DROP:
        del target[last]
    else:
        target[last] = value
    return json.dumps(doc)


@pytest.mark.parametrize(
    "path, value, message",
    [
        (("N",), _DROP, "missing field 'N'"),
        (("blocks", 0, "values"), _DROP, "blocks[0]: missing field 'values'"),
        (("chain", "pi0"), _DROP, "chain: missing field 'pi0'"),
        (("N",), 2.0, "N: expected an integer"),
        (("blocks", 1, "j"), True, "blocks[1].j: expected an integer"),
        (("n",), 0, "n: must be >= 1"),
        (("tau_d",), -1, "tau_d: must be >= 0"),
        (("blocks", 0, "values"), 0.5, "blocks[0].values: expected an array"),
        (("blocks", 0, "values"), ["0.5"], "blocks[0].values[0]: expected a number"),
        (("blocks", 0, "values"), [float("inf")], "blocks[0].values[0]: non-finite value"),
        (("chain", "pi0"), [1.0, float("nan")], "chain.pi0[1]: non-finite value"),
        (("blocks",), {"i": 1}, "blocks: expected an array"),
        (("blocks", 1), [2, 2, 0.5], "blocks[1]: expected an object"),
        (("chain",), [[1.0]], "chain: expected an object"),
        (("chain", "P"), [[0.5, 0.5]], "chain.P: expected 2 rows"),
        (("chain", "P", 0), [1.5, -0.5], "chain.P[0]: probability out of [0, 1]"),
        (("chain", "pi0"), [1.5, -0.5], "chain.pi0: probability out of [0, 1]"),
        (("chain", "pi0"), [0.5, 0.25], "chain.pi0: sums to 0.75, not 1"),
    ],
)
def test_load_model_names_the_invalid_field(path, value, message):
    with pytest.raises(ModelError) as info:
        load_model(edited_doc(path, value))
    assert str(info.value) == message


def test_load_model_reports_a_bad_chain_before_a_missing_diagonal():
    # the chain is read with the document; the diagonal is the model's check
    doc = json.loads(edited_doc(("chain", "pi0"), [0.5, 0.25]))
    doc["blocks"] = [b for b in doc["blocks"] if (b["i"], b["j"]) != (2, 2)]
    with pytest.raises(ModelError, match="^chain.pi0: sums to"):
        load_model(json.dumps(doc))


def test_dump_load_round_trip_is_exact():
    model = build_pendulum_model(100)
    again = load_model(dump_model(model))
    assert model == again


def test_dump_model_is_deterministic():
    model = build_pendulum_model(5)
    assert dump_model(model) == dump_model(build_pendulum_model(5))
