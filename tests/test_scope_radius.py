"""The matrix-free spectral test of scopes: restarted Arnoldi
(`linalg.krylov_radius`) ranked by real part on the second-moment operator,
or on its power at each period of the joint chain's cycles, from the stacked
identities at every size and with no dense route, the byte cap on solver
state, and one build and solve per exact local structure in the reduced
test. Dense eig of the test matrix, scipy's ARPACK on the operator, the
covariance recursion and the cycle products of permutation chains are the
oracles."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.sparse.linalg import LinearOperator, eigs

from mjlstab import linalg, stability
from mjlstab.cli import main
from mjlstab.linalg import KRYLOV_STEPS, QR_CUTOFF, SizeLimitError, kron_power
from mjlstab.model import DelayChain, DncsModel, build_pendulum_model
from mjlstab.stability import (
    _local_structure,
    _scope_result,
    chain_periods,
    covariance_init,
    covariance_step,
    covariance_trace,
    mss_matrix,
    mss_test_family,
    mss_test_full,
    mss_test_reduced,
    scope_radius,
    second_moment_map,
    verdict,
)
from mjlstab.switched import ModeFamily, build_mode_family


def dense_rho(fam):
    return float(np.abs(np.linalg.eigvals(mss_matrix(fam).matrix)).max())


def arpack_rho(fam):
    """Largest-modulus eigenvalue of the operator from ARPACK, seeded."""
    m, d = fam.mode_count, fam.state_dim
    dim = m * d * d
    op = LinearOperator(
        (dim, dim),
        matvec=lambda v: second_moment_map(fam, v.reshape(m, d, d)).ravel(),
        dtype=float,
    )
    v0 = np.random.default_rng(0).standard_normal(dim)
    vals = eigs(op, k=1, which="LM", v0=v0, ncv=40, tol=0.0, return_eigenvectors=False)
    return float(np.abs(vals).max())


def covariance_growth(fam, steps):
    """Growth of the total second moment over the last step of the exact
    recursion: it tends to rho when the chain is aperiodic."""
    state = covariance_init(fam)
    for _ in range(steps):
        state = covariance_step(fam, state)
    before = covariance_trace(state)
    return covariance_trace(covariance_step(fam, state)) / before


def interior_family():
    return build_mode_family(build_pendulum_model(16), scope=2)


def endpoint_family():
    return build_mode_family(build_pendulum_model(16), scope=1)


def ladder_model(seed):
    """Two 4-rings of scalar agents joined by rungs: each neighborhood holds
    6 internal links, so every scope has 64 modes and 4096 rows."""
    rng = np.random.default_rng(seed)
    edges = [(1 + k, 1 + (k + 1) % 4) for k in range(4)]
    edges += [(5 + k, 5 + (k + 1) % 4) for k in range(4)]
    edges += [(1 + k, 5 + k) for k in range(4)]
    blocks = {(i, i): rng.uniform(0.4, 0.65, size=(1, 1)) for i in range(1, 9)}
    for a, b in edges:
        blocks[(a, b)] = rng.uniform(0.05, 0.1, size=(1, 1))
        blocks[(b, a)] = rng.uniform(0.05, 0.1, size=(1, 1))
    chain = DelayChain(P=[[0.6, 0.4], [0.3, 0.7]], pi0=[1.0, 0.0])
    return DncsModel(n_agents=8, n=1, tau_d=1, blocks=blocks, chain=chain)


def jittered_pendulum_model(n_agents=1000, seed=0):
    """The pendulum chain with each diagonal block scaled by
    1 + 0.01 U(-1, 1): every agent has its own local structure."""
    base = build_pendulum_model(n_agents)
    scale = 1.0 + 0.01 * np.random.default_rng(seed).uniform(-1.0, 1.0, n_agents)
    blocks = dict(base.blocks)
    for i in range(1, n_agents + 1):
        blocks[(i, i)] = base.blocks[(i, i)] * scale[i - 1]
    return replace(base, blocks=blocks)


def contractive_family(rng, m, d):
    w = rng.standard_normal((m, d, d))
    w *= (np.sqrt(rng.uniform(0.2, 0.9, size=m)) / np.abs(w).sum(axis=2).max(axis=1))[:, None, None]
    return ModeFamily.from_matrices(w, rng.dirichlet(np.ones(m), size=m))


def tau2_pendulum_model(n_agents=8):
    dt, coupling, gain, ml2 = 0.1, 0.04, 5.0, 0.5
    diag = np.array([[1.0, dt], [-2.0 * dt, 1.0 - 3.0 * dt]])
    link = np.array([[0.0, 0.0], [coupling * gain * dt / ml2, 0.0]])
    blocks = {(i, i): diag for i in range(1, n_agents + 1)}
    for i in range(1, n_agents):
        blocks[(i, i + 1)] = link
        blocks[(i + 1, i)] = link
    chain = DelayChain(P=[[0.5, 0.3, 0.2], [0.3, 0.5, 0.2], [0.2, 0.3, 0.5]],
                       pi0=[1.0, 0.0, 0.0])
    return DncsModel(n_agents=n_agents, n=2, tau_d=2, blocks=blocks, chain=chain)


def rotation_grid_model(side=5, theta=0.8, radius=0.6, coupling=0.05):
    diag = radius * np.array([[math.cos(theta), -math.sin(theta)],
                              [math.sin(theta), math.cos(theta)]])
    blocks = {}
    for r in range(side):
        for c in range(side):
            i = r * side + c + 1
            blocks[(i, i)] = diag
            for dr, dc in ((-1, 0), (1, 0), (0, -1), (0, 1)):
                if 0 <= r + dr < side and 0 <= c + dc < side:
                    blocks[(i, (r + dr) * side + c + dc + 1)] = coupling * np.eye(2)
    chain = DelayChain(P=[[0.5, 0.5], [0.3, 0.7]], pi0=[1.0, 0.0])
    return DncsModel(n_agents=side * side, n=2, tau_d=1, blocks=blocks, chain=chain)


# ---------------------------------------------------------------------------
# Periodic chains
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("chain", ["cyclic", "link_flip"])
def test_deterministic_chain_matches_dense_eig(chain):
    # a power iteration on these never settles: the joint chain is periodic.
    # The link flip's top moduli lie within 2e-6 of one another; the thick
    # restart keeps them all and settles the radius without the dense matrix
    base = interior_family()
    p = (np.roll(np.eye(16), 1, axis=1) if chain == "cyclic"
         else kron_power([[0.0, 1.0], [1.0, 0.0]], 4))
    fam = ModeFamily.from_matrices(base.matrices, p)
    scope = mss_test_family(fam).scopes[0]
    assert scope.rho == pytest.approx(dense_rho(fam), abs=1e-12)


def round_robin_model(tau_d, n_agents=6):
    """The pendulum chain under round-robin delays: each link's delay runs
    0, 1, ..., tau_d, 0 deterministically, as under a TDMA schedule."""
    q = tau_d + 1
    chain = DelayChain(P=np.roll(np.eye(q), 1, axis=1), pi0=np.eye(q)[0])
    return build_pendulum_model(n_agents, chain=chain)


def cycle_product_rho(fam):
    """Exact radius for a permutation chain: over each cycle of modes,
    L^length maps Q to M Q M^T with M the product of the cycle's modes, so
    rho(L) is the largest rho(M)^(2/length)."""
    successor = fam.joint_P.argmax(axis=1)
    assert np.array_equal(fam.joint_P, np.eye(fam.mode_count)[successor])
    seen, best = np.zeros(fam.mode_count, dtype=bool), 0.0
    for mode in range(fam.mode_count):
        product, length = np.eye(fam.state_dim), 0
        while not seen[mode]:
            seen[mode] = True
            product, mode, length = fam.matrices[mode] @ product, successor[mode], length + 1
        if length:
            best = max(best, np.abs(np.linalg.eigvals(product)).max() ** (2 / length))
    return best


@pytest.mark.parametrize("tau_d, m", [(2, 81), (3, 256)])
def test_round_robin_scopes_match_cycle_products(tau_d, m, solver_calls):
    # the interior scope's joint chain is the 4th Kronecker power of a
    # cyclic shift, of period tau_d + 1; ranked by modulus Arnoldi on L took
    # 7228 applications (6.5 s) at tau_d = 2 and 33565 (234 s) at tau_d = 3
    model = round_robin_model(tau_d)
    for agent in (1, 2):
        fam = build_mode_family(model, scope=agent)
        assert list(chain_periods(fam.joint_P)) == [tau_d + 1]
        assert scope_radius(fam) == pytest.approx(cycle_product_rho(fam), abs=1e-12)
    assert fam.mode_count == m
    assert [call[0] for call in solver_calls] == ["krylov"] * 2


def test_long_scalar_cycle_scales_the_chain_power():
    # L^1024 of a weighted cyclic shift is (prod w_r^2) I: unscaled, its
    # weights U(0.01, 1) underflow it to 0.0, and scaled by the norm of one
    # application (3.01 rho) they still do. Dense eig of L is 11 % off here
    rng = np.random.default_rng(3)
    w = rng.uniform(0.01, 1.0, 1024)
    fam = ModeFamily.from_matrices(w.reshape(-1, 1, 1), np.roll(np.eye(1024), 1, axis=1))
    assert list(chain_periods(fam.joint_P)) == [1024]
    exact = np.exp(2 * np.log(w).mean())
    assert scope_radius(fam) == pytest.approx(exact, rel=1e-12)


def test_permutation_with_two_cycle_lengths_takes_each_period(solver_calls):
    # modes 0-2 and 3-6 in two cycles, of periods 3 and 4. Each cycle's
    # product is a multiple of an orthogonal matrix, scaled so that both
    # give rho = 0.9: every eigenvalue of L lies on that circle, and ranked
    # by modulus Arnoldi gave up
    rng = np.random.default_rng(0)

    def orthogonal():
        return np.linalg.qr(rng.standard_normal((4, 4)))[0]

    modes = []
    for length in (3, 4):
        cycle = [orthogonal() @ np.diag(np.exp(rng.uniform(-0.3, 0.3, 4))) @ orthogonal()
                 for _ in range(length - 1)]
        product = np.linalg.multi_dot(cycle[::-1])
        modes += cycle + [0.9 ** (length / 2) * orthogonal() @ np.linalg.inv(product)]
    fam = ModeFamily.from_matrices(modes, np.eye(7)[[1, 2, 0, 4, 5, 6, 3]])
    assert sorted(chain_periods(fam.joint_P)) == [3, 4]
    assert cycle_product_rho(fam) == pytest.approx(0.9, abs=1e-14)
    assert scope_radius(fam) == pytest.approx(0.9, abs=1e-12)
    assert [call[0] for call in solver_calls] == ["krylov"] * 2


def test_nearly_cyclic_chain_settles_by_real_part(solver_calls):
    # every state has a self-loop, so p = 1, yet the top of the spectrum is
    # a near-circle of 256 eigenvalues: ranked by modulus Arnoldi gave up
    # after its 65 cycles (1280 applications), ranked by real part it
    # settles in 578
    rng = np.random.default_rng(5)
    p = 0.999 * np.roll(np.eye(256), 1, axis=1) + 0.001 / 256
    fam = ModeFamily.from_matrices(rng.uniform(0.5, 1.0, (256, 1, 1)), p)
    assert list(chain_periods(fam.joint_P)) == [1]
    assert scope_radius(fam) == pytest.approx(dense_rho(fam), abs=1e-12)
    assert [call[0] for call in solver_calls] == ["krylov"]


@pytest.mark.parametrize("successor, periods", [
    ([0, 2, 1], {1: [0], 2: [1, 2]}),  # a fixed point beside a 2-cycle
    ([1, 0, 3, 2], {2: [0, 1, 2, 3]}),
    ([1, 2, 0, 0], {3: [0, 1, 2]}),  # a transient state, on no cycle, into a 3-cycle
])
def test_chain_periods_of_permutation_like_chains(successor, periods):
    found = chain_periods(np.eye(len(successor))[successor])
    assert {p: np.flatnonzero(states).tolist() for p, states in found.items()} == periods


def cycle_chain(lengths):
    """A permutation chain through cycles of the given lengths, in turn."""
    successor, first = [], 0
    for length in lengths:
        successor += [first + (k + 1) % length for k in range(length)]
        first += length
    return np.eye(first)[successor]


@pytest.mark.parametrize("lengths, d", [([2, 3, 5, 7, 11, 13, 17, 19, 23], 1), ([3, 64], 2)])
def test_coprime_cycles_take_each_period(lengths, d, monkeypatch):
    # one period for the whole chain, the lcm of its cycle lengths, would be
    # 223,092,870 for the primes to 23, each Krylov step applying L that
    # often; ranked by real part on L alone, the 3 + 64 family settles
    # 1.1e-6 off. Each cycle takes its own period, in a few hundred applications
    steps = []
    real = stability.second_moment_map
    monkeypatch.setattr(stability, "second_moment_map",
                        lambda *args: steps.append(1) or real(*args))
    rng = np.random.default_rng(0)
    m = sum(lengths)
    w = rng.uniform(0.01, 1.0, (m, 1, 1)) * rng.standard_normal((m, d, d)) / np.sqrt(d)
    fam = ModeFamily.from_matrices(w, cycle_chain(lengths))
    assert sorted(chain_periods(fam.joint_P)) == lengths
    assert scope_radius(fam) == pytest.approx(cycle_product_rho(fam), rel=1e-12)
    assert len(steps) <= 1000


def test_scope_that_krylov_does_not_settle_raises(monkeypatch, capsys):
    monkeypatch.setattr(stability, "krylov_radius", lambda *args, **kwargs: None)
    with pytest.raises(ArithmeticError, match="^scope agent 2: restarted Arnoldi"):
        scope_radius(interior_family())
    assert main(["analyze", "--pendulum", "4"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["error"] == "scope agent 1: restarted Arnoldi did not settle"


# ---------------------------------------------------------------------------
# One route: Krylov at every size, never the dense matrix
# ---------------------------------------------------------------------------


@pytest.fixture
def solver_calls(monkeypatch):
    """("krylov", result) per `krylov_radius` call and ("mss_matrix",) per
    dense test matrix built, in call order."""
    calls = []
    real_krylov, real_mss = stability.krylov_radius, stability.mss_matrix

    def krylov(*args, **kwargs):
        rho = real_krylov(*args, **kwargs)
        calls.append(("krylov", rho))
        return rho

    def mss(*args):
        calls.append(("mss_matrix",))
        return real_mss(*args)

    monkeypatch.setattr(stability, "krylov_radius", krylov)
    monkeypatch.setattr(stability, "mss_matrix", mss)
    return calls


def test_small_scopes_take_krylov(solver_calls):
    fam = endpoint_family()
    assert fam.mode_count * fam.state_dim ** 2 == 256
    scope = mss_test_family(fam).scopes[0]
    assert solver_calls == [("krylov", scope.rho)]
    assert scope.rho == pytest.approx(dense_rho(fam), abs=1e-12)


def test_small_periodic_scope_takes_krylov(solver_calls):
    # a power iteration on the cyclic chain oscillates; Arnoldi on L^4
    # resolves it without the dense test matrix
    base = endpoint_family()
    fam = ModeFamily.from_matrices(base.matrices, np.roll(np.eye(base.mode_count), 1, axis=1))
    assert fam.mode_count * fam.state_dim ** 2 <= QR_CUTOFF
    assert list(chain_periods(fam.joint_P)) == [4]
    scope = mss_test_family(fam).scopes[0]
    assert [call[0] for call in solver_calls] == ["krylov"]
    assert scope.rho == pytest.approx(dense_rho(fam), abs=1e-12)


def test_full_network_scope_takes_one_krylov_cycle(monkeypatch):
    # 64 modes of a 16-dimensional augmented state: 16384 rows
    steps = []
    real = stability.second_moment_map
    monkeypatch.setattr(stability, "second_moment_map",
                        lambda *args: steps.append(1) or real(*args))
    scope = mss_test_full(build_pendulum_model(4)).scopes[0]
    assert scope.dim == 16384
    assert len(steps) <= 2 * KRYLOV_STEPS


def test_scalar_cycle_scope_takes_krylov_on_the_chain_power(solver_calls):
    # 64 scalar modes visited in a cycle: L is a weighted cyclic shift whose
    # 64 eigenvalues share one modulus, so ranked by modulus Arnoldi has no
    # dominant direction; L^64 is a multiple of the identity
    rng = np.random.default_rng(12)
    fam = ModeFamily.from_matrices(rng.uniform(0.5, 1.0, (64, 1, 1)),
                                   np.roll(np.eye(64), 1, axis=1))
    scope = mss_test_family(fam).scopes[0]
    assert [call[0] for call in solver_calls] == ["krylov"]
    assert scope.rho == pytest.approx(dense_rho(fam), abs=1e-12)


@pytest.mark.parametrize("case", ["scalar_flip", "endpoint_flip"])
def test_period_two_chain_takes_krylov(case, solver_calls):
    # a joint chain that flips every step keeps a power iteration's growth
    # alternating; Arnoldi answers
    flip = [[0.0, 1.0], [1.0, 0.0]]
    if case == "scalar_flip":
        fam = ModeFamily.from_matrices([[[0.5]], [[0.8]]], flip)
    else:
        fam = ModeFamily.from_matrices(endpoint_family().matrices, kron_power(flip, 2))
    rho = scope_radius(fam)
    assert [call[0] for call in solver_calls] == ["krylov"]
    assert rho == pytest.approx(dense_rho(fam), abs=1e-12)


def test_random_small_families_match_dense_eig(solver_calls):
    # every shape from 4 to 512 rows: m from 1 to 128 modes, d from 1 to 3
    rng = np.random.default_rng(5)
    shapes = [(4, 1), (1, 2), (1, 3), (128, 1), (128, 2), (56, 3)]
    shapes += [(int(rng.integers(max(1, 4 // d ** 2), min(128, 512 // d ** 2) + 1)), d)
               for d in (1, 2, 3) for _ in range(4)]
    for m, d in shapes:
        assert 4 <= m * d * d <= QR_CUTOFF
        w = rng.standard_normal((m, d, d)) * rng.uniform(0.2, 1.0) / np.sqrt(d)
        fam = ModeFamily.from_matrices(w, rng.dirichlet(np.ones(m), size=m))
        assert scope_radius(fam) == pytest.approx(dense_rho(fam), abs=1e-12)
    assert {call[0] for call in solver_calls} == {"krylov"}


def test_nilpotent_family_has_radius_zero():
    # products of d strictly upper triangular modes vanish, so L^d = 0
    rng = np.random.default_rng(6)
    fam = ModeFamily.from_matrices(np.triu(rng.standard_normal((8, 3, 3)), 1),
                                   rng.dirichlet(np.ones(8), size=8))
    assert scope_radius(fam) == 0.0
    assert dense_rho(fam) == pytest.approx(0.0, abs=1e-9)


def test_nilpotent_family_on_a_periodic_chain_has_radius_zero():
    # L^3 vanishes on the start before the scaling of L^4 is known
    rng = np.random.default_rng(7)
    fam = ModeFamily.from_matrices(np.triu(rng.standard_normal((4, 3, 3)), 1),
                                   np.roll(np.eye(4), 1, axis=1))
    assert list(chain_periods(fam.joint_P)) == [4]
    assert scope_radius(fam) == 0.0


@pytest.mark.parametrize("target", [1.0 - 1e-7, 1.0 + 1e-7])
def test_families_near_one_keep_the_dense_verdict(target):
    rng = np.random.default_rng(8)
    for m, d in [(3, 2), (40, 2), (128, 2), (50, 3)]:
        fam = contractive_family(rng, m, d)
        # W -> c W scales L by c^2
        scaled = ModeFamily.from_matrices(
            fam.matrices * np.sqrt(target / dense_rho(fam)), fam.joint_P)
        want = verdict(dense_rho(scaled))
        assert want == ("stable" if target < 1.0 else "unstable")
        assert mss_test_family(scaled).scopes[0].verdict == want


# ---------------------------------------------------------------------------
# Accuracy above the dense cutoff
# ---------------------------------------------------------------------------


def test_pendulum_interior_scope_matches_dense_eig():
    fam = interior_family()
    assert fam.mode_count * fam.state_dim ** 2 == 2304
    assert scope_radius(fam) == pytest.approx(dense_rho(fam), abs=1e-9)


def test_ladder_scopes_match_dense_eig_and_arpack():
    report = mss_test_reduced(ladder_model(7))
    assert [s.dim for s in report.scopes] == [4096] * 8
    model = ladder_model(7)
    for agent, scope in enumerate(report.scopes, start=1):
        assert scope.rho == pytest.approx(
            arpack_rho(build_mode_family(model, scope=agent)), abs=1e-9)
    # one dense eigensolve of a 4096-row test matrix takes seconds
    fam = build_mode_family(model, scope=1)
    assert report.scopes[0].rho == pytest.approx(dense_rho(fam), abs=1e-12)


def test_jittered_chain_endpoint_scope_matches_dense_eig():
    fam = build_mode_family(jittered_pendulum_model(), scope=1)
    assert fam.mode_count * fam.state_dim ** 2 == 256
    assert scope_radius(fam) == pytest.approx(dense_rho(fam), abs=1e-12)


def test_random_contractive_families_match_dense_eig():
    rng = np.random.default_rng(11)
    for _ in range(10):
        fam = contractive_family(rng, int(rng.integers(150, 201)), 2)
        assert 600 <= fam.mode_count * 4 <= 4096
        assert scope_radius(fam) == pytest.approx(dense_rho(fam), abs=1e-12)


# ---------------------------------------------------------------------------
# Models whose dense test matrices were refused
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("make", [tau2_pendulum_model, rotation_grid_model])
def test_wide_scopes_analyze_with_dedup(make, capsys, tmp_path):
    model = make()
    report = mss_test_reduced(model, dedup=True)
    assert report.overall == "stable"
    assert max(s.dim for s in report.scopes) > 10_000
    for cls, scope in zip(report.classes, report.scopes):
        fam = build_mode_family(model, scope=cls[0])
        assert scope.rho == pytest.approx(arpack_rho(fam), abs=1e-9)
        assert scope.rho == pytest.approx(covariance_growth(fam, 150), rel=1e-6)

    doc = {
        "N": model.n_agents, "n": model.n, "tau_d": model.tau_d,
        "blocks": [{"i": i, "j": j, "values": b.ravel().tolist()}
                   for (i, j), b in sorted(model.blocks.items())],
        "chain": {"P": model.chain.P.tolist(), "pi0": model.chain.pi0.tolist()},
    }
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    assert main(["analyze", "--model", str(path), "--dedup"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert [s["rho"] for s in out["scopes"]] == [s.rho for s in report.scopes]


# ---------------------------------------------------------------------------
# Byte cap on the matrix-free solver state
# ---------------------------------------------------------------------------


def test_solver_state_byte_cap(monkeypatch):
    # the Krylov basis and the vector being orthogonalized, checked at every
    # size before the first step
    for agent, dim in [(1, 256), (2, 2304)]:
        fam = build_mode_family(build_pendulum_model(16), scope=agent)
        state = 8 * dim * (linalg.KRYLOV_STEPS + 2)
        monkeypatch.setattr(linalg, "BYTE_CAP", state - 1)
        with pytest.raises(SizeLimitError) as err:
            mss_test_family(fam)
        message = str(err.value)
        assert f"scope agent {agent}" in message
        assert f"{state} bytes" in message
        assert f"cap {state - 1}" in message
        assert message.endswith("; neighborhood too dense")
        monkeypatch.setattr(linalg, "BYTE_CAP", state)
        assert mss_test_family(fam).overall == "stable"


# ---------------------------------------------------------------------------
# One build and solve per exact local structure
# ---------------------------------------------------------------------------


def pooled_chain_model(seed, n_agents=16):
    """Scalar chain whose diagonal blocks are drawn from two values and whose
    links all carry one, so that agents share their local structure exactly,
    only up to relabeling (mirror images), or not at all."""
    rng = np.random.default_rng(seed)
    blocks = {(i, i): [[rng.choice([0.5, 0.6])]] for i in range(1, n_agents + 1)}
    for i in range(1, n_agents):
        blocks[(i, i + 1)] = blocks[(i + 1, i)] = [[0.1]]
    chain = DelayChain(P=[[0.6, 0.4], [0.3, 0.7]], pi0=[1.0, 0.0])
    return DncsModel(n_agents=n_agents, n=1, tau_d=1, blocks=blocks, chain=chain)


# model -> number of distinct local structures
LOCAL_STRUCTURES = {
    "pendulum4": (lambda: build_pendulum_model(4), 2),
    "pendulum16": (lambda: build_pendulum_model(16), 2),
    "ladder": (lambda: ladder_model(0), 8),
    "grid5x5": (rotation_grid_model, 6),
    "tau2_pendulum": (tau2_pendulum_model, 2),
    "pooled_chain": (lambda: pooled_chain_model(0), 7),
}


@pytest.mark.parametrize("name", sorted(LOCAL_STRUCTURES))
def test_equal_local_structures_build_identical_families(name):
    make, distinct = LOCAL_STRUCTURES[name]
    model = make()
    groups = {}
    for agent in range(1, model.n_agents + 1):
        groups.setdefault(_local_structure(model, agent), []).append(agent)
    assert len(groups) == distinct
    for agents in groups.values():
        first = build_mode_family(model, scope=agents[0])
        for agent in agents[1:]:
            fam = build_mode_family(model, scope=agent)
            for attr in ("matrices", "joint_P", "joint_pi0"):
                a, b = getattr(fam, attr), getattr(first, attr)
                assert a.shape == b.shape and a.tobytes() == b.tobytes(), (agent, attr)


@pytest.mark.parametrize("name", ["pendulum16", "ladder", "tau2_pendulum", "pooled_chain"])
def test_reduced_test_equals_per_agent_scopes(name):
    model = LOCAL_STRUCTURES[name][0]()
    expected = [_scope_result(build_mode_family(model, scope=agent))
                for agent in range(1, model.n_agents + 1)]
    assert mss_test_reduced(model).scopes == expected


@pytest.mark.parametrize("name, model, solved", [
    ("pendulum1000", lambda: build_pendulum_model(1000), 2),
    ("ladder", lambda: ladder_model(0), 8),
    # mirror-image neighborhoods are one symmetry class but two structures
    ("pooled_chain", lambda: pooled_chain_model(0), 7),
])
def test_reduced_test_solves_each_local_structure_once(name, model, solved, monkeypatch):
    calls = {"build": 0, "solve": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(stability, "build_mode_family",
                        counted("build", stability.build_mode_family))
    monkeypatch.setattr(stability, "scope_radius", counted("solve", stability.scope_radius))
    model = model()
    report = mss_test_reduced(model)
    assert len(report.scopes) == model.n_agents
    assert calls == {"build": solved, "solve": solved}
