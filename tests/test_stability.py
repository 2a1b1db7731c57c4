import dataclasses
import itertools

import numpy as np
import pytest

from mjlstab import stability
from mjlstab.linalg import SizeLimitError, spectral_radius
from mjlstab.model import DelayChain, DncsModel, PendulumParams, build_pendulum_model
from mjlstab.stability import (
    MARGINAL_BAND,
    ScopeResult,
    _CANONICAL_LIMIT,
    _local_structure,
    _overall,
    block_norm_sufficient,
    covariance_init,
    covariance_step,
    covariance_trace,
    dedup_agents,
    mss_matrix,
    mss_test_family,
    mss_test_full,
    mss_test_reduced,
    second_moment_map,
    verdict,
)
from mjlstab.switched import ModeFamily, build_mode_family


def scalar_family(a1=0.5, a2=1.25, p=None):
    if p is None:
        p = [[0.4, 0.6], [0.5, 0.5]]
    return ModeFamily.from_matrices([[[a1]], [[a2]]], p)


def random_model(seed, n_agents=5):
    rng = np.random.default_rng(seed)
    blocks = {
        (i, i): rng.uniform(-0.9, 0.9, size=(1, 1))
        for i in range(1, n_agents + 1)
    }
    for i in range(1, n_agents):
        blocks[(i, i + 1)] = rng.uniform(-0.3, 0.3, size=(1, 1))
        blocks[(i + 1, i)] = rng.uniform(-0.3, 0.3, size=(1, 1))
    chain = DelayChain(P=[[0.7, 0.3], [0.4, 0.6]], pi0=[1.0, 0.0])
    return DncsModel(n_agents=n_agents, n=1, tau_d=1, blocks=blocks, chain=chain)


# ---------------------------------------------------------------------------
# Test matrix layout
# ---------------------------------------------------------------------------


def test_mss_matrix_two_mode_scalar_layout():
    fam = scalar_family()
    test = mss_matrix(fam)
    assert np.array_equal(
        test.matrix,
        [[0.4 * 0.25, 0.5 * 1.5625], [0.6 * 0.25, 0.5 * 1.5625]],
    )
    assert test.scope == "family"


def test_mss_matrix_block_structure_matches_kron():
    rng = np.random.default_rng(3)
    mats = rng.normal(size=(3, 2, 2))
    p = np.array([[0.2, 0.3, 0.5], [0.1, 0.6, 0.3], [0.4, 0.4, 0.2]])
    fam = ModeFamily.from_matrices(mats, p)
    big = mss_matrix(fam).matrix
    assert big.shape == (12, 12)
    for r in range(3):
        kr = np.kron(mats[r], mats[r])
        for s in range(3):
            block = big[s * 4 : (s + 1) * 4, r * 4 : (r + 1) * 4]
            assert np.array_equal(block, p[r, s] * kr)


def test_mss_matrix_transition_override():
    # the test matrix reads the family's chain; replace swaps and checks it
    fam = scalar_family()
    q = np.array([[0.9, 0.1], [0.2, 0.8]])
    test = mss_matrix(dataclasses.replace(fam, joint_P=q))
    assert np.array_equal(
        test.matrix, [[0.9 * 0.25, 0.2 * 1.5625], [0.1 * 0.25, 0.8 * 1.5625]]
    )
    with pytest.raises(ValueError, match="joint_P"):
        dataclasses.replace(fam, joint_P=np.eye(3))


# ---------------------------------------------------------------------------
# Verdicts
# ---------------------------------------------------------------------------


def test_verdict_boundaries():
    assert verdict(1.0 - 2e-9) == "stable"
    assert verdict(1.0) == "marginal"
    assert verdict(1.0 + 2e-9) == "unstable"
    assert verdict(1.0 - 0.5e-9) == "marginal"
    assert verdict(1.0 + 0.5e-9) == "marginal"
    assert MARGINAL_BAND == 1e-9


def test_overall_precedence():
    def scope(v):
        return ScopeResult(
            scope="agent 1", rho=1.0, stable=False, m=1, dim=1, verdict=v,
        )

    assert _overall([scope("stable"), scope("stable")]) == "stable"
    assert _overall([scope("stable"), scope("marginal")]) == "marginal"
    assert _overall([scope("marginal"), scope("unstable")]) == "unstable"
    assert _overall([scope("stable"), scope("unstable")]) == "unstable"


# ---------------------------------------------------------------------------
# Covariance recursion
# ---------------------------------------------------------------------------


def test_covariance_init_is_weighted_identity():
    fam = scalar_family()
    state = covariance_init(fam)
    assert state.k == 0
    assert np.array_equal(state.pi, fam.joint_pi0)
    for s in range(fam.mode_count):
        assert np.array_equal(state.Q[s], fam.joint_pi0[s] * np.eye(1))
    assert covariance_trace(state) == pytest.approx(fam.state_dim, abs=1e-12)


def test_covariance_step_updates_mode_distribution():
    fam = scalar_family()
    state = covariance_step(fam, covariance_init(fam))
    assert state.k == 1
    assert np.allclose(state.pi, fam.joint_pi0 @ fam.joint_P, atol=1e-15)


def test_covariance_step_rejects_mismatched_state():
    fam = scalar_family()
    other = ModeFamily.from_matrices(np.zeros((2, 2, 2)), np.full((2, 2), 0.5))
    with pytest.raises(ValueError, match="does not match"):
        covariance_step(fam, covariance_init(other))


def stack_covariance(state) -> np.ndarray:
    """Column-major vectorization of every Q_s, stacked mode by mode: the
    vector the test matrix propagates."""
    return np.concatenate([q.reshape(-1, order="F") for q in state.Q])


def test_stacked_covariance_follows_test_matrix():
    """The stacked vectorized covariances evolve exactly by powers of the
    second-moment test matrix; this ties the recursion to the spectral test."""
    model = build_pendulum_model(2)
    fam = build_mode_family(model)
    lam = mss_matrix(fam).matrix
    state = covariance_init(fam)
    y0 = stack_covariance(state)
    for k in range(1, 9):
        state = covariance_step(fam, state)
        expected = np.linalg.matrix_power(lam, k) @ y0
        assert np.allclose(stack_covariance(state), expected, rtol=1e-12, atol=1e-14)


def test_second_moment_map_is_test_matrix_at_any_chain():
    rng = np.random.default_rng(4)
    fam = ModeFamily.from_matrices(rng.normal(size=(3, 2, 2)), np.full((3, 3), 1 / 3))
    p = rng.random((3, 3))
    p /= p.sum(axis=1, keepdims=True)
    q = rng.normal(size=(3, 2, 2))
    stacked = np.concatenate([x.reshape(-1, order="F") for x in q])
    mapped = second_moment_map(dataclasses.replace(fam, joint_P=p), q)
    expected = mss_matrix(dataclasses.replace(fam, joint_P=p)).matrix @ stacked
    assert np.allclose(
        np.concatenate([x.reshape(-1, order="F") for x in mapped]), expected,
        rtol=1e-12, atol=1e-14,
    )


def test_covariance_trace_decays_for_stable_family():
    fam = scalar_family(a1=0.5, a2=0.6, p=[[0.5, 0.5], [0.5, 0.5]])
    state = covariance_init(fam)
    for _ in range(60):
        state = covariance_step(fam, state)
    assert covariance_trace(state) < 1e-8


# ---------------------------------------------------------------------------
# Full and reduced tests
# ---------------------------------------------------------------------------


def test_full_equals_family_on_same_enumeration():
    model = random_model(0, n_agents=3)
    direct = mss_test_family(build_mode_family(model))
    full = mss_test_full(model)
    assert full.scopes[0].rho == direct.scopes[0].rho
    assert full.scopes[0].scope == "global"
    assert full.classes is None


def test_full_equals_reduced_when_neighborhood_is_whole_network():
    model = build_pendulum_model(2)
    full = mss_test_full(model)
    reduced = mss_test_reduced(model)
    assert len(reduced.scopes) == 2
    for scope in reduced.scopes:
        assert scope.rho == full.scopes[0].rho
        assert scope.m == full.scopes[0].m == 4
    assert reduced.overall == full.overall == "stable"


def test_reduced_test_certifies_neighborhoods_not_the_network():
    # each neighborhood subsystem drops the couplings that leave it, so all
    # of them can pass while the whole network is mean-square unstable
    model = build_pendulum_model(4, params=PendulumParams(coupling=0.14))
    full = mss_test_full(model)
    reduced = mss_test_reduced(model)
    assert full.overall == "unstable"
    assert full.scopes[0].rho == pytest.approx(1.01653, abs=1e-5)
    assert reduced.overall == "stable"
    assert max(s.rho for s in reduced.scopes) == pytest.approx(0.99871, abs=1e-5)


def test_full_raises_cap_on_large_network():
    with pytest.raises(SizeLimitError):
        mss_test_full(build_pendulum_model(100))


def hub_star(spokes=6):
    """2-state agents whose hub exchanges links with every spoke: the hub's
    scope has 2^(2 * spokes) modes of dimension 4 * (spokes + 1)."""
    blocks = {(i, i): np.array([[0.5, 0.1], [0.0, 0.4]]) for i in range(1, spokes + 2)}
    for i in range(2, spokes + 2):
        blocks[(1, i)] = blocks[(i, 1)] = 0.01 * np.eye(2)
    chain = DelayChain(P=[[0.5, 0.5], [0.3, 0.7]], pi0=[1.0, 0.0])
    return DncsModel(n_agents=spokes + 1, n=2, tau_d=1, blocks=blocks, chain=chain)


@pytest.mark.parametrize("test, model, message", [
    # 4096 modes of dimension 28: the family (26 MB of modes, a 134 MB
    # chain) fits, its Krylov state (1.08 GB) does not
    (mss_test_full, build_pendulum_model(7),
     "scope global: the spectral test's solver state would hold 1078984704 bytes "
     "(cap 800000000); use the reduced per-agent test"),
    (mss_test_reduced, hub_star(),
     "scope agent 1: the spectral test's solver state would hold 1078984704 bytes "
     "(cap 800000000); neighborhood too dense"),
], ids=["pendulum7-full", "star6-reduced"])
def test_unsolvable_scope_is_refused_before_its_family_is_built(monkeypatch, test, model,
                                                                message):
    built = []
    monkeypatch.setattr(stability, "build_mode_family",
                        lambda model, scope=None: built.append(scope))
    with pytest.raises(SizeLimitError) as info:
        test(model)
    assert str(info.value) == message
    assert built == []


def test_reduced_report_shape():
    model = build_pendulum_model(4)
    report = mss_test_reduced(model)
    assert [s.scope for s in report.scopes] == [f"agent {i}" for i in (1, 2, 3, 4)]
    assert report.classes is None
    d = report.to_dict()
    assert set(d) == {"overall", "scopes", "classes"}
    assert d["classes"] is None
    assert set(d["scopes"][0]) == {"scope", "rho", "stable", "verdict", "m", "dim"}


# ---------------------------------------------------------------------------
# Deduplication
# ---------------------------------------------------------------------------


def test_dedup_pendulum_two_classes():
    classes = dedup_agents(build_pendulum_model(100))
    assert classes == [[1, 100], list(range(2, 100))]


def test_dedup_two_agents_single_class():
    assert dedup_agents(build_pendulum_model(2)) == [[1, 2]]


def test_dedup_distinct_agents_stay_singletons():
    model = random_model(7)
    assert dedup_agents(model) == [[1], [2], [3], [4], [5]]


def test_dedup_class_members_share_exact_rho():
    model = build_pendulum_model(6)
    per_agent = mss_test_reduced(model, dedup=False)
    rhos = {s.scope: s.rho for s in per_agent.scopes}
    for cls in dedup_agents(model):
        class_rhos = {rhos[f"agent {i}"] for i in cls}
        assert len(class_rhos) == 1


def test_dedup_report_lists_classes_and_representatives():
    model = build_pendulum_model(100)
    report = mss_test_reduced(model, dedup=True)
    assert report.classes == [[1, 100], list(range(2, 100))]
    assert [s.scope for s in report.scopes] == ["agent 1", "agent 2"]
    plain = mss_test_reduced(build_pendulum_model(6), dedup=False)
    deduped = mss_test_reduced(build_pendulum_model(6), dedup=True)
    by_scope = {s.scope: s.rho for s in plain.scopes}
    for s in deduped.scopes:
        assert s.rho == by_scope[s.scope]


def test_dedup_is_relabel_aware_not_order_sensitive():
    # mirror-symmetric chain: agents 1 and 3 match under reversal
    blocks = {
        (1, 1): np.array([[0.5]]),
        (2, 2): np.array([[0.7]]),
        (3, 3): np.array([[0.5]]),
        (1, 2): np.array([[0.1]]),
        (2, 1): np.array([[0.2]]),
        (3, 2): np.array([[0.1]]),
        (2, 3): np.array([[0.2]]),
    }
    chain = DelayChain(P=[[0.5, 0.5], [0.5, 0.5]], pi0=[1.0, 0.0])
    model = DncsModel(n_agents=3, n=1, tau_d=1, blocks=blocks, chain=chain)
    assert dedup_agents(model) == [[1, 3], [2]]


def test_dedup_tells_apart_mirror_images_with_equal_local_structure():
    # agent 1 receives 0.1 from agent 2 and agent 2 receives 0.2 from agent 1:
    # the sorted neighborhood {1, 2} and its blocks are the same for both
    # agents, but relabeling one center onto the other swaps the couplings
    blocks = {
        (1, 1): np.array([[0.5]]),
        (2, 2): np.array([[0.5]]),
        (1, 2): np.array([[0.1]]),
        (2, 1): np.array([[0.2]]),
    }
    chain = DelayChain(P=[[0.5, 0.5], [0.5, 0.5]], pi0=[1.0, 0.0])
    model = DncsModel(n_agents=2, n=1, tau_d=1, blocks=blocks, chain=chain)
    assert _local_structure(model, 1) == _local_structure(model, 2)
    assert dedup_agents(model) == [[1], [2]]
    mirrored = {**blocks, (2, 1): blocks[(1, 2)]}
    model = DncsModel(n_agents=2, n=1, tau_d=1, blocks=mirrored, chain=chain)
    assert dedup_agents(model) == [[1, 2]]


def test_dedup_searches_relabelings_only_for_shared_summaries(monkeypatch):
    # 300 agents with random blocks: no two share the blocks that relabeling
    # keeps, so none can match another and no permutation search runs
    from test_model import random_sparse_model

    import mjlstab.stability as stability_module

    calls = []
    real = stability_module._canonical_signature
    monkeypatch.setattr(stability_module, "_canonical_signature",
                        lambda *args: calls.append(args) or real(*args))
    classes = dedup_agents(random_sparse_model(1, n_agents=300, n=2, degree=5))
    assert calls == []
    assert classes == [[i] for i in range(1, 301)]
    # the pendulum's two endpoints share a summary under different exact
    # structures, so only their keys are searched
    assert dedup_agents(build_pendulum_model(100)) == [[1, 100], list(range(2, 100))]
    assert len(calls) == 2


def two_stars(leaves, leaf_diag=0.3):
    """Two scalar stars of `leaves` leaves each: hub 1 with leaves 2..leaves+1,
    and leaves leaves+2..2*leaves+1 with the last agent as hub, so the hubs
    sit first and last in their sorted neighborhoods. `leaf_diag` is the
    diagonal block of the second star's first leaf."""
    size = leaves + 1
    blocks = {(i, i): np.array([[0.3]]) for i in range(1, 2 * size + 1)}
    for hub, first in ((1, 2), (2 * size, size + 1)):
        blocks[(hub, hub)] = np.array([[0.5]])
        for leaf in range(first, first + leaves):
            blocks[(hub, leaf)] = np.array([[0.02]])
            blocks[(leaf, hub)] = np.array([[0.1]])
    blocks[(size + 1, size + 1)] = np.array([[leaf_diag]])
    chain = DelayChain(P=[[1.0]], pi0=[1.0])
    return DncsModel(n_agents=2 * size, n=1, tau_d=0, blocks=blocks, chain=chain)


def test_dedup_above_the_canonical_limit_takes_the_sorted_labeling(monkeypatch):
    # each hub has _CANONICAL_LIMIT + 1 leaves, so its relabelings are not
    # searched: the sorted order of the leaves is the only labeling tried
    real = itertools.permutations

    def permutations(items, *args):
        items = list(items)
        assert len(items) <= _CANONICAL_LIMIT, f"permutations of {len(items)} agents"
        return real(items, *args)

    monkeypatch.setattr(itertools, "permutations", permutations)
    leaves = _CANONICAL_LIMIT + 1
    last = 2 * leaves + 2
    assert dedup_agents(two_stars(leaves)) == [[1, last], list(range(2, last))]
    classes = dedup_agents(two_stars(leaves, leaf_diag=0.35))
    assert [1] in classes and [last] in classes


# ---------------------------------------------------------------------------
# Norm-based sufficient test
# ---------------------------------------------------------------------------


def test_block_norm_sufficient_scalar_pair():
    fam = scalar_family()
    # column sums of p[r, s] * |a_r|^2 are 0.88125 and 0.93125
    assert block_norm_sufficient(fam) is True
    assert spectral_radius(mss_matrix(fam).matrix) < 1.0


def test_block_norm_sufficient_false_says_nothing():
    fam = scalar_family(a1=1.5, a2=0.1, p=[[0.5, 0.5], [0.5, 0.5]])
    assert block_norm_sufficient(fam) is False
    # the spectral test still settles it
    assert spectral_radius(mss_matrix(fam).matrix) > 1.0


def test_block_norm_sufficient_transition_override():
    fam = scalar_family(a1=0.9, a2=0.9, p=[[0.5, 0.5], [0.5, 0.5]])
    assert block_norm_sufficient(fam) is True
    assert block_norm_sufficient(dataclasses.replace(fam, joint_P=np.eye(2))) is True


def test_block_norm_implies_spectral_pass():
    rng = np.random.default_rng(12)
    for _ in range(20):
        mats = rng.normal(size=(2, 2, 2))
        scale = rng.uniform(0.1, 1.2)
        mats *= scale / max(abs(mats).sum(axis=2).max(), 1e-9)
        p = rng.uniform(0.05, 1.0, size=(2, 2))
        p /= p.sum(axis=1, keepdims=True)
        fam = ModeFamily.from_matrices(mats, p)
        if block_norm_sufficient(fam):
            assert spectral_radius(mss_matrix(fam).matrix) < 1.0
