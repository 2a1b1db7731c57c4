import dataclasses
import hashlib
import importlib
from pathlib import Path

import numpy as np
import pytest

from mjlstab import linalg, switched
from mjlstab.linalg import SizeLimitError, kron_power
from mjlstab.model import DelayChain, DncsModel, build_pendulum_model, load_model
from mjlstab.switched import (
    ModeFamily,
    _assemble,
    build_mode_family,
    enumerate_links,
    mode_count,
    mode_count_formula,
)


def pair_model(a11=0.5, a22=0.7, c12=0.1, c21=None, tau_d=1):
    """Two scalar agents; link (1,2) always, link (2,1) optional."""
    q = tau_d + 1
    p = np.full((q, q), 1.0 / q)
    blocks = {
        (1, 1): np.array([[a11]]),
        (2, 2): np.array([[a22]]),
        (1, 2): np.array([[c12]]),
    }
    if c21 is not None:
        blocks[(2, 1)] = np.array([[c21]])
    chain = DelayChain(P=p, pi0=[1.0] + [0.0] * tau_d)
    return DncsModel(n_agents=2, n=1, tau_d=tau_d, blocks=blocks, chain=chain)


def mode_index(digits, q):
    """Index of a delay assignment in the family: the big-endian base-q
    value of its digits, one per link in sorted link order."""
    index = 0
    for d in digits:
        index = index * q + d
    return index


def mode_matrix(model, digits):
    """Global-scope mode matrix of one delay assignment."""
    return build_mode_family(model).matrices[mode_index(digits, model.q)]


def complete_graph_model(n_agents: int, tau_d: int = 1):
    blocks = {}
    for i in range(1, n_agents + 1):
        blocks[(i, i)] = np.array([[0.3]])
        for j in range(1, n_agents + 1):
            if i != j:
                blocks[(i, j)] = np.array([[0.05]])
    q = tau_d + 1
    chain = DelayChain(P=np.full((q, q), 1.0 / q), pi0=[1.0] + [0.0] * tau_d)
    return DncsModel(n_agents=n_agents, n=1, tau_d=tau_d, blocks=blocks, chain=chain)


# ---------------------------------------------------------------------------
# Links and mode counts
# ---------------------------------------------------------------------------


def test_enumerate_links_global_sorted():
    model = build_pendulum_model(100)
    links = enumerate_links(model)
    assert len(links) == 198
    assert links == sorted(links)
    assert (1, 2) in links and (100, 99) in links


def test_enumerate_links_agent_scope():
    model = build_pendulum_model(100)
    assert enumerate_links(model, 50) == [(49, 50), (50, 49), (50, 51), (51, 50)]
    assert enumerate_links(model, 1) == [(1, 2), (2, 1)]


def test_mode_count_small_exact():
    model = pair_model(c21=0.1)
    assert mode_count(model) == 4
    assert mode_count(model, 1) == 4


def test_mode_count_large_reports_base_exponent():
    model = build_pendulum_model(100)
    assert mode_count(model) == (2, 198)


def test_mode_count_formula_pendulum_total():
    model = build_pendulum_model(100)
    total = sum(mode_count_formula(model, i) for i in range(1, 101))
    assert total == 6280
    assert mode_count_formula(model, 1) == 4
    assert mode_count_formula(model, 50) == 64


def test_link_aware_counts_undershoot_formula():
    # the 16 + 4 link-aware counts versus the 64 + 4 all-pairs formula
    model = build_pendulum_model(100)
    assert mode_count(model, 50) == 16
    assert mode_count(model, 1) == 4


# ---------------------------------------------------------------------------
# Mode matrix assembly
# ---------------------------------------------------------------------------


def test_mode_matrix_delay_slots_single_link():
    model = pair_model(a11=0.5, a22=0.7, c12=0.1)
    w0 = mode_matrix(model, (0,))
    assert np.array_equal(
        w0,
        [
            [0.5, 0.1, 0.0, 0.0],
            [0.0, 0.7, 0.0, 0.0],
            [1.0, 0.0, 0.0, 0.0],
            [0.0, 1.0, 0.0, 0.0],
        ],
    )
    w1 = mode_matrix(model, (1,))
    assert np.array_equal(
        w1,
        [
            [0.5, 0.0, 0.0, 0.1],
            [0.0, 0.7, 0.0, 0.0],
            [1.0, 0.0, 0.0, 0.0],
            [0.0, 1.0, 0.0, 0.0],
        ],
    )


def test_mode_matrix_identity_shift_structure():
    model = pair_model(tau_d=2)
    w = mode_matrix(model, (2,))
    size = 2
    for t in range(1, 3):
        assert np.array_equal(
            w[t * size : (t + 1) * size, (t - 1) * size : t * size], np.eye(size)
        )
    # coupling lives in the deepest slot
    assert w[0, 2 * size + 1] == 0.1


def test_mode_matrix_diagonal_blocks_never_delayed():
    model = pair_model(tau_d=1)
    for digits in ((0,), (1,)):
        w = mode_matrix(model, digits)
        assert w[0, 0] == 0.5
        assert w[1, 1] == 0.7


# ---------------------------------------------------------------------------
# ModeFamily
# ---------------------------------------------------------------------------


def test_mode_family_validation():
    mats = np.zeros((2, 3, 3))
    good_p = np.array([[0.5, 0.5], [0.5, 0.5]])
    with pytest.raises(ValueError, match="row-stochastic"):
        ModeFamily(scope=None, state_dim=3, matrices=mats,
                   joint_P=np.array([[0.5, 0.6], [0.5, 0.5]]),
                   joint_pi0=np.array([0.5, 0.5]))
    with pytest.raises(ValueError, match="distribution"):
        ModeFamily(scope=None, state_dim=3, matrices=mats, joint_P=good_p,
                   joint_pi0=np.array([0.5, 0.6]))
    with pytest.raises(ValueError, match="state_dim"):
        ModeFamily(scope=None, state_dim=2, matrices=mats, joint_P=good_p,
                   joint_pi0=np.array([0.5, 0.5]))
    # another chain for the same modes goes through the same checks
    fam = ModeFamily.from_matrices(mats, good_p)
    with pytest.raises(ValueError, match="joint_P is not row-stochastic"):
        dataclasses.replace(fam, joint_P=[[0.5, 0.6], [0.5, 0.5]])


@pytest.mark.parametrize("shape", [(2, 2), (2, 2, 3)])
def test_mode_family_requires_a_stack_of_square_matrices(shape):
    with pytest.raises(ValueError) as info:
        ModeFamily(scope=None, state_dim=2, matrices=np.zeros(shape),
                   joint_P=np.full((2, 2), 0.5), joint_pi0=np.full(2, 0.5))
    assert str(info.value) == f"matrices: expected (m, d, d), got {shape}"


def test_from_matrices_rejects_a_single_matrix():
    with pytest.raises(ValueError) as info:
        ModeFamily.from_matrices([[0.5, 0.1], [0.0, 0.3]], [[1.0]])
    assert str(info.value) == "matrices must be a list of square matrices"


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("name", ["matrices", "joint_P", "joint_pi0"])
def test_from_matrices_rejects_non_finite(name, bad):
    args = {"matrices": np.full((2, 1, 1), 0.5), "joint_P": np.full((2, 2), 0.5),
            "joint_pi0": np.full(2, 0.5)}
    args[name].flat[0] = bad
    with pytest.raises(ValueError, match=f"^{name}[: ]"):
        ModeFamily.from_matrices(args["matrices"], args["joint_P"], pi0=args["joint_pi0"])


def test_mode_family_labels():
    model = pair_model()
    assert build_mode_family(model).label == "global"
    assert build_mode_family(model, scope=1).label == "agent 1"
    fam = ModeFamily.from_matrices(np.zeros((1, 2, 2)), [[1.0]])
    assert fam.label == "family"


def test_from_matrices_defaults_to_uniform_pi0():
    fam = ModeFamily.from_matrices(np.zeros((4, 1, 1)), np.full((4, 4), 0.25))
    assert np.allclose(fam.joint_pi0, 0.25)


def test_build_mode_family_matches_per_index_assembly():
    model = pair_model(c21=0.2, tau_d=1)
    fam = build_mode_family(model)
    assert fam.mode_count == 4
    links = enumerate_links(model)
    for digits in ((0, 0), (0, 1), (1, 0), (1, 1)):
        one = _assemble(model, [1, 2], links, np.array([digits]))[0]
        assert np.array_equal(fam.matrices[mode_index(digits, 2)], one)


def test_joint_chain_alignment_with_mode_indexing():
    """joint_P[r, s] must equal the product of per-link transition
    probabilities when r and s are decoded digit-by-digit."""
    model = pair_model(c21=0.2, tau_d=1)
    fam = build_mode_family(model)
    p = np.asarray(model.chain.P)
    n_links = 2
    assignments = [(0, 0), (0, 1), (1, 0), (1, 1)]
    for rd in assignments:
        for sd in assignments:
            expected = np.prod([p[rd[t], sd[t]] for t in range(n_links)])
            r, s = mode_index(rd, 2), mode_index(sd, 2)
            assert fam.joint_P[r, s] == pytest.approx(expected, abs=1e-15)
    assert np.array_equal(fam.joint_P, kron_power(p, 2))


def test_joint_pi0_is_kron_power():
    model = pair_model(c21=0.2)
    fam = build_mode_family(model)
    pi = np.asarray(model.chain.pi0)
    assert np.array_equal(fam.joint_pi0, np.kron(pi, pi))


def test_build_mode_family_agent_scope_uses_neighborhood():
    model = build_pendulum_model(6)
    fam = build_mode_family(model, scope=3)
    assert fam.mode_count == 16
    assert fam.state_dim == 3 * 2 * 2  # three neighbors, n=2, q=2


def test_enumeration_cap_global_hint():
    model = build_pendulum_model(100)
    with pytest.raises(SizeLimitError, match="reduced per-agent"):
        build_mode_family(model)


def test_enumeration_cap_agent_hint():
    model = complete_graph_model(7)  # 42 links globally and per neighborhood
    with pytest.raises(SizeLimitError, match="neighborhood too dense"):
        build_mode_family(model, scope=1)


def fail_assembly(*args):
    raise AssertionError("assembled a family that is refused")


@pytest.mark.parametrize(
    "model, scope, match",
    [
        # 2^14 modes: 134 MB of mode matrices but a 2.1 GB joint chain
        (build_pendulum_model(8), None,
         r"global scope: the joint chain of 2\^14 delay modes .*reduced per-agent"),
        (complete_graph_model(7), 1,
         r"agent 1: the mode matrices of 2\^42 delay modes .*neighborhood too dense"),
    ],
    ids=["pendulum8-global", "complete7-agent1"],
)
def test_size_check_refuses_before_assembly(monkeypatch, model, scope, match):
    monkeypatch.setattr(switched, "_assemble", fail_assembly)
    with pytest.raises(SizeLimitError, match=match):
        build_mode_family(model, scope)


def test_size_check_shows_huge_byte_counts_as_powers_of_two():
    with pytest.raises(SizeLimitError, match=r"2\^19998 delay modes would hold over 2\^"):
        build_mode_family(build_pendulum_model(10000))


@pytest.mark.parametrize(
    "model, scope",
    [
        (build_pendulum_model(16), 2),  # mode matrices larger: 16 of 12x12
        (complete_graph_model(3), None),  # joint chain larger: 64x64 over 6x6 modes
    ],
    ids=["matrices-larger", "chain-larger"],
)
def test_size_check_boundary_is_the_larger_array(monkeypatch, model, scope):
    m = mode_count(model, scope)
    dim = build_mode_family(model, scope).state_dim
    larger = 8 * m * max(dim * dim, m)
    monkeypatch.setattr(linalg, "BYTE_CAP", larger)
    assert build_mode_family(model, scope).mode_count == m
    monkeypatch.setattr(linalg, "BYTE_CAP", larger - 1)
    monkeypatch.setattr(switched, "_assemble", fail_assembly)
    with pytest.raises(SizeLimitError):
        build_mode_family(model, scope)


def test_size_limit_on_family_entries():
    n = 16
    rng = np.random.default_rng(2)
    blocks = {(i, i): rng.normal(size=(n, n)) for i in (1, 2, 3)}
    for i, j in ((1, 2), (2, 1), (1, 3), (3, 1), (2, 3), (3, 2)):
        blocks[(i, j)] = rng.normal(size=(n, n))
    chain = DelayChain(P=np.full((4, 4), 0.25), pi0=[1.0, 0.0, 0.0, 0.0])
    model = DncsModel(n_agents=3, n=n, tau_d=3, blocks=blocks, chain=chain)
    with pytest.raises(SizeLimitError):
        build_mode_family(model)


# ---------------------------------------------------------------------------
# Golden family bytes
# ---------------------------------------------------------------------------

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def lone_agent_model():
    """One agent, no links, tau_d = 0: a single 2x2 mode and a 1x1 chain."""
    chain = DelayChain(P=[[1.0]], pi0=[1.0])
    return DncsModel(n_agents=1, n=2, tau_d=0,
                     blocks={(1, 1): np.array([[0.5, 0.1], [0.0, 0.3]])}, chain=chain)


# SHA-256 of the little-endian float64 bytes of matrices, joint_P and joint_pi0
# of each family, as the one-mode-at-a-time assembly produced them.
FAMILY_DIGESTS = {
    "pair global": (
        lambda gen: (pair_model(c21=0.2), None),
        "3db00884bdec534308ebd07b1b4c6102aa1e37af468caa64cb29119a23b90349",
        "c68b23194102001f1c75662481333e4d75ba9b17c4dffc307ac2f260e4eaf076",
        "41e57a811ac9776a5931d1ac2f1f354df344c042329b13e20b4b516db8b78410",
    ),
    "pendulum16 agent 1": (
        lambda gen: (build_pendulum_model(16), 1),
        "4b0220cd4d9f4f879bcade70e886437c07b24e40b2098130874baffe5bf37c0a",
        "1d135deb5034afa512832aecaaa0acf2b6d86613757cbbbea52dba2c6f95f8c1",
        "41e57a811ac9776a5931d1ac2f1f354df344c042329b13e20b4b516db8b78410",
    ),
    "pendulum16 agent 2": (
        lambda gen: (build_pendulum_model(16), 2),
        "f31fb4d56308204a56f0b684f9c7d08c9223762ca07050e78c4ac9ec74b3256f",
        "98b567b6f6513ae5577035be6e47d401d96939d018522ce6e56511ee80d9533c",
        "6f530519c9b447b4e9100226699ca3bab488a5560a735ceeb278bcbf531e9ab9",
    ),
    "pendulum tau2 agent 2": (
        lambda gen: (load_model(gen.to_json(gen.pendulum_tau2_model())), 2),
        "d6b2a03621161f67874f9480c49bfb511638e7bdd74d45245e0b0696a00f79e7",
        "0c483f070f0e8078169ceae4e3cd9ff8b889b4ef3fa9895c2cf8376c53190970",
        "7451833a96a7c8ce94c4fb67edf90a4ec361fc12be39911765ebdf4795d41e61",
    ),
    "ladder agent 1": (
        lambda gen: (load_model(gen.to_json(gen.ladder_model(0))), 1),
        "7f5cc49abfba72d98bddaccffa2806425d964b67c5546c18c9f55f5ca7387ad1",
        "826431afee7e7edd91494083115ce360d8b568c4c2d36377b38ba253ffa978fd",
        "0f6735e341e57b2830b43b3e959895b922cf30c43066cc112e94e629ca036265",
    ),
    "pendulum5 global": (
        lambda gen: (build_pendulum_model(5), None),
        "5156dff8b5016c01da004c4066a37718d37e121e0c1884a203e9b787c80387bb",
        "5252b74cb9225527ba65d46245f92b210208414da4fb7a633f9a30b32f871255",
        "314d7de9eebf659e5ca3c908826c69ce40eed13e841325bd09050e3612c60277",
    ),
    "lone tau0 global": (
        lambda gen: (lone_agent_model(), None),
        "f17893203b1d030c73a8b870ae42688d19dfbec20a5dd436b527490bc978eec5",
        "6c3c396ed6b5c36dcae172271f462051b1266b851e92df3deea8ac65478fd712",
        "6c3c396ed6b5c36dcae172271f462051b1266b851e92df3deea8ac65478fd712",
    ),
}


@pytest.mark.parametrize("case", sorted(FAMILY_DIGESTS))
def test_family_bytes_match_golden_digests(monkeypatch, case):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    make, *expected = FAMILY_DIGESTS[case]
    fam = build_mode_family(*make(importlib.import_module("gen")))
    got = [
        hashlib.sha256(np.ascontiguousarray(a, dtype="<f8").tobytes()).hexdigest()
        for a in (fam.matrices, fam.joint_P, fam.joint_pi0)
    ]
    assert got == expected
