import numpy as np
import pytest

from mjlstab.model import (
    DelayChain,
    DncsModel,
    build_global_matrix,
    build_pendulum_model,
    default_chain,
)
from mjlstab.sim import (
    SimConfig,
    estimate_ms,
    export_csv,
    mean_square_csv,
    simulate_trajectory,
    trajectory_csv,
)
from mjlstab.stability import mss_test_full


def two_agent(a=0.9, c=0.3, chain=None, both=True):
    blocks = {
        (1, 1): np.array([[a]]),
        (2, 2): np.array([[a]]),
        (1, 2): np.array([[c]]),
    }
    if both:
        blocks[(2, 1)] = np.array([[c]])
    if chain is None:
        chain = DelayChain(P=[[0.5, 0.5], [0.5, 0.5]], pi0=[0.5, 0.5])
    return DncsModel(n_agents=2, n=1, tau_d=1, blocks=blocks, chain=chain)


def diag_only(a=0.8, n_agents=3):
    blocks = {(i, i): np.array([[a]]) for i in range(1, n_agents + 1)}
    chain = DelayChain(P=[[1.0]], pi0=[1.0])
    return DncsModel(n_agents=n_agents, n=1, tau_d=0, blocks=blocks, chain=chain)


# ---------------------------------------------------------------------------
# Determinism
# ---------------------------------------------------------------------------


def test_same_seed_reproduces_csv_bytes():
    model = two_agent()
    cfg = SimConfig(steps=30, seed=7)
    a = trajectory_csv(simulate_trajectory(model, cfg))
    b = trajectory_csv(simulate_trajectory(model, cfg))
    assert a == b


def test_different_seed_changes_trajectory():
    model = two_agent()
    a = simulate_trajectory(model, SimConfig(steps=30, seed=7))
    b = simulate_trajectory(model, SimConfig(steps=30, seed=8))
    assert not np.array_equal(a.states, b.states)


def test_trial_index_decorrelates_within_seed():
    model = two_agent()
    cfg = SimConfig(steps=30, seed=7)
    a = simulate_trajectory(model, cfg, trial=0)
    b = simulate_trajectory(model, cfg, trial=1)
    assert not np.array_equal(a.states, b.states)


def test_estimate_ms_is_mean_over_trials():
    model = two_agent()
    cfg = SimConfig(steps=20, trials=3, seed=5)
    per_trial = np.stack(
        [simulate_trajectory(model, cfg, trial=t).sqnorm for t in range(3)]
    )
    assert np.array_equal(estimate_ms(model, cfg), per_trial.mean(axis=0))


# ---------------------------------------------------------------------------
# Dynamics cross-checks
# ---------------------------------------------------------------------------


def test_frozen_chain_reduces_to_global_matrix_powers():
    # delay locked at 0 forever: the closed loop is the deterministic network
    chain = DelayChain(P=np.eye(2), pi0=[1.0, 0.0])
    model = two_agent(a=0.7, c=0.2, chain=chain)
    x0 = np.array([1.0, -0.5])
    rec = simulate_trajectory(model, SimConfig(steps=12, init=x0))
    g = build_global_matrix(model)
    x = x0.copy()
    for k in range(13):
        assert np.allclose(rec.states[k], x, atol=1e-12)
        x = g @ x
    assert np.array_equal(rec.delays, np.zeros((12, 2), dtype=int))


def test_no_links_gives_decoupled_powers():
    model = diag_only(a=0.8)
    x0 = np.array([1.0, 2.0, -3.0])
    rec = simulate_trajectory(model, SimConfig(steps=10, init=x0))
    assert rec.delays.shape == (10, 0)
    for k in range(11):
        assert np.allclose(rec.states[k], 0.8**k * x0, rtol=1e-12)
    assert rec.sqnorm[0] == pytest.approx(14.0, abs=1e-12)


def test_explicit_init_is_used_verbatim():
    model = two_agent()
    rec = simulate_trajectory(model, SimConfig(steps=1, init=[1.5, -2.5], seed=9))
    assert np.array_equal(rec.states[0], [1.5, -2.5])
    pend = build_pendulum_model(2)
    init = np.arange(1.0, 5.0)
    rec2 = simulate_trajectory(pend, SimConfig(steps=1, init=init))
    assert np.array_equal(rec2.states[0], init)


def test_first_step_ignores_delay_draw():
    """With every history slot preloaded to x(0), x(1) cannot depend on the
    sampled delays, so it matches across seeds; later steps diverge."""
    model = two_agent(a=0.9, c=0.3)
    a = simulate_trajectory(model, SimConfig(steps=20, init=[1.0, -0.7], seed=1))
    b = simulate_trajectory(model, SimConfig(steps=20, init=[1.0, -0.7], seed=2))
    assert np.array_equal(a.states[1], b.states[1])
    assert not np.array_equal(a.delays, b.delays)
    assert not np.array_equal(a.states, b.states)


def test_delay_frequencies_approach_stationary_law():
    chain = default_chain()  # stationary law (3/8, 5/8)
    model = two_agent(a=0.5, c=0.2, chain=chain, both=False)
    rec = simulate_trajectory(model, SimConfig(steps=4000, init=[1.0, 1.0], seed=4))
    freq1 = rec.delays.mean()
    assert abs(freq1 - 5.0 / 8.0) < 0.03


def test_markov_dependent_growth_rate_matches_spectral_test():
    """Mean-square growth of an unstable pair must track the spectral radius
    of the second-moment test matrix, which sits strictly between the
    all-delay-0 rate (1.21) and the all-delay-1 rate (1.1025)."""
    blocks = {
        (1, 1): np.array([[0.5]]),
        (2, 2): np.array([[0.5]]),
        (1, 2): np.array([[0.6]]),
        (2, 1): np.array([[0.6]]),
    }
    model = DncsModel(n_agents=2, n=1, tau_d=1, blocks=blocks, chain=default_chain())
    report = mss_test_full(model)
    rho = report.scopes[0].rho
    assert report.scopes[0].m == 4
    assert rho == pytest.approx(1.154022, abs=1e-6)
    assert 1.1025 < rho < 1.21

    ms = estimate_ms(model, SimConfig(steps=140, trials=600, seed=11))
    ks = np.arange(50, 131)
    slope = np.polyfit(ks, np.log(ms[50:131]), 1)[0]
    fitted = float(np.exp(slope))
    assert fitted == pytest.approx(rho, rel=0.05)


# ---------------------------------------------------------------------------
# Config validation
# ---------------------------------------------------------------------------


def test_config_validation():
    with pytest.raises(ValueError, match="steps"):
        SimConfig(steps=0)
    with pytest.raises(ValueError, match="trials"):
        SimConfig(steps=5, trials=0)


def test_unknown_init_rule_rejected():
    with pytest.raises(ValueError, match="unknown init rule"):
        simulate_trajectory(two_agent(), SimConfig(steps=2, init="gaussian"))


# ---------------------------------------------------------------------------
# CSV export
# ---------------------------------------------------------------------------


def test_trajectory_csv_layout_scalar_agents():
    model = two_agent()
    rec = simulate_trajectory(model, SimConfig(steps=3, init=[0.25, -1.0]))
    text = trajectory_csv(rec)
    lines = text.strip().split("\n")
    assert lines[0] == "k,x_1,x_2,sqnorm"
    assert len(lines) == 5
    first = lines[1].split(",")
    assert first[0] == "0"
    assert float(first[1]) == 0.25 and float(first[2]) == -1.0
    assert float(first[3]) == rec.sqnorm[0]


def test_trajectory_csv_layout_vector_agents():
    model = build_pendulum_model(2)
    rec = simulate_trajectory(model, SimConfig(steps=2, init=[1.0, 2.0, 3.0, 4.0]))
    lines = trajectory_csv(rec).strip().split("\n")
    assert lines[0] == "k,x_1_1,x_1_2,x_2_1,x_2_2,sqnorm"


def test_csv_values_round_trip_exactly():
    model = two_agent()
    rec = simulate_trajectory(model, SimConfig(steps=8, seed=13))
    lines = trajectory_csv(rec).strip().split("\n")[1:]
    for k, line in enumerate(lines):
        parts = line.split(",")
        assert int(parts[0]) == k
        assert [float(p) for p in parts[1:3]] == list(rec.states[k])
        assert float(parts[3]) == rec.sqnorm[k]


def test_mean_square_csv_layout():
    text = mean_square_csv([4.0, 1.0, 0.25])
    assert text == "k,mean_sq\n0,4\n1,1\n2,0.25\n"


def test_export_csv_uses_fixed_newlines(tmp_path):
    path = tmp_path / "out.csv"
    export_csv("k,mean_sq\n0,1\n", path)
    raw = path.read_bytes()
    assert b"\r" not in raw
    assert raw == b"k,mean_sq\n0,1\n"
