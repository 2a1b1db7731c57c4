import os
import signal
import time
import tracemalloc

import numpy as np
import pytest

from mjlstab import sim
from mjlstab._parallel import parallel_map

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
    _next_delay,
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
# Batched trials: estimate_ms's blocks against one trajectory at a time
# ---------------------------------------------------------------------------


def pendulum_tau2(n_agents=6):
    """Pendulum chain with a three-state delay chain (tau_d = 2, q = 3)."""
    diag = np.array([[1.0, 0.1], [-0.2, 0.7]])
    link = np.array([[0.0, 0.0], [0.04, 0.0]])
    blocks = {(i, i): diag for i in range(1, n_agents + 1)}
    for i in range(1, n_agents):
        blocks[(i, i + 1)] = link
        blocks[(i + 1, i)] = link
    chain = DelayChain(
        P=[[0.5, 0.3, 0.2], [0.3, 0.5, 0.2], [0.2, 0.3, 0.5]], pi0=[1.0, 0.0, 0.0]
    )
    return DncsModel(n_agents=n_agents, n=2, tau_d=2, blocks=blocks, chain=chain)


def grid(side=4):
    """side x side grid of 2-state agents; interior agents have 4 incoming links."""
    rot = 0.6 * np.array([[np.cos(0.8), -np.sin(0.8)], [np.sin(0.8), np.cos(0.8)]])
    blocks = {}
    for r in range(side):
        for c in range(side):
            i = r * side + c + 1
            blocks[(i, i)] = rot
            link = 0.05 * (1 + i % 3) * np.eye(2)
            for dr, dc in ((-1, 0), (1, 0), (0, -1), (0, 1)):
                if 0 <= r + dr < side and 0 <= c + dc < side:
                    blocks[(i, (r + dr) * side + c + dc + 1)] = link
    chain = DelayChain(P=[[0.5, 0.5], [0.3, 0.7]], pi0=[1.0, 0.0])
    return DncsModel(n_agents=side * side, n=2, tau_d=1, blocks=blocks, chain=chain)


def ladder():
    """Two 4-rings of scalar agents joined by rungs (degree 3 each)."""
    rng = np.random.default_rng(3)
    blocks = {(i, i): np.array([[rng.uniform(0.4, 0.65)]]) for i in range(1, 9)}
    edges = []
    for k in range(4):
        edges += [(1 + k, 1 + (k + 1) % 4), (5 + k, 5 + (k + 1) % 4), (1 + k, 5 + k)]
    for a, b in edges:
        blocks[(a, b)] = np.array([[rng.uniform(0.05, 0.1)]])
        blocks[(b, a)] = np.array([[rng.uniform(0.05, 0.1)]])
    chain = DelayChain(P=[[0.4, 0.6], [0.3, 0.7]], pi0=[1.0, 0.0])
    return DncsModel(n_agents=8, n=1, tau_d=1, blocks=blocks, chain=chain)


BATCH_CASES = {
    "tau2-pendulum": (pendulum_tau2, "uniform"),
    "grid": (grid, "uniform"),
    "ladder": (ladder, "uniform"),
    "no-links": (diag_only, "uniform"),
    "explicit-init": (pendulum_tau2, np.linspace(-1.0, 1.0, 12)),
}


@pytest.mark.parametrize("case", sorted(BATCH_CASES))
def test_batched_blocks_match_single_trajectories(monkeypatch, case):
    make, init = BATCH_CASES[case]
    model = make()
    cfg = SimConfig(steps=40, trials=7, seed=21, init=init)
    blocks = []
    real_map = sim.parallel_map

    def recording_map(fn, items):
        out = real_map(fn, items)
        blocks.extend(out)
        return out

    monkeypatch.setattr(sim, "parallel_map", recording_map)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)  # blocks of 4 and 3 trials
    ms = estimate_ms(model, cfg)
    single = np.stack(
        [simulate_trajectory(model, cfg, trial=t).sqnorm for t in range(cfg.trials)]
    )
    assert [len(b) for b in blocks] == [4, 3]
    assert np.array_equal(np.concatenate(blocks), single)
    assert np.array_equal(ms, single.mean(axis=0))


@pytest.mark.parametrize("case", sorted(BATCH_CASES))
def test_estimate_ms_independent_of_core_count(monkeypatch, case):
    make, init = BATCH_CASES[case]
    model = make()
    cfg = SimConfig(steps=30, trials=5, seed=4, init=init)
    results = []
    for cores in (1, 2, 3, 8):  # 8 cores > 5 trials: one trial per block
        monkeypatch.setattr(os, "cpu_count", lambda cores=cores: cores)
        results.append(estimate_ms(model, cfg))
    for other in results[1:]:
        assert np.array_equal(other, results[0])


@pytest.mark.parametrize("cores", [1, None], ids=["one-core", "all-cores"])
def test_estimate_ms_memory_stays_per_block(monkeypatch, cores):
    """Only the squared norms of each trial are kept: keeping every trial's
    states of 200 pendulums over 400 steps would take 128 MB. On one core the
    100 trials are one block in this process; on the machine's own count the
    first block runs here and the others in forked children, which
    tracemalloc does not see."""
    if cores is not None:
        monkeypatch.setattr(os, "cpu_count", lambda: cores)
    model = build_pendulum_model(200)
    cfg = SimConfig(steps=400, trials=100, seed=0)
    tracemalloc.start()
    try:
        estimate_ms(model, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 16 * 2**20


# ---------------------------------------------------------------------------
# Worker processes of parallel_map
# ---------------------------------------------------------------------------

needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork")


def _open_fds():
    return set(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else set()


def _assert_nothing_left(fds_before):
    # every child is reaped and every pipe closed
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert _open_fds() == fds_before


@needs_fork
def test_parallel_map_returns_results_in_input_order():
    fds = _open_fds()
    offset = np.arange(3.0)  # reached through the closure, never pickled
    assert [r.tolist() for r in parallel_map(lambda x: offset + x, [5, 6, 7])] == [
        [5.0, 6.0, 7.0], [6.0, 7.0, 8.0], [7.0, 8.0, 9.0]]
    _assert_nothing_left(fds)


@needs_fork
def test_parallel_map_reraises_a_child_exception():
    def work(x):
        if x == 2:
            raise ValueError(f"bad item {x}")
        return x

    fds = _open_fds()
    with pytest.raises(ValueError) as info:
        parallel_map(work, [1, 2, 3])
    assert info.type is ValueError
    assert str(info.value) == "bad item 2"
    _assert_nothing_left(fds)


@needs_fork
def test_parallel_map_names_the_item_of_a_killed_child():
    def work(x):
        if x == "b":
            os.kill(os.getpid(), signal.SIGKILL)
        return x

    fds = _open_fds()
    with pytest.raises(RuntimeError, match=r"item 1: .*killed by SIGKILL"):
        parallel_map(work, ["a", "b", "c"])
    _assert_nothing_left(fds)


@needs_fork
def test_parallel_map_reaps_children_when_the_parent_item_raises():
    def work(x):
        if x == 0:
            raise KeyError("parent item")
        time.sleep(30)  # the children are still running when the parent raises
        return x

    fds = _open_fds()
    started = time.monotonic()
    with pytest.raises(KeyError, match="parent item"):
        parallel_map(work, [0, 1, 2])
    assert time.monotonic() - started < 10
    _assert_nothing_left(fds)


# ---------------------------------------------------------------------------
# Delay draws
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("row", [[0.7, 0.2, 0.1], [0.5, 0.3, 0.2 - 1e-12]])
def test_delay_draw_above_last_threshold_stays_in_range(row):
    """The cumulative row may end just below 1 (0.9999999999999999 for
    [0.7, 0.2, 0.1]); a uniform above it must still give delay q - 1, where
    counting all q thresholds gave q."""
    cum = np.cumsum(row)
    u = np.nextafter(1.0, 0.0)
    assert u >= cum[-1]
    assert _next_delay(np.array([u]), cum)[0] == 2
    # the same row as the transition row out of delay 1
    cum_p = np.cumsum([[1.0, 0.0, 0.0], row, [0.0, 0.0, 1.0]], axis=1)
    assert np.array_equal(_next_delay(np.full(2, u), cum_p, np.array([1, 1])), [2, 2])


def test_delay_draw_matches_full_count_below_the_last_threshold():
    rng = np.random.default_rng(0)
    cum_p = np.cumsum(rng.dirichlet(np.ones(4), size=4), axis=1)
    prev = rng.integers(0, 4, size=(5, 6))
    u = rng.random((5, 6)) * 0.999
    assert np.all(u < cum_p[:, -1].min())
    assert np.array_equal(
        _next_delay(u, cum_p, prev), (u[..., None] >= cum_p[prev]).sum(axis=-1)
    )
    assert np.array_equal(
        _next_delay(u, cum_p[0]), (u[..., None] >= cum_p[0]).sum(axis=-1)
    )


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


def _per_value_csv(record) -> str:
    """Reference CSV text: one format(float(v), ".17g") call per value."""
    lines = [trajectory_csv(record).split("\n", 1)[0]]
    for k, (row, sq) in enumerate(zip(record.states, record.sqnorm)):
        lines.append(f"{k}," + ",".join(format(float(v), ".17g") for v in row)
                     + "," + format(float(sq), ".17g"))
    return "\n".join(lines) + "\n"


def _traced_peak(fn, *args) -> int:
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_trajectory_csv_matches_per_value_format_and_its_peak():
    """200 pendulums over 400 steps, plus a row of special values: the same
    text as formatting each value on its own, at no higher tracemalloc
    peak. The build holds the lines and the joined text, and one row's
    Python floats at a time; converting the whole array at once would add
    about 5 MB of floats."""
    rec = simulate_trajectory(build_pendulum_model(200), SimConfig(steps=400, seed=1))
    text = trajectory_csv(rec)
    same = text == _per_value_csv(rec)  # kept out of the assert: no 3.5 MB diff
    assert same
    peak = _traced_peak(trajectory_csv, rec)
    assert peak <= _traced_peak(_per_value_csv, rec)
    assert peak <= 2 * len(text) + 2**20
    special = np.array([[0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, 1e300, 1 / 3,
                         1e16, 0.1 + 0.2]])
    rec.states, rec.sqnorm = special, np.array([np.nan])
    assert trajectory_csv(rec).split("\n")[1] == _per_value_csv(rec).split("\n")[1]
    assert mean_square_csv(special[0]).split("\n")[1:-1] == [
        f"{k},{format(v, '.17g')}" for k, v in enumerate(special[0].tolist())]


def test_mean_square_csv_layout():
    text = mean_square_csv([4.0, 1.0, 0.25])
    assert text == "k,mean_sq\n0,4\n1,1\n2,0.25\n"


def test_export_csv_uses_fixed_newlines(tmp_path):
    path = tmp_path / "out.csv"
    export_csv("k,mean_sq\n0,1\n", path)
    raw = path.read_bytes()
    assert b"\r" not in raw
    assert raw == b"k,mean_sq\n0,1\n"
