"""Monte Carlo simulation of the delayed network dynamics.

Each directed link carries an independent copy of the delay chain; at every
step an agent reads its own current state plus each neighbor's state as old
as that link's current delay. States before time zero equal the initial
state (the delayed terms need tau_d steps of history that the model does not
otherwise define).

Randomness comes from a counter-based generator (Philox) keyed by
(seed, trial) with a fixed draw order (initial state, initial delays, then
one block of uniforms per step), so every trial is reproducible on its own
and independent of how trials are scheduled across threads. `estimate_ms`
runs trials on one thread per core: serial trials measured slower.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._parallel import parallel_map
from .model import DncsModel
from .switched import enumerate_links

_MASK64 = (1 << 64) - 1


@dataclass(frozen=True, eq=False)
class SimConfig:
    """Simulation settings: horizon, repetitions, seed and initial state.

    init is either the string "uniform" (every coordinate drawn uniformly
    from [-1, 1]) or an explicit state vector of length N*n.
    """

    steps: int
    trials: int = 1
    seed: int = 0
    init: object = "uniform"

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")


@dataclass(eq=False)
class TrajectoryRecord:
    """One realized trajectory: states (steps+1, N*n) with row k holding
    x(k), squared norms per step, and the delay of every link at every
    update (row k holds the delays used for the step k -> k+1)."""

    states: np.ndarray = field(repr=False)
    sqnorm: np.ndarray = field(repr=False)
    delays: np.ndarray = field(repr=False)
    links: list
    n_agents: int
    n: int


def _trial_generator(seed: int, trial: int) -> np.random.Generator:
    key = np.array([seed & _MASK64, trial & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def simulate_trajectory(
    model: DncsModel, config: SimConfig, trial: int = 0
) -> TrajectoryRecord:
    """Simulate one trajectory, deterministic given (config.seed, trial)."""
    rng = _trial_generator(config.seed, trial)
    n_agents, n, q = model.n_agents, model.n, model.q
    links = enumerate_links(model)
    n_links = len(links)

    if isinstance(config.init, str):
        if config.init != "uniform":
            raise ValueError(f"unknown init rule {config.init!r}")
        x0 = rng.uniform(-1.0, 1.0, size=(n_agents, n))
    else:
        x0 = np.asarray(config.init, dtype=float).reshape(n_agents, n)

    receivers = np.array([l - 1 for (l, _) in links], dtype=int)
    senders = np.array([j - 1 for (_, j) in links], dtype=int)
    link_mats = (
        np.stack([model.blocks[link] for link in links])
        if n_links
        else np.zeros((0, n, n))
    )
    diag_mats = np.stack(
        [model.blocks[(i, i)] for i in range(1, n_agents + 1)]
    )

    cum_pi0 = np.cumsum(model.chain.pi0)
    cum_p = np.cumsum(model.chain.P, axis=1)
    delays = (rng.random(n_links)[:, None] >= cum_pi0[None, :]).sum(axis=1)

    hist = np.tile(x0, (q, 1, 1))  # ring buffer of the last q states
    head = 0
    states = np.empty((config.steps + 1, n_agents, n))
    states[0] = x0
    delays_out = np.empty((config.steps, n_links), dtype=int)

    for k in range(config.steps):
        delays_out[k] = delays
        x_next = np.einsum("aij,aj->ai", diag_mats, hist[head])
        if n_links:
            src = hist[(head - delays) % q, senders]
            contrib = np.einsum("lij,lj->li", link_mats, src)
            np.add.at(x_next, receivers, contrib)
        head = (head + 1) % q
        hist[head] = x_next
        states[k + 1] = x_next
        u = rng.random(n_links)
        if n_links:
            delays = (u[:, None] >= cum_p[delays]).sum(axis=1)

    flat = states.reshape(config.steps + 1, n_agents * n)
    return TrajectoryRecord(
        states=flat,
        sqnorm=(flat * flat).sum(axis=1),
        delays=delays_out,
        links=links,
        n_agents=n_agents,
        n=n,
    )


def estimate_ms(model: DncsModel, config: SimConfig) -> np.ndarray:
    """Sample mean of the squared state norm per step across trials.

    Trials run in a parallel map with per-trial derived generator keys;
    aggregation order is fixed by trial index, so the result is deterministic
    regardless of thread scheduling.
    """

    def one(trial: int) -> np.ndarray:
        return simulate_trajectory(model, config, trial).sqnorm

    stacked = np.stack(parallel_map(one, range(config.trials)))
    return stacked.mean(axis=0)


# ---------------------------------------------------------------------------
# CSV export
# ---------------------------------------------------------------------------


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def trajectory_csv(record: TrajectoryRecord) -> str:
    """CSV text of one trajectory: columns k, per-agent states, sqnorm.

    State columns are named x_<agent> for scalar agents and
    x_<agent>_<coord> (both one-based) otherwise.
    """
    if record.n == 1:
        names = [f"x_{a}" for a in range(1, record.n_agents + 1)]
    else:
        names = [
            f"x_{a}_{c}"
            for a in range(1, record.n_agents + 1)
            for c in range(1, record.n + 1)
        ]
    lines = ["k," + ",".join(names) + ",sqnorm"]
    for k, (row, sq) in enumerate(zip(record.states, record.sqnorm)):
        lines.append(f"{k}," + ",".join(_fmt(v) for v in row) + f",{_fmt(sq)}")
    return "\n".join(lines) + "\n"


def mean_square_csv(values) -> str:
    """CSV text of a mean-square trajectory: columns k, mean_sq."""
    lines = ["k,mean_sq"]
    for k, v in enumerate(np.asarray(values, dtype=float)):
        lines.append(f"{k},{_fmt(v)}")
    return "\n".join(lines) + "\n"


def export_csv(text: str, path) -> None:
    """Write CSV text with fixed newlines so repeat runs are byte-identical."""
    with open(path, "w", newline="\n") as fh:
        fh.write(text)
