"""Monte Carlo simulation of the delayed network dynamics.

Each directed link carries an independent copy of the delay chain; at every
step an agent reads its own current state plus each neighbor's state as old
as that link's current delay. States before time zero equal the initial
state (the delayed terms need tau_d steps of history that the model does not
otherwise define).

Randomness comes from a counter-based generator (Philox) keyed by
(seed, trial) with a fixed draw order (initial state, initial delays, then
one block of uniforms per step), so every trial is reproducible on its own
and independent of how trials are grouped into blocks and processes.

One step loop serves both entry points: it advances a block of trials
together, with trials on the last array axis, so each numpy call covers the
whole block. `simulate_trajectory` runs a block of one trial and keeps its
states; `estimate_ms` runs one block per core and keeps only squared norms.
The loop's per-step work has no data-dependent branch: the delayed product
of each link is picked from the ring of the last q products by bit masks.
"""

from __future__ import annotations

import os
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


def _next_delay(u: np.ndarray, cum: np.ndarray, prev=None) -> np.ndarray:
    """Delays drawn at uniforms u by inverting the cumulative distribution
    `cum` (q,), or with `prev` the rows cum[prev] of a cumulative transition
    matrix (q, q).

    Only the first q-1 thresholds count: the last one may sit just below 1
    (rounding of the cumsum, or rows summing to 1 - 1e-12), and a draw above
    it must still give the last delay, q-1, not q.
    """
    delay = np.zeros(u.shape, dtype=int)
    for c in range(cum.shape[-1] - 1):
        delay += u >= (cum[c] if prev is None else cum[:, c].take(prev))
    return delay


def _products(
    mats: np.ndarray, xs: np.ndarray, out: np.ndarray, tmp: np.ndarray
) -> None:
    """out[a, :, t] = mats[a] @ xs[a, :, t], summed over j in index order from
    +0.0 (the order of a plain matrix-vector loop); tmp is scratch."""
    out.fill(0.0)
    for j in range(mats.shape[-1]):
        np.multiply(mats[:, :, j, None], xs[:, None, j, :], out=tmp)
        out += tmp


def _simulate_block(model: DncsModel, config: SimConfig, trials, keep=False):
    """Advance a block of trials through one step loop, trials on the last axis.

    States are (N, n, T) and delays (L, T). Each trial draws from its own
    generator in the order described above, so every trial gives the same
    bits as when run alone. Returns the links, the squared norms
    (T, steps+1) and, with keep (one trial), the states (steps+1, N, n) and
    the delays (steps, L).
    """
    rngs = [_trial_generator(config.seed, int(t)) for t in trials]
    n_trials, steps = len(rngs), config.steps
    n_agents, n, q = model.n_agents, model.n, model.q
    links = enumerate_links(model)
    n_links = len(links)

    if isinstance(config.init, str):
        if config.init != "uniform":
            raise ValueError(f"unknown init rule {config.init!r}")
        x = np.stack(
            [rng.uniform(-1.0, 1.0, size=(n_agents, n)) for rng in rngs], axis=-1
        )
    else:
        x0 = np.asarray(config.init, dtype=float).reshape(n_agents, n)
        x = np.repeat(x0[:, :, None], n_trials, axis=2)

    diag_mats = np.stack([model.blocks[(i, i)] for i in range(1, n_agents + 1)])
    link_mats = (
        np.stack([model.blocks[link] for link in links])
        if n_links
        else np.zeros((0, n, n))
    )
    receivers = np.array([i - 1 for (i, _) in links], dtype=int)
    senders = np.array([j - 1 for (_, j) in links], dtype=int)
    # links come sorted by receiver; slot s holds each receiver's s-th
    # incoming link, so receivers are unique within a slot and each receiver
    # adds its links in link order
    rank = np.arange(n_links) - np.searchsorted(receivers, receivers)
    slots = [
        (receivers[rank == s], np.flatnonzero(rank == s))
        for s in range(rank.max(initial=-1) + 1)
    ]

    u = np.empty((n_trials, n_links))
    for t, rng in enumerate(rngs):
        rng.random(out=u[t])
    delays = _next_delay(u.T, np.cumsum(model.chain.pi0))
    cum_p = np.cumsum(model.chain.P, axis=1)

    x_next, tmp = np.empty_like(x), np.empty_like(x)
    # ring of the last q link products M_l x(k)[sender_l]; x(k) for k < 0 is x(0)
    prods = np.empty((q, n_links, n, n_trials))
    delayed, link_tmp = np.empty_like(prods[0]), np.empty_like(prods[0])
    _products(link_mats, x[senders], delayed, link_tmp)
    prods[:] = delayed
    head = 0
    # the delayed products are picked by XOR, AND, XOR on their bit patterns:
    # no branch on a fresh random mask, and exact for every float (signed
    # zeros and NaN payloads included)
    prod_bits, delayed_bits = prods.view(np.int64), delayed.view(np.int64)
    pick_bits = link_tmp.view(np.int64)
    mask = np.empty((n_links, 1, n_trials), dtype=np.int64)
    flat = np.empty((n_trials, n_agents, n))  # x(k) per trial, row-major
    sqnorm = np.empty((n_trials, steps + 1))
    states = delays_out = None
    if keep:
        states = np.empty((steps + 1, n_agents, n))
        delays_out = np.empty((steps, n_links), dtype=int)

    for k in range(steps + 1):
        flat[...] = x.transpose(2, 0, 1)
        sqnorm[:, k] = (flat * flat).reshape(n_trials, -1).sum(axis=1)
        if keep:
            states[k] = x[..., 0]
        if k == steps:
            break
        if keep:
            delays_out[k] = delays[:, 0]
        _products(diag_mats, x, x_next, tmp)
        np.copyto(delayed, prods[head])
        for d in range(1, q):
            # mask is all ones where a link's delay is d, zeros elsewhere
            np.equal(delays, d, out=mask[:, 0, :])
            np.negative(mask, out=mask)
            np.bitwise_xor(delayed_bits, prod_bits[(head - d) % q], out=pick_bits)
            pick_bits &= mask
            delayed_bits ^= pick_bits
        for slot_receivers, slot_links in slots:
            x_next[slot_receivers] += delayed[slot_links]
        head = (head + 1) % q
        _products(link_mats, x_next[senders], prods[head], link_tmp)
        for t, rng in enumerate(rngs):
            rng.random(out=u[t])
        delays = _next_delay(u.T, cum_p, delays)
        x, x_next = x_next, x
    return links, sqnorm, states, delays_out


def simulate_trajectory(
    model: DncsModel, config: SimConfig, trial: int = 0
) -> TrajectoryRecord:
    """Simulate one trajectory, deterministic given (config.seed, trial)."""
    links, sqnorm, states, delays = _simulate_block(model, config, [trial], keep=True)
    return TrajectoryRecord(
        states=states.reshape(config.steps + 1, model.n_agents * model.n),
        sqnorm=sqnorm[0],
        delays=delays,
        links=links,
        n_agents=model.n_agents,
        n=model.n,
    )


def estimate_ms(model: DncsModel, config: SimConfig) -> np.ndarray:
    """Sample mean of the squared state norm per step across trials.

    The trials are split into one contiguous block per core, and each block
    runs as one batched step loop: the first in this process, the others in
    forked children of `parallel_map` (on threads the blocks waited on each
    other for the GIL; without `os.fork` they run serially). Only the squared
    norms are kept and sent back; they are stacked in trial order before the
    mean, so the result is bit-identical for any core count.
    """
    blocks = np.array_split(
        np.arange(config.trials), min(os.cpu_count() or 1, config.trials)
    )
    sqnorms = parallel_map(
        lambda block: _simulate_block(model, config, block)[1], blocks
    )
    return np.concatenate(sqnorms).mean(axis=0)


# ---------------------------------------------------------------------------
# CSV export
# ---------------------------------------------------------------------------


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
    # one %-format per row over Python floats ("%.17g" prints exactly what
    # format(v, ".17g") does); rows are converted one at a time, so no
    # Python float exists for the whole array at once
    row_fmt = "%d," + ",".join(["%.17g"] * record.states.shape[1]) + ",%.17g"
    lines = ["k," + ",".join(names) + ",sqnorm"]
    for k, (row, sq) in enumerate(zip(record.states, record.sqnorm.tolist())):
        lines.append(row_fmt % (k, *row.tolist(), sq))
    lines.append("")
    return "\n".join(lines)


def mean_square_csv(values) -> str:
    """CSV text of a mean-square trajectory: columns k, mean_sq."""
    lines = ["k,mean_sq"]
    for k, v in enumerate(np.asarray(values, dtype=float).tolist()):
        lines.append("%d,%.17g" % (k, v))
    lines.append("")
    return "\n".join(lines)


def export_csv(text: str, path) -> None:
    """Write CSV text with fixed newlines so repeat runs are byte-identical."""
    with open(path, "w", newline="\n") as fh:
        fh.write(text)
