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
Both refuse, before they allocate, a run whose arrays would exceed
`linalg.BYTE_CAP`.

The CSV helpers format their rows in chunks of about 256 KB of text and pass
each chunk to a `write` callback, so an export holds the trajectory array
and one chunk, never the whole text.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from ._parallel import parallel_map
from .linalg import check_bytes
from .model import DncsModel
from .switched import enumerate_links

_MASK64 = (1 << 64) - 1

# Characters of CSV text gathered before they are passed to `write`.
CSV_CHUNK_CHARS = 1 << 18

# Bytes one trial's Philox generator holds (measured with numpy 2.4).
_GENERATOR_BYTES = 640


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
    """One realized trajectory, what its CSV holds: states (steps+1, N*n)
    with row k holding x(k), and the squared norm of each row."""

    states: np.ndarray = field(repr=False)
    sqnorm: np.ndarray = field(repr=False)
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
    bits as when run alone. Returns the squared norms (T, steps+1) and,
    with keep (one trial), the states (steps+1, N, n), else None.
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
    states = np.empty((steps + 1, n_agents, n)) if keep else None

    for k in range(steps + 1):
        flat[...] = x.transpose(2, 0, 1)
        sqnorm[:, k] = (flat * flat).reshape(n_trials, -1).sum(axis=1)
        if keep:
            states[k] = x[..., 0]
        if k == steps:
            break
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
    return sqnorm, states


def simulate_trajectory(
    model: DncsModel, config: SimConfig, trial: int = 0
) -> TrajectoryRecord:
    """Simulate one trajectory, deterministic given (config.seed, trial).

    Keeps the states and squared norms only; the link delays drawn at each
    step are used and dropped. Raises SizeLimitError, before anything is
    allocated, when the (steps+1)·N·n kept states would exceed
    `linalg.BYTE_CAP`.
    """
    check_bytes(
        8 * (config.steps + 1) * model.n_agents * model.n,
        f"a {config.steps}-step trajectory record",
        "; use fewer --steps",
    )
    sqnorm, states = _simulate_block(model, config, [trial], keep=True)
    return TrajectoryRecord(
        states=states.reshape(config.steps + 1, model.n_agents * model.n),
        sqnorm=sqnorm[0],
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

    Raises SizeLimitError, before anything is allocated, when what it holds
    would exceed `linalg.BYTE_CAP`: the trial index and every trial's
    squared norms twice (as the blocks return them, then stacked), plus the
    largest block's step loop, where each trial holds four state arrays
    (N·n), the product ring and its two scratch arrays ((q+2)·L·n), a
    uniform, a delay and a mask per link, and a generator.
    """
    workers = min(os.cpu_count() or 1, config.trials)
    n_links = len(model.blocks) - model.n_agents
    floats = 4 * model.n_agents * model.n + (model.q + 2) * n_links * model.n + 3 * n_links
    check_bytes(
        8 * config.trials * (2 * config.steps + 3)
        + -(-config.trials // workers) * (8 * floats + _GENERATOR_BYTES),
        f"{config.trials} trials of {config.steps} steps",
        "; use fewer --trials",
    )
    blocks = np.array_split(np.arange(config.trials), workers)
    sqnorms = parallel_map(
        lambda block: _simulate_block(model, config, block)[0], blocks
    )
    return np.concatenate(sqnorms).mean(axis=0)


# ---------------------------------------------------------------------------
# CSV export
# ---------------------------------------------------------------------------


def _write_csv(write, header: str, row_fmt: str, rows) -> None:
    """Pass the header line, then one `row_fmt % row` line per tuple of
    `rows`, to `write` in chunks of whole lines: a chunk is passed once it
    reaches CSV_CHUNK_CHARS characters, so at most one chunk and one row
    exist at a time, however wide the rows and however many."""
    parts, size = [header + "\n"], len(header) + 1
    for row in rows:
        line = row_fmt % row
        parts.append(line)
        size += len(line)
        if size >= CSV_CHUNK_CHARS:
            write("".join(parts))
            parts, size = [], 0
    if parts:
        write("".join(parts))


def trajectory_csv(record: TrajectoryRecord, write) -> None:
    """Pass the CSV text of one trajectory (columns k, per-agent states,
    sqnorm) to `write` in chunks of about CSV_CHUNK_CHARS characters.

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
    # format(v, ".17g") does); each row's floats are made only while its line
    # is formatted, and each chunk's lines only until the chunk is passed on
    row_fmt = "%d," + ",".join(["%.17g"] * record.states.shape[1]) + ",%.17g\n"
    rows = (
        (k, *row.tolist(), sq)
        for k, (row, sq) in enumerate(zip(record.states, record.sqnorm))
    )
    _write_csv(write, "k," + ",".join(names) + ",sqnorm", row_fmt, rows)


def mean_square_csv(values, write) -> None:
    """Pass the CSV text of a mean-square trajectory (columns k, mean_sq) to
    `write` in chunks of about CSV_CHUNK_CHARS characters."""
    rows = enumerate(np.asarray(values, dtype=float).tolist())
    _write_csv(write, "k,mean_sq", "%d,%.17g\n", rows)
