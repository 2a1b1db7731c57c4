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
together, trials first, so each numpy call covers the whole block, and it
writes only into arrays made before it. `simulate_trajectory` runs a block
of one trial and keeps its states; `estimate_ms` runs one block per core and
keeps only squared norms. The loop's per-step work has no data-dependent
branch: the delayed product of each link is picked from the ring of the
last q products by bit masks, and one scatter-add sums every link into its
receiver. Both refuse, before they allocate, a run whose arrays would
exceed `linalg.BYTE_CAP`.

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

# Bytes one trial's Philox generator holds, and a block's Python objects
# (measured with numpy 2.4: at most 12 KB).
_GENERATOR_BYTES = 640
_BLOCK_OBJECT_BYTES = 16384


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


def _next_delay(u, cum, prev, out, scratch) -> np.ndarray:
    """Delays drawn at uniforms u by inverting the cumulative distribution
    `cum` (q,), or with `prev` (else None) the rows cum[prev] of a cumulative
    transition matrix (q, q), written into `out`.

    Only the first q-1 thresholds count: the last one may sit just below 1
    (rounding of the cumsum, or rows summing to 1 - 1e-12), and a draw above
    it must still give the last delay, q-1, not q. With `scratch` (an intp, a
    float and a bool array of u's shape) and a `cum` with contiguous columns,
    the draw allocates nothing.
    """
    count, thr, hit = scratch
    out.fill(0)
    for c in range(cum.shape[-1] - 1):
        col = cum[c] if prev is None else np.take(cum[:, c], prev, out=thr, mode="clip")
        np.copyto(count, np.greater_equal(u, col, out=hit))
        out += count
    return out


def _products(coef: np.ndarray, xs: np.ndarray, out: np.ndarray, tmp: np.ndarray) -> None:
    """out[t, i, r] = sum over j of coef[j, i, r] * xs[t, j, r], in index
    order from the first term (a plain matrix-vector loop, less its +0.0
    start); tmp is scratch."""
    np.multiply(coef[0], xs[:, None, 0], out=out)
    for j in range(1, len(coef)):
        np.multiply(coef[j], xs[:, None, j], out=tmp)
        out += tmp


def _simulate_block(model: DncsModel, config: SimConfig, trials, keep=False):
    """Advance a block of trials through one step loop, trials first.

    States are (T, n, N), link products (T, n, L) and delays (T, L), and
    each matrix entry is an (n, N) or (n, L) row broadcast over the trials.
    Links are sorted by receiver, then sender, and one unbuffered scatter-add
    per step sums them into the next state: `np.add.at` applies its adds in
    index order, so each receiver adds its links in sender order. The loop
    writes only into arrays made before it (`estimate_ms` counts them). Each
    trial draws from its own generator in the order described above, so
    every trial gives the same bits as when run alone. Returns the squared
    norms (T, steps+1) and, with keep (one trial), the states
    (steps+1, N, n), else None.
    """
    rngs = [_trial_generator(config.seed, int(t)) for t in trials]
    n_trials, steps = len(rngs), config.steps
    n_agents, n, q = model.n_agents, model.n, model.q

    x = np.empty((n_trials, n, n_agents))
    if isinstance(config.init, str):
        if config.init != "uniform":
            raise ValueError(f"unknown init rule {config.init!r}")
        for t, rng in enumerate(rngs):
            x[t] = rng.uniform(-1.0, 1.0, size=(n_agents, n)).T
    else:
        x[:] = np.asarray(config.init, dtype=float).reshape(n_agents, n).T

    links = enumerate_links(model)  # sorted by receiver, then sender
    n_links = len(links)
    receivers, sources = (np.array(links, dtype=np.intp).reshape(n_links, 2) - 1).T.copy()

    def coef(mats):  # coef[j, i, r] is entry (i, j) of matrix r
        return np.array(mats, dtype=float).reshape(-1, n, n).transpose(2, 1, 0).copy()

    diag_coef = coef([model.blocks[(i, i)] for i in range(1, n_agents + 1)])
    link_coef = coef([model.blocks[link] for link in links])
    del links  # setup only: freed before the loop's arrays are made

    u = np.empty((n_trials, n_links))
    delays, drawn = np.empty((2, n_trials, n_links), dtype=np.intp)
    hit = np.empty(u.shape, dtype=bool)
    scratch = (np.empty_like(delays), np.empty_like(u), hit)

    def draw(cum, prev, out):
        for t, rng in enumerate(rngs):
            rng.random(out=u[t])
        _next_delay(u, cum, prev, out, scratch)

    draw(np.cumsum(model.chain.pi0), None, delays)
    cum_p = np.asfortranarray(np.cumsum(model.chain.P, axis=1))

    x_next, tmp, sq = np.empty_like(x), np.empty_like(x), np.empty((n_trials, n_agents, n))
    # flat views of the two state buffers, swapped with them
    x_flat, x_next_flat = x.reshape(-1), x_next.reshape(-1)
    # into[t, c, l] is the flat index of trial t, coordinate c, receiver of l
    into = (np.arange(n_trials)[:, None, None] * n + np.arange(n)[:, None]) * n_agents
    into = (into + receivers).reshape(-1)
    # ring of the last q link products M_l x(k)[sender_l]; x(k) for k < 0 is x(0)
    prods = np.empty((q, n_trials, n, n_links))
    delayed, link_tmp, xs = np.empty((3, n_trials, n, n_links))
    np.take(x, sources, axis=2, out=xs, mode="clip")
    _products(link_coef, xs, delayed, link_tmp)
    prods[:] = delayed
    # the delayed products are picked by XOR, AND, XOR on their bit patterns:
    # no branch on a fresh random mask, and exact for every float (signed
    # zeros and NaN payloads included)
    prod_bits, delayed_bits = prods.view(np.int64), delayed.view(np.int64)
    pick_bits = link_tmp.view(np.int64)
    mask = np.empty((n_trials, 1, n_links), dtype=np.int64)
    sqnorm = np.empty((n_trials, steps + 1))
    states = np.empty((steps + 1, n_agents, n)) if keep else None

    for k in range(steps + 1):
        # squares in row-major (agent, coordinate) order, one coordinate at a
        # time, so each trial's sum adds them as a flat state would
        for c in range(n):
            np.copyto(sq[:, :, c], x[:, c])
        np.multiply(sq, sq, out=sq)
        sq.reshape(n_trials, -1).sum(axis=1, out=sqnorm[:, k])
        if keep:
            states[k] = x[0].T
        if k == steps:
            break
        _products(diag_coef, x, x_next, tmp)
        x_next += 0.0  # as if summed from +0.0: a state is never -0.0
        src = prods[head := k % q]
        for d in range(1, q):
            # mask is all ones where a link's delay is d, zeros elsewhere
            np.copyto(mask[:, 0], np.equal(delays, d, out=hit))
            np.negative(mask, out=mask)
            np.bitwise_xor(src.view(np.int64), prod_bits[(head - d) % q], out=pick_bits)
            pick_bits &= mask
            np.bitwise_xor(src.view(np.int64), pick_bits, out=delayed_bits)
            src = delayed
        np.add.at(x_next_flat, into, src.reshape(-1))
        np.take(x_next, sources, axis=2, out=xs, mode="clip")
        _products(link_coef, xs, prods[(k + 1) % q], link_tmp)
        draw(cum_p, delays, drawn)
        delays, drawn = drawn, delays
        x, x_next, x_flat, x_next_flat = x_next, x, x_next_flat, x_flat
    return sqnorm, states


def simulate_trajectory(
    model: DncsModel, config: SimConfig, trial: int = 0
) -> TrajectoryRecord:
    """Simulate one trajectory, deterministic given (config.seed, trial).

    Keeps the states and squared norms only; the link delays drawn at each
    step are used and dropped. Raises SizeLimitError, before anything is
    allocated, when the (steps+1)·(N·n+1) kept states and squared norms and
    the one-trial block (`_block_bytes`) would exceed `linalg.BYTE_CAP`.
    """
    check_bytes(
        8 * (config.steps + 1) * (model.n_agents * model.n + 1) + _block_bytes(model, 1),
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


def _block_bytes(model: DncsModel, block: int) -> int:
    """Bytes of a step loop over `block` trials, less norms and states: per
    trial a generator, four state arrays (N·n: the state, the next one, the
    diagonal scratch and the squares), the product ring, the delayed
    products, their scratch, the gathered sender states and the receiver
    index of each link product ((q+4)·L·n), and seven words per link (a
    uniform, a threshold, two delays, a count, a mask and a comparison); per
    block the matrix entries twice over (n²·(N+L), stacked, then reordered),
    two link indices, numpy's iteration buffers for one call (three of at
    most `np.getbufsize()` elements) and its Python objects."""
    n_agents, n, q = model.n_agents, model.n, model.q
    n_links = len(model.blocks) - n_agents
    return 8 * (
        block * (4 * n_agents * n + (q + 4) * n_links * n + 7 * n_links)
        + 2 * n * n * (n_agents + n_links) + 2 * n_links
        + 3 * min(np.getbufsize(), block * n * max(n_agents, n_links))
    ) + block * _GENERATOR_BYTES + _BLOCK_OBJECT_BYTES


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
    largest block (`_block_bytes`).
    """
    workers = min(os.cpu_count() or 1, config.trials)
    block = -(-config.trials // workers)
    check_bytes(
        8 * config.trials * (2 * config.steps + 3) + _block_bytes(model, block),
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
