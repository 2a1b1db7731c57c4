"""Seeded input generators for the benchmark.

Each generator takes an integer seed and returns a JSON document in the
public `--model` or `--family` schema of `mjls-stab`; the program under test
only ever sees these documents (written to files) and its argv. Documents are
serialised with `to_json`, so the same seed always gives the same bytes.
"""

from __future__ import annotations

import json
import math

import numpy as np


def to_json(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True) + "\n"


def _blocks(entries: dict, n: int) -> list:
    return [
        {"i": i, "j": j, "values": [float(v) for v in np.asarray(m).reshape(n * n)]}
        for (i, j), m in sorted(entries.items())
    ]


def ladder_model(seed: int) -> dict:
    """Circular ladder of 8 scalar agents (two 4-rings joined by rungs), so
    every agent has degree 3 and its neighborhood holds 6 internal links:
    2^6 = 64 delay modes and a 4096 x 4096 test matrix per scope.

    Weights are drawn per agent and per link, so no two scopes coincide.
    They are positive and each row sums to at most 0.95, which keeps every
    scope stable with a well separated dominant eigenvalue.
    """
    rng = np.random.default_rng([seed, 1])
    edges = []
    for k in range(4):
        edges += [(1 + k, 1 + (k + 1) % 4), (5 + k, 5 + (k + 1) % 4), (1 + k, 5 + k)]
    entries = {(i, i): [rng.uniform(0.4, 0.65)] for i in range(1, 9)}
    for a, b in edges:
        for i, j in ((a, b), (b, a)):
            entries[(i, j)] = [rng.uniform(0.05, 0.1)]
    stay0, stay1 = rng.uniform(0.3, 0.7), rng.uniform(0.5, 0.8)
    return {
        "N": 8,
        "n": 1,
        "tau_d": 1,
        "blocks": _blocks(entries, 1),
        "chain": {"P": [[stay0, 1.0 - stay0], [1.0 - stay1, stay1]], "pi0": [1.0, 0.0]},
    }


def contractive_family(seed: int, modes: int, dim: int = 2) -> dict:
    """Random jump-linear family whose norm bounds are feasible.

    Each mode W_r is scaled so that inf_norm(W_r)^2 is uniform in [0.2, 0.9];
    the rows of P and pi0 are Dirichlet(1) draws. Draws are repeated until
    every column margin beta_s = 1 - sum_r P[r, s] inf_norm(W_r)^2 is positive.
    """
    rng = np.random.default_rng([seed, 2, modes, dim])
    while True:
        mats = rng.standard_normal((modes, dim, dim))
        norms = np.abs(mats).sum(axis=2).max(axis=1)
        target = rng.uniform(0.2, 0.9, size=modes)
        mats *= (np.sqrt(target) / norms)[:, None, None]
        p = rng.dirichlet(np.ones(modes), size=modes)
        pi0 = rng.dirichlet(np.ones(modes))
        alpha = np.array([np.abs(w).sum(axis=1).max() ** 2 for w in mats])
        if np.min(1.0 - alpha @ p) > 0:
            return {"matrices": mats.tolist(), "P": p.tolist(), "pi0": pi0.tolist()}


def grid_model(seed: int, side: int = 5) -> dict:
    """side x side grid of identical oscillatory 2-state agents, each coupled
    to its 4-neighbours. The seed draws the shared rotation angle, contraction
    and coupling, so symmetric agents stay symmetric (corner, edge and
    interior classes)."""
    rng = np.random.default_rng([seed, 3])
    theta = rng.uniform(0.4, 1.2)
    radius = rng.uniform(0.55, 0.7)
    coupling = rng.uniform(0.03, 0.06)
    diag = radius * np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])
    link = coupling * np.eye(2)
    entries = {}
    for r in range(side):
        for c in range(side):
            i = r * side + c + 1
            entries[(i, i)] = diag
            for dr, dc in ((-1, 0), (1, 0), (0, -1), (0, 1)):
                if 0 <= r + dr < side and 0 <= c + dc < side:
                    entries[(i, (r + dr) * side + c + dc + 1)] = link
    return {
        "N": side * side,
        "n": 2,
        "tau_d": 1,
        "blocks": _blocks(entries, 2),
        "chain": {"P": [[0.5, 0.5], [0.3, 0.7]], "pi0": [1.0, 0.0]},
    }


def pendulum_tau2_model(n_agents: int = 8) -> dict:
    """The default pendulum chain (closed-loop and spring blocks as built by
    `--pendulum`) with a three-state delay chain, tau_d = 2."""
    dt, coupling, gain, ml2 = 0.1, 0.04, 5.0, 0.5
    diag = [[1.0, dt], [-2.0 * dt, 1.0 - 3.0 * dt]]
    link = [[0.0, 0.0], [coupling * gain * dt / ml2, 0.0]]
    entries = {}
    for i in range(1, n_agents + 1):
        entries[(i, i)] = diag
        if i > 1:
            entries[(i, i - 1)] = link
        if i < n_agents:
            entries[(i, i + 1)] = link
    return {
        "N": n_agents,
        "n": 2,
        "tau_d": 2,
        "blocks": _blocks(entries, 2),
        "chain": {
            "P": [[0.5, 0.3, 0.2], [0.3, 0.5, 0.2], [0.2, 0.3, 0.5]],
            "pi0": [1.0, 0.0, 0.0],
        },
    }
