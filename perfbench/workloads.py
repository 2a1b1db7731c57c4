"""The benchmark's workloads: each is a list of `mjls-stab` calls.

A call is (subcommand, argument template). `{ladder}`, `{fam128}` and
`{fam256}` name generated input files and `{seed}` the input variant; every
call also gets `--out` so the artifact and its manifest are written. The
input variant is the workload seed modulo `VARIANTS`, so references can be
stored for every input the benchmark ever generates.

run.py shares a timed run among a workload's subcommands, so a short call
runs many times and its median wall time is steady: a single sub-second
process start varies by 15 % or more on a shared two-core machine.

The ladder and the two families are drawn once (generator seed 0), not per
variant, so that the metrics follow the program rather than the seed: the
ladder's power-iteration radii land within a factor two of the 1e-9 band
(0 to 5 of its 8 scopes count as off the reference, depending on the draw),
and the simplex work of `robust` on the m=256 family varies by 25 % between
draws. The seed varies the simulation seed and the outcome-record grid.

Every workload runs every subcommand at least once, so each end-to-end metric
exists on each workload; the small calls are the bypass side of the other
workloads' heavy calls (see README.md for the reasons per workload).
"""

from __future__ import annotations

import gen

VARIANTS = 8

INPUTS = {
    "ladder": lambda variant: gen.ladder_model(0),
    "fam128": lambda variant: gen.contractive_family(0, 128),
    "fam256": lambda variant: gen.contractive_family(0, 256),
}

WORKLOADS = {
    "pendulum-large": [
        ("analyze", "--pendulum 1000 --dedup"),
        ("inspect", "--pendulum 1000"),
        ("robust", "--pendulum 1000"),
        ("simulate", "--pendulum 1000 --steps 100 --trials 4 --seed {seed}"),
    ],
    "scope-sweep": [
        ("analyze", "--pendulum 16"),
        ("analyze", "--model {ladder}"),
        ("inspect", "--model {ladder}"),
        ("robust", "--pendulum 16"),
        ("simulate", "--model {ladder} --steps 200 --trials 20 --seed {seed}"),
    ],
    "bounds-sim": [
        ("robust", "--family {fam128}"),
        ("robust", "--family {fam256}"),
        ("analyze", "--family {fam128}"),
        ("analyze", "--family {fam256}"),
        ("analyze", "--pendulum 200 --dedup"),
        ("inspect", "--pendulum 200"),
        ("simulate", "--pendulum 200 --steps 400 --trials 100 --seed {seed}"),
        ("simulate", "--pendulum 200 --steps 400 --seed {seed}"),
    ],
}

SUBCOMMANDS = ("analyze", "inspect", "robust", "simulate")

# Outcome record only: these fail at the seed (SizeLimitError on the edge and
# interior scopes), so they sit outside every timed workload.
RECORD_INPUTS = {
    "pendulum-tau2": lambda variant: gen.pendulum_tau2_model(),
    "grid5x5": lambda variant: gen.grid_model(variant),
}


def ref_key(command: str, template: str, variant: int) -> str:
    """Reference key of one call: seeded calls get one reference per variant."""
    key = f"{command} {template}"
    return f"{key} @{variant}" if "{seed}" in template else key


def write_inputs(directory, variant: int, inputs=INPUTS) -> dict:
    """Write each generated document to `directory`; returns name -> path."""
    paths = {}
    for name, make in inputs.items():
        path = directory / f"{name}.json"
        path.write_text(gen.to_json(make(variant)))
        paths[name] = str(path)
    return paths


def expand(template: str, paths: dict, variant: int) -> list[str]:
    return [token.format(seed=variant, **paths) for token in template.split()]
