"""Command-line interface: analyze / robust / simulate / inspect.

Model sources: --model <json> loads the documented schema, --pendulum N
generates the coupled-pendulum benchmark (with --param key=value overrides),
and --family <json> (analyze/robust) ingests a raw jump-linear family
{"matrices": [[[...]], ...], "P": [[...]], "pi0": [...]} for systems without
delay structure. Every command prints JSON to stdout; --out writes the
primary artifact to a file plus a run manifest alongside it.

Exit codes: 0 success/stable, 2 unstable, 3 marginal, 1 usage or analysis
error.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import __version__
from .linalg import SizeLimitError
from .model import (
    ModelError,
    PendulumParams,
    build_pendulum_model,
    load_model,
    nominal_stability,
)
from .robust import compute_bounds
from .sim import (
    SimConfig,
    estimate_ms,
    mean_square_csv,
    simulate_trajectory,
    trajectory_csv,
)
from .stability import (
    dedup_agents,
    mss_test_family,
    mss_test_full,
    mss_test_reduced,
)
from .switched import (
    ModeFamily,
    build_mode_family,
    enumerate_links,
    mode_count,
    mode_count_formula,
)

_EXIT_BY_VERDICT = {"stable": 0, "unstable": 2, "marginal": 3}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


@dataclass
class RunManifest:
    """Reproducibility record written next to every --out artifact."""

    command: str
    arguments: list
    version: str
    model_digest: str
    result_digest: str
    timings: dict

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _read_file(path: str) -> str:
    try:
        with open(path, "r") as fh:
            return fh.read()
    except OSError as exc:
        raise _UsageError(f"cannot read {path}: {exc}")


def _parse_params(pairs) -> PendulumParams:
    overrides = {}
    valid = {f.name for f in dataclasses.fields(PendulumParams)}
    for pair in pairs or []:
        key, sep, value = pair.partition("=")
        if not sep:
            raise _UsageError(f"--param expects key=value, got {pair!r}")
        if key not in valid:
            raise _UsageError(
                f"unknown pendulum parameter {key!r} (valid: {', '.join(sorted(valid))})"
            )
        try:
            overrides[key] = float(value)
        except ValueError:
            raise _UsageError(f"--param {key}: not a number: {value!r}")
    return PendulumParams(**overrides)


def _load_family(path: str) -> ModeFamily:
    try:
        doc = json.loads(_read_file(path))
    except json.JSONDecodeError as exc:
        raise ModelError(f"family document: invalid JSON: {exc}")
    if not isinstance(doc, dict) or "matrices" not in doc or "P" not in doc:
        raise ModelError("family document: expected object with 'matrices' and 'P'")
    return ModeFamily.from_matrices(doc["matrices"], doc["P"], pi0=doc.get("pi0"))


def _model_source(args, allow_family: bool):
    """Resolve exactly one of --model / --pendulum / --family.

    Returns (model, family): family is None for DNCS sources, model is None
    for raw families.
    """
    chosen = [
        name
        for name, present in (
            ("--model", args.model is not None),
            ("--pendulum", args.pendulum is not None),
            ("--family", getattr(args, "family", None) is not None),
        )
        if present
    ]
    if len(chosen) != 1:
        what = "--model, --pendulum or --family" if allow_family else "--model or --pendulum"
        raise _UsageError(f"exactly one of {what} is required (got {chosen or 'none'})")
    if args.param and args.pendulum is None:
        raise _UsageError("--param only applies to --pendulum")

    if args.model is not None:
        return load_model(_read_file(args.model)), None
    if args.pendulum is not None:
        return build_pendulum_model(args.pendulum, params=_parse_params(args.param)), None
    return None, _load_family(args.family)


def _source_digest(source) -> str:
    """Manifest digest of a model or raw family, over a fixed byte layout.

    A family hashes the shape (m, d, d) of `matrices`, then `matrices`, `P`
    and `pi0`. A model hashes N, n, tau_d, the block count and the (i, j)
    of every block in sorted order, then those blocks, the chain's `P` and
    `pi0`.
    """
    if isinstance(source, ModeFamily):
        return _layout_digest(source.matrices.shape,
                              (source.matrices, source.joint_P, source.joint_pi0))
    keys = sorted(source.blocks)
    header = [source.n_agents, source.n, source.tau_d, len(keys)]
    return _layout_digest(header + [k for key in keys for k in key],
                          ([source.blocks[k] for k in keys], source.chain.P, source.chain.pi0))


def _layout_digest(counts, arrays) -> str:
    """SHA-256 of `counts` as little-endian uint64, then each array as
    C-order little-endian float64."""
    digest = hashlib.sha256(np.array(counts, dtype="<u8").tobytes())
    for a in arrays:
        digest.update(np.ascontiguousarray(a, dtype="<f8").tobytes())
    return digest.hexdigest()


def _emit(doc: dict, args, command: str, source, started: float, payload: str | None = None) -> None:
    """Print the result JSON; with --out, also write the artifact (payload
    text if given, else the same JSON) and its manifest, whose model digest
    is that of `source`, the model or family the command ran on."""
    text = json.dumps(doc, indent=2)
    print(text)
    out = getattr(args, "out", None)
    if out is None:
        return
    artifact = payload if payload is not None else text + "\n"
    with open(out, "w", newline="\n") as fh:
        fh.write(artifact)
    manifest = RunManifest(
        command=command,
        arguments=[str(a) for a in (args._argv or [])],
        version=__version__,
        model_digest=_source_digest(source),
        result_digest=_sha256(artifact.encode()),
        timings={"total_s": round(time.monotonic() - started, 6)},
    )
    with open(out + ".manifest.json", "w", newline="\n") as fh:
        fh.write(json.dumps(manifest.to_dict(), indent=2) + "\n")


def _count_json(count):
    if isinstance(count, tuple):
        return {"base": count[0], "exponent": count[1]}
    return count


def cmd_analyze(args) -> int:
    started = time.monotonic()
    model, family = _model_source(args, allow_family=True)
    doc: dict = {"command": "analyze"}
    if family is not None:
        report = mss_test_family(family)
        doc["nominal"] = None
    else:
        rho, stable = nominal_stability(model)
        doc["nominal"] = {"rho": rho, "stable": stable}
        if args.full:
            report = mss_test_full(model)
        else:
            report = mss_test_reduced(model, dedup=args.dedup)
    doc.update(report.to_dict())
    _emit(doc, args, "analyze", model or family, started)
    return _EXIT_BY_VERDICT[report.overall]


def cmd_robust(args) -> int:
    started = time.monotonic()
    model, family = _model_source(args, allow_family=True)
    entries = []
    if family is not None:
        bound = compute_bounds(family, margin=args.margin)
        entries.append({"scope": "family", "agents": None, **bound.to_dict()})
    else:
        for cls in dedup_agents(model):
            rep = cls[0]
            fam = build_mode_family(model, scope=rep)
            bound = compute_bounds(fam, margin=args.margin)
            entries.append({"scope": f"agent {rep}", "agents": cls, **bound.to_dict()})
    doc = {"command": "robust", "classes": entries}
    _emit(doc, args, "robust", model or family, started)
    return 0


def cmd_simulate(args) -> int:
    started = time.monotonic()
    model, _ = _model_source(args, allow_family=False)
    if args.out is None:
        raise _UsageError("simulate requires --out for the CSV")
    config = SimConfig(steps=args.steps, trials=args.trials, seed=args.seed)
    if config.trials == 1:
        record = simulate_trajectory(model, config, trial=0)
        payload = trajectory_csv(record)
        doc = {
            "command": "simulate",
            "out": args.out,
            "rows": int(record.states.shape[0]),
            "initial_sqnorm": float(record.sqnorm[0]),
            "final_sqnorm": float(record.sqnorm[-1]),
        }
    else:
        ms = estimate_ms(model, config)
        payload = mean_square_csv(ms)
        doc = {
            "command": "simulate",
            "out": args.out,
            "rows": int(ms.shape[0]),
            "initial_mean_sq": float(ms[0]),
            "final_mean_sq": float(ms[-1]),
        }
    _emit(doc, args, "simulate", model, started, payload=payload)
    return 0


def cmd_inspect(args) -> int:
    started = time.monotonic()
    model, _ = _model_source(args, allow_family=False)
    agents = [
        {
            "agent": i,
            "links": len(enumerate_links(model, i)),
            "modes": _count_json(mode_count(model, i)),
        }
        for i in range(1, model.n_agents + 1)
    ]
    classes = [
        {
            "representative": cls[0],
            "size": len(cls),
            "links": agents[cls[0] - 1]["links"],
            "modes": agents[cls[0] - 1]["modes"],
        }
        for cls in dedup_agents(model)
    ]
    doc = {
        "command": "inspect",
        "N": model.n_agents,
        "n": model.n,
        "tau_d": model.tau_d,
        "links": len(enumerate_links(model)),
        "full_modes": _count_json(mode_count(model)),
        "reduced_formula_total": sum(
            mode_count_formula(model, i) for i in range(1, model.n_agents + 1)
        ),
        "agents": agents,
        "classes": classes,
    }
    _emit(doc, args, "inspect", model, started)
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="mjls-stab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, family: bool):
        p.add_argument("--model", help="path to a model JSON document")
        p.add_argument("--pendulum", type=int, metavar="N",
                       help="generate the N-pendulum benchmark")
        if family:
            p.add_argument("--family", help="path to a raw mode-family JSON")
        p.add_argument("--param", action="append", metavar="KEY=VALUE",
                       help="override a pendulum parameter")
        p.add_argument("--out", help="write the result artifact (plus manifest) here")

    p = sub.add_parser("analyze", help="run the stability tests")
    add_common(p, family=True)
    p.add_argument("--full", action="store_true",
                   help="enumerate the whole network's modes (exponential)")
    p.add_argument("--dedup", action="store_true",
                   help="group symmetric agents before testing")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("robust", help="transition-matrix uncertainty bounds")
    add_common(p, family=True)
    p.add_argument("--margin", type=float, default=0.0,
                   help="strictness margin subtracted from each beta")
    p.set_defaults(func=cmd_robust)

    p = sub.add_parser("simulate", help="Monte Carlo simulation to CSV")
    add_common(p, family=False)
    p.add_argument("--steps", type=int, required=True, help="horizon length")
    p.add_argument("--trials", type=int, default=1, help="number of repetitions")
    p.add_argument("--seed", type=int, default=0, help="base RNG seed")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("inspect", help="mode counts and dimensions as JSON")
    add_common(p, family=False)
    p.set_defaults(func=cmd_inspect)

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        args._argv = argv
        return args.func(args)
    except _UsageError as exc:
        print(json.dumps({"error": f"usage: {exc}"}))
        return 1
    except (ModelError, SizeLimitError, ValueError, ArithmeticError, OSError) as exc:
        print(json.dumps({"error": str(exc)}))
        return 1


if __name__ == "__main__":
    sys.exit(main())
