"""Output checker: compares one `mjls-stab` call with its stored reference.

References live in refs.json and are written by make_refs.py. A call fails
when its exit code, a verdict, a scope list, a robust bound, a CSV digest or
its manifest differs from the reference. Spectral radii are compared with a
dense-eig reference: one further than `BAND` counts towards `radii_off_ref`
(the benchmark's accuracy metric) without failing the call; one further than
`GROSS` is a wrong answer and fails it.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

BAND = 1e-9     # the program's marginal band around rho = 1
GROSS = 1e-4    # ten times the nominal-rho error known at N=1000
BOUND_TOL = 1e-9


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def verdict(rho: float) -> str:
    if rho < 1.0 - BAND:
        return "stable"
    if rho > 1.0 + BAND:
        return "unstable"
    return "marginal"


def inspect_core(doc: dict) -> str:
    """Digest of the inspect fields the reference fixes (later versions may
    add keys without failing the check)."""
    core = {k: doc[k] for k in ("N", "n", "tau_d", "links", "full_modes",
                                "reduced_formula_total")}
    core["agents"] = [{k: a[k] for k in ("agent", "links", "modes")}
                      for a in doc["agents"]]
    core["classes"] = [{k: c[k] for k in ("representative", "size", "links", "modes")}
                       for c in doc["classes"]]
    return sha256(json.dumps(core, sort_keys=True).encode())


def _radius(problems: list, where: str, rho: float, ref: float) -> int:
    err = abs(rho - ref)
    if err > GROSS:
        problems.append(f"{where}: rho {rho!r} vs reference {ref!r}")
    return int(err > BAND)


def _analyze(doc: dict, ref: dict, problems: list) -> int:
    off = 0
    if ref["nominal"] is None:
        if doc["nominal"] is not None:
            problems.append("nominal: expected null")
    else:
        off += _radius(problems, "nominal", doc["nominal"]["rho"], ref["nominal"])
        if doc["nominal"]["stable"] != (ref["nominal"] < 1.0):
            problems.append("nominal: stability flag differs from the reference")
    scopes = {s["scope"]: s for s in doc["scopes"]}
    if sorted(scopes) != sorted(ref["scopes"]):
        problems.append(f"scopes {sorted(scopes)} vs {sorted(ref['scopes'])}")
        return off
    for label, rho_ref in ref["scopes"].items():
        scope = scopes[label]
        off += _radius(problems, label, scope["rho"], rho_ref)
        if scope["verdict"] != verdict(rho_ref):
            problems.append(f"{label}: reported verdict {scope['verdict']}")
    if doc["overall"] != ref["overall"]:
        problems.append(f"overall {doc['overall']} vs {ref['overall']}")
    return off


def _robust(doc: dict, ref: dict, problems: list) -> None:
    got, want = doc["classes"], ref["classes"]
    if [(c["scope"], c["agents"]) for c in got] != [(c["scope"], c["agents"]) for c in want]:
        problems.append("robust classes differ from the reference")
        return
    for g, w in zip(got, want):
        if g["feasible"] != w["feasible"]:
            problems.append(f"{w['scope']}: feasible {g['feasible']}")
        for key in ("alpha", "beta", "eps"):
            a, b = g[key], w[key]
            if len(a) != len(b) or any(abs(x - y) > BOUND_TOL for x, y in zip(a, b)):
                problems.append(f"{w['scope']}: {key} differs from the reference")


def check_call(command: str, ref: dict, exit_code: int, stdout: str, out: Path):
    """Returns (problems, radii_off) for one call; no problems means correct."""
    problems = []
    if exit_code != ref["exit"]:
        problems.append(f"exit code {exit_code}, expected {ref['exit']}")
    try:
        doc = json.loads(stdout)
        artifact = out.read_bytes()
        manifest = json.loads(Path(f"{out}.manifest.json").read_text())
    except (ValueError, OSError) as exc:
        return problems + [f"unreadable output: {exc}"], 0
    if manifest.get("command") != command or manifest.get("result_digest") != sha256(artifact):
        problems.append("manifest does not match the artifact")
    off = 0
    try:
        if command == "analyze":
            off = _analyze(doc, ref, problems)
        elif command == "robust":
            _robust(doc, ref, problems)
        elif command == "inspect":
            if inspect_core(doc) != ref["digest"]:
                problems.append("inspect output differs from the reference")
        elif sha256(artifact) != ref["sha256"] or doc["rows"] != ref["rows"]:
            problems.append("simulate CSV differs from the reference")
    except (KeyError, TypeError) as exc:
        problems.append(f"malformed {command} output: {exc!r}")
    return problems, off
