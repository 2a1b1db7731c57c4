"""Compute the stored references (refs.json) for every call of every workload.

Usage (from the repository root): python3 perfbench/make_refs.py

Run once; it takes a few minutes on two cores, mostly dense eigensolves of
the 4096 x 4096 ladder test matrices. References:

- analyze: spectral radii from dense `np.linalg.eigvals` on `mss_matrix`
  (per scope) and `build_global_matrix` (nominal), the verdicts and exit
  code they imply;
- robust: alpha and beta from their definitions, eps from the two bound LPs
  solved with scipy's HiGHS instead of the program's simplex;
- inspect: a digest of the program's output fields (check.inspect_core);
- simulate: the sha256 of the CSV the program writes (its byte-identical
  output contract).
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
from scipy.optimize import linprog

import check
import run
import workloads

sys.path.insert(0, str(run.SRC))
from mjlstab.model import build_global_matrix, build_pendulum_model, load_model  # noqa: E402
from mjlstab.stability import dedup_agents, mss_matrix  # noqa: E402
from mjlstab.switched import ModeFamily, build_mode_family  # noqa: E402

_EXIT = {"stable": 0, "unstable": 2, "marginal": 3}
_radius_cache: dict = {}


def dense_radius(matrix: np.ndarray) -> float:
    key = hashlib.sha256(matrix.tobytes()).hexdigest() + str(matrix.shape)
    if key not in _radius_cache:
        _radius_cache[key] = float(np.max(np.abs(np.linalg.eigvals(matrix))))
    return _radius_cache[key]


def options(argv: list[str]) -> dict:
    opts, i = {}, 0
    while i < len(argv):
        if argv[i] == "--dedup":
            opts["dedup"], i = True, i + 1
        else:
            opts[argv[i][2:]], i = argv[i + 1], i + 2
    return opts


def scopes(opts: dict):
    """(label, agents, ModeFamily) per tested scope, and the model (or None)."""
    if "family" in opts:
        doc = json.loads(Path(opts["family"]).read_text())
        family = ModeFamily.from_matrices(doc["matrices"], doc["P"], pi0=doc.get("pi0"))
        return None, [("family", None, family)]
    if "pendulum" in opts:
        model = build_pendulum_model(int(opts["pendulum"]))
    else:
        model = load_model(Path(opts["model"]).read_text())
    classes = dedup_agents(model) if opts.get("dedup", False) else [
        [i] for i in range(1, model.n_agents + 1)]
    return model, [(f"agent {c[0]}", c, build_mode_family(model, scope=c[0]))
                   for c in classes]


def analyze_ref(opts: dict) -> dict:
    model, tested = scopes(opts)
    radii = {label: dense_radius(mss_matrix(fam).matrix) for label, _, fam in tested}
    verdicts = {check.verdict(r) for r in radii.values()}
    overall = ("unstable" if "unstable" in verdicts
               else "marginal" if "marginal" in verdicts else "stable")
    return {
        "exit": _EXIT[overall],
        "overall": overall,
        "nominal": None if model is None else dense_radius(build_global_matrix(model)),
        "scopes": radii,
    }


def bound_lp(alpha, beta_s, lower, upper, sense: float) -> np.ndarray:
    res = linprog(sense * np.ones(len(alpha)), A_ub=alpha[None, :], b_ub=[beta_s],
                  bounds=list(zip(lower, upper)), method="highs")
    if res.status != 0:
        raise RuntimeError(f"reference LP failed: {res.message}")
    return res.x


def robust_ref(opts: dict) -> dict:
    # robust always groups agents, with or without --dedup
    _, tested = scopes(dict(opts, dedup=True))
    classes = []
    for label, agents, fam in tested:
        p = fam.joint_P
        alpha = np.array([np.abs(w).sum(axis=1).max() ** 2 for w in fam.matrices])
        beta = 1.0 - alpha @ p
        feasible = bool(beta.min() > 0)
        eps = np.zeros(len(alpha))
        if feasible:
            cols = range(len(alpha))
            z_ub = np.column_stack([bound_lp(alpha, beta[s], -p[:, s], 1 - p[:, s], -1.0) for s in cols])
            z_lb = np.column_stack([bound_lp(alpha, beta[s], -p[:, s], 1 - p[:, s], 1.0) for s in cols])
            eps = np.minimum(np.abs(z_lb).min(axis=1), np.abs(z_ub).min(axis=1))
        classes.append({"scope": label, "agents": agents, "feasible": feasible,
                        "alpha": alpha.tolist(), "beta": beta.tolist(), "eps": eps.tolist()})
    return {"exit": 0, "classes": classes}


def program_ref(command: str, argv: list[str], work: Path) -> dict:
    out = work / ("ref.csv" if command == "simulate" else "ref.json")
    stdout = work / "ref.stdout"
    _, code, _ = run.run_process([sys.executable, *run.CLI, command, *argv, "--out", str(out)],
                                 run.child_env(), work, stdout, run.CALL_TIMEOUT_S)
    if code != 0:
        raise RuntimeError(f"{command} {argv} exited with {code}")
    doc = json.loads(stdout.read_text())
    if command == "inspect":
        return {"exit": 0, "digest": check.inspect_core(doc)}
    return {"exit": 0, "sha256": check.sha256(out.read_bytes()), "rows": doc["rows"]}


def main() -> None:
    refs = {}
    with tempfile.TemporaryDirectory(dir=run.HERE) as tmp:
        work = Path(tmp)
        for variant in range(workloads.VARIANTS):
            paths = workloads.write_inputs(work, variant)
            for calls in workloads.WORKLOADS.values():
                for command, template in calls:
                    key = workloads.ref_key(command, template, variant)
                    if key in refs:
                        continue
                    argv = workloads.expand(template, paths, variant)
                    if command == "analyze":
                        refs[key] = analyze_ref(options(argv))
                    elif command == "robust":
                        refs[key] = robust_ref(options(argv))
                    else:
                        refs[key] = program_ref(command, argv, work)
                    print(key, flush=True)
    (run.HERE / "refs.json").write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
