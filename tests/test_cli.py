import hashlib
import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mjlstab
from mjlstab import cli
from mjlstab.cli import main
from mjlstab.model import DelayChain, DncsModel, build_pendulum_model, dump_model
from test_sim import pendulum_tau2

SCALAR_FAMILY = {
    "matrices": [[[0.5]], [[1.25]]],
    "P": [[0.4, 0.6], [0.5, 0.5]],
}


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def model_file(tmp_path, diag=1.0):
    doc = {
        "N": 1,
        "n": 1,
        "tau_d": 0,
        "blocks": [{"i": 1, "j": 1, "values": [diag]}],
        "chain": {"P": [[1.0]], "pi0": [1.0]},
    }
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    return str(path)


def family_file(tmp_path, doc=None):
    path = tmp_path / "family.json"
    path.write_text(json.dumps(SCALAR_FAMILY if doc is None else doc))
    return str(path)


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------


def test_analyze_pendulum_reports_stable(capsys):
    code, doc = run(capsys, "analyze", "--pendulum", "4")
    assert code == 0
    assert doc["command"] == "analyze"
    assert doc["overall"] == "stable"
    assert 0.0 < doc["nominal"]["rho"] < 1.0
    assert doc["nominal"]["stable"] is True
    assert len(doc["scopes"]) == 4
    assert doc["classes"] is None
    assert all(s["verdict"] == "stable" for s in doc["scopes"])


def test_analyze_dedup_lists_classes(capsys):
    code, doc = run(capsys, "analyze", "--pendulum", "6", "--dedup")
    assert code == 0
    assert doc["classes"] == [[1, 6], [2, 3, 4, 5]]
    assert [s["scope"] for s in doc["scopes"]] == ["agent 1", "agent 2"]


def test_analyze_full_agrees_with_reduced_for_two_agents(capsys):
    code_full, full = run(capsys, "analyze", "--pendulum", "2", "--full")
    code_red, red = run(capsys, "analyze", "--pendulum", "2")
    assert code_full == code_red == 0
    assert [s["scope"] for s in full["scopes"]] == ["global"]
    assert len(red["scopes"]) == 2
    for s in red["scopes"]:
        assert s["rho"] == full["scopes"][0]["rho"]


def test_analyze_family_source(capsys, tmp_path):
    code, doc = run(capsys, "analyze", "--family", family_file(tmp_path))
    assert code == 0
    assert doc["nominal"] is None
    assert doc["scopes"][0]["scope"] == "family"
    assert doc["scopes"][0]["m"] == 2
    # dominant root of x^2 - (0.88125)x - 0.0390625, the family's test matrix
    expected = (0.88125 + np.sqrt(0.88125**2 + 4 * 0.0390625)) / 2
    assert doc["scopes"][0]["rho"] == pytest.approx(expected, abs=1e-12)


def test_analyze_marginal_exit_code(capsys, tmp_path):
    code, doc = run(capsys, "analyze", "--model", model_file(tmp_path, diag=1.0))
    assert code == 3
    assert doc["overall"] == "marginal"


def test_analyze_unstable_exit_code(capsys, tmp_path):
    code, doc = run(capsys, "analyze", "--model", model_file(tmp_path, diag=1.1))
    assert code == 2
    assert doc["overall"] == "unstable"
    assert doc["scopes"][0]["rho"] == pytest.approx(1.21, abs=1e-12)


def test_analyze_pendulum_param_override(capsys):
    code, doc = run(capsys, "analyze", "--pendulum", "3", "--param", "coupling=0.0")
    assert code == 0
    assert doc["nominal"]["rho"] == pytest.approx(0.9, abs=1e-12)


# ---------------------------------------------------------------------------
# usage errors
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze"],
        ["analyze", "--pendulum", "2", "--model", "x.json"],
        ["analyze", "--pendulum", "2", "--full", "--reduced"],
        ["analyze", "--pendulum", "2", "--param", "nope=1"],
        ["analyze", "--pendulum", "2", "--param", "dt=abc"],
        ["analyze", "--pendulum", "2", "--param", "dt"],
        ["simulate", "--pendulum", "2", "--steps", "10"],
        ["robust"],
        ["inspect", "--pendulum", "2", "--threads", "2"],
        ["robust", "--pendulum", "2", "--threads", "2"],
        ["analyze", "--pendulum", "2", "--threads", "2"],
        ["simulate", "--pendulum", "2", "--steps", "5", "--threads", "2"],
    ],
)
def test_usage_errors_exit_one(capsys, argv):
    code, doc = run(capsys, *argv)
    assert code == 1
    assert doc["error"].startswith("usage:")


def test_param_requires_pendulum_source(capsys, tmp_path):
    code, doc = run(
        capsys, "analyze", "--model", model_file(tmp_path), "--param", "dt=0.1"
    )
    assert code == 1
    assert "--param only applies" in doc["error"]


def test_missing_model_file(capsys):
    code, doc = run(capsys, "analyze", "--model", "/no/such/file.json")
    assert code == 1
    assert "cannot read" in doc["error"]


def test_invalid_model_document(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, doc = run(capsys, "analyze", "--model", str(path))
    assert code == 1
    assert "invalid JSON" in doc["error"]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("name", ["coupling", "gravity", "dt"])
def test_non_finite_pendulum_parameter_is_rejected(capsys, name, value):
    code, doc = run(capsys, "analyze", "--pendulum", "4", "--param", f"{name}={value}")
    assert code == 1
    assert doc["error"] == f"pendulum parameter {name} must be finite"


# one non-finite entry per document field, and the ModeFamily field it names
NON_FINITE_FAMILIES = {
    "P-nan": ({**SCALAR_FAMILY, "P": [[float("nan")] * 2, [0.5, 0.5]]}, "joint_P"),
    "P-inf": ({**SCALAR_FAMILY, "P": [[float("inf"), 0.0], [0.5, 0.5]]}, "joint_P"),
    "matrices-nan": ({"matrices": [[[float("nan")]]], "P": [[1.0]]}, "matrices"),
    "pi0-nan": ({**SCALAR_FAMILY, "pi0": [float("nan"), 0.5]}, "joint_pi0"),
}


@pytest.mark.parametrize("command", ["analyze", "robust"])
@pytest.mark.parametrize("case", sorted(NON_FINITE_FAMILIES))
def test_non_finite_family_is_rejected(capsys, tmp_path, command, case):
    doc, name = NON_FINITE_FAMILIES[case]
    code = main([command, "--family", family_file(tmp_path, doc)])
    out = capsys.readouterr().out
    assert code == 1
    assert json.loads(out)["error"].startswith(name)
    assert "NaN" not in out and "Infinity" not in out


def test_invalid_family_document(capsys, tmp_path):
    path = tmp_path / "fam.json"
    path.write_text(json.dumps({"matrices": [[[0.5]]]}))
    code, doc = run(capsys, "analyze", "--family", str(path))
    assert code == 1
    assert "'matrices' and 'P'" in doc["error"]


# ---------------------------------------------------------------------------
# robust
# ---------------------------------------------------------------------------


def test_robust_family_bounds(capsys, tmp_path):
    code, doc = run(capsys, "robust", "--family", family_file(tmp_path))
    assert code == 0
    entry = doc["classes"][0]
    assert entry["scope"] == "family"
    assert entry["agents"] is None
    assert entry["feasible"] is True
    assert entry["eps"] == pytest.approx([0.4, 0.02], abs=1e-12)


def test_robust_pendulum_reports_infeasible_in_band(capsys):
    code, doc = run(capsys, "robust", "--pendulum", "2")
    assert code == 0
    assert len(doc["classes"]) == 1
    entry = doc["classes"][0]
    assert entry["agents"] == [1, 2]
    assert entry["feasible"] is False
    assert entry["eps"] == [0.0] * 4


def test_robust_margin_flag(capsys, tmp_path):
    code, doc = run(
        capsys, "robust", "--family", family_file(tmp_path), "--margin", "0.02"
    )
    assert code == 0
    assert doc["classes"][0]["eps"] == pytest.approx([0.4, 0.0328], abs=1e-12)


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def test_simulate_single_trial_writes_trajectory(capsys, tmp_path):
    out = tmp_path / "traj.csv"
    code, doc = run(
        capsys, "simulate", "--pendulum", "2", "--steps", "10", "--out", str(out)
    )
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "k,x_1_1,x_1_2,x_2_1,x_2_2,sqnorm"
    assert len(lines) == 12
    assert doc["rows"] == 11
    assert doc["initial_sqnorm"] > 0.0
    assert "final_sqnorm" in doc


def test_simulate_multi_trial_writes_mean_square(capsys, tmp_path):
    out = tmp_path / "ms.csv"
    code, doc = run(
        capsys,
        "simulate", "--pendulum", "2", "--steps", "10",
        "--trials", "3", "--seed", "5", "--out", str(out),
    )
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "k,mean_sq"
    assert len(lines) == 12
    assert doc["initial_mean_sq"] > 0.0


def test_simulate_same_seed_is_byte_identical(capsys, tmp_path):
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (out_a, out_b):
        code, _ = run(
            capsys,
            "simulate", "--pendulum", "3", "--steps", "40",
            "--trials", "2", "--seed", "9", "--out", str(out),
        )
        assert code == 0
    assert out_a.read_bytes() == out_b.read_bytes()


# sha256 of the CSVs of `simulate --pendulum 8 --steps 50 --seed 3` by trial
# count; 6 trials go through the batched trial blocks. They pin the bytes across
# versions, where the test above only compares two runs of one build.
GOLDEN_CSV_SHA256 = {
    "6": "0170b87c2ff1acec7f37e2bcf555d80dd75babd799d712aac7202b2ea2dee9a3",
    "1": "f23a0ae82b190cec2f151409c69ba0b05fcf1e33a7320ba47aa834720afb9079",
}


@pytest.mark.parametrize("trials", sorted(GOLDEN_CSV_SHA256))
def test_simulate_csv_matches_golden_digest(capsys, tmp_path, trials):
    out = tmp_path / "sim.csv"
    code, _ = run(
        capsys,
        "simulate", "--pendulum", "8", "--steps", "50",
        "--trials", trials, "--seed", "3", "--out", str(out),
    )
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_CSV_SHA256[trials]


def seeded_family():
    """Six 2x2 modes under a near-uniform chain whose infinity-norm margins
    are all positive, so `robust --family` runs both bound LPs."""
    rng = np.random.default_rng(11)
    mats = rng.standard_normal((6, 2, 2))
    norms = np.abs(mats).sum(axis=2).max(axis=1)
    mats *= (np.sqrt(rng.uniform(0.2, 0.6, size=6)) / norms)[:, None, None]
    p = rng.dirichlet(np.full(6, 20.0), size=6)
    return {"matrices": mats.tolist(), "P": p.tolist(), "pi0": rng.dirichlet(np.ones(6)).tolist()}


# sha256 of the whole stdout of each call. They pin the report bytes across
# versions, so a change that only moves code around shows it moved no bit.
GOLDEN_STDOUT_SHA256 = {
    "analyze-pendulum-16": (("analyze", "--pendulum", "16"),
        "3fe900b320c4e2713ef6ccf970dea62a93ffc192d299237a47e3d1078380d1a0"),
    "analyze-pendulum-200-dedup": (("analyze", "--pendulum", "200", "--dedup"),
        "8708916dc6b1b7a54fa7d16857298c9aabdb8b4b2cd9fa25d5e8b32bb39a29de"),
    "robust-pendulum-16": (("robust", "--pendulum", "16"),
        "9d558d5ec40a5863763f9b9b60bc1f5a1530876d480eeb13bd7869b892a330e3"),
    "inspect-pendulum-16": (("inspect", "--pendulum", "16"),
        "db4810606add143b5f7f1e23b1e6a3e7bbabc223f8659ce80d7ae80c6fec57c7"),
    "analyze-family": (("analyze", "--family"),
        "ad42317d4a0b9f915b98064b990721baad12905b15d4b6e0cd20910a83a90d30"),
    "robust-family": (("robust", "--family"),
        "f890ad9a023784e7032e6e0b5da3e2646913dde37b80601dbf613a2a3d41384d"),
}


@pytest.mark.parametrize("case", sorted(GOLDEN_STDOUT_SHA256))
def test_stdout_matches_golden_digest(capsys, tmp_path, case):
    argv, digest = GOLDEN_STDOUT_SHA256[case]
    if argv[-1] == "--family":
        argv += (family_file(tmp_path, seeded_family()),)
    code = main(list(argv))
    out = capsys.readouterr().out
    assert code == 0
    if argv[0] == "robust":
        assert all(c["feasible"] for c in json.loads(out)["classes"]) == (case == "robust-family")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def overflow_ring(n_agents=4, a=1e30, c=1e30):
    """Scalar ring whose states pass 1e308 by step 11: each agent adds its
    successor's state and subtracts its predecessor's, so once states are
    infinite, opposite infinities meet and give NaN."""
    blocks = {(i, i): np.array([[a]]) for i in range(1, n_agents + 1)}
    for i in range(1, n_agents + 1):
        blocks[(i, i % n_agents + 1)] = np.array([[c]])
        blocks[(i % n_agents + 1, i)] = np.array([[-c]])
    chain = DelayChain(P=[[0.5, 0.5], [0.5, 0.5]], pi0=[0.5, 0.5])
    return DncsModel(n_agents=n_agents, n=1, tau_d=1, blocks=blocks, chain=chain)


# sha256 of the CSVs of `simulate --model <model> --steps S --trials T --seed 3`.
# The tau_d = 2 pendulum has q = 3, so the delayed-product select picks from
# more than one older product; the overflow ring's CSVs hold inf, -inf and nan.
GOLDEN_MODEL_CSV_SHA256 = {
    "tau2-5-trials": (pendulum_tau2, 60, 5,
                      "242e05105c2b321096b4d9ed55421fc9d738aeec3cc83a67dc9d41a28342db41"),
    "overflow-1-trial": (overflow_ring, 30, 1,
                         "af16ead32c55b114693ffd086d6d4ebebc69fb6ef18e67e5f198228de5dfd296"),
    "overflow-4-trials": (overflow_ring, 30, 4,
                          "607dcc8b0f34d2c3090bbabc900de8dd1c8291a099e76721a8f7731b8c84ec1e"),
}


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("case", sorted(GOLDEN_MODEL_CSV_SHA256))
def test_simulate_model_csv_matches_golden_digest(capsys, tmp_path, case):
    make, steps, trials, digest = GOLDEN_MODEL_CSV_SHA256[case]
    path = tmp_path / "model.json"
    path.write_text(dump_model(make()))
    out = tmp_path / "sim.csv"
    code, _ = run(
        capsys,
        "simulate", "--model", str(path), "--steps", str(steps),
        "--trials", str(trials), "--seed", "3", "--out", str(out),
    )
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_simulate_in_fresh_interpreter_prints_one_document(tmp_path):
    # the trial blocks run in forked children: neither may flush the stdout
    # buffer it inherits or run atexit handlers, or the report would repeat
    src = str(Path(mjlstab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = tmp_path / "sim.csv"
    probe = "import sys; from mjlstab.cli import main; sys.exit(main())"
    proc = subprocess.run(
        [sys.executable, "-c", probe, "simulate", "--pendulum", "8",
         "--steps", "50", "--trials", "6", "--seed", "3", "--out", str(out)],
        env=env, check=True, capture_output=True, text=True,
    )
    doc, end = json.JSONDecoder().raw_decode(proc.stdout)
    assert doc["command"] == "simulate"
    assert proc.stdout[end:].strip() == ""
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_CSV_SHA256["6"]


# ---------------------------------------------------------------------------
# inspect
# ---------------------------------------------------------------------------


def test_inspect_pendulum_dimensions(capsys):
    code, doc = run(capsys, "inspect", "--pendulum", "100")
    assert code == 0
    assert doc["N"] == 100 and doc["n"] == 2 and doc["tau_d"] == 1
    assert doc["links"] == 198
    assert doc["full_modes"] == {"base": 2, "exponent": 198}
    assert doc["reduced_formula_total"] == 6280
    by_agent = {a["agent"]: a for a in doc["agents"]}
    assert by_agent[1]["modes"] == 4
    assert by_agent[50]["modes"] == 16
    assert sorted(c["size"] for c in doc["classes"]) == [2, 98]
    assert {c["modes"] for c in doc["classes"]} == {4, 16}


def test_inspect_small_model(capsys, tmp_path):
    code, doc = run(capsys, "inspect", "--model", model_file(tmp_path))
    assert code == 0
    assert doc["links"] == 0
    assert doc["full_modes"] == 1
    assert doc["classes"][0]["size"] == 1


# ---------------------------------------------------------------------------
# artifacts and manifests
# ---------------------------------------------------------------------------


def test_out_writes_artifact_and_manifest(capsys, tmp_path):
    out = tmp_path / "report.json"
    code, doc = run(
        capsys, "analyze", "--pendulum", "4", "--dedup", "--out", str(out)
    )
    assert code == 0
    artifact = json.loads(out.read_text())
    assert artifact == doc
    manifest = json.loads((tmp_path / "report.json.manifest.json").read_text())
    assert manifest["command"] == "analyze"
    assert manifest["version"] == mjlstab.__version__
    assert manifest["arguments"] == ["analyze", "--pendulum", "4", "--dedup", "--out", str(out)]
    assert manifest["result_digest"] == hashlib.sha256(out.read_bytes()).hexdigest()
    assert manifest["timings"]["total_s"] >= 0.0


def test_manifest_model_digest_is_stable(capsys, tmp_path):
    digests = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        run(capsys, "simulate", "--pendulum", "2", "--steps", "5", "--out", str(out))
        manifest = json.loads((tmp_path / (name + ".manifest.json")).read_text())
        digests.append(manifest["model_digest"])
        assert manifest["result_digest"] == hashlib.sha256(out.read_bytes()).hexdigest()
    assert digests[0] == digests[1]


def test_family_digest_is_a_fixed_byte_layout(capsys, tmp_path):
    doc = {
        "matrices": [[[0.5, 0.1], [0.0, 0.3]], [[0.2, 0.0], [0.1, 0.4]]],
        "P": [[0.4, 0.6], [0.5, 0.5]],
        "pi0": [1.0, 0.0],
    }

    def digest(doc):
        out = tmp_path / "report.json"
        run(capsys, "analyze", "--family", family_file(tmp_path, doc), "--out", str(out))
        return json.loads((tmp_path / "report.json.manifest.json").read_text())["model_digest"]

    first = digest(doc)
    assert digest(doc) == first
    # shape (m, d, d) as little-endian uint64, then matrices, P and pi0 as
    # little-endian float64
    values = np.concatenate([np.ravel(doc[k]) for k in ("matrices", "P", "pi0")])
    layout = struct.pack("<3Q", 2, 2, 2) + struct.pack(f"<{values.size}d", *values)
    assert first == hashlib.sha256(layout).hexdigest()
    moved = json.loads(json.dumps(doc))
    moved["matrices"][0][0][1] = float(np.nextafter(0.1, 1.0))
    assert digest(moved) != first


def test_model_digest_is_a_fixed_byte_layout(capsys, tmp_path):
    def digest(*source):
        out = tmp_path / "report.json"
        run(capsys, "analyze", *source, "--out", str(out))
        return json.loads((tmp_path / "report.json.manifest.json").read_text())["model_digest"]

    first = digest("--pendulum", "2")
    # N, n, tau_d, the block count and each sorted (i, j) as little-endian
    # uint64, then the blocks, P and pi0 as little-endian float64
    model = build_pendulum_model(2)
    keys = sorted(model.blocks)
    values = np.concatenate([model.blocks[k].ravel() for k in keys]
                            + [model.chain.P.ravel(), model.chain.pi0])
    layout = (struct.pack("<4Q", 2, 2, 1, 4) + struct.pack("<8Q", *np.ravel(keys))
              + struct.pack(f"<{values.size}d", *values))
    assert first == hashlib.sha256(layout).hexdigest()
    doc = json.loads(dump_model(model))
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    assert digest("--model", str(path)) == first
    doc["blocks"][0]["values"][1] = float(np.nextafter(0.1, 1.0))
    path.write_text(json.dumps(doc))
    assert digest("--model", str(path)) != first


def test_model_digest_only_with_out(capsys, tmp_path, monkeypatch):
    sources = []
    real = cli._source_digest
    monkeypatch.setattr(cli, "_source_digest", lambda source: sources.append(source) or real(source))
    run(capsys, "analyze", "--pendulum", "4")
    run(capsys, "inspect", "--pendulum", "4")
    assert sources == []
    run(capsys, "analyze", "--pendulum", "4", "--out", str(tmp_path / "report.json"))
    assert len(sources) == 1


def test_thread_environment_variable_is_ignored(capsys, monkeypatch):
    monkeypatch.setenv("MJLS_STAB_THREADS", "abc")
    code, doc = run(capsys, "analyze", "--pendulum", "3")
    assert code == 0
    assert doc["overall"] == "stable"


def test_cli_import_leaves_scipy_unloaded():
    # every CLI start pays for what `import mjlstab.cli` loads: neither the
    # solvers nor a thread pool belong on that path
    src = str(Path(mjlstab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    probe = ("import sys, mjlstab.cli; "
             "print(*[m for m in ('concurrent.futures', 'scipy') if m in sys.modules])")
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == ""


@pytest.mark.parametrize("n_agents", [1000, 10000])
def test_analyze_large_pendulum_leaves_scipy_unloaded(n_agents):
    # the pendulum network is homogeneous and its weights a uniform path, so
    # its nominal check is the closed form over the path's eigenvalues: no
    # N x N weight matrix and no ARPACK, which took minutes at 10000 agents
    src = str(Path(mjlstab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    probe = ("import sys, mjlstab.cli; "
             f"code = mjlstab.cli.main(['analyze', '--pendulum', '{n_agents}', '--dedup']); "
             "print(code, 'scipy' in sys.modules, file=sys.stderr)")
    proc = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                          capture_output=True, text=True, timeout=60)
    assert json.loads(proc.stdout)["overall"] == "stable"
    assert proc.stderr.split() == ["0", "False"]


def test_analyze_shift_ring_above_dense_cutoff(capsys, tmp_path):
    # 257 agents of dimension 2, each receiving its predecessor's state
    # unchanged: 514 eigenvalues on the unit circle, where ARPACK cannot
    # converge and the nominal check falls back to the dense eigensolve.
    n_agents = 257
    blocks = [{"i": i, "j": i, "values": [0.0] * 4} for i in range(1, n_agents + 1)]
    blocks += [{"i": i, "j": (i - 2) % n_agents + 1, "values": [1.0, 0.0, 0.0, 1.0]}
               for i in range(1, n_agents + 1)]
    doc = {"N": n_agents, "n": 2, "tau_d": 0, "blocks": blocks,
           "chain": {"P": [[1.0]], "pi0": [1.0]}}
    path = tmp_path / "ring.json"
    path.write_text(json.dumps(doc))
    code, out = run(capsys, "analyze", "--model", str(path), "--dedup")
    assert code in (0, 2, 3)
    assert out["nominal"]["rho"] == pytest.approx(1.0, abs=1e-9)
